"""Synthetic dataset generation and binary container IO."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptlab import (
    ConvNetSpec,
    Dataset,
    DataFormatError,
    SourceClassifier,
    SynthSpec,
    TrainHyper,
    generate_synthetic,
    init_params,
    load_raw,
    peek_raw_header,
    save_raw,
    standard_accuracy,
    train_standard,
)


def small_spec(**overrides):
    base = dict(
        n_classes=4,
        samples_per_class=3,
        image_size=(1, 10, 10),
        style="source",
        noise_level=0.3,
        seed=5,
    )
    base.update(overrides)
    return SynthSpec(**base)


# ---------------------------------------------------------------------------
# container validation


class TestDatasetValidation:
    def test_rejects_wrong_rank(self):
        with pytest.raises(DataFormatError, match="N,C,h,w"):
            Dataset(np.zeros((3, 8, 8), np.float32), np.zeros(3, np.int64), 2)

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(DataFormatError, match="does not match"):
            Dataset(np.zeros((3, 1, 8, 8), np.float32), np.zeros(2, np.int64), 2)

    def test_rejects_label_out_of_range(self):
        labels = np.array([0, 1, 2], np.int64)
        with pytest.raises(DataFormatError, match=r"labels must lie in \[0, 2\)"):
            Dataset(np.zeros((3, 1, 8, 8), np.float32), labels, 2)

    def test_rejects_negative_label(self):
        labels = np.array([0, -1, 1], np.int64)
        with pytest.raises(DataFormatError, match="labels must lie in"):
            Dataset(np.zeros((3, 1, 8, 8), np.float32), labels, 2)

    @pytest.mark.parametrize("labels", [[0.7, 1.2], [0.0, 0.5], [0.0, np.nan], [1.0, np.inf]])
    def test_rejects_labels_that_are_not_whole_numbers(self, labels):
        with pytest.raises(DataFormatError, match="labels must be whole numbers"):
            Dataset(np.zeros((2, 1, 2, 2), np.float32), labels, 2)

    @pytest.mark.parametrize("labels", [np.array([1, 0], np.int32), [1.0, 0.0], np.array([True, False])])
    def test_loads_whole_number_labels_of_any_dtype(self, labels):
        ds = Dataset(np.zeros((2, 1, 2, 2), np.float32), labels, 2)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]

    def test_loads_an_empty_label_list(self):
        assert len(Dataset(np.zeros((0, 1, 2, 2), np.float32), [], 2)) == 0

    def test_rejects_pixels_outside_unit_interval(self):
        images = np.full((2, 1, 4, 4), 1.5, np.float32)
        with pytest.raises(DataFormatError, match="pixel values"):
            Dataset(images, np.zeros(2, np.int64), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_pixels(self, bad):
        images = np.full((2, 1, 4, 4), 0.5, np.float32)
        images[1, 0, 2, 3] = bad
        with pytest.raises(DataFormatError, match="pixel values"):
            Dataset(images, np.zeros(2, np.int64), 2)

    def test_coerces_float64_images(self):
        ds = Dataset(np.zeros((2, 1, 4, 4), np.float64), np.zeros(2, np.int64), 2)
        assert ds.images.dtype == np.float32

    def test_len_and_image_size(self):
        ds = Dataset(np.zeros((5, 3, 6, 7), np.float32), np.zeros(5, np.int64), 2)
        assert len(ds) == 5
        assert ds.image_size == (3, 6, 7)


class TestSynthSpecValidation:
    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(n_classes=1), "n_classes"),
            (dict(samples_per_class=0), "samples_per_class"),
            (dict(noise_level=0.5), "noise_level"),
            (dict(noise_level=-0.01), "noise_level"),
            (dict(style="target"), "style"),
            (dict(image_size=(0, 8, 8)), "image_size"),
        ],
    )
    def test_rejects_bad_fields(self, overrides, fragment):
        with pytest.raises(DataFormatError, match=fragment):
            small_spec(**overrides)


# ---------------------------------------------------------------------------
# generator semantics


def test_generation_is_deterministic():
    a = generate_synthetic(small_spec())
    b = generate_synthetic(small_spec())
    assert a.images.tobytes() == b.images.tobytes()
    assert np.array_equal(a.labels, b.labels)


def test_seed_changes_output():
    a = generate_synthetic(small_spec(seed=5))
    b = generate_synthetic(small_spec(seed=6))
    assert a.images.tobytes() != b.images.tobytes()


def test_labels_are_class_ordered():
    ds = generate_synthetic(small_spec())
    expected = np.repeat(np.arange(4, dtype=np.int64), 3)
    assert np.array_equal(ds.labels, expected)


def test_pixels_live_in_unit_interval():
    ds = generate_synthetic(small_spec(noise_level=0.49))
    assert ds.images.dtype == np.float32
    assert ds.images.min() >= 0.0
    assert ds.images.max() <= 1.0


def test_zero_noise_collapses_within_class_variation():
    ds = generate_synthetic(small_spec(noise_level=0.0, samples_per_class=4))
    for cls in range(4):
        block = ds.images[ds.labels == cls]
        assert np.array_equal(block, np.broadcast_to(block[:1], block.shape))
    # distinct classes still render distinct patterns
    assert not np.array_equal(ds.images[0], ds.images[4])


def test_downstream_style_is_inverted_rotation_of_source():
    src = generate_synthetic(small_spec(noise_level=0.25))
    down = generate_synthetic(small_spec(noise_level=0.25, style="downstream"))
    expected = np.ascontiguousarray(1.0 - np.rot90(src.images, k=1, axes=(2, 3)))
    assert np.array_equal(down.images, expected)
    assert np.array_equal(down.labels, src.labels)


def test_multichannel_replicates_pattern():
    ds = generate_synthetic(small_spec(image_size=(3, 8, 8), noise_level=0.0))
    assert np.array_equal(ds.images[:, 0], ds.images[:, 1])
    assert np.array_equal(ds.images[:, 0], ds.images[:, 2])


def render_per_sample(spec: SynthSpec) -> np.ndarray:
    """The generator's images rendered one grating at a time, with the
    same draws and the same float64 expression per pixel."""
    c, h, w = spec.image_size
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_classes)
    jitter = 0.9 * spec.noise_level
    chunks = []
    for cls in range(spec.n_classes):
        rng = np.random.Generator(np.random.PCG64(children[cls]))
        phases = rng.uniform(-jitter, jitter, size=spec.samples_per_class)
        theta = 2.0 * np.pi * (cls - (cls % 2) / 7.0) / spec.n_classes
        fsel = (cls % max((spec.n_classes + 1) // 2, 1)) % 3
        amp = 0.16 * (1.0 - 0.25 * fsel)
        yy, xx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
        u = np.cos(theta) * xx + np.sin(theta) * yy
        base = np.stack([0.5 + amp * np.sin(2.0 * np.pi * ((2.0 + fsel) / 32.0) * u + p)[None] for p in phases])
        base = np.broadcast_to(base, (spec.samples_per_class, c, h, w))
        noise = rng.uniform(-spec.noise_level, spec.noise_level, size=base.shape)
        chunks.append(np.clip(base + noise, 0.0, 1.0))
    images = np.concatenate(chunks).astype(np.float32)
    if spec.style == "downstream":
        images = np.ascontiguousarray(1.0 - np.rot90(images, k=1, axes=(2, 3)))
    return images


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_classes=st.integers(2, 11),
    per_class=st.integers(1, 9),
    c=st.sampled_from([1, 3]),
    h=st.integers(0, 16).map(lambda k: 2 * k + 1),
    w=st.integers(0, 16).map(lambda k: 2 * k + 1),
    style=st.sampled_from(["source", "downstream"]),
    noise=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**31 - 1),
)
def test_generator_matches_per_sample_rendering(n_classes, per_class, c, h, w, style, noise, seed):
    spec = SynthSpec(n_classes, per_class, (c, h, w), style, noise, seed)
    assert generate_synthetic(spec).images.tobytes() == render_per_sample(spec).tobytes()


@pytest.mark.parametrize("style", ["source", "downstream"])
@pytest.mark.parametrize("c, h, w", [(1, 32, 32), (3, 24, 24), (1, 20, 28), (3, 9, 14)])
def test_generator_peak_is_the_images_and_a_few_class_blocks(style, c, h, w):
    """At square, non-square and even sizes the generator gives the
    per-sample rendering's bytes, and its traced peak is the images plus
    at most six float64 class blocks."""
    import tracemalloc

    spec = SynthSpec(20, 30, (c, h, w), style, 0.45, seed=3)
    generate_synthetic(SynthSpec(2, 1, (c, 3, 3), style, 0.45, seed=0))  # a process's first call also fills caches
    tracemalloc.start()
    try:
        images = generate_synthetic(spec).images
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = spec.samples_per_class * c * h * w * 8
    assert peak <= images.nbytes + 6 * block
    assert images.tobytes() == render_per_sample(spec).tobytes()


# ---------------------------------------------------------------------------
# binary container IO


def u8_dataset(rng, n=6, c=1, h=5, w=4, k=3):
    """Random dataset whose pixels sit exactly on the u8 quantization grid."""
    images = rng.integers(0, 256, size=(n, c, h, w)).astype(np.float32) / 255.0
    labels = rng.integers(0, k, size=n).astype(np.int64)
    return Dataset(images=images, labels=labels, n_classes=k)


def test_round_trip_on_quantized_pixels(tmp_path, rng):
    ds = u8_dataset(rng)
    path = tmp_path / "ds.vpds"
    save_raw(path, ds)
    back = load_raw(path)
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)
    assert back.n_classes == ds.n_classes
    assert back.labels.dtype == np.int64


def test_round_trip_quantizes_arbitrary_floats(tmp_path):
    images = np.linspace(0.0, 1.0, 32, dtype=np.float32).reshape(2, 1, 4, 4)
    ds = Dataset(images, np.array([0, 1], np.int64), 2)
    path = tmp_path / "ds.vpds"
    save_raw(path, ds)
    back = load_raw(path)
    expected = np.rint(images * 255.0).astype(np.float32) / 255.0
    assert np.array_equal(back.images, expected)
    # a second round trip is lossless once quantized
    save_raw(path, back)
    again = load_raw(path)
    assert np.array_equal(again.images, back.images)


def test_round_trip_handwriting_sized_corpus(tmp_path):
    rng = np.random.Generator(np.random.PCG64(99))
    ds = u8_dataset(rng, n=100, c=1, h=28, w=28, k=10)
    path = tmp_path / "digits.vpds"
    save_raw(path, ds)
    back = load_raw(path)
    assert back.images.shape == (100, 1, 28, 28)
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)


def test_peek_header_matches_payload(tmp_path, rng):
    ds = u8_dataset(rng, n=7, c=3, h=9, w=11, k=5)
    path = tmp_path / "ds.vpds"
    save_raw(path, ds)
    header = peek_raw_header(path)
    assert header == {"n": 7, "c": 3, "h": 9, "w": 11, "n_classes": 5}


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.vpds"
    path.write_bytes(b"NOPE" + b"\x00" * 30)
    with pytest.raises(DataFormatError, match="bad magic"):
        load_raw(path)
    with pytest.raises(DataFormatError, match="bad magic"):
        peek_raw_header(path)


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.vpds"
    path.write_bytes(b"VPDS" + struct.pack("<H", 9) + struct.pack("<5I", 0, 1, 1, 1, 1))
    with pytest.raises(DataFormatError, match="version"):
        load_raw(path)


def test_load_rejects_truncated_payload(tmp_path, rng):
    ds = u8_dataset(rng)
    path = tmp_path / "ds.vpds"
    save_raw(path, ds)
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(DataFormatError, match="truncated"):
        load_raw(path)


def test_load_rejects_trailing_bytes(tmp_path, rng):
    ds = u8_dataset(rng)
    path = tmp_path / "ds.vpds"
    save_raw(path, ds)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        load_raw(path)


def test_load_rejects_label_outside_class_count(tmp_path):
    buf = io.BytesIO()
    buf.write(b"VPDS" + struct.pack("<H", 1) + struct.pack("<5I", 1, 1, 2, 2, 3))
    buf.write(struct.pack("<H", 7))  # label 7 with only 3 classes
    buf.write(bytes(4))
    path = tmp_path / "bad.vpds"
    path.write_bytes(buf.getvalue())
    with pytest.raises(DataFormatError, match="labels must lie in"):
        load_raw(path)


def test_save_rejects_class_count_overflow(tmp_path):
    ds = Dataset(np.zeros((1, 1, 2, 2), np.float32), np.zeros(1, np.int64), 70000)
    with pytest.raises(DataFormatError, match="u16"):
        save_raw(tmp_path / "ds.vpds", ds)


def test_load_rejects_dimensions_larger_than_the_file_before_reading(tmp_path):
    path = tmp_path / "huge.vpds"
    path.write_bytes(b"VPDS" + struct.pack("<H", 1) + struct.pack("<5I", 1, *(3 * [2**32 - 1]), 2) + bytes(2))
    with pytest.raises(DataFormatError, match="truncated dataset file while reading pixels"):
        load_raw(path)
    path.write_bytes(b"VPDS" + struct.pack("<H", 1) + struct.pack("<5I", 0, 0, *(2 * [2**32 - 1]), 2))
    with pytest.raises(DataFormatError, match="too large for an array"):
        load_raw(path)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cut=st.booleans(), where=st.floats(0.0, 1.0), flip=st.integers(1, 255))
def test_any_truncation_or_byte_change_loads_or_raises_data_format_error(tmp_path_factory, cut, where, flip):
    path = tmp_path_factory.mktemp("vpds") / "ds.vpds"
    save_raw(path, u8_dataset(np.random.default_rng(3), n=5, c=2, h=3, w=2, k=3))
    blob = bytearray(path.read_bytes())
    pos = min(int(where * len(blob)), len(blob) - 1)
    if cut:
        del blob[pos:]
    else:
        blob[pos] ^= flip
    path.write_bytes(bytes(blob))
    try:
        peek_raw_header(path)
        load_raw(path)
    except DataFormatError:
        pass


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n_classes=st.integers(2, 5),
    per_class=st.integers(1, 3),
    h=st.integers(1, 4),
    w=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_round_trip_property(tmp_path_factory, n_classes, per_class, h, w, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    ds = u8_dataset(rng, n=n_classes * per_class, c=1, h=h, w=w, k=n_classes)
    path = tmp_path_factory.mktemp("vpds") / "ds.vpds"
    save_raw(path, ds)
    back = load_raw(path)
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)
    assert back.n_classes == ds.n_classes


# ---------------------------------------------------------------------------
# the rendered tasks are actually learnable (and style transfer is not free)


@pytest.fixture(scope="module")
def fitted_source():
    train = generate_synthetic(
        SynthSpec(8, 25, (1, 20, 20), "source", 0.45, seed=11)
    )
    spec = ConvNetSpec((1, 20, 20), ((8, 3, 2), (16, 3, 2)), 32, 8)
    params = init_params(spec, 3)
    params, _ = train_standard(params, train, TrainHyper(15, 32, 0.05, 0.9, 21))
    return SourceClassifier(params)


def test_source_task_is_learnable(fitted_source):
    test = generate_synthetic(SynthSpec(8, 10, (1, 20, 20), "source", 0.45, seed=12))
    assert standard_accuracy(fitted_source, test) >= 0.9


def test_downstream_style_defeats_unadapted_source(fitted_source):
    shifted = generate_synthetic(SynthSpec(8, 10, (1, 20, 20), "downstream", 0.45, seed=12))
    assert standard_accuracy(fitted_source, shifted) < 0.7
