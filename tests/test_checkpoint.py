"""Binary checkpoint round-trips and corruption handling."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptlab import (
    CheckpointError,
    ConvNetSpec,
    VisualPrompt,
    init_params,
    load_model,
    load_prompt,
    save_model,
    save_prompt,
)
from promptlab.checkpoint import load_tensors, save_tensors

from conftest import poison_checkpoint, raw_checkpoint


@pytest.fixture
def named(rng):
    return {
        "a.weight": rng.standard_normal((3, 4)).astype(np.float32),
        "a.bias": rng.standard_normal(4).astype(np.float32),
        "deep.block": rng.standard_normal((2, 3, 2, 2)).astype(np.float32),
    }


def test_tensor_round_trip_is_bitwise(tmp_path, named):
    path = tmp_path / "t.vpck"
    save_tensors(path, named)
    back = load_tensors(path)
    assert set(back) == set(named)
    for name, arr in named.items():
        assert back[name].dtype == np.float32
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()


def test_save_coerces_dtype_and_layout(tmp_path):
    path = tmp_path / "t.vpck"
    fortran = np.asfortranarray(np.arange(6, dtype=np.float64).reshape(2, 3))
    save_tensors(path, {"x": fortran})
    back = load_tensors(path)["x"]
    assert back.dtype == np.float32
    assert np.array_equal(back, fortran.astype(np.float32))


def test_loaded_arrays_are_writable_copies(tmp_path, named):
    path = tmp_path / "t.vpck"
    save_tensors(path, named)
    back = load_tensors(path)
    back["a.bias"][0] = 99.0  # must not raise


@pytest.mark.parametrize(
    "entry, match",
    [
        ({"w": np.array([1.0, np.nan])}, r"^NaN or Inf in entry 'w'$"),
        ({"w": np.array([-np.inf])}, r"^NaN or Inf in entry 'w'$"),
        ({"é" * 32768: np.zeros(1)}, r"^entry 'é{40}\.\.\.' has a 65536-byte name, more than 65535$"),
        ({"w": np.zeros((2**32, 0), np.float32)}, r"^entry 'w' has an extent of 4294967296, more than 4294967295$"),
    ],
    ids=["nan", "inf", "long-name", "long-extent"],
)
def test_save_refuses_what_load_refuses(tmp_path, named, entry, match):
    """An entry the reader would reject, or the format cannot hold, fails the
    write, naming it, and leaves the file as it was and no temporary file beside it."""
    path = tmp_path / "t.vpck"
    save_tensors(path, named)
    before = path.read_bytes()
    with pytest.raises(CheckpointError, match=match):
        save_tensors(path, {**named, **entry})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.vpck"]


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "t.vpck"
    path.write_bytes(b"XXXX" + bytes(16))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_tensors(path)


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "t.vpck"
    path.write_bytes(b"VPCK" + struct.pack("<H", 77) + struct.pack("<I", 0))
    with pytest.raises(CheckpointError, match="version"):
        load_tensors(path)


@pytest.mark.parametrize("cut", [3, 5, 9, 12, 20])
def test_rejects_truncation_at_any_point(tmp_path, named, cut):
    path = tmp_path / "t.vpck"
    save_tensors(path, named)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - cut])
    with pytest.raises(CheckpointError, match="truncated"):
        load_tensors(path)


def test_rejects_trailing_bytes(tmp_path, named):
    path = tmp_path / "t.vpck"
    save_tensors(path, named)
    path.write_bytes(path.read_bytes() + b"\xff")
    with pytest.raises(CheckpointError, match="trailing"):
        load_tensors(path)


def test_scalar_saves_as_length_one_vector(tmp_path):
    path = tmp_path / "t.vpck"
    save_tensors(path, {"s": np.float32(2.5)})
    back = load_tensors(path)["s"]
    assert back.shape == (1,)
    assert back[0] == np.float32(2.5)


def test_reader_accepts_rank_zero_entry(tmp_path):
    blob = (
        b"VPCK"
        + struct.pack("<H", 1)
        + struct.pack("<I", 1)
        + struct.pack("<H", 1)
        + b"s"
        + struct.pack("<I", 0)
        + struct.pack("<f", 2.5)
    )
    path = tmp_path / "t.vpck"
    path.write_bytes(blob)
    back = load_tensors(path)["s"]
    assert back.shape == ()
    assert float(back) == 2.5


def test_rejects_entry_name_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.vpck"
    path.write_bytes(raw_checkpoint([(b"ok", np.zeros(2, np.float32)), (b"\xff\xfe", np.zeros(2, np.float32))]))
    with pytest.raises(CheckpointError, match="entry 1 name is not valid UTF-8"):
        load_tensors(path)


def test_rejects_duplicate_entry_name(tmp_path):
    path = tmp_path / "dup.vpck"
    path.write_bytes(raw_checkpoint([(b"w", np.zeros(2, np.float32)), (b"w", np.ones(2, np.float32))]))
    with pytest.raises(CheckpointError, match="duplicate entry 'w'"):
        load_tensors(path)


def test_rejects_extents_larger_than_the_file_before_reading(tmp_path):
    # 2**32 - 1 extents of 2**32 - 1 values each: the count alone exceeds int64
    blob = b"VPCK" + struct.pack("<HIH", 1, 1, 1) + b"w" + struct.pack("<I3I", 3, *(3 * [2**32 - 1]))
    path = tmp_path / "huge.vpck"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match="truncated checkpoint while reading 'w' payload"):
        load_tensors(path)
    path.write_bytes(b"VPCK" + struct.pack("<HIH", 1, 1, 1) + b"w" + struct.pack("<I", 2**32 - 1))
    with pytest.raises(CheckpointError, match="entry 'w' has rank 4294967295, more than 64"):
        load_tensors(path)


def test_rejects_zero_sized_extents_too_large_for_an_array(tmp_path):
    path = tmp_path / "huge.vpck"
    path.write_bytes(b"VPCK" + struct.pack("<HIH", 1, 1, 1) + b"w" + struct.pack("<I4I", 4, 0, *(3 * [2**32 - 1])))
    with pytest.raises(CheckpointError, match="entry 'w' extents .* too large for an array"):
        load_tensors(path)


def test_reader_accepts_rank_64(tmp_path):
    path = tmp_path / "deep.vpck"
    path.write_bytes(raw_checkpoint([(b"d", np.full((1,) * 64, 0.5, np.float32))]))
    assert load_tensors(path)["d"].shape == (1,) * 64
    path.write_bytes(b"VPCK" + struct.pack("<HIH", 1, 1, 1) + b"d" + struct.pack("<I65I", 65, *(65 * [1])) + bytes(4))
    with pytest.raises(CheckpointError, match="rank 65, more than 64"):
        load_tensors(path)


def _small_files(tmp_path_factory) -> dict[str, bytes]:
    out = tmp_path_factory.mktemp("vpck")
    prompt = VisualPrompt(canvas=(1, 6, 6), pad_width=2)
    prompt.params.data[:] = np.linspace(0.0, 1.0, 36, dtype=np.float32).reshape(1, 6, 6)
    prompt.project()
    save_prompt(out / "p.vpck", prompt, temperature=2)
    spec = ConvNetSpec((1, 6, 6), ((2, 3, 2),), 3, 2)
    save_model(out / "m.vpck", init_params(spec, seed=1))
    return {"prompt": (out / "p.vpck").read_bytes(), "model": (out / "m.vpck").read_bytes(), "spec": spec}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["prompt", "model"]), cut=st.booleans(), where=st.floats(0.0, 1.0), flip=st.integers(1, 255))
def test_any_truncation_or_byte_change_loads_or_raises_checkpoint_error(tmp_path_factory, kind, cut, where, flip):
    files = _small_files(tmp_path_factory)
    blob = bytearray(files[kind])
    pos = min(int(where * len(blob)), len(blob) - 1)
    if cut:
        del blob[pos:]
    else:
        blob[pos] ^= flip
    path = tmp_path_factory.mktemp("bad") / "x.vpck"
    path.write_bytes(bytes(blob))
    try:
        if kind == "prompt":
            load_prompt(path)
        else:
            load_model(path, files["spec"])
    except CheckpointError:
        pass


@pytest.mark.parametrize(
    "entry, values, fragment",
    [
        ("prompt.pad_width", [1.5], r"'prompt.pad_width' must hold 1 non-negative integer\(s\), got \[1.5\]"),
        ("prompt.pad_width", [-2.0], r"'prompt.pad_width' must hold 1 .* got \[-2.0\]"),
        ("prompt.pad_width", [], r"'prompt.pad_width' must hold 1 .* got \[\]"),
        ("prompt.canvas", [1.0, 8.0, 8.25], r"'prompt.canvas' must hold 3 .* got \[1.0, 8.0, 8.25\]"),
        ("prompt.canvas", [1.0, -8.0, 8.0], r"'prompt.canvas' must hold 3 "),
        ("prompt.canvas", [1.0, 8.0], r"'prompt.canvas' must hold 3 "),
        ("prompt.canvas", [1.0, 8.0, 9.0], r"'prompt.params' has shape \(1, 8, 8\), the canvas is \(1, 8, 9\)"),
        ("prompt.temperature", [0.5], r"'prompt.temperature' must hold 1 .* got \[0.5\]"),
        ("prompt.temperature", [-1.0], r"'prompt.temperature' must hold 1 "),
        ("prompt.pad_width", [0.0], r"'prompt.pad_width': pad_width must be >= 1, got 0"),
        ("prompt.pad_width", [4.0], r"'prompt.pad_width': pad_width 4 leaves no interior"),
        ("prompt.canvas", [0.0, 8.0, 8.0], r"'prompt.canvas' has a zero extent: \[0, 8, 8\]"),
        ("prompt.canvas", [1.0, 0.0, 8.0], r"'prompt.canvas' has a zero extent: \[1, 0, 8\]"),
        ("prompt.temperature", [0.0], r"'prompt.temperature' must be >= 1, got 0"),
    ],
)
def test_prompt_load_rejects_bad_metadata(tmp_path, entry, values, fragment):
    path = tmp_path / "p.vpck"
    save_prompt(path, VisualPrompt(canvas=(1, 8, 8), pad_width=2))
    loaded = load_tensors(path)
    loaded[entry] = np.asarray(values, dtype=np.float32)
    save_tensors(path, loaded)
    with pytest.raises(CheckpointError, match=fragment):
        load_prompt(path)


_MODEL_ENTRIES = [f"{layer}.{kind}" for layer in ("conv0", "conv1", "hidden", "output") for kind in ("weight", "bias")]
_PROMPT_ENTRIES = ["prompt.params", "prompt.pad_width", "prompt.canvas", "prompt.temperature"]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", _MODEL_ENTRIES)
def test_model_load_rejects_non_finite_entry(tmp_path, tiny_spec, entry, value):
    path = tmp_path / "m.vpck"
    save_model(path, init_params(tiny_spec, seed=4))
    poison_checkpoint(path, entry, value)
    with pytest.raises(CheckpointError, match=f"NaN or Inf in entry '{entry}'"):
        load_model(path, tiny_spec)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", _PROMPT_ENTRIES)
def test_prompt_load_rejects_non_finite_entry(tmp_path, entry, value):
    path = tmp_path / "p.vpck"
    save_prompt(path, VisualPrompt(canvas=(1, 8, 8), pad_width=2))
    poison_checkpoint(path, entry, value)
    with pytest.raises(CheckpointError, match=f"NaN or Inf in entry '{entry}'"):
        load_prompt(path)


# ---------------------------------------------------------------------------
# model checkpoints


def test_model_round_trip(tmp_path, tiny_spec):
    params = init_params(tiny_spec, seed=4)
    path = tmp_path / "m.vpck"
    save_model(path, params)
    back = load_model(path, tiny_spec)
    assert back.byte_signature() == params.byte_signature()
    assert not back.frozen
    assert all(t.requires_grad for _, t in back.named_tensors())
    frozen = load_model(path, tiny_spec, frozen=True)
    assert frozen.frozen
    assert all(not t.requires_grad for _, t in frozen.named_tensors())
    frozen.tensors["output.bias"].requires_grad = True  # the flags are the one record of frozen
    assert not frozen.frozen


def test_model_load_rejects_wrong_architecture(tmp_path, tiny_spec):
    params = init_params(tiny_spec, seed=4)
    path = tmp_path / "m.vpck"
    save_model(path, params)
    other = ConvNetSpec((1, 12, 12), ((4, 3, 2),), 16, 6)
    with pytest.raises(CheckpointError, match="do not match architecture"):
        load_model(path, other)


def test_model_load_rejects_shape_mismatch(tmp_path, tiny_spec):
    params = init_params(tiny_spec, seed=4)
    tensors = {name: t.data for name, t in params.named_tensors()}
    tensors["output.weight"] = tensors["output.weight"].T.copy()
    path = tmp_path / "m.vpck"
    save_tensors(path, tensors)
    with pytest.raises(CheckpointError, match="output.weight"):
        load_model(path, tiny_spec)


# ---------------------------------------------------------------------------
# prompt checkpoints


def test_prompt_round_trip(tmp_path, rng):
    prompt = VisualPrompt(canvas=(1, 10, 10), pad_width=3)
    prompt.params.data[:] = rng.uniform(0.1, 0.9, prompt.params.data.shape).astype(np.float32)
    prompt.project()  # keep only the border frame, as training steps do
    path = tmp_path / "p.vpck"
    save_prompt(path, prompt, temperature=4)
    back, temperature = load_prompt(path)
    assert temperature == 4
    assert back.canvas == (1, 10, 10)
    assert back.pad_width == 3
    assert back.params.data.tobytes() == prompt.params.data.tobytes()
    assert back.params.requires_grad


def test_prompt_load_rejects_missing_entry(tmp_path, rng):
    prompt = VisualPrompt(canvas=(1, 8, 8), pad_width=2)
    path = tmp_path / "p.vpck"
    save_prompt(path, prompt)
    loaded = load_tensors(path)
    del loaded["prompt.temperature"]
    save_tensors(path, loaded)
    with pytest.raises(CheckpointError, match="prompt.temperature"):
        load_prompt(path)
