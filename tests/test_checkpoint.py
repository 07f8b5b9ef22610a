"""Binary checkpoint round-trips and corruption handling."""

import struct

import numpy as np
import pytest

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


def _raw_checkpoint(entries) -> bytes:
    """VPCK bytes for (name bytes, float32 array) pairs, written as given."""
    out = [b"VPCK", struct.pack("<HI", 1, len(entries))]
    for raw, arr in entries:
        out += [struct.pack("<H", len(raw)), raw, struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes()]
    return b"".join(out)


def test_rejects_entry_name_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.vpck"
    path.write_bytes(_raw_checkpoint([(b"ok", np.zeros(2, np.float32)), (b"\xff\xfe", np.zeros(2, np.float32))]))
    with pytest.raises(CheckpointError, match="entry 1 name is not valid UTF-8"):
        load_tensors(path)


def test_rejects_duplicate_entry_name(tmp_path):
    path = tmp_path / "dup.vpck"
    path.write_bytes(_raw_checkpoint([(b"w", np.zeros(2, np.float32)), (b"w", np.ones(2, np.float32))]))
    with pytest.raises(CheckpointError, match="duplicate entry 'w'"):
        load_tensors(path)


def _poison(path, entry, value):
    loaded = load_tensors(path)
    loaded[entry].reshape(-1)[-1] = value
    save_tensors(path, loaded)


_MODEL_ENTRIES = [f"{layer}.{kind}" for layer in ("conv0", "conv1", "hidden", "output") for kind in ("weight", "bias")]
_PROMPT_ENTRIES = ["prompt.params", "prompt.pad_width", "prompt.canvas", "prompt.temperature"]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", _MODEL_ENTRIES)
def test_model_load_rejects_non_finite_entry(tmp_path, tiny_spec, entry, value):
    path = tmp_path / "m.vpck"
    save_model(path, init_params(tiny_spec, seed=4))
    _poison(path, entry, value)
    with pytest.raises(CheckpointError, match=f"NaN or Inf in entry '{entry}'"):
        load_model(path, tiny_spec)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", _PROMPT_ENTRIES)
def test_prompt_load_rejects_non_finite_entry(tmp_path, entry, value):
    path = tmp_path / "p.vpck"
    save_prompt(path, VisualPrompt(canvas=(1, 8, 8), pad_width=2))
    _poison(path, entry, value)
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
    frozen = load_model(path, tiny_spec, frozen=True)
    assert frozen.frozen
    assert all(not t.requires_grad for _, t in frozen.named_tensors())


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
