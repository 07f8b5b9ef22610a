"""Binary checkpoint container for named float32 tensors.

Layout (little-endian): magic ``VPCK``, version u16, entry count u32,
then per entry: name length u16, name bytes (UTF-8), rank u32, extents
as u32 each, then the float32 payload in row-major order.  Round-trips
are bitwise exact.  The reader rejects an entry name that is not UTF-8
or repeats an earlier one, and a payload holding NaN or Inf, with a
:class:`CheckpointError` that names the entry.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import CheckpointError
from .fileio import atomic_open
from .nets import ConvNetSpec, ModelParams
from .prompt import VisualPrompt
from .tensor import Tensor

__all__ = [
    "save_tensors",
    "load_tensors",
    "save_model",
    "load_model",
    "save_prompt",
    "load_prompt",
]

_MAGIC = b"VPCK"
_VERSION = 1


def save_tensors(path, named: dict[str, np.ndarray]) -> None:
    with atomic_open(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<H", _VERSION))
        fh.write(struct.pack("<I", len(named)))
        for name, arr in named.items():
            arr = np.ascontiguousarray(arr, dtype=np.float32)
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def _read_exact(fh, count: int, what: str) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf


def load_tensors(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != _MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        (version,) = struct.unpack("<H", _read_exact(fh, 2, "version"))
        if version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "entry count"))
        out: dict[str, np.ndarray] = {}
        for i in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, f"entry {i} name length"))
            try:
                name = _read_exact(fh, name_len, f"entry {i} name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"entry {i} name is not valid UTF-8") from None
            if name in out:
                raise CheckpointError(f"duplicate entry '{name}'")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, f"'{name}' rank"))
            shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"'{name}' extents"))
            n_vals = int(np.prod(shape, dtype=np.int64)) if rank else 1
            payload = _read_exact(fh, 4 * n_vals, f"'{name}' payload")
            arr = np.frombuffer(payload, dtype="<f4").reshape(shape)
            if not np.isfinite(arr).all():
                raise CheckpointError(f"NaN or Inf in entry '{name}'")
            out[name] = arr.copy()
        if fh.read(1):
            raise CheckpointError("trailing bytes after final entry")
    return out


def save_model(path, params: ModelParams) -> None:
    save_tensors(path, {name: t.data for name, t in params.named_tensors()})


def load_model(path, spec: ConvNetSpec, frozen: bool = False) -> ModelParams:
    """Load a model checkpoint, verifying names and shapes against the spec."""
    loaded = load_tensors(path)
    from .nets import _layer_shapes  # shape table for verification

    expected = dict(_layer_shapes(spec))
    if set(loaded) != set(expected):
        raise CheckpointError(
            f"checkpoint entries {sorted(loaded)} do not match architecture "
            f"entries {sorted(expected)}"
        )
    tensors: dict[str, Tensor] = {}
    for name, shape in expected.items():
        if loaded[name].shape != shape:
            raise CheckpointError(
                f"entry '{name}' has shape {loaded[name].shape}, architecture wants {shape}"
            )
        tensors[name] = Tensor(loaded[name], requires_grad=not frozen)
    return ModelParams(spec, tensors, frozen=frozen)


def save_prompt(path, prompt: VisualPrompt, temperature: int = 1) -> None:
    """Prompt checkpoint: parameters plus pad/canvas/temperature metadata."""
    save_tensors(
        path,
        {
            "prompt.params": prompt.params.data,
            "prompt.pad_width": np.asarray([prompt.pad_width], dtype=np.float32),
            "prompt.canvas": np.asarray(prompt.canvas, dtype=np.float32),
            "prompt.temperature": np.asarray([temperature], dtype=np.float32),
        },
    )


def load_prompt(path) -> tuple[VisualPrompt, int]:
    loaded = load_tensors(path)
    for key in ("prompt.params", "prompt.pad_width", "prompt.canvas", "prompt.temperature"):
        if key not in loaded:
            raise CheckpointError(f"prompt checkpoint missing entry '{key}'")
    canvas = tuple(int(v) for v in loaded["prompt.canvas"])
    pad = int(loaded["prompt.pad_width"][0])
    params = Tensor(loaded["prompt.params"], requires_grad=True)
    prompt = VisualPrompt(canvas, pad, params)
    return prompt, int(loaded["prompt.temperature"][0])
