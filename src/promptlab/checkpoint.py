"""Binary checkpoint container for named float32 tensors.

Layout (little-endian): magic ``VPCK``, version u16, entry count u32,
then per entry: name length u16, name bytes (UTF-8), rank u32, extents
as u32 each, then the float32 payload in row-major order.  Round-trips
are bitwise exact.  The reader rejects an entry name that is not UTF-8
or repeats an earlier one, a rank above 64, extents too large for an
array, and a payload holding NaN or Inf, with a
:class:`CheckpointError` that names the entry.  It checks every count
against the bytes left in the file before reading, so a malformed file
fails with that error and never with an allocation failure.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import CheckpointError, ConfigError
from .fileio import atomic_open, read_exact
from .nets import ConvNetSpec, ModelParams, _layer_shapes
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
_MAX_RANK = 64  # numpy's dimension limit


def save_tensors(path, named: dict[str, np.ndarray]) -> None:
    """Write ``named`` as a VPCK file.  An entry the reader would refuse, a
    name over 65,535 UTF-8 bytes or a NaN/Inf payload, raises a
    :class:`CheckpointError` naming it before ``path`` is touched."""
    entries = []
    for name, arr in named.items():
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise CheckpointError(f"entry '{name[:40]}...' has a {len(raw)}-byte name, more than 65535")
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"NaN or Inf in entry '{name}'")
        entries.append((raw, arr))
    with atomic_open(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<H", _VERSION))
        fh.write(struct.pack("<I", len(entries)))
        for raw, arr in entries:
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def _truncated(what: str) -> CheckpointError:
    return CheckpointError(f"truncated checkpoint while reading {what}")


def load_tensors(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4, "magic", _truncated)
        if magic != _MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        (version,) = struct.unpack("<H", read_exact(fh, 2, "version", _truncated))
        if version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (count,) = struct.unpack("<I", read_exact(fh, 4, "entry count", _truncated))
        out: dict[str, np.ndarray] = {}
        for i in range(count):
            (name_len,) = struct.unpack("<H", read_exact(fh, 2, f"entry {i} name length", _truncated))
            try:
                name = read_exact(fh, name_len, f"entry {i} name", _truncated).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"entry {i} name is not valid UTF-8") from None
            if name in out:
                raise CheckpointError(f"duplicate entry '{name}'")
            (rank,) = struct.unpack("<I", read_exact(fh, 4, f"'{name}' rank", _truncated))
            if rank > _MAX_RANK:
                raise CheckpointError(f"entry '{name}' has rank {rank}, more than {_MAX_RANK}")
            shape = struct.unpack(f"<{rank}I", read_exact(fh, 4 * rank, f"'{name}' extents", _truncated))
            payload = read_exact(fh, 4 * math.prod(shape), f"'{name}' payload", _truncated)
            try:
                arr = np.frombuffer(payload, dtype="<f4").reshape(shape)
            except ValueError:  # zero-sized, but the other extents overflow an array's size
                raise CheckpointError(f"entry '{name}' extents {shape} are too large for an array") from None
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


# Integer metadata of a prompt checkpoint, with the length of each entry.
_PROMPT_META = {"prompt.pad_width": 1, "prompt.canvas": 3, "prompt.temperature": 1}


def load_prompt(path) -> tuple[VisualPrompt, int]:
    """Read a prompt checkpoint; returns ``(prompt, temperature)``.

    Each metadata entry must hold non-negative integers, the canvas
    extents and the temperature must be at least 1, the parameters must
    fill the canvas, and the frame must leave an interior, or a
    :class:`CheckpointError` names the entry.
    """
    loaded = load_tensors(path)
    for key in ("prompt.params", *_PROMPT_META):
        if key not in loaded:
            raise CheckpointError(f"prompt checkpoint missing entry '{key}'")
    meta = {}
    for key, length in _PROMPT_META.items():
        values = loaded[key]
        if values.shape != (length,) or not np.all((values >= 0) & (values == np.floor(values))):
            raise CheckpointError(
                f"entry '{key}' must hold {length} non-negative integer(s), got {values.tolist()}"
            )
        meta[key] = [int(v) for v in values]
    canvas = tuple(meta["prompt.canvas"])
    if 0 in canvas:
        raise CheckpointError(f"entry 'prompt.canvas' has a zero extent: {list(canvas)}")
    temperature = meta["prompt.temperature"][0]
    if temperature < 1:
        raise CheckpointError(f"entry 'prompt.temperature' must be >= 1, got {temperature}")
    params = loaded["prompt.params"]
    if params.shape != canvas:
        raise CheckpointError(f"entry 'prompt.params' has shape {params.shape}, the canvas is {canvas}")
    try:
        prompt = VisualPrompt(canvas, meta["prompt.pad_width"][0], Tensor(params, requires_grad=True))
    except ConfigError as exc:  # with the canvas checked above: a width below 1, or a frame with no interior
        raise CheckpointError(f"entry 'prompt.pad_width': {exc}") from None
    return prompt, temperature
