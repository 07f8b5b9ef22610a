"""Datasets: synthetic pattern generator and binary serialization.

The synthetic task family renders oriented sinusoidal gratings, one
orientation/frequency/polarity combination per class, plus uniform
pixel noise.  The ``downstream`` style applies a fixed global transform
(quarter rotation and contrast inversion) to every image so that a
model trained on the ``source`` style faces a genuine distribution
shift rather than a resampled copy of its own task.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .fileio import atomic_open, read_exact

__all__ = [
    "Dataset",
    "SynthSpec",
    "generate_synthetic",
    "save_raw",
    "load_raw",
    "peek_raw_header",
]

_MAGIC = b"VPDS"
_VERSION = 1


@dataclass
class Dataset:
    """Images in [0,1] (N,C,h,w float32) and integer labels in [0,K)."""

    images: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DataFormatError(f"images must be (N,C,h,w), got shape {self.images.shape}")
        if self.images.dtype != np.float32:
            self.images = self.images.astype(np.float32)
        labels = np.asarray(self.labels)
        with np.errstate(invalid="ignore"):  # a NaN or Inf label casts to an arbitrary integer, refused below
            self.labels = labels.astype(np.int64, copy=False)
        if not np.array_equal(self.labels, labels):
            raise DataFormatError(f"labels must be whole numbers, got {labels[self.labels != labels][:3].tolist()}")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.images.shape[0]:
            raise DataFormatError(
                f"labels shape {self.labels.shape} does not match {self.images.shape[0]} images"
            )
        if self.n_classes < 1:
            raise DataFormatError(f"n_classes must be >= 1, got {self.n_classes}")
        if self.labels.size:
            lo, hi = int(self.labels.min()), int(self.labels.max())
            if lo < 0 or hi >= self.n_classes:
                raise DataFormatError(
                    f"labels must lie in [0, {self.n_classes}), found range [{lo}, {hi}]"
                )
        if self.images.size:
            lo, hi = float(self.images.min()), float(self.images.max())
            if not (lo >= 0.0 and hi <= 1.0):  # min and max propagate NaN, which fails both
                raise DataFormatError(f"pixel values must lie in [0,1], found [{lo}, {hi}]")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def image_size(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic split."""

    n_classes: int
    samples_per_class: int
    image_size: tuple[int, int, int]  # (C, h, w)
    style: str  # "source" | "downstream"
    noise_level: float
    seed: int

    def __post_init__(self):
        if self.n_classes < 2:
            raise DataFormatError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.samples_per_class < 1:
            raise DataFormatError(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        c, h, w = self.image_size
        if c < 1 or h < 1 or w < 1:
            raise DataFormatError(f"image_size must be positive, got {self.image_size}")
        if not (0.0 <= self.noise_level < 0.5):
            raise DataFormatError(f"noise_level must lie in [0, 0.5), got {self.noise_level}")
        if self.style not in ("source", "downstream"):
            raise DataFormatError(f"style must be 'source' or 'downstream', got {self.style!r}")


# Grating design constants.  Together with noise_level these set task
# difficulty; the values are calibrated so that a small conv net learns
# the source task comfortably while the robust-vs-standard training
# regimes produce measurably different feature sets.
_AMPLITUDE = 0.16       # contrast of the lowest-frequency gratings
_AMP_FALLOFF = 0.25     # fractional contrast loss per frequency step
_FREQ_BASE = 2.0        # cycles per _FREQ_SPAN pixels at the lowest step
_FREQ_SPAN = 32.0       # pixel span the frequency is expressed against
_PHASE_JITTER = 0.9     # per-sample phase spread, in radians per unit noise


def _class_patterns(cls: int, n_classes: int, h: int, w: int, phases: np.ndarray) -> np.ndarray:
    """Noise-free gratings for one class, one (h, w) image per phase.

    Orientations cover the full circle so every orientation axis occurs
    in both polarities (class c and class c + n/2 are sign-opposites);
    the contrast inversion used by the downstream style therefore maps
    patterns back into the same family.  Frequency is expressed in
    absolute pixel wavelengths, so a crop of a larger canvas contains
    the same spatial scales.  Odd classes sit between the even-class
    orientations rather than on them, which leaves room for pooled
    label mappings to aggregate neighbouring responses.
    """
    beta = (cls % 2) / 7.0
    theta = 2.0 * np.pi * (cls - beta) / n_classes
    n_ori = max((n_classes + 1) // 2, 1)
    fsel = (cls % n_ori) % 3
    freq = _FREQ_BASE + fsel
    amp = _AMPLITUDE * (1.0 - _AMP_FALLOFF * fsel)
    yy, xx = np.meshgrid(
        np.arange(h, dtype=np.float64),
        np.arange(w, dtype=np.float64),
        indexing="ij",
    )
    u = np.cos(theta) * xx + np.sin(theta) * yy
    arg = 2.0 * np.pi * (freq / _FREQ_SPAN) * u
    return 0.5 + amp * np.sin(arg + phases[:, None, None])


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Render a deterministic dataset from a SynthSpec.

    Each class draws its noise from a per-class child seed so the
    generator could be parallelized by class without changing output;
    samples are emitted class-ordered (callers shuffle per epoch).
    """
    c, h, w = spec.image_size
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_classes)
    jitter = _PHASE_JITTER * spec.noise_level
    chunks = []
    for cls in range(spec.n_classes):
        rng = np.random.Generator(np.random.PCG64(children[cls]))
        # Phase varies per sample, scaled by the noise level so that a
        # zero-noise spec still renders every sample of a class
        # identically.  The spread gives each class genuine
        # within-class appearance variation, the way photographs of one
        # object differ in framing.
        phases = rng.uniform(-jitter, jitter, size=spec.samples_per_class)
        base = _class_patterns(cls, spec.n_classes, h, w, phases)[:, None, :, :]
        base = np.broadcast_to(base, (spec.samples_per_class, c, h, w))
        noise = rng.uniform(-spec.noise_level, spec.noise_level, size=base.shape)
        # cast per class: elementwise, so the bytes are the same, and the
        # whole set is never held in float64
        chunks.append(np.clip(base + noise, 0.0, 1.0).astype(np.float32))
    images = np.concatenate(chunks)
    labels = np.repeat(np.arange(spec.n_classes, dtype=np.int64), spec.samples_per_class)
    if spec.style == "downstream":
        images = np.ascontiguousarray(1.0 - np.rot90(images, k=1, axes=(2, 3)))
    return Dataset(images=images, labels=labels, n_classes=spec.n_classes)


def save_raw(path, dataset: Dataset) -> None:
    """Write the binary dataset container.

    Layout (little-endian): magic ``VPDS``, version u16, then N, C, h,
    w, K as u32, then N labels as u16, then N*C*h*w pixels as u8
    (value = pixel * 255, rounded).
    """
    n, c, h, w = dataset.images.shape
    if dataset.n_classes > 0xFFFF:
        raise DataFormatError("too many classes for the u16 label field")
    pixels = np.rint(dataset.images * 255.0).astype(np.uint8)
    with atomic_open(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<H", _VERSION))
        fh.write(struct.pack("<5I", n, c, h, w, dataset.n_classes))
        fh.write(dataset.labels.astype("<u2").tobytes())
        fh.write(pixels.tobytes())


def _truncated(what: str) -> DataFormatError:
    return DataFormatError(f"truncated dataset file while reading {what}")


def _read_header(fh) -> tuple[int, int, int, int, int]:
    """Check magic and version; return (N, C, h, w, K)."""
    magic = read_exact(fh, 4, "magic", _truncated)
    if magic != _MAGIC:
        raise DataFormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    (version,) = struct.unpack("<H", read_exact(fh, 2, "version", _truncated))
    if version != _VERSION:
        raise DataFormatError(f"unsupported dataset version {version}")
    return struct.unpack("<5I", read_exact(fh, 20, "dimensions", _truncated))


def peek_raw_header(path) -> dict:
    """Read just the header; cheap validation for config loading."""
    with open(path, "rb") as fh:
        n, c, h, w, k = _read_header(fh)
    return {"n": n, "c": c, "h": h, "w": w, "n_classes": k}


def load_raw(path) -> Dataset:
    """Read the binary dataset container written by :func:`save_raw`."""
    with open(path, "rb") as fh:
        n, c, h, w, k = _read_header(fh)
        labels = np.frombuffer(read_exact(fh, 2 * n, "labels", _truncated), dtype="<u2").astype(np.int64)
        count = n * c * h * w
        pixels = np.frombuffer(read_exact(fh, count, "pixels", _truncated), dtype=np.uint8)
        if fh.read(1):
            raise DataFormatError("trailing bytes after pixel payload")
    try:
        images = (pixels.reshape(n, c, h, w).astype(np.float32)) / 255.0
    except ValueError:  # no pixels, but the other dimensions overflow an array's size
        raise DataFormatError(f"dimensions {(n, c, h, w)} are too large for an array") from None
    return Dataset(images=images, labels=labels, n_classes=k)

