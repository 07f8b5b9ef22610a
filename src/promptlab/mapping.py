"""Output-side adaptation: block-max logit reduction and label mappings.

The reduction stage merges contiguous source logits into blocks of
size ``temperature`` and keeps each block's maximum, so a downstream
class mapped onto a block may claim any of the block's source classes.
Temperature 1 leaves the logits untouched.  Label mappings are
injective assignments of downstream classes to reduced-logit indices:
fixed random (seeded) or iteratively re-derived from how often the
reduced model predicts each index on each downstream class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import ConfigError, ShapeError
from .tensor import Tensor, record_op

__all__ = [
    "PblConfig",
    "LabelMapping",
    "FrequencyMatrix",
    "block_reduce",
    "map_labels",
    "rlm_init",
    "prediction_frequencies",
    "ilm_update",
]


@dataclass(frozen=True)
class PblConfig:
    """Block-reduction settings: ``temperature`` logits merged per block."""

    temperature: int

    def __post_init__(self):
        if isinstance(self.temperature, bool) or not isinstance(self.temperature, (int, np.integer)):
            raise ConfigError(f"temperature must be an integer, got {self.temperature!r}")
        if self.temperature < 1:
            raise ConfigError(f"temperature must be >= 1, got {self.temperature}")

    def m(self, n: int) -> int:
        """Reduced dimension of ``n`` logits: ceil(n / temperature)."""
        return -(-n // self.temperature)


def block_reduce(v: Tensor, cfg: PblConfig) -> Tensor:
    """Max over contiguous blocks of ``cfg.temperature`` columns.

    Block j covers columns [j*T, min((j+1)*T, n)); the final block is
    shorter when T does not divide n.  The gradient routes entirely to
    each block's argmax column (first index on ties), mirroring how a
    max-pool backward scatters onto its selected element.
    """
    if v.data.ndim != 2:
        raise ShapeError(f"block_reduce needs (N,n) logits, got shape {v.data.shape}")
    nb, n = v.data.shape
    t, m = cfg.temperature, cfg.m(n)
    # a short last block is padded with -inf, which no value beats and which
    # loses an all -inf tie to the block's first real column
    blocks = np.full((nb, m * t), -np.inf, dtype=np.float32)
    blocks[:, :n] = v.data
    blocks = blocks.reshape(nb, m, t)
    out_data = blocks.max(axis=2)
    arg_cols = blocks.argmax(axis=2) + np.arange(m, dtype=np.int64) * t
    rows = np.arange(nb)[:, None]

    def bwd(g):
        gv = np.zeros((nb, n), dtype=np.float32)
        gv[rows, arg_cols] = g  # blocks partition the columns: no collisions
        return (gv,)

    return record_op(out_data, (v,), bwd, flops=nb * n)


@dataclass(frozen=True)
class LabelMapping:
    """Injective assignment of downstream class c to reduced index map[c]."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ConfigError(f"label mapping must be injective, got {self.indices}")
        if any(i < 0 for i in self.indices):
            raise ConfigError(f"label mapping indices must be >= 0, got {self.indices}")

    @property
    def n_classes(self) -> int:
        return len(self.indices)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.int64)


def map_labels(i_logits: Tensor, mapping: LabelMapping) -> Tensor:
    """Select the reduced-logit column assigned to each downstream class."""
    if i_logits.data.ndim != 2:
        raise ShapeError(f"map_labels needs (N,m) logits, got shape {i_logits.data.shape}")
    m = i_logits.data.shape[1]
    cols = mapping.as_array()
    if cols.size and cols.max() >= m:
        raise ShapeError(
            f"mapping index {cols.max()} out of range for reduced dimension {m}"
        )
    out_data = np.ascontiguousarray(i_logits.data[:, cols])
    shape = i_logits.data.shape

    def bwd(g):
        gi = np.zeros(shape, dtype=np.float32)
        gi[:, cols] = g  # LabelMapping refuses repeated indices: no collisions
        return (gi,)

    return record_op(out_data, (i_logits,), bwd, flops=out_data.size)


def rlm_init(m: int, k_t: int, seed: int) -> LabelMapping:
    """Seeded uniform injective draw of k_t distinct indices from [0, m)."""
    if m < k_t:
        raise ConfigError(f"need m >= K_t, got m={m} < K_t={k_t}")
    rng = np.random.Generator(np.random.PCG64(seed))
    picks = rng.choice(m, size=k_t, replace=False)
    return LabelMapping(tuple(int(i) for i in picks))


@dataclass
class FrequencyMatrix:
    """counts[c][j]: training samples of class c whose reduced argmax is j."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2:
            raise ShapeError(f"counts must be (K_t, m), got shape {self.counts.shape}")
        if self.counts.size and self.counts.min() < 0:
            raise ConfigError("frequency counts must be non-negative")


def prediction_frequencies(reduced, dataset) -> FrequencyMatrix:
    """Tally reduced-logit argmax per downstream class over a dataset.

    ``reduced`` maps a :class:`Tensor` image batch to a :class:`Tensor` of
    reduced logits (N, m), for example ``PromptedClassifier.reduced``, the
    pipeline with the label-mapping stage left off.  It is called once per
    evaluation batch (``tensor._EVAL_BATCH`` images); ``m`` is read from
    the first batch's output.
    """
    if len(dataset) == 0:
        raise ShapeError("cannot tally frequencies over an empty dataset")
    batch = tensor._EVAL_BATCH
    counts = None
    for start in range(0, len(dataset), batch):
        logits = reduced(Tensor(dataset.images[start : start + batch])).data
        yb = dataset.labels[start : start + batch]
        if counts is None:
            counts = np.zeros((dataset.n_classes, logits.shape[1]), dtype=np.int64)
        np.add.at(counts, (yb, logits.argmax(axis=1)), 1)
    return FrequencyMatrix(counts)


def ilm_update(freq: FrequencyMatrix) -> LabelMapping:
    """Greedy matching on the frequency matrix.

    Repeatedly take the globally largest remaining count — ties broken
    by lower class index, then lower reduced index — assign that
    class/index pair, and strike out its row and column.  Classes whose
    rows are exhausted (all zeros struck or never populated) fall
    through to the smallest unused index.  A single pass over the
    entries sorted by (count desc, class, index) realizes exactly this,
    because zero-count entries sort behind every positive one and, per
    class, in ascending index order.
    """
    counts = freq.counts
    k_t, m = counts.shape
    if m < k_t:
        raise ConfigError(f"need m >= K_t, got m={m} < K_t={k_t}")
    flat = counts.ravel()
    classes, indices = np.divmod(np.arange(flat.size), m)
    order = np.lexsort((indices, classes, -flat))
    assigned: dict[int, int] = {}
    used_cols = np.zeros(m, dtype=bool)
    for pos in order:
        c = int(classes[pos])
        j = int(indices[pos])
        if c in assigned or used_cols[j]:
            continue
        assigned[c] = j
        used_cols[j] = True
        if len(assigned) == k_t:
            break
    # every class is assigned: its row has m >= K_t entries, and other classes take at most K_t - 1 columns
    return LabelMapping(tuple(assigned[c] for c in range(k_t)))
