"""Per-epoch metrics records, CSV persistence, and work accounting.

``wall_ms`` and ``peak_mem_bytes`` are deterministic proxies rather
than clock/allocator readings: the differentiation graph counts the
arithmetic it performs and the bytes of each op output, of each input
from outside the graph (once) and of each gradient it forms, and those
counts are converted at a fixed nominal rate.  This keeps metrics files
bitwise reproducible across runs while still ordering cheap and
expensive configurations correctly; real elapsed times are reported
separately by the harness in a non-normative timing sidecar.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass

from .errors import ConfigError, DataFormatError, NumericsError
from .fileio import write_table

__all__ = ["MetricsRecord", "write_metrics", "read_metrics", "WorkMeter", "WORK_FLOPS_PER_MS"]

# nominal throughput pinning the flop-count -> milliseconds conversion
WORK_FLOPS_PER_MS = 1_000_000

CSV_HEADER = ["epoch", "loss", "std_acc", "adv_acc", "mean_confidence", "wall_ms", "peak_mem_bytes"]
# per column, in CSV_HEADER order: how a row is written, and the type it is read back as
_ROW_FORMAT = "{epoch:d},{loss:.6f},{std_acc:.6f},{adv_acc:.6f},{mean_confidence:.6f},{wall_ms:d},{peak_mem_bytes:d}"
_COLUMN_TYPES = (int, float, float, float, float, int, int)


@dataclass(frozen=True)
class MetricsRecord:
    epoch: int
    loss: float
    std_acc: float
    adv_acc: float
    mean_confidence: float
    wall_ms: int
    peak_mem_bytes: int

    def __post_init__(self):
        if not math.isfinite(self.loss):  # finite logits spread past the float32 range give Inf
            raise NumericsError(f"NaN or Inf in epoch {self.epoch} loss")
        for name in ("std_acc", "adv_acc", "mean_confidence"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} out of [0,1]: {v}")


class WorkMeter:
    """Accumulates graph flop counts and per-step live-buffer peaks."""

    def __init__(self, persistent_bytes: int = 0):
        self.flops = 0
        self.peak_bytes = int(persistent_bytes)
        self._persistent = int(persistent_bytes)
        self._step_bytes = 0

    def add_graph(self, graph) -> None:
        self.flops += graph.flops
        self._step_bytes += graph.bytes_tracked

    def end_step(self) -> None:
        self.peak_bytes = max(self.peak_bytes, self._persistent + self._step_bytes)
        self._step_bytes = 0

    def wall_ms(self) -> int:
        return int(round(self.flops / WORK_FLOPS_PER_MS))


def write_metrics(records, path) -> None:
    """Write the canonical CSV: 6-decimal floats, LF line endings."""
    records = list(records)
    if not records:
        raise DataFormatError("refusing to write an empty metrics file")
    last = -1
    for r in records:
        if r.epoch <= last:
            raise DataFormatError(f"epochs must strictly increase, got {r.epoch} after {last}")
        last = r.epoch
    write_table(path, ",".join(CSV_HEADER), _ROW_FORMAT, [asdict(r) for r in records])


def read_metrics(path) -> list[MetricsRecord]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise DataFormatError(f"unexpected metrics header {header}")
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise DataFormatError(f"{path} line {reader.line_num}: bad metrics row {row}")
            try:
                out.append(MetricsRecord(*(cast(value) for cast, value in zip(_COLUMN_TYPES, row))))
            except (ValueError, NumericsError) as exc:  # ConfigError is a ValueError
                raise DataFormatError(f"{path} line {reader.line_num}: bad metrics row {row}: {exc}") from exc
    if not out:
        raise DataFormatError("metrics file has no rows")
    return out
