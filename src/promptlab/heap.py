"""Fix glibc's malloc thresholds, so freed buffers stay in the heap.

glibc serves a large allocation with its own ``mmap`` and trims the
heap's free top back to the OS, each above a threshold that it moves as
the program runs.  An epoch's evaluation allocates batch-sized buffers
of many sizes; under the moving thresholds most of them go back to the
OS when freed and are faulted in again, page by page, on the next
epoch, which makes page faults the largest source of system time in a
run.  Importing ``promptlab`` calls :func:`fix_thresholds` once, which
sets both thresholds for the whole process through ``mallopt`` (setting
either one turns the moving thresholds off, so both are set), and
forked evaluation workers inherit them.

Without glibc (no ``mallopt``, or a ``mallopt`` that refuses) nothing is
set and nothing is said: no artifact depends on the allocator.  The
outcome is kept in :func:`status`, which the harness records in the
non-normative ``timing.json``.
"""

from __future__ import annotations

import ctypes

__all__ = ["fix_thresholds", "status"]

# mallopt parameter numbers, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# 32 MiB is the largest mmap threshold glibc accepts on 64-bit systems
# (mallopt refuses more); 256 MiB keeps the top of the heap through a run.
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 256 << 20

_STATUS: dict = {}


def _mallopt():
    """The C library's ``mallopt``, or None when it has none."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no handle on the running program (Windows)
        return None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def fix_thresholds() -> None:
    """Set glibc's mmap and trim thresholds; :func:`status` then gives
    each threshold now in force (None where it was not set) and whether
    both took."""
    global _STATUS
    mallopt = _mallopt()
    info = {"mmap_threshold": None, "trim_threshold": None, "set": False}
    if mallopt is not None:
        if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1:
            info["mmap_threshold"] = _MMAP_THRESHOLD
        if mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1:
            info["trim_threshold"] = _TRIM_THRESHOLD
        info["set"] = info["mmap_threshold"] is not None and info["trim_threshold"] is not None
    _STATUS = info


def status() -> dict:
    """The outcome of the last :func:`fix_thresholds` call."""
    return dict(_STATUS)
