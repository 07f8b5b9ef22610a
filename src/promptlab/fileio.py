"""Atomic artifact output and bounded binary reads.

Every artifact promptlab writes goes through :func:`atomic_open`: the
bytes land in a sibling temporary file that ``os.replace`` moves onto
the target only once the writer has finished, so a reader never sees a
half-written file and a writer that fails leaves the target untouched.
Every binary reader reads through :func:`read_exact`, which checks a count
against the bytes left before it reads.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_open", "read_exact"]


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a sibling temporary file for writing; on a clean exit it
    replaces ``path``, on an exception it is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_exact(fh, count: int, what: str, error) -> bytes:
    """Read ``count`` bytes of the file ``fh``.  If fewer are left, raise
    ``error(what)`` (the caller's exception, naming its file kind) before
    reading, so that a corrupt count never sizes an allocation."""
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise error(what)
    return fh.read(count)
