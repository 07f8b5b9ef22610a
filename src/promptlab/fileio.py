"""Atomic artifact output and bounded binary reads.

Every artifact promptlab writes goes through :func:`atomic_open`: the
bytes land in a sibling temporary file that ``os.replace`` moves onto
the target only once the writer has finished, so a reader never sees a
half-written file and a writer that fails leaves the target untouched.
Text artifacts go through :func:`write_text`, with LF line endings on
every platform, and the CSV tables (metrics, sweep, ablation) through
:func:`write_table`.
Every binary reader reads through :func:`read_exact`, which checks a count
against the bytes left before it reads.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_open", "read_exact", "write_table", "write_text"]


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


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically, with LF line endings."""
    with atomic_open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_table(path, header: str, row_format: str, rows) -> None:
    """One ``header`` line, then ``row_format.format(**row)`` per dict in ``rows``."""
    write_text(path, "\n".join([header] + [row_format.format(**r) for r in rows]) + "\n")


def read_exact(fh, count: int, what: str, error) -> bytes:
    """Read ``count`` bytes of the file ``fh``.  If fewer are left, raise
    ``error(what)`` (the caller's exception, naming its file kind) before
    reading, so that a corrupt count never sizes an allocation."""
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise error(what)
    return fh.read(count)
