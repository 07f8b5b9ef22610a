"""Atomic artifact writes: a writer that fails leaves no partial file."""

import numpy as np
import pytest

from promptlab.checkpoint import save_tensors
from promptlab.fileio import atomic_open


def test_completed_write_replaces_target(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old")
    with atomic_open(path, "w") as fh:
        fh.write("new")
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "t.vpck"
    # the second entry cannot be coerced to float32, after the first is written
    with pytest.raises(ValueError):
        save_tensors(path, {"ok": np.zeros(3, dtype=np.float32), "bad": "not numbers"})
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_previous_contents(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_open(path, "w") as fh:
            fh.write("partial")
            raise RuntimeError("writer died")
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
