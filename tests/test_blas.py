"""The BLAS thread pin: importing promptlab sets one thread, says so when
it cannot, and artifacts come out the same for any thread count."""

import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import promptlab
from promptlab import blas
from promptlab.harness import default_config, session

SRC = str(Path(promptlab.__file__).resolve().parents[1])

needs_thread_entry_point = pytest.mark.skipif(
    blas.thread_count() is None, reason="NumPy's BLAS exports no OpenBLAS thread entry point"
)


def _run_python(code: str, threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@needs_thread_entry_point
def test_import_pins_one_thread_over_the_environment():
    out = _run_python("import promptlab; print(promptlab.blas.thread_count())", threads=2)
    assert out.strip() == "1"


_TINY_RUN = """
from promptlab import default_config, run_experiment
cfg = default_config(0, {out!r})
cfg["source"]["hyper"]["epochs"] = 1
cfg["prompt"]["hyper"]["epochs"] = 1
cfg["eval"]["epsilon_grid"] = [0.0, 0.05]
run_experiment(cfg)
"""


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    outs = {}
    for threads in (1, 2):
        outs[threads] = tmp_path / f"threads{threads}"
        _run_python(_TINY_RUN.format(out=str(outs[threads])), threads=threads)
    for name in ("source.ckpt", "prompt.ckpt", "source_metrics.csv", "prompt_metrics.csv", "report.json"):
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name


def test_missing_entry_point_warns_once_and_is_recorded(monkeypatch, tmp_path):
    monkeypatch.setattr(blas, "_find_entry_points", lambda: None)
    monkeypatch.setattr(blas, "_STATUS", blas.status())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        importlib.reload(promptlab)
    messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(messages) == 1
    assert "depend on the BLAS thread count" in messages[0]

    cfg = default_config(0, str(tmp_path / "run"))
    cfg["source"]["hyper"]["epochs"] = 1
    with session(cfg):
        pass
    recorded = json.loads((tmp_path / "run" / "timing.json").read_text())["blas"]
    assert recorded["pinned"] is False
    assert recorded["threads"] is None


@needs_thread_entry_point
def test_timing_records_the_pin(tmp_path, cpus):
    cpus(3)
    cfg = default_config(0, str(tmp_path / "run"))
    cfg["source"]["hyper"]["epochs"] = 1
    with session(cfg):
        pass
    timing = json.loads((tmp_path / "run" / "timing.json").read_text())
    assert timing["cpus"] == 3  # the usable CPUs, next to the pin
    recorded = timing["blas"]
    assert recorded["pinned"] is True
    assert recorded["threads"] == 1
    assert set(recorded) == {"name", "version", "config", "threads", "pinned"}
