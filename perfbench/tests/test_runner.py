"""The runner's guards and its agreement with BENCHMARK.json."""

import json

import pytest

import run
import workloads as wl


def test_result_line_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, run.unit_of(n)) for n in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(wl.NAMES)


def test_refuses_unpinned_blas_threads():
    env = run.child_env()
    run.require_pinned(env)
    env["OMP_NUM_THREADS"] = "2"
    with pytest.raises(RuntimeError, match="OMP_NUM_THREADS"):
        run.require_pinned(env)
    del env["OMP_NUM_THREADS"]
    with pytest.raises(RuntimeError):
        run.require_pinned(env)


def test_train_examples_from_config():
    counts = {w: wl.train_examples(wl.config(w, 0, "out", "ckpt"), wl.HARNESS[w]) for w in wl.NAMES}
    assert counts == {"eval-std": 10_000, "eval-robust": 25_000, "sweep-ckpt": 16_000}


def test_describe_reports_tail_only_with_ten_samples_beyond():
    assert "no percentile" in run.describe([1.0] * 20)
    assert run.describe([float(i) for i in range(100)]).startswith("n=100; p90=")
