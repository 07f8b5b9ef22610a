"""Every demo runs to the end, in-process, with each harness training
phase cut to one epoch."""

import runpy
import sys
from pathlib import Path

import pytest

import promptlab.harness as harness

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# the flags that point a demo's output somewhere; demos without one write nothing
OUTPUT_FLAGS = {"attack_gallery": "--out", "custom_datasets": "--dir", "prompt_transfer": "--out"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    real = harness.default_config

    def one_epoch(*args, **kwargs):
        cfg = real(*args, **kwargs)
        for hyper in (cfg["source"]["hyper"], cfg["source"]["at_hyper"], cfg["prompt"]["hyper"]):
            hyper["epochs"] = 1
        return cfg

    monkeypatch.setattr(harness, "default_config", one_epoch)
    monkeypatch.chdir(tmp_path)  # a default relative output path lands here too
    flag = OUTPUT_FLAGS.get(demo.stem)
    monkeypatch.setattr(sys, "argv", [str(demo), *([flag, str(tmp_path / "out")] if flag else [])])
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
