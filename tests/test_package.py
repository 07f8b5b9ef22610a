"""The package's public surface: ``promptlab`` re-exports each library
module's ``__all__`` and nothing else, and ``promptlab.session`` runs as
README's library section says."""

import importlib
import json
import types

import pytest

import promptlab
from test_harness import SPLITS, small_config

LIBRARY = ("attack", "checkpoint", "data", "errors", "harness", "mapping", "metrics",
           "nets", "optim", "pipelines", "prompt", "tensor", "train")
MODULE_LEVEL = ("blas", "heap", "fileio")  # and cli, which has no __all__: its one entry point is main


@pytest.mark.parametrize("name", LIBRARY)
def test_the_package_re_exports_each_library_modules_all(name):
    module = importlib.import_module(f"promptlab.{name}")
    assert module.__all__
    assert [key for key in module.__all__ if getattr(promptlab, key, None) is not getattr(module, key)] == []


def test_the_package_exports_no_other_name():
    declared = {key for name in LIBRARY for key in importlib.import_module(f"promptlab.{name}").__all__}
    public = {key for key, value in vars(promptlab).items()
              if not key.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == declared
    for name in MODULE_LEVEL:
        assert not set(importlib.import_module(f"promptlab.{name}").__all__) & set(vars(promptlab)), name
    assert not hasattr(promptlab, "main")


def test_session_yields_the_run_setup_and_writes_timing_at_the_end(tmp_path):
    with promptlab.session(small_config(out=tmp_path)) as (cfg, data, source, timing):
        assert isinstance(cfg, promptlab.ExperimentConfig) and cfg.output_dir == tmp_path
        assert sorted(data) == sorted(SPLITS)
        assert source.frozen
        assert (tmp_path / "source.ckpt").is_file()
        assert not (tmp_path / "timing.json").exists()
    assert json.loads((tmp_path / "timing.json").read_text())["cpus"] == timing["cpus"]
