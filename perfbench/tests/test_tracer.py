"""Tracer coverage on tiny versions of the benchmark workloads."""

import copy
import sys

import pytest

import promptlab
import workloads as wl
from tracer import TRACED, Tracer, layer_metrics


def shrink(cfg: dict) -> dict:
    """A tiny copy of a workload config: few samples, one epoch per phase."""
    cfg = copy.deepcopy(cfg)
    for section in ("source", "downstream"):
        cfg["data"][section]["samples_per_class"] = 2
        cfg["data"][section]["test_samples_per_class"] = 2
    cfg["source"]["hyper"]["epochs"] = 1
    cfg["source"]["at_hyper"]["epochs"] = 1
    cfg["prompt"]["hyper"]["epochs"] = 1
    return cfg


def _run(workload, out, checkpoint=None):
    cfg = shrink(wl.config(workload, 0, str(out), checkpoint))
    getattr(promptlab, wl.HARNESS[workload])(promptlab.ExperimentConfig.from_dict(cfg))
    return cfg


def _traced(tmp, tag):
    """Run all three tiny workloads under one tracer each; return (cfg, tracer) per workload."""
    runs = {}
    for workload in wl.NAMES:
        ckpt = str(tmp / f"eval-robust-{tag}" / "source.ckpt") if workload == "sweep-ckpt" else None
        with Tracer() as tracer:
            cfg = _run(workload, tmp / f"{workload}-{tag}", ckpt)
        runs[workload] = (cfg, tracer)
    return runs


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return _traced(tmp, "a"), _traced(tmp, "b")


def _promptlab_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "promptlab" or n.startswith("promptlab.")]


def test_every_traced_name_records_a_span(traced_twice):
    recorded = set()
    for _cfg, tracer in traced_twice[0].values():
        recorded |= {s[0] for s in tracer.spans}
    wanted = {f"{mod}.{attr.split('.')[-1]}" for mod, attr in TRACED}
    assert wanted <= recorded, sorted(wanted - recorded)
    # every op that records onto the tape got a backward span under its own name
    assert "tensor.unlabelled.bwd" not in recorded
    assert {"tensor.conv2d.bwd", "prompt.apply_prompt.bwd", "mapping.block_reduce.bwd"} <= recorded


def test_no_unwrapped_reference_while_installed():
    with Tracer() as tracer:
        originals = tracer.originals()
        functions = {id(f) for f in originals.values()}
        for mod in _promptlab_modules():
            stale = [k for k, v in vars(mod).items() if id(v) in functions]
            assert not stale, (mod.__name__, stale)
        for mod_name, attr in TRACED:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[f"promptlab.{mod_name}"], cls_name)
                assert cls.__dict__[meth] is not originals[f"{mod_name}.{meth}"]


def test_uninstall_restores_every_attribute():
    def snapshot():
        state = {}
        for mod in _promptlab_modules():
            state[mod.__name__] = dict(vars(mod))
            for key, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    state[f"{mod.__name__}.{key}"] = dict(vars(value))
        return state

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    assert snapshot() != before
    tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        changed = [k for k, v in attrs.items() if after[name][k] is not v]
        assert not changed, (name, changed)


def test_optim_steps_match_config(traced_twice):
    for workload, (cfg, tracer) in traced_twice[0].items():
        m = layer_metrics(tracer.spans, tracer.counts)
        assert m["optim.steps"] == wl.optim_steps(cfg, wl.HARNESS[workload]), workload


def test_counts_repeat_across_traced_runs(traced_twice):
    first, second = traced_twice
    for workload in wl.NAMES:
        a = layer_metrics(first[workload][1].spans, first[workload][1].counts)
        b = layer_metrics(second[workload][1].spans, second[workload][1].counts)
        for name in ("optim.steps", "nets.forward.examples", "tensor.tape_flops"):
            assert a[name] == b[name], (workload, name)
            assert a[name] > 0


def test_duplicate_prompt_training_is_counted(traced_twice):
    ratios = {
        workload: layer_metrics(tracer.spans, tracer.counts)["train.prompt_dup_frac"]
        for workload, (_cfg, tracer) in traced_twice[0].items()
    }
    assert ratios == {"eval-std": 0.0, "eval-robust": 0.0, "sweep-ckpt": 0.25}
