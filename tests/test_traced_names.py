"""Every name the benchmark's tracer wraps still exists in promptlab.

``perfbench/tracer.py`` patches each ``(module, attribute)`` of its
``TRACED`` list when it installs, so a name removed or renamed here would
fail every traced benchmark run at ``Tracer.install``.  The list is read
from that file, which this test does not import.  The tracer also calls
``Graph.record`` positionally and reads some arguments by position, so
those positions are pinned too.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from promptlab import (
    Graph,
    PblConfig,
    SourceClassifier,
    Tensor,
    TrainHyper,
    init_params,
    softmax_cross_entropy,
    train_prompt,
)

from conftest import make_dataset

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names() -> list[tuple[str, str]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {TRACER}")


TRACED = traced_names()


@pytest.mark.parametrize("module, attr", TRACED, ids=[".".join(name) for name in TRACED])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"promptlab.{module}")
    if "." in attr:  # a method, which the tracer reads from its class's __dict__
        cls_name, attr = attr.split(".")
        owner = vars(owner)[cls_name]
    assert attr in vars(owner) and callable(getattr(owner, attr)), f"promptlab.{module} has no callable {attr!r}"


# (module, callable, the leading parameters the tracer passes or reads by position)
CALL_SHAPES = [
    ("tensor", "Graph.record", ["self", "output", "inputs", "backward_fn", "flops"]),
    ("tensor", "Graph.backward", ["self", "loss"]),
    ("nets", "forward", ["params", "batch"]),
    ("attack", "fgsm", ["pipeline", "x"]),
    ("attack", "standard_accuracy", ["pipeline", "dataset"]),
    ("attack", "adversarial_accuracy", ["pipeline", "dataset"]),
    ("checkpoint", "save_tensors", ["path"]),
]


@pytest.mark.parametrize("module, attr, leading", CALL_SHAPES, ids=[f"{m}.{a}" for m, a, _ in CALL_SHAPES])
def test_traced_call_shape(module, attr, leading):
    owner = importlib.import_module(f"promptlab.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    params = list(inspect.signature(owner).parameters.values())
    if attr.startswith("Graph."):  # the tape methods take exactly these
        assert len(params) == len(leading), params
    assert [p.name for p in params[: len(leading)]] == leading
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[: len(leading)])


def test_traced_object_reads(tiny_spec):
    """What the tracer's work counts read: a pipeline's parts and parameter
    bytes (a source pipeline is told apart by having no ``prompt``), a dataset's
    arrays, a graph's work counts, and ``train_prompt``'s result and records."""
    source = init_params(tiny_spec, seed=3).copy(frozen=True)
    dataset = make_dataset(2, 4, (1, 6, 6))
    result = train_prompt(source, dataset, "rlm", PblConfig(2), TrainHyper(1, 4, 0.1, 0.9, 0), pad_width=3)
    assert isinstance(result, tuple) and len(result) == 3
    prompt, clf, records = result
    assert clf.source is source and clf.prompt is prompt and clf.pbl == PblConfig(2)
    assert isinstance(clf.mapping.indices, tuple)
    assert isinstance(source.byte_signature(), bytes) and isinstance(prompt.params.data, np.ndarray)
    bare = SourceClassifier(source)
    assert bare.params is source and not hasattr(bare, "prompt")
    assert isinstance(dataset.images, np.ndarray) and isinstance(dataset.labels, np.ndarray)
    for r in records:
        assert [type(v) for v in (r.epoch, r.loss, r.std_acc, r.adv_acc, r.mean_confidence)] == [int] + [float] * 4
    with Graph() as g:
        loss = softmax_cross_entropy(clf.logits(Tensor(dataset.images)), dataset.labels)
    g.backward(loss)
    assert isinstance(g.flops, int) and isinstance(g.bytes_tracked, int) and g.flops > 0
