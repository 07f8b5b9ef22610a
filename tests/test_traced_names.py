"""Every name the benchmark's tracer wraps still exists in promptlab.

``perfbench/tracer.py`` patches each ``(module, attribute)`` of its
``TRACED`` list when it installs, so a name removed or renamed here would
fail every traced benchmark run at ``Tracer.install``.  The list is read
from that file, which this test does not import.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
