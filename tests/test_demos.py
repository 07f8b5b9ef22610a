"""Every demo and every python block of the README runs to the end,
in-process, with each harness training phase cut to one epoch; every
test the README cites exists."""

import ast
import re
import runpy
import sys
from pathlib import Path

import pytest

import promptlab
import promptlab.harness as harness

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)

# the flags that point a demo's output somewhere; demos without one write nothing
OUTPUT_FLAGS = {"attack_gallery": "--out", "custom_datasets": "--dir", "prompt_transfer": "--out"}


@pytest.mark.parametrize(
    "demo", [*DEMOS, *EXAMPLES], ids=[p.stem for p in DEMOS] + [f"README-{i}" for i in range(1, len(EXAMPLES) + 1)]
)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    real = harness.default_config

    def one_epoch(*args, **kwargs):
        cfg = real(*args, **kwargs)
        for hyper in (cfg["source"]["hyper"], cfg["source"]["at_hyper"], cfg["prompt"]["hyper"]):
            hyper["epochs"] = 1
        return cfg

    monkeypatch.setattr(harness, "default_config", one_epoch)
    monkeypatch.setattr(promptlab, "default_config", one_epoch)
    monkeypatch.chdir(tmp_path)  # a default relative output path lands here too
    if isinstance(demo, str):  # a README block, run as a script the way a reader would paste it
        (tmp_path / "example.py").write_text(demo, encoding="utf-8")
        demo = tmp_path / "example.py"
    flag = OUTPUT_FLAGS.get(demo.stem)
    monkeypatch.setattr(sys, "argv", [str(demo), *([flag, str(tmp_path / "out")] if flag else [])])
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def _defines(body: list, names: list[str]) -> bool:
    """Whether the statements ``body`` define ``names[0]``, and inside it
    (a class) ``names[1]``, and so on."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == names[0]:
            return len(names) == 1 or _defines(node.body, names[1:])
    return False


def test_readme_test_references_resolve():
    """Each ``tests/<file>.py::<name>`` the README cites names a test file
    that defines it, read with ``ast``: a renamed test breaks here."""
    cited = set(re.findall(r"\b(tests/\w+\.py)::([\w:]+)", README))
    assert cited
    files = {file for file, _ in cited if (ROOT / file).is_file()}
    trees = {file: ast.parse((ROOT / file).read_text(encoding="utf-8")).body for file in files}
    missing = [f"{file}::{names}" for file, names in sorted(cited)
               if file not in trees or not _defines(trees[file], names.split("::"))]
    assert not missing
