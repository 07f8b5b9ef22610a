"""Mutation checks that outlive the change that proved them.

Each entry of :data:`MUTANTS` names a file, an exact text in it, the text
that replaces it, the test files or test ids (``file::name``) that must fail
once it is replaced, and one line of why.  ``python tests/mutants.py``
applies one mutant at a time to a fresh copy of ``src/``, ``tests/`` and
``pyproject.toml`` in a temporary directory, so the copy's ``pythonpath =
["src"]`` cannot load the unmutated package, runs the named tests there
with ``-x``, and prints killed or survived; it exits 1 if a mutant survived
or its tests could not run.

``tests/test_mutants.py`` checks that each old text still occurs exactly
once in its file, so a refactor that moves one updates its entry here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in ``file``
    new: str
    tests: tuple[str, ...]  # test files or test ids, relative to the repository root, that must fail
    why: str


MUTANTS = [
    # an attack differentiates only its input
    Mutant(
        "attack-graph-without-wrt",
        "src/promptlab/attack.py",
        "with Graph(wrt=xt) as g:",
        "with Graph() as g:",
        ("tests/test_attack.py",),
        "an attack pass must form only the input gradient, whoever calls it",
    ),
    Mutant(
        "needs-grad-without-wrt",
        "src/promptlab/tensor.py",
        "return g is not None and x.requires_grad and (g.wrt is None or x is g.wrt or made_here)",
        "return g is not None and x.requires_grad",
        ("tests/test_tensor.py",),
        "a wrt graph must neither keep what, nor fill gradients that, only other leaves need",
    ),
    Mutant(
        "conv2d-reads-the-kernel-flag",
        "src/promptlab/tensor.py",
        "if _needs_grad(kernel) else None",
        "if kernel.requires_grad else None",
        ("tests/test_tensor.py",),
        "conv2d under Graph(wrt=x) must keep no patches for a kernel that requires grad",
    ),
    Mutant(
        "add-row-bias-reads-the-bias-flag",
        "src/promptlab/tensor.py",
        """(K,), got {x.data.shape} and {bias.data.shape}"
        )
    x_grad, bias_grad = _needs_grad(x), _needs_grad(bias)""",
        """(K,), got {x.data.shape} and {bias.data.shape}"
        )
    x_grad, bias_grad = _needs_grad(x), bias.requires_grad""",
        ("tests/test_tensor.py",),
        "add_row_bias under Graph(wrt=x) must form no bias gradient",
    ),
    Mutant(
        "record-op-reads-the-input-flags",
        "src/promptlab/tensor.py",
        "out.requires_grad = any(map(_needs_grad, inputs)) if _GRAPH_STACK",
        "out.requires_grad = any(t.requires_grad for t in inputs) if _GRAPH_STACK",
        ("tests/test_tensor.py",),
        "an op's output must require grad only when an input needs a gradient from the open graph",
    ),
    # trainability is one fact
    Mutant(
        "backward-fills-every-flagged-leaf",
        "src/promptlab/tensor.py",
        "elif _needs_grad(src, self):",
        "elif src.requires_grad:",
        ("tests/test_tensor.py",),
        "backward must drop the gradients a custom op forms for leaves other than wrt",
    ),
    Mutant(
        "backward-overwrites-a-fan-out-gradient",
        "src/promptlab/tensor.py",
        "if src in grads:",
        "if False:",
        ("tests/test_tensor.py",),
        "an op output that feeds two inputs must get the sum of both gradients, not the last one",
    ),
    Mutant(
        "copy-thaws-by-default",
        "src/promptlab/nets.py",
        "requires_grad=t.requires_grad if frozen is None else not frozen",
        "requires_grad=True if frozen is None else not frozen",
        ("tests/test_nets.py",),
        "copy() must keep each tensor's flag unless told to freeze or thaw",
    ),
    Mutant(
        "frozen-when-any-flag-is-off",
        "src/promptlab/nets.py",
        "return not any(t.requires_grad for t in self.tensors.values())",
        "return not all(t.requires_grad for t in self.tensors.values())",
        ("tests/test_nets.py", "tests/test_train.py", "tests/test_checkpoint.py"),
        "a bundle is frozen only when no tensor requires grad",
    ),
    Mutant(
        "labels-not-checked-whole",
        "src/promptlab/data.py",
        "if not np.array_equal(self.labels, labels):",
        "if False:",
        ("tests/test_data.py",),
        "a label that is not a whole number must be refused, not truncated",
    ),
    # an epoch is scored one way
    Mutant(
        "score-reports-the-protocol-figure-at-zero",
        "src/promptlab/train.py",
        "report.adversarial_accuracy if budget.epsilon > 0.0 else 0.0",
        "report.adversarial_accuracy",
        ("tests/test_train.py",),
        "adv_acc must read 0.0, not measured, when metrics_epsilon is 0 (the protocol reads 1.0 there)",
    ),
    Mutant(
        "worker-drops-the-sent-mapping",
        "src/promptlab/train.py",
        """    if mapping is not None:
        pipeline.mapping = mapping
    return _score(""",
        """    return _score(""",
        ("tests/test_train.py",),
        "the worker must score an ILM epoch under the mapping that epoch left",
    ),
    # an ε is parsed once
    Mutant(
        "engine-scores-at-zero",
        "src/promptlab/train.py",
        "budget = AttackConfig(metrics_epsilon)",
        "budget = AttackConfig(0.0)",
        ("tests/test_train.py",),
        "a phase must refuse, and score every epoch at, the metrics_epsilon it was given",
    ),
    # a phase scores only the set it is given
    Mutant(
        "cells-score-the-training-split",
        "src/promptlab/harness.py",
        '_score(clf, data["downstream_test"], budget)',
        '_score(clf, data["downstream_train"], budget)',
        ("tests/test_harness.py",),
        "the sweep and the ablation score each cell's final prompt on downstream_test",
    ),
    # README contracts that name a test
    Mutant(
        "save-writes-a-nan-payload",
        "src/promptlab/checkpoint.py",
        """        if not np.isfinite(arr).all():
            raise CheckpointError(f"NaN or Inf in entry '{name}'")
        entries.append""",
        """        entries.append""",
        ("tests/test_checkpoint.py",),
        "the VPCK writer must refuse what the reader would (test_save_refuses_what_load_refuses)",
    ),
    Mutant(
        "read-exact-trusts-the-count",
        "src/promptlab/fileio.py",
        "if count > os.fstat(fh.fileno()).st_size - fh.tell():",
        "if False:",
        ("tests/test_checkpoint.py", "tests/test_data.py"),
        "a truncated VPCK or VPDS file must fail as its own format error (the truncation fuzz tests)",
    ),
    Mutant(
        "step-in-ball-drops-the-bit-step",
        "src/promptlab/attack.py",
        "if not (up.any() or down.any()):",
        "if True:",
        ("tests/test_attack.py",),
        "fgsm must return a batch inside the float32 eps-ball (test_fgsm_ball_and_range_hold_exactly)",
    ),
    Mutant(
        "protocol-scores-over-every-sample",
        "src/promptlab/attack.py",
        "EvalReport(std_acc, s / n_correct if n_correct else 0.0",
        "EvalReport(std_acc, s / n_total if n_correct else 0.0",
        ("tests/test_attack.py",),
        "robust accuracy counts survivors among the initially correct (test_restricted_protocol_scores_survivors_only)",
    ),
    Mutant(
        "vpds-truncates-pixels",
        "src/promptlab/data.py",
        "pixels = np.rint(dataset.images * 255.0).astype(np.uint8)",
        "pixels = (dataset.images * 255.0).astype(np.uint8)",
        ("tests/test_data.py",),
        "a VPDS pixel comes back as round(255 v) / 255 (test_round_trip_quantizes_arbitrary_floats)",
    ),
    Mutant(
        "pin-sets-two-threads",
        "src/promptlab/blas.py",
        "set_threads(1)",
        "set_threads(2)",
        ("tests/test_blas.py",),
        "importing promptlab pins the BLAS to one thread (test_artifacts_do_not_depend_on_blas_threads reads "
        "each run's recorded pin, as both its runs would otherwise agree at two)",
    ),
    Mutant(
        "write-in-place",
        "src/promptlab/fileio.py",
        'tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")',
        "tmp = path",
        ("tests/test_fileio.py",),
        "a write goes to a temporary file renamed over the target (test_failed_write_keeps_previous_contents)",
    ),
    Mutant(
        "grid-attacks-at-zero",
        "src/promptlab/attack.py",
        "attacked = [k for k, cfg in enumerate(budgets) if cfg.epsilon != 0.0]",
        "attacked = list(range(len(budgets)))",
        ("tests/test_attack.py",),
        "an epsilon grid makes one clean pass and attacks only where epsilon > 0 "
        "(test_epsilon_grid_shares_one_clean_pass)",
    ),
    # evaluation holds one batch at a time
    Mutant(
        "protocol-copies-the-correct-subset",
        "src/promptlab/attack.py",
        "xb, yb = dataset.images[rows], dataset.labels[rows]",
        "xb, yb = dataset.images[correct][start : start + batch], dataset.labels[rows]",
        ("tests/test_attack.py",),
        "the protocol gathers each batch of correct examples by index, never the whole correct subset "
        "(test_scoring_memory_is_bounded_by_the_batch)",
    ),
    Mutant(
        "eval-batch-256",
        "src/promptlab/tensor.py",
        "_EVAL_BATCH = 128",
        "_EVAL_BATCH = 256",
        ("tests/test_attack.py", "tests/test_mapping.py"),
        "scoring and the ILM tally run 128 examples at a time (test_scoring_memory_is_bounded_by_the_batch, "
        "test_tally_memory_is_bounded_by_the_batch)",
    ),
    # harness contracts
    Mutant(
        "session-makes-the-directory-before-the-data",
        "src/promptlab/harness.py",
        """    data = cfg.datasets()  # before the output directory exists: a VPDS payload fault leaves none behind
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
""",
        """    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    data = cfg.datasets()  # before the output directory exists: a VPDS payload fault leaves none behind
""",
        ("tests/test_harness.py::test_a_truncated_split_fails_before_the_output_directory",),
        "a run loads every split before it creates the output directory, so a payload fault leaves none",
    ),
    Mutant(
        "checkpointed-config-needs-the-source-splits",
        "src/promptlab/harness.py",
        "for key in _SPLITS if ckpt is None else _SPLITS[2:]:",
        "for key in _SPLITS:",
        ("tests/test_harness.py::test_checkpointed_config_reads_only_the_downstream_splits",),
        "a config that loads its source from source.checkpoint neither reads nor needs a source split",
    ),
    Mutant(
        "config-json-does-not-load-back",
        "src/promptlab/harness.py",
        """        raw.pop("derived_seeds", None)  # a run's own config.json records them; re-derived below
""",
        "",
        ("tests/test_harness.py::test_optional_keys_default_and_stay_out_of_config_json",),
        "a run's own config.json, derived_seeds and all, loads back as its config",
    ),
    Mutant(
        "config-json-drops-the-derived-seeds",
        "src/promptlab/harness.py",
        '{**cfg.raw, "derived_seeds": cfg.derived_seeds}',
        "cfg.raw",
        ("tests/test_harness.py::test_derived_seed_oracle",),
        "config.json records the per-stage seeds derived from the top-level seed",
    ),
]


def mutated(mutant: Mutant, text: str) -> str:
    """``text`` with the mutant's old text replaced; a ValueError unless it occurs exactly once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: its old text occurs {count} times in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant) -> tuple[str, str]:
    """Run the mutant's tests on a mutated copy of the repository: ("killed",
    the first failure pytest names) or ("survived", its summary line), or
    ("error", its output tail) when pytest could not run them."""
    with tempfile.TemporaryDirectory(prefix="promptlab-mutant-") as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, root / name, ignore=skip)
            else:
                shutil.copy2(ROOT / name, root / name)
        path = root / mutant.file
        path.write_text(mutated(mutant, path.read_text()))
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines() or [done.stderr.strip()]
    verdict = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    if verdict == "error":
        return verdict, "\n".join(lines[-20:])
    return verdict, next((line for line in lines if line.startswith("FAILED ")), lines[-1])


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict, last = run(mutant)
        failed += verdict != "killed"
        print(f"{verdict:<8} {mutant.name} ({mutant.file}, {time.perf_counter() - start:.1f} s): {last}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
