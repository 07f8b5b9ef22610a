"""The benchmark's workloads: generated configs, derived work counts and
the correctness checks on each run's artifacts.

The configs are written out here rather than taken from
``promptlab.default_config`` so that a later change to the library's
defaults cannot silently change what the benchmark measures.  At the
commit that introduced the benchmark, ``eval-std`` equals
``default_config(seed)``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Why each workload exists; printed with the results.
WHY = {
    "eval-std": "the default experiment every user runs first: standard source, one ILM prompt at T=2, "
    "epsilon-grid report; about half its time is per-epoch evaluation; writes checkpoints",
    "eval-robust": "the same run with an FGSM-trained source: the conv2d input-gradient path in "
    "train_adversarial dominates; FGSM is used for training, not only for evaluation",
    "sweep-ckpt": "sweep_temperature over T in [1, 2, 4] on a loaded robust checkpoint: 4 prompt "
    "trainings (the no-reduction baseline duplicates T=1), ILM refresh every epoch, mostly evaluation",
}
NAMES = tuple(WHY)

# Harness entry point per workload (an attribute of the promptlab package).
HARNESS = {"eval-std": "run_experiment", "eval-robust": "run_experiment", "sweep-ckpt": "sweep_temperature"}

NORMATIVE_GLOBS = ("*.ckpt", "*_metrics.csv", "report.json", "sweep.csv", "config.json")
REQUIRED = {
    "run_experiment": ("source.ckpt", "source_metrics.csv", "prompt.ckpt", "prompt_metrics.csv", "report.json", "config.json"),
    "sweep_temperature": ("source.ckpt", "sweep.csv"),
}


def base_config(seed: int, output_dir: str) -> dict:
    """The desk-scale default experiment."""
    return {
        "seed": seed,
        "output_dir": output_dir,
        "source": {
            "spec": {
                "input_size": [1, 32, 32],
                "conv_blocks": [[8, 3, 2], [16, 3, 2]],
                "hidden_width": 64,
                "n_classes": 20,
            },
            "regime": "standard",
            "hyper": {"epochs": 10, "batch_size": 32, "learning_rate": 0.05, "momentum": 0.9},
            "at_hyper": {"epochs": 25, "learning_rate": 0.015},
            "attack": {"epsilon": 0.05},
            "checkpoint": None,
        },
        "prompt": {
            "pad_width": 4,
            "lm": "ilm",
            "temperature": 2,
            "temperature_grid": [1, 2, 4],
            "hyper": {"epochs": 20, "batch_size": 32, "learning_rate": 0.2, "momentum": 0.9},
            "adversarial": False,
            "attack": {"epsilon": 0.05},
        },
        "eval": {"epsilon_grid": [0.0, 0.02, 0.05, 0.1], "metrics_epsilon": 0.05},
        "data": {
            "source": {
                "n_classes": 20,
                "samples_per_class": 30,
                "test_samples_per_class": 10,
                "image_size": [1, 32, 32],
                "noise_level": 0.45,
            },
            "downstream": {
                "n_classes": 5,
                "samples_per_class": 40,
                "test_samples_per_class": 60,
                "image_size": [1, 24, 24],
                "noise_level": 0.40,
            },
        },
    }


def config(workload: str, seed: int, output_dir: str, checkpoint: str | None = None) -> dict:
    cfg = base_config(seed, output_dir)
    if workload == "eval-robust":
        cfg["source"]["regime"] = "adversarial"
    elif workload == "sweep-ckpt":
        if checkpoint is None:
            raise ValueError("sweep-ckpt needs a source checkpoint")
        cfg["source"]["checkpoint"] = checkpoint
    elif workload != "eval-std":
        raise ValueError(f"unknown workload {workload!r}")
    return cfg


def _phases(cfg: dict, harness: str) -> list[tuple[int, int, int]]:
    """(epochs, train-set size, batch size) of every training phase the config asks for."""
    src, pr, data = cfg["source"], cfg["prompt"], cfg["data"]
    n_src = data["source"]["n_classes"] * data["source"]["samples_per_class"]
    n_dst = data["downstream"]["n_classes"] * data["downstream"]["samples_per_class"]
    phases = []
    if not src.get("checkpoint"):
        phases.append((src["hyper"]["epochs"], n_src, src["hyper"]["batch_size"]))
        if src["regime"] == "adversarial":
            phases.append((src["at_hyper"]["epochs"], n_src, src["hyper"]["batch_size"]))
    prompt = (pr["hyper"]["epochs"], n_dst, pr["hyper"]["batch_size"])
    # sweep_temperature trains one prompt per grid temperature plus a no-reduction baseline
    trainings = len(pr["temperature_grid"]) + 1 if harness == "sweep_temperature" else 1
    phases.extend([prompt] * trainings)
    return phases


def train_examples(cfg: dict, harness: str) -> int:
    """Training examples the config asks for: epochs x train-set size, over every phase."""
    return sum(e * n for e, n, _b in _phases(cfg, harness))


def optim_steps(cfg: dict, harness: str) -> int:
    """Optimizer steps the config implies: epochs x batches per epoch, over every phase."""
    return sum(e * math.ceil(n / b) for e, n, b in _phases(cfg, harness))


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


class GateError(Exception):
    """A run's artifacts violate a correctness check."""


def artifact_hashes(out: Path) -> dict[str, str]:
    hashes = {}
    for pattern in NORMATIVE_GLOBS:
        for path in sorted(out.glob(pattern)):
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def check_run(out: Path, harness: str, temperature: int) -> tuple[dict[str, str], dict[str, float]]:
    """Check one run's artifacts; return their hashes and the headline accuracies.

    Raises :class:`GateError` on a missing artifact, an epsilon=0 row whose
    restricted-protocol accuracy is not 1, or a T=1 sweep row whose deltas
    are not exactly zero.
    """
    missing = [name for name in REQUIRED[harness] if not (out / name).is_file()]
    if missing:
        raise GateError(f"missing artifacts: {', '.join(missing)}")
    if harness == "run_experiment":
        report = json.loads((out / "report.json").read_text())
        zero = [row for row in report["prompt_eval"] if row["epsilon"] == 0.0]
        if not zero or any(row["adversarial_accuracy"] != 1.0 for row in zero):
            raise GateError("report.json: the epsilon=0 row must have adversarial_accuracy == 1.0")
        accs = {"prompt_std_acc": report["final_std_acc"], "prompt_adv_acc": report["final_adv_acc"]}
    else:
        with open(out / "sweep.csv", newline="") as fh:
            rows = {int(r["T"]): r for r in csv.DictReader(fh)}
        if 1 not in rows or temperature not in rows:
            raise GateError(f"sweep.csv lacks the T=1 or T={temperature} row")
        if rows[1]["std_delta"] != "0.000000" or rows[1]["adv_delta"] != "0.000000":
            raise GateError(f"sweep.csv: T=1 deltas must be exactly 0.000000, got {rows[1]}")
        row = rows[temperature]
        accs = {"prompt_std_acc": float(row["std_acc"]), "prompt_adv_acc": float(row["adv_acc"])}
    return artifact_hashes(out), accs

