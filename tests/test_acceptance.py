"""End-to-end acceptance checks.

Each test covers one release criterion and registers a PASS/FAIL
verdict line that the terminal summary prints as its own section.
The heavyweight experiment grid (three seeds x two source-training
regimes at the shipped default configuration) is built once and shared
by the trend, reproducibility, and ablation criteria.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import conftest
from gradcheck import ALL_CHECKS, ref_block_reduce
from test_attack import FixedPipeline, _dataset
from test_mapping import greedy_reference

from promptlab import (
    AttackConfig,
    ConvNetSpec,
    FrequencyMatrix,
    PblConfig,
    SourceClassifier,
    SynthSpec,
    Tensor,
    TrainHyper,
    adversarial_accuracy,
    block_reduce,
    fgsm,
    generate_synthetic,
    ilm_update,
    init_params,
    train_prompt,
    train_standard,
)
from promptlab.harness import default_config, run_ablation_grid, run_experiment, sweep_temperature
from promptlab.metrics import read_metrics


@contextmanager
def criterion(num: int, label: str):
    """Run one criterion body; record a single verdict line either way."""
    try:
        yield
    except BaseException as exc:
        detail = str(exc).split("\n")[0][:160]
        conftest.ACCEPTANCE_LINES.append(f"criterion {num:2d} FAIL {label}: {detail}")
        raise
    conftest.ACCEPTANCE_LINES.append(f"criterion {num:2d} PASS {label}")


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def toy_setup():
    """A small trained-and-frozen source plus matching datasets."""
    spec = ConvNetSpec((1, 12, 12), ((6, 3, 2), (12, 3, 2)), 24, 6)
    train = generate_synthetic(SynthSpec(6, 12, (1, 12, 12), "source", 0.3, seed=31))
    test = generate_synthetic(
        SynthSpec(6, 20, (1, 12, 12), "source", 0.3, seed=32), split="test"
    )
    downstream = generate_synthetic(SynthSpec(3, 10, (1, 6, 6), "downstream", 0.3, seed=41))
    params = init_params(spec, seed=2)
    params, _ = train_standard(params, train, TrainHyper(8, 16, 0.05, 0.9, 13))
    return params.copy(frozen=True), test, downstream


@pytest.fixture(scope="module")
def grid_runs(tmp_path_factory):
    """Six default-configuration experiments: seeds {0,1,2} x regimes."""
    base = tmp_path_factory.mktemp("grid")
    t0 = time.monotonic()
    runs = {}
    for seed in (0, 1, 2):
        for regime in ("standard", "adversarial"):
            out = base / f"{regime}-{seed}"
            cfg = default_config(seed=seed, output_dir=str(out))
            cfg["source"]["regime"] = regime
            runs[(seed, regime)] = (out, run_experiment(cfg))
    return {"runs": runs, "elapsed": time.monotonic() - t0}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_gradient_suite():
    with criterion(1, "analytic gradients match finite differences"):
        rng = np.random.Generator(np.random.PCG64(1234))
        t0 = time.monotonic()
        worst = {}
        for name, check in ALL_CHECKS.items():
            worst[name] = max(check(rng) for _ in range(10))
        elapsed = time.monotonic() - t0
        offenders = {k: v for k, v in worst.items() if not v < 1e-3}
        assert not offenders, f"relative error over 1e-3: {offenders}"
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s (budget 120s)"


def test_criterion_02_block_reduction_oracle():
    with criterion(2, "block-max reduction equals the per-block oracle"):
        rng = np.random.Generator(np.random.PCG64(77))
        for n in (10, 100, 1000):
            for t in (1, 3, 5, 10, 15, 20):
                v = rng.standard_normal((3, n)).astype(np.float32)
                out = block_reduce(Tensor(v), PblConfig(temperature=t, n=n)).data
                expected = ref_block_reduce(v, t)
                assert out.shape[1] == math.ceil(n / t)
                assert np.array_equal(out, expected), f"mismatch at n={n}, T={t}"
        # block sizes published for common benchmarks must leave enough
        # reduced slots for every class at a 1000-logit source head
        published = [
            ("Flowers102", 3, 102),
            ("DTD", 15, 47),
            ("SVHN", 10, 10),
            ("GTSRB", 10, 43),
            ("EuroSAT", 6, 10),
            ("OxfordPets", 15, 37),
            ("CIFAR100", 4, 100),
            ("StanfordCars", 5, 196),
        ]
        for name, t, k in published:
            m = PblConfig(temperature=t, n=1000).m
            assert m == math.ceil(1000 / t)
            assert m >= k, f"{name}: m={m} cannot host {k} classes at T={t}"


def test_criterion_03_temperature_one_baseline_equivalence(toy_setup):
    with criterion(3, "T=1 reduction reproduces the no-reduction baseline"):
        source, _, downstream = toy_setup
        hyper = TrainHyper(2, 8, 0.2, 0.9, 5)
        _, _, base = train_prompt(source, downstream, "rlm", None, hyper, pad_width=3)
        _, _, kept = train_prompt(
            source, downstream, "rlm", PblConfig(1, source.spec.n_classes), hyper, pad_width=3
        )
        base_losses = [r.loss for r in base]
        kept_losses = [r.loss for r in kept]
        assert kept_losses == base_losses, f"{kept_losses} != {base_losses}"


def test_criterion_04_attack_contract(toy_setup):
    with criterion(4, "sign-attack ball, range, identity, and loss contracts"):
        source, test, _ = toy_setup
        clf = SourceClassifier(source)
        rng = np.random.Generator(np.random.PCG64(9))
        x = rng.uniform(0.0, 1.0, size=(1000, 1, 12, 12)).astype(np.float32)
        y = rng.integers(0, 6, size=1000)
        for eps in (0.05, 0.1, 0.25):
            adv = fgsm(clf, Tensor(x.copy()), y, AttackConfig(eps)).data
            # the budget materializes as its float32 rounding, so the exact
            # ball statement is in float32 arithmetic
            assert np.abs(adv - x).max() <= np.float32(eps), f"ball violated at eps={eps}"
            assert float(adv.min()) >= 0.0 and float(adv.max()) <= 1.0
        same = fgsm(clf, Tensor(x.copy()), y, AttackConfig(0.0)).data
        assert same.tobytes() == x.tobytes(), "zero-budget attack must be the identity"

        def per_sample_loss(images):
            z = clf.logits(Tensor(images)).data.astype(np.float64)
            z = z - z.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return -logp[np.arange(len(test)), test.labels]

        attacked = fgsm(clf, Tensor(test.images.copy()), test.labels, AttackConfig(0.05)).data
        frac = float(np.mean(per_sample_loss(attacked) >= per_sample_loss(test.images) - 1e-9))
        assert frac >= 0.9, f"loss non-decreasing on only {frac:.2%} of samples"


def test_criterion_05_protocol_fixture():
    with criterion(5, "survivor-ratio protocol on the scripted fixture"):
        n = 11
        clean = np.zeros((n, 2), dtype=np.float32)
        clean[:8, 0] = 1.0  # eight initially correct (labels are all 0)
        clean[8:, 1] = 1.0
        attacked = clean.copy()
        attacked[:3] = [0.0, 1.0]  # the attack flips three of them
        report = adversarial_accuracy(FixedPipeline(clean, attacked), _dataset(n), AttackConfig(0.01))
        assert report.n_correct == 8 and report.n_survived_attack == 5
        assert report.adversarial_accuracy == 0.625

        all_wrong = np.zeros((4, 2), dtype=np.float32)
        all_wrong[:, 1] = 1.0
        empty = adversarial_accuracy(
            FixedPipeline(all_wrong, all_wrong), _dataset(4), AttackConfig(0.01)
        )
        assert empty.n_correct == 0
        assert empty.adversarial_accuracy == 0.0


def test_criterion_06_robust_source_inheritance(grid_runs):
    with criterion(6, "robust-source prompts trade clean for adversarial accuracy"):
        runs, elapsed = grid_runs["runs"], grid_runs["elapsed"]
        assert elapsed < 900.0, f"grid took {elapsed:.0f}s (budget 900s)"
        for seed in (0, 1, 2):
            out, _ = runs[(seed, "adversarial")]
            own = read_metrics(out / "source_metrics.csv")[-1].std_acc
            # a collapsed constant-output source would make the trend
            # vacuous; refuse to grade it
            assert own >= 0.5, f"robust source collapsed at seed {seed} (own-test {own:.3f})"
        passing = []
        for seed in (0, 1, 2):
            std_run = runs[(seed, "standard")][1]
            adv_run = runs[(seed, "adversarial")][1]
            gained_robustness = adv_run["final_adv_acc"] > std_run["final_adv_acc"]
            paid_clean = adv_run["final_std_acc"] < std_run["final_std_acc"]
            if gained_robustness and paid_clean:
                passing.append(seed)
        assert len(passing) >= 2, f"trend held only for seeds {passing}"


@pytest.fixture(scope="module")
def robust_sweeps(grid_runs, tmp_path_factory):
    """Per-seed temperature sweeps over the saved robust sources."""
    base = tmp_path_factory.mktemp("sweep")
    tables = {}
    for seed in (0, 1, 2):
        source_ckpt, _ = grid_runs["runs"][(seed, "adversarial")]
        cfg = default_config(seed=seed, output_dir=str(base / f"s{seed}"))
        cfg["source"]["regime"] = "adversarial"
        cfg["source"]["checkpoint"] = str(source_ckpt / "source.ckpt")
        cfg["prompt"]["temperature_grid"] = [1, 2, 4]
        rows = sweep_temperature(cfg)
        tables[seed] = {r["T"]: r for r in rows}
    return tables


def test_criterion_07_reduction_benefit(robust_sweeps):
    with criterion(7, "best reduction temperature helps clean accuracy"):
        strict = []
        for seed, rows in robust_sweeps.items():
            t1 = rows[1]
            best_t = max((2, 4), key=lambda t: rows[t]["std_acc"])
            best = rows[best_t]
            assert best["std_acc"] >= t1["std_acc"] - 0.005, (
                f"seed {seed}: best T={best_t} std {best['std_acc']:.4f} under "
                f"floor {t1['std_acc']:.4f} - 0.005"
            )
            assert best["adv_acc"] >= t1["adv_acc"] - 0.05, (
                f"seed {seed}: adversarial accuracy at T={best_t} fell more than "
                f"0.05 below the T=1 value"
            )
            if best["std_acc"] > t1["std_acc"]:
                strict.append(seed)
        assert len(strict) >= 2, f"strict improvement only for seeds {strict}"


def test_criterion_08_frequency_mapping_oracle():
    with criterion(8, "greedy frequency mapping equals the brute-force rule"):
        rng = np.random.Generator(np.random.PCG64(4321))
        for trial in range(100):
            k = int(rng.integers(2, 7))
            m = int(rng.integers(k, k + 9))
            counts = rng.integers(0, 25, size=(k, m))
            if trial % 3 == 0:  # force heavy ties
                counts = (counts // 6) * 6
            mapping = ilm_update(FrequencyMatrix(counts))
            assert tuple(mapping.indices) == greedy_reference(counts), f"trial {trial}"
            assert len(set(mapping.indices)) == k


def test_criterion_09_bitwise_reproducibility(grid_runs, tmp_path):
    with criterion(9, "identical config and seed reproduce artifacts bitwise"):
        first_out, first_report = grid_runs["runs"][(0, "standard")]
        cfg = default_config(seed=0, output_dir=str(tmp_path / "again"))
        report = run_experiment(cfg)
        assert report == first_report
        for name in ("source_metrics.csv", "prompt_metrics.csv", "source.ckpt", "prompt.ckpt"):
            ours = (tmp_path / "again" / name).read_bytes()
            theirs = (first_out / name).read_bytes()
            assert ours == theirs, f"{name} differs between identical runs"


def test_criterion_10_ablation_grid_cost_structure(grid_runs, tmp_path):
    with criterion(10, "four-cell ablation completes; adversarial cells cost more"):
        source_ckpt, _ = grid_runs["runs"][(0, "standard")]
        cfg = default_config(seed=0, output_dir=str(tmp_path / "ablation"))
        cfg["source"]["checkpoint"] = str(source_ckpt / "source.ckpt")
        rows = run_ablation_grid(cfg)
        assert len(rows) == 4
        assert (tmp_path / "ablation" / "ablation.csv").exists()
        by_cell = {(r["pbl"], r["at"]): r for r in rows}
        assert set(by_cell) == {(False, False), (False, True), (True, False), (True, True)}
        for pbl in (False, True):
            at_cost = by_cell[(pbl, True)]["wall_ms_per_epoch"]
            clean_cost = by_cell[(pbl, False)]["wall_ms_per_epoch"]
            assert at_cost > clean_cost, (
                f"adversarial cell (pbl={pbl}) not more expensive: "
                f"{at_cost} vs {clean_cost}"
            )
