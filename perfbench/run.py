"""promptlab benchmark: time each workload end to end, then trace it.

Run from the repository root:

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload eval-std --seed 3 --seconds 30 --trace 0

Each workload runs in fresh ``python`` processes, one at a time, with
BLAS pinned to one thread and ``PYTHONPATH=src``.  ``--trace 0`` repeats
untraced runs for ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics from the traced ones.  Every run's artifacts pass the
correctness gate in :mod:`workloads`.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record, with the environment fingerprint, goes to
``perfbench/_work/<workload>-s<seed>/result-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
from child import THREAD_VARS
from tracer import EXACT, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

CHILD_TIMEOUT_S = 150.0
MIN_TIMED_RUNS = 3
MIN_TRACED_RUNS = 2
# Set-up is short and noisy: spawn-and-parse probes follow every timed run,
# so the samples span the whole window, and top the count up at the end.
PROBES_PER_RUN = 2
MIN_SETUP_SAMPLES = 25

# name, unit, better.  These are the end-to-end metrics of BENCHMARK.json.
END_TO_END = [
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("train_examples_per_s", "1/s", "higher"),
]
# Printed and recorded, but not in the result line: the accuracies are
# exact for a given commit and seed but spread widely from seed to seed,
# and failures are the line's own "failed" count.
REPORTED = [
    ("prompt_std_acc", "fraction", "higher"),
    ("prompt_adv_acc", "fraction", "higher"),
    ("failed_frac", "fraction", "lower"),
]
# Layer metrics reported in the result line.  The tracer also measures
# train.standard_s, train.adversarial_s, checkpoint.load_s,
# harness.export_s and metrics.write_s; those are zero on some workload
# by construction (a phase it does not run), so they are printed and
# recorded but left out of the result line.
PER_LAYER = [
    "tensor.conv2d.fwd_s", "tensor.conv2d.bwd_s", "tensor.conv2d.calls",
    "tensor.matmul.fwd_s", "tensor.matmul.bwd_s",
    "tensor.pointwise.fwd_s", "tensor.pointwise.bwd_s",
    "tensor.xent.fwd_s", "tensor.xent.bwd_s",
    "tensor.backward.self_s", "tensor.tape_flops", "tensor.tape_bytes",
    "nets.forward.calls", "nets.forward.examples", "nets.forward.self_s",
    "prompt.apply.fwd_s", "prompt.apply.bwd_s", "prompt.project_s",
    "mapping.block_reduce.fwd_s", "mapping.block_reduce.bwd_s",
    "mapping.map_labels.fwd_s", "mapping.map_labels.bwd_s",
    "mapping.freq_s", "mapping.ilm_s", "mapping.ilm.calls",
    "attack.fgsm_s", "attack.fgsm.examples", "attack.std_eval_s", "attack.adv_eval_s",
    "attack.clean_dup_frac",
    "optim.step_s", "optim.steps",
    "train.prompt_s", "train.self_s", "train.epoch_eval_s", "train.prompt_dup_frac",
    "data.generate_s", "data.generate.calls",
    "checkpoint.save_s", "checkpoint.bytes_written",
    "harness.config_s", "harness.self_s",
    "trace.overhead_frac", "trace.unattributed_frac",
]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_bytes") or name.endswith(".bytes_written"):
        return "bytes"
    if name.endswith("_flops"):
        return "flop"
    return "count"


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def require_pinned(env: dict[str, str]) -> None:
    """Refuse to start a workload whose BLAS threads are not pinned to 1."""
    bad = {var: env.get(var) for var in THREAD_VARS if env.get(var) != "1"}
    if bad:
        raise RuntimeError(f"child environment must pin BLAS threads to 1, got {bad}")


@dataclass
class Exit:
    code: int
    spawned: float  # time.monotonic() just before the spawn
    cpu_s: float
    maxrss_mb: float


def spawn(argv: list[str], env: dict[str, str], log: Path) -> Exit:
    """Run one process to completion; measure its CPU and peak RSS."""
    require_pinned(env)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(log, "wb") as fh:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        # A blocking wait keeps the parent off the CPU; the timer kills a hung child.
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Exit(proc.returncode, spawned, cpu, usage.ru_maxrss / 1024.0)


class RunFailed(Exception):
    pass


def git_state() -> dict:
    """Commit hash and dirty flag of the checkout, or nulls outside a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"commit": None, "dirty": None}
        head = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return {"commit": head, "dirty": dirty}
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    layers: list[dict[str, float]] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    fingerprint: dict | None = None


class WorkloadRunner:
    """Runs one workload's processes; every run writes the same output directory."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.harness = wl.HARNESS[workload]
        self.env = child_env()
        self.work = WORK / f"{workload}-s{seed}"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.out = self.work / "out"
        checkpoint = self._prepare_checkpoint(seed) if workload == "sweep-ckpt" else None
        # One output directory for every run, so config.json is byte-comparable.
        self.config = wl.config(workload, seed, str(self.out.relative_to(ROOT)), checkpoint)
        self.temperature = self.config["prompt"]["temperature"]
        self.hashes: dict[str, str] | None = None
        self.accs: dict[str, float] | None = None
        self.n = 0

    def _prepare_checkpoint(self, seed: int) -> str:
        """Write the robust source checkpoint sweep-ckpt loads (untimed)."""
        prep = self.work / "prep"
        prep.mkdir()
        cfg_path = prep / "config.json"
        cfg_path.write_text(json.dumps(wl.config("eval-robust", seed, str(prep.relative_to(ROOT)))))
        argv = [sys.executable, "-m", "promptlab.cli", "train-source", "--config", str(cfg_path)]
        done = spawn(argv, self.env, prep / "log.txt")
        ckpt = prep / "source.ckpt"
        if done.code != 0 or not ckpt.is_file():
            raise RunFailed(f"could not write the source checkpoint (exit {done.code}); see {prep / 'log.txt'}")
        return str(ckpt.relative_to(ROOT))

    def _child(self, trace: bool, probe: bool = False) -> tuple[Exit, dict]:
        self.n += 1
        if self.out.exists():
            shutil.rmtree(self.out)
        job_path = self.work / f"job{self.n}.json"
        result_path = self.work / f"result{self.n}.json"
        job = {
            "harness": None if probe else self.harness,
            "config": self.config,
            "trace": trace,
            "run_id": self.n,
            "result": str(result_path),
        }
        job_path.write_text(json.dumps(job))
        log = self.work / f"log{self.n}.txt"
        done = spawn([sys.executable, str(HERE / "child.py"), str(job_path)], self.env, log)
        if done.code != 0 or not result_path.is_file():
            raise RunFailed(f"run {self.n} exited with {done.code}; see {log}")
        result = json.loads(result_path.read_text())
        for path in (job_path, result_path, log):  # kept only when the run fails
            path.unlink()
        return done, result

    def _gate(self) -> None:
        hashes, accs = wl.check_run(self.out, self.harness, self.temperature)
        if self.hashes is None:
            self.hashes, self.accs = hashes, accs
        elif hashes != self.hashes:
            changed = sorted(k for k in set(hashes) | set(self.hashes) if hashes.get(k) != self.hashes.get(k))
            raise wl.GateError(f"normative artifacts differ between runs: {', '.join(changed)}")

    def run_once(self, outcome: Outcome, trace: bool) -> None:
        outcome.attempted += 1
        try:
            done, result = self._child(trace)
            self._gate()
        except (RunFailed, wl.GateError) as exc:
            outcome.failures.append(f"{'traced' if trace else 'untraced'} run {self.n}: {exc}")
            return
        outcome.fingerprint = outcome.fingerprint or result["fingerprint"]
        key = "traced_run_s" if trace else "run_s"
        outcome.samples.setdefault(key, []).append(result["run_s"])
        if trace:
            t = result["trace"]
            outcome.layers.append(layer_metrics([tuple(s) for s in t["spans"]], t["counts"]))
            return
        outcome.samples.setdefault("setup_s", []).append(result["ready"] - done.spawned)
        outcome.samples.setdefault("cpu_s", []).append(done.cpu_s)
        outcome.samples.setdefault("peak_rss_mb", []).append(done.maxrss_mb)

    def probe_setup(self, outcome: Outcome) -> None:
        """Spawn, import and parse the config, without running the harness."""
        try:
            done, result = self._child(trace=False, probe=True)
        except RunFailed as exc:
            outcome.attempted += 1
            outcome.failures.append(f"set-up probe {self.n}: {exc}")
            return
        outcome.samples.setdefault("setup_s", []).append(result["ready"] - done.spawned)

    @staticmethod
    def _repeat(outcome: Outcome, seconds: float, enough, step) -> None:
        """Repeat ``step`` for about ``seconds`` and until ``enough()``.

        A step is not started when it would be expected to end more than
        half a step past the deadline, so a run lasts ``seconds`` give or
        take half a step instead of overshooting by a whole one.
        """
        start = time.monotonic()
        deadline = start + seconds
        steps = 0
        while not outcome.failures:  # after a failure, do not spend the rest of the budget
            now = time.monotonic()
            if enough() and steps and now + (now - start) / steps / 2 > deadline:
                break
            step()
            steps += 1

    def measure(self, seconds: float) -> Outcome:
        """Untraced runs for ``seconds``; end-to-end metrics."""
        outcome = Outcome()

        def step():
            self.run_once(outcome, trace=False)
            for _ in range(PROBES_PER_RUN):
                self.probe_setup(outcome)

        self._repeat(outcome, seconds, lambda: outcome.attempted >= MIN_TIMED_RUNS, step)
        while len(outcome.samples.get("setup_s", [])) < MIN_SETUP_SAMPLES and not outcome.failures:
            self.probe_setup(outcome)
        s = outcome.samples
        if "run_s" in s:
            examples = wl.train_examples(self.config, self.harness)
            outcome.metrics = {
                "run_s": statistics.median(s["run_s"]),
                "setup_s": statistics.median(s["setup_s"]),
                "cpu_s": statistics.median(s["cpu_s"]),
                "peak_rss_mb": max(s["peak_rss_mb"]),
                "train_examples_per_s": statistics.median(examples / r for r in s["run_s"]),
                **self.accs,
            }
        outcome.metrics["failed_frac"] = len(outcome.failures) / max(outcome.attempted, 1)
        return outcome

    def trace(self, seconds: float) -> Outcome:
        """Alternate untraced and traced runs for ``seconds``; per-layer metrics."""
        outcome = Outcome()

        def step():
            self.run_once(outcome, trace=False)
            self.run_once(outcome, trace=True)

        self._repeat(outcome, seconds, lambda: len(outcome.layers) >= MIN_TRACED_RUNS, step)
        if not outcome.layers or "run_s" not in outcome.samples:
            return outcome
        expected_steps = wl.optim_steps(self.config, self.harness)
        for layers in outcome.layers:
            problems = [f"{n} did not repeat: {layers[n]} vs {outcome.layers[0][n]}" for n in EXACT if layers[n] != outcome.layers[0][n]]
            if layers["optim.steps"] != expected_steps:
                problems.append(f"optim.steps {layers['optim.steps']} != {expected_steps} from the config")
            if problems:
                outcome.failures.append("traced run: " + "; ".join(problems))
        outcome.metrics = {name: statistics.median(l[name] for l in outcome.layers) for name in outcome.layers[0]}
        for name in EXACT:
            outcome.metrics[name] = outcome.layers[0][name]
        untraced = statistics.median(outcome.samples["run_s"])
        outcome.metrics["trace.overhead_frac"] = statistics.median(outcome.samples["traced_run_s"]) / untraced - 1.0
        return outcome

    def record(self, outcome: Outcome, trace: bool, seconds: float) -> None:
        """Write the result record of one mode, with the environment fingerprint."""
        record = {
            "workload": self.workload,
            "why": wl.WHY[self.workload],
            "seed": self.seed,
            "seconds": seconds,
            "trace": trace,
            "attempted": outcome.attempted,
            "failures": outcome.failures,
            "metrics": outcome.metrics,
            "samples": outcome.samples,
            "artifact_sha256": self.hashes,
            "environment": {**(outcome.fingerprint or {}), "git": git_state(), "nproc": os.cpu_count()},
        }
        path = self.work / f"result-t{int(trace)}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    def close(self) -> None:
        """Drop the run outputs; keep the result records and any failed run's files."""
        for sub in (self.out, self.work / "prep"):
            if sub.exists():
                shutil.rmtree(sub)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def describe(values: list[float]) -> str:
    """Sample count plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return f"n={n}; no percentile above the median has 10 samples beyond it"
    q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return f"n={n}; p{p}={q:.4f}"


def print_end_to_end(workload: str, outcome: Outcome) -> None:
    print(f"== {workload}: end to end, untraced ({outcome.attempted} runs, one process at a time, BLAS threads 1)")
    print(f"   why: {wl.WHY[workload]}")
    for name, unit, better in END_TO_END + REPORTED:
        if name in outcome.metrics:
            spread = describe(outcome.samples[name]) if name in outcome.samples else ""
            print(f"   {name:<22} {outcome.metrics[name]:>14.6f} {unit:<9} {better:<7} {spread}")
    for failure in outcome.failures:
        print(f"   FAILED {failure}")


def print_layers(workload: str, outcome: Outcome) -> None:
    print(f"== {workload}: per layer, traced ({len(outcome.layers)} traced runs; medians, counts exact)")
    for name in sorted(outcome.metrics):
        print(f"   {name:<28} {outcome.metrics[name]:>18.6f} {unit_of(name)}")
    for failure in outcome.failures:
        print(f"   FAILED {failure}")


def run_workload(workload: str, seed: int, seconds: float, modes) -> list[tuple[bool, Outcome]]:
    """Measure one workload in each mode (False: untraced, True: traced)."""
    try:
        runner = WorkloadRunner(workload, seed)
    except RunFailed as exc:
        print(f"== {workload}: FAILED {exc}")
        return [(modes[0], Outcome(attempted=1, failures=[str(exc)]))]
    results = []
    try:
        for trace in modes:
            outcome = runner.trace(seconds) if trace else runner.measure(seconds)
            runner.record(outcome, trace, seconds)
            (print_layers if trace else print_end_to_end)(workload, outcome)
            results.append((trace, outcome))
    finally:
        runner.close()
    return results


def result_metrics(outcome: Outcome, trace: bool, prefix: str = "") -> dict:
    if trace:
        wanted = [(n, unit_of(n)) for n in PER_LAYER]
    else:
        wanted = [(n, u) for n, u, _b in END_TO_END]
    return {prefix + n: {"value": outcome.metrics[n], "unit": u} for n, u in wanted if n in outcome.metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*wl.NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per workload and mode")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="default: both, untraced first")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "promptlab" / "__init__.py").is_file():
        print(f"error: no promptlab sources under {ROOT / 'src'}; run from a promptlab checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = wl.NAMES if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.trace is None else (bool(args.trace),)

    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        for trace, outcome in run_workload(name, args.seed, seconds, modes):
            attempted += outcome.attempted
            failed += len(outcome.failures)
            prefix = f"{name}." if len(names) * len(modes) > 1 else ""
            metrics.update(result_metrics(outcome, trace, prefix))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
