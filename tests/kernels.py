"""The acceptance criteria under each OpenBLAS kernel this CPU can run.

OpenBLAS picks its GEMM kernel by CPU when it loads, and the
``OPENBLAS_CORETYPE`` environment variable overrides that choice for one
process.  Artifact bytes, and with them the effect criteria, depend on the
kernel.  ``python tests/kernels.py`` runs ``tests/test_acceptance.py`` once
per kernel, each in its own subprocess with ``OPENBLAS_CORETYPE`` set only in
that child's environment, and prints a criterion x kernel table read from
the ``criterion N PASS|FAIL`` summary lines, with the golden test's status
(passed, skipped or failed) under each kernel, then the per-seed effect
sizes criteria 6 and 7 record on their ``deltas seed S criterion N:`` lines
(criterion 6: robust minus standard source; criterion 7: the best T minus
T = 1), then every FAIL line in full.

The kernels come from NumPy's ``__cpu_features__``: AVX512F -> SkylakeX,
AVX2 -> Haswell, AVX -> Sandybridge, SSE4.2 -> Nehalem.  A kernel whose
instructions the CPU lacks is listed as not run and never started.

It exits 1 only when a child could not run (pytest did not finish, or
printed no criterion line).  A FAIL, or a skipped golden test, under a
kernel other than the CPU's own is a finding about the effects, not an
error of this script.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = "test_normative_files_match_the_golden_manifest"

# (OpenBLAS kernel, the NumPy CPU feature it needs), widest first
KERNELS = (("SkylakeX", "AVX512F"), ("Haswell", "AVX2"), ("Sandybridge", "AVX"), ("Nehalem", "SSE42"))

CRITERION = re.compile(r"^criterion\s+(\d+) (PASS|FAIL)\b")
DELTAS = re.compile(r"^deltas seed (\d+) criterion (\d+): (.*)$")
# the per-seed table's columns: (criterion, key on its deltas line, heading)
DELTA_COLUMNS = ((6, "adv_delta", "c6 adv Δ"), (6, "clean_delta", "c6 clean Δ"), (7, "best_T", "c7 best T"),
                 (7, "clean_delta", "c7 clean Δ"), (7, "adv_delta", "c7 adv Δ"))
STATUS = re.compile(rf"::{GOLDEN} (PASSED|SKIPPED|FAILED|ERROR)\b")


def cpu_features() -> dict[str, bool]:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def run(kernel: str) -> tuple[dict[int, str], str, dict[tuple[int, int], dict[str, str]], list[str], str | None]:
    """Run the acceptance tests under ``kernel``: ``(verdict per criterion,
    golden test status, {(seed, criterion): {key: value}} from the deltas
    lines, FAIL lines, None)``, or an error text as the last item when the
    child could not run."""
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider", str(HERE / "test_acceptance.py")]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    verdicts = {int(m[1]): m[2] for m in map(CRITERION.match, lines) if m}
    golden = next((m[1].lower() for m in map(STATUS.search, lines) if m), "not reported")
    deltas = {(int(m[1]), int(m[2])): dict(pair.split("=", 1) for pair in m[3].split())
              for m in map(DELTAS.match, lines) if m}
    fails = [line for line in lines if CRITERION.match(line) and " FAIL " in line]
    if done.returncode not in (0, 1) or not verdicts:
        return verdicts, golden, deltas, fails, "\n".join((lines or done.stderr.splitlines())[-20:])
    return verdicts, golden, deltas, fails, None


def main() -> int:
    features = cpu_features()
    results, errors = {}, 0
    for kernel, feature in KERNELS:
        if not features.get(feature, False):
            print(f"{kernel}: not run, the CPU lacks {feature}", flush=True)
            continue
        start = time.perf_counter()
        results[kernel] = run(kernel)
        print(f"{kernel}: {time.perf_counter() - start:.1f} s", flush=True)
        error = results[kernel][4]
        if error is not None:
            errors += 1
            print(f"{kernel}: the child could not run\n{error}", flush=True)
    numbers = sorted({n for verdicts, *_ in results.values() for n in verdicts})
    print()
    print("| criterion | " + " | ".join(kernel for kernel, _ in KERNELS) + " |")
    print("|---" * (len(KERNELS) + 1) + "|")
    for n in numbers:
        cells = [results[k][0].get(n, "-") if k in results else "not run" for k, _ in KERNELS]
        print(f"| {n} | " + " | ".join(cells) + " |")
    print("| golden test | " + " | ".join(results[k][1] if k in results else "not run" for k, _ in KERNELS) + " |")
    seeds = sorted({seed for _, _, deltas, *_ in results.values() for seed, _ in deltas})
    print()
    print("| seed | kernel | " + " | ".join(heading for *_, heading in DELTA_COLUMNS) + " |")
    print("|---" * (len(DELTA_COLUMNS) + 2) + "|")
    for seed in seeds:
        for kernel, (_, _, deltas, *_) in results.items():
            cells = [deltas.get((seed, n), {}).get(key, "-") for n, key, _ in DELTA_COLUMNS]
            print(f"| {seed} | {kernel} | " + " | ".join(cells) + " |")
    for kernel, (*_, fails, _) in results.items():
        for line in fails:
            print(f"{kernel}: {line}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
