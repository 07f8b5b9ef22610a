"""The golden manifest: the sha256 of every normative file the acceptance
fixtures write.

``tests/golden.json`` holds the digests of the six default-config runs
(``source.ckpt``, ``source_metrics.csv``, ``prompt.ckpt``,
``prompt_metrics.csv``, ``prompt.ppm``, ``report.json``), the three robust
temperature sweeps (``sweep.csv``) and the ablation grid (``ablation.csv``),
with the fingerprint of the environment that made them: the NumPy version,
the BLAS build and kernel, and the machine type.  ``config.json`` is left
out, because it records a temporary output directory.
``test_acceptance.py::test_normative_files_match_the_golden_manifest``
compares fresh runs with it and names every file whose bytes moved; in an
environment with another fingerprint it is skipped, naming both, before
any run is built.

``python tests/golden.py`` runs that test alone, and exits non-zero,
printing the reason, when the test is skipped: a comparison that did not
run is not a pass.  A change that moves bytes on purpose rewrites the
manifest from fresh runs with ``python tests/golden.py --update``, which
prints each entry it changed, added or dropped, as its name and the
old -> new digest prefix.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden.json"
RUN_FILES = ("source.ckpt", "source_metrics.csv", "prompt.ckpt", "prompt_metrics.csv", "prompt.ppm", "report.json")

# Set by ``--update``: the test then writes the manifest instead of comparing.
UPDATE = False


def fingerprint() -> dict:
    """What the bytes depend on besides the code, the config and the seed."""
    from promptlab import blas  # imported here, after pytest has put src/ on the path for --update

    return {"numpy": np.__version__, "blas": blas.status()["config"], "machine": platform.machine()}


def expected() -> dict[str, str] | None:
    """The manifest's digests, or None under ``--update``; skips the calling
    test when the manifest was made with another fingerprint, naming the
    variable that selects the manifest's BLAS kernel."""
    if UPDATE:
        return None
    manifest = json.loads(MANIFEST.read_text())
    if manifest["fingerprint"] != fingerprint():
        pytest.skip(
            f"{MANIFEST.name} was made with {manifest['fingerprint']}, this environment is {fingerprint()}; "
            "on a CPU that can run the OpenBLAS kernel the manifest's blas entry names, "
            "OPENBLAS_CORETYPE=<that kernel> selects it"
        )
    return manifest["sha256"]


def check(files: dict[str, Path], want: dict[str, str] | None) -> None:
    """Compare the sha256 of each named file with ``want``, the digests
    :func:`expected` read; fail naming every file that differs, is missing
    or is not in the manifest.  With ``want`` None (``--update``), write the
    manifest instead."""
    found = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
    if want is None:
        manifest = {"fingerprint": fingerprint(), "sha256": found}
        MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return
    moved = sorted(name for name in found.keys() & want.keys() if found[name] != want[name])
    missing, extra = sorted(want.keys() - found.keys()), sorted(found.keys() - want.keys())
    if moved or missing or extra:
        pytest.fail(
            f"normative files differ from {MANIFEST.name}: changed {moved}, not written {missing}, "
            f"not in the manifest {extra}; if the change is meant, run python tests/golden.py --update"
        )


def rewritten(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per manifest entry that changed, was added or was dropped:
    its name and the old -> new sha256 prefix, ``-`` standing for none."""
    return [
        f"{name}: {old.get(name, '-')[:12]} -> {new.get(name, '-')[:12]}"
        for name in sorted(old.keys() | new.keys())
        if old.get(name) != new.get(name)
    ]


class Skips:
    """A pytest plugin that keeps the reason of every skipped test."""

    def __init__(self):
        self.reasons: list[str] = []

    def pytest_runtest_logreport(self, report):
        if report.skipped:
            self.reasons.append(str(report.longrepr[2]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true", help="rewrite golden.json instead of comparing with it")
    args = parser.parse_args(argv)
    import golden  # the module the test imports, not this __main__ copy

    golden.UPDATE = args.update
    before = json.loads(MANIFEST.read_text())["sha256"] if args.update and MANIFEST.exists() else {}
    skips = Skips()
    test = f"{HERE / 'test_acceptance.py'}::test_normative_files_match_the_golden_manifest"
    status = pytest.main([test, "-q"], plugins=[skips])
    if args.update:
        lines = rewritten(before, json.loads(MANIFEST.read_text())["sha256"])
        print(f"{MANIFEST.name}: {len(lines)} entries rewritten", *lines, sep="\n")
    elif skips.reasons:
        print(f"{MANIFEST.name}: the comparison did not run", *skips.reasons, sep="\n")
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
