"""One workload process: import promptlab, parse the config, run the harness.

Usage: ``python child.py JOB.json``.  The job file names the harness
entry point, the generated config and where to write the result.  The
result records the monotonic time at which the process was ready to
call the harness (so the parent can measure set-up from spawn), the
wall time of the harness call, the environment fingerprint and, for a
traced run, the spans and counts.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fingerprint() -> dict:
    """Interpreter, NumPy and BLAS build, thread pins and usable cores."""
    import numpy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        blas_info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, AttributeError):  # NumPy without mode="dicts"
        blas_info = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    import promptlab

    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(run_id=job["run_id"])
        tracer.install()
    cfg = promptlab.ExperimentConfig.from_dict(job["config"])
    ready = time.monotonic()
    result = {"ready": ready, "fingerprint": fingerprint()}
    if job["harness"] is not None:
        harness = getattr(promptlab, job["harness"])
        t0 = time.perf_counter()
        harness(cfg)
        result["run_s"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.dump()
    tmp = job["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
