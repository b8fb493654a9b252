#!/usr/bin/env python3
"""End-to-end benchmark of the AutoAI-TS reproduction, with a per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload uni_fit --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
workload with every layer's public entry points wrapped and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment block and the workload's details.  See README.md.
"""

import os

# One compute thread per run, fixed before numpy is first imported.
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("uni_fit", "stream_rerank")

#: The modules every run imports before its first operation.
IMPORTS = ("repro", "repro.benchmarking", "repro.stream", "repro.store")
#: Fresh interpreters timed for ``setup_s`` besides this process's own import.
IMPORT_REPEATS = 2
#: Iterations of the fixed pure-Python calibration loop.
CALIBRATION_ITERATIONS = 2_000_000


def calibration_seconds() -> float:
    """Time a fixed pure-Python loop; recorded so a slow host shows, never used to scale."""
    started = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_ITERATIONS):
        total += value
    return time.perf_counter() - started


def child_import_seconds() -> float:
    """Import time of the library in a fresh interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "started = time.perf_counter()\n"
        f"import {', '.join(IMPORTS)}\n"
        "print(time.perf_counter() - started)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return float(completed.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip()


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the version is informational only
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": {name: os.environ[name] for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "executor": "serial",
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the library sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2

    calibration_before = calibration_seconds()
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    for module in IMPORTS:
        importlib.import_module(module)
    import_times = [time.perf_counter() - started]
    import_times += [child_import_seconds() for _ in range(IMPORT_REPEATS)]

    from tracer import Tracer
    from workloads import run_workload

    tracer = Tracer() if args.trace else None
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, tracer, workdir)
    except Exception:  # noqa: BLE001 - report and exit non-zero without a result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    setup_s = statistics.median(import_times) + outcome.warmup_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        layers = tracer.layer_metrics()
        layers.update(outcome.layers)
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": outcome.op_s, "unit": "s"},
            "smape": {"value": outcome.smape, "unit": "%"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    # A run whose operations failed may leave a metric undefined; JSON has no
    # NaN, so it reads 0 and the run is not correct.
    finite = all(math.isfinite(entry["value"]) for entry in metrics.values())
    for entry in metrics.values():
        if not math.isfinite(entry["value"]):
            entry["value"] = 0.0
    correct = outcome.failed == 0 and finite
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "calibration_s": [calibration_before, calibration_seconds()],
        "import_s": import_times,
        "warmup_s": outcome.warmup_s,
        "checks_failed": outcome.checks,
        "details": outcome.details,
    }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(outcome.attempted),
                "failed": int(outcome.failed),
                "metrics": metrics,
            }
        )
    )
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "coverage")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
