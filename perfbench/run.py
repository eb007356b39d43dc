"""Benchmark of the vitals package: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
With `--trace 0` the last stdout line is a JSON object holding every
end-to-end metric; with `--trace 1` it holds the per-layer metrics of a
traced run instead. Lines before it list the environment, every correctness
check and every metric with its unit. The exit code is 0 only when every
operation succeeded and every check passed. See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    return (f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} blas_threads={threads}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "vitals" / "__init__.py").is_file():
        print(f"error: no vitals package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import vitals
    import workloads
    from harness import Run
    from tracer import Tracer

    if Path(vitals.__file__).resolve().parent != (src / "vitals").resolve():
        print(f"error: imported vitals from {vitals.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(src, work, time.monotonic() + RUN_LIMIT_S, args.seconds, bool(args.trace))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.instrument()
    try:
        metrics = workloads.WORKLOADS[args.workload](run, args.seed, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"env: {environment()}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, ok, detail in run.checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    for name, value, unit in run.notes:
        print(f"note: {name} = {value} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"metric: {name} = {value:.6g} {unit}")
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"operations: attempted={run.attempted} failed={run.failed} error_rate={error_rate:.4f} ratio")
    correct = run.correct and run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
