"""Benchmark entry point for the `accept` package.

Run from the repository root:

    python3 perfbench/run.py --workload adapt --seed 1 --seconds 25 --trace 0

It imports `accept` from `src/` of the same checkout, runs one workload
in this process with BLAS pinned to one thread, prints one line per
metric (with its sample count), the host facts and any failed check, and
ends with a single JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics; `--trace 1` reports the
per-layer metrics and the tracing overhead instead.  See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# One BLAS thread: the desk matrices are too small to gain from more (the
# same step measured 54 ms with one and two threads on a 2-core host), and
# a single thread is steadier on a shared machine.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def host_facts(workload: str, seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("adapt", "eval", "pretrain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "accept" / "__init__.py").is_file():
        print(f"error: no accept package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads  # numpy loads here, after the BLAS thread setting

    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()

    for name, (value, unit, n) in result.metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={n})")
    print("host " + json.dumps(host_facts(args.workload, args.seed), sort_keys=True))
    print("run " + json.dumps(result.notes, sort_keys=True))
    print(f"error_rate = {result.failed}/{result.attempted}")
    for check in result.checks:
        if not check.ok:
            print(f"FAILED check {check.name}: {check.detail}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
