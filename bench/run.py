"""Benchmark of the `cpn-holo` CLI on three seeded workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload transport --seed 1 --seconds 15 --trace 0

Workloads (BENCHMARK.json gives the reason for each):
  transport   verify jobs on named gates and family loops, about one kick
              table in five: the Schrodinger stepper and kick scheme
  holonomy    family-loop holonomies at n = 4, 8, 16, named gate programs,
              random-rectangle sweeps: connection, exponentials, product
  small_jobs  2-6 ms calls (connection, compile, circuit, short gate and
              sweep): per-call overhead of the CLI

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The line before it holds the run's detail record:
sample counts, failed_ratio, failures, accuracy per job kind and the run
metadata (revision, source hash, Python/numpy/scipy versions, nproc, BLAS
threads).

This entry point pins the BLAS thread count to at most the CPUs available
before numpy is imported, and runs the package from ./src of the checkout;
without it the benchmark exits with status 2.

Tests of the benchmark itself: python3 -m pytest bench
"""
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def pin_blas_threads():
    """Cap BLAS threads at the CPUs this process may use (OpenBLAS defaults to 64)."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)


if __name__ == "__main__":
    if not (SRC / "cpn_holonomy" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cpn_holonomy'}", file=sys.stderr)
        sys.exit(2)
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main())
