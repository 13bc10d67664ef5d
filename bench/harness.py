"""Benchmark harness: closed-loop CLI jobs, reference checks, metrics, trace.

One client runs the workload's jobs back to back, each a `cli.main(argv)`
call with stdout captured in memory, until the measured time is spent and
at least MIN_JOBS jobs are done. Each round of jobs is checked right after
it runs, outside the timed calls; jobs whose reference reruns the program
(`verify`) are checked after the window, so their larger reference runs
touch neither a timing nor the peak RSS. A sample of jobs is then rerun and
must give the same bytes.

With --trace 1 each round runs twice, untraced and traced, in alternating
order, and the per-layer metrics come from the traced copy; the ratio of
the two busy times is the tracing overhead. The traced copy must give the
same bytes. The untraced copies then run for half of --seconds, so that
with the traced copies the run measures for about --seconds.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracer
from cpn_holonomy import cli
from workloads import WORKLOADS, Job, job_round

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_JOBS = 100  # so that at least ten job times lie beyond p90
SETUP_RUNS = 7
REPEATS = 16
WARMUP_ROUND = 10 ** 6  # a round index no run reaches
# Layers each workload is built to exercise; a traced run in which one of
# them records no span has lost its binding and fails.
EXERCISED = {
    "transport": ("cli", "gates", "dynamics", "holonomy", "loops", "connection", "chart",
                  "linalg"),
    "holonomy": ("cli", "gates", "holonomy", "loops", "connection", "linalg"),
    "small_jobs": ("cli", "gates", "multipartite", "holonomy", "loops", "connection", "chart",
                   "linalg"),
}
# ROADMAP stages timed per function: frames, generators, exponentials,
# ordered product, certification, JSON encoding, and the two oracles' glue.
STAGES = ("chart.frame_unitary_batch", "connection.theta_component_batch",
          "connection.phi_component_batch", "holonomy.holonomy",
          "linalg.expm_antihermitian", "linalg.expm_hermitian_prop", "linalg.fold_left",
          "holonomy.UnitaryMatrix.from_raw", "linalg.unitarity_defect",
          "linalg.polar_project", "dynamics.propagate_frames", "dynamics.kick_evolution",
          "cli.dump_json")
COUNTS = ("chart.frames", "connection.components", "linalg.exponentials",
          "linalg.product_factors", "linalg.polar_projections", "holonomy.segments",
          "holonomy.certified", "holonomy.projected", "dynamics.steps",
          "dynamics.kick_intervals", "gates.steps_compiled", "cli.json_bytes")
END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("accuracy_digits", "digits"), ("peak_rss_mb", "MB"))
PER_LAYER = tuple(
    [(f"{layer}.{what}", unit) for layer in tracer.LAYERS
     for what, unit in (("self_s", "s"), ("calls", "count"))]
    + [(f"{key}.self_s", "s") for key in STAGES]
    + [(key, "bytes" if key == "cli.json_bytes" else "count") for key in COUNTS]
    + [("trace.overhead_ratio", "ratio"), ("trace.jobs_per_s_untraced", "1/s"),
       ("trace.jobs_per_s_traced", "1/s")])


@dataclass
class Record:
    """Outcome of one job in the timed window."""

    job: Job
    argv: list[str]
    seconds: float
    digest: str
    out: str | None = None  # kept until the job is checked
    distance: float | None = None
    error: str | None = None


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI call: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed job, not a failed benchmark
            rc = -1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def timed_call(argv: list[str]) -> tuple[float, int, str, str]:
    start = time.perf_counter()
    rc, out, err = run_cli(argv)
    return time.perf_counter() - start, rc, out, err


def digest(rc: int, out: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


def check_record(rec: Record):
    def rerun(extra: list[str]) -> str:
        rc, out, err = run_cli(rec.argv + extra)
        if rc != 0:
            raise checks.CheckFailed(f"reference run exited {rc}: {err.strip()[-200:]}")
        return out

    try:
        rec.distance = checks.check(rec.job, rec.out, rerun)
    except checks.CheckFailed as exc:
        rec.error = str(exc)
    rec.out = None


def run_round(jobs: list[Job], argvs: list[list[str]]) -> list[Record]:
    records = []
    for job, argv in zip(jobs, argvs):
        seconds, rc, out, err = timed_call(argv)
        rec = Record(job, argv, seconds, digest(rc, out), out)
        if rc != 0:
            rec.error = f"exit {rc}: {err.strip()[-300:]}"
            rec.out = None
        records.append(rec)
    return records


def run_window(workload: str, seed: int, seconds: float, min_jobs: int, workdir: Path,
               trace: tracer.Tracer | None = None) -> tuple[list[Record], list[float]]:
    """Closed-loop rounds until `seconds` of job time and `min_jobs` jobs are done.

    An untimed warm-up round first lets lazy set-up in numpy and the
    allocator finish. With a tracer, every round also runs traced, before
    or after its untimed copy in alternate rounds; returns the traced times.
    """
    warmup = job_round(workload, seed, WARMUP_ROUND)
    run_round(warmup, [job.materialize(workdir) for job in warmup])
    records: list[Record] = []
    traced: list[float] = []
    busy, r = 0.0, 0
    while busy < seconds or len(records) < min_jobs:
        jobs = job_round(workload, seed, r)
        argvs = [job.materialize(workdir) for job in jobs]
        traced_round = []
        if trace is not None and r % 2:
            traced_round = run_traced(trace, argvs, len(records))
        done = run_round(jobs, argvs)
        if trace is not None and not r % 2:
            traced_round = run_traced(trace, argvs, len(records))
        for rec, (seconds_traced, traced_digest) in zip(done, traced_round):
            traced.append(seconds_traced)
            if traced_digest != rec.digest and rec.error is None:
                rec.error = "traced run gave different bytes"
        busy += sum(rec.seconds for rec in done)
        for rec in done:
            if rec.out is not None and rec.job.kind not in checks.DEFERRED:
                check_record(rec)
        records += done
        r += 1
    return records, traced


def run_traced(trace: tracer.Tracer, argvs: list[list[str]], first: int) -> list[tuple[float, str]]:
    """Run a round under the tracer; job ids continue from `first`."""
    out = []
    trace.install()
    try:
        for i, argv in enumerate(argvs):
            trace.job = first + i
            seconds, rc, text, _ = timed_call(argv)
            out.append((seconds, digest(rc, text)))
    finally:
        trace.uninstall()
    return out


def repeat_sample(records: list[Record]):
    """Rerun evenly spaced jobs outside the window; their bytes must not change."""
    step = max(1, len(records) // REPEATS)
    for rec in records[::step]:
        rc, out, _ = run_cli(rec.argv)
        if digest(rc, out) != rec.digest and rec.error is None:
            rec.error = "repeat gave different bytes"


def setup_seconds() -> float:
    """Median time from spawning a fresh interpreter to the CLI parser built."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "import cpn_holonomy.cli as cli; cli.build_parser(); "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
    times = []
    for k in range(SETUP_RUNS + 1):  # the first run also writes the bytecode caches
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if k:
            times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return float(np.median(times))


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def git_revision() -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata() -> dict:
    sources = sorted((SRC / "cpn_holonomy").glob("*.py"))
    fingerprint = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in sources))
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"git_revision": git_revision(), "source_sha256": fingerprint.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads()}


def layer_metrics(trace: tracer.Tracer, jobs: int) -> dict[str, float]:
    """Per-job means of self time, calls and counters from the traced spans."""
    by_key = tracer.self_times(trace.spans)
    out = {}
    for layer in tracer.LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in by_key.items() if tracer.layer_of(k) == layer)
        out[f"{layer}.calls"] = sum(1 for s in trace.spans if tracer.layer_of(s[1]) == layer)
    for key in STAGES:
        out[f"{key}.self_s"] = by_key.get(key, 0.0)
    for key in COUNTS:
        out[key] = trace.counts.get(key, 0)
    return {k: v / jobs for k, v in out.items()}


def summary(records: list[Record]) -> dict:
    failed = [r for r in records if r.error is not None]
    by_kind: dict[str, dict] = {}
    for r in records:
        kind = by_kind.setdefault(r.job.kind, {"jobs": 0, "failed": 0, "min_digits": None})
        kind["jobs"] += 1
        kind["failed"] += r.error is not None
        if r.error is None and r.distance is not None:
            d = checks.digits(r.distance)
            kind["min_digits"] = d if kind["min_digits"] is None else min(kind["min_digits"], d)
    return {"attempted": len(records), "failed": len(failed),
            "failed_ratio": {"value": len(failed) / len(records), "unit": "ratio"},
            "by_kind": by_kind, "failures": [f"{r.job.argv[0]}: {r.error}" for r in failed[:10]]}


def measure(workload: str, seed: int, seconds: float, trace_on: bool) -> tuple[dict, dict]:
    """Run one workload; return (result line, detail record)."""
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        if trace_on:
            trace = tracer.Tracer()
            records, traced = run_window(workload, seed, seconds / 2, 1, workdir, trace)
            peak_rss = None
        else:
            setup_s = setup_seconds()
            records, traced = run_window(workload, seed, seconds, MIN_JOBS, workdir)
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for rec in records:
            if rec.out is not None:
                check_record(rec)
        repeat_sample(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = summary(records)
    times = np.array([r.seconds for r in records])
    correct = detail["failed"] == 0
    if trace_on:
        silent = [layer for layer in EXERCISED[workload]
                  if not any(tracer.layer_of(s[1]) == layer for s in trace.spans)]
        if silent:
            correct = False
            detail["failures"].append(f"no span recorded in layer(s) {', '.join(silent)}")
        values = layer_metrics(trace, len(records))
        values["trace.jobs_per_s_untraced"] = len(records) / float(times.sum())
        values["trace.jobs_per_s_traced"] = len(traced) / float(sum(traced))
        values["trace.overhead_ratio"] = float(sum(traced) / times.sum())
        units = dict(PER_LAYER)
        detail["trace_counter_errors"] = trace.counts.get("trace.counter_errors", 0)
    else:
        checked = [checks.digits(r.distance) for r in records
                   if r.error is None and r.distance is not None]
        values = {"setup_s": setup_s, "jobs_per_s": len(records) / float(times.sum()),
                  "job_p50_ms": float(np.percentile(times, 50)) * 1e3,
                  "job_p90_ms": float(np.percentile(times, 90)) * 1e3,
                  "accuracy_digits": min(checked) if checked else 0.0,
                  "peak_rss_mb": peak_rss}
        units = dict(END_TO_END)
        detail["samples"] = len(times)
        detail["beyond_p90"] = int(np.sum(times > np.percentile(times, 90)))
    result = {"correct": correct, "attempted": detail["attempted"], "failed": detail["failed"],
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    detail.update({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": int(trace_on), "busy_s": float(times.sum()), "meta": metadata()})
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0
