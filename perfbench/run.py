#!/usr/bin/env python3
"""Benchmark of the dpoisson engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bracket-suite --seed 1 --seconds 42 --trace 0

Workloads: bracket-suite, dlr-calculus, point-queries (see README.md).
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
runs one untraced and one traced pass of the same inputs and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5  # fresh interpreters whose set-up time is measured


def percentile(xs, q: float) -> float:
    """Linear interpolation between the closest ranks (inclusive)."""
    s = sorted(xs)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def check_checkout():
    """Refuse to run anywhere but the root of a dpoisson checkout."""
    if not (ROOT / "src" / "dpoisson" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        sys.exit(f"error: {ROOT} is not a dpoisson checkout (src/dpoisson and fixtures/ missing)")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def run_record(workload: str, seed: int, trace: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout that is not a repository reports 'unknown'."""
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
    return "unknown"


def setup_probe(workload: str, seed: int, tiny: bool) -> float:
    """Import, input generation and construction in this fresh process."""
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)
    t0 = time.perf_counter()
    import workloads
    workloads.setup(workload, seed, expected, tiny)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int, tiny: bool) -> list:
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return times


class PassRunner:
    """Runs the jobs of passes, times each one and checks its answer."""

    def __init__(self, build):
        self.build = build  # pass index -> fresh jobs
        self.attempted = 0
        self.failures = []

    def run(self, jobs, tracer=None):
        """Time every job and check its answer right after it; return the
        wall time from the first job's start to the last verdict, and the
        per-job latencies."""
        latencies = []
        t_first = time.perf_counter()
        for i, job in enumerate(jobs):
            if job.before is not None:
                job.before()
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            try:
                raw, err = job.run(), None
            except Exception as e:  # a raising job is a failed operation
                raw, err = None, f"{type(e).__name__}: {e}"
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.request = -1
            self.attempted += 1
            if err is None:
                got = job.answer(raw)
                if got == job.expected:
                    continue
                err = f"answer {json.dumps(got)[:300]}"
            self.failures.append(f"{job.name}: {err}")
        return time.perf_counter() - t_first, latencies


def measure(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False,
            expected: dict = None, emit=print) -> dict:
    """One run: set-up, timed passes, checks.  Returns the result object."""
    import workloads
    if expected is None:
        expected = workloads.load_expected()
    record = run_record(workload, seed, trace)
    setup_times = None if trace else measure_setup(workload, seed, tiny)
    inputs = workloads.setup(workload, seed, expected, tiny)
    emit(f"perfbench {workload} seed={seed} inputs=sha256:{workloads.inputs_digest(inputs)}")
    emit("run " + json.dumps(record))
    runner = PassRunner(lambda k: workloads.build_pass(workload, inputs, expected, k, tiny))
    for job in workloads.build_pass(workload, inputs, expected, 0, tiny=True):
        job.run()  # untimed warm-up of the code paths the passes take
    if trace:
        metrics = traced_metrics(runner, workload, seed, record)
    else:
        metrics = timed_metrics(runner, seconds, setup_times, emit)
    if workload == "point-queries":
        probe = workloads.contract_probe()
        held = sum(1 for _, ok, _ in probe if ok)
        emit(f"contract_probe {held}/{len(probe)} hold (not timed, not counted): "
             + ", ".join(f"{n} {got}" for n, _, got in probe))
    failed = len(runner.failures)
    for line in runner.failures[:20]:
        emit(f"FAILED {line}")
    emit(f"fail_frac {failed / runner.attempted:.6g} ratio ({failed} of {runner.attempted} operations)")
    for name, (value, unit) in metrics.items():
        emit(f"{name} {value:.6g} {unit}")
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}


def timed_metrics(runner: PassRunner, seconds: float, setup_times: list, emit) -> dict:
    """End-to-end metrics, tracing off.  Passes run while another one fits
    in the time budget; there is always at least one."""
    walls, latencies = [], []
    t_begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wall, lat = runner.run(runner.build(len(walls)))
        walls.append(wall)
        latencies += lat
        full_pass = time.perf_counter() - t0
        if time.perf_counter() - t_begin + full_pass > seconds:
            break
    n = len(latencies)
    beyond = n - math.ceil(0.99 * n)
    emit(f"passes {len(walls)}, operations {n}, samples beyond p99 {beyond}, "
         f"setup probes {', '.join(f'{t:.4f}' for t in setup_times)} s")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "suite_s": (statistics.median(walls), "s"),
        "req_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
        "req_p99_ms": (percentile(latencies, 0.99) * 1e3, "ms"),
        "req_per_s": (n / sum(walls), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def traced_metrics(runner: PassRunner, workload: str, seed: int, record: dict) -> dict:
    """Per-layer metrics from one traced pass, after one untraced pass of
    the same inputs; construction of the inputs is inside both passes."""
    from tracing import Tracer

    t0 = time.perf_counter()
    runner.run(runner.build(0))
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        runner.run(runner.build(0), tracer)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.untraced_s"] = (traced - tracer.self_total_s(), "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    out = Path(".bench_work") / f"trace-{workload}-seed{seed}.json.gz"
    out.parent.mkdir(exist_ok=True)
    tracer.write(out, record)
    return metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="dpoisson benchmark")
    p.add_argument("--workload", required=True,
                   choices=("bracket-suite", "dlr-calculus", "point-queries"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=42)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="cheap jobs only, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    check_checkout()
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, args.tiny))
        return 0
    import dpoisson
    if not Path(dpoisson.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: dpoisson imported from {dpoisson.__file__}, not from this checkout")
    result = measure(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
