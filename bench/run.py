"""civar benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload desk --seed 1 --seconds 10 --trace 0

Runs from the root of a source tree (civar is imported from src/).  The
workload's fixed job list runs back to back, one job at a time, in a
single thread; a pass is one run of the list on freshly built inputs, and
passes repeat while another one fits in --seconds (at least one pass).
Every job's output is checked after the timed phase.  The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with no
wrappers installed.  With --trace 1 the same untraced passes run first,
then two traced passes that give the per-layer metrics; their exact
counters must agree, and the difference of the traced and untraced wall
times is reported as the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
TRACED_PASSES = 2

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import civar\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Median time to import civar in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def run_pass(workload, tracer=None):
    """One pass on fresh inputs: the timed job loop, then the checks.
    Returns (wall_ns, job times in ns, failed job names)."""
    jobs = workload.jobs(workload.setup())
    gc.collect()
    times, results = [], []
    start = perf_counter_ns()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(i)
        t0 = perf_counter_ns()
        try:
            results.append((job.run(), None))
        except Exception as exc:  # a failed job is counted, the run goes on
            results.append((None, exc))
        times.append(perf_counter_ns() - t0)
        if tracer is not None:
            tracer.end_job()
    wall = perf_counter_ns() - start
    failed = []
    for job, (out, err) in zip(jobs, results):
        if err is None:
            try:
                job.check(out)
            except Exception as exc:
                err = exc
        if err is not None:
            failed.append(job.name)
            print(f"FAILED {job.name}: {type(err).__name__}: {err}", file=sys.stderr)
    return wall, times, failed


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "civar" / "__init__.py").is_file():
        print(f"no civar sources under {SRC}", file=sys.stderr)
        return 2
    # One thread, here and in the import probes: numpy's BLAS would start a
    # thread per core at import, and its import time then depends on
    # whether another core is free.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import jobs as workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work")
    try:
        return measure(workloads.WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass


def measure(workload_cls, args, workdir) -> int:
    import_s = import_seconds()
    import civar  # noqa: F401  (the in-process import the jobs use)

    workload = workload_cls(args.seed, workdir)
    build = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup()
        build.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(build)

    walls, times, failed, attempted = [], [], [], 0
    began = perf_counter()
    # as many whole passes as fit in --seconds, at least one
    while not walls or perf_counter() - began + statistics.median(walls) / 1e9 <= args.seconds:
        wall, job_times, bad = run_pass(workload)
        walls.append(wall)
        times += job_times
        failed += bad
        attempted += len(job_times)
    wall_s = statistics.median(walls) / 1e9
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = [
        ("setup_s", setup_s, "s"),
        ("wall_s", wall_s, "s"),
        ("job_p50_s", quantile(times, 50) / 1e9, "s"),
        ("job_p90_s", quantile(times, 90) / 1e9, "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ]
    notes = [
        "pass walls = " + ", ".join(f"{w / 1e9:.3f}" for w in walls) + " s",
        f"job samples = {len(times)}",
    ]
    defects = []
    if args.trace:
        report, defects, traced_failed, traced_attempted = traced(workload, wall_s)
        failed += traced_failed
        attempted += traced_attempted
    failed_frac = len(failed) / attempted
    notes.append(f"failed_frac = {failed_frac:.4f} ({len(failed)} of {attempted} jobs)")

    for name, value, unit in report:
        print(f"{name} = {value:.6g} {unit}")
    for line in notes + [f"DEFECT {d}" for d in defects]:
        print(line)
    result = {
        "correct": not failed and not defects,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in report},
    }
    print(json.dumps(result))
    return 0


def traced(workload, untraced_wall_s):
    """Traced passes with the wrappers installed.  Returns the per-layer
    report, the benchmark defects found, and the traced passes' failed job
    names and job count."""
    from tracing import Tracer

    tracer = Tracer()
    passes, failed, attempted = [], [], 0
    tracer.install()
    try:
        for _ in range(TRACED_PASSES):
            tracer.reset()
            wall, job_times, bad = run_pass(workload, tracer)
            passes.append((wall, tracer.metrics(wall), tracer.exact_counts()))
            failed += bad
            attempted += len(job_times)
    finally:
        tracer.uninstall()
    defects = [f"{reason}: {n}" for reason, n in sorted(tracer.defects.items())]
    first = passes[0][2]
    for _wall, _metrics, counts in passes[1:]:
        for key in sorted(set(first) | set(counts)):
            if first.get(key) != counts.get(key):
                defects.append(f"counter {key} differs between passes: {first.get(key)} != {counts.get(key)}")
    report = []
    for name, (value, unit) in passes[0][1].items():
        if unit != "count":  # counts are equal in every pass, checked above
            value = statistics.median(p[1][name][0] for p in passes)
        report.append((name, value, unit))
    wall_s = statistics.median(p[0] for p in passes) / 1e9
    report.append(("trace.wall_s", wall_s, "s"))
    report.append(("trace.overhead_s", wall_s - untraced_wall_s, "s"))
    return report, defects, failed, attempted


if __name__ == "__main__":
    sys.exit(main())
