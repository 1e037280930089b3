"""Fast self-test of the benchmark harness (a few seconds):

    python3 bench/selftest.py

Checks that the traced run restores every function it wrapped and that an
untraced pass installs nothing, that no span has negative self time, that
a span whose parent belongs to another job is detected and that none occurs
in a real pass, that self time excludes child spans, that the exact
counters repeat between two traced passes, and that both modes print
exactly the metrics BENCHMARK.json lists.  Exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import time

import run
from jobs import Job, run_cli
from oracles import growth_order, require, tate_betti

sys.path.insert(0, str(run.SRC))

import civar  # noqa: E402
import civar.cli  # noqa: E402,F401  (bound before the first snapshot)
import tracing  # noqa: E402

FAILURES = []


def check(cond, message):
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        FAILURES.append(message)


class Mini:
    """A small workload through every layer: two CLI jobs and four
    library jobs over R1 = F_101[x,y]/(x^2, y^2)."""

    def __init__(self, seed, workdir):
        self.ring = os.path.join(workdir, "r1.json")
        self.k = os.path.join(workdir, "k.txt")
        with open(self.ring, "w", encoding="utf-8") as fh:
            fh.write('{"p": 101, "vars": ["x", "y"], "ci": ["x^2", "y^2"]}')
        with open(self.k, "w", encoding="utf-8") as fh:
            fh.write('gens: [0]\nrelations: [["x", "y"]]\n')

    def setup(self):
        return civar.RingSpec(101, ["x", "y"], ["x^2", "y^2"])

    def jobs(self, rs):
        def variety():
            return civar.support_variety(civar.residue_field(rs))

        def split():
            m = civar.direct_sum(
                civar.present_module(rs, (0,), [["x"]]), civar.present_module(rs, (0,), [["y"]])
            )
            return civar.decompose(m)

        def resolved(res):
            betti = [len(res.degs[i]) for i in range(9)]
            require(betti == tate_betti(2, 2, 8), "Betti numbers of k off Tate")

        return [
            Job("cli resolve", lambda: run_cli(["resolve", self.ring, self.k]), lambda r: None),
            Job("cli variety", lambda: run_cli(["variety", self.ring, self.k]), lambda r: None),
            Job("variety", variety, lambda v: require(v.dimension() == 2, "V(k) not full")),
            Job("decompose", split, lambda d: require(len(d.summands) == 2, "no split")),
            Job("resolve", lambda: civar.resolve_min(civar.residue_field(rs), 8), resolved),
            Job("realize", lambda: civar.realize(rs, ["chi1 + chi2"]), lambda m: None),
        ]


def snapshot():
    """Identity of every binding the tracer may touch."""
    out = {}
    for m in tracing._civar_modules():
        for key, value in vars(m).items():
            out[(m.__name__, key)] = id(value)
            if isinstance(value, type) and value.__module__ == m.__name__:
                for attr, member in vars(value).items():
                    out[(m.__name__, key, attr)] = id(member)
    return out


def test_self_time_accounting():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.03)

    wrapped_inner = tracer._wrap(inner, "t.inner", None)

    def outer():
        time.sleep(0.02)
        wrapped_inner()

    wrapped_outer = tracer._wrap(outer, "t.outer", None)
    tracer.begin_job(0)
    wrapped_outer()
    tracer.end_job()
    own_outer = tracer.self_ns["t.outer"] / 1e9
    own_inner = tracer.self_ns["t.inner"] / 1e9
    check(0.015 < own_outer < 0.029, f"outer self time excludes its child ({own_outer:.4f} s)")
    check(0.025 < own_inner < 0.045, f"inner self time is its own duration ({own_inner:.4f} s)")

    def switch_job():
        tracer.job = 1  # the inner span opens under a parent of job 0
        wrapped_inner()

    tracer.begin_job(0)
    tracer._wrap(switch_job, "t.switch", None)()
    tracer.end_job()
    check(tracer.defects["span parent in another job"] == 1, "a parent span in another job is detected")


def test_traced_passes(workdir):
    workload = Mini(1, workdir)
    before = snapshot()
    wall, _times, failed = run.run_pass(workload)
    check(not failed, "untraced mini pass passes its checks")
    check(snapshot() == before, "an untraced pass installs no wrappers")

    original = civar.groebner.syzygies
    tracer = tracing.Tracer()
    tracer.install()
    check(snapshot() != before, "the traced run installs wrappers")
    bindings = [civar.syzygies, civar.groebner.syzygies, civar.resolve.syzygies]
    check(
        all(b is bindings[0] and b is not original for b in bindings),
        "a function is replaced under every name that binds it",
    )
    counts, metrics = [], None
    try:
        for _ in range(2):
            tracer.reset()
            wall, _times, failed = run.run_pass(workload, tracer)
            check(not failed, "traced mini pass passes its checks")
            counts.append(tracer.exact_counts())
            metrics = tracer.metrics(wall)
            check(min(tracer.self_ns.values()) >= 0, "no span has negative self time")
    finally:
        tracer.uninstall()
    check(snapshot() == before, "uninstall restores every original function")
    check(not tracer.defects, f"no tracing defects ({dict(tracer.defects)})")
    check(counts[0] == counts[1], "exact counters repeat between two traced passes")
    for layer in tracing.LAYERS:
        check(metrics[f"{layer}.self_s"][0] > 0, f"layer {layer} is seen")
    check(metrics["resolve.betti_total"][0] > 0, "Betti total is counted")
    shares = sum(metrics[f"{layer}.share"][0] for layer in tracing.LAYERS)
    check(abs(shares + metrics["other.share"][0] - 1) < 1e-9, "layer shares and other add up to 1")


def test_report_matches_benchmark_json(workdir):
    """Both modes print exactly the metrics BENCHMARK.json lists, with its
    units, in a last line of exactly the agreed keys."""
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        args = argparse.Namespace(seed=1, seconds=0, trace=trace)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.measure(Mini, args, workdir)
        last = json.loads(buf.getvalue().splitlines()[-1])
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in last["metrics"].items()}
        check(code == 0 and last["correct"] is True, f"trace {trace}: the run is correct")
        check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"trace {trace}: result keys")
        check(got == want, f"trace {trace}: metrics and units match BENCHMARK.json {key}")


def test_oracles():
    check(tate_betti(3, 3, 4) == [1, 3, 6, 10, 15], "Tate's formula for three squares")
    check(tate_betti(2, 1, 4) == [1, 2, 2, 2, 2], "Tate's formula for a hypersurface in two variables")
    check(growth_order([1, 2, 3, 4, 5, 6, 7, 8]) == 2, "linear Betti growth is complexity 2")
    check(growth_order([1, 1, 0, 0, 0, 0]) == 0, "a finite resolution is complexity 0")


def main() -> int:
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".bench_work")
    try:
        test_oracles()
        test_self_time_accounting()
        test_traced_passes(workdir)
        test_report_matches_benchmark_json(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (run.ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
