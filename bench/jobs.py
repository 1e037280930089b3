"""The three workloads: their generated inputs, their set-up, and their
fixed job lists with one output check per job.

A workload object is built once per run from the seed.  Each pass then
calls `setup()` for fresh inputs, so no cache a previous pass left on a ring
or module object can serve the next one, and `jobs(inputs)` for the job list
in its fixed order.  A job is a name, a callable that does the work
and returns its output, and a check applied to that output after the timed
phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from collections import namedtuple

import inputs
from oracles import (
    Mismatch,
    check_hilbert_alternating,
    check_minimal,
    check_minimal_text,
    growth_order,
    require,
    tate_betti,
)


Job = namedtuple("Job", "name run check")


# ---------------------------------------------------------------------------
# desk: every CLI subcommand over the test corpus, in process

CLI_STEPS = 12  # the CLI's default window for resolve and operators

# R3 k takes seconds per job at the default window; only its `variety` job
# keeps the default, so one long job sets the pass's wall time and the
# short jobs set the median.
SMALL_WINDOWS = {"R3 k": {"resolve": 8, "operators": 8, "cut": 6}}

# Carlson splits (a1, a2) whose pieces are principal, so the CLI can state
# them: the full variety as V(0) with the empty piece V(1), or a line as the
# zero set of one form.  V(A/(x)) over R1 is the line chi2 = 0 because x
# squares to the first relation, so chi1 acts as the periodicity operator.
CARLSON_SPLITS = {
    "R1 k": ("0", "1"),
    "R1 A/(x)": ("chi2", "1"),
    "R1 A/(y)": ("chi1", "1"),
    "R1 syz1(k)": ("0", "1"),
    "R2 k": ("0", "1"),
    "R2 free": ("chi1", "1"),
}

# Modules whose variety is known beforehand: k (and its first syzygy) has
# the full space, a free module or one of finite projective dimension the
# origin.
FULL = {"R1 k", "R2 k", "R3 k", "R4 k", "R1 syz1(k)"}
TRIVIAL = {"R1 free", "R2 free", "R4 A/(y)"}


def run_cli(argv):
    """One in-process CLI job: the parsed structured report, or Mismatch on
    a nonzero exit code."""
    from civar import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--format", "structured"])
    out = buf.getvalue()
    if code != 0:
        raise Mismatch(f"exit code {code}: {out.strip()[:200]}")
    return json.loads(out)


class Desk:
    name = "desk"

    def __init__(self, seed: int, workdir: str):
        # the corpus is fixed; the seed selects nothing here
        self.workdir = workdir
        self.files = inputs.write_desk(workdir)

    def setup(self):
        from civar import cli

        rings = {name: cli.load_ring(path) for name, path in self.files["rings"].items()}
        mods = [
            cli.load_module(rings[ring], path)
            for _label, ring, path, _kind, _gens in self.files["modules"]
        ]
        return rings, mods

    def jobs(self, _inputs):
        rings = self.files["rings"]
        out = os.path.join(self.workdir, "out")
        jobs = []

        def add(name, argv, check):
            jobs.append(Job(name, lambda: run_cli(argv), check))

        for name, path in rings.items():
            add(f"validate {name}", ["validate", path], ring_check(inputs.DESK_RINGS[name]))
        for label, ring, path, kind, gens in self.files["modules"]:
            if label == inputs.README_SUM[0]:
                continue
            doc = inputs.DESK_RINGS[ring]
            rp = rings[ring]
            steps = SMALL_WINDOWS.get(label, {})
            window = {cmd: ["--steps", str(n)] for cmd, n in steps.items()}
            n_res = steps.get("resolve", CLI_STEPS)
            n_ops = steps.get("operators", CLI_STEPS)
            add(f"validate {label}", ["validate", rp, path], validate_check(gens))
            add(
                f"resolve {label}",
                ["resolve", rp, path] + window.get("resolve", []),
                resolution_check(doc, kind, gens, n_res),
            )
            add(
                f"operators {label}",
                ["operators", rp, path] + window.get("operators", []),
                operators_check(doc, kind, gens, n_ops),
            )
            add(f"variety {label}", ["variety", rp, path], variety_check(doc, label))
            add(
                f"cut {label}",
                ["cut", rp, path, "--eta", "chi1"] + window.get("cut", []),
                cut_check,
            )
            add(f"decompose {label}", ["decompose", rp, path], decompose_check)
            if label in CARLSON_SPLITS:
                a1, a2 = CARLSON_SPLITS[label]
                add(
                    f"check-carlson {label}",
                    ["check-carlson", rp, path, "--a1", a1, "--a2", a2],
                    carlson_check,
                )
        # the README's examples; emitted files are read back by `variety`
        r1 = rings["R1"]
        k1 = self.files["modules"][0][2]
        total = self.files["modules"][-1][2]
        add("readme cut", ["cut", r1, k1, "--eta", "chi1", "--out", out + "_kcut.txt"], cut_check)
        add("readme cut round trip", ["variety", r1, out + "_kcut.txt"], dimension_check(1))
        add(
            "readme realize",
            ["realize", r1, "--eta", "chi1 + chi2", "--out", out + "_real.txt"],
            realize_check(1),
        )
        add("readme realize round trip", ["variety", r1, out + "_real.txt"], dimension_check(1))
        add(
            "readme decompose",
            ["decompose", r1, total, "--out", out + "_sum"],
            decompose_check,
        )
        for i in range(2):
            add(
                f"readme summand {i} round trip",
                ["variety", r1, f"{out}_sum.summand{i}"],
                dimension_check(1),
            )
        add(
            "readme check-carlson",
            ["check-carlson", r1, total, "--a1", "chi2", "--a2", "chi1"],
            carlson_check,
        )
        add("realize R2", ["realize", rings["R2"], "--eta", "chi1"], realize_check(0))
        add(
            "realize R3",
            ["realize", rings["R3"], "--eta", "chi1 + chi2 + chi3"],
            realize_check(2),
        )
        add(
            "realize R4",
            ["realize", rings["R4"], "--eta", "chi1", "--out", out + "_r4.txt"],
            realize_check(0),
        )
        add("realize R4 round trip", ["variety", rings["R4"], out + "_r4.txt"], dimension_check(0))
        return jobs


def ring_check(doc):
    def check(rep):
        codim = len(doc["ci"])
        require(rep["ok"] is True, "ring not validated")
        require(rep["ring"]["codim"] == codim, "wrong codimension")
        require(rep["ring"]["dim"] == len(doc["vars"]) - codim, "wrong dimension")

    return check


def validate_check(gens):
    def check(rep):
        require(rep["ok"] is True, "module not validated")
        require(rep["module"]["gens"] == gens, "generator degrees changed")

    return check


def _check_resolution(res_doc, ring_doc, kind, gens, steps):
    betti = res_doc["betti"]
    require(len(betti) == steps + 1, "wrong resolution length")
    check_minimal_text(res_doc["differentials"])
    n, c = len(ring_doc["vars"]), len(ring_doc["ci"])
    if kind == "k":
        require(betti == tate_betti(n, c, steps), f"Betti numbers of k off Tate: {betti}")
    elif kind == "syz1k":
        want = tate_betti(n, c, steps + 1)[1:]
        require(betti == want, f"Betti numbers of Syz_1(k) off Tate: {betti}")
    elif kind == "free":
        require(betti == [len(gens)] + [0] * steps, "free module has syzygies")


def resolution_check(ring_doc, kind, gens, steps):
    def check(rep):
        _check_resolution(rep["resolution"], ring_doc, kind, gens, steps)

    return check


def operators_check(ring_doc, kind, gens, steps):
    def check(rep):
        _check_resolution(rep["resolution"], ring_doc, kind, gens, steps)
        betti = rep["resolution"]["betti"]
        ops = rep["operators"]
        require(len(ops) == len(ring_doc["ci"]), "one operator per relation expected")
        for op in ops:
            mids = [w["mid"] for w in op["windows"]]
            require(mids == list(range(1, steps)), "operator windows missing")
            for w in op["windows"]:
                require(
                    len(w["columns"]) == betti[w["mid"] + 1],
                    "operator has the wrong number of columns",
                )

    return check


def variety_check(ring_doc, label):
    def check(rep):
        dim = rep["dimension"]
        require(
            growth_order(rep["betti"]) == dim,
            f"complexity from Betti growth differs from dim V = {dim}",
        )
        if label in FULL:
            require(rep["annihilator"] == [], "V(k) is not the full space")
            require(dim == len(ring_doc["ci"]), "V(k) has the wrong dimension")
        if label in TRIVIAL:
            require(dim == 0, "variety of a module of finite projective dimension is not the origin")

    return check


def dimension_check(dim):
    def check(rep):
        require(rep["dimension"] == dim, f"variety dimension {rep['dimension']} != {dim}")
        require(growth_order(rep["betti"]) == dim, "complexity from Betti growth differs from dim V")

    return check


def cut_check(rep):
    # equality on maximal Cohen-Macaulay inputs, inclusion otherwise
    require(rep["verified"] is True, "cut not verified")
    want = rep["expected_variety"]["dimension"]
    got = rep["result_variety"]["dimension"]
    require(got == want or (got < want and not rep["input_is_mcm"]), "cut variety has the wrong dimension")


def decompose_check(rep):
    dims = [s["model_dimension"] for s in rep["summands"]]
    require(sum(dims) == rep["model_dimension"], f"summand dimensions {dims} do not add up")


def carlson_check(rep):
    require(rep["verdict"] == "pass", "Carlson split did not pass")


def realize_check(dim):
    def check(rep):
        require(rep["verified"] is True, "realization not verified")
        require(rep["variety"]["dimension"] == dim, "realized variety has the wrong dimension")

    return check


# ---------------------------------------------------------------------------
# resolve-deep: long resolutions over R5, no varieties

DEPTH_K = 10
DEPTH_QL = 8


class ResolveDeep:
    name = "resolve-deep"

    def __init__(self, seed: int, workdir: str):
        self.spec = inputs.draw_resolve_deep(seed)

    def setup(self):
        from civar import RingSpec, present_module, residue_field

        r = self.spec["ring"]
        rs = RingSpec(r["p"], r["vars"], r["ci"])
        return residue_field(rs), present_module(rs, (0,), [[self.spec["l"]]])

    def jobs(self, mods):
        k, ql = mods
        spec = self.spec
        n = len(spec["ring"]["vars"])
        c = len(spec["ring"]["ci"])

        def check_k(res):
            _check_deep(res, DEPTH_K)
            betti = [len(res.degs[i]) for i in range(DEPTH_K + 1)]
            require(betti == tate_betti(n, c, DEPTH_K), f"Betti numbers of k off Tate: {betti}")

        def check_ql(res):
            _check_deep(res, DEPTH_QL)
            check_hilbert_alternating(
                res.degs[: DEPTH_QL + 1], spec["hilbert_q"], spec["hilbert_ql"]
            )

        return [
            Job("k", lambda: _resolve_and_lift(k, DEPTH_K), check_k),
            Job("Q/(l)", lambda: _resolve_and_lift(ql, DEPTH_QL), check_ql),
        ]


def _resolve_and_lift(pres, depth):
    from civar import lift_and_operators, resolve_min

    res = resolve_min(pres, depth)
    lift_and_operators(res, depth - 1)
    return res


def _check_deep(res, depth):
    require(len(res.degs) > depth, "resolution is too short")
    require(res.ops is not None and res.ops.upto >= depth - 1, "operators not lifted")
    check_minimal(res.diffs[1 : depth + 1])


# ---------------------------------------------------------------------------
# variety-construct: realize, cut, decompose and split over two rings


class VarietyConstruct:
    name = "variety-construct"

    def __init__(self, seed: int, workdir: str):
        self.spec = inputs.draw_variety_construct(seed)

    def setup(self):
        from civar import RingSpec

        return {
            name: RingSpec(d["ring"]["p"], d["ring"]["vars"], d["ring"]["ci"])
            for name, d in self.spec.items()
        }

    def jobs(self, rings):
        from civar import (
            ModulePresentation,
            VarietyIdeal,
            check_carlson,
            decompose,
            direct_sum,
            phi,
            pushout_cut,
            realize,
            support_variety,
        )

        made = {}
        jobs = []

        def fresh(key):
            # a new presentation object, so no cached resolution carries over
            m = made[key]
            return ModulePresentation(m.rs, m.gens, m.relations)

        def realize_job(ring, shape):
            rs = rings[ring]
            etas = self.spec[ring][shape]

            def run():
                made[ring, shape] = realize(rs, etas, verify=True)
                return made[ring, shape]

            return Job(f"realize {ring} {shape}", run, complexity_check(self.spec[ring]["dims"][shape]))

        def variety_job(ring, shape):
            rs = rings[ring]
            want = self.spec[ring][shape]

            def run():
                m = fresh((ring, shape))
                return m, support_variety(m)

            def check(out):
                m, v = out
                require(v.equals(VarietyIdeal(rs.h_ring, want)), "variety differs from the target")
                complexity_check(self.spec[ring]["dims"][shape])(m)

            return Job(f"variety {ring} {shape}", run, check)

        def cut_job(ring, shape):
            def run():
                m = fresh((ring, shape))
                return pushout_cut(m, phi(m, self.spec[ring]["cut"]))

            return Job(f"cut {ring} {shape}", run, complexity_check(self.spec[ring]["dims"]["cut"]))

        def sum_of_line_and_plane(ring):
            m = direct_sum(made[ring, "line"], made[ring, "plane"])
            return ModulePresentation(m.rs, m.gens, m.relations)

        def decompose_job(ring):
            def run():
                from civar import vector_model

                m = sum_of_line_and_plane(ring)
                return vector_model(m).dim, decompose(m)

            def check(out):
                dim, dec = out
                dims = [len(model[0]) for model in dec.models]
                require(sum(dims) == dim, f"summand dimensions {dims} do not add up to {dim}")

            return Job(f"decompose {ring} line+plane", run, check)

        def carlson_job(ring):
            rs = rings[ring]

            def run():
                a1 = VarietyIdeal(rs.h_ring, self.spec[ring]["line"])
                a2 = VarietyIdeal(rs.h_ring, self.spec[ring]["plane"])
                return check_carlson(sum_of_line_and_plane(ring), a1, a2)

            def check(out):
                require(out.verdict is True, "Carlson split did not pass")
                require(out.group1 and out.group2, "a side of the split is empty")

            return Job(f"check-carlson {ring} line+plane", run, check)

        jobs += [
            realize_job("A", "plane"),
            realize_job("A", "line"),
            variety_job("A", "plane"),
            variety_job("A", "line"),
            cut_job("A", "plane"),
            decompose_job("A"),
            carlson_job("A"),
            realize_job("B", "plane"),
            realize_job("B", "line"),
            variety_job("B", "line"),
            cut_job("B", "plane"),
        ]
        return jobs


def complexity_check(dim):
    """complexity = dim V for the module's computed Betti numbers."""

    def check(pres):
        from civar import resolve_min

        res = resolve_min(pres, 12)
        betti = [len(res.degs[i]) for i in range(13)]
        require(growth_order(betti) == dim, f"Betti growth {betti} does not give dim V = {dim}")

    return check


WORKLOADS = {cls.name: cls for cls in (Desk, ResolveDeep, VarietyConstruct)}
