"""Acceptance gate.

Nine criteria over the fixed desk-scale corpus (four rings, thirteen
modules).  Each criterion is one test that prints a single verdict line, so
a full run reads as a checklist.  Everything is exact arithmetic; there are
no tolerances anywhere.
"""

import pytest

from civar.cohomology import (
    VarietyIdeal,
    annihilator_window,
    complexity,
    ext_k_module,
    lift_and_operators,
    support_variety,
)
from civar.construct import check_carlson, decompose, phi, pushout_cut, realize
from civar.groebner import groebner_basis, normal_form, radical_membership
from civar.resolve import (
    direct_sum,
    free_module,
    is_mcm,
    present_module,
    resolve_min,
    syzygy_module,
    vector_model,
)

from helpers import brute_radical, buchberger_holds, component, dense, random_homogeneous, seeded, times


@pytest.fixture
def report(capsys):
    """Verdict printer: one checklist line per criterion, emitted outside
    the capture machinery so it shows up on quiet runs too."""

    def go(n: int, failures) -> None:
        verdict = "PASS" if not failures else "FAIL"
        with capsys.disabled():
            print(f"[criterion {n}] {verdict}", flush=True)
        assert not failures, f"criterion {n}: " + "; ".join(failures)

    return go


# support varieties are reused across criteria; key on the presentation
# object itself (kept alive in the value) so ids cannot be recycled
_vcache = {}


def _variety(pres):
    got = _vcache.get(id(pres))
    if got is None:
        got = (pres, support_variety(pres))
        _vcache[id(pres)] = got
    return got[1]


@pytest.fixture(scope="module")
def deep(corpus):
    """One resolution per corpus module, shared by the operator and window
    criteria; ext_k_module extends them in place as needed."""
    return {label: resolve_min(pres, 14) for label, pres in corpus}


# ---------------------------------------------------------------------------


def test_criterion_1_full_and_trivial_varieties(r1, r2, r3, r4, corpus, report):
    failures = []
    for label, pres in corpus:
        if label.endswith(" k") and not label.startswith("R4"):
            v = _variety(pres)
            if v.gens != () or v.dimension() != pres.rs.codim:
                failures.append(f"{label}: expected the full space, got {v.gens}")
    for label, pres in corpus:
        if "free" in label:
            if not _variety(pres).is_trivial():
                failures.append(f"{label}: free module variety is not trivial")
    # finite free resolution over the positive-dimensional ring
    ay = present_module(r4, (0,), [["y"]])
    if not support_variety(ay).is_trivial():
        failures.append("R4 A/(y): finite resolution but nontrivial variety")
    if not support_variety(free_module(r4, (0,))).is_trivial():
        failures.append("R4 free: nontrivial variety")
    report(1, failures)


def test_criterion_2_operator_identities(corpus, deep, report):
    failures = []
    steps = 12
    for label, pres in corpus:
        rs = pres.rs
        res = deep[label]
        res.extend(steps)
        lift_and_operators(res, steps - 1)
        for mid in range(1, steps):
            lo, hi = res.diffs[mid], res.diffs[mid + 1]
            t = [res.ops.cols[j][mid] for j in range(rs.codim)]
            for c, col in enumerate(hi):
                acc = {}
                for r, f in enumerate(col.components()):
                    if f.is_zero():
                        continue
                    for key, v in times(lo[r], f).terms.items():
                        acc[key] = (acc.get(key, 0) + v) % rs.p
                expect = {}
                for j, fj in enumerate(rs.ci):
                    for key, v in times(t[j][c], fj).terms.items():
                        expect[key] = (expect.get(key, 0) + v) % rs.p
                acc = {k: v for k, v in acc.items() if v}
                expect = {k: v for k, v in expect.items() if v}
                if acc != expect:
                    failures.append(f"{label}: identity broken at mid {mid} col {c}")
        ext = ext_k_module(res, steps)
        for j1 in range(rs.codim):
            for j2 in range(j1 + 1, rs.codim):
                for i in range(steps - 3):
                    b = ext.dims[i + 4], ext.dims[i + 2]
                    ab = dense(ext.act[j1][i + 2], b[0]) @ dense(ext.act[j2][i], b[1]) % rs.p
                    ba = dense(ext.act[j2][i + 2], b[0]) @ dense(ext.act[j1][i], b[1]) % rs.p
                    if not (ab == ba).all():
                        failures.append(
                            f"{label}: chi{j1 + 1}/chi{j2 + 1} do not commute at {i}"
                        )
    report(2, failures)


def test_criterion_3_syzygy_invariance(corpus, report):
    failures = []
    for label, pres in corpus:
        v = _variety(pres)
        w = support_variety(syzygy_module(pres, 1))
        if not v.equals(w):
            failures.append(f"{label}: V changed under one syzygy step")
    report(3, failures)


def test_criterion_4_cut_equality_on_mcm(corpus, r4, report):
    failures = []
    for label, pres in corpus:
        if not is_mcm(pres):
            continue
        rs = pres.rs
        etas = ["chi1"]
        if rs.codim >= 2:
            etas = ["chi1", "chi2", "chi1 + chi2", "chi1*chi2"]
        for eta in etas:
            cut = pushout_cut(pres, phi(pres, eta))
            got = support_variety(cut)
            expected = _variety(pres).intersect(VarietyIdeal(rs.h_ring, [eta]))
            if not (expected.contains_variety(got) and got.contains_variety(expected)):
                failures.append(
                    f"{label} / {eta}: got {[str(g) for g in got.gens]}, "
                    f"expected {[str(g) for g in expected.gens]}"
                )
    # inclusion alone on a module of depth < dim
    k4 = present_module(r4, (0,), [["x"], ["y"]])
    assert not is_mcm(k4)
    cut = pushout_cut(k4, phi(k4, "chi1"))
    expected = _variety(k4).intersect(VarietyIdeal(r4.h_ring, ["chi1"]))
    if not expected.contains_variety(support_variety(cut)):
        failures.append("R4 k: cut variety escapes the intersection")
    report(4, failures)


def test_criterion_5_realization_round_trip(r1, r3, report):
    failures = []
    jobs = [
        (r1, ["chi1"]),
        (r1, ["chi1 + chi2"]),
        (r3, ["chi1", "chi2 + chi3"]),
    ]
    for rs, etas in jobs:
        got = realize(rs, etas, verify=False)
        target = VarietyIdeal(rs.h_ring, etas)
        if not is_mcm(got):
            failures.append(f"realize{tuple(etas)}: result is not maximal CM")
        if not support_variety(got).equals(target):
            failures.append(f"realize{tuple(etas)}: variety mismatch")
    report(5, failures)


def test_criterion_6_disjoint_split(r1, r3, corpus, report):
    failures = []
    m1 = present_module(r1, (0,), [["x"]])
    m2 = present_module(r1, (0,), [["y"]])
    res = check_carlson(
        direct_sum(m1, m2),
        VarietyIdeal(r1.h_ring, ["chi2"]),
        VarietyIdeal(r1.h_ring, ["chi1"]),
    )
    if res.verdict is not True or len(res.group1) != 1 or len(res.group2) != 1:
        failures.append("axis split did not separate the two summands")
    if not res.v1.equals(VarietyIdeal(r1.h_ring, ["chi2"])):
        failures.append("group 1 variety is not the prescribed piece")
    if not res.v2.equals(VarietyIdeal(r1.h_ring, ["chi1"])):
        failures.append("group 2 variety is not the prescribed piece")

    # connectivity audit: an indecomposable with nontrivial support never
    # fits inside both sides of a disjoint split
    splits = {
        2: (VarietyIdeal(r1.h_ring, ["chi2"]), VarietyIdeal(r1.h_ring, ["chi1"])),
        3: (
            VarietyIdeal(r3.h_ring, ["chi2", "chi3"]),
            VarietyIdeal(r3.h_ring, ["chi1", "chi3"]),
        ),
    }
    for label, pres in corpus:
        if "free" in label or pres.rs.codim not in splits:
            continue
        a1, a2 = splits[pres.rs.codim]
        v = _variety(pres)
        if v.is_trivial():
            continue
        if a1.contains_variety(v) and a2.contains_variety(v):
            failures.append(f"{label}: support fits both sides of a disjoint split")

    # splitting a direct sum recovers the parts up to presentation data
    for a, b in ((m1, m2), (present_module(r1, (0,), [["x"], ["y"]]), m1)):
        ds = direct_sum(a, b)
        dec = decompose(ds)
        want = sorted(_profile(x) for x in (a, b))
        got = sorted(_profile(s) for s in dec.summands)
        if want != got:
            failures.append("decompose did not invert direct_sum")
    report(6, failures)


def _profile(pres):
    res = resolve_min(pres, 6)
    return (vector_model(pres).dim, tuple(len(res.degs[i]) for i in range(7)))


def test_criterion_7_complexity_matches_dimension(r1, corpus, report):
    failures = []
    for label, pres in corpus:
        cx = complexity(pres)
        dim = _variety(pres).dimension()
        if cx != dim:
            failures.append(f"{label}: complexity {cx} but variety dimension {dim}")
    if complexity(present_module(r1, (0,), [["x"]])) != 1:
        failures.append("A/(x): complexity is not 1")
    if complexity(free_module(r1, (0, 1))) != 0:
        failures.append("free: complexity is not 0")
    for label, pres in corpus:
        if label.endswith(" k") and complexity(pres) != pres.rs.codim:
            failures.append(f"{label}: complexity differs from the codimension")
    report(7, failures)


def test_criterion_8_engine_oracles(r1, r2, r3, r4, corpus, report):
    failures = []
    rng = seeded("acceptance-oracles")
    rings = [r1, r2, r3, r4]
    for rs in rings:
        if not buchberger_holds(rs.ci_gb):
            failures.append(f"{rs.ring.vars}: defining ideal basis fails Buchberger")
    for label, pres in corpus:
        if pres.relations:
            gb = groebner_basis(list(pres.relations))
            if not buchberger_holds(gb):
                failures.append(f"{label}: relation basis fails Buchberger")
    for rs in rings:
        gb = rs.ci_gb
        for trial in range(100):
            f = random_homogeneous(rs.ring, rng.randrange(1, 5), rng)
            rem, cofs = normal_form(f, gb)
            acc = component(rem, 0)
            for c, e in zip(cofs, gb.elements):
                acc = acc + c * component(e, 0)
            if acc != f:
                failures.append(f"{rs.ring.vars}: cofactor identity broke ({trial})")
                break
    # radical membership against bounded brute-force powering
    for rs in rings:
        probes = [rs.ring.parse(n) for n in rs.ring.vars]
        probes.append(sum(probes[1:], probes[0]))
        for g in probes:
            want = brute_radical(g, rs.ci, rs.ring)
            if radical_membership(g, rs.ci, rs.ring) != want:
                failures.append(f"{rs.ring.vars}: radical disagreement on {g}")
    for label, pres in corpus:
        h = pres.rs.h_ring
        gens = list(_variety(pres).gens)
        for name in h.vars:
            g = h.parse(name)
            want = brute_radical(g, gens, h)
            if radical_membership(g, gens, h) != want:
                failures.append(f"{label}: radical disagreement on {g}")
    report(8, failures)


def test_criterion_9_window_stabilization(corpus, deep, report):
    failures = []
    for label, pres in corpus:
        res = deep[label]
        windows = {n: annihilator_window(ext_k_module(res, n)) for n in (8, 10, 12, 14)}
        for n in (8, 10, 12):
            small, big = windows[n + 2], windows[n]
            if not big.gens:
                ok = not small.gens
            else:
                gb = groebner_basis(list(big.gens))
                ok = all(gb.contains(g) for g in small.gens)
            if not ok:
                failures.append(f"{label}: window {n + 2} escapes window {n}")
        if not windows[10].equals(windows[12]):
            failures.append(f"{label}: windows 10 and 12 are not radical-equal")
    report(9, failures)
