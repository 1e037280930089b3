"""Operator extraction, the graded action on Ext against k, window
annihilators, and the stabilized support variety."""

from math import prod

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from civar.arith import PolyRing
from civar.errors import InputError, StabilizationError
from civar.groebner import normal_form
from civar.cohomology import (
    VarietyIdeal,
    annihilator_window,
    complexity,
    ext_k_module,
    generator_counts,
    generator_degree,
    lift_and_operators,
    operator_columns,
    support_variety,
)
from civar.construct import realize
from civar.resolve import (
    ModulePresentation,
    RingSpec,
    direct_sum,
    free_module,
    present_module,
    residue_field,
    resolve_min,
    syzygy_module,
)

from helpers import (
    annihilator_reference,
    dense,
    in_variety_by_projective_dimension,
    linear_form,
    nullspace_reference,
    seeded,
    times,
)


# ---------------------------------------------------------------------------
# operator extraction


def test_operator_identity_recomposed(r1):
    """d~_i d~_{i+1} must equal sum_j f_j t~_j exactly, read over the
    ambient polynomial ring."""
    rs = r1
    res = resolve_min(residue_field(rs), 8)
    lift_and_operators(res, 6)
    ring = rs.ring
    for mid in range(1, 7):
        lo, hi = res.diffs[mid], res.diffs[mid + 1]
        t = [res.ops.cols[j][mid] for j in range(rs.codim)]
        for c, col in enumerate(hi):
            acc = {}
            for r, f in enumerate(col.components()):
                if f.is_zero():
                    continue
                prod = times(lo[r], f)
                for key, v in prod.terms.items():
                    acc[key] = (acc.get(key, 0) + v) % rs.p
            expect = {}
            for j, fj in enumerate(rs.ci):
                contrib = times(t[j][c], fj)
                for key, v in contrib.terms.items():
                    expect[key] = (expect.get(key, 0) + v) % rs.p
            acc = {k: v for k, v in acc.items() if v}
            expect = {k: v for k, v in expect.items() if v}
            assert acc == expect


def test_frozen_operator_residue_field_r2(r2):
    res = resolve_min(residue_field(r2), 6)
    lift_and_operators(res, 5)
    for mid in range(1, 6):
        assert [str(c) for c in operator_columns(res, 0, mid - 1)] == ["(1)"]


def test_frozen_operators_residue_field_r1(r1):
    res = resolve_min(residue_field(r1), 4)
    lift_and_operators(res, 3)
    assert [str(c) for c in operator_columns(res, 0, 0)] == ["(1)", "(0)", "(0)"]
    assert [str(c) for c in operator_columns(res, 1, 0)] == ["(0)", "(0)", "(1)"]


def test_zero_operator_on_annihilated_module(r1):
    # chi2 acts by zero on A/(x): the second relation never interacts
    pres = present_module(r1, (0,), [["x"]])
    res = resolve_min(pres, 6)
    lift_and_operators(res, 5)
    for mid in range(1, 6):
        assert all(c.is_zero() for c in operator_columns(res, 1, mid - 1))
        assert [str(c) for c in operator_columns(res, 0, mid - 1)] == ["(1)"]


def test_actions_commute_exactly(r3):
    ext = ext_k_module(resolve_min(residue_field(r3), 9), 8)
    p = r3.p
    for j1 in range(3):
        for j2 in range(j1 + 1, 3):
            for i in range(5):
                b = ext.dims[i + 4], ext.dims[i + 2]
                ab = dense(ext.act[j1][i + 2], b[0]) @ dense(ext.act[j2][i], b[1]) % p
                ba = dense(ext.act[j2][i + 2], b[0]) @ dense(ext.act[j1][i], b[1]) % p
                assert (ab == ba).all()


def test_monomial_window_matches_composition(r1):
    ext = ext_k_module(resolve_min(residue_field(r1), 9), 8)
    p = r1.p
    m = (1, 1)  # chi1 chi2
    for i in range(4):
        direct = dense(ext.monomial_window(m, i), ext.dims[i + 4])
        manual = dense(ext.act[1][i + 2], ext.dims[i + 4]) @ dense(ext.act[0][i], ext.dims[i + 2]) % p
        assert (direct == manual).all()
    with pytest.raises(InputError):
        ext.monomial_window((4, 1), 0)  # 0 + 2*5 > 8


# ---------------------------------------------------------------------------
# variety ideals


def test_variety_ideal_requires_homogeneous(r1):
    with pytest.raises(InputError):
        VarietyIdeal(r1.h_ring, ["chi1 + chi2^2"])


def test_variety_ideal_radical_semantics(r1):
    h = r1.h_ring
    a = VarietyIdeal(h, ["chi1^3"])
    b = VarietyIdeal(h, ["chi1"])
    assert a.equals(b)
    assert a.contains_variety(b) and b.contains_variety(a)
    assert not a.is_trivial()
    assert VarietyIdeal(h, ["chi1", "chi2"]).is_trivial()
    assert VarietyIdeal(h, []).dimension() == 2
    assert a.dimension() == 1


def test_radical_membership_tries_the_ideal_first(r1, monkeypatch):
    # chi1 is in the radical of (chi1^2) but not in the ideal: only the
    # Rabinowitsch fallback can answer, and it must answer True; chi2 is in
    # neither and stays out.  Members of the ideal itself never reach it.
    from civar import cohomology

    h = r1.h_ring
    square = VarietyIdeal(h, ["chi1^2"])
    calls = []
    real = cohomology.radical_membership

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(cohomology, "radical_membership", counted)
    assert square.contains_element("chi1") and calls == [h.parse("chi1")]
    assert not square.contains_element("chi2")
    assert VarietyIdeal(h, ["chi1"]).contains_variety(square)
    assert not VarietyIdeal(h, ["chi2"]).contains_variety(square)
    assert not square.is_trivial()
    calls.clear()
    assert square.contains_element("chi1^3 + 4*chi1^2*chi2")
    assert square.contains_variety(VarietyIdeal(h, ["chi1^2", "chi2"]))
    assert VarietyIdeal(h, ["chi1", "chi2^2"]).contains_element("chi2^2")
    assert square.contains_element("0")
    assert calls == []
    assert square.dimension() == 1 and VarietyIdeal(h, ["chi1", "chi2^2"]).dimension() == 0


def test_variety_union_intersect(r1):
    h = r1.h_ring
    a = VarietyIdeal(h, ["chi1"])
    b = VarietyIdeal(h, ["chi2"])
    u = a.union(b)
    assert u.equals(VarietyIdeal(h, ["chi1*chi2"]))
    i = a.intersect(b)
    assert i.is_trivial()
    # union with the full space is the other side
    full = VarietyIdeal(h, [])
    assert a.union(full).equals(full)
    assert a.intersect(full).equals(a)


def test_variety_contains_element(r1):
    # membership is up to radical
    h = r1.h_ring
    a = VarietyIdeal(h, ["chi1"])
    assert a.contains_element(h.parse("chi1^5"))
    assert a.contains_element("chi1")
    assert not a.contains_element(h.parse("chi2"))
    assert not a.contains_element(h.parse("chi1 + chi2"))


def test_variety_contains_element_refuses_another_ring(r1):
    """a over F_101[a,b] would be read as chi1 and found in V(chi1)."""
    a = VarietyIdeal(r1.h_ring, ["chi1"])
    with pytest.raises(InputError):
        a.contains_element(PolyRing(101, ("a", "b")).parse("a"))


# ---------------------------------------------------------------------------
# annihilator windows and stabilization


def test_annihilator_window_caps(r1):
    """The window bounds its own operator degrees by D = (N - g_N) / 2 and
    refuses a window with D < 1, naming N and g: E(k) over R1 has minimal
    H-generators up to degree 2, so N = 3 leaves no operator degree."""
    res = resolve_min(residue_field(r1), 9)
    ext = ext_k_module(res, 3)
    with pytest.raises(InputError) as exc:
        annihilator_window(ext)
    assert exc.value.details == {"steps": 3, "generator_degree": 2}
    assert "N = 3" in str(exc.value) and "g = 2" in str(exc.value)
    a = annihilator_window(ext.widen([res], 8))
    assert a.gens == ()  # k has zero annihilator


def test_annihilator_window_shrinks(r1):
    pres = present_module(r1, (0,), [["x + y"]])
    res = resolve_min(pres, 15)
    lo = annihilator_window(ext_k_module(res, 8))
    hi = annihilator_window(ext_k_module(res, 12))
    for g in hi.gens:
        assert lo.contains_element(g) or lo.gens == ()
    assert hi.equals(VarietyIdeal(r1.h_ring, ["chi1 + chi2"]))


def test_annihilator_window_matches_the_reference(corpus):
    """On every corpus module and every window N in 4..12, the degree loop
    gives the ideal of the plain one-nullspace-per-degree reference over
    d <= (N - g_N) / 2: the same reduced Groebner basis, whose degree-d part
    is K_d for every such d.  A window with no such d is refused."""
    for name, pres in corpus:
        res = resolve_min(pres, 12)
        for n in (4, 6, 8, 10, 12):
            ext = ext_k_module(res, n)
            top = (n - generator_degree(ext)) // 2
            if top < 1:
                with pytest.raises(InputError):
                    annihilator_window(ext)
                continue
            got = annihilator_window(ext).gens
            assert got == annihilator_reference(ext, top).gens, (name, n)


def test_annihilator_of_zero_module(r1):
    pres = present_module(r1, (), [])
    res = resolve_min(pres, 9)
    a = annihilator_window(ext_k_module(res, 8))
    assert a.is_trivial()


# ---------------------------------------------------------------------------
# complexity and support varieties


def test_complexity_values(r1, r2, r3, r4):
    assert complexity(residue_field(r1)) == 2
    assert complexity(residue_field(r2)) == 1
    assert complexity(residue_field(r3)) == 3
    assert complexity(residue_field(r4)) == 1
    assert complexity(present_module(r1, (0,), [["x"]])) == 1
    assert complexity(free_module(r1, (0, 1))) == 0


def test_complexity_refuses_short_windows(r1):
    # below 4 steps the differenced tail is too short: k over R1 has
    # complexity 2, yet 0 to 2 steps would read 1 and -1 steps 0
    k = residue_field(r1)
    for steps in (-1, 0, 1, 2, 3):
        with pytest.raises(InputError) as err:
            complexity(k, steps)
        assert err.value.details == {"steps": steps}
    assert complexity(k, 4) == 2


def test_support_variety_residue_field(r1, r2):
    v = support_variety(residue_field(r1))
    assert v.gens == () and v.dimension() == 2
    assert v.meta["stabilized_at"] >= 8
    v2 = support_variety(residue_field(r2))
    assert v2.gens == () and v2.dimension() == 1


def test_support_variety_reuses_the_wider_window(r3, monkeypatch):
    """A widening carries a_{N+2} over as the next a_N instead of computing
    that window again; the guard's complexity value lands in meta."""
    import civar.cohomology as cohomology

    windows = []
    real = cohomology.annihilator_window

    def counted(ext):
        windows.append(ext.steps)
        return real(ext)

    monkeypatch.setattr(cohomology, "annihilator_window", counted)
    v = support_variety(residue_field(r3), steps=4)
    # E(k) over R3 has minimal H-generators up to degree 3, so N = 4 leaves
    # no operator degree to test and its pair is rejected unbuilt
    assert windows == [6, 8]
    assert v.gens == ()
    # Tate: b_i = C(i + 2, 2) for k over three squares
    assert v.meta == {
        "stabilized_at": 6, "steps_used": 8, "complexity": 3, "generator_degree": 3,
        "betti": [1, 3, 6, 10, 15, 21, 28, 36, 45],
    }


def test_stabilization_error_names_the_rejecting_test(r1, monkeypatch):
    """R1 k's candidates agree (the whole plane), so a complexity estimate
    that never matches is what rejects them, and the error says so."""
    import civar.cohomology as cohomology

    monkeypatch.setattr(cohomology, "_betti_growth", lambda betti: 1)
    with pytest.raises(StabilizationError) as exc:
        support_variety(residue_field(r1))
    details = exc.value.details
    assert details["rejected"] == "complexity"
    assert (details["dim_lo"], details["dim_hi"], details["complexity"]) == (2, 2, 1)
    assert "complexity estimate is 1" in str(exc.value)


def test_support_variety_hypersurface_modules(r1):
    m1 = support_variety(present_module(r1, (0,), [["x"]]))
    assert m1.equals(VarietyIdeal(r1.h_ring, ["chi2"]))
    mxy = support_variety(present_module(r1, (0,), [["x+y"]]))
    assert mxy.equals(VarietyIdeal(r1.h_ring, ["chi1 + chi2"]))


def test_support_variety_free_is_trivial(r1):
    v = support_variety(free_module(r1, (0, 2)))
    assert v.is_trivial()
    assert v.dimension() == 0


def test_support_variety_syzygy_invariance_spot(r1):
    m = present_module(r1, (0,), [["y"]])
    v = support_variety(m)
    w = support_variety(syzygy_module(m, 1))
    assert v.equals(w)


def test_support_variety_min_steps_guard(r1):
    with pytest.raises(InputError):
        support_variety(residue_field(r1), steps=2)


def test_support_variety_reads_its_own_cache(r1, monkeypatch):
    """A second call with the same first window, the default filled in,
    returns the ideal kept on the presentation without computing a window;
    another first window is computed anew."""
    import civar.cohomology as cohomology

    windows = []
    real = cohomology.annihilator_window
    monkeypatch.setattr(
        cohomology, "annihilator_window", lambda ext: windows.append(ext.steps) or real(ext)
    )
    k = residue_field(r1)
    v = support_variety(k)
    assert windows == [8, 10]
    assert support_variety(k) is v and support_variety(k, steps=8) is v
    assert windows == [8, 10]
    w = support_variety(k, steps=10)
    assert windows == [8, 10, 10, 12]
    assert w is not v and w.equals(v) and w.meta["stabilized_at"] == 10


# ---------------------------------------------------------------------------
# modules whose E(M, k) needs H-generators above degree 0: a degree-d
# candidate is tested only up to E^{N-2d}, so the window must keep
# 2d <= N - g_N


def test_generator_counts_of_q_mod_xy(r1):
    ext = ext_k_module(resolve_min(present_module(r1, (0,), [["x*y"]]), 11), 10)
    assert generator_counts(ext)[:5] == [1, 1, 2, 1, 0]


def test_annihilator_window_cuts_at_every_generator_degree(r1, monkeypatch):
    """The windows are cut only where E has a minimal H-generator, and at
    every such degree, the top one g_N included; the reference cuts every
    window.  For M = Q^2 / (xy e1, x e1 + y e2), E has generators in
    degrees 0 to 4: every kernel degree of each window N is solved against
    exactly the cuts 0..4, and the ideal agrees with the reference at the
    bound (N - 4) / 2."""
    m = present_module(r1, (0, 0), [["x*y", "0"], ["x", "y"]])
    res = resolve_min(m, 11)
    assert generator_counts(ext_k_module(res, 10))[:6] == [2, 1, 1, 2, 1, 0]
    import civar.cohomology as cohomology

    real = cohomology._solve_degree
    solved = []

    def spy(ext, d, cuts, below):
        solved.append((d, cuts))
        return real(ext, d, cuts, below)

    monkeypatch.setattr(cohomology, "_solve_degree", spy)
    for n in (6, 8, 10):
        ext = ext_k_module(res, n)
        solved.clear()
        assert annihilator_window(ext).gens == annihilator_reference(ext, (n - 4) // 2).gens, n
        assert solved == [(d, (0, 1, 2, 3, 4)) for d in range(1, (n - 4) // 2 + 1)], n


def test_each_kernel_degree_is_solved_once_per_variety(r3, monkeypatch):
    """The windows N and N + 2 cut K_d at the same generator degrees for
    every d <= (N - g) / 2, so the wider window takes K_1..K_4 from the
    memo and solves only its new top degree."""
    import civar.cohomology as cohomology

    solved = []
    real = cohomology._solve_degree

    def counted(ext, d, cuts, below):
        solved.append((ext.steps, d, cuts))
        return real(ext, d, cuts, below)

    monkeypatch.setattr(cohomology, "_solve_degree", counted)
    v = support_variety(present_module(r3, (0,), [["x+y"]]))
    assert [str(g) for g in v.gens] == ["chi1 + chi2", "chi3"]
    # (x + y)(x - y) = 0 in R3, so the resolution is periodic of rank 1
    assert v.meta == {
        "stabilized_at": 10, "steps_used": 12, "complexity": 1, "generator_degree": 1,
        "betti": [1] * 13,
    }
    assert solved == [(10, d, (0, 1)) for d in (1, 2, 3, 4)] + [(12, 5, (0, 1))]


def test_each_action_of_e_is_built_once_per_variety(r3, monkeypatch):
    """chi_j: E^lo -> E^{lo+2} does not depend on the window, so the windows
    8, 10 and 12 read every action that a narrower one built and build only
    the ones they add."""
    import civar.cohomology as cohomology

    built = []
    real = cohomology.operator_columns

    def counted(res, j, lo):
        built.append((j, lo))
        return real(res, j, lo)

    monkeypatch.setattr(cohomology, "operator_columns", counted)
    v = support_variety(present_module(r3, (0,), [["x+y"]]))
    assert v.meta["steps_used"] == 12
    assert sorted(built) == [(j, lo) for j in range(3) for lo in range(11)]


# a line and a plane in chi-space over F_32003[x,y,z]/(x^2, y^2, z^2), three
# draws, each line meeting its plane only at the origin
LINES_AND_PLANES = [
    (
        ["19153*chi1 + 16506*chi2 + 23238*chi3", "4275*chi1 + 2783*chi2 + 16485*chi3"],
        ["2909*chi1 + 24476*chi2 + 5477*chi3"],
    ),
    (
        ["31760*chi1 + 10291*chi2 + 24692*chi3", "31115*chi1 + 2432*chi2 + 2730*chi3"],
        ["12502*chi1 + 4526*chi2 + 9652*chi3"],
    ),
    (
        ["19236*chi1 + 9934*chi2 + 7551*chi3", "15477*chi1 + 13641*chi2 + 18182*chi3"],
        ["228*chi1 + 21490*chi2 + 2876*chi3"],
    ),
]


def _sums(r1, r3):
    """(label, parts) for twelve sums of two modules."""
    a = RingSpec(32003, ["x", "y", "z"], ["x^2", "y^2", "z^2"])
    out = []
    for n, (line, plane) in enumerate(LINES_AND_PLANES, 1):
        m_line = realize(a, line, verify=False)
        out.append((f"A line+plane {n}", [m_line, realize(a, plane, verify=False)]))
        out.append((f"A line+line {n}", [m_line, realize(a, line, verify=False)]))
    for name, rs in (("R1", r1), ("R3", r3)):
        ax = present_module(rs, (0,), [["x"]])
        ay = present_module(rs, (0,), [["y"]])
        k = residue_field(rs)
        out.append((f"{name} k+A/(x)", [k, ax]))
        out.append((f"{name} A/(x)+A/(y)", [ax, ay]))
        out.append((f"{name} k+k", [k, residue_field(rs)]))
    return out


def _non_artinian_sums(r4):
    """(label, parts) for six sums over rings of positive dimension, one of
    them with no coordinate reduction, the last an object summed with
    itself."""
    b = RingSpec(101, ["x", "y", "z", "w"], ["x^2", "y^2", "z^2"])
    xy = RingSpec(101, ["x", "y"], ["x*y"])
    line = realize(b, ["chi1", "chi2"], verify=False)
    k = residue_field(b)
    return [
        ("B line+k", [line, k]),
        ("B plane+line", [realize(b, ["chi1 + chi2"], verify=False), line]),
        ("R4 k+A/(y)", [residue_field(r4), present_module(r4, (0,), [["y"]])]),
        ("R4 k+k", [residue_field(r4), residue_field(r4)]),
        ("XY k+A/(x)", [residue_field(xy), present_module(xy, (0,), [["x"]])]),
        ("B k+k", [k, k]),
    ]


def test_variety_of_a_sum_is_read_on_its_parts(r1, r3, r4):
    """E(M (+) N) = E(M) (+) E(N) as graded H-modules (Avramov-Buchweitz,
    Invent. Math. 2000), so the variety of a `direct_sum`, read on the
    summands' resolutions, is the one its own resolution gives, generators
    and meta both: the same windows, g, complexity and Betti numbers, and
    the same ideal.  The fresh copy records no summands and is resolved."""
    sums = _sums(r1, r3) + _non_artinian_sums(r4)
    assert len(sums) == 18
    for label, parts in sums:
        m = direct_sum(*parts)
        want = support_variety(ModulePresentation(m.rs, m.gens, m.relations))
        got = support_variety(m)
        assert (got.gens, got.meta) == (want.gens, want.meta), label
        assert m._resolution is None and support_variety(m) is got, label


def test_variety_of_q_mod_xy_is_the_plane(r1):
    # E has a generator in degree 3: a degree-N/2 candidate tested on E^0
    # alone passes for every monomial, and no window would be accepted
    v = support_variety(present_module(r1, (0,), [["x*y"]]))
    assert v.gens == () and v.dimension() == 2
    assert v.meta["generator_degree"] == 3


def test_variety_of_q_mod_x_over_r5_has_dimension_3():
    r5 = RingSpec(101, ["x", "y", "z"], ["x^2 + y*z", "y^2 + x*z", "z^2"])
    v = support_variety(present_module(r5, (0,), [["x"]]))
    assert v.gens == () and v.dimension() == 3
    assert v.meta["generator_degree"] == 4


def test_variety_of_a_sum_is_the_union_past_degree_0_generators(r3):
    # V(Q/(xy)) = V(chi3) and V(Q/(y,z)) = V(chi1) by Kunneth; candidates
    # of degree above (N - 3) / 2 pass on E^0..E^2 and cut V down to V(chi1)
    m = direct_sum(present_module(r3, (0,), [["x*y"]]), present_module(r3, (0,), [["y"], ["z"]]))
    v = support_variety(m)
    assert v.equals(VarietyIdeal(r3.h_ring, ["chi1*chi3"]))
    assert v.dimension() == 2
    assert v.meta["generator_degree"] == 3


def test_variety_of_a_plane_plus_a_line_keeps_both(r3):
    """M = Q/(x, y) + the realized chi3-axis, so V(M) is the plane chi3 = 0
    with the chi3-axis, cut out by chi1*chi3 and chi2^2*chi3.  Operators of
    degree at most 2 miss chi2^2*chi3 and give the two planes V(chi1*chi3),
    with the same dimension, complexity and N, so no guard would reject
    them; (0, 1, 1) lies on those planes and off V(M).  The point oracle
    settles three points."""
    line = realize(r3, ["chi1", "chi2^2"])
    m = direct_sum(present_module(r3, (0,), [["x"], ["y"]]), line)
    v = support_variety(m)
    assert v.equals(VarietyIdeal(r3.h_ring, ["chi1*chi3", "chi2^2*chi3"]))
    assert v.meta["generator_degree"] == 2
    for a, inside in (([0, 1, 1], False), ([0, 0, 1], True), ([1, 1, 0], True)):
        assert in_variety_by_projective_dimension(m, a) == inside == _vanishes(v.gens, a, r3.p), a


def test_stabilization_error_carries_the_generator_degrees(r3, monkeypatch):
    """A top generator degree that never settles (here g_N = N - 1) rejects
    every pair, up to the last pair (N_0 + 6, N_0 + 8), with no window
    built; the error carries that pair's generator degrees."""
    import civar.cohomology as cohomology

    monkeypatch.setattr(cohomology, "generator_degree", lambda ext: ext.steps - 1)
    monkeypatch.setattr(cohomology, "annihilator_window", None)
    with pytest.raises(StabilizationError) as exc:
        support_variety(residue_field(r3), steps=4)
    details = exc.value.details
    assert (details["rejected"], details["steps"]) == ("generators", 12)
    assert (details["generator_degree_lo"], details["generator_degree_hi"]) == (9, 11)
    assert "top generator degree is 9 at N = 10 and 11 at N = 12" in str(exc.value)


# ---------------------------------------------------------------------------
# the point oracle


# The F_p-linear components of V(M) for the R1 and R3 corpus modules, each
# given by the coefficient vectors of the linear forms that cut it out: []
# is all of k^c, and no component at all is V = {0}.  Worked out by hand
# over Q_a = P/(sum_j a_j x_j^2): V(k) and V(syz1(k)) are all of k^c, a
# free module has V = {0}, and Q/(l) for the linear forms l here has
# infinite projective dimension over Q_a exactly when l divides
# sum_j a_j x_j^2: when a_2 = a_3 = 0 for l = x, and when a is a multiple
# of (1, -1, 0) for l = x + y, as x^2 - y^2 = (x + y)(x - y).
CORPUS_COMPONENTS = {
    "R1 k": [[]],
    "R1 free": [],
    "R1 A/(x)": [[[0, 1]]],
    "R1 A/(y)": [[[1, 0]]],
    "R1 A/(x+y)": [[[1, 1]]],
    "R1 syz1(k)": [[]],
    "R3 k": [[]],
    "R3 A/(x)": [[[0, 1, 0], [0, 0, 1]]],
    "R3 A/(x+y)": [[[1, 1, 0], [0, 0, 1]]],
}


def _vanishes(gens, a, p) -> bool:
    """a is a zero of every polynomial in gens."""
    return all(
        sum(c * prod(pow(x, e, p) for x, e in zip(a, m)) for (_, m), c in g.terms.items()) % p == 0
        for g in gens
    )


def _basis(forms, rs):
    """A basis of the common zeros in F_p^c of linear forms."""
    if not forms:
        return [[int(i == j) for i in range(rs.codim)] for j in range(rs.codim)]
    return nullspace_reference(np.array(forms, dtype=np.int64), rs.p)


def _drawn_point(data, basis, p):
    """A nonzero point of the span of a linearly independent basis."""
    weights = st.lists(st.integers(0, p - 1), min_size=len(basis), max_size=len(basis))
    weights = data.draw(weights.filter(any))
    return [sum(w * b[j] for w, b in zip(weights, basis)) % p for j in range(len(basis[0]))]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_point_oracle_agrees_with_support_variety(corpus, r1, r3, data):
    """At drawn F_p-rational points a, a in V(M) read off the computed
    variety agrees with b_n^{Q_a}(M) != 0 (`helpers`), and with the known
    linear components of V.  Each example checks every R1 and R3 corpus
    module and one drawn realized module over R1 or R3: a linear cone, or a
    direct sum of two, whose V is the union of theirs.  One point is drawn
    on every F_p-linear component of V, and two at random, almost always
    off V."""
    shape = data.draw(
        st.sampled_from(["R1 line", "R3 plane", "R3 line", "R1 two lines", "R3 plane, line"])
    )
    rs = r1 if shape.startswith("R1") else r3
    form = st.lists(st.integers(0, rs.p - 1), min_size=rs.codim, max_size=rs.codim).filter(any)
    cuts = {"R1 line": [1], "R3 plane": [1], "R3 line": [2], "R1 two lines": [1, 1]}
    realized = []
    for count in cuts.get(shape, [1, 2]):
        forms = [data.draw(form) for _ in range(count)]
        assume(len(_basis(forms, rs)) == rs.codim - count)
        realized.append(forms)
    summands = [
        realize(rs, [linear_form(rs, f) for f in forms], verify=False) for forms in realized
    ]
    cases = [(dict(corpus)[name], components) for name, components in CORPUS_COMPONENTS.items()]
    cases.append((summands[0] if len(summands) == 1 else direct_sum(*summands), realized))
    for pres, components in cases:
        p, c = pres.rs.p, pres.rs.codim
        points = [(_drawn_point(data, _basis(forms, pres.rs), p), True) for forms in components]
        for _ in range(2):
            a = data.draw(st.lists(st.integers(0, p - 1), min_size=c, max_size=c).filter(any))
            on_v = any(
                all(sum(f * x for f, x in zip(form, a)) % p == 0 for form in forms)
                for forms in components
            )
            points.append((a, on_v))
        v = support_variety(pres)
        for a, on_v in points:
            computed = _vanishes(v.gens, a, p)
            why = (a, [str(g) for g in v.gens])
            assert in_variety_by_projective_dimension(pres, a) == computed, why
            assert computed == on_v, why
