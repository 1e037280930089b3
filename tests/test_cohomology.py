"""Operator extraction, the graded action on Ext against k, window
annihilators, and the stabilized support variety."""

import numpy as np
import pytest

from civar.arith import PolyRing, matmul
from civar.errors import InputError, StabilizationError
from civar.groebner import normal_form
from civar.cohomology import (
    VarietyIdeal,
    annihilator_window,
    complexity,
    ext_k_module,
    generator_counts,
    lift_and_operators,
    operator_columns,
    support_variety,
)
from civar.resolve import (
    RingSpec,
    direct_sum,
    free_module,
    present_module,
    residue_field,
    resolve_min,
    syzygy_module,
)

from helpers import annihilator_reference, seeded, times


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
                ab = matmul(ext.act[j1][i + 2], ext.act[j2][i], p)
                ba = matmul(ext.act[j2][i + 2], ext.act[j1][i], p)
                assert (ab == ba).all()


def test_monomial_window_matches_composition(r1):
    ext = ext_k_module(resolve_min(residue_field(r1), 9), 8)
    p = r1.p
    m = (1, 1)  # chi1 chi2
    for i in range(4):
        direct = ext.monomial_window(m, i)
        manual = matmul(ext.act[1][i + 2], ext.act[0][i], p)
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
    ext = ext_k_module(resolve_min(residue_field(r1), 9), 8)
    with pytest.raises(InputError):
        annihilator_window(ext, 0)
    with pytest.raises(InputError):
        annihilator_window(ext, 5)  # 5 > 8/2
    a = annihilator_window(ext, 2)
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
    """On every corpus module, every window N in 4..12 and every cap, the
    degree loop gives the ideal of the plain one-nullspace-per-degree
    reference: the same reduced Groebner basis."""
    for name, pres in corpus:
        res = resolve_min(pres, 12)
        for n in (4, 6, 8, 10, 12):
            ext = ext_k_module(res, n)
            for cap in range(1, n // 2 + 1):
                got = annihilator_window(ext, cap).gens
                assert got == annihilator_reference(ext, cap).gens, (name, n, cap)


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

    def counted(ext, max_op_degree=None):
        windows.append(ext.steps)
        return real(ext, max_op_degree)

    monkeypatch.setattr(cohomology, "annihilator_window", counted)
    v = support_variety(residue_field(r3), steps=4)
    # E(k) over R3 has minimal H-generators up to degree 3, so N = 4 leaves
    # no operator degree to test and its pair is rejected unbuilt
    assert windows == [6, 8]
    assert v.gens == ()
    assert v.meta == {"stabilized_at": 6, "steps_used": 8, "complexity": 3, "generator_degree": 3}


def test_stabilization_error_names_the_rejecting_test(r1, monkeypatch):
    """R1 k's candidates agree (the whole plane), so a complexity estimate
    that never matches is what rejects them, and the error says so."""
    import civar.cohomology as cohomology

    monkeypatch.setattr(cohomology, "complexity", lambda pres, steps=12: 1)
    with pytest.raises(StabilizationError) as exc:
        support_variety(residue_field(r1), max_steps=10)
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


def test_support_variety_rejects_a_step_cap_below_the_first_pair(r1):
    # the first pair of windows is (N, N + 2); a cap below N + 2 used to be
    # ignored, and R1 k came back accepted at N = 8 with steps_used 10
    with pytest.raises(InputError) as exc:
        support_variety(residue_field(r1), steps=8, max_steps=6)
    assert exc.value.details == {"steps": 8, "max_steps": 6}
    assert support_variety(residue_field(r1), steps=8, max_steps=10).meta["steps_used"] == 10


def test_support_variety_rejects_an_operator_cap_below_one(r1):
    # a cap of 0 leaves no operator degree to build the annihilator from
    for cap in (0, -1):
        with pytest.raises(InputError):
            support_variety(residue_field(r1), max_op_degree=cap)


# ---------------------------------------------------------------------------
# modules whose E(M, k) needs H-generators above degree 0: a degree-d
# candidate is tested only up to E^{N-2d}, so the window must keep
# 2d <= N - g_N


def test_generator_counts_of_q_mod_xy(r1):
    ext = ext_k_module(resolve_min(present_module(r1, (0,), [["x*y"]]), 11), 10)
    assert generator_counts(ext)[:5] == [1, 1, 2, 1, 0]


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


def test_stabilization_error_carries_the_generator_degrees(r3):
    # E(k) over R3 has H-generators up to degree 3: at N = 4 only one
    # generator-free degree lies above them, so the pair (4, 6) is rejected
    with pytest.raises(StabilizationError) as exc:
        support_variety(residue_field(r3), steps=4, max_steps=6)
    details = exc.value.details
    assert details["rejected"] == "generators"
    assert (details["generator_degree_lo"], details["generator_degree_hi"]) == (3, 3)
    assert "top generator degree is 3 at N = 4 and 3 at N = 6" in str(exc.value)
