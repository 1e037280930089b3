"""Ring validation, presentations, minimal resolutions, duality tests, and
finite-length vector models."""

import numpy as np
import pytest

from civar.arith import PolyRing, matmul
from civar.errors import InputError, ResourceBudgetError
from civar.groebner import Budgets, FreeElt, configure_budgets, groebner_basis, normal_form
from civar.resolve import (
    ModulePresentation,
    RingSpec,
    direct_sum,
    free_module,
    hilbert_function,
    is_mcm,
    present_from_vector_model,
    present_module,
    prune_units,
    residue_field,
    resolve_min,
    syzygy_module,
    vector_model,
)
from civar.resolve import _offsets, _times_variables

from helpers import seeded, times


# ---------------------------------------------------------------------------
# ring validation


def test_ring_rejects_even_and_composite_characteristic():
    with pytest.raises(InputError):
        RingSpec(2, ["x"], ["x^2"])
    with pytest.raises(InputError):
        RingSpec(91, ["x"], ["x^2"])


def test_ring_rejects_bad_relations():
    with pytest.raises(InputError):
        RingSpec(101, ["x", "y"], ["x^2 + y"])  # inhomogeneous
    with pytest.raises(InputError):
        RingSpec(101, ["x", "y"], ["x"])  # degree 1
    with pytest.raises(InputError):
        RingSpec(101, ["x"], ["x^2", "x^3"])  # c > n
    with pytest.raises(InputError):
        RingSpec(101, ["x", "y"], [])  # c = 0


def test_ring_rejects_non_regular_sequence():
    # (x^2, x*y) cuts dimension only once
    with pytest.raises(InputError):
        RingSpec(101, ["x", "y"], ["x^2", "x*y"])


def test_ring_basic_facts(r1, r4):
    assert r1.codim == 2 and r1.dim == 0 and r1.is_artinian
    assert r4.codim == 1 and r4.dim == 1 and not r4.is_artinian
    assert tuple(r1.h_ring.vars) == ("chi1", "chi2")


def test_qnf_reduces_mod_relations(r1):
    assert r1.qnf(r1.ring.parse("x^2 + x*y")) == r1.ring.parse("x*y")
    assert r1.qnf(r1.ring.parse("y^2")).is_zero()


# ---------------------------------------------------------------------------
# presentations


def test_present_module_validates(r1):
    with pytest.raises(InputError) as exc:
        present_module(r1, (0,), [["x + 1"]])
    assert "homogeneous" in str(exc.value)
    with pytest.raises(InputError):
        present_module(r1, (0, 0), [["x"]])  # wrong entry count
    pres = present_module(r1, (0,), [["x^2"]])  # dies under qnf
    assert len(pres.relations) == 0


def test_present_module_refuses_a_column_over_another_ring(r1):
    """Terms are read by position: u + 102*v over F_103[u,v] would become
    the relation x + y over F_101[x,y]."""
    other = PolyRing(103, ("u", "v"))
    col = FreeElt.from_polys([other.parse("u + 102*v")], (0,))
    with pytest.raises(InputError) as exc:
        present_module(r1, (0,), [col])
    assert exc.value.details == {"index": 0}
    assert "F_103[u,v]" in str(exc.value)


def test_present_module_refuses_entries_over_another_ring(r1):
    """A polynomial entry over F_101[a,b] would leave the relation in that
    ring."""
    other = PolyRing(101, ("a", "b"))
    with pytest.raises(InputError) as exc:
        present_module(r1, (0, 0), [["x", "y"], ["y", other.parse("a")]])
    assert exc.value.details == {"index": 1}
    assert "entry 1 of relation 1" in str(exc.value)


@pytest.mark.parametrize("entry", [3, 1.5, None])
def test_present_module_refuses_entries_that_are_not_polynomials(r1, entry):
    with pytest.raises(InputError) as exc:
        present_module(r1, (0,), [[entry]])
    assert exc.value.details == {"index": 0}
    assert "not a polynomial over" in str(exc.value)


@pytest.mark.parametrize("degrees", [[0.7], [1.9], [True], [0, 2.0]])
def test_generator_degrees_must_be_integers(r1, degrees):
    """int() would truncate 0.7 and 1.9 and read True as 1."""
    bad = len(degrees) - 1
    for build in (
        lambda: present_module(r1, degrees, [["x"] * len(degrees)]),
        lambda: free_module(r1, degrees),
    ):
        with pytest.raises(InputError) as exc:
            build()
        assert exc.value.details == {"index": bad}
        assert f"generator degree {bad} " in str(exc.value)
    gens = free_module(r1, [np.int64(2), 3]).gens
    assert gens == (2, 3) and all(type(d) is int for d in gens)


def test_present_module_mixed_gen_degrees(r1):
    pres = present_module(r1, (1, 2), [["x", "1"], ["y", "0"]])
    assert pres.rank == 2
    assert all(col.is_homogeneous() for col in pres.relations)


def test_prune_units_collapses(r1):
    pres = present_module(r1, (1, 2), [["x", "1"], ["y", "0"]])
    pruned = prune_units(pres)
    assert pruned.gens == (1,)
    assert [str(c) for c in pruned.relations] == ["(y)"]


def test_prune_units_zero_module(r1):
    pres = present_module(r1, (0,), [["1"]])
    pruned = prune_units(pres)
    assert pruned.rank == 0
    assert pruned.is_zero_presentation()


# ---------------------------------------------------------------------------
# resolutions


def test_betti_residue_field_r1(r1):
    res = resolve_min(residue_field(r1), 8)
    assert [len(res.degs[i]) for i in range(9)] == list(range(1, 10))


def test_betti_residue_field_r3(r3):
    res = resolve_min(residue_field(r3), 6)
    # binomial(i + 2, 2)
    assert [len(res.degs[i]) for i in range(7)] == [1, 3, 6, 10, 15, 21, 28]


def test_betti_residue_field_r4(r4):
    res = resolve_min(residue_field(r4), 6)
    assert [len(res.degs[i]) for i in range(7)] == [1, 2, 2, 2, 2, 2, 2]


def test_finite_free_resolution_over_r4(r4):
    pres = present_module(r4, (0,), [["y"]])
    res = resolve_min(pres, 5)
    assert [len(res.degs[i]) for i in range(6)] == [1, 1, 0, 0, 0, 0]


def test_differentials_compose_to_zero(r1, r3):
    for rs, steps in ((r1, 6), (r3, 5)):
        res = resolve_min(residue_field(rs), steps)
        for i in range(1, steps):
            hi = res.diffs[i + 1]
            lo = res.diffs[i]
            for col in hi:
                acc = FreeElt(rs.ring, len(res.degs[i - 1]), {}, res.degs[i - 1])
                for r, f in enumerate(col.components()):
                    if not f.is_zero():
                        acc = acc + times(lo[r], f)
                if acc.terms:
                    acc = rs.qnf_elt(acc)
                assert acc.is_zero()


def test_degreewise_budgets_name_budget_step_and_degree(r1):
    # k over R1: step 2 forms 4 products x^m * column in degree 2, and
    # step 5 (F_4 in degree 4) reaches degree 4 + 2 = 6
    cases = (
        (Budgets(max_pairs=3), {"budget": "max_pairs", "limit": 3, "step": 2, "degree": 2, "products": 4}),
        (Budgets(max_degree=5), {"budget": "max_degree", "limit": 5, "step": 5, "degree": 6}),
    )
    for budgets, details in cases:
        prev = configure_budgets(budgets)
        try:
            with pytest.raises(ResourceBudgetError) as exc:
                resolve_min(residue_field(r1), 8)
        finally:
            configure_budgets(prev)
        assert exc.value.details == details


def test_products_by_the_variables_do_not_overflow():
    # over F_(2^31-1)[x,y,z]/(x^2+2yz+3z^2, y^2+5xz+7xy, z^2+xy) three
    # products x_v * m of degree 2 reduce onto the one socle monomial, with
    # coefficients near p; on vectors of all-(p-1) entries each product is
    # near 2^62, and the sum of the unreduced three passes 2^63
    p = 2147483647
    rs = RingSpec(p, ["x", "y", "z"], ["x^2 + 2*y*z + 3*z^2", "y^2 + 5*x*z + 7*x*y", "z^2 + x*y"])
    for t in range(1, rs.socle_degree + 1):
        below_at, below_width = _offsets(rs, (0,), t - 1)
        at, width = _offsets(rs, (0,), t)
        basis = np.full((2, below_width), p - 1, dtype=np.int64)
        got = np.mod(_times_variables(rs, basis, (0,), t, below_at, at, width), p)
        want = [[0] * width for _ in range(2 * rs.ring.nvars)]
        for src, var, pos, cf in zip(*(x.tolist() for x in rs.variable_action(t - 1))):
            for w in range(2):
                want[w * rs.ring.nvars + var][pos] += (p - 1) * cf
        assert got.tolist() == [[x % p for x in row] for row in want], t


def test_resolution_is_minimal(r1, r3):
    for rs in (r1, r3):
        res = resolve_min(residue_field(rs), 6)
        for i in range(1, 7):
            for col in res.diffs[i]:
                for (_comp, mono), _c in col.terms.items():
                    assert sum(mono) > 0  # no unit entries anywhere


def test_free_module_resolves_trivially(r1):
    res = resolve_min(free_module(r1, (0, 3)), 4)
    assert [len(res.degs[i]) for i in range(5)] == [2, 0, 0, 0, 0]


def test_syzygy_module_shifts_degrees(r1):
    om1 = syzygy_module(residue_field(r1), 1)
    assert om1.gens == (1, 1)
    om0 = syzygy_module(residue_field(r1), 0)
    assert om0.gens == (0,)


def test_resolution_degree_vectors_grow(r3):
    res = resolve_min(residue_field(r3), 5)
    for i in range(1, 6):
        assert all(d == i for d in res.degs[i])


# ---------------------------------------------------------------------------
# depth test


def test_is_mcm_artinian_always(r1):
    assert is_mcm(residue_field(r1))
    assert is_mcm(free_module(r1, (0,)))


def test_is_mcm_positive_dimension(r4):
    k = residue_field(r4)
    assert not is_mcm(k)
    assert is_mcm(syzygy_module(k, 1))
    assert is_mcm(free_module(r4, (0, 2)))


# ---------------------------------------------------------------------------
# vector models


def test_vector_model_dimensions(r1):
    assert vector_model(free_module(r1, (0,))).dim == 4
    assert vector_model(residue_field(r1)).dim == 1
    m1 = vector_model(present_module(r1, (0,), [["x"]]))
    assert m1.dim == 2
    assert list(m1.degs) == [0, 1]


def test_vector_model_requires_finite_length(r4):
    # k itself has finite length over any ring; the free module does not
    assert vector_model(residue_field(r4)).dim == 1
    with pytest.raises(InputError):
        vector_model(free_module(r4, (0,)))


def test_vector_model_actions_satisfy_ring_relations(r1, r3):
    rng = seeded("vm-relations")
    for rs in (r1, r3):
        pres = present_module(rs, (0,), [[str(rs.ring.gen(0))]])
        vm = vector_model(pres)
        for mat in vm.actions:
            sq = matmul(mat, mat, rs.p)
            assert not sq.any()  # every generator squares to zero in these rings
        # actions commute
        for i in range(len(vm.actions)):
            for j in range(i + 1, len(vm.actions)):
                ab = matmul(vm.actions[i], vm.actions[j], rs.p)
                ba = matmul(vm.actions[j], vm.actions[i], rs.p)
                assert (ab == ba).all()


def test_hilbert_function_matches_model(r1):
    for pres in (residue_field(r1), present_module(r1, (0,), [["x"]]), free_module(r1, (0, 1))):
        vm = vector_model(pres)
        top = int(max(vm.degs)) if vm.dim else -1
        for d in range(top + 2):
            assert hilbert_function(pres, d) == int((vm.degs == d).sum())


def test_hilbert_function_nonartinian(r4):
    k = residue_field(r4)
    assert hilbert_function(k, 0) == 1
    assert hilbert_function(k, 1) == 0
    # the ring itself: 1, 2, 2, 2, ...
    a = free_module(r4, (0,))
    assert [hilbert_function(a, d) for d in range(4)] == [1, 2, 2, 2]


def test_present_from_vector_model_round_trip(r1):
    rng = seeded("model-roundtrip")
    for pres in (
        residue_field(r1),
        present_module(r1, (0,), [["x"]]),
        present_module(r1, (0, 0), [["x", "0"], ["0", "y"]]),
    ):
        vm = vector_model(pres)
        back = present_from_vector_model(r1, vm.degs, vm.actions)
        r_orig = resolve_min(pres, 4)
        r_back = resolve_min(back, 4)
        assert [len(r_orig.degs[i]) for i in range(5)] == [
            len(r_back.degs[i]) for i in range(5)
        ]
        assert vector_model(back).dim == vm.dim


def test_direct_sum_adds_everything(r1):
    a = present_module(r1, (0,), [["x"]])
    b = residue_field(r1)
    s = direct_sum(a, b)
    assert s.gens == (0, 0)
    assert vector_model(s).dim == vector_model(a).dim + vector_model(b).dim
    ra, rb, rsum = resolve_min(a, 4), resolve_min(b, 4), resolve_min(s, 4)
    for i in range(5):
        assert len(rsum.degs[i]) == len(ra.degs[i]) + len(rb.degs[i])
