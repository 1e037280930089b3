"""Ring validation, presentations, minimal resolutions, duality tests, and
finite-length vector models."""

import numpy as np
import pytest

from civar.arith import PolyRing
from civar.cohomology import complexity, support_variety
from civar.construct import decompose
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
from civar.resolve import _offsets, _variable_products

from helpers import dense, seeded, times


# ---------------------------------------------------------------------------
# ring validation


def test_ring_rejects_even_and_composite_characteristic():
    with pytest.raises(InputError):
        RingSpec(2, ["x"], ["x^2"])
    with pytest.raises(InputError):
        RingSpec(91, ["x"], ["x^2"])


def test_ring_refuses_a_characteristic_that_is_not_an_integer():
    """A string, a float or a bool is refused for its type, before the prime
    test could call it "not an odd prime" (101 is one)."""
    for p, shown in (("101", "str '101'"), (101.0, "float 101.0"), (True, "bool True")):
        with pytest.raises(InputError) as exc:
            RingSpec(p, ["x"], ["x^2"])
        assert str(exc.value) == f"p must be an integer, got {shown}"


def test_ring_rejects_bad_relations():
    with pytest.raises(InputError):
        RingSpec(101, ["x", "y"], ["x^2 + y"])  # inhomogeneous
    with pytest.raises(InputError):
        RingSpec(101, ["x", "y"], ["x"])  # degree 1
    with pytest.raises(InputError):
        RingSpec(101, ["x"], ["x^2", "x^3"])  # c > n
    with pytest.raises(InputError):
        RingSpec(101, ["x", "y"], [])  # c = 0


def test_ring_names_a_zero_relation():
    """A zero relation is reported as zero, not as inhomogeneous."""
    for ci in (["x^2", "0"], ["x^2", "y^2 - y^2"]):
        with pytest.raises(InputError) as exc:
            RingSpec(101, ["x", "y"], ci)
        assert str(exc.value) == "relation 1 is zero"
        assert exc.value.details == {"index": 1}


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


# every library count, given as a float, a string or a bool, which once
# raised a bare TypeError, was compared with a number or ran: (test id,
# call, the message's head)
COUNTS = [
    ("variety-float", lambda m: support_variety(m, steps=8.5), "steps is 8.5"),
    ("variety-str", lambda m: support_variety(m, steps="8"), "steps is '8'"),
    ("variety-bool", lambda m: support_variety(m, steps=True), "steps is True"),
    ("complexity-float", lambda m: complexity(m, 6.5), "steps is 6.5"),
    ("syzygy-float", lambda m: syzygy_module(m, 1.5), "syzygy index is 1.5"),
    ("decompose-float", lambda m: decompose(m, attempts=2.5), "attempts is 2.5"),
    ("resolve-float", lambda m: resolve_min(m, 2.5), "steps is 2.5"),
    ("resolve-bool", lambda m: resolve_min(m, True), "steps is True"),
]


@pytest.mark.parametrize("call, named", [c[1:] for c in COUNTS], ids=[c[0] for c in COUNTS])
def test_counts_must_be_integers(r1, call, named):
    """Refused as InputError before any work starts."""
    m = direct_sum(present_module(r1, (0,), [["x"]]), present_module(r1, (0,), [["y"]]))
    with pytest.raises(InputError) as exc:
        call(m)
    assert str(exc.value) == named + ", not an integer"
    assert m._resolution is None


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
    assert pruned.gens == () and not pruned.relations


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
    # coefficients near p; on rows of all-(p-1) entries each product is
    # near 2^62, so the sums must come out reduced mod p, zeros dropped,
    # as the plain Python-integer sums of every product, rows that sum to
    # zero left out
    p = 2147483647
    rs = RingSpec(p, ["x", "y", "z"], ["x^2 + 2*y*z + 3*z^2", "y^2 + 5*x*z + 7*x*y", "z^2 + x*y"])
    n = rs.ring.nvars
    for t in range(1, rs.socle_degree + 1):
        _below_at, below_width = _offsets(rs, (0,), t - 1)
        at, _width = _offsets(rs, (0,), t)
        basis = [{c: p - 1 for c in range(below_width)} for _ in range(2)]
        got = _variable_products(rs, basis, (0,), t, at)
        want = [{} for _ in range(2 * n)]
        for src, groups in enumerate(rs.variable_action(t - 1)):
            for var, products in groups:
                for pos, cf in products:
                    for w in range(2):
                        row = want[w * n + var]
                        row[pos] = row.get(pos, 0) + basis[w][src] * cf
        want = [{k: x % p for k, x in row.items() if x % p} for row in want]
        assert got == [row for row in want if row], t
        assert all(0 < x < p for row in got for x in row.values()), t


# R5's products x_v * m of standard monomials are single terms; in TRI's,
# x * x = -yz - z^2 has two, so only over TRI does a product row per term,
# not per variable, differ from the right one
R5 = RingSpec(101, ["x", "y", "z"], ["x^2 + y*z", "y^2 + x*z", "z^2"])
TRI = RingSpec(101, ["x", "y", "z"], ["x^2 + y*z + z^2", "y^2 + x*z", "z^2 + x*y"])


def products_reference(rs, basis, shifts, t, at):
    """The nonzero rows x_v * w, (w, v) in order, as plain Python-integer
    sums over `variable_action`, reduced mod p at the end."""
    below_at, _width = _offsets(rs, shifts, t - 1)
    out = []
    for w in basis:
        sums = [{} for _ in range(rs.ring.nvars)]
        for j, e in enumerate(shifts):
            for src, groups in enumerate(rs.variable_action(t - 1 - e)):
                a = w.get(below_at[j] + src, 0)
                for v, products in groups:
                    for pos, cf in products:
                        k = at[j] + pos
                        sums[v][k] = sums[v].get(k, 0) + a * cf
        out += [row for x in sums if (row := {k: y % rs.p for k, y in x.items() if y % rs.p})]
    return out


@pytest.mark.parametrize("rs", [R5, TRI], ids=["R5", "TRI"])
def test_products_by_the_variables_match_the_reference(rs):
    """Rows of one entry at every position, rows of several, and, where two
    positions have one-term products by the same variable onto one
    position, a row whose product by that variable cancels."""
    rng = seeded("products by the variables")
    p = rs.p
    shifts = (0, 1)
    cancelling = 0
    for t in range(1, rs.socle_degree + 2):
        below_at, below_width = _offsets(rs, shifts, t - 1)
        at, _width = _offsets(rs, shifts, t)
        basis = [{c: rng.randrange(1, p)} for c in range(below_width)]
        basis += [
            {c: rng.randrange(1, p) for c in rng.sample(range(below_width), min(size, below_width))}
            for size in (2, 3, below_width)
        ]
        onto = {}
        for src, groups in enumerate(rs.variable_action(t - 1)):
            for v, products in groups:
                if len(products) == 1:
                    onto.setdefault((v, products[0][0]), []).append((src, products[0][1]))
        for (v, _pos), srcs in sorted(onto.items()):
            if len(srcs) > 1:
                (c1, f1), (c2, f2) = srcs[:2]
                basis.append({c1: f2, c2: p - f1})
                cancelling += 1
        got = _variable_products(rs, basis, shifts, t, at)
        assert got == products_reference(rs, basis, shifts, t, at), t
    assert cancelling > 0 or rs is R5  # R5 has no such pair


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
        mats = [dense(cols, vm.dim) for cols in vm.actions]
        for mat in mats:
            assert not (mat @ mat % rs.p).any()  # every generator squares to zero in these rings
        # actions commute
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert (mats[i] @ mats[j] % rs.p == mats[j] @ mats[i] % rs.p).all()


def test_hilbert_function_matches_model(r1):
    for pres in (residue_field(r1), present_module(r1, (0,), [["x"]]), free_module(r1, (0, 1))):
        vm = vector_model(pres)
        top = max(vm.degs) if vm.dim else -1
        for d in range(top + 2):
            assert hilbert_function(pres, d) == vm.degs.count(d)


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
