"""Completion engine: reduced bases, cofactors, syzygies, ideal predicates.

Oracles live in helpers.py and use their own division loop with different
tie-breaking, so agreement is evidence rather than tautology.
"""

import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from civar.arith import DEGREVLEX, Poly, PolyRing
from civar.errors import InputError, ResourceBudgetError
from civar.groebner import (
    Budgets,
    FreeElt,
    SubmoduleOracle,
    configure_budgets,
    groebner_basis,
    ideal_dimension,
    ideal_ops,
    normal_form,
    radical_membership,
    syzygies,
)

from helpers import (
    brute_radical,
    buchberger_holds,
    component,
    naive_reduce,
    random_column,
    random_homogeneous,
    render_reference,
    seeded,
    times,
)


@pytest.fixture
def pxy():
    return PolyRing(101, ("x", "y"), DEGREVLEX)


def test_monomial_ideal_already_reduced(pxy):
    gb = groebner_basis([pxy.parse("x^2"), pxy.parse("y^2")])
    assert [str(e) for e in gb.elements] == ["(x^2)", "(y^2)"]


def test_frozen_basis_with_cofactors(pxy):
    gens = [pxy.parse("x^2 - y^2"), pxy.parse("x*y")]
    gb = groebner_basis(gens, cofactors=True)
    got = {str(component(e, 0)) for e in gb.elements}
    assert got == {"y^3", "x^2 + 100*y^2", "x*y"}
    # cofactor identity: every basis element recombines from the inputs
    for e, cof in zip(gb.elements, gb.cofactors):
        acc = pxy.zero()
        for c, g in zip(cof, gens):
            acc = acc + c * g
        assert acc == component(e, 0)


def test_reduced_property(pxy):
    gb = groebner_basis([pxy.parse("x^2 - y^2"), pxy.parse("x*y")])
    leads = [e.lead()[0] for e in gb.elements]
    for i, e in enumerate(gb.elements):
        assert e.lead()[1] == 1
        for (comp, mono), _c in e.terms.items():
            for j, (lc, lm) in enumerate(leads):
                if j == i:
                    continue
                from civar.arith import mono_div

                assert not (comp == lc and mono_div(mono, lm) is not None)


def test_normal_form_frozen_cofactors(pxy):
    gb = groebner_basis([pxy.parse("x^2"), pxy.parse("y^2")])
    rem, cofs = normal_form(pxy.parse("x^2*y^2"), gb)
    assert rem.is_zero()
    assert [str(c) for c in cofs] == ["y^2", "0"]
    low, cofs2 = normal_form(pxy.parse("x + y"), gb)
    assert str(component(low, 0)) == "x + y"
    assert all(c.is_zero() for c in cofs2)


def test_normal_form_identity_random(pxy):
    rng = seeded("nf-identity")
    gb = groebner_basis([pxy.parse("x^2 - y^2"), pxy.parse("x*y")])
    for _ in range(50):
        f = random_homogeneous(pxy, rng.randrange(1, 6), rng)
        rem, cofs = normal_form(f, gb)
        acc = component(rem, 0)
        for c, e in zip(cofs, gb.elements):
            acc = acc + c * component(e, 0)
        assert acc == f


def test_buchberger_criterion_random_ideals():
    rng = seeded("buchberger")
    ring = PolyRing(101, ("x", "y", "z"), DEGREVLEX)
    for _ in range(10):
        gens = [
            random_homogeneous(ring, rng.randrange(2, 4), rng)
            for _ in range(rng.randrange(2, 4))
        ]
        gb = groebner_basis(gens)
        assert buchberger_holds(gb)


def test_module_basis_and_criterion(pxy):
    rng = seeded("module-gb")
    shifts = (0, 1)
    for _ in range(6):
        gens = [random_column(pxy, shifts, rng.randrange(2, 4), rng) for _ in range(3)]
        gb = groebner_basis(gens)
        assert buchberger_holds(gb)
        # naive reducer agrees with the engine on membership
        for g in gens:
            assert naive_reduce(g, gb.elements).is_zero()


def test_module_division_matches_oracle(pxy):
    """Division on rank 2.  The remainder by a Groebner basis is unique, so
    it must equal the oracle's, which picks reducers the other way round;
    cofactors must rebuild each component exactly in plain polynomial
    arithmetic, for normal forms and for the basis itself."""
    rng = seeded("module-division")
    shifts = (0, 1)

    def combine(cofs, elts, r):
        acc = pxy.zero()
        for c, e in zip(cofs, elts):
            acc = acc + c * component(e, r)
        return acc

    for _ in range(6):
        gens = [random_column(pxy, shifts, rng.randrange(2, 4), rng) for _ in range(3)]
        gb = groebner_basis(gens, cofactors=True)
        for e, cof in zip(gb.elements, gb.cofactors):
            for r in range(2):
                assert combine(cof, gens, r) == component(e, r)
        members = [
            times(gens[0], random_homogeneous(pxy, 1, rng))
            + times(gens[1], random_homogeneous(pxy, 2, rng))
        ]
        samples = [random_column(pxy, shifts, rng.randrange(1, 5), rng) for _ in range(8)]
        for v in samples + members:
            rem, cofs = normal_form(v, gb)
            assert rem == naive_reduce(v, gb.elements)
            for r in range(2):
                assert component(rem, r) + combine(cofs, gb.elements, r) == component(v, r)
        assert all(normal_form(v, gb)[0].is_zero() for v in members)


def test_koszul_syzygy(pxy):
    syz = syzygies([pxy.parse("x"), pxy.parse("y")])
    assert [str(s) for s in syz] == ["(y, 100*x)"]


def test_syzygy_over_quotient():
    ring = PolyRing(101, ("x",), DEGREVLEX)
    syz = syzygies([ring.parse("x")], quotient=groebner_basis([ring.parse("x^2")]))
    assert [str(s) for s in syz] == ["(x)"]


def test_unit_generator_has_no_syzygies(pxy):
    quotient = groebner_basis([pxy.parse("x^2"), pxy.parse("y^2")])
    assert syzygies([pxy.one()], quotient=quotient) == []


def test_syzygies_kill_generators(pxy):
    rng = seeded("syz-kill")
    for _ in range(6):
        gens = [random_homogeneous(pxy, rng.randrange(1, 4), rng) for _ in range(3)]
        for s in syzygies(gens):
            acc = pxy.zero()
            for i in range(3):
                acc = acc + component(s, i) * gens[i]
            assert acc.is_zero()


def test_quotient_syzygies_kill_mod_f(pxy):
    rng = seeded("syz-quotient")
    qgb = groebner_basis([pxy.parse("x^2"), pxy.parse("y^2")])
    for _ in range(6):
        gens = [random_homogeneous(pxy, rng.randrange(1, 3), rng) for _ in range(2)]
        for s in syzygies(gens, quotient=qgb):
            acc = pxy.zero()
            for i in range(2):
                acc = acc + component(s, i) * gens[i]
            assert normal_form(acc, qgb)[0].is_zero()


def test_submodule_oracle(pxy):
    rng = seeded("oracle")
    gens = [pxy.parse("x^2 - y^2"), pxy.parse("x*y")]
    oracle = SubmoduleOracle(gens)
    for _ in range(20):
        f = random_homogeneous(pxy, rng.randrange(0, 3), rng)
        combo = f * gens[0] + gens[1].scale(rng.randrange(101))
        assert oracle.contains(combo)
    assert not oracle.contains(pxy.parse("x"))


def test_ideal_dimension_frozen(pxy):
    assert ideal_dimension([pxy.parse("x^2"), pxy.parse("y^2")]) == 0
    assert ideal_dimension([pxy.parse("y")]) == 1
    assert ideal_dimension([], pxy) == 2
    ring3 = PolyRing(101, ("a", "b", "c"), DEGREVLEX)
    assert ideal_dimension([], ring3) == 3
    assert ideal_dimension([pxy.one()]) == -1


def test_radical_membership_frozen(pxy):
    assert radical_membership(pxy.parse("x"), [pxy.parse("x^2")])
    assert not radical_membership(pxy.parse("y"), [pxy.parse("x^2")])
    assert radical_membership(pxy.parse("x + y"), [pxy.parse("x"), pxy.parse("y")])
    assert radical_membership(pxy.zero(), [pxy.parse("x^2")])


def test_radical_membership_refuses_another_ring(pxy):
    """Variables are read by position, so x over F_101[a,b] would be a."""
    other = PolyRing(101, ("a", "b"), DEGREVLEX)
    with pytest.raises(InputError):
        radical_membership(other.parse("a"), [pxy.parse("x")])
    with pytest.raises(InputError):
        radical_membership(pxy.parse("x"), [other.parse("a")])
    with pytest.raises(InputError):
        radical_membership(pxy.parse("x"), [pxy.parse("x")], other)


def test_radical_vs_brute_powering(pxy):
    rng = seeded("radical-brute")
    pools = [
        [pxy.parse("x^2"), pxy.parse("y^2")],
        [pxy.parse("x*y")],
        [pxy.parse("x^2 - y^2")],
        [pxy.parse("x^3")],
    ]
    for gens in pools:
        for _ in range(15):
            g = random_homogeneous(pxy, rng.randrange(1, 4), rng)
            assert radical_membership(g, gens) == brute_radical(g, gens, pxy)


def test_ideal_intersection_frozen(pxy):
    got = ideal_ops([pxy.parse("x")], [pxy.parse("y")], "intersection")
    assert [str(f) for f in got] == ["x*y"]


def test_ideal_ops_sum_product(pxy):
    s = ideal_ops([pxy.parse("x")], [pxy.parse("y")], "sum")
    assert {str(f) for f in s} == {"x", "y"}
    pr = ideal_ops([pxy.parse("x")], [pxy.parse("y")], "product")
    assert [str(f) for f in pr] == ["x*y"]
    assert ideal_ops([], [pxy.parse("y")], "product", pxy) == []
    with pytest.raises(InputError):
        ideal_ops([pxy.parse("x")], [pxy.parse("y")], "colon")


def test_intersection_respects_containment(pxy):
    rng = seeded("intersect")
    for _ in range(5):
        a = [random_homogeneous(pxy, 2, rng)]
        b = [random_homogeneous(pxy, rng.randrange(1, 3), rng)]
        both = ideal_ops(a, b, "intersection")
        gba = groebner_basis(a)
        gbb = groebner_basis(b)
        for f in both:
            assert gba.contains(f) and gbb.contains(f)


def test_budget_exhaustion_raises(pxy):
    gens = [pxy.parse("x^2 - y^2"), pxy.parse("x*y")]
    for budgets in (Budgets(max_pairs=50_000, max_degree=1), Budgets(max_pairs=0, max_degree=40)):
        prev = configure_budgets(budgets)
        try:
            with pytest.raises(ResourceBudgetError):
                groebner_basis(gens)
        finally:
            configure_budgets(prev)


def test_completion_budgets_name_budget_limit_and_degree(pxy):
    # x^2 - y^2, xy: the first pair has degree 3 and adds y^3, the next
    # pair has degree 4 and the one after degree 5
    gens = [pxy.parse("x^2 - y^2"), pxy.parse("x*y")]
    cases = (
        (Budgets(max_degree=3), {"budget": "max_degree", "limit": 3, "degree": 4, "pairs": 1}),
        (Budgets(max_pairs=2), {"budget": "max_pairs", "limit": 2, "degree": 5, "pairs": 2}),
    )
    for budgets, details in cases:
        prev = configure_budgets(budgets)
        try:
            with pytest.raises(ResourceBudgetError) as exc:
                groebner_basis(gens)
        finally:
            configure_budgets(prev)
        assert exc.value.details == details


def test_configure_budgets_scopes_defaults(pxy):
    gens = [pxy.parse("x^2 - y^2"), pxy.parse("x*y")]
    prev = configure_budgets(Budgets(max_pairs=50_000, max_degree=1))
    try:
        with pytest.raises(ResourceBudgetError):
            groebner_basis(gens)
    finally:
        configure_budgets(prev)
    groebner_basis(gens)  # restored


@pytest.mark.parametrize(
    "budgets",
    [
        (50_000, 40),  # a plain tuple equal to the defaults
        [50_000, 40],
        {"max_pairs": 50_000, "max_degree": 40},
        Budgets(max_pairs=-1),
        Budgets(max_degree=-1),
        Budgets(max_pairs=True),
        Budgets(max_degree=2.0),
        Budgets(max_pairs="100"),
        Budgets(max_pairs=None),
    ],
)
def test_configure_budgets_refuses_anything_but_budgets_of_integers(pxy, budgets):
    """A refused value raises InputError and leaves the setting as it
    was; the next completion still runs under the earlier budgets."""
    gens = [pxy.parse("x^2 - y^2"), pxy.parse("x*y")]
    prev = configure_budgets(Budgets(max_pairs=50_000, max_degree=1))
    try:
        with pytest.raises(InputError):
            configure_budgets(budgets)
        with pytest.raises(ResourceBudgetError):
            groebner_basis(gens)
    finally:
        configure_budgets(prev)
    assert configure_budgets(None) == Budgets()


def test_budgets_are_an_immutable_record():
    b = Budgets()
    assert repr(b) == "Budgets(max_pairs=50000, max_degree=40)"
    assert (b.max_pairs, b.max_degree) == (50_000, 40)
    assert Budgets(max_degree=5) == Budgets(50_000, 5) == (50_000, 5)
    assert b._replace(max_pairs=3).max_pairs == 3
    with pytest.raises(AttributeError):
        b.max_pairs = 1
    with pytest.raises(AttributeError):
        b.other = 1


def test_configured_budgets_stay_in_their_thread(pxy):
    gens = [pxy.parse("x^2 - y^2"), pxy.parse("x*y")]
    sizes = []
    prev = configure_budgets(Budgets(max_pairs=50_000, max_degree=1))
    try:
        worker = threading.Thread(target=lambda: sizes.append(len(groebner_basis(gens).elements)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        with pytest.raises(ResourceBudgetError):
            groebner_basis(gens)
    finally:
        configure_budgets(prev)
    assert sizes == [3]  # the other thread ran under the defaults


def test_quotient_must_be_an_ideal_basis(pxy):
    x, f = pxy.parse("x"), pxy.parse("x^2")
    with pytest.raises(InputError):
        syzygies([x], quotient=[f])
    with pytest.raises(InputError):
        SubmoduleOracle([x], quotient=[f])
    module_basis = groebner_basis([FreeElt.from_polys([f, pxy.zero()])])
    with pytest.raises(InputError):
        syzygies([x], quotient=module_basis)
    with pytest.raises(InputError):  # a basis over another ring
        syzygies([x], quotient=groebner_basis([PolyRing(103, ("x", "y"), DEGREVLEX).parse("x^2")]))


def test_inhomogeneous_generator_reported(pxy):
    with pytest.raises(InputError) as exc:
        groebner_basis([pxy.parse("x^2 + y")])
    assert "0" in str(exc.value)


def test_free_elt_mixed_shifts_rejected(pxy):
    a = FreeElt.from_polys([pxy.parse("x")], (0,))
    b = FreeElt.from_polys([pxy.parse("x")], (1,))
    with pytest.raises(InputError):
        groebner_basis([a, b])


def test_free_elt_arithmetic_rejects_mixed_shifts(pxy):
    a = FreeElt.from_polys([pxy.parse("x")], (0,))
    b = FreeElt.from_polys([pxy.parse("y")], (1,))
    with pytest.raises(InputError):
        a + b
    with pytest.raises(InputError):
        a - b
    assert a != FreeElt.from_polys([pxy.parse("x")], (1,))
    same = FreeElt.from_polys([pxy.parse("y")], (0,))
    assert (a + same).degree() == 1 and str(a - same) == "(x + 100*y)"


def test_non_elements_are_input_errors(pxy):
    gb = groebner_basis([pxy.parse("x^2")])
    oracle = SubmoduleOracle([pxy.parse("x")])
    for call in (
        lambda: groebner_basis(["x"]),
        lambda: syzygies(["x"]),
        lambda: normal_form("x", gb),
        lambda: SubmoduleOracle(["x"]),
        lambda: oracle.contains("x"),
    ):
        with pytest.raises(InputError):
            call()


def test_determinism_across_runs(pxy):
    rng = seeded("determinism")
    gens = [random_homogeneous(pxy, 3, rng) for _ in range(3)]
    one = groebner_basis(gens)
    two = groebner_basis(list(gens))
    assert [str(e) for e in one.elements] == [str(e) for e in two.elements]


PXYZ = PolyRing(101, ("x", "y", "z"), DEGREVLEX)


@st.composite
def free_elts(draw):
    """A FreeElt of rank 1..4 over F_101[x,y,z], terms in drawn order, so
    rows interleave and some stay empty."""
    rank = draw(st.integers(1, 4))
    key = st.tuples(st.integers(0, rank - 1), st.tuples(*[st.integers(0, 2)] * 3))
    items = draw(
        st.lists(st.tuples(key, st.integers(1, 100)), max_size=12, unique_by=lambda kv: kv[0])
    )
    return FreeElt(PXYZ, rank, dict(items))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(free_elts())
@example(FreeElt(PXYZ, 4, {}))
@example(FreeElt(PXYZ, 4, {(2, (0, 1, 0)): 3, (0, (1, 0, 0)): 1, (2, (2, 0, 0)): 5}))
def test_components_in_one_pass_match_the_row_by_row_reference(v):
    rows = v.components()
    assert rows == [component(v, c) for c in range(v.rank)]
    # same term order inside each row, not only the same dicts
    assert [list(f.terms) for f in rows] == [list(component(v, c).terms) for c in range(v.rank)]
    assert str(v) == render_reference(v)
