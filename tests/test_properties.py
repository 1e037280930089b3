"""Property tests against independent oracles, on rings whose relations are
not monomials.

Every corpus ring has monomial relations, so there the normal form of a
monomial modulo (f) is the monomial itself or 0, and a wrong normal-form
table could still pass the corpus.  Here the table of `RingSpec.ci_gb` is
checked against full division (`normal_form`) and against the
last-match reducer of `helpers.naive_reduce`, on
R5 = F_101[x,y,z]/(x^2+yz, y^2+xz, z^2), on the one-dimensional
F_101[x,y,z]/(x^2+yz, y^2+xz), on a one-dimensional ring with trinomial
relations, and on F_101[x,y]/(x^2+y^2, xy), whose reduced basis of (f) has
three elements for two relations.  Tate's formula is checked on drawn
regular sequences, and two properties of support varieties (Avramov 1989)
on that last ring.  The operators t_j = NF(u_j), from the lift
d~d~ = sum_j f_j u_j, are checked to be chain maps over Q on these rings and
on F_101[x,y,z]/(z^2, 3y^2, x^2+yz), whose relations are not their own
reduced basis.  `minimal_columns` and `prune_units` are checked against the
plain references in `helpers` on R5, the one-dimensional ring and
B = F_101[x,y,z,w]/(x^2, y^2, z^2).  The window annihilator is checked on
E = H/I for drawn homogeneous ideals I of H, where it must be I itself up
to the operator degree cap.  Hypothesis runs derandomized with few
examples, so these stay fast and reproducible.
"""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from civar.arith import Poly, PolyRing
from civar import construct
from civar.cohomology import (
    VarietyIdeal, annihilator_window, generator_counts, lift_and_operators, support_variety,
)
from civar.errors import InputError, InternalError
from civar.groebner import (
    FreeElt,
    GroebnerBasis,
    SubmoduleOracle,
    groebner_basis,
    normal_form,
    syzygies,
)
from civar.resolve import (
    RingSpec,
    apply_columns,
    direct_sum,
    hilbert_function,
    minimal_columns,
    present_module,
    prune_units,
    residue_field,
    resolve_min,
    syzygy_module,
)
from civar.resolve import Resolution, kernel_generators

from helpers import (
    annihilator_reference,
    component,
    kernel_generators_reference,
    minimal_columns_reference,
    naive_reduce,
    operators_reference,
    prune_units_reference,
    quotient_ext,
    random_column,
    rref_reference,
    shifted_quotients,
    times,
)

PROPS = settings(derandomize=True, max_examples=25, deadline=None)

R5 = RingSpec(101, ["x", "y", "z"], ["x^2 + y*z", "y^2 + x*z", "z^2"])
DIM1 = RingSpec(101, ["x", "y", "z"], ["x^2 + y*z", "y^2 + x*z"])
# binomial relations still give one-term normal forms of monomials; these
# trinomials give many-term ones (60 monomials of degree <= 6)
DENSE = RingSpec(101, ["x", "y", "z"], ["x^2 + 2*y*z + 3*z^2", "y^2 + 5*x*z + 7*x*y"])
# reduced basis y^3, x^2 + y^2, xy: larger than the regular sequence
WIDE = RingSpec(101, ["x", "y"], ["x^2 + y^2", "x*y"])
RINGS = pytest.mark.parametrize("rs", [R5, DIM1, DENSE, WIDE], ids=["R5", "dim1", "dense", "wide"])
# reduced basis z^2, y^2, x^2 + yz: not the relations themselves
UNREDUCED = RingSpec(101, ["x", "y", "z"], ["z^2", "3*y^2", "x^2 + y*z"])


@st.composite
def homogeneous(draw, ring, degree=None, nonzero_coeffs=False):
    """A homogeneous polynomial of the given degree (drawn in 0..6 when
    None), sparse or, with nonzero_coeffs, with every monomial present."""
    if degree is None:
        degree = draw(st.integers(0, 6))
    monos = ring.monomials_of_degree(degree)
    low = 1 if nonzero_coeffs else 0
    coeffs = draw(st.lists(st.integers(low, ring.p - 1), min_size=len(monos), max_size=len(monos)))
    return ring.poly(dict(zip(monos, coeffs)))


def oracle_nf(rs, f):
    return component(normal_form(f, rs.ci_gb)[0], 0)


# ---------------------------------------------------------------------------
# the normal-form table against full division


@RINGS
@PROPS
@given(data=st.data())
def test_qnf_matches_division(rs, data):
    f = data.draw(homogeneous(rs.ring))
    got = rs.qnf(f)
    assert got == oracle_nf(rs, f)
    assert got == component(naive_reduce(FreeElt.from_polys([f]), rs.ci_gb.elements), 0)


@RINGS
@PROPS
@given(data=st.data())
def test_qnf_is_linear_and_idempotent(rs, data):
    d = data.draw(st.integers(0, 6))
    f = data.draw(homogeneous(rs.ring, d))
    g = data.draw(homogeneous(rs.ring, d))
    c = data.draw(st.integers(0, rs.p - 1))
    assert rs.qnf(f + g.scale(c)) == rs.qnf(f) + rs.qnf(g).scale(c)
    assert rs.qnf(rs.qnf(f)) == rs.qnf(f)


@RINGS
@PROPS
@given(data=st.data())
def test_qnf_elt_is_componentwise(rs, data):
    d = data.draw(st.integers(1, 6))
    f = data.draw(homogeneous(rs.ring, d))
    g = data.draw(homogeneous(rs.ring, d - 1))
    v = FreeElt.from_polys([f, g], (0, 1))
    want = FreeElt.from_polys([oracle_nf(rs, f), oracle_nf(rs, g)], (0, 1))
    got = rs.qnf_elt(v)
    assert got == want
    assert got.shifts == v.shifts


@RINGS
@PROPS
@given(data=st.data())
def test_lift_terms_reproduces_the_input(rs, data):
    f = data.draw(homogeneous(rs.ring))
    u = rs.ci_gb.lift_terms(f.terms)
    combo = rs.qnf(f)
    for fj, uj in zip(rs.ci, u):
        combo = combo + fj * Poly(rs.ring, uj)
    assert combo == f


def test_lift_terms_needs_cofactors():
    gb = groebner_basis(list(R5.ci))
    with pytest.raises(InputError):
        gb.lift_terms({(0, (2, 0, 0)): 1})


@RINGS
@settings(PROPS, max_examples=15)
@given(seed=st.integers(0, 10**6), ncols=st.integers(1, 3))
def test_syzygies_vanish_modulo_f(rs, seed, ncols):
    rng = random.Random(seed)
    shifts = (0, 1)
    cols = [random_column(rs.ring, shifts, rng.randint(1, 2), rng) for _ in range(ncols)]
    for s in syzygies(cols, quotient=rs.ci_gb):
        combo = apply_columns(cols, s, len(shifts), shifts)
        for comp in combo.components():
            assert oracle_nf(rs, comp).is_zero()


# ---------------------------------------------------------------------------
# Tate's formula: over a CI with every f_i in m^2, the Poincare series of k
# is (1+t)^n / (1-t^2)^c


def tate_coefficients(n: int, c: int, steps: int):
    series = [1] + [0] * steps
    for _ in range(n):  # times (1 + t)
        series = [a + (series[i - 1] if i else 0) for i, a in enumerate(series)]
    for _ in range(c):  # divided by (1 - t^2)
        for i in range(2, steps + 1):
            series[i] += series[i - 2]
    return series


@pytest.mark.parametrize(
    "variables, ci, want",
    [
        (["x", "y", "z"], ["x^2 + y*z", "y^2 + x*z"], [1, 3, 5, 7, 9, 11]),
        (["x", "y", "z", "w"], ["x^2 + y*z", "y^2 + z*w"], [1, 4, 8, 12, 16, 20]),
        (["x", "y"], ["x^2 + y^2", "x*y"], [1, 2, 3, 4, 5, 6]),
    ],
)
def test_tate_pinned(variables, ci, want):
    assert tate_coefficients(len(variables), len(ci), 5) == want
    rs = RingSpec(101, variables, ci)
    assert resolve_min(residue_field(rs), 5).betti_sequence(5) == want


@settings(PROPS, max_examples=10)
@given(data=st.data())
def test_tate_on_drawn_regular_sequences(data):
    ring = PolyRing(32003, ("x", "y", "z"))
    c = data.draw(st.integers(1, 3))
    ci = [data.draw(homogeneous(ring, data.draw(st.integers(2, 3)), nonzero_coeffs=True)) for _ in range(c)]
    try:
        rs = RingSpec(32003, ring.vars, ci)
    except InputError:
        assume(False)
    assert resolve_min(residue_field(rs), 5).betti_sequence(5) == tate_coefficients(3, c, 5)


# ---------------------------------------------------------------------------
# the degreewise resolution over artinian Q against the Groebner path


def groebner_resolution(pres, steps):
    """Generator degrees of F_0..F_steps as the Groebner path computes them:
    `syzygies` over Q, then `minimal_columns`, called directly."""
    rs = pres.rs
    pruned = prune_units(pres)
    cols = minimal_columns(rs, pruned.relations, pruned.gens)
    degs = [tuple(pruned.gens), tuple(c.degree() for c in cols)]
    while len(degs) <= steps:
        cols = minimal_columns(rs, syzygies(cols, quotient=rs.ci_gb), degs[-1]) if cols else []
        degs.append(tuple(c.degree() for c in cols))
    return degs


@st.composite
def artinian_rings(draw):
    """R5, WIDE, F_101[x,y,z]/(z^2, 3y^2, x^2+yz) or a drawn complete
    intersection of dimension 0: two forms of degree 2 or 3 in x, y, or
    three quadrics in x, y, z, every coefficient nonzero."""
    pick = draw(st.integers(0, 3))
    if pick < 3:
        return (R5, WIDE, UNREDUCED)[pick]
    n = draw(st.sampled_from([2, 3]))
    ring = PolyRing(101, ("x", "y", "z")[:n])
    degrees = [draw(st.integers(2, 3)) for _ in range(n)] if n == 2 else [2, 2, 2]
    ci = [draw(homogeneous(ring, d, nonzero_coeffs=True)) for d in degrees]
    try:
        return RingSpec(101, ring.vars, ci)
    except InputError:
        assume(False)


@settings(PROPS, max_examples=12)
@given(rs=artinian_rings(), module=st.sampled_from(["k", "x + y", "x^3"]))
def test_degreewise_resolution_matches_the_groebner_path(rs, module):
    pres = residue_field(rs) if module == "k" else present_module(rs, (0,), [[module]])
    res = resolve_min(pres, 6)
    assert res.degs[:7] == groebner_resolution(pres, 6)
    for i in range(1, 6):
        for c, v in enumerate(res.diffs[i + 1]):
            w = apply_columns(res.diffs[i], v, len(res.degs[i - 1]), res.degs[i - 1])
            assert not rs.ci_gb.reduce_terms(w.terms), (i, c)


def test_degreewise_resolution_at_the_largest_prime():
    # p = 2^31 - 1: the products x_v * K_{t-1} near p^2 must be reduced
    # before three of them meet in one socle entry
    p = 2147483647
    rs = RingSpec(p, ["x", "y", "z"], ["x^2 + 2*y*z + 3*z^2", "y^2 + 5*x*z + 7*x*y", "z^2 + x*y"])
    for pres in (residue_field(rs), present_module(rs, (0,), [["x + y"]])):
        res = resolve_min(pres, 5)
        assert res.degs[:6] == groebner_resolution(pres, 5)
        for i in range(1, 5):
            for c, v in enumerate(res.diffs[i + 1]):
                w = apply_columns(res.diffs[i], v, len(res.degs[i - 1]), res.degs[i - 1])
                assert not rs.ci_gb.reduce_terms(w.terms), (i, c)


def test_degreewise_resolution_across_empty_degrees():
    # F_1 sits in degrees 1 and 10, so (F_1)_t = 0 for t = 5..9 between the
    # kernel's pieces near each summand
    pres = present_module(R5, (0, 9), [["x", "0"], ["0", "y"]])
    assert resolve_min(pres, 5).degs[:6] == groebner_resolution(pres, 5)


@st.composite
def kernel_inputs(draw):
    """A ring and a module for the sparse degreewise kernel: R5, WIDE or
    F_p[x,y,z]/(z^2, 3y^2, x^2+yz) at a drawn p up to 2^31 - 1, or a
    complete intersection drawn as in `artinian_rings` at that p; the
    module k, Q/(x+y), Q/(x^3), or one with generators in degrees 0 and 9."""
    p = draw(st.sampled_from([101, 32003, 2147483647]))
    pick = draw(st.integers(0, 3))
    if pick < 3:
        fixed = (R5, WIDE, UNREDUCED)[pick]
        variables, ci = fixed.ring.vars, [str(f) for f in fixed.ci]
    else:
        variables = ("x", "y", "z")[: draw(st.sampled_from([2, 3]))]
        ring = PolyRing(p, variables)
        degrees = [draw(st.integers(2, 3)) for _ in variables] if len(variables) == 2 else [2, 2, 2]
        ci = [draw(homogeneous(ring, d, nonzero_coeffs=True)) for d in degrees]
    try:
        rs = RingSpec(p, variables, ci)
    except InputError:
        assume(False)
    module = draw(st.sampled_from(["k", "x + y", "x^3", "degrees 0 and 9"]))
    if module == "k":
        return rs, residue_field(rs)
    if module == "degrees 0 and 9":
        return rs, present_module(rs, (0, 9), [["x", "0"], ["0", "y"]])
    return rs, present_module(rs, (0,), [[module]])


@settings(PROPS, max_examples=16)
@given(inputs=kernel_inputs())
def test_sparse_kernel_matches_the_dense_reference(inputs):
    # every step of the resolution, from the first (no kernel dimensions
    # known) on: the same generators, term for term and in order, and the
    # same kernel dimensions as the dense int64 computation
    rs, pres = inputs
    res = Resolution(pres)
    cols, degs, dims = res.diffs[1], res.degs, None
    for step in range(2, 7):
        if not cols:
            break
        got = kernel_generators(rs, cols, degs[-1], degs[-2], step, dims)
        want = kernel_generators_reference(rs, cols, degs[-1], degs[-2], dims)
        assert [list(g.terms.items()) for g in got[0]] == [list(g.terms.items()) for g in want[0]], step
        assert got[1] == want[1], step
        cols, dims = got
        degs = degs + [tuple(c.degree() for c in cols)]


def test_deep_betti_numbers_pinned():
    t_line = resolve_min(present_module(UNREDUCED, (0,), [["x + y"]]), 13)
    assert t_line.betti_sequence(13) == [1, 1, 2, 5, 9, 14, 20, 27, 35, 44, 54, 65, 77, 90]
    assert resolve_min(residue_field(R5), 14).betti_sequence(14) == tate_coefficients(3, 3, 14)


# ---------------------------------------------------------------------------
# minimal generators and unit pruning against plain references

# non-artinian, with monomial relations: the ring of the variety-construct
# benchmark's second half
B = RingSpec(101, ["x", "y", "z", "w"], ["x^2", "y^2", "z^2"])
MINIMAL_RINGS = pytest.mark.parametrize("rs", [R5, B, DIM1], ids=["R5", "B", "dim1"])


@st.composite
def redundant_columns(draw, rs):
    """Drawn homogeneous columns over sum Q(-shifts), then planted
    redundancies, all in a drawn order: a duplicate, a scalar multiple,
    v1 + x v2 with v1 and v2 in the set, and a fresh column in the degree of
    one already there."""
    ring = rs.ring
    shifts = draw(st.sampled_from([(0,), (0, 1), (1, 1)]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    top = max(shifts)
    count = draw(st.integers(1, 3))
    cols = [random_column(ring, shifts, rng.randint(top, top + 2), rng) for _ in range(count)]
    kinds = ["duplicate", "multiple", "combination", "same degree"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        v = rng.choice(cols)
        if kind == "duplicate":
            cols.append(v)
        elif kind == "multiple":
            cols.append(v.scale(rng.randrange(2, ring.p)))
        elif kind == "combination":
            v1 = random_column(ring, shifts, v.degree() + 1, rng)
            cols += [v1, v1 + times(v, ring.gen(rng.randrange(ring.nvars)))]
        else:
            cols.append(random_column(ring, shifts, v.degree(), rng))
    rng.shuffle(cols)
    return cols


@MINIMAL_RINGS
@settings(PROPS, max_examples=10)
@given(data=st.data())
def test_minimal_columns_matches_the_greedy_reference(rs, data):
    cols = data.draw(redundant_columns(rs))
    kept = minimal_columns(rs, cols, cols[0].shifts)
    assert kept == minimal_columns_reference(rs, cols)
    kept_span = SubmoduleOracle(kept, quotient=rs.ci_gb)
    assert all(kept_span.contains(c) for c in cols)
    given_span = SubmoduleOracle(cols, quotient=rs.ci_gb)
    assert all(given_span.contains(g) for g in kept)


def constant_rank(pres):
    """Rank of the matrix of constant terms of the relations."""
    one = pres.rs.ring._one_mono
    a = [[col.terms.get((r, one), 0) for col in pres.relations] for r in range(pres.rank)]
    a = np.array(a, dtype=np.int64).reshape(pres.rank, len(pres.relations))
    return len(rref_reference(a, pres.rs.p)[1])


def assert_pruned(pres, pruned):
    assert (pruned.gens, list(pruned.relations)) == prune_units_reference(pres)
    one = pres.rs.ring._one_mono
    assert all(m != one for col in pruned.relations for (_r, m) in col.terms)
    assert pruned.rank == pres.rank - constant_rank(pres)
    want = [hilbert_function(pres, d) for d in range(7)]
    assert [hilbert_function(pruned, d) for d in range(7)] == want


@st.composite
def presentations_with_a_unit(draw, rs):
    """A presentation whose first relation has a unit c != 1 in a drawn row
    i, while every other relation has a nonzero entry of positive degree in
    that row."""
    ring = rs.ring
    rng = random.Random(draw(st.integers(0, 10**6)))
    gens = tuple(draw(st.lists(st.integers(0, 1), min_size=2, max_size=3)))
    i = draw(st.integers(0, len(gens) - 1))
    unit = random_column(ring, gens, gens[i], rng).terms
    unit = {k: v for k, v in unit.items() if k[0] != i}
    unit[i, ring._one_mono] = draw(st.integers(2, ring.p - 1))
    cols = [FreeElt(ring, len(gens), unit, gens)]
    count = draw(st.integers(2, 4))
    while len(cols) < count:
        v = rs.qnf_elt(random_column(ring, gens, gens[i] + rng.randint(1, 2), rng))
        if any(r == i for r, _m in v.terms):
            cols.append(v)
    rng.shuffle(cols)
    return present_module(rs, gens, cols)


@MINIMAL_RINGS
@settings(PROPS, max_examples=8)
@given(data=st.data())
def test_prune_units_keeps_the_module(rs, data):
    pres = data.draw(presentations_with_a_unit(rs))
    assert constant_rank(pres) > 0
    assert_pruned(pres, prune_units(pres))


@pytest.mark.parametrize("rs, eta", [(R5, "chi1"), (B, "chi1 + chi2")], ids=["R5", "B"])
def test_prune_units_on_a_pushout_cut(rs, eta, monkeypatch):
    seen = []

    def spy(pres):
        seen.append((pres, prune_units(pres)))
        return seen[-1][1]

    monkeypatch.setattr(construct, "prune_units", spy)
    m = syzygy_module(residue_field(rs), rs.dim)
    construct.pushout_cut(m, construct.phi(m, eta))
    [(raw, pruned)] = seen
    assert constant_rank(raw) > 0
    assert_pruned(raw, pruned)


# ---------------------------------------------------------------------------
# support varieties: V(M (+) N) = V(M) u V(N) and V(syz M) = V(M)


def test_variety_of_a_direct_sum_is_the_union():
    m = present_module(WIDE, (0,), [["x + 2*y"]])
    n = present_module(WIDE, (0,), [["x + 3*y"]])
    union = support_variety(m).union(support_variety(n))
    assert support_variety(direct_sum(m, n)).equals(union)


def test_variety_of_the_first_syzygy_is_unchanged():
    m = present_module(WIDE, (0,), [["x + 2*y"]])
    assert support_variety(syzygy_module(m, 1)).equals(support_variety(m))


# ---------------------------------------------------------------------------
# the operators t_j: chain maps over Q, pinned columns, and the lift's audits


def compose(cols, v, rank, shifts):
    """cols applied to v, entry by entry through Poly arithmetic."""
    ring = v.ring
    rows = []
    for r in range(rank):
        acc = ring.zero()
        for c, f in enumerate(v.components()):
            acc = acc + component(cols[c], r) * f
        rows.append(acc)
    return FreeElt.from_polys(rows, shifts) if rank else FreeElt(ring, 0, {}, ())


@pytest.mark.parametrize(
    "rs", [R5, DIM1, DENSE, WIDE, UNREDUCED], ids=["R5", "dim1", "dense", "wide", "unreduced"]
)
@pytest.mark.parametrize("module", ["k", "x + y", "x^3"])
def test_operators_are_chain_maps(rs, module):
    # over R5, dim1 and unreduced, some lifts u_j for Q/(x^3) are not
    # normal forms, so the stored t_j = NF(u_j) differ from them
    pres = residue_field(rs) if module == "k" else present_module(rs, (0,), [[module]])
    res = lift_and_operators(resolve_min(pres, 6), 5)
    for j, t in enumerate(res.ops.cols):
        assert all(rs.qnf_elt(col) == col for i in range(1, 6) for col in t[i])
        for i in range(2, 6):
            rank, shifts = len(res.degs[i - 2]), res.degs[i - 2]
            for c, v in enumerate(res.diffs[i + 1]):
                down = compose(res.diffs[i - 1], t[i][c], rank, shifts)
                up = compose(t[i - 1], v, rank, shifts)
                assert rs.qnf_elt(down) == rs.qnf_elt(up), (j, i, c)


# the corpus rings R1 and R3, R5, T and two rings whose relations have mixed
# degrees, where the operators have entries of positive degree
LIFT_RINGS = {
    "R1": RingSpec(101, ["x", "y"], ["x^2", "y^2"]),
    "R3": RingSpec(101, ["x", "y", "z"], ["x^2", "y^2", "z^2"]),
    "R5": R5,
    "T": UNREDUCED,
    "x3 y2": RingSpec(101, ["x", "y"], ["x^3", "y^2"]),
    "x2 y2 z3": RingSpec(101, ["x", "y", "z"], ["x^2", "y^2", "z^3"]),
}


@st.composite
def lift_inputs(draw, rs):
    """A module over rs (k, or Q/(g) for a drawn form g of degree 1 to 3,
    nonzero in Q), a depth 6..8 and a first depth at or below it, so some
    draws lift in two calls as a widened window does."""
    degree = draw(st.sampled_from([0, 1, 2, 3]))
    if degree:
        g = draw(homogeneous(rs.ring, degree))
        assume(not rs.qnf(g).is_zero())
        pres = present_module(rs, (0,), [[g]])
    else:
        pres = residue_field(rs)
    depth = draw(st.integers(6, 8))
    return pres, draw(st.integers(1, depth)), depth


@pytest.mark.parametrize("name", sorted(LIFT_RINGS))
@settings(PROPS, max_examples=5)
@given(data=st.data())
def test_block_lift_matches_the_column_lift(name, data):
    pres, first, depth = data.draw(lift_inputs(LIFT_RINGS[name]))
    res = resolve_min(pres, depth + 1)
    want = operators_reference(res, depth)
    lift_and_operators(res, first)
    lift_and_operators(res, depth)
    for j in range(pres.rs.codim):
        for i in range(1, depth + 1):
            assert res.ops.cols[j][i] == want[j][i], (j, i)


def test_operator_columns_pinned_on_wide():
    res = lift_and_operators(resolve_min(residue_field(WIDE), 3), 2)
    got = [[[str(col) for col in res.ops.cols[j][i]] for i in (1, 2)] for j in range(2)]
    assert got == [
        [["(1)", "(0)", "(0)"], ["(1, 0)", "(0, 1)", "(0, 0)", "(0, 0)"]],
        [["(0)", "(1)", "(1)"], ["(0, 1)", "(1, 0)", "(1, 0)", "(0, 1)"]],
    ]


def test_broken_resolution_is_an_internal_error():
    res = resolve_min(residue_field(R5), 3)
    x = R5.ring.gen(0).lead()[0]
    col = res.diffs[2][0]
    # x e_x maps to x^2 = -yz modulo (f): d_1 d_2 no longer vanishes
    res.diffs[2][0] = FreeElt(R5.ring, col.rank, {x: 1}, col.shifts)
    with pytest.raises(InternalError, match="broken resolution") as err:
        lift_and_operators(res, 1)
    assert err.value.details == {"step": 1, "column": 0, "row": 0}


def test_lost_exactness_is_an_internal_error(monkeypatch):
    res = resolve_min(residue_field(UNREDUCED), 3)
    monkeypatch.setattr(GroebnerBasis, "lift_terms", lambda self, terms: [{} for _ in self.cofactors[0]])
    with pytest.raises(InternalError, match="lost exactness"):
        lift_and_operators(res, 1)


# ---------------------------------------------------------------------------
# the window annihilator on E = H/I, whose annihilator is I
#
# E^0 = k generates E = H/I (placed in even degrees, `helpers.quotient_ext`),
# so g_N = 0 and a degree-d operator with 2d <= N kills every window exactly
# when it kills 1 in E^0, that is when it lies in I_d.  The window
# annihilator, over d <= D = N/2, is therefore the ideal spanned by
# I_1..I_D, which the generators of I of degree at most D generate.  Equal
# reduced Groebner bases compare the ideals themselves, not their radicals,
# and so every degree d <= D.

H_RINGS = {
    2: RingSpec(101, ["x", "y"], ["x^2", "y^2"]),
    3: RingSpec(101, ["x", "y", "z"], ["x^2", "y^2", "z^2"]),
}


def assert_annihilator_is_the_ideal(rs, gens, steps):
    ext = quotient_ext(rs, gens, steps)
    want = VarietyIdeal(rs.h_ring, [g for g in gens if g.degree() <= steps // 2])
    assert annihilator_window(ext).gens == want.gens, [str(g) for g in gens]


def test_annihilator_of_a_quotient_pinned():
    """chi1^2 and chi1 chi2 span chi_j K_1 in degree 2; chi2^2, the other
    monomial, is where K_2 holds more."""
    h = H_RINGS[2].h_ring
    assert_annihilator_is_the_ideal(H_RINGS[2], [h.parse("chi1"), h.parse("chi2^2")], 8)


def test_annihilator_of_shifted_quotients_cuts_every_generator_degree():
    """E = H/(chi1) + H/(chi2)[-1] + H/(chi1 + chi2)[-2] + H/(chi1 + 2 chi2)[-3]
    has one minimal generator in each degree 0..3, each with its own line
    as annihilator, so K_3 is zero and the annihilator is generated by the
    product of the four forms, which the window N = 12 sees at its bound
    D = (12 - 3) / 2 = 4.  A cut that skipped any one generator degree would
    keep the product of the other three in K_3."""
    rs = H_RINGS[2]
    forms = [rs.h_ring.parse(f) for f in ("chi1", "chi2", "chi1 + chi2", "chi1 + 2*chi2")]
    ext = shifted_quotients(rs, [([f], g) for g, f in enumerate(forms)], 12)
    assert generator_counts(ext) == [1, 1, 1, 1] + [0] * 9
    got = annihilator_window(ext).gens
    assert got == annihilator_reference(ext, 4).gens
    # K_3, kept in the memo of E, is zero; K_4 is spanned by the product
    assert ext._kernels[(0, 1, 2, 3), 3][0] == []
    product = forms[0] * forms[1] * forms[2] * forms[3]
    assert got == VarietyIdeal(rs.h_ring, [product]).gens


@settings(PROPS, max_examples=20)
@given(data=st.data())
def test_annihilator_of_a_drawn_quotient(data):
    c = data.draw(st.sampled_from([2, 3]))
    rs = H_RINGS[c]
    degrees = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    gens = [data.draw(homogeneous(rs.h_ring, d)) for d in degrees]
    assert_annihilator_is_the_ideal(rs, [g for g in gens if not g.is_zero()], 10 if c == 2 else 8)
