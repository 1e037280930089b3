"""Arithmetic layer: exact mod-p linear algebra, monomial orders, the
polynomial container, and the univariate stack."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from civar.arith import (
    DEGREVLEX,
    FreeElt,
    PolyRing,
    Poly,
    echelon,
    elimination_order,
    factor_univariate,
    fp_inv,
    is_odd_prime,
    matmul,
    mono_deg,
    mono_div,
    mono_lcm,
    mono_mul,
    nullspace,
    poly1_deg,
    poly1_divmod,
    poly1_gcd,
    poly1_monic,
    poly1_mul,
    poly1_powmod,
    poly1_xgcd,
    rref,
)
from civar.errors import InputError

from helpers import (
    add_reference,
    map_reference,
    monomial_terms,
    mul_reference,
    pow_reference,
    rref_reference,
    seeded,
    str_reference,
)


@pytest.fixture
def ring():
    return PolyRing(101, ("x", "y", "z"), DEGREVLEX)


def test_is_odd_prime():
    assert is_odd_prime(101)
    assert is_odd_prime(3)
    assert not is_odd_prime(2)
    assert not is_odd_prime(91)  # 7 * 13
    assert not is_odd_prime(1)


def test_prime_bound_of_the_linear_algebra():
    assert PolyRing(2147483647, ("x",)).p == 2147483647  # 2^31 - 1, the largest allowed
    with pytest.raises(InputError, match="2\\^31"):
        PolyRing(2147483659, ("x",))  # the next prime
    with pytest.raises(InputError, match="2\\^31"):
        PolyRing((1 << 61) - 1, ("x",))  # refused before any trial division


def test_fp_inv():
    rng = seeded("fp_inv")
    for _ in range(50):
        a = rng.randrange(1, 101)
        assert a * fp_inv(a, 101) % 101 == 1


def test_mono_ops():
    a, b = (2, 0, 1), (1, 3, 0)
    assert mono_mul(a, b) == (3, 3, 1)
    assert mono_lcm(a, b) == (2, 3, 1)
    assert mono_div(mono_mul(a, b), b) == a
    assert mono_div(a, b) is None
    assert mono_deg(a) == 3


def test_degrevlex_on_fixed_degree(ring):
    # x^2 > xy > y^2 > xz > yz > z^2 in three variables
    ms = ring.monomials_of_degree(2)
    assert ms == [
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    ]
    key = ring.order.key
    assert sorted(ms, key=key, reverse=True) == ms


def test_order_respects_multiplication(ring):
    rng = seeded("order-mul")
    key = ring.order.key
    for _ in range(200):
        a = tuple(rng.randrange(4) for _ in range(3))
        b = tuple(rng.randrange(4) for _ in range(3))
        c = tuple(rng.randrange(4) for _ in range(3))
        if key(a) > key(b):
            assert key(mono_mul(a, c)) > key(mono_mul(b, c))


def test_elimination_order_blocks():
    ring = PolyRing(101, ("t", "x", "y"), elimination_order(1))
    f = ring.parse("t + x^5")
    # anything with t beats anything without
    assert f.lead()[0] == (0, (1, 0, 0))


def test_parse_str_round_trip(ring):
    rng = seeded("parse-roundtrip")
    for _ in range(60):
        terms = {}
        for _k in range(rng.randrange(1, 6)):
            m = tuple(rng.randrange(3) for _ in range(3))
            terms[m] = rng.randrange(1, 101)
        f = ring.poly(terms)
        assert ring.parse(str(f)) == f


def test_poly_refuses_inexact_exponents_and_coefficients(ring):
    """bool is an int and 1.5 survives `% p`: both would be stored as given."""
    for terms in (
        {(True, 0, 0): 1},
        {(1.0, 0, 0): 1},
        {(1, 0, 0): 1.5},
        {(1, 0, 0): 2.0},
        {(1, 0, 0): True},
        {(1, 0, 0): np.float64(3)},
    ):
        with pytest.raises(InputError):
            ring.poly(terms)
    f = ring.poly({(1, 0, 0): np.int64(103), (0, 1, 0): -1})
    assert f == ring.parse("2*x + 100*y")
    assert all(type(c) is int for c in f.terms.values())


def test_parse_specifics(ring):
    assert ring.parse("0").is_zero()
    assert ring.parse("x^2*y - 3") == ring.parse("-3 + x^2*y")
    assert ring.parse("2*x + 100*x") == ring.parse("x")
    assert ring.parse("2*x + 99*x").is_zero()  # 101 x = 0
    with pytest.raises(InputError):
        ring.parse("x + w")
    with pytest.raises(InputError):
        ring.parse("x ++ y")


def test_parse_error_carries_position(ring):
    with pytest.raises(InputError) as exc:
        ring.parse("x^2 + q")
    assert "position" in str(exc.value)


def test_homogeneous_degree(ring):
    assert ring.parse("x^2 + y*z").homogeneous_degree() == 2
    assert ring.parse("x^2 + y").homogeneous_degree() is None
    assert ring.zero().homogeneous_degree() is None
    assert ring.zero().degree() == -1
    assert ring.parse("x + y").is_homogeneous()


def test_poly_pow_and_scale(ring):
    f = ring.parse("x + y")
    assert f ** 2 == ring.parse("x^2 + 2*x*y + y^2")
    assert f.scale(100) == ring.parse("100*x + 100*y")
    assert (f - f).is_zero()


def test_map_to_permutes_variables(ring):
    other = PolyRing(101, ("a", "b", "c", "d"), DEGREVLEX)
    f = ring.parse("x*y + z^2")
    g = f.map_to(other, [3, 1, 0])  # x->d, y->b, z->a
    assert g == other.parse("d*b + a^2")


def test_matmul_matches_naive():
    rng = seeded("matmul")
    p = 101
    for _ in range(10):
        n, m, k = rng.randrange(1, 7), rng.randrange(1, 7), rng.randrange(1, 7)
        a = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(n)], dtype=np.int64)
        b = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(m)], dtype=np.int64)
        want = [
            [sum(int(a[i, t]) * int(b[t, j]) for t in range(m)) % p for j in range(k)]
            for i in range(n)
        ]
        assert matmul(a, b, p).tolist() == want


def test_rref_shape_and_idempotence():
    rng = seeded("rref")
    p = 101
    for _ in range(20):
        n, m = rng.randrange(1, 8), rng.randrange(1, 8)
        a = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(n)], dtype=np.int64)
        r, piv = rref(a, p)
        assert list(piv) == sorted(piv)
        for i, pc in enumerate(piv):
            col = r[:, pc]
            assert col[i] == 1 and sum(int(x) for x in col) == 1
        r2, piv2 = rref(r, p)
        assert (r2 == r).all()
        assert list(piv2) == list(piv)


@pytest.mark.parametrize("p", [3, 101, 32003, 1073741789, 2147483647])
def test_rref_matches_the_reference(p):
    """The sparse kernel matches the plain reduction bit for bit on drawn
    matrices: small dense ones, sparse ones with about 100 nonzero entries,
    dense ones up to 90 x 120, and an arrow that fills in to full rows.
    They carry zero columns, repeated rows, negative entries and all-(p-1)
    blocks, at primes up to 2^31 - 1."""
    rng = np.random.default_rng(p % 1000)
    # an arrow, a full first row and a diagonal: 118 nonzero entries that
    # fill in to full rows as the first row clears column 0
    arrow = np.diag(rng.integers(1, p, size=40, dtype=np.int64))
    arrow[0], arrow[:, 0] = rng.integers(1, p, size=40), 1
    drawn = [arrow]
    for rows, cols in [(3, 4), (6, 8), (8, 8), (1, 30), (30, 1), (20, 30), (70, 40), (90, 120)]:
        a = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
        a[:, rng.integers(0, cols, size=max(1, cols // 5))] = 0
        if rows > 2:
            a[rows // 2] = a[0]
            a[-1] = 2 * a[1] % p
        a[: rows // 2 + 1, cols // 3 : cols // 3 + cols // 2 + 1] = p - 1
        holes = np.where(rng.random(a.shape) < 0.8, 0, a)
        thin = np.where(rng.random(a.shape) < 100 / a.size, a, 0)
        drawn += [a, holes, thin, a - p, np.full((rows, cols), p - 1, dtype=np.int64)]
    for m in drawn:
        got, pivots = rref(m, p)
        want, want_pivots = rref_reference(m, p)
        assert pivots == want_pivots
        assert got.dtype == want.dtype and np.array_equal(got, want)


@st.composite
def elimination_inputs(draw):
    """(matrix, p) of one of five shapes: tiny, sparse and wide (at most 2 %
    nonzero, past 4,096 entries), tall and skinny, dense, or an arrow (a
    full first row and column on a diagonal), which starts sparse and fills
    in; entries in (-p, p), with a zero row, a zero column and a repeated
    row."""
    p = draw(st.sampled_from([3, 101, 32003, 2**31 - 1]))
    rows, cols, density = draw(st.sampled_from([
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.just(0.6)),  # tiny
        st.tuples(st.integers(20, 60), st.integers(120, 240), st.just(0.02)),  # sparse, wide
        st.tuples(st.integers(100, 400), st.integers(1, 8), st.just(0.5)),  # tall, skinny
        st.tuples(st.integers(17, 40), st.integers(17, 40), st.just(0.9)),  # dense
        st.integers(20, 40).map(lambda n: (n, n, None)),  # arrow
    ]).flatmap(lambda shape: shape))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(1 - p, p, size=(rows, cols), dtype=np.int64)
    if density is None:
        a = np.diag(a.diagonal())
        a[0], a[:, 0] = rng.integers(1 - p, p, size=cols), rng.integers(1 - p, p, size=rows)
    else:
        a[rng.random((rows, cols)) >= density] = 0
    if rows > 2 and cols:
        a[rng.integers(rows)] = 0
        a[rng.integers(rows)] = a[rng.integers(rows)]
    if cols > 1:
        a[:, rng.integers(cols)] = 0
    return a, p


@settings(derandomize=True, max_examples=60, deadline=None)
@given(elimination_inputs())
def test_rref_and_echelon_match_the_reference(case):
    """`rref` equals the plain reduction bit for bit, and so does
    `nullspace` the basis read off it: one int64 row per free column, 1
    there and minus that column of the reduced form at the pivots, shape
    (cols - rank, cols) even when it is empty.  `echelon` has the
    reference's pivot columns and one row per pivot, monic there and zero
    to its left, and its rows add nothing to the row space: stacked onto
    the matrix they leave the rank as it was."""
    a, p = case
    want, want_pivots = rref_reference(a, p)
    got, pivots = rref(a, p)
    assert pivots == want_pivots
    assert got.dtype == want.dtype and np.array_equal(got, want)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in want_pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, want_pivots] = -want[: len(want_pivots), free].T % p
    kernel = nullspace(a, p)
    assert kernel.dtype == np.int64 and kernel.shape == (cols - len(want_pivots), cols)
    assert np.array_equal(kernel, basis)
    rows, pivots = echelon(a, p)
    assert pivots == want_pivots
    assert rows.shape == (len(pivots), a.shape[1]) and rows.dtype == np.int64
    assert ((rows >= 0) & (rows < p)).all()
    for row, c in zip(rows, pivots):
        assert row[c] == 1 and not row[:c].any()
    assert len(rref_reference(np.vstack([a, rows]), p)[1]) == len(pivots)


def test_nullspace_kills_and_counts():
    rng = seeded("nullspace")
    p = 101
    for _ in range(20):
        n, m = rng.randrange(1, 7), rng.randrange(1, 7)
        a = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(n)], dtype=np.int64)
        _, piv = rref(a, p)
        basis = nullspace(a, p)
        assert len(basis) == m - len(piv)
        for v in basis:
            assert not (matmul(a, np.array(v, dtype=np.int64).reshape(-1, 1), p)).any()


def test_poly1_divmod_identity():
    rng = seeded("poly1")
    p = 101
    for _ in range(40):
        f = [rng.randrange(p) for _ in range(rng.randrange(1, 8))]
        g = [rng.randrange(p) for _ in range(rng.randrange(1, 5))]
        if poly1_deg(g) < 0:
            continue
        q, r = poly1_divmod(f, g, p)
        recomposed = [c % p for c in poly1_mul(q, g, p)]
        width = max(len(recomposed), len(r), len(f), 1)
        total = [0] * width
        for i, c in enumerate(recomposed):
            total[i] = (total[i] + c) % p
        for i, c in enumerate(r):
            total[i] = (total[i] + c) % p
        ftrim = f + [0] * (width - len(f))
        assert all((a - b) % p == 0 for a, b in zip(total, ftrim))
        assert poly1_deg(r) < poly1_deg(g) or poly1_deg(r) < 0


def test_poly1_gcd_divides():
    p = 101
    f = poly1_mul([1, 1], [2, 0, 1], p)  # (x+1)(x^2+2)
    g = poly1_mul([1, 1], [5, 1], p)  # (x+1)(x+5)
    d = poly1_gcd(f, g, p)
    assert poly1_monic(d, p) == [1, 1]


def test_poly1_xgcd_identity():
    rng = seeded("xgcd")
    p = 101
    for _ in range(30):
        f = [rng.randrange(p) for _ in range(rng.randrange(1, 7))]
        g = [rng.randrange(p) for _ in range(rng.randrange(1, 7))]
        d, a, b = poly1_xgcd(f, g, p)
        lhs = poly1_mul(a, f, p)
        rhs = poly1_mul(b, g, p)
        width = max(len(lhs), len(rhs), len(d), 1)
        tot = [0] * width
        for i, c in enumerate(lhs):
            tot[i] = (tot[i] + c) % p
        for i, c in enumerate(rhs):
            tot[i] = (tot[i] + c) % p
        dpad = d + [0] * (width - len(d))
        assert all((x - y) % p == 0 for x, y in zip(tot, dpad))


def test_poly1_powmod():
    p = 101
    m = [1, 0, 1]  # x^2 + 1
    f = [0, 1]  # x
    assert poly1_powmod(f, 2, m, p) == [100]  # x^2 = -1 mod (x^2+1)


def test_factor_univariate_reassembles():
    rng = seeded("factor")
    p = 101
    for _ in range(20):
        target = [1]
        for _i in range(rng.randrange(1, 4)):
            lin = [rng.randrange(p), 1]
            for _m in range(rng.randrange(1, 3)):
                target = poly1_mul(target, lin, p)
        factors = factor_univariate(list(target), p, rng)
        prod = [1]
        for base, mult in factors:
            assert base[-1] == 1
            for _ in range(mult):
                prod = poly1_mul(prod, base, p)
        assert prod == poly1_monic(target, p)


def test_factor_x4_minus_1():
    rng = seeded("factor-x4")
    got = factor_univariate([100, 0, 0, 0, 1], 101, rng)
    # 101 = 1 mod 4, so x^4 - 1 splits into four linear factors
    assert [poly1_deg(b) for b, _ in got] == [1, 1, 1, 1]
    assert all(m == 1 for _, m in got)


P3 = PolyRing(101, ("x", "y", "z"), DEGREVLEX)
P4 = PolyRing(101, ("u", "v", "w", "t"), DEGREVLEX)
TERMS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(0, 100), max_size=6)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    a=TERMS,
    b=TERMS,
    e=st.integers(0, 3),
    var_map=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    rows=st.lists(TERMS, min_size=1, max_size=4),
    low=st.integers(-2, 2),
)
def test_poly_matches_the_monomial_dict_reference(a, b, e, var_map, rows, low):
    """Products (one kernel for Poly * Poly and Poly * FreeElt), sums,
    powers, ring maps and text of polynomials agree with the double loop
    over monomial-keyed dicts; rows survive from_polys and components()."""
    p = P3.p
    f, g = P3.poly(a), P3.poly(b)
    fa, ga = monomial_terms(f), monomial_terms(g)
    fg = mul_reference(fa, ga, p)
    assert isinstance(f * g, Poly) and isinstance(f + g, Poly)
    assert monomial_terms(f * g) == fg
    assert monomial_terms(f + g) == add_reference(fa, ga, p)
    assert monomial_terms(f ** e) == pow_reference(fa, e, P3)
    image = f.map_to(P4, var_map)
    assert monomial_terms(image) == map_reference(fa, P4, var_map)
    assert str(f) == str_reference(P3, fa)
    assert str(f * g) == str_reference(P3, fg)
    assert str(image) == str_reference(P4, monomial_terms(image))
    polys = [P3.poly(r) for r in rows]
    shifts = tuple(range(low, low + len(polys)))
    v = FreeElt.from_polys(polys, shifts)
    assert (v.rank, v.shifts) == (len(polys), shifts)
    assert v.components() == polys
    fv = f * v
    assert type(fv) is FreeElt and fv.shifts == shifts
    assert [monomial_terms(h) for h in fv.components()] == [
        mul_reference(fa, monomial_terms(h), p) for h in polys
    ]
