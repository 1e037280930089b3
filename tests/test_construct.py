"""Ext elements, hypersurface cuts, realization, idempotent splitting, and
the disjoint-split check."""

import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from civar.errors import (
    InputError,
    InternalError,
    PremiseError,
    VerificationError,
)
from civar import construct, resolve
from civar.arith import matmul
from civar.cohomology import VarietyIdeal, support_variety
from civar.construct import (
    _eval_matrix,
    _graded_endo_basis,
    _min_poly,
    _restrict,
    check_carlson,
    decompose,
    phi,
    pushout_cut,
    realize,
)
from civar.resolve import (
    RingSpec,
    artinian_reduction,
    direct_sum,
    free_module,
    hilbert_function,
    is_mcm,
    present_module,
    residue_field,
    resolve_min,
    syzygy_module,
    vector_model,
)

from helpers import betti_growth, dense, linear_form, nullspace_reference, rref_reference


# ---------------------------------------------------------------------------
# phi


def test_phi_frozen_residue_field_r2(r2):
    th = phi(residue_field(r2), "chi1")
    assert th.n == 2
    assert th.internal_degree == 2
    assert [str(c) for c in th.cols] == ["(1)"]


def test_phi_zero_class(r1):
    # chi2 annihilates A/(x), so its chain map vanishes
    th = phi(present_module(r1, (0,), [["x"]]), "chi2")
    assert all(c.is_zero() for c in th.cols)


def test_phi_rejects_bad_inputs(r1, r3):
    k = residue_field(r1)
    for h, message in (
        (r3.h_ring.parse("chi1"), "lives in a different ring"),
        ("0", "must be nonzero"),
        ("chi1 - chi1", "must be nonzero"),
        ("chi1 + chi2^2", "must be homogeneous of positive degree"),
        ("3", "must be homogeneous of positive degree"),
    ):
        with pytest.raises(InputError) as exc:
            phi(k, h)
        assert str(exc.value) == "operator polynomial " + message
        assert exc.value.details == {}


@pytest.mark.parametrize(
    "record, fields",
    [
        (construct.DecompositionResult, ("summands", "possibly_decomposable", "models")),
        (
            construct.CarlsonResult,
            (
                "m_variety", "group1", "group2", "free", "summands",
                "c1", "c2", "v1", "v2", "verdict",
            ),
        ),
    ],
)
def test_results_are_immutable_records(record, fields):
    """Fields in their order, built by keyword, read by attribute, shown as
    Name(field=...), and refusing assignment."""
    assert record._fields == fields
    values = {name: [i] for i, name in enumerate(fields)}
    result = record(**values)
    assert [getattr(result, name) for name in record._fields] == list(values.values())
    assert repr(result) == record.__name__ + "(" + ", ".join(
        f"{name}=[{i}]" for i, name in enumerate(record._fields)
    ) + ")"
    with pytest.raises(AttributeError):
        setattr(result, record._fields[0], [])
    with pytest.raises(AttributeError):
        result.other = 1


def test_decomposition_models_default_to_empty():
    result = construct.DecompositionResult(summands=[], possibly_decomposable=[])
    assert result.models == ()


def test_phi_mixed_internal_degree():
    rs = RingSpec(101, ["x", "y"], ["x^2", "y^3"])
    k = residue_field(rs)
    with pytest.raises(InputError) as exc:
        phi(k, "chi1 + chi2")  # internal degrees 2 and 3
    assert "mixed" in str(exc.value) or "internal" in str(exc.value)
    # pure monomials in either variable are fine
    assert phi(k, "chi1").internal_degree == 2
    assert phi(k, "chi2").internal_degree == 3


def test_phi_degree_two_class(r1):
    th = phi(residue_field(r1), "chi1*chi2")
    assert th.n == 4
    assert th.internal_degree == 4


# ---------------------------------------------------------------------------
# pushout_cut


def test_cut_on_wrong_module_rejected(r1):
    k = residue_field(r1)
    other = present_module(r1, (0,), [["x"]])
    th = phi(k, "chi1")
    with pytest.raises(InputError):
        pushout_cut(other, th)


def test_cut_residue_field_r2_is_free(r2):
    k = residue_field(r2)
    cut = pushout_cut(k, phi(k, "chi1"))
    assert cut.gens == (1,)
    assert len(cut.relations) == 0


def test_cut_zero_class_splits(r1):
    m1 = present_module(r1, (0,), [["x"]])
    th = phi(m1, "chi2")
    cut = pushout_cut(m1, th)
    # T = 0 gives syz^1(M) (+) M shifted by the internal degree
    assert sorted(cut.gens) == [1, 2]
    v = support_variety(cut)
    assert v.equals(support_variety(m1))


def test_cut_hilbert_additivity(r1):
    for rel, eta in ((["x"], "chi1"), (["x+y"], "chi1"), (["x"], "chi1*chi2")):
        m = present_module(r1, (0,), [rel])
        th = phi(m, eta)
        cut = pushout_cut(m, th)
        om = syzygy_module(m, th.n - 1)
        e = th.internal_degree
        top = max(cut.gens) + 3 if cut.gens else 3
        for d in range(top):
            want = (hilbert_function(m, d - e) if d >= e else 0) + hilbert_function(om, d)
            assert hilbert_function(cut, d) == want


def test_cut_hilbert_additivity_on_corpus(corpus):
    # 0 -> Omega^{n-1} M -> K -> M(-e) -> 0 along the cut by chi1, in every
    # degree 0..10; hilbert_function also covers the non-artinian R4
    failures = []
    for label, m in corpus:
        th = phi(m, "chi1")
        cut = pushout_cut(m, th)
        om = syzygy_module(m, th.n - 1)
        e = th.internal_degree
        for d in range(11):
            want = hilbert_function(om, d) + hilbert_function(m, d - e)
            got = hilbert_function(cut, d)
            if got != want:
                failures.append(f"{label}, degree {d}: H_K = {got}, expected {want}")
    assert not failures, failures


def test_cut_variety_equality_on_mcm(r1):
    k = residue_field(r1)
    v_k = support_variety(k)
    for eta in ("chi1", "chi2", "chi1 + chi2"):
        cut = pushout_cut(k, phi(k, eta))
        expected = v_k.intersect(VarietyIdeal(r1.h_ring, [eta]))
        assert support_variety(cut).equals(expected)


def test_cut_inclusion_on_non_mcm(r4):
    # k over R4 has depth 0 < dim 1; only the containment is guaranteed
    k = residue_field(r4)
    assert not is_mcm(k)
    cut = pushout_cut(k, phi(k, "chi1"))
    v_cut = support_variety(cut)
    expected = support_variety(k).intersect(VarietyIdeal(r4.h_ring, ["chi1"]))
    assert expected.contains_variety(v_cut)


# ---------------------------------------------------------------------------
# realize


def test_realize_r1_principal(r1):
    got = realize(r1, ["chi1"])
    assert is_mcm(got)
    assert support_variety(got).equals(VarietyIdeal(r1.h_ring, ["chi1"]))


def test_realize_rejects_bad_eta(r1):
    with pytest.raises(InputError):
        realize(r1, ["0"])
    with pytest.raises(InputError):
        realize(r1, ["chi1 + 1"])


def count_cuts(monkeypatch):
    """The calls `realize` makes to build or apply a cut, recorded by name."""
    calls = []
    for name in ("phi", "_ext_element", "pushout_cut"):
        real = getattr(construct, name)
        monkeypatch.setattr(
            construct, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a)
        )
    return calls


def test_realize_checks_every_cut_element_before_the_first_cut(r1, r3, monkeypatch):
    """A bad element at position 1 is named, with its index, before chi1 at
    position 0 is cut: no phi, no chain map and no pushout runs."""
    calls = count_cuts(monkeypatch)
    for eta, message in (
        (r3.h_ring.parse("chi1"), "lives in a different ring"),
        ("0", "must be nonzero"),
        ("chi1 + chi2^2", "must be homogeneous of positive degree"),
        ("3", "must be homogeneous of positive degree"),
    ):
        with pytest.raises(InputError) as exc:
            realize(r1, ["chi1", eta])
        assert str(exc.value) == "cut element 1 " + message
        assert exc.value.details == {"index": 1}
    assert calls == []


def test_realize_refuses_mixed_internal_degree_before_the_first_cut(monkeypatch):
    """chi1 shifts internal degrees by 2 and chi2 by 3 over (x^2, y^3), so
    chi1 + chi2 is no graded map; `realize` names it before any cut."""
    calls = count_cuts(monkeypatch)
    rs = RingSpec(101, ["x", "y"], ["x^2", "y^3"])
    with pytest.raises(InputError) as exc:
        realize(rs, ["chi1", "chi1 + chi2"])
    assert str(exc.value).startswith("cut element 1: monomials of mixed internal degree")
    assert exc.value.details == {"degrees": [2, 3], "index": 1}
    assert calls == []


def test_realize_skip_verification(r1):
    got = realize(r1, ["chi2"], verify=False)
    assert support_variety(got).equals(VarietyIdeal(r1.h_ring, ["chi2"]))


@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_realize_any_drawn_cone(r1, r3, data):
    """The realizability theorem as a property: a hyperplane V(l) over R1 or
    R3, or a union V(l1 l2) of two distinct lines over R1, is the variety
    of the realized module, and the module's Betti numbers grow with the
    target's dimension."""
    shape = data.draw(st.sampled_from(["R1 line", "R3 plane", "R1 two lines"]))
    rs = r3 if shape == "R3 plane" else r1
    coeffs = st.lists(st.integers(0, rs.p - 1), min_size=rs.codim, max_size=rs.codim)
    a = data.draw(coeffs.filter(any))
    eta = linear_form(rs, a)
    if shape == "R1 two lines":
        b = data.draw(coeffs.filter(any))
        assume((a[0] * b[1] - a[1] * b[0]) % rs.p)
        eta = eta * linear_form(rs, b)
    dim = rs.codim - 1
    m = realize(rs, [eta], verify=False)
    v = support_variety(m)
    assert v.equals(VarietyIdeal(rs.h_ring, [eta]))
    assert v.dimension() == dim
    assert betti_growth(resolve_min(m, 12).betti_sequence(12)) == dim


# ---------------------------------------------------------------------------
# decompose


@pytest.mark.parametrize(
    "a, want",
    [
        # a Jordan block: (t - 5)^3 = t^3 - 15 t^2 + 75 t - 125
        ([[5, 1, 0], [0, 5, 1], [0, 0, 5]], [-125 % 101, 75, -15 % 101, 1]),
        # diag(1, 1, 2): (t - 1)(t - 2), of lower degree than the size
        ([[1, 0, 0], [0, 1, 0], [0, 0, 2]], [2, -3 % 101, 1]),
        ([[0, 0], [0, 0]], [0, 1]),
        ([[1, 0], [0, 1]], [100, 1]),
    ],
)
def test_min_poly_pinned(a, want):
    assert _min_poly(columns(a, 101), 101) == want


def columns(a, p):
    """The sparse columns of a square integer matrix, the format of the
    endomorphisms `decompose` works on."""
    return [{r: x % p for r, x in enumerate(col) if x % p} for col in np.asarray(a).T.tolist()]


def test_min_poly_kills_the_matrix_in_the_least_degree():
    rng = np.random.default_rng(11)
    p = 101
    for n in (2, 3, 5):
        for twice in (False, True):
            a = rng.integers(0, p, (n, n))
            if twice:  # one block twice: degree at most half the size
                a = np.kron(np.eye(2, dtype=np.int64), a)
            mu = _min_poly(columns(a, p), p)
            assert mu[-1] == 1
            horner = np.zeros_like(a)
            for c in reversed(mu):
                horner = (horner @ a + c * np.eye(len(a), dtype=np.int64)) % p
            assert not horner.any()
            assert not dense(_eval_matrix(mu, columns(a, p), p), len(a)).any()
            powers = [np.eye(len(a), dtype=np.int64)]
            for _ in range(len(a)):
                powers.append(a @ powers[-1] % p)
            flat = np.stack([m.reshape(-1) for m in powers], axis=1)
            assert len(mu) - 1 == len(rref_reference(flat, p)[1])


def test_decompose_splits_direct_sum(r1):
    m1 = present_module(r1, (0,), [["x"]])
    m2 = present_module(r1, (0,), [["y"]])
    dec = decompose(direct_sum(m1, m2))
    assert len(dec.summands) == 2
    assert dec.possibly_decomposable == [False, False]
    rels = sorted(str(s.relations[0]) for s in dec.summands)
    assert rels == ["(x)", "(y)"]


def test_decompose_indecomposable_stays_whole(r1):
    m = present_module(r1, (0,), [["x + y"]])
    dec = decompose(m)
    assert len(dec.summands) == 1
    assert dec.possibly_decomposable == [False]


@pytest.mark.parametrize(
    "eta, dims, varieties",
    [
        ("chi1^2 - 2*chi2^2", [8], [["chi1^2 + 99*chi2^2"]]),
        ("chi1^2 - 4*chi2^2", [4, 4], [["chi1 + 99*chi2"], ["chi1 + 2*chi2"]]),
    ],
)
def test_decompose_flags_summands_whose_endomorphisms_exceed_k(r1, eta, dims, varieties):
    """Pins today's behaviour: `decompose` certifies a summand only when its
    degree-0 endomorphism ring is k, and both modules here have a
    4-dimensional one.  2 is not a square mod 101, so the first module stays
    one summand although its variety is two conjugate lines over the
    algebraic closure; chi1^2 - 4 chi2^2 = (chi1 - 2 chi2)(chi1 + 2 chi2), so
    the second splits into its two lines.  Every summand is flagged.  ROADMAP
    item 2 (a certified local test on End_0) is to turn these flags into
    certificates."""
    m = realize(r1, [eta])
    vm = vector_model(m)
    assert len(_graded_endo_basis(vm.degs, vm.actions, r1.p)) == 4
    dec = decompose(m)
    assert [len(model[0]) for model in dec.models] == dims
    assert dec.possibly_decomposable == [True] * len(dims)
    assert [[str(g) for g in support_variety(s).gens] for s in dec.summands] == varieties


def test_decompose_two_copies_of_k(r1):
    kk = direct_sum(residue_field(r1), residue_field(r1))
    dec = decompose(kk)
    assert len(dec.summands) == 2
    for s in dec.summands:
        assert vector_model(s).dim == 1


def test_decompose_doubles_every_summand_of_a_doubled_module():
    """Krull-Schmidt: M + M has every indecomposable summand of M exactly
    twice.  M is the realized line V(chi1, chi2) plus the plane
    V(chi1 + 2 chi2 + 3 chi3) over F_32003[x,y,z]/(x^2,y^2,z^2), three
    summands of dimensions 8, 8 and 16, the last flagged.  The minimal
    polynomials behind M + M reduce long rows: the flattened powers of a
    64 x 64 endomorphism, up to 9 rows of 4096 entries.  Each
    summand is compared by model dimension, generator degrees, variety and
    flag."""
    rs = RingSpec(32003, ["x", "y", "z"], ["x^2", "y^2", "z^2"])
    m = direct_sum(realize(rs, ["chi1", "chi2"]), realize(rs, ["chi1 + 2*chi2 + 3*chi3"]))

    def summands(dec):
        return Counter(
            (len(model[0]), tuple(sorted(s.gens)), tuple(str(g) for g in support_variety(s).gens), flag)
            for s, flag, model in zip(dec.summands, dec.possibly_decomposable, dec.models)
        )

    once = summands(decompose(m))
    assert sorted(dim for dim, _gens, _v, _flag in once) == [8, 8, 16]
    assert sorted(flag for *_rest, flag in once) == [False, False, True]
    assert summands(decompose(direct_sum(m, m))) == once + once


def test_decompose_preserves_dimension_and_betti(r1):
    m = direct_sum(
        direct_sum(present_module(r1, (0,), [["x"]]), residue_field(r1)),
        free_module(r1, (1,)),
    )
    dec = decompose(m)
    assert sum(vector_model(s).dim for s in dec.summands) == vector_model(m).dim
    whole = resolve_min(m, 5)
    parts = [resolve_min(s, 5) for s in dec.summands]
    for i in range(6):
        assert len(whole.degs[i]) == sum(len(r.degs[i]) for r in parts)


def test_decompose_deterministic(r1):
    m = direct_sum(present_module(r1, (0,), [["x"]]), present_module(r1, (0,), [["y"]]))
    one = decompose(m, seed=7)
    two = decompose(m, seed=7)
    assert [str(s.relations) for s in one.summands] == [
        str(s.relations) for s in two.summands
    ]


@settings(derandomize=True, max_examples=10, deadline=None)
@given(data=st.data())
def test_split_restricts_every_action_to_its_summand(r1, r3, data):
    """Every split of A/(l) (+) N, l a drawn linear form over R1 or R3 and N
    one more copy of A/(l), k, or A/(l') for another drawn l', restricts
    each action X to the summand's basis B as the X_s with X B = B X_s,
    which is what keeps the summands' models exact.  The first two N give
    summands whose bases are not coordinate vectors."""
    rs = data.draw(st.sampled_from([r1, r3]))
    forms = st.lists(st.integers(0, rs.p - 1), min_size=rs.ring.nvars, max_size=rs.ring.nvars)

    def cyclic():
        coeffs = data.draw(forms.filter(any))
        form = " + ".join(f"{a}*{v}" for a, v in zip(coeffs, rs.ring.vars) if a)
        return present_module(rs, (0,), [[form]])

    m = cyclic()
    other = data.draw(st.sampled_from(["copy", "k", "cyclic"]))
    n = {"copy": lambda: m, "k": lambda: residue_field(rs), "cyclic": cyclic}[other]()

    seen = []
    real = construct._restrict

    def restrict(actions, basis, p):
        restricted = real(actions, basis, p)
        seen.append((actions, basis, restricted))
        return restricted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "_restrict", restrict)
        decompose(direct_sum(m, n))
    assert seen
    for actions, basis, restricted in seen:
        for cols, small in zip(actions, restricted):
            assert matmul(basis, cols, rs.p) == matmul(small, basis, rs.p)


def test_restrict_refuses_a_basis_that_is_not_action_stable(r1):
    """Over A/(x), the socle spanned by y is closed under x and y and the
    degree-0 line spanned by 1 is not: y sends 1 to y."""
    vm = vector_model(present_module(r1, (0,), [["x"]]))
    one, y = ({vm.degs.index(d): 1} for d in (0, 1))
    assert _restrict(vm.actions, [y], r1.p) == [[{}], [{}]]
    with pytest.raises(InternalError, match="not action-stable"):
        _restrict(vm.actions, [one], r1.p)


def endo_basis_by_loop(degs, actions, p):
    """The commutant equations X Z_d = Z_{d+1} X written out entry by
    entry on dense matrices, as the reference for `_graded_endo_basis`."""
    degs = np.array(degs)
    actions = [dense(cols, len(degs)) for cols in actions]
    uniq = sorted(set(int(x) for x in degs))
    idx = {d: np.flatnonzero(degs == d) for d in uniq}
    offs, total = {}, 0
    for d in uniq:
        offs[d] = total
        total += len(idx[d]) ** 2
    rows = []
    for mat in actions:
        for d in uniq:
            src, dst = idx[d], idx.get(d + 1, ())
            s, t = len(src), len(dst)
            for a in range(t):
                for b in range(s):
                    row = np.zeros(total, dtype=np.int64)
                    for k in range(s):
                        row[offs[d] + k * s + b] = mat[dst[a], src[k]]
                    for k in range(t):
                        row[offs[d + 1] + a * t + k] = -mat[dst[k], src[b]] % p
                    if row.any():
                        rows.append(row)
    if not rows:
        return None
    return nullspace_reference(np.stack(rows, axis=0), p)


def test_endomorphism_equations_match_the_loop(r1, corpus):
    mods = [m for _name, m in corpus] + [
        direct_sum(present_module(r1, (0,), [["x"]]), present_module(r1, (0,), [["y"]])),
        direct_sum(residue_field(r1), residue_field(r1)),
    ]
    checked = 0
    for m in mods:
        try:
            vm = vector_model(m)
        except InputError:
            continue
        want = endo_basis_by_loop(vm.degs, vm.actions, m.rs.p)
        if want is None:
            continue
        blocks = [[c for c, e in enumerate(vm.degs) if e == d] for d in sorted(set(vm.degs))]
        got = [
            [z[c].get(r, 0) for idx in blocks for r in idx for c in idx]
            for z in _graded_endo_basis(vm.degs, vm.actions, m.rs.p)
        ]
        assert got == want
        checked += 1
    assert checked >= 5


def test_decompose_needs_finite_length(r4):
    with pytest.raises(InputError):
        decompose(free_module(r4, (0,)))


# ---------------------------------------------------------------------------
# check_carlson


def test_carlson_axis_split(r1):
    """V(M) and the variety of every group of two or more summands are read
    on the summands' resolutions: neither M nor such a group sum is
    resolved.  A one-summand group is that summand, resolved for its own
    variety."""
    ax, ay = present_module(r1, (0,), [["x"]]), present_module(r1, (0,), [["y"]])
    m = direct_sum(ax, ay)
    res = check_carlson(
        m, VarietyIdeal(r1.h_ring, ["chi2"]), VarietyIdeal(r1.h_ring, ["chi1"])
    )
    assert m._resolution is None
    assert res.verdict is True
    assert len(res.group1) == 1 and len(res.group2) == 1
    assert res.free == []
    assert res.v1.equals(VarietyIdeal(r1.h_ring, ["chi2"]))
    assert res.v2.equals(VarietyIdeal(r1.h_ring, ["chi1"]))
    doubled = direct_sum(direct_sum(ax, ay), ax)
    res = check_carlson(
        doubled, VarietyIdeal(r1.h_ring, ["chi2"]), VarietyIdeal(r1.h_ring, ["chi1"])
    )
    assert (len(res.group1), len(res.group2)) == (2, 1)
    assert doubled._resolution is None and res.c1._resolution is None
    assert res.v1.equals(VarietyIdeal(r1.h_ring, ["chi2"]))


def test_carlson_refuses_attempts_before_any_variety(r1, monkeypatch):
    """An attempt count that is not a positive integer is refused at entry,
    before the premises: no support variety is computed and nothing
    decomposed."""
    m = direct_sum(
        present_module(r1, (0,), [["x"]]), present_module(r1, (0,), [["y"]])
    )
    for name in ("support_variety", "decompose"):
        monkeypatch.setattr(construct, name, lambda *a, **k: pytest.fail("called before the check"))
    for attempts, message in ((2.5, "attempts is 2.5"), (0, "must be positive"), (-3, "must be positive")):
        with pytest.raises(InputError, match=message):
            check_carlson(
                m, VarietyIdeal(r1.h_ring, ["chi2"]), VarietyIdeal(r1.h_ring, ["chi1"]),
                attempts=attempts,
            )


def test_no_reference_cycles_outlive_a_computation():
    """Nothing a resolution, a variety or a Carlson split leaves behind
    needs the cyclic collector: with it disabled, every object dies with
    its last reference, so a collection afterwards finds no garbage.  The
    rings are fresh, so their lazily filled tables are built here too."""
    gc.collect()
    gc.disable()
    try:
        for ci in (["x^2", "y^2"], ["x^2"]):
            rs = RingSpec(101, ["x", "y"], ci)
            m = present_module(rs, (0,), [["x"]])
            resolve_min(m, 4)
            support_variety(m)
            # Q/(y) is not MCM over F_101[x,y]/(x^2), so it is its own reduction
            artinian_reduction(present_module(rs, (0,), [["y"]]))
            del m, rs
        assert gc.collect() == 0
        r1 = RingSpec(101, ["x", "y"], ["x^2", "y^2"])
        m = direct_sum(present_module(r1, (0,), [["x"]]), present_module(r1, (0,), [["y"]]))
        check_carlson(m, VarietyIdeal(r1.h_ring, ["chi2"]), VarietyIdeal(r1.h_ring, ["chi1"]))
        del m
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_carlson_free_summands_are_neutral(r1):
    m = direct_sum(
        direct_sum(present_module(r1, (0,), [["x"]]), free_module(r1, (2,))),
        present_module(r1, (0,), [["y"]]),
    )
    res = check_carlson(
        m, VarietyIdeal(r1.h_ring, ["chi2"]), VarietyIdeal(r1.h_ring, ["chi1"])
    )
    assert len(res.free) == 1
    assert res.verdict is True


def test_carlson_premise_union_mismatch(r1):
    m = direct_sum(
        present_module(r1, (0,), [["x"]]), present_module(r1, (0,), [["y"]])
    )
    with pytest.raises(PremiseError):
        check_carlson(
            m, VarietyIdeal(r1.h_ring, ["chi1"]), VarietyIdeal(r1.h_ring, ["chi1"])
        )


def test_carlson_premise_nontrivial_intersection(r1):
    k = residue_field(r1)
    # V(k) is the whole plane; (chi1) and (chi2) cover only the axes
    with pytest.raises(PremiseError):
        check_carlson(
            k, VarietyIdeal(r1.h_ring, ["chi1"]), VarietyIdeal(r1.h_ring, ["chi2"])
        )


def test_carlson_premise_infinite_length(r4):
    with pytest.raises(PremiseError):
        check_carlson(
            free_module(r4, (0,)),
            VarietyIdeal(r4.h_ring, ["chi1"]),
            VarietyIdeal(r4.h_ring, []),
        )


def test_carlson_premise_mcm_is_read_off_the_ring(r4, monkeypatch):
    """k over R4 and over B = F_101[x,y,z,w]/(x^2, y^2, z^2) has finite
    length, so depth 0 < dim Q: it is refused as not MCM with no MCM test."""
    for name in ("is_mcm", "_ext_into_q_vanishes"):
        monkeypatch.setattr(resolve, name, lambda pres: pytest.fail("MCM test run"))
    b = RingSpec(101, ["x", "y", "z", "w"], ["x^2", "y^2", "z^2"])
    for rs in (r4, b):
        k = present_module(rs, (0,), [[v] for v in rs.ring.vars])
        with pytest.raises(PremiseError) as exc:
            check_carlson(k, VarietyIdeal(rs.h_ring, ["chi1"]), VarietyIdeal(rs.h_ring, []))
        assert str(exc.value) == "module is not maximal Cohen-Macaulay"


def test_carlson_single_sided_split(r1):
    # M = A/(x) alone with a2 empty on its side: union must still match
    m1 = present_module(r1, (0,), [["x"]])
    a1 = VarietyIdeal(r1.h_ring, ["chi2"])
    a2 = VarietyIdeal(r1.h_ring, ["chi1", "chi2"])  # trivial piece
    res = check_carlson(m1, a1, a2)
    assert res.group1 == [0]
    assert res.group2 == []
    assert res.verdict is True
