"""Variety-directed constructions: Ext elements from operator polynomials,
the pushout module that cuts a variety by a hypersurface, realization of a
prescribed variety, idempotent splitting of finite-length modules, and the
two-group decomposition check for disjoint variety splits.

The pushout presentation is assembled literally: K is the cokernel of

    [ d_n   0  ]
    [ -T    d_1]

acting into F_{n-1} (+) F_0, where T is a chain-map representative of the
Ext element.  Grading works out when the F_0 block's generator degrees are
raised by the element's internal degree; with that convention the module
sits in an exact sequence between the original module (shifted) and its
(n-1)-st syzygy, and Hilbert functions add up degree by degree.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .arith import (
    FreeElt,
    _drl_key,
    _eliminate,
    add_terms,
    factor_univariate,
    matmul,
    nullspace,
    poly1_divmod,
    poly1_mul,
    poly1_xgcd,
    require_integer,
    rref,
)
from .errors import (
    InputError,
    InternalError,
    PremiseError,
    ResourceBudgetError,
    VerificationError,
)
from .groebner import SubmoduleOracle
from .cohomology import VarietyIdeal, lift_and_operators, support_variety
from .resolve import (
    ModulePresentation,
    RingSpec,
    apply_columns,
    direct_sum,
    present_from_vector_model,
    prune_units,
    residue_field,
    resolve_min,
    syzygy_module,
    vector_model,
)

# idempotent search budget and seed, shared with the command line
DEFAULT_ATTEMPTS = 64
DEFAULT_SEED = 0xC15


class ExtElement:
    """A homogeneous element of Ext^n(M, M) represented by a chain map: T is
    the component landing in resolution step 0, as columns indexed by the
    step-n generators.  n = 2 * (degree in the chi's); internal_degree is the
    polynomial-degree shift the element carries (the f_j are not linear, so
    the operators shift internal degrees)."""

    __slots__ = ("pres", "res", "n", "internal_degree", "cols", "h")

    def __init__(self, pres, res, n, internal_degree, cols, h):
        self.pres = pres
        self.res = res
        self.n = n
        self.internal_degree = internal_degree
        self.cols = cols
        self.h = h


def _apply(rs: RingSpec, cols, v, shifts):
    """v's image under the map with these columns, into the free module on
    generators of degrees `shifts`, reduced modulo the ring's relations."""
    w = apply_columns(cols, v, len(shifts), shifts)
    return rs.qnf_elt(w) if w.terms else w


def _cut_element(rs: RingSpec, h, what: str, **where):
    """(2d, e) for an operator polynomial h that lives in rs's operator ring,
    is nonzero and homogeneous of degree d >= 1, and whose monomials chi^a
    share one internal degree e = sum_j a_j deg f_j.  Otherwise InputError
    naming h as `what`, with `where` among its details."""
    if h.ring != rs.h_ring:
        raise InputError(f"{what} lives in a different ring", **where)
    if h.is_zero():
        raise InputError(f"{what} must be nonzero", **where)
    d = h.homogeneous_degree()
    if d in (None, 0):
        raise InputError(f"{what} must be homogeneous of positive degree", **where)
    degrees = sorted({sum(a * e for a, e in zip(m, rs.ci_degs)) for _slot, m in h.terms})
    if len(degrees) != 1:
        msg = f"{what}: monomials of mixed internal degree cannot represent one graded map"
        raise InputError(msg, degrees=degrees, **where)
    return 2 * d, degrees[0]


def phi(pres: ModulePresentation, h) -> ExtElement:
    """The image of a homogeneous operator polynomial h in Ext^{2d}(M, M),
    h checked by `_cut_element` and built by `_ext_element`."""
    rs = pres.rs
    h = rs.h_ring.parse(h) if isinstance(h, str) else h
    return _ext_element(pres, h, *_cut_element(rs, h, "operator polynomial"))


def _ext_element(pres: ModulePresentation, h, n: int, e: int) -> ExtElement:
    """phi for a checked h of Ext degree n and internal degree e: for each
    monomial chi^a, compose the chain maps t_j in ascending variable index
    starting at step 0 (lowest factor acts last in the composite, nearest
    F_0), then combine with h's coefficients.  The result is a cocycle by
    construction; that is asserted, not assumed."""
    rs = pres.rs
    res = resolve_min(pres, n + 1)
    lift_and_operators(res, n - 1)
    shifts0 = res.degs[0]
    total = [FreeElt(rs.ring, len(shifts0), {}, shifts0) for _ in range(len(res.degs[n]))]
    for (_slot, m), coeff in sorted(h.terms.items(), key=lambda t: _drl_key(t[0][1]), reverse=True):
        # factors ascending variable index from level 0 upward; composition
        # is built from the top level downward, t_j: F_{level+2} -> F_level
        js = [j for j in range(rs.codim) for _ in range(m[j])]
        level = n - 2
        cols = res.ops.cols[js[-1]][level + 1]
        for j in reversed(js[:-1]):
            level -= 2
            cols = [_apply(rs, res.ops.cols[j][level + 1], col, res.degs[level]) for col in cols]
        for c in range(len(total)):
            total[c] = total[c] + cols[c].scale(coeff)
    # cocycle audit: T must send im d_{n+1} into im d_1
    oracle = SubmoduleOracle(list(res.diffs[1]), quotient=rs.ci_gb)
    for c, v in enumerate(res.diffs[n + 1]):
        if not oracle.contains(_apply(rs, total, v, shifts0)):
            raise InternalError("chain map failed the cocycle condition", column=c)
    return ExtElement(pres, res, n, e, total, h)


def pushout_cut(pres: ModulePresentation, theta: ExtElement) -> ModulePresentation:
    """The module K cutting M's variety by theta's hypersurface: cokernel of
    [[d_n, 0], [-T, d_1]] into F_{n-1} (+) F_0, the F_0 generators shifted up
    by theta's internal degree, then unit-pruned.  K fits in an exact
    sequence 0 -> M -> K -> Omega^{n-1} M -> 0, so when M is maximal
    Cohen-Macaulay by a recorded verdict, so is K (the depth lemma), and K
    carries that verdict for `is_mcm`."""
    if theta.pres is not pres:
        raise InputError("the Ext element was built on a different module")
    rs = pres.rs
    res = theta.res
    n = theta.n
    e = theta.internal_degree
    res.extend(n)
    top = res.degs[n - 1]
    bot = tuple(dd + e for dd in res.degs[0])
    gens = tuple(top) + bot
    rank = len(gens)
    nt = len(top)
    cols = []
    for v, tcol in zip(res.diffs[n], theta.cols):
        below = {(nt + r, m): cf for (r, m), cf in tcol.terms.items()}
        cols.append(FreeElt(rs.ring, rank, add_terms(v.terms, below, -1, rs.p), gens))
    for v in res.diffs[1]:
        terms = {(nt + r, m): cf for (r, m), cf in v.terms.items()}
        cols.append(FreeElt(rs.ring, rank, terms, gens))
    out = prune_units(ModulePresentation(rs, gens, cols))
    if pres._mcm:
        out._mcm = True
    return out


def realize(rs: RingSpec, etas, verify: bool = True) -> ModulePresentation:
    """Construct a module whose variety is V_H(etas): start from the
    dim-A-th syzygy of the residue field (the full variety, MCM) and cut by
    each eta in turn.  Every eta is checked (`_cut_element`) before the
    first cut, and only there.  With verify on, the result's computed
    variety is checked against the target up to radical; it stays cached on
    the result (`support_variety`)."""
    h_ring = rs.h_ring
    polys = [h_ring.parse(s) if isinstance(s, str) else s for s in etas]
    degrees = [_cut_element(rs, eta, f"cut element {i}", index=i) for i, eta in enumerate(polys)]
    current = syzygy_module(residue_field(rs), rs.dim)
    for eta, (n, e) in zip(polys, degrees):
        current = pushout_cut(current, _ext_element(current, eta, n, e))
    if verify:
        got = support_variety(current)
        want = VarietyIdeal(h_ring, polys)
        if not got.equals(want):
            raise VerificationError(
                "realized module's variety differs from the target",
                computed=[str(g) for g in got.gens],
                target=[str(g) for g in want.gens],
            )
    return current


# ---------------------------------------------------------------------------
# idempotent splitting


class DecompositionResult(
    namedtuple(
        "DecompositionResult", ("summands", "possibly_decomposable", "models"), defaults=((),)
    )
):
    """Summands in a deterministic order.  possibly_decomposable[i] is True
    when the attempt budget ran out before either finding an idempotent or
    certifying the endomorphism algebra local; such summands may split
    further.  models[i] is summand i's vector model as (degrees, actions):
    a tuple of basis degrees and, per ring variable, the action as sparse
    columns, as in `VectorModel`."""

    __slots__ = ()


# A matrix here is an endomorphism of the vector model, kept as sparse
# columns like its actions, so `matmul(a, b, p)` is b after a.


def _identity(dim: int) -> list[dict]:
    return [{c: 1} for c in range(dim)]


def _graded_endo_basis(degs, actions, p):
    """Basis of degree-0 endomorphisms: block matrices Z (one block per
    degree) commuting with every variable action X.  The unknowns are the
    entries of the blocks, by ascending degree, each block row by row, and
    there is one equation per action and entry of X Z - Z X, built straight
    from the nonzero entries of X: X[i, a] is the coefficient of Z[a, j] at
    entry (i, j), for every j of the degree of a, and minus that of Z[k, i]
    at entry (k, a), for every k of the degree of i."""
    blocks = {}
    for c, d in enumerate(degs):
        blocks.setdefault(d, []).append(c)
    cells, at = [], {}
    for d in sorted(blocks):
        for r in blocks[d]:
            for c in blocks[d]:
                at[r, c] = len(cells)
                cells.append((r, c))
    eqs = {}
    for x, cols in enumerate(actions):
        for a, col in enumerate(cols):
            for i, v in col.items():
                for j in blocks[degs[a]]:
                    eqs.setdefault((x, i, j), {})[at[a, j]] = v
                for k in blocks[degs[i]]:
                    eqs.setdefault((x, k, a), {})[at[k, i]] = p - v
    basis = []
    for vec in nullspace(list(eqs.values()), len(cells), p).values():
        z = [{} for _ in degs]
        for n, v in vec.items():
            r, c = cells[n]
            z[c][r] = v
        basis.append(z)
    return basis


def _min_poly(a, p: int):
    """Minimal polynomial of a over F_p, ascending coefficients, monic.  The
    flattened powers I, a, a^2, .. are reduced one at a time against the
    pivot rows of the powers before them (`_eliminate` with its `tails`
    kept).  The row of a^k carries a tag 1 in column n^2 + n - k, right of
    the n^2 entries, so the newest power's tag is the leftmost; reduction
    keeps every row's entries equal to the sum of its tags times their
    powers.  The first a^k whose entries reduce away leaves a row of tags
    only, 1 at its own: the relation a^k + c_{k-1} a^{k-1} + ... + c_0 = 0
    of least degree, which is unique."""
    n = len(a)
    size = n * n
    tails = {}
    power = _identity(n)
    k = 0
    while True:
        row = {c * n + r: v for c, col in enumerate(power) for r, v in col.items()}
        row[size + n - k] = 1
        _eliminate([row], p, tails)
        rel = tails.get(size + n - k)
        if rel is not None:
            return [rel.get(size + n - i, 0) for i in range(k)] + [1]
        power = matmul(power, a, p)
        k += 1


def _eval_matrix(coeffs, a, p: int):
    """The polynomial with ascending `coeffs` at a, by Horner's rule."""
    out = [{} for _ in a]
    for c in reversed(coeffs):
        out = [add_terms(col, {i: 1}, c, p) for i, col in enumerate(matmul(out, a, p))]
    return out


def _column_space_by_degree(mat, degs, p):
    """Basis of the image of a degree-0 map, as vectors grouped by
    ascending degree; deterministic via reduced echelon form per degree
    block."""
    out = []
    for d in sorted(set(degs)):
        out += rref([dict(col) for col, e in zip(mat, degs) if e == d], p)[0]
    return out


def _restrict(actions, basis, p):
    """Actions in the coordinates of the given basis vectors, as sparse
    columns.  The basis is reduced (`_column_space_by_degree`): vector i is
    1 at its pivot, its least index, and every other vector is 0 there, so
    an image's coordinates are its entries at the pivots.  An image those
    coordinates do not rebuild exactly leaves the span, which is then not
    closed under the action."""
    pivots = [min(v) for v in basis]
    out = []
    for cols in actions:
        restricted = []
        for image in matmul(basis, cols, p):
            coords = {i: image[c] for i, c in enumerate(pivots) if c in image}
            rebuilt = {}
            for i, a in coords.items():
                rebuilt = add_terms(rebuilt, basis[i], a, p)
            if rebuilt != image:
                raise InternalError("projector image is not action-stable")
            restricted.append(coords)
        out.append(restricted)
    return out


def _split_once(degs, actions, p, rng, attempts):
    """Search for a nontrivial idempotent endomorphism.  Returns either
    ('split', (degsA, actsA), (degsB, actsB)), ('local', None, None) when
    the endomorphism algebra is provably local (dimension 1), or
    ('unknown', None, None) when the budget ran out."""
    dim = len(degs)
    if dim <= 1:
        return "local", None, None
    basis = _graded_endo_basis(degs, actions, p)
    if len(basis) == 1:
        return "local", None, None
    one = _identity(dim)
    for _ in range(attempts):
        a = [{} for _ in range(dim)]
        for z in basis:
            r = rng.randrange(p)
            a = [add_terms(acc, col, r, p) for acc, col in zip(a, z)]
        mu = _min_poly(a, p)
        factors = factor_univariate(mu, p, rng)
        if len(factors) < 2:
            continue
        q1, m1 = factors[0]
        g1 = [1]
        for _ in range(m1):
            g1 = poly1_mul(g1, q1, p)
        g2 = poly1_divmod(mu, g1, p)[0]
        _, u, _v = poly1_xgcd(g1, g2, p)
        eps = matmul(_eval_matrix(g1, a, p), _eval_matrix(u, a, p), p)
        if not any(eps) or eps == one:
            continue
        if matmul(eps, eps, p) != eps:
            raise InternalError("projector construction failed idempotency")
        other = [add_terms({c: 1}, col, -1, p) for c, col in enumerate(eps)]
        b1 = _column_space_by_degree(eps, degs, p)
        b2 = _column_space_by_degree(other, degs, p)
        if not b1 or not b2:
            continue
        degs1 = tuple(degs[min(v)] for v in b1)
        degs2 = tuple(degs[min(v)] for v in b2)
        return "split", (degs1, _restrict(actions, b1, p)), (degs2, _restrict(actions, b2, p))
    return "unknown", None, None


def _require_attempts(attempts) -> None:
    require_integer("attempts", attempts)
    if attempts < 1:
        raise InputError("attempts must be positive", value=attempts)


def decompose(
    pres: ModulePresentation,
    attempts: int = DEFAULT_ATTEMPTS,
    seed: int = DEFAULT_SEED,
) -> DecompositionResult:
    """Split a finite-length module into (probable) indecomposables by
    idempotent splitting of the graded endomorphism algebra.  Deterministic
    for a fixed seed.  Summands are returned as minimal presentations,
    sorted by (dimension, generator degrees, relation text)."""
    _require_attempts(attempts)
    vm = vector_model(pres)
    rs = pres.rs
    p = rs.p
    rng = random.Random(seed)
    queue = [(vm.degs, vm.actions)]
    leaves = []
    while queue:
        degs, actions = queue.pop(0)
        if len(degs) == 0:
            continue
        verdict, part1, part2 = _split_once(degs, actions, p, rng, attempts)
        if verdict == "split":
            queue.append(part1)
            queue.append(part2)
        else:
            leaves.append((degs, actions, verdict == "unknown"))
    entries = []
    for degs, actions, unknown in leaves:
        sub = present_from_vector_model(rs, degs, actions)
        key = (
            len(degs),
            tuple(sorted(degs)),
            tuple(sorted(str(r) for r in sub.relations)),
        )
        entries.append((key, sub, unknown, (degs, actions)))
    entries.sort(key=lambda t: t[0])
    return DecompositionResult(
        summands=[e[1] for e in entries],
        possibly_decomposable=[e[2] for e in entries],
        models=[e[3] for e in entries],
    )


# ---------------------------------------------------------------------------
# disjoint-split decomposition check


class CarlsonResult(
    namedtuple(
        "CarlsonResult",
        ("m_variety", "group1", "group2", "free", "summands", "c1", "c2", "v1", "v2", "verdict"),
    )
):
    """Outcome of the two-group split: summand indices per group, the free
    leftovers, the two direct sums (`ModulePresentation`) with their
    computed varieties (`VarietyIdeal`), and the verdict (always True when
    returned; failures raise instead)."""

    __slots__ = ()


def check_carlson(
    pres: ModulePresentation,
    a1: VarietyIdeal,
    a2: VarietyIdeal,
    attempts: int = DEFAULT_ATTEMPTS,
    seed: int = DEFAULT_SEED,
) -> CarlsonResult:
    """Verify the decomposition statement for a disjoint split of the
    variety: if V(M) = V1 union V2 with trivial intersection, M splits as
    C1 (+) C2 with V(C_i) = V_i (free summands are variety-neutral and are
    reported separately).

    The pieces are ideals over k = F_p, so this checks the k-rational
    reading: the variety of an indecomposable summand is connected as a
    k-scheme, not necessarily over the algebraic closure.  Over
    F_101[x,y]/(x^2, y^2) the module realizing V(chi1^2 - 2 chi2^2) is
    indecomposable, yet its projective variety over the closure is two
    conjugate points, since 2 is not a square mod 101.

    The checks run in this order.  A count of attempts that is not a
    positive integer is refused first, with InputError.  Then PremiseError
    for M of infinite length, and for M not MCM, which a nonzero M of finite
    length is exactly when dim Q > 0 (its depth is 0); InputError for
    pieces over another operator ring.  Then M is decomposed, and V(M) is
    the variety of the direct sum of the summands (`resolve.direct_sum`),
    which `support_variety` reads on their resolutions: neither M nor the
    sum is resolved, and V(M) is not kept on M.  PremiseError follows for
    pieces that do not cover V(M) and for pieces that meet outside the
    origin.  Each summand's variety comes from its own resolution; one
    that fits in neither or both sides contradicts the statement and
    raises VerificationError, and budget-flagged summands make that test
    inconclusive and raise ResourceBudgetError instead.  A group is the
    direct sum of its summands, its variety read the same way, or the zero
    module with the origin when empty; each must reproduce its piece, or
    VerificationError."""
    _require_attempts(attempts)
    rs = pres.rs
    try:
        length = vector_model(pres).dim
    except InputError as exc:
        raise PremiseError(f"module must have finite length: {exc}") from exc
    if length and rs.dim:
        # a nonzero module of finite length has depth 0 < dim Q
        raise PremiseError("module is not maximal Cohen-Macaulay")
    if a1.h_ring != rs.h_ring or a2.h_ring != rs.h_ring:
        raise InputError("variety ideals live in a different operator ring")
    dec = decompose(pres, attempts=attempts, seed=seed)
    # a zero M has no summands and is its own empty sum
    vm_variety = support_variety(direct_sum(*dec.summands) if dec.summands else pres)
    if not a1.union(a2).equals(vm_variety):
        raise PremiseError(
            "the two pieces do not cover the module's variety",
            union=[str(g) for g in a1.union(a2).gens],
            variety=[str(g) for g in vm_variety.gens],
        )
    if not a1.intersect(a2).is_trivial():
        raise PremiseError(
            "the two pieces intersect nontrivially",
            intersection=[str(g) for g in a1.intersect(a2).gens],
        )
    group1, group2, free = [], [], []
    for i, sub in enumerate(dec.summands):
        v = support_variety(sub)
        if v.is_trivial():
            free.append(i)
            continue
        in1 = a1.contains_variety(v)
        in2 = a2.contains_variety(v)
        if in1 and in2:
            raise VerificationError(
                "summand variety is nontrivial yet inside both pieces "
                "(contradicts trivial intersection)",
                summand=i,
            )
        if not in1 and not in2:
            if dec.possibly_decomposable[i]:
                raise ResourceBudgetError(
                    "a possibly-decomposable summand fits neither piece; "
                    "raise the attempt budget",
                    summand=i,
                )
            raise VerificationError(
                "indecomposable summand fits neither piece of the split",
                summand=i,
                variety=[str(g) for g in v.gens],
            )
        (group1 if in1 else group2).append(i)
    sums = []
    for group in (group1, group2):
        if group:
            c = direct_sum(*(dec.summands[i] for i in group))
            sums.append((c, support_variety(c)))
        else:
            sums.append((ModulePresentation(rs, (), ()), VarietyIdeal(rs.h_ring, rs.h_ring.gens())))
    (c1, v1), (c2, v2) = sums
    ok1 = v1.equals(a1) if c1.rank else a1.is_trivial()
    ok2 = v2.equals(a2) if c2.rank else a2.is_trivial()
    if not (ok1 and ok2):
        raise VerificationError(
            "group varieties do not reproduce the prescribed split",
            v1=[str(g) for g in v1.gens],
            v2=[str(g) for g in v2.gens],
            a1=[str(g) for g in a1.gens],
            a2=[str(g) for g in a2.gens],
        )
    return CarlsonResult(
        m_variety=vm_variety,
        group1=group1,
        group2=group2,
        free=free,
        summands=dec.summands,
        c1=c1,
        c2=c2,
        v1=v1,
        v2=v2,
        verdict=True,
    )
