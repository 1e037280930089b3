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
from dataclasses import dataclass, field

import numpy as np

from .arith import (
    FreeElt,
    factor_univariate,
    matmul,
    nullspace,
    poly1_divmod,
    poly1_mul,
    poly1_xgcd,
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
    is_mcm,
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


def _compose_down(res, cols_high, level, j):
    """Precompose: given a map F_m -> F_{level+2} (columns cols_high in
    F_{level+2}) apply t_j: F_{level+2} -> F_{level} to every column."""
    rs = res.rs
    t_cols = res.ops.cols[j][level + 1]
    rank = len(res.degs[level])
    shifts = res.degs[level]
    out = []
    for col in cols_high:
        w = apply_columns(t_cols, col, rank, shifts)
        out.append(rs.qnf_elt(w) if w.terms else w)
    return out


def phi(pres: ModulePresentation, h) -> ExtElement:
    """The image of a homogeneous operator polynomial h in Ext^{2d}(M, M):
    for each monomial chi^a, compose the chain maps t_j in ascending variable
    index starting at step 0 (lowest factor acts last in the composite,
    nearest F_0), then combine with h's coefficients.  The result is a
    cocycle by construction; that is asserted, not assumed."""
    rs = pres.rs
    h = rs.h_ring.parse(h) if isinstance(h, str) else h
    if h.ring != rs.h_ring:
        raise InputError("operator polynomial lives in a different ring")
    d = h.homogeneous_degree()
    if d is None:
        raise InputError("operator polynomial must be homogeneous")
    if d < 1:
        raise InputError("operator polynomial must have positive degree")
    internal = {
        sum(a * rs.ci_degs[j] for j, a in enumerate(m)) for _slot, m in h.terms
    }
    if len(internal) != 1:
        raise InputError(
            "monomials of mixed internal degree cannot represent one graded map",
            degrees=sorted(internal),
        )
    e = internal.pop()
    n = 2 * d
    res = resolve_min(pres, n + 1)
    lift_and_operators(res, n - 1)
    b0 = len(res.degs[0])
    shifts0 = res.degs[0]
    total = [FreeElt(rs.ring, b0, {}, shifts0) for _ in range(len(res.degs[n]))]
    key = rs.h_ring.order.key
    for (_slot, m), coeff in sorted(h.terms.items(), key=lambda t: key(t[0][1]), reverse=True):
        # factors ascending variable index from level 0 upward; composition
        # is built from the top level downward
        js = [j for j in range(rs.codim) for _ in range(m[j])]
        level = n - 2
        cols = res.ops.cols[js[-1]][level + 1]
        for j in reversed(js[:-1]):
            level -= 2
            cols = _compose_down(res, cols, level, j)
        for c in range(len(total)):
            total[c] = total[c] + cols[c].scale(coeff)
    # cocycle audit: T must send im d_{n+1} into im d_1
    oracle = SubmoduleOracle(list(res.diffs[1]), quotient=rs.ci_gb)
    for c, v in enumerate(res.diffs[n + 1]):
        w = apply_columns(total, v, b0, shifts0)
        if w.terms:
            w = rs.qnf_elt(w)
        if not oracle.contains(w):
            raise InternalError("chain map failed the cocycle condition", column=c)
    return ExtElement(pres, res, n, e, total, h)


def pushout_cut(pres: ModulePresentation, theta: ExtElement) -> ModulePresentation:
    """The module K cutting M's variety by theta's hypersurface: cokernel of
    [[d_n, 0], [-T, d_1]] into F_{n-1} (+) F_0, the F_0 generators shifted up
    by theta's internal degree, then unit-pruned."""
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
    for c, v in enumerate(res.diffs[n]):
        terms = dict(v.terms)
        tcol = theta.cols[c]
        for (r, m), cf in tcol.terms.items():
            key = (nt + r, m)
            cur = (terms.get(key, 0) - cf) % rs.p
            if cur:
                terms[key] = cur
            else:
                terms.pop(key, None)
        cols.append(FreeElt(rs.ring, rank, terms, gens))
    for v in res.diffs[1]:
        terms = {(nt + r, m): cf for (r, m), cf in v.terms.items()}
        cols.append(FreeElt(rs.ring, rank, terms, gens))
    raw = ModulePresentation(rs, gens, cols)
    return prune_units(raw)


def realize(rs: RingSpec, etas, verify: bool = True) -> ModulePresentation:
    """Construct a module whose variety is V_H(etas): start from the
    dim-A-th syzygy of the residue field (the full variety, MCM) and cut by
    each eta in turn.  With verify on, the result's computed variety is
    checked against the target up to radical."""
    h_ring = rs.h_ring
    polys = [h_ring.parse(s) if isinstance(s, str) else s for s in etas]
    current = syzygy_module(residue_field(rs), rs.dim)
    for i, eta in enumerate(polys):
        if eta.is_zero() or eta.homogeneous_degree() in (None, 0):
            raise InputError(f"cut element {i} must be homogeneous of positive degree", index=i)
        theta = phi(current, eta)
        current = pushout_cut(current, theta)
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


@dataclass
class DecompositionResult:
    """Summands in a deterministic order.  possibly_decomposable[i] is True
    when the attempt budget ran out before either finding an idempotent or
    certifying the endomorphism algebra local; such summands may split
    further."""

    summands: list
    possibly_decomposable: list
    models: list = field(default_factory=list)


def _graded_endo_basis(degs, actions, p):
    """Basis of degree-0 endomorphisms: block matrices (one block per
    degree) commuting with every variable action.  Returned as full-size
    matrices."""
    dim = len(degs)
    uniq = sorted(set(int(x) for x in degs))
    idx = {d: np.flatnonzero(degs == d) for d in uniq}
    offs = {}
    total = 0
    for d in uniq:
        s = len(idx[d])
        offs[d] = total
        total += s * s
    # X Z_d - Z_{d+1} X = 0 for each action X: Z_d -> Z_{d+1} block, on the
    # row-major entries of the Z blocks: vec(X Z) = (X kron I) vec(Z) and
    # vec(Z X) = (I kron X^T) vec(Z)
    blocks = []
    for mat in actions:
        for d in uniq:
            src, dst = idx[d], idx.get(d + 1, ())
            s, t = len(src), len(dst)
            if s == 0 or t == 0:
                continue
            x_loc = mat[np.ix_(dst, src)]
            eqs = np.zeros((t * s, total), dtype=np.int64)
            eqs[:, offs[d] : offs[d] + s * s] = np.kron(x_loc, np.eye(s, dtype=np.int64))
            eqs[:, offs[d + 1] : offs[d + 1] + t * t] = -np.kron(np.eye(t, dtype=np.int64), x_loc.T) % p
            blocks.append(eqs[eqs.any(axis=1)])
    if blocks:
        kernel = nullspace(np.concatenate(blocks, axis=0), p)
    else:
        kernel = np.eye(total, dtype=np.int64)
    basis = []
    for vec in kernel:
        z = np.zeros((dim, dim), dtype=np.int64)
        for d in uniq:
            s = len(idx[d])
            block = vec[offs[d] : offs[d] + s * s].reshape(s, s)
            z[np.ix_(idx[d], idx[d])] = block
        basis.append(z)
    return basis


def _min_poly(a: np.ndarray, p: int):
    """Minimal polynomial of a over F_p, ascending coefficients, monic.  The
    flattened powers I, a, a^2, .. are the columns of one matrix, one more
    each round, until the newest one, a^k, is not a pivot of its `rref`;
    that column of the echelon form then holds a^k in the powers below it."""
    powers = [np.eye(a.shape[0], dtype=np.int64).reshape(-1)]
    while True:
        powers.append(matmul(a, powers[-1].reshape(a.shape), p).reshape(-1))
        k = len(powers) - 1
        r, pivots = rref(np.stack(powers, axis=1), p)
        if k not in pivots:
            return [(-int(c)) % p for c in r[:k, k]] + [1]


def _eval_matrix(coeffs, a: np.ndarray, p: int) -> np.ndarray:
    out = np.zeros_like(a)
    eye = np.eye(a.shape[0], dtype=np.int64)
    for c in reversed(coeffs):
        out = (matmul(out, a, p) + c * eye) % p
    return out


def _column_space_by_degree(mat, degs, p):
    """Basis of the image of a degree-0 map, columns grouped by ascending
    degree; deterministic via reduced echelon form per degree block."""
    cols = []
    for d in sorted(set(int(x) for x in degs)):
        idx = np.flatnonzero(degs == d)
        if idx.size == 0:
            continue
        block = mat[:, idx]
        r, piv = rref(block.T % p, p)
        for row_i in range(len(piv)):
            cols.append(r[row_i])
    if not cols:
        return np.zeros((mat.shape[0], 0), dtype=np.int64)
    return np.stack(cols, axis=1)


def _restrict(actions, basis, p):
    """Action matrices in the coordinates of the given column basis;
    requires the subspace to be closed under every action."""
    s = basis.shape[1]
    out = []
    for mat in actions:
        y = matmul(mat, basis, p)
        aug = np.concatenate([basis, y], axis=1)
        r, piv = rref(aug, p)
        if any(pc >= s for pc in piv):
            raise InternalError("projector image is not action-stable")
        out.append(r[:s, s:] % p)
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
    for _ in range(attempts):
        a = np.zeros((dim, dim), dtype=np.int64)
        for z in basis:
            a = (a + rng.randrange(p) * z) % p
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
        eps = matmul(_eval_matrix(u, a, p), _eval_matrix(g1, a, p), p)
        if not eps.any() or not (eps - np.eye(dim, dtype=np.int64)).any():
            continue
        if ((matmul(eps, eps, p) - eps) % p).any():
            raise InternalError("projector construction failed idempotency")
        other = (np.eye(dim, dtype=np.int64) - eps) % p
        b1 = _column_space_by_degree(eps, degs, p)
        b2 = _column_space_by_degree(other, degs, p)
        if b1.shape[1] == 0 or b2.shape[1] == 0:
            continue
        degs1 = np.array([int(degs[int(np.flatnonzero(b1[:, c])[0])]) for c in range(b1.shape[1])], dtype=np.int64)
        degs2 = np.array([int(degs[int(np.flatnonzero(b2[:, c])[0])]) for c in range(b2.shape[1])], dtype=np.int64)
        acts1 = _restrict(actions, b1, p)
        acts2 = _restrict(actions, b2, p)
        return "split", (degs1, acts1), (degs2, acts2)
    return "unknown", None, None


def decompose(
    pres: ModulePresentation,
    attempts: int = DEFAULT_ATTEMPTS,
    seed: int = DEFAULT_SEED,
) -> DecompositionResult:
    """Split a finite-length module into (probable) indecomposables by
    idempotent splitting of the graded endomorphism algebra.  Deterministic
    for a fixed seed.  Summands are returned as minimal presentations,
    sorted by (dimension, generator degrees, relation text)."""
    vm = vector_model(pres)
    rs = pres.rs
    p = rs.p
    rng = random.Random(seed)
    queue = [(vm.degs.copy(), [m.copy() for m in vm.actions])]
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
            tuple(sorted(int(d) for d in degs)),
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


@dataclass
class CarlsonResult:
    """Outcome of the two-group split: summand indices per group, the free
    leftovers, the two direct sums with their computed varieties, and the
    verdict (always True when returned; failures raise instead)."""

    m_variety: VarietyIdeal
    group1: list
    group2: list
    free: list
    summands: list
    c1: ModulePresentation
    c2: ModulePresentation
    v1: VarietyIdeal
    v2: VarietyIdeal
    verdict: bool


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

    Premise violations (not finite length, not MCM, split does not match
    V(M), intersection not trivial) raise PremiseError.  A summand whose
    variety fits in neither or both sides contradicts the statement and
    raises VerificationError; budget-flagged summands make that test
    inconclusive and raise ResourceBudgetError instead."""
    rs = pres.rs
    try:
        vector_model(pres)
    except InputError as exc:
        raise PremiseError(f"module must have finite length: {exc}") from exc
    if not is_mcm(pres):
        raise PremiseError("module is not maximal Cohen-Macaulay")
    if a1.h_ring != rs.h_ring or a2.h_ring != rs.h_ring:
        raise InputError("variety ideals live in a different operator ring")
    vm_variety = support_variety(pres)
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
    dec = decompose(pres, attempts=attempts, seed=seed)
    group1, group2, free = [], [], []
    varieties = []
    for i, sub in enumerate(dec.summands):
        v = support_variety(sub)
        varieties.append(v)
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
    c1 = _direct_sum_of(rs, [dec.summands[i] for i in group1])
    c2 = _direct_sum_of(rs, [dec.summands[i] for i in group2])

    def group_variety(group, c):
        if len(group) == 1:
            # c is that summand itself, whose variety the loop above read
            return varieties[group[0]]
        return support_variety(c) if c.rank else VarietyIdeal(rs.h_ring, list(rs.h_ring.gens()))

    v1 = group_variety(group1, c1)
    v2 = group_variety(group2, c2)
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


def _direct_sum_of(rs: RingSpec, parts):
    if not parts:
        return ModulePresentation(rs, (), ())
    acc = parts[0]
    for nxt in parts[1:]:
        acc = direct_sum(acc, nxt)
    return acc
