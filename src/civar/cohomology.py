"""Cohomology operators, the module E(M,k) over H = k[chi_1..chi_c], and
support varieties.

The operators come out of the resolution the classical way (Eisenbud,
Trans. AMS 260, 1980): differentials over Q already carry normal-form
entries, so read them over the ambient ring P and compose two consecutive
ones.  The composite d~ d~ must reduce to zero modulo (f), and the ring's
normal-form table, which records x^m - NF(x^m) = sum_j c_{m,j} f_j for every
monomial it holds, lifts it to an exact identity d~ d~ = sum_j f_j t~_j.
Both maps are split by monomial into scalar blocks, so the composite is a
sum of block products, one per pair of monomials, and each table entry is
read once per monomial of the composite and applied to a whole block, for
every step lifted in one call.  The t~_j depend on the lift only up to a
syzygy of f_1..f_c; those are Koszul, with entries in (f), so reducing t~_j
modulo (f) gives well-defined chain maps of degree -2.  Their constant-term
matrices (transposed) are the chi_j action on E, kept as sparse columns:
the actions of k over a complete intersection are mostly zero (0.03 % of
the cells nonzero for k over five squares), so no dense matrix is formed,
and every elimination on E is `arith._eliminate` on sparse rows.

The annihilator is approximated by window linear algebra: for each degree d
the space K_d of homogeneous h with h-action zero on all composable windows
E^i -> E^{i+2d} inside the computed range.  The actions commute exactly, so
chi_j K_{d-1} lies in K_d; each degree solves only for what K_d holds beyond
those products, on the monomials outside their pivots, and one window at a
time, stopping once nothing is left (Lazard's degree-by-degree Macaulay
matrices, EUROCAL 1983, with the products of the degree below as known
rows).  Those new vectors are minimal generators of a_N, and the Groebner
basis starts from them.  Only the windows that start at a degree holding a
minimal H-generator of E are cut: every other E^i is the sum of the
chi_j E^{i-2}, so by commutation and induction on i an h that kills the
generator windows kills them all.

A degree-d candidate is tested only on E^i with i <= N - 2d, so it is
tested on every H-generator of E that the window 0..N sees only when
2d <= N - g_N, g_N the top degree of a minimal H-generator of E in 0..N
(counted as dim E^i minus the rank of [chi_1 E^{i-2} | ... | chi_c E^{i-2}],
ranks kept on E).  `annihilator_window` therefore builds a_N over
d <= (N - g_N) / 2 only, every degree cut at the same windows.
`support_variety` builds one E per variety and widens it in place, so each
action and each composite is built once, and each K_d once per set of
generator degrees.  E is finitely generated over H (Gulliksen 1974),
so g_N settles; a pair of windows is compared only once g_N = g_{N+2} with
at least two generator-free degrees above it.  The two
candidates are then compared up to radical, with the Betti-growth
complexity estimate as an independent guard on the dimension.

Over a non-artinian Q with a coordinate reduction Q/(x_S)
(`resolve.RingSpec.reduction`), E is read on Omega^d M / x_S Omega^d M,
d = dim Q: Omega^d M is maximal Cohen-Macaulay by the depth lemma, so x_S
is regular on it, its resolution and operators reduce mod x_S, and
E(Omega^d M) is E(M) from degree d on, a submodule of finite colength with
the same variety (Avramov-Buchweitz, Invent. Math. 2000).

A direct sum needs no resolution of its own: the minimal resolution of
M (+) N is the sum of theirs, its operators are block-diagonal, and so
E(M (+) N) = E(M) (+) E(N) as graded H-modules (Avramov-Buchweitz).  E is
built on a list of resolutions, one per summand, each action placing part s
after the earlier parts' basis vectors in both its degrees; one module is
the one-part list.  `resolve.direct_sum` records the summands of the sum it
builds, and `support_variety` runs its windows on their E and adds their
Betti numbers for its guard and meta, so a sum gets the variety its own
resolution would give, generators and meta alike.
"""

from __future__ import annotations

from .arith import FreeElt, _eliminate, matmul, mono_mul, nullspace, require_integer
from .errors import InputError, InternalError, StabilizationError
from .groebner import (
    _leads_dimension,
    groebner_basis,
    ideal_ops,
    normal_form,
    radical_membership,
)
from .resolve import (
    ModulePresentation, Resolution, artinian_reduction, resolve_min, syzygy_module,
)


class CiOperators:
    """For each j and each middle index i, the chain map t_j^{(i)} mapping
    resolution step i+1 to step i-1, stored as columns over Q."""

    __slots__ = ("upto", "cols")

    def __init__(self, c: int):
        self.upto = 0
        self.cols = [dict() for _ in range(c)]


def _blocks(cols) -> dict:
    """The columns of a map, each a {(row, monomial): residue} term dict,
    split by monomial into sparse scalar blocks {monomial: {column: {row:
    residue}}}."""
    out = {}
    for k, col in enumerate(cols):
        for (r, m), v in col.terms.items():
            blk = out.get(m)
            if blk is None:
                out[m] = {k: {r: v}}
            elif k in blk:
                blk[k][r] = v
            else:
                blk[k] = {r: v}
    return out


def _add_block(out: dict, key, c: int, blk: dict) -> None:
    """out[key] += c * blk on blocks {(step, column, row): integer},
    unreduced."""
    dst = out.get(key)
    if dst is None:
        out[key] = {at: c * v for at, v in blk.items()}
    else:
        for at, v in blk.items():
            dst[at] = dst.get(at, 0) + c * v


def _settle(blocks: dict, p: int) -> dict:
    """Blocks {key: {(step, column, row): integer}}, keyed by a monomial or
    by (j, monomial), reduced mod p, with no zero residue and no empty
    block."""
    out = {}
    for m, blk in blocks.items():
        blk = {at: x for at, v in blk.items() if (x := v % p)}
        if blk:
            out[m] = blk
    return out


def lift_and_operators(res: Resolution, upto: int) -> Resolution:
    """Extract the operators at middle indices 1..upto on monomial blocks.
    With d~_i and d~_{i+1} read over the ambient ring and split by monomial
    (`_blocks`), the composite is W = sum_mu x^mu W^(mu), W^(mu) the sum of
    the scalar products D_i^(m) D_{i+1}^(m') over m + m' = mu.  The blocks of
    every step not yet lifted are kept together, keyed (step, column, row),
    and lifted at once (`_lift`).  A nonzero NF(W) means the resolution is
    broken, and a lift that fails to reproduce W means the table is; both
    are internal invariant violations, never user error, reported at the
    first step and column where a column-by-column lift would fail
    (`_refuse`)."""
    rs = res.rs
    res.extend(upto + 1)
    if res.ops is None:
        res.ops = CiOperators(rs.codim)
    ops = res.ops
    steps = range(ops.upto + 1, upto + 1)
    p = rs.p
    w = {}
    up = None
    for i in steps:
        down = up if up is not None else _blocks(res.diffs[i])
        up = _blocks(res.diffs[i + 1])
        for m2, blk2 in up.items():
            for m1, blk1 in down.items():
                dst = w.setdefault(mono_mul(m1, m2), {})
                for k, col in blk2.items():
                    for c, a in col.items():
                        src = blk1.get(c)
                        if src is not None:
                            for r, v in src.items():
                                at = (i, k, r)
                                dst[at] = dst.get(at, 0) + a * v
    w = _settle(w, p)
    cols = [{i: [{} for _ in res.diffs[i + 1]] for i in steps} for _ in rs.ci]
    for (j, nu), blk in (_lift(rs, w) if w else {}).items():
        for (i, k, r), v in blk.items():
            if x := v % p:
                cols[j][i][k][r, nu] = x
    for j, per_step in enumerate(cols):
        for i, terms in per_step.items():
            lo = res.degs[i - 1]
            ops.cols[j][i] = [FreeElt(rs.ring, len(lo), t, lo) for t in terms]
    ops.upto = max(ops.upto, upto)
    return res


def _lift(rs, w: dict) -> dict:
    """The blocks of t_1..t_c, keyed (j, monomial), for the composite blocks
    w: NF(x^mu) and the quotients c_{mu,j} with
    x^mu - NF(x^mu) = sum_j c_{mu,j} f_j are read from the normal-form table
    of `ci_gb` once per monomial, by one `lift_terms` and one `reduce_terms`
    call whose slots index the monomials, and applied to whole blocks.  That
    is exact because NF and the lift are linear: u_j = sum_mu c_{mu,j} W^(mu),
    and t_j = NF(u_j) the same way.  NF(W) must vanish, and sum_j f_j u_j
    must reproduce W identically."""
    gb, p = rs.ci_gb, rs.p
    blocks = list(w.values())
    nw = len(blocks)
    probe = {(s, mu): 1 for s, mu in enumerate(w)}
    u = {}
    for j, quot in enumerate(gb.lift_terms(probe)):
        for (s, mm), c in quot.items():
            _add_block(u, (j, mm), c, blocks[s])
    u = _settle(u, p)
    # one more table read for NF(W), slots below nw, and for the monomials
    # of the u_j, slots from nw on
    slot = {}
    for _j, mm in u:
        if mm not in slot:
            slot[mm] = s = nw + len(slot)
            probe[s, mm] = 1
    nfw, nfs = {}, [[] for _ in slot]
    for (s, nu), c in gb.reduce_terms(probe).items():
        if s < nw:
            _add_block(nfw, nu, c, blocks[s])
        else:
            nfs[s - nw].append((nu, c))
    # exactness audit: sum_j f_j u_j must reproduce W identically
    check = {}
    for (j, mm), blk in u.items():
        for (_slot, fm), fc in rs.ci[j].terms.items():
            _add_block(check, mono_mul(fm, mm), fc, blk)
    nfw = _settle(nfw, p) if nfw else nfw
    check = _settle(check, p)
    if nfw or check != w:
        _refuse(w, nfw, check)
    t = {}
    for (j, mm), blk in u.items():
        for nu, c in nfs[slot[mm] - nw]:
            _add_block(t, (j, nu), c, blk)
    return t


def _refuse(w: dict, nfw: dict, check: dict):
    """Raise the error a column-by-column lift, step by step, meets first:
    the first (step, column) with a nonzero normal form of the composite w
    is broken, the first where the audit `check` differs from w lost
    exactness, and a broken column fails its audit too."""
    broken = min((at[:2] for blk in nfw.values() for at in blk), default=None)
    lost = min(
        (at[:2] for mu in w.keys() | check.keys()
         for at, _v in w.get(mu, {}).items() ^ check.get(mu, {}).items()),
        default=None,
    )
    if broken is not None and (lost is None or broken <= lost):
        raise InternalError(
            "composite differential does not vanish modulo the "
            "defining relations (broken resolution)",
            step=broken[0],
            column=broken[1],
            row=min(at[2] for blk in nfw.values() for at in blk if at[:2] == broken),
        )
    raise InternalError("operator extraction lost exactness", step=lost[0], column=lost[1])


def operator_columns(res: Resolution, j: int, lo: int):
    """Columns of t_j: step lo+2 -> step lo (middle index lo+1)."""
    return res.ops.cols[j][lo + 1]


class ExtKModule:
    """E(M,k) in cohomological degrees 0..steps: dims[i] = b_i, and for each
    j the action act[j][i]: E^i -> E^{i+2}, valid for i <= steps-2, stored
    as one sparse column {row of E^{i+2}: residue} per basis vector of E^i,
    no residue zero.  Composites of these maps commute exactly.  The memos
    of composites, of the ranks `generator_counts` reads and of the kernels
    `annihilator_window` solves hold nothing that depends on `steps`, so
    they stay valid when `widen` raises it."""

    __slots__ = ("rs", "steps", "dims", "act", "_composites", "_reached", "_kernels")

    def __init__(self, rs, steps, dims, act):
        self.rs = rs
        self.steps = steps
        self.dims = dims
        self.act = act
        self._composites = {}
        self._reached = {}
        self._kernels = {}

    def monomial_window(self, mono: tuple, i: int) -> list[dict]:
        """Composite action of the H-monomial chi^mono starting at E^i, as
        sparse columns like `act`, factors applied in ascending variable
        index (lowest index acts first).  Memoized; commutation makes the
        order mathematically irrelevant, the fixed order makes outputs
        reproducible."""
        d = sum(mono)
        if i + 2 * d > self.steps:
            raise InputError("window extends past the computed range")
        got = self._composites.get((mono, i))
        if got is not None:
            return got
        if d == 0:
            out = [{c: 1} for c in range(self.dims[i])]
        else:
            j = next(v for v, e in enumerate(mono) if e)
            rest = tuple(e - 1 if v == j else e for v, e in enumerate(mono))
            out = matmul(self.act[j][i], self.monomial_window(rest, i + 2), self.rs.p)
        self._composites[(mono, i)] = out
        return out

    def widen(self, parts, steps: int) -> "ExtKModule":
        """Extend E in place to degrees 0..steps of the direct sum of the
        resolutions `parts`, building only the actions it lacks; see
        `ext_k_module`.  E of a direct sum is the direct sum of the parts'
        E, so dims[i] adds up their b_i and each action is block-diagonal:
        part s takes the basis vectors of E^i after the earlier parts' b_i,
        in every degree i.  A single resolution is the one-part sum."""
        one = self.rs.ring._one_mono
        for res in parts:
            lift_and_operators(res, steps - 1 if steps >= 2 else 1)
        betti = [[len(res.degs[i]) for i in range(steps + 1)] for res in parts]
        self.dims = [sum(b[i] for b in betti) for i in range(steps + 1)]
        for j, per_i in enumerate(self.act):
            for lo in range(len(per_i), steps - 1):
                cols = []
                # the rows of E^{lo+2} that the parts before this one take
                below = 0
                for res, b in zip(parts, betti):
                    block = [{} for _ in range(b[lo])]
                    for c_idx, col in enumerate(operator_columns(res, j, lo)):
                        for (r, m), v in col.terms.items():
                            if m == one:
                                block[r][below + c_idx] = v
                    cols += block
                    below += b[lo + 2]
                per_i.append(cols)
        self.steps = steps
        return self


def ext_k_module(res: Resolution, steps: int) -> ExtKModule:
    """E^i = Hom(F_i, k) for i <= steps; the chi_j action is the transpose of
    t_j's constant-term matrix (reducing mod the variables kills everything
    of positive degree, and minimality makes the result independent of the
    lift).  The operators at middle index steps - 1 read d_steps, so the
    resolution is extended to step `steps` and no further.  A wider window
    over the same resolution is `widen` on the result, which keeps every
    action and memo built so far."""
    rs = res.rs
    return ExtKModule(rs, 0, [], [[] for _ in range(rs.codim)]).widen([res], steps)


class VarietyIdeal:
    """A support variety, carried as a homogeneous ideal in H up to radical.
    Generators are canonicalized to the reduced Groebner basis, so equal
    inputs produce byte-identical output; the basis is kept for membership
    and dimension.  All predicates are radical-invariant: containment is
    generator-wise radical membership, the union is the ideal product, the
    intersection the ideal sum.  `meta` starts empty; `support_variety`
    fills it on the ideal it accepts."""

    __slots__ = ("h_ring", "gens", "meta", "_gb", "_dim")

    def __init__(self, h_ring, gens):
        self.h_ring = h_ring
        polys = []
        for i, g in enumerate(gens):
            g = h_ring.parse(g) if isinstance(g, str) else g
            if g.ring != h_ring:
                raise InputError(f"generator {i} lives in a different ring", index=i)
            if g.is_zero():
                continue
            if g.homogeneous_degree() is None:
                raise InputError(f"generator {i} is not homogeneous", index=i)
            polys.append(g)
        self._gb = groebner_basis(polys) if polys else None
        self.gens = tuple(self._gb.scalar_elements()) if polys else ()
        self.meta = {}
        self._dim = None

    def _check(self, other: "VarietyIdeal"):
        if self.h_ring != other.h_ring:
            raise InputError("varieties over different operator rings")

    def _in_radical(self, g) -> bool:
        """Is g in the radical of the defining ideal?  Plain membership is
        tried first, a zero remainder modulo the kept basis; only when that
        fails does `radical_membership` build the basis of I + (1 - t g)."""
        if g.ring == self.h_ring and self._gb is not None and normal_form(g, self._gb)[0].is_zero():
            return True
        return radical_membership(g, list(self.gens), self.h_ring)

    def contains_element(self, g) -> bool:
        """Is g in the radical of the defining ideal?"""
        return self._in_radical(self.h_ring.parse(g) if isinstance(g, str) else g)

    def contains_variety(self, other: "VarietyIdeal") -> bool:
        """V(other) inside V(self): every defining generator of self lies in
        the radical of other's ideal."""
        self._check(other)
        return all(other._in_radical(g) for g in self.gens)

    def equals(self, other: "VarietyIdeal") -> bool:
        return self.contains_variety(other) and other.contains_variety(self)

    def union(self, other: "VarietyIdeal") -> "VarietyIdeal":
        self._check(other)
        if not self.gens or not other.gens:
            # either side is the full space
            return VarietyIdeal(self.h_ring, ())
        prod = ideal_ops(self.gens, other.gens)
        return VarietyIdeal(self.h_ring, prod)

    def intersect(self, other: "VarietyIdeal") -> "VarietyIdeal":
        self._check(other)
        return VarietyIdeal(self.h_ring, list(self.gens) + list(other.gens))

    def is_trivial(self) -> bool:
        """Trivial = the single point 0, i.e. every chi_j vanishes on the
        variety.  The zero module and all finite-projective-dimension
        modules land here; the representation (chi_1..chi_c) is canonical."""
        return all(self._in_radical(self.h_ring.gen(j)) for j in range(self.h_ring.nvars))

    def dimension(self) -> int:
        if self._dim is None:
            if self._gb is None:
                self._dim = self.h_ring.nvars
            else:
                self._dim = _leads_dimension(self._gb, self.h_ring.nvars)
        return self._dim

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) if self.gens else "0"
        return f"VarietyIdeal(({inside}))"


def annihilator_window(ext: ExtKModule) -> VarietyIdeal:
    """Candidate annihilator a_N: the ideal of the spaces K_d, d <= D =
    (N - g_N) / 2, of homogeneous h of degree d in the chi's whose action
    E^i -> E^{i+2d} vanishes for every window inside the computed range,
    g_N being the top degree of a minimal H-generator of E in 0..N
    (`generator_degree`).  It contains every element of ann E of degree
    <= D, which need not generate ann E when D lies below the degree of
    one of its minimal generators.  A degree-d candidate is tested on
    E^0..E^{N-2d} only; D is the largest degree at which that range holds
    every generator the window sees, so no candidate passes while failing
    on one.  A window with D < 1 is refused with InputError.

    Only the windows E^i -> E^{i+2d} at which E has a minimal H-generator
    (`generator_counts`) are cut, which gives the same K_d: every other E^i
    is chi_1 E^{i-2} + ... + chi_c E^{i-2}, or zero when i < 2, and the
    actions commute exactly, so h chi_j y = chi_j (h y) vanishes once h
    kills E^{i-2}.  By induction on i, an h that kills the generator
    windows kills every window; and the kernel cut so far already kills a
    window without a generator, so skipping it changes no basis either.
    Since N - 2d >= g_N, every degree d <= D is cut at the same set G_N,
    all of E's generator degrees in 0..N.

    K_d is solved from K_{d-1} (`_solve_degree`) and kept in the memo of
    `ext`, keyed by (G_N, d); `support_variety` widens one `ext` in place,
    so a wider window with the same generator degrees solves only its new
    top degree.  The generators are the vectors each degree adds beyond
    the products of the degree below: they span K_d modulo
    chi_1 K_{d-1} + ... + chi_c K_{d-1}, so the Groebner basis starts from
    a minimal generating set of the same ideal."""
    n = ext.steps
    g = generator_degree(ext)
    if n - g < 2:
        raise InputError(
            f"window N = {n} with top generator degree g = {g} leaves no operator degree",
            steps=n, generator_degree=g,
        )
    cuts = tuple(i for i, count in enumerate(generator_counts(ext)) if count)
    found = []
    # K_0 is taken as 0, which only leaves U_1 empty
    basis = []
    for d in range(1, (n - g) // 2 + 1):
        got = ext._kernels.get((cuts, d))
        if got is None:
            got = ext._kernels[cuts, d] = _solve_degree(ext, d, cuts, basis)
        basis, new = got
        found += new
    return VarietyIdeal(ext.rs.h_ring, found)


def _solve_degree(ext: ExtKModule, d: int, cuts, below: list) -> tuple:
    """K_d from `below`, a basis of K_{d-1} as sparse rows over the degree
    d - 1 monomials: (a basis of K_d as sparse rows over the degree-d
    monomials, the polynomials it adds to the generators).

    U_d = chi_1 K_{d-1} + ... + chi_c K_{d-1} lies in K_d, since the
    actions commute exactly and h kills every window that starts two
    degrees higher.  So K_d is U_d plus the part of K_d on the monomials
    that are not pivots of U_d's echelon form, and only those monomials are
    unknowns.  Their kernel is cut down one window E^i -> E^{i+2d}, i in
    `cuts`, at a time, in ascending i, and the cut stops once it is empty,
    so no composite past that window is formed (Lazard's degree-by-degree
    Macaulay matrices, EUROCAL 1983, with the products of the degree below
    as known rows).  A cut is one elimination whose rows are the nonzero
    entries of the windows, over the kernel vectors as columns: its reduced
    nullspace basis recombines them, so the kernel stays canonical."""
    h_ring, p = ext.rs.h_ring, ext.rs.p
    prev = h_ring.monomials_of_degree(d - 1)
    monos = h_ring.monomials_of_degree(d)
    at = {m: k for k, m in enumerate(monos)}
    # U_d, one block of rows per chi_j
    spanned = _eliminate(
        [
            {at[mono_mul(prev[k], u)]: v for k, v in row.items()}
            for u in h_ring.monomials_of_degree(1)
            for row in below
        ],
        p,
    )
    # a basis of K_d on the free monomials so far, one sparse row per vector
    kern = [{k: 1} for k in range(len(monos)) if k not in spanned]
    for i in cuts:
        if not kern:
            break
        if not ext.dims[i + 2 * d]:
            continue
        # entry (column, row) of the window -> {kernel vector: residue}
        entries = {}
        for n, vec in enumerate(kern):
            for k, v in vec.items():
                for col, column in enumerate(ext.monomial_window(monos[k], i)):
                    for r, w in column.items():
                        e = entries.setdefault((col, r), {})
                        if x := (e.get(n, 0) + v * w) % p:
                            e[n] = x
                        else:
                            del e[n]
        rows = [e for e in entries.values() if e]
        if rows:
            kern = matmul(list(nullspace(rows, len(kern), p).values()), kern, p)
    basis = [{c: 1, **spanned[c]} for c in sorted(spanned)] + kern
    new = [h_ring.poly({monos[k]: vec[k] for k in sorted(vec)}) for vec in kern]
    return basis, new


def generator_counts(ext: ExtKModule) -> list[int]:
    """Number of minimal H-generators of E in each degree 0..N: dim E^i minus
    the rank of [chi_1 E^{i-2} | ... | chi_c E^{i-2}], the part of E^i that
    the operators reach from below, read as the number of pivots of one
    `_eliminate` on those images."""
    counts = []
    for i in range(ext.steps + 1):
        reached = ext._reached.get(i)
        if reached is None:
            reached = 0
            if i >= 2 and ext.dims[i] and ext.dims[i - 2]:
                images = [dict(col) for act in ext.act for col in act[i - 2]]
                reached = len(_eliminate(images, ext.rs.p))
            ext._reached[i] = reached
        counts.append(ext.dims[i] - reached)
    return counts


def generator_degree(ext: ExtKModule) -> int:
    """g_N: the top degree in 0..N with a minimal H-generator of E (0 when E
    vanishes there)."""
    return max((i for i, n in enumerate(generator_counts(ext)) if n), default=0)


def _model(pres: ModulePresentation) -> tuple:
    """(b_0..b_{d-1} of M, the module E is read on), by the route that
    `support_variety` describes; ([], M) when Q has no coordinate reduction."""
    d = pres.rs.dim
    if pres.rs.reduction() is None:
        return [], pres
    return resolve_min(pres).betti_sequence(d - 1), artinian_reduction(syzygy_module(pres, d))


def complexity(pres: ModulePresentation, steps: int = 12) -> int:
    """Betti-growth estimate (`_betti_growth`) on the Betti numbers of the
    module `support_variety` reads (`_model`), so b_d..b_{d+steps} of M
    when Q has a coordinate reduction.  Fewer than 4 steps leave a tail too
    short to difference (k over F_p[x,y]/(x^2,y^2) would read 0 or 1, not
    2) and are refused with InputError, as `support_variety` refuses such a
    window."""
    require_integer("steps", steps)
    if steps < 4:
        raise InputError("complexity needs at least 4 steps", steps=steps)
    return _betti_growth(resolve_min(_model(pres)[1], steps).betti_sequence(steps))


def _betti_growth(betti) -> int:
    """The least r with b_i growing like i^{r-1}, from successive finite
    differences of the tail b_{s//2}..b_s of betti = b_0..b_s.  Even and
    odd positions are differenced separately and the maximum taken, which
    also fits tails that are quasi-polynomial of period 2; on exactly
    polynomial tails it agrees with plain differencing."""
    tail = betti[(len(betti) - 1) // 2 :]

    def growth(s):
        count = 0
        while s and any(s):
            s = [b - a for a, b in zip(s, s[1:])]
            count += 1
        return count

    return max(growth(tail[0::2]), growth(tail[1::2]))


def support_variety(pres: ModulePresentation, steps: int = None) -> VarietyIdeal:
    """The support variety of M, as the stabilized window annihilator.

    For windows N and N+2 the top generator degrees g_N and g_{N+2} are read
    off E (`generator_degree`), and a_N is built over operator degrees
    d <= (N - g_N) / 2, the bound under which every candidate is tested on
    every generator the window sees.  The pair is rejected unless
    g_N = g_{N+2} with at least two generator-free degrees above g_N;
    otherwise a_N and a_{N+2} are accepted when mutually radical-contained
    with equal dimension, and when that dimension matches the Betti-growth
    complexity estimate (an independent oracle for under-resolution).  A
    rejected pair widens the window by 2, a_{N+2} becoming the next a_N,
    up to N + 2 = N_0 + 8 for the first window N_0 (`steps`, by default
    max(8, 2c + 4)), where a stabilization error reports both candidates, g
    and which test rejected the last pair: the generator degree has not
    settled, the dimensions differ, the radicals differ, or the complexity
    does not match.  The accepted ideal's meta records stabilized_at (N),
    steps_used (N+2), the complexity value the guard accepted,
    generator_degree (g) and betti, M's Betti numbers b_0..b_{N+2}.  One E
    is built at the first N and widened in place, so each window builds
    only the actions it adds.

    The route depends on the ring alone (`_model`).  An artinian Q, or one
    with no coordinate reduction (F_p[x,y]/(xy)), resolves M itself.  Any
    other Q resolves d = dim Q steps and reads E(Omega^d M), which is E(M)
    from degree d on, on its reduction mod x_S: the windows, g and the
    complexity guard are read there, and betti is b_0..b_{d-1} over Q
    followed by the reduction's.

    A sum built by `resolve.direct_sum` is read on the summands it records:
    E of the sum is the sum of their E (`ExtKModule.widen`), their Betti
    numbers add up, and a model of each (`_model`) gives one of the sum, so
    the windows, g, the complexity guard and meta are those of the sum's
    own resolution, which is never built.  Any other presentation is its
    own one part.

    The accepted ideal is kept on `pres` with N_0, and a later call with the
    same N_0 returns it."""
    rs = pres.rs
    n0 = steps if steps is not None else max(8, 2 * rs.codim + 4)
    require_integer("steps", n0)
    if n0 < 4:
        raise InputError("window of at least 4 steps required", steps=n0)
    cap = n0 + 8
    if pres._variety is not None and pres._variety[0] == n0:
        return pres._variety[1]
    parts = pres._parts or (pres,)
    red = rs.reduction()
    models = [_model(part) for part in parts]
    head = [sum(h[i] for h, _m in models) for i in range(rs.dim if red is not None else 0)]
    res = [resolve_min(m, n0 + 2) for _h, m in models]
    bar = red[1] if red is not None else rs
    ext = ExtKModule(bar, 0, [], [[] for _ in range(bar.codim)]).widen(res, n0)

    def window(n):
        if n > ext.steps:
            ext.widen(res, n)
        g = generator_degree(ext)
        return g, (annihilator_window(ext) if n - g >= 2 else None)

    n = n0
    g_lo, a_lo = window(n)
    while True:
        g_hi, a_hi = window(n + 2)
        dims = (None, None)
        cx = None
        if g_lo != g_hi or a_lo is None:
            rejected = "generators"
            why = f"the top generator degree is {g_lo} at N = {n} and {g_hi} at N = {n + 2}"
        else:
            dims = (a_lo.dimension(), a_hi.dimension())
            if dims[0] != dims[1]:
                rejected, why = "dimension", "the candidates differ in dimension"
            elif not (a_lo.contains_variety(a_hi) and a_hi.contains_variety(a_lo)):
                rejected, why = "radical", "the candidates differ up to radical"
            else:
                betti = [sum(len(r.degs[i]) for r in res) for i in range(n + 3)]
                cx = _betti_growth(betti)
                if cx == dims[1]:
                    a_hi.meta = {
                        "stabilized_at": n,
                        "steps_used": n + 2,
                        "complexity": cx,
                        "generator_degree": g_hi,
                        "betti": head + betti[: n + 3 - len(head)],
                    }
                    pres._variety = (n0, a_hi)
                    return a_hi
                rejected, why = "complexity", f"the candidates agree, the complexity estimate is {cx}"
        n += 2
        if n + 2 > cap:
            if dims[0] is not None:
                why += f" (candidate dimensions {dims[0]} and {dims[1]})"
            raise StabilizationError(
                f"window annihilator not accepted by N = {cap}: {why}",
                candidate_lo=[str(g) for g in a_lo.gens] if a_lo else [],
                candidate_hi=[str(g) for g in a_hi.gens] if a_hi else [],
                steps=cap,
                rejected=rejected, dim_lo=dims[0], dim_hi=dims[1], complexity=cx,
                generator_degree_lo=g_lo, generator_degree_hi=g_hi,
            )
        g_lo, a_lo = g_hi, a_hi
