"""Cohomology operators, the module E(M,k) over H = k[chi_1..chi_c], and
support varieties.

The operators come out of the resolution the classical way (Eisenbud,
Trans. AMS 260, 1980): differentials over Q already carry normal-form
entries, so read them over the ambient ring P and compose two consecutive
ones.  The composite d~ d~ must reduce to zero modulo (f), and the ring's
normal-form table, which records x^m - NF(x^m) = sum_j c_{m,j} f_j for every
monomial it holds, lifts it term by term to an exact identity
d~ d~ = sum_j f_j t~_j.  The t~_j depend on the lift only up to a syzygy of
f_1..f_c; those are Koszul, with entries in (f), so reducing t~_j modulo (f)
gives well-defined chain maps of degree -2.  Their constant-term matrices
(transposed) are the chi_j action on E.

The annihilator is approximated by window linear algebra: for each degree d
the space K_d of homogeneous h with h-action zero on all composable windows
E^i -> E^{i+2d} inside the computed range.  The actions commute exactly, so
chi_j K_{d-1} lies in K_d; each degree solves only for what K_d holds beyond
those products, on the monomials outside their pivots, and one window at a
time, stopping once nothing is left (Lazard's degree-by-degree Macaulay
matrices, EUROCAL 1983, with the products of the degree below as known
rows).  Those new vectors are minimal generators of a_N, and the Groebner
basis starts from them.

A degree-d candidate is tested only on E^i with i <= N - 2d, so it is
tested on every H-generator of E that the window 0..N sees only when
2d <= N - g_N, g_N the top degree of a minimal H-generator of E in 0..N
(counted as dim E^i minus the rank of [chi_1 E^{i-2} | ... | chi_c E^{i-2}],
ranks the windows of one variety share).  `support_variety` therefore
builds a_N over d <= (N - g_N) / 2 only.  E is finitely generated over H
(Gulliksen 1974), so g_N settles; a pair of windows is compared only once
g_N = g_{N+2} with at least two generator-free degrees above it.  The two
candidates are then compared up to radical, with the Betti-growth
complexity estimate as an independent guard on the dimension.

Over a non-artinian Q the variety of a maximal Cohen-Macaulay module M is
read on M/x_S M over the artinian Q/(x_S) (`resolve.artinian_reduction`):
x_S is regular on Q and on M, so the minimal resolution of M and its lifted
differentials reduce mod x_S to those of M/x_S M, and E and its H-action do
not change (Avramov-Buchweitz, Invent. Math. 2000).  `complexity` reads the
same reduction.
"""

from __future__ import annotations

import numpy as np

from .arith import FreeElt, _sub_shifted, echelon, matmul, mono_mul, nullspace
from .errors import InputError, InternalError, StabilizationError
from .groebner import (
    groebner_basis,
    ideal_dimension,
    ideal_ops,
    radical_membership,
)
from .resolve import (
    ModulePresentation, Resolution, apply_columns, artinian_reduction, resolve_min,
)


class CiOperators:
    """For each j and each middle index i, the chain map t_j^{(i)} mapping
    resolution step i+1 to step i-1, stored as columns over Q."""

    __slots__ = ("upto", "cols")

    def __init__(self, c: int):
        self.upto = 0
        self.cols = [dict() for _ in range(c)]


def lift_and_operators(res: Resolution, upto: int) -> Resolution:
    """Extract the operators at middle indices 1..upto: express each column
    w of the composite d~_i d~_{i+1} (read over the ambient ring) exactly as
    sum_j f_j u_j, with the u_j read from the normal-form table of `ci_gb`,
    and store t_j = NF(u_j).  A nonzero normal form of w means the resolution
    is broken, and a lift that fails to reproduce w means the table is;
    both are internal invariant violations, never user error."""
    rs = res.rs
    res.extend(upto + 1)
    if res.ops is None:
        res.ops = CiOperators(rs.codim)
    ops = res.ops
    gb = rs.ci_gb
    for i in range(ops.upto + 1, upto + 1):
        lo_rank = len(res.degs[i - 1])
        lo_shifts = res.degs[i - 1]
        t_cols = [[] for _ in range(rs.codim)]
        for c_idx, v in enumerate(res.diffs[i + 1]):
            w = apply_columns(res.diffs[i], v, lo_rank, lo_shifts)
            rem = gb.reduce_terms(w.terms)
            if rem:
                raise InternalError(
                    "composite differential does not vanish modulo the "
                    "defining relations (broken resolution)",
                    step=i,
                    column=c_idx,
                    row=min(r for (r, _m) in rem),
                )
            u = gb.lift_terms(w.terms)
            # exactness audit: sum_j f_j u_j must reproduce w identically
            check = {}
            for f, uj in zip(rs.ci, u):
                for (_slot, m), cf in f.terms.items():
                    _sub_shifted(check, uj, -cf, m, rs.p)
            if check != w.terms:
                raise InternalError(
                    "operator extraction lost exactness", step=i, column=c_idx
                )
            for j, uj in enumerate(u):
                t_cols[j].append(FreeElt(rs.ring, lo_rank, gb.reduce_terms(uj), lo_shifts))
        for j in range(rs.codim):
            ops.cols[j][i] = t_cols[j]
    ops.upto = max(ops.upto, upto)
    return res


def operator_columns(res: Resolution, j: int, lo: int):
    """Columns of t_j: step lo+2 -> step lo (middle index lo+1)."""
    return res.ops.cols[j][lo + 1]


class ExtKModule:
    """E(M,k) in cohomological degrees 0..steps: dims[i] = b_i, and for each
    j the action matrices act[j][i]: E^i -> E^{i+2} (shape b_{i+2} x b_i),
    valid for i <= steps-2.  Composites of these matrices commute exactly.
    The memos of composites and of the ranks `generator_counts` reads hold
    nothing that depends on `steps`, so windows over one resolution may
    share them."""

    __slots__ = ("rs", "steps", "dims", "act", "_composites", "_reached")

    def __init__(self, rs, steps, dims, act):
        self.rs = rs
        self.steps = steps
        self.dims = dims
        self.act = act
        self._composites = {}
        self._reached = {}

    def monomial_window(self, mono: tuple, i: int) -> np.ndarray:
        """Composite action of the H-monomial chi^mono starting at E^i,
        factors applied in ascending variable index (lowest index acts
        first).  Memoized; commutation makes the order mathematically
        irrelevant, the fixed order makes outputs reproducible."""
        d = sum(mono)
        if i + 2 * d > self.steps:
            raise InputError("window extends past the computed range")
        got = self._composites.get((mono, i))
        if got is not None:
            return got
        if d == 0:
            out = np.eye(self.dims[i], dtype=np.int64)
        else:
            j = next(v for v, e in enumerate(mono) if e)
            rest = tuple(e - 1 if v == j else e for v, e in enumerate(mono))
            first = self.act[j][i]
            out = matmul(self.monomial_window(rest, i + 2), first, self.rs.p)
        self._composites[(mono, i)] = out
        return out


def ext_k_module(res: Resolution, steps: int) -> ExtKModule:
    """E^i = Hom(F_i, k) for i <= steps; the chi_j action is the transpose of
    t_j's constant-term matrix (reducing mod the variables kills everything
    of positive degree, and minimality makes the result independent of the
    lift).  The operators at middle index steps - 1 read d_steps, so the
    resolution is extended to step `steps` and no further."""
    rs = res.rs
    one = rs.ring._one_mono
    lift_and_operators(res, steps - 1 if steps >= 2 else 1)
    dims = [len(res.degs[i]) for i in range(steps + 1)]
    act = []
    for j in range(rs.codim):
        per_i = []
        for lo in range(steps - 1):
            cols = operator_columns(res, j, lo)
            mat = np.zeros((dims[lo + 2], dims[lo]), dtype=np.int64)
            for c_idx, col in enumerate(cols):
                for (r, m), v in col.terms.items():
                    if m == one:
                        mat[c_idx, r] = v
            per_i.append(mat)
        act.append(per_i)
    return ExtKModule(rs, steps, dims, act)


class VarietyIdeal:
    """A support variety, carried as a homogeneous ideal in H up to radical.
    Generators are canonicalized to the reduced Groebner basis, so equal
    inputs produce byte-identical output.  All predicates are
    radical-invariant: containment is generator-wise radical membership, the
    union is the ideal product, the intersection the ideal sum."""

    __slots__ = ("h_ring", "gens", "meta", "_dim")

    def __init__(self, h_ring, gens, meta=None):
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
        if polys:
            gb = groebner_basis(polys)
            self.gens = tuple(gb.scalar_elements())
        else:
            self.gens = ()
        self.meta = meta or {}
        self._dim = None

    def _check(self, other: "VarietyIdeal"):
        if self.h_ring != other.h_ring:
            raise InputError("varieties over different operator rings")

    def contains_element(self, g) -> bool:
        """Is g in the radical of the defining ideal?"""
        g = self.h_ring.parse(g) if isinstance(g, str) else g
        return radical_membership(g, list(self.gens), self.h_ring)

    def contains_variety(self, other: "VarietyIdeal") -> bool:
        """V(other) inside V(self): every defining generator of self lies in
        the radical of other's ideal."""
        self._check(other)
        return all(radical_membership(g, list(other.gens), self.h_ring) for g in self.gens)

    def equals(self, other: "VarietyIdeal") -> bool:
        return self.contains_variety(other) and other.contains_variety(self)

    def union(self, other: "VarietyIdeal") -> "VarietyIdeal":
        self._check(other)
        if not self.gens or not other.gens:
            # either side is the full space
            return VarietyIdeal(self.h_ring, ())
        prod = ideal_ops(list(self.gens), list(other.gens), "product", self.h_ring)
        return VarietyIdeal(self.h_ring, prod)

    def intersect(self, other: "VarietyIdeal") -> "VarietyIdeal":
        self._check(other)
        return VarietyIdeal(self.h_ring, list(self.gens) + list(other.gens))

    def is_trivial(self) -> bool:
        """Trivial = the single point 0, i.e. every chi_j vanishes on the
        variety.  The zero module and all finite-projective-dimension
        modules land here; the representation (chi_1..chi_c) is canonical."""
        return all(
            radical_membership(self.h_ring.gen(j), list(self.gens), self.h_ring)
            for j in range(self.h_ring.nvars)
        )

    def dimension(self) -> int:
        if self._dim is None:
            if not self.gens:
                self._dim = self.h_ring.nvars
            else:
                self._dim = ideal_dimension(list(self.gens), self.h_ring)
        return self._dim

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) if self.gens else "0"
        return f"VarietyIdeal(({inside}))"


def annihilator_window(ext: ExtKModule, max_op_degree: int = None) -> VarietyIdeal:
    """Candidate annihilator a_N: the ideal of the spaces K_d, d <= D
    (default N/2), of homogeneous h of degree d in the chi's whose action
    matrix E^i -> E^{i+2d} vanishes for every window inside the computed
    range.  Always contains the true annihilator.  A degree-d candidate is
    tested on E^0..E^{N-2d} only, so it can pass while failing on an
    H-generator of E above degree N - 2d; `support_variety` keeps
    D <= (N - g_N) / 2, where that cannot happen (see `generator_degree`).

    K_d is solved from K_{d-1}.  U_d = chi_1 K_{d-1} + ... + chi_c K_{d-1}
    lies in K_d, since the actions commute exactly and h kills every window
    that starts two degrees higher.  So K_d is U_d plus the part of K_d on
    the monomials that are not pivots of U_d's echelon form, and only those
    monomials are unknowns.  Their kernel is cut down one window at a time,
    in ascending i, and the cut stops once it is empty, so no composite past
    that window is formed.  Only these new vectors become generators: they
    span K_d modulo U_d, so the Groebner basis starts from a minimal
    generating set of the same ideal."""
    rs = ext.rs
    h_ring = rs.h_ring
    D = ext.steps // 2 if max_op_degree is None else max_op_degree
    if D < 1 or D > ext.steps // 2:
        raise InputError(
            f"operator degree cap {D} outside [1, {ext.steps // 2}]", cap=D
        )
    p = rs.p
    units = h_ring.monomials_of_degree(1)
    found = []
    # a basis of K_{d-1}, one row per vector over the monomials `prev`;
    # K_0 is taken as 0, which only leaves U_1 empty
    basis, prev = np.zeros((0, 1), dtype=np.int64), h_ring.monomials_of_degree(0)
    for d in range(1, D + 1):
        monos = h_ring.monomials_of_degree(d)
        at = {m: k for k, m in enumerate(monos)}
        # U_d, one block of rows per chi_j
        shifted = np.zeros((len(units) * len(basis), len(monos)), dtype=np.int64)
        for j, u in enumerate(units):
            cols = [at[mono_mul(m, u)] for m in prev]
            shifted[j * len(basis) : (j + 1) * len(basis), cols] = basis
        spanned, pivots = echelon(shifted, p)
        taken = set(pivots)
        free = [k for k in range(len(monos)) if k not in taken]
        # a basis of K_d on the free monomials so far, one row per vector
        kern = np.eye(len(free), dtype=np.int64)
        for i in range(ext.steps - 2 * d + 1):
            if not len(kern):
                break
            rows = ext.dims[i + 2 * d] * ext.dims[i]
            if rows == 0:
                continue
            block = np.empty((rows, len(free)), dtype=np.int64)
            for col, k in enumerate(free):
                block[:, col] = ext.monomial_window(monos[k], i).reshape(-1)
            cut = matmul(block, kern.T, p)
            if cut.any():
                kern = matmul(nullspace(cut, p), kern, p)
        new = np.zeros((len(kern), len(monos)), dtype=np.int64)
        new[:, free] = kern
        for vec in new.tolist():
            found.append(h_ring.poly({m: cf for m, cf in zip(monos, vec) if cf}))
        basis, prev = np.concatenate([spanned, new]), monos
    return VarietyIdeal(h_ring, found)


def generator_counts(ext: ExtKModule) -> list[int]:
    """Number of minimal H-generators of E in each degree 0..N: dim E^i minus
    the rank of [chi_1 E^{i-2} | ... | chi_c E^{i-2}], the part of E^i that
    the operators reach from below."""
    counts = []
    for i in range(ext.steps + 1):
        reached = ext._reached.get(i)
        if reached is None:
            reached = 0
            if i >= 2 and ext.dims[i] and ext.dims[i - 2]:
                stacked = np.concatenate([act[i - 2] for act in ext.act], axis=1)
                reached = len(echelon(stacked, ext.rs.p)[1])
            ext._reached[i] = reached
        counts.append(ext.dims[i] - reached)
    return counts


def generator_degree(ext: ExtKModule) -> int:
    """g_N: the top degree in 0..N with a minimal H-generator of E (0 when E
    vanishes there)."""
    return max((i for i, n in enumerate(generator_counts(ext)) if n), default=0)


def complexity(pres: ModulePresentation, steps: int = 12) -> int:
    """Betti-growth estimate: the least r with b_i growing like i^{r-1},
    from successive finite differences of the tail (last half) of the
    computed Betti numbers.  Even and odd positions are differenced
    separately and the maximum taken, which also fits tails that are
    quasi-polynomial of period 2; on exactly polynomial tails it agrees with
    plain differencing.  A maximal Cohen-Macaulay module over a non-artinian
    Q is resolved through its `artinian_reduction`, which has the same Betti
    numbers."""
    res = resolve_min(artinian_reduction(pres), steps)
    seq = [len(res.degs[i]) for i in range(steps + 1)]
    tail = seq[steps // 2 :]

    def growth(s):
        s = list(s)
        count = 0
        while s and any(s):
            s = [b - a for a, b in zip(s, s[1:])]
            count += 1
        return count

    return max(growth(tail[0::2]), growth(tail[1::2]))


def support_variety(
    pres: ModulePresentation,
    steps: int = None,
    max_steps: int = None,
    max_op_degree: int = None,
) -> VarietyIdeal:
    """The support variety of M, as the stabilized window annihilator.

    For windows N and N+2 the top generator degrees g_N and g_{N+2} are read
    off E (`generator_degree`), and a_N is built over operator degrees
    d <= (N - g_N) / 2, with `max_op_degree` (at least 1) as a further
    upper bound.  The
    pair is rejected unless g_N = g_{N+2} with at least two generator-free
    degrees above g_N; otherwise a_N and a_{N+2} are accepted when mutually
    radical-contained with equal dimension, and when that dimension matches
    the Betti-growth complexity estimate (an independent oracle for
    under-resolution).  A rejected pair widens the window by 2, a_{N+2}
    becoming the next a_N, until the cap, where a stabilization error reports
    both candidates, g and which test rejected the last pair: the generator
    degree has not settled, the dimensions differ, the radicals differ, or
    the complexity does not match.  The accepted ideal's meta records
    stabilized_at (N), steps_used (N+2), the complexity value the guard
    accepted and generator_degree (g).  `max_steps` must leave room for the
    first pair (at least N + 2).

    Over a non-artinian Q, a maximal Cohen-Macaulay module M is replaced by
    its `artinian_reduction` M/x_S M over Q/(x_S), x_S a set of variables
    regular on Q and on M, which takes the degreewise resolution.  The
    minimal resolution of M reduces mod x_S to that of M/x_S M, and the
    lifted differentials with it, so Ext(M, k) and its H-action, the Betti
    numbers, and every window, g and verdict above are the same.  Other
    modules (not MCM, or no coordinate subspace gives an artinian quotient)
    are resolved over Q itself."""
    n0 = steps if steps is not None else max(8, 2 * pres.rs.codim + 4)
    if n0 < 4:
        raise InputError("window of at least 4 steps required", steps=n0)
    if max_op_degree is not None and max_op_degree < 1:
        raise InputError("operator degree cap must be at least 1", max_op_degree=max_op_degree)
    cap = max_steps if max_steps is not None else n0 + 8
    if cap < n0 + 2:
        raise InputError(
            f"step cap {cap} leaves no room for the window pair ({n0}, {n0 + 2})",
            steps=n0, max_steps=cap,
        )
    pres = artinian_reduction(pres)
    res = resolve_min(pres, n0 + 2)
    # chi^m: E^i -> E^{i+2d} and the rank of [chi_1 E^{i-2} | ... ] do not
    # depend on the window, so every window reads one memo of each
    composites, reached = {}, {}

    def window(n):
        ext = ext_k_module(res, n)
        ext._composites, ext._reached = composites, reached
        g = generator_degree(ext)
        top = (n - g) // 2
        if max_op_degree is not None:
            top = min(top, max_op_degree)
        return g, (annihilator_window(ext, top) if top >= 1 else None)

    n = n0
    g_lo, a_lo = window(n)
    while True:
        g_hi, a_hi = window(n + 2)
        dims = (None, None)
        cx = None
        if g_lo != g_hi or n - g_lo < 2:
            rejected = "generators"
            why = f"the top generator degree is {g_lo} at N = {n} and {g_hi} at N = {n + 2}"
        else:
            dims = (a_lo.dimension(), a_hi.dimension())
            if dims[0] != dims[1]:
                rejected, why = "dimension", "the candidates differ in dimension"
            elif not (a_lo.contains_variety(a_hi) and a_hi.contains_variety(a_lo)):
                rejected, why = "radical", "the candidates differ up to radical"
            else:
                cx = complexity(pres, n + 2)
                if cx == dims[1]:
                    a_hi.meta = {
                        "stabilized_at": n,
                        "steps_used": n + 2,
                        "complexity": cx,
                        "generator_degree": g_hi,
                    }
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
