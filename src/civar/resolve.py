"""Graded modules over Q = F_p[x]/(f) and their minimal free resolutions.

A module is a cokernel presentation: generator degrees plus homogeneous
relation columns in the corresponding graded free module.  Resolutions are
built step by step, each step a minimal generating set of the kernel of the
differential before it, so every differential has entries in the graded
maximal ideal and Betti numbers can be read off as ranks.

Over an artinian Q (dim Q = 0) a step is graded linear algebra
(`kernel_generators`).  Q_t vanishes above the socle degree
s = sum(deg f_j - 1), so the kernel of d_i: F_i -> F_{i-1} lives in
degrees min e + 1 .. max e + s, e the degrees of F_i's generators.  There
it is computed one degree t at a time: the span of x_v * K_{t-1} first,
and, where that falls short of dim K_t, the nullspace of the matrix
(F_i)_t -> (F_{i-1})_t whose columns are the products x^m * column reduced
from the table of `ci_gb`.  The kernel vectors outside the span are the new
minimal generators.  Exactness gives dim K_t = dim (F_i)_t - dim K'_t, K'
the kernel of the step before, so from the second step on the nullspace is
needed only in the lowest degree and wherever new generators appear.

Every other Q takes the Groebner path: `syzygies` over Q, then a minimal
generating set of them (`minimal_columns`).  Minimality is decided by
linear algebra over k, degree by degree: a candidate column is kept exactly
when it falls outside the span of (maximal ideal) times the columns already
kept.  Unit-pivot pruning alone cannot do this job; a column can be
redundant without any unit entry appearing anywhere (v3 = v1 + x v2 leaves
every entry in the maximal ideal), and keeping such a column silently
inflates every Betti number after it.  The first differential, a minimal
generating set of the given relations, comes out of `minimal_columns` on
both paths.

Every such question is answered by the pivot columns of one
`arith.echelon`: a column is a pivot exactly when it is independent of the
columns to its left, and the pivots do not depend on the basis the
elimination leaves.  `minimal_columns` puts the products x^m * (kept
column) first and the candidates of the degree after them,
`present_from_vector_model` puts the variables' images of the degree below
before the unit vectors of the degree, and `kernel_generators` reads the
new generators off the free columns.  `_degree_matrix` writes (summand,
monomial) terms into these matrices on the bases of `standard_monomials`.

Over a non-artinian Q of dimension d, support varieties need only Ext(M, k)
and its operators, and for a maximal Cohen-Macaulay M these can be read over
an artinian ring (`artinian_reduction`).  `RingSpec.reduction` finds d
variables x_S whose vanishing leaves a complete intersection of the same
codimension c, hence artinian: a system of parameters of Q, regular on Q
because Q is Cohen-Macaulay, and regular on M because M is MCM.  The
minimal resolution F of M then reduces to the minimal resolution of
M/x_S M over Q/(x_S), with the same graded Betti numbers, and the lifted
differentials reduce with it, so Ext and the H-action on it are the same
(Avramov-Buchweitz, Invent. Math. 2000).  M/x_S M takes the degreewise
path.  `is_mcm`, which tests Ext(M, Q), and everything whose output is a
differential over Q (operators, the pushout cut) still resolve M itself.

`RingSpec` builds the reduced Groebner basis of (f), `ci_gb`, once, when it
validates the ring, and every computation over Q passes that one basis down
(`syzygies`, `SubmoduleOracle`, the relation submodule's basis).  So its
monomial normal-form table is the only one for (f), and every reduction
modulo (f) reads it: through `GroebnerBasis.reduce_terms` for normal forms
(`RingSpec.qnf_elt`, the products x^m * column of the degreewise kernel and
the multiplication by the variables on Q, the products g * x^m that
`minimal_columns` spans, the columns `prune_units` combines, the tails
`syzygies` harvests), and through `GroebnerBasis.lift_terms` for the
quotients by f_1..f_c that the operator lift needs.  The remainder modulo a Groebner
basis is unique and linear, so reducing term by term from the table gives
exactly what a full division would; the quotients are unique modulo (f)
because the syzygies of a regular sequence are Koszul.  The table fills
lazily, one `normal_form` per distinct monomial, and lives as long as the
ring.
"""

from __future__ import annotations

from itertools import combinations, groupby, product

import numpy as np

from .arith import (
    DEGREVLEX, FreeElt, Poly, PolyRing, _sub_shifted, fp_inv, is_integer, matmul, mono_deg,
    echelon, mono_div, mono_mul, mono_one, nullspace, rref,
)
from .errors import InputError, InternalError, ResourceBudgetError
from .groebner import (
    GroebnerBasis,
    SubmoduleOracle,
    _current_budgets,
    _leads_dimension,
    groebner_basis,
    normal_form,
    quotient_elements,
    syzygies,
)


_UNSET = object()


def _on_kept(terms: dict, kept) -> dict:
    """(component, monomial) terms with every variable outside `kept` set to
    zero, as monomials in the kept variables."""
    out = {}
    for (c, m), v in terms.items():
        bar = tuple(m[i] for i in kept)
        if mono_deg(bar) == mono_deg(m):
            out[(c, bar)] = v
    return out


class RingSpec:
    """The complete intersection Q = F_p[x_1..x_n]/(f_1..f_c), validated at
    construction: p an odd prime, each f_i homogeneous of degree >= 2, and
    (f_1..f_c) of codimension c (checked through the dimension of the ideal
    they generate, which certifies the regular-sequence property for
    homogeneous ideals).  That check reads the leads of `ci_gb`, the reduced
    Groebner basis of (f), which then serves every computation over Q from
    its one normal-form table.  It is built with cofactors (element_e =
    sum_g T[e][g] f_g), so each table entry also holds x^m - NF(x^m) as a
    combination of the f_j themselves, and anything that reduces to zero
    lifts to sum_j f_j u_j; NF(u_j) is unique, because the f_j form a regular
    sequence and their syzygies are Koszul, with entries in (f)."""

    __slots__ = (
        "ring",
        "ci",
        "ci_degs",
        "h_ring",
        "ci_gb",
        "_std_cache",
        "_pos_cache",
        "_action_cache",
        "_reduction",
    )

    def __init__(self, p: int, variables, ci):
        self.ring = PolyRing(p, tuple(variables), DEGREVLEX)
        polys = []
        for i, src in enumerate(ci):
            f = self.ring.parse(src) if isinstance(src, str) else src
            if f.ring != self.ring:
                raise InputError(f"relation {i} lives in a different ring", index=i)
            d = f.homogeneous_degree()
            if d is None or d < 2:
                raise InputError(
                    f"relation {i} must be homogeneous of degree at least 2",
                    index=i,
                )
            polys.append(f)
        if not polys:
            raise InputError("a complete intersection needs at least one relation")
        if len(polys) > self.ring.nvars:
            raise InputError("more relations than variables cannot be a regular sequence")
        self.ci_gb = groebner_basis(polys, cofactors=True)
        dim = _leads_dimension(self.ci_gb, self.ring.nvars)
        if dim != self.ring.nvars - len(polys):
            raise InputError(
                "the given relations do not form a regular sequence "
                f"(codimension {self.ring.nvars - dim}, expected {len(polys)})",
                codim=self.ring.nvars - dim,
            )
        self.ci = tuple(polys)
        self.ci_degs = tuple(f.homogeneous_degree() for f in polys)
        self.h_ring = PolyRing(p, tuple(f"chi{j+1}" for j in range(len(polys))), DEGREVLEX)
        self._std_cache = {}
        self._pos_cache = {}
        self._action_cache = {}
        self._reduction = _UNSET

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def codim(self) -> int:
        return len(self.ci)

    @property
    def dim(self) -> int:
        return self.ring.nvars - len(self.ci)

    @property
    def is_artinian(self) -> bool:
        return self.dim == 0

    @property
    def socle_degree(self) -> int:
        """sum(deg f_j - 1): on an artinian Q, the top degree with Q_d != 0."""
        return sum(d - 1 for d in self.ci_degs)

    def reduction(self):
        """(kept, Q/(x_S)) for the first coordinate subset S of size dim Q,
        last variables first, whose quotient Q/(x_S) = F_p[x_kept]/(f with
        x_S = 0) is again a complete intersection of codimension c, hence
        artinian; None when Q is artinian or no such S exists (F_p[x,y]/(xy)).
        Then x_S is a system of parameters of Q, and a regular sequence on it
        because Q is Cohen-Macaulay.  Built on first use and kept; the
        quotient shares this ring's operator ring h_ring."""
        if self._reduction is _UNSET:
            self._reduction = self._find_reduction()
        return self._reduction

    def _find_reduction(self):
        if self.is_artinian:
            return None
        n = self.ring.nvars
        for cut in combinations(range(n - 1, -1, -1), self.dim):
            kept = tuple(v for v in range(n) if v not in cut)
            ring = PolyRing(self.p, tuple(self.ring.vars[v] for v in kept), DEGREVLEX)
            ci = [Poly(ring, _on_kept(f.terms, kept)) for f in self.ci]
            try:
                bar = RingSpec(self.p, ring.vars, ci)
            except InputError:
                continue
            bar.h_ring = self.h_ring
            return kept, bar
        return None

    def qnf(self, f: Poly) -> Poly:
        """Normal form of f modulo (f_1..f_c): the canonical representative
        of its class in Q."""
        return Poly(self.ring, self.ci_gb.reduce_terms(f.terms))

    def qnf_elt(self, v: FreeElt) -> FreeElt:
        """Componentwise normal form of a free-module element modulo (f)."""
        return FreeElt(v.ring, v.rank, self.ci_gb.reduce_terms(v.terms), v.shifts)

    def standard_monomials(self, d: int):
        """Monomial k-basis of Q in degree d (ambient monomials not divisible
        by any lead of the Groebner basis of (f)), in monomial order."""
        if d < 0:
            return ()
        got = self._std_cache.get(d)
        if got is None:
            leads = [m for (_c, m) in self.ci_gb.leads]
            got = tuple(
                m
                for m in self.ring.monomials_of_degree(d)
                if all(mono_div(m, l) is None for l in leads)
            )
            self._std_cache[d] = got
        return got

    def standard_positions(self, d: int) -> dict:
        """Position of each standard monomial of degree d in
        `standard_monomials(d)`."""
        got = self._pos_cache.get(d)
        if got is None:
            got = self._pos_cache[d] = {m: n for n, m in enumerate(self.standard_monomials(d))}
        return got

    def variable_action(self, d: int):
        """Multiplication by the variables from Q_d to Q_{d+1}, on the bases
        `standard_monomials`, read from the normal-form table of `ci_gb`:
        arrays (source position, variable, target position, coefficient) of
        the nonzero entries."""
        got = self._action_cache.get(d)
        if got is None:
            target = self.standard_positions(d + 1)
            entries = [
                (k, v, target[mm], cf)
                for v, x in enumerate(self.ring.gens())
                for k, m in enumerate(self.standard_monomials(d))
                for (_slot, mm), cf in self.ci_gb.reduce_terms(x.terms, m).items()
            ]
            got = np.array(entries, dtype=np.int64).reshape(-1, 4).T.copy()
            self._action_cache[d] = got
        return got

    def __eq__(self, other):
        return (
            isinstance(other, RingSpec)
            and self.ring == other.ring
            and self.ci == other.ci
        )

    def __hash__(self):
        return hash((self.ring, self.ci))

    def __repr__(self):
        rels = ", ".join(str(f) for f in self.ci)
        return f"RingSpec(F_{self.p}[{', '.join(self.ring.vars)}]/({rels}))"


class ModulePresentation:
    """Cokernel presentation of a graded Q-module: generator degrees and
    homogeneous relation columns.  Instances are immutable; derived data
    (resolution, vector model, the relation submodule's Groebner basis, the
    MCM verdict, the artinian reduction) is cached on the instance."""

    __slots__ = (
        "rs", "gens", "relations", "_resolution", "_model", "_sub_gb", "_mcm", "_reduced",
    )

    def __init__(self, rs: RingSpec, gens, relations):
        self.rs = rs
        self.gens = tuple(gens)
        self.relations = tuple(relations)
        self._resolution = None
        self._model = None
        self._sub_gb = None
        self._mcm = None
        self._reduced = None

    @property
    def rank(self) -> int:
        return len(self.gens)

    def is_zero_presentation(self) -> bool:
        return not self.gens

    def relation_submodule_gb(self) -> GroebnerBasis:
        """Groebner basis of (relations + f e_i), the kernel of the ambient
        free module's surjection onto the module.  Normal forms against it
        give canonical representatives of module elements."""
        if self._sub_gb is None:
            ext = list(self.relations) + quotient_elements(self.rs.ci_gb, self.rank, self.gens)
            self._sub_gb = groebner_basis(ext)
        return self._sub_gb

    def __repr__(self):
        return f"ModulePresentation(gens={self.gens}, {len(self.relations)} relations)"


def present_module(rs: RingSpec, gen_degrees, relations) -> ModulePresentation:
    """Validate and normalize a presentation: every relation column must be
    homogeneous against the generator degrees, and an element of the ring's
    free module or a list of polynomials over the ring (or strings parsed
    there); entries are reduced modulo (f); zero columns are dropped."""
    gens = tuple(gen_degrees)
    for i, d in enumerate(gens):
        if not is_integer(d):
            raise InputError(f"generator degree {i} is {d!r}, not an integer", index=i)
    gens = tuple(map(int, gens))
    rank = len(gens)
    cols = []
    for j, col in enumerate(relations):
        if isinstance(col, FreeElt):
            if col.ring != rs.ring:
                raise InputError(f"relation {j} lives over {col.ring}, not over {rs.ring}", index=j)
            if col.rank != rank:
                raise InputError(f"relation {j} has {col.rank} entries, expected {rank}", index=j)
            elt = FreeElt(rs.ring, rank, dict(col.terms), gens)
        else:
            entries = list(col)
            if len(entries) != rank:
                raise InputError(f"relation {j} has {len(entries)} entries, expected {rank}", index=j)
            polys = [rs.ring.parse(e) if isinstance(e, str) else e for e in entries]
            for i, e in enumerate(polys):
                if not isinstance(e, Poly) or e.ring != rs.ring:
                    raise InputError(
                        f"entry {i} of relation {j} is {e!r}, not a polynomial over {rs.ring}", index=j
                    )
            elt = FreeElt.from_polys(polys, gens) if rank else FreeElt(rs.ring, 0, {}, ())
        elt = rs.qnf_elt(elt) if elt.terms else elt
        if elt.is_zero():
            continue
        if not elt.is_homogeneous():
            raise InputError(f"relation {j} is not homogeneous", index=j)
        cols.append(elt)
    return ModulePresentation(rs, gens, cols)


def residue_field(rs: RingSpec) -> ModulePresentation:
    """k = Q/(x_1..x_n), one generator in degree 0."""
    cols = []
    for v in range(rs.ring.nvars):
        key = rs.ring.gen(v).lead()[0]
        cols.append(FreeElt(rs.ring, 1, {key: 1}, (0,)))
    return ModulePresentation(rs, (0,), cols)


def free_module(rs: RingSpec, degrees) -> ModulePresentation:
    return present_module(rs, degrees, ())


def direct_sum(a: ModulePresentation, b: ModulePresentation) -> ModulePresentation:
    if a.rs != b.rs:
        raise InputError("direct sum of modules over different rings")
    ra = a.rank
    gens = a.gens + b.gens
    rank = len(gens)
    cols = []
    for col in a.relations:
        cols.append(FreeElt(a.rs.ring, rank, dict(col.terms), gens))
    for col in b.relations:
        cols.append(
            FreeElt(a.rs.ring, rank, {(c + ra, m): v for (c, m), v in col.terms.items()}, gens)
        )
    return ModulePresentation(a.rs, gens, cols)


def prune_units(pres: ModulePresentation) -> ModulePresentation:
    """Remove superfluous generators by unit-pivot elimination: whenever a
    relation ties a generator to the others with a unit coefficient, clear
    that generator's row by column operations and delete both.  This yields
    a presentation whose relation entries all lie in the maximal ideal, so
    the surviving generators are a minimal generating set.

    The pivot is the first live column, and in it the first live row, whose
    entry has a nonzero constant term c.  Every other column with a nonzero
    entry in that row loses a x^m / c times the pivot column for each term
    a x^m of that entry, on its (row, monomial) terms, and is then reduced
    modulo (f) from the table of `ci_gb`."""
    rs = pres.rs
    p = rs.p
    one = rs.ring._one_mono
    cols = [dict(col.terms) for col in pres.relations]
    live_rows = list(range(pres.rank))
    live_cols = list(range(len(cols)))
    while True:
        pivot = next(((i, j) for j in live_cols for i in live_rows if (i, one) in cols[j]), None)
        if pivot is None:
            break
        i, j = pivot
        u = fp_inv(cols[j][i, one], p)
        for j2 in live_cols:
            entry = [(m, a) for (r, m), a in cols[j2].items() if r == i]
            if j2 == j or not entry:
                continue
            for m, a in entry:
                _sub_shifted(cols[j2], cols[j], a * u, m, p)
            cols[j2] = rs.ci_gb.reduce_terms(cols[j2])
        live_rows.remove(i)
        live_cols.remove(j)
    new_gens = tuple(pres.gens[i] for i in live_rows)
    index = {i: n for n, i in enumerate(live_rows)}
    out = []
    for j in live_cols:
        terms = {(index[r], m): a for (r, m), a in cols[j].items() if r in index}
        if terms:
            out.append(FreeElt(rs.ring, len(new_gens), terms, new_gens))
    return ModulePresentation(rs, new_gens, out)


# ---------------------------------------------------------------------------
# degreewise linear algebra on free modules over Q


def minimal_columns(rs: RingSpec, columns, shifts):
    """Extract a minimal generating set from homogeneous columns, greedily by
    ascending degree: a column is kept iff it is independent of (maximal
    ideal) * (columns kept so far) plus earlier same-degree keeps.  The kept
    set generates the same submodule and is minimal by the graded Nakayama
    argument.

    Each degree d is one `echelon`.  Its columns are the products x^m * g,
    for g kept in a lower degree and x^m a standard monomial of degree
    d - deg g, reduced from the table of `ci_gb`, followed by the degree-d
    candidates in their given order; the kept candidates are its pivots
    past the products."""
    shifts = tuple(shifts)
    cols = []
    for c in columns:
        if c.is_zero():
            continue
        c = rs.qnf_elt(c)
        if not c.is_zero():
            cols.append(c)
    cols.sort(key=lambda c: c.degree())
    kept = []
    for d, group in groupby(cols, key=lambda c: c.degree()):
        group = list(group)
        vectors = [
            w
            for g in kept
            for m in rs.standard_monomials(d - g.degree())
            if (w := rs.ci_gb.reduce_terms(g.terms, m))
        ]
        products = len(vectors)
        vectors += [c.terms for c in group]
        _, pivots = echelon(_degree_matrix(rs, shifts, d, vectors, len(vectors)), rs.p)
        kept += [group[c - products] for c in pivots if c >= products]
    return kept


def _offsets(rs: RingSpec, shifts, t: int):
    """First position of each summand Q(-shift) in the degree-t basis of
    the free module, and the total dimension."""
    out, size = [], 0
    for e in shifts:
        out.append(size)
        size += len(rs.standard_monomials(t - e))
    return out, size


def _degree_matrix(rs: RingSpec, shifts, t: int, vectors, count: int) -> np.ndarray:
    """The matrix whose columns are the `count` dicts of (summand,
    standard monomial) terms in `vectors`, each homogeneous of degree t in
    sum Q(-shifts), on the basis of the degree-t part that `_offsets`
    describes."""
    at, size = _offsets(rs, shifts, t)
    pos = [rs.standard_positions(t - e) for e in shifts]
    a = np.zeros((size, count), dtype=np.int64)
    for c, terms in enumerate(vectors):
        for (k, m), v in terms.items():
            a[at[k] + pos[k][m], c] = v
    return a


def _times_variables(rs: RingSpec, basis, shifts, t: int, below_at, at, width: int):
    """The rows x_v * w, for w a row of `basis` (vectors of the degree-(t-1)
    part of sum Q(-shifts), with summand offsets `below_at`), as vectors of
    the degree-t part (offsets `at`, dimension `width`): one row per (w, v).
    Each product is reduced mod p before the products that land in one entry
    are summed, so a sum of k of them stays below k * p."""
    parts = [rs.variable_action(t - 1 - e) for e in shifts]
    if len(parts) == 1:
        src, var, pos, cf = parts[0]
        dst = var * width + pos
    else:
        src = np.concatenate([act[0] + below_at[j] for j, act in enumerate(parts)])
        dst = np.concatenate([act[1] * width + act[2] + at[j] for j, act in enumerate(parts)])
        cf = np.concatenate([act[3] for act in parts])
    rows = np.zeros((basis.shape[0], rs.ring.nvars * width), dtype=np.int64)
    np.add.at(rows, (slice(None), dst), basis[:, src] * cf % rs.p)
    return rows.reshape(-1, width)


def kernel_generators(rs: RingSpec, cols, degs, target_shifts, step: int, image_dims=None):
    """Minimal generators of the kernel K of the map F -> G whose columns
    `cols`, of degrees `degs`, live in G = sum Q(-target_shifts[k]), over an
    artinian Q, read off one degree t at a time; returns them with
    {t: dim K_t}.

    (F)_t has the basis x^m e_j, x^m a standard monomial of degree
    t - degs[j].  t runs from min(degs) + 1 (the columns are minimal, so K
    is zero in degree min(degs)) to max(degs) + socle degree, past which F
    vanishes.  In each degree the span of the rows x_v * K_{t-1} is
    eliminated first.  When `image_dims` gives dim (im)_t, the rank of the
    map in every degree (for a resolution, the kernel dimensions of the step
    before), dim K_t = dim (F)_t - dim (im)_t is known, and a span of that
    dimension is K_t itself, with nothing new.  Otherwise each x^m * column,
    reduced from the table of `ci_gb`, becomes a column of the map
    (F)_t -> (G)_t, whose nullspace is K_t.  A kernel vector is determined by
    its entries at the nullspace's free columns, so the new generators are
    the basis vectors at the free columns where the span of x_v * K_{t-1},
    read at those entries, has no pivot.  They come out monic and, within a
    degree, ordered by lead, largest first.  The span is read only through
    its pivots and as the next degree's x_v * K_{t-1}, so the rows `echelon`
    leaves serve as the basis of K_t when the span is all of it.  Every
    degree counts against the degree budget and every product x^m * column
    against the pair budget; either raises ResourceBudgetError naming the
    budget, `step` and the degree reached."""
    ring = rs.ring
    p = rs.p
    gb = rs.ci_gb
    budgets = _current_budgets.get()
    rank = len(degs)
    order = ring.order.key
    kernel_dims = {}
    gens = []
    products = 0
    below = None  # (basis of K_{t-1}, its summand offsets), None when K_{t-1} = 0
    for t in range(min(degs) + 1, max(degs) + rs.socle_degree + 1):
        if t > budgets.max_degree:
            raise ResourceBudgetError(
                f"resolution step {step} reaches degree {t}, past the degree budget "
                f"{budgets.max_degree}",
                budget="max_degree", limit=budgets.max_degree, step=step, degree=t,
            )
        at, width = _offsets(rs, degs, t)
        known = None if image_dims is None else width - image_dims.get(t, 0)
        if width == 0 or known == 0:
            below = None
            continue
        span = None
        if below is not None:
            image = _times_variables(rs, below[0], degs, t, below[1], at, width)
            rows, span = echelon(image, p)
            if known == len(span):
                kernel_dims[t] = known
                below = (rows, at)
                continue
        keys = [(j, m) for j, e in enumerate(degs) for m in rs.standard_monomials(t - e)]
        products += width
        if products > budgets.max_pairs:
            raise ResourceBudgetError(
                f"resolution step {step} forms {products} products x^m * column by "
                f"degree {t}, past the pair budget {budgets.max_pairs}",
                budget="max_pairs", limit=budgets.max_pairs, step=step, degree=t,
                products=products,
            )
        a = _degree_matrix(
            rs, target_shifts, t, (gb.reduce_terms(cols[j].terms, m) for j, m in keys), width
        )
        r, pivots = rref(a, p)
        del a
        is_pivot = set(pivots)
        free = [c for c in range(width) if c not in is_pivot]
        if known is not None and len(free) != known:
            raise InternalError(
                "kernel dimension differs from the one the previous step implies",
                step=step, degree=t, found=len(free), expected=known,
            )
        kernel_dims[t] = len(free)
        if not free:
            below = None
            continue
        basis = np.zeros((len(free), width), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        if pivots:
            basis[:, pivots] = (-r[: len(pivots), free].T) % p
        del r
        fresh = range(len(free))
        if span is not None:
            covered = set(echelon(image[:, free], p)[1])
            fresh = [n for n in fresh if n not in covered]
        new = []
        for n in fresh:
            g = FreeElt(ring, rank, {keys[c]: v for c, v in enumerate(basis[n].tolist()) if v}, degs)
            (c, m), lc = g.lead()
            new.append(((-c, order(m)), g.scale(fp_inv(lc, p)) if lc != 1 else g))
        new.sort(key=lambda lead_g: lead_g[0], reverse=True)
        gens += [g for _lead, g in new]
        below = (basis, at)
    return gens, kernel_dims


# ---------------------------------------------------------------------------
# resolutions


class Resolution:
    """Minimal graded free resolution of a module over Q, extendable on
    demand.  degs[i] lists the generator degrees of F_i; diffs[i] holds the
    columns of d_i: F_i -> F_{i-1} (diffs[0] is a placeholder).  Because each
    step takes a minimal generating set of the kernel, entries of every
    differential lie in the maximal ideal and len(degs[i]) is the i-th Betti
    number.  Over an artinian Q each step is `kernel_generators`, degree by
    degree, fed the kernel dimensions of the step before; over any other Q
    it is `syzygies` followed by `minimal_columns`."""

    __slots__ = ("rs", "pres", "pruned", "degs", "diffs", "ops", "_kernel_dims")

    def __init__(self, pres: ModulePresentation):
        self.rs = pres.rs
        self.pres = pres
        self.pruned = prune_units(pres)
        d1 = minimal_columns(self.rs, self.pruned.relations, self.pruned.gens)
        self.degs = [tuple(self.pruned.gens), tuple(c.degree() for c in d1)]
        self.diffs = [None, d1]
        self.ops = None  # filled by the operator-extraction layer
        self._kernel_dims = None  # {t: dim (ker d_i)_t} of the last degreewise step

    def extend(self, n: int):
        while len(self.degs) <= n:
            i = len(self.degs) - 1
            cols = self.diffs[i]
            if not cols:
                self.degs.append(())
                self.diffs.append([])
                continue
            if self.rs.is_artinian:
                nxt, self._kernel_dims = kernel_generators(
                    self.rs, cols, self.degs[i], self.degs[i - 1], i + 1, self._kernel_dims
                )
            else:
                syz = syzygies(cols, quotient=self.rs.ci_gb)
                nxt = minimal_columns(self.rs, syz, self.degs[i])
            self.degs.append(tuple(c.degree() for c in nxt))
            self.diffs.append(nxt)
        return self

    def betti(self, i: int) -> int:
        if i < 0:
            raise InputError("negative homological degree")
        self.extend(i)
        return len(self.degs[i])

    def betti_sequence(self, n: int):
        self.extend(n)
        return [len(self.degs[i]) for i in range(n + 1)]

    def diff(self, i: int):
        if i < 1:
            raise InputError("differentials start at index 1")
        self.extend(i)
        return self.diffs[i]


def resolve_min(pres: ModulePresentation, steps: int = 1) -> Resolution:
    """The minimal free resolution, computed out to d_steps and cached on the
    presentation, so later calls only extend."""
    if pres._resolution is None:
        pres._resolution = Resolution(pres)
    return pres._resolution.extend(steps)


def syzygy_module(pres: ModulePresentation, n: int) -> ModulePresentation:
    """Presentation of the n-th syzygy module read off the minimal
    resolution: generators F_n, relations the columns of d_{n+1}.  n = 0
    returns the pruned module itself."""
    if n < 0:
        raise InputError("syzygy index must be nonnegative")
    res = resolve_min(pres, n + 1)
    if n == 0:
        return res.pruned
    return ModulePresentation(pres.rs, res.degs[n], list(res.diffs[n + 1]))


def apply_columns(cols, v: FreeElt, target_rank: int, target_shifts) -> FreeElt:
    """Image of v under the map whose matrix has the given columns: each
    term a x^m e_c of v adds a x^m times column c."""
    acc = {}
    for (c, m), a in v.terms.items():
        _sub_shifted(acc, cols[c].terms, -a, m, v.ring.p)
    return FreeElt(v.ring, target_rank, acc, target_shifts)


def _transpose_columns(cols, src_rank: int, ring):
    """Columns of the dual map: row r of the matrix, placed in the free
    module on the original columns' generators with negated degrees."""
    rank = len(cols)
    shifts = tuple(-d for d in (c.degree() for c in cols)) if cols else ()
    out = []
    for r in range(src_rank):
        terms = {}
        for c, col in enumerate(cols):
            for (cc, m), v in col.terms.items():
                if cc == r:
                    terms[(c, m)] = v
        out.append(FreeElt(ring, rank, terms, shifts))
    return out


def is_mcm(pres: ModulePresentation) -> bool:
    """Maximal Cohen-Macaulay test: over an artinian Q every module
    qualifies; otherwise check Ext^i(M, Q) = 0 for i = 1..dim Q by comparing
    the kernel of the transposed differential with the image of the previous
    one.  The verdict is cached on the presentation."""
    if pres._mcm is None:
        pres._mcm = pres.rs.dim == 0 or _ext_into_q_vanishes(pres)
    return pres._mcm


def _ext_into_q_vanishes(pres: ModulePresentation) -> bool:
    rs = pres.rs
    res = resolve_min(pres, rs.dim + 1)
    ring = rs.ring
    for i in range(1, rs.dim + 1):
        bi = len(res.degs[i])
        if bi == 0:
            continue
        dual_shifts = tuple(-d for d in res.degs[i])
        up = res.diffs[i + 1]
        if up:
            ker = syzygies(_transpose_columns(up, bi, ring), quotient=rs.ci_gb)
        else:
            ker = [
                FreeElt(ring, bi, {(r, ring._one_mono): 1}, dual_shifts)
                for r in range(bi)
            ]
        if not ker:
            continue
        down_rows = _transpose_columns(res.diffs[i], len(res.degs[i - 1]), ring)
        # rows of d_i live in the same dual free module as the kernel
        down = [FreeElt(ring, bi, dict(w.terms), dual_shifts) for w in down_rows]
        oracle = SubmoduleOracle(down, quotient=rs.ci_gb)
        for w in ker:
            w2 = FreeElt(ring, bi, dict(w.terms), dual_shifts)
            if not oracle.contains(w2):
                return False
    return True


def artinian_reduction(pres: ModulePresentation) -> ModulePresentation:
    """M/x_S M over the artinian Q/(x_S) of `RingSpec.reduction` when Q is
    not artinian, the reduction exists and M is maximal Cohen-Macaulay;
    otherwise M itself.  Cached on the presentation.

    An MCM module is Cohen-Macaulay of dimension dim Q, and M/x_S M has
    finite length, so x_S is a system of parameters of M and M-regular.  Then
    Tor^Q_i(M, Q/(x_S)) = 0 for i > 0, so F (x) Q/(x_S) is a minimal free
    resolution of M/x_S M with the same graded Betti numbers.  Reducing the
    lifted differentials mod x_S keeps d~ d~ = sum_j f_j t~_j, so the
    Eisenbud operators reduce too, and Ext_Q(M, k) = Ext_{Q/(x_S)}(M/x_S M, k)
    as modules over H (Avramov-Buchweitz, Invent. Math. 2000; Eisenbud,
    Trans. AMS 1980).  Without the MCM premise this fails: Q/(y) over
    F_p[x,y]/(x^2) has Betti numbers 1, 1, 0, .. over Q and 1, 0, .. after
    y = 0."""
    if pres._reduced is None:
        red = pres.rs.reduction()
        if red is None or not is_mcm(pres):
            pres._reduced = pres
        else:
            kept, bar = red
            cols = [
                FreeElt(bar.ring, pres.rank, _on_kept(col.terms, kept), pres.gens)
                for col in pres.relations
            ]
            pres._reduced = present_module(bar, pres.gens, cols)
    return pres._reduced


# ---------------------------------------------------------------------------
# finite-dimensional vector models


class VectorModel:
    """A module of finite k-dimension flattened to explicit linear algebra:
    a monomial basis (component, standard monomial), the degree of each basis
    vector, and one action matrix per ring variable.  Action matrices are
    exact mod-p integer matrices; composites of them realize the action of
    any monomial."""

    __slots__ = ("rs", "basis", "degs", "actions")

    def __init__(self, rs, basis, degs, actions):
        self.rs = rs
        self.basis = basis
        self.degs = degs
        self.actions = actions

    @property
    def dim(self) -> int:
        return len(self.basis)


def vector_model(pres: ModulePresentation) -> VectorModel:
    """Flatten a presentation to a VectorModel.  Raises InputError when the
    module is not finite-dimensional over k (some component of the quotient
    admits no pure power of some variable among the leading terms)."""
    if pres._model is not None:
        return pres._model
    rs = pres.rs
    ring = rs.ring
    rank = pres.rank
    if rank == 0:
        vm = VectorModel(
            rs,
            [],
            np.zeros(0, dtype=np.int64),
            [np.zeros((0, 0), dtype=np.int64) for _ in range(ring.nvars)],
        )
        pres._model = vm
        return vm
    gb = pres.relation_submodule_gb()
    leads = gb.leads
    one = mono_one(ring.nvars)
    bound = [[0] * ring.nvars for _ in range(rank)]
    for c in range(rank):
        comp_leads = [m for (cc, m) in leads if cc == c]
        if one in comp_leads:
            continue
        for v in range(ring.nvars):
            pure = [m[v] for m in comp_leads if all(e == 0 for i, e in enumerate(m) if i != v)]
            if not pure:
                raise InputError(
                    "module has infinite dimension over k "
                    f"(no power of {ring.vars[v]} kills generator {c})",
                    component=c,
                    variable=ring.vars[v],
                )
            bound[c][v] = min(pure)
    basis = []
    for c in range(rank):
        comp_leads = [m for (cc, m) in leads if cc == c]
        if one in comp_leads:
            continue
        for m in product(*(range(b) for b in bound[c])):
            if all(mono_div(m, l) is None for l in comp_leads):
                basis.append((c, m))
    basis.sort(key=lambda k: (mono_deg(k[1]) + pres.gens[k[0]], k[0], ring.order.key(k[1])))
    index = {k: i for i, k in enumerate(basis)}
    dim = len(basis)
    degs = np.array([mono_deg(m) + pres.gens[c] for (c, m) in basis], dtype=np.int64)
    actions = []
    for v in range(ring.nvars):
        mat = np.zeros((dim, dim), dtype=np.int64)
        (_slot, xv), _ = ring.gen(v).lead()
        for col, (c, m) in enumerate(basis):
            image = FreeElt(ring, rank, {(c, mono_mul(m, xv)): 1}, pres.gens)
            rem, _ = normal_form(image, gb)
            for key, coeff in rem.terms.items():
                mat[index[key], col] = coeff
        actions.append(mat)
    vm = VectorModel(rs, basis, degs, actions)
    pres._model = vm
    return vm


def hilbert_function(pres: ModulePresentation, d: int) -> int:
    """dim_k of the degree-d piece, counted as standard monomials of the
    relation submodule's Groebner basis.  Works whether or not the module has
    finite total dimension."""
    if pres.rank == 0:
        return 0
    leads = pres.relation_submodule_gb().leads
    count = 0
    for c, s in enumerate(pres.gens):
        e = d - s
        if e < 0:
            continue
        comp_leads = [m for (cc, m) in leads if cc == c]
        for m in pres.rs.ring.monomials_of_degree(e):
            if all(mono_div(m, l) is None for l in comp_leads):
                count += 1
    return count


def present_from_vector_model(rs: RingSpec, degs, actions) -> ModulePresentation:
    """Reverse direction: from an abstract finite model (basis degrees plus
    commuting action matrices) back to a minimal presentation.  Minimal
    generators are coordinate vectors outside (maximal ideal)*M degree by
    degree: in degree d, the pivots past the action columns of one
    `echelon` of [every action applied to M_{d-1} | the unit vectors of M_d].
    Relations come from nullspaces of the evaluation map in each degree up
    to top+1, where the kernel is generated, and are made minimal by
    `minimal_columns`."""
    degs = np.asarray(degs, dtype=np.int64)
    dim = int(degs.shape[0])
    p = rs.p
    if dim == 0:
        return ModulePresentation(rs, (), ())
    gens = []  # (degree, coordinate)
    lo, hi = int(degs.min()), int(degs.max())
    for d in range(lo, hi + 1):
        idx = np.flatnonzero(degs == d)
        if idx.size == 0:
            continue
        prev = np.flatnonzero(degs == d - 1)
        image = [mat[:, prev] for mat in actions]
        units = np.eye(dim, dtype=np.int64)[:, idx]
        _, pivots = echelon(np.concatenate(image + [units], axis=1), p)
        skip = len(actions) * prev.size
        gens += [(d, int(idx[c - skip])) for c in pivots if c >= skip]
    gen_degs = tuple(d for d, _ in gens)
    r = len(gens)
    ring = rs.ring
    mono_mats = {}

    def monomial_matrix(m):
        got = mono_mats.get(m)
        if got is None:
            got = np.eye(dim, dtype=np.int64)
            for v, e in enumerate(m):
                for _ in range(e):
                    got = matmul(actions[v], got, p)
            mono_mats[m] = got
        return got

    relations = []
    for d in range(min(gen_degs, default=0), hi + 2):
        keys = []
        columns = []
        for g, (gd, coord) in enumerate(gens):
            for m in rs.standard_monomials(d - gd):
                keys.append((g, m))
                columns.append(monomial_matrix(m)[:, coord])
        if not keys:
            continue
        a = np.stack(columns, axis=1) % p
        for vec in nullspace(a, p).tolist():
            relations.append(FreeElt(ring, r, {key: c for key, c in zip(keys, vec) if c}, gen_degs))
    minimal = minimal_columns(rs, relations, gen_degs)
    return ModulePresentation(rs, gen_degs, minimal)
