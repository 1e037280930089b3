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
and, where that falls short of dim K_t, the nullspace of d_i in degree t.
The kernel vectors outside the span are the new minimal generators.  Exactness gives
dim K_t = dim (F_i)_t - dim K'_t, K' the kernel of the step before, so
from the second step on the nullspace is needed only in the lowest degree
and wherever new generators appear.  Every vector of this path is a
{position: residue} dict with no zero residue, every product is read from
the multiplication table of Q (`RingSpec.multiples`), and every
elimination is `arith._eliminate` on such rows: no dense matrix is formed.

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

Every such question is answered by the pivot columns of one elimination:
a column is a pivot exactly when it is independent of the columns to its
left, and the pivots do not depend on the basis the elimination leaves.
`minimal_columns` puts the products x^m * (kept column) first and the
candidates of the degree after them, `present_from_vector_model` puts the
variables' images of the degree below before the unit vectors of the
degree, and `kernel_generators` reads the new generators off the free
columns.  `_map_rows` writes the products straight into the sparse rows of
these matrices, on the bases of `standard_monomials`.

Over a non-artinian Q of dimension d, support varieties need only Ext(M, k)
and its operators, and for a maximal Cohen-Macaulay M these can be read on
M/x_S M over an artinian Q/(x_S), x_S d variables regular on Q and on M
(`RingSpec.reduction`, `artinian_reduction`), which takes the degreewise
path.  The d-th syzygy of any M is MCM by the depth lemma, a verdict
`syzygy_module` records, so the variety path tests nothing.  `is_mcm`, which
tests Ext(M, Q), and everything whose output is a differential over Q
(operators, the pushout cut) still resolve M itself.

`RingSpec` builds the reduced Groebner basis of (f), `ci_gb`, once, when it
validates the ring, and every computation over Q passes that one basis down
(`syzygies`, `SubmoduleOracle`, the relation submodule's basis).  So its
monomial normal-form table is the only one for (f), and every reduction
modulo (f) reads it: `GroebnerBasis.reduce_terms` for normal forms
(`RingSpec.qnf_elt`, the columns `prune_units` combines, the tails
`syzygies` harvests), the multiplication table `RingSpec.multiples`, filled
from it, for every product of the degreewise path, and
`GroebnerBasis.lift_terms` for the quotients by f_1..f_c that the operator
lift needs; why a lookup gives what a full division would is in
`groebner`.  Both tables fill lazily and live as long as the ring.
"""

from __future__ import annotations

from itertools import combinations, groupby, product

from .arith import (
    FreeElt, Poly, PolyRing, _drl_key, _eliminate, _sub_shifted, _transpose, fp_inv,
    matmul, mono_deg, mono_div, mono_mul, mono_one, nullspace, require_integer,
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
        "_mul_cache",
        "_action_cache",
        "_reduction",
    )

    def __init__(self, p: int, variables, ci):
        self.ring = PolyRing(p, tuple(variables))
        polys = []
        for i, src in enumerate(ci):
            f = self.ring.parse(src) if isinstance(src, str) else src
            if f.ring != self.ring:
                raise InputError(f"relation {i} lives in a different ring", index=i)
            if f.is_zero():
                raise InputError(f"relation {i} is zero", index=i)
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
        self.h_ring = PolyRing(p, tuple(f"chi{j+1}" for j in range(len(polys))))
        self._std_cache = {}
        self._mul_cache = {}
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
            ring = PolyRing(self.p, tuple(self.ring.vars[v] for v in kept))
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

    def multiples(self, a: tuple, d: int):
        """The multiplication table of Q: NF(x^a * x^m) for each x^m in
        `standard_monomials(d)`, as ((position in degree |a| + d, residue),
        ...), from the normal-form table of `ci_gb`.  Filled on first use."""
        got = self._mul_cache.get((a, d))
        if got is None:
            pos = {m: n for n, m in enumerate(self.standard_monomials(mono_deg(a) + d))}
            nf = self.ci_gb.reduce_terms
            got = self._mul_cache[a, d] = tuple(
                tuple((pos[mm], c) for (_s, mm), c in nf({(0, mono_mul(a, m)): 1}).items())
                for m in self.standard_monomials(d)
            )
        return got

    def variable_action(self, d: int):
        """Multiplication by the variables from Q_d to Q_{d+1}: per standard
        monomial of degree d, the pairs (v, its product by x_v in
        `multiples`) of the nonzero products.  Built on first use."""
        got = self._action_cache.get(d)
        if got is None:
            rows = [self.multiples(x.lead()[0][1], d) for x in self.ring.gens()]
            got = self._action_cache[d] = tuple(
                tuple((v, row[n]) for v, row in enumerate(rows) if row[n])
                for n in range(len(self.standard_monomials(d)))
            )
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
    MCM verdict, the artinian reduction, the last support variety accepted
    with its window arguments) is cached on the instance."""

    __slots__ = (
        "rs", "gens", "relations", "_resolution", "_model", "_sub_gb", "_mcm", "_reduced",
        "_variety",
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
        self._variety = None

    @property
    def rank(self) -> int:
        return len(self.gens)

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
        require_integer(f"generator degree {i}", d, index=i)
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

    Each degree d is one `_eliminate` on the rows of `_map_rows`: the
    products x^m * g, for g kept in a lower degree and x^m a standard
    monomial of degree d - deg g, then the degree-d candidates in their
    given order; the kept candidates are its pivots past the products."""
    shifts = tuple(shifts)
    cols = [c for c in map(rs.qnf_elt, columns) if not c.is_zero()]
    cols.sort(key=lambda c: c.degree())
    kept = []
    for d, group in groupby(cols, key=lambda c: c.degree()):
        group = list(group)
        degs = [g.degree() for g in kept]
        products = sum(len(rs.standard_monomials(d - e)) for e in degs)
        rows = _map_rows(rs, [g.terms for g in kept + group], degs + [d] * len(group), d, shifts)
        kept += [group[c - products] for c in sorted(_eliminate(rows, rs.p)) if c >= products]
    return kept


def _offsets(rs: RingSpec, shifts, t: int):
    """First position of each summand Q(-shift) in the degree-t basis of
    the free module, and the total dimension."""
    out, size = [], 0
    for e in shifts:
        out.append(size)
        size += len(rs.standard_monomials(t - e))
    return out, size


def _map_rows(rs: RingSpec, columns, degs, t: int, shifts) -> list[dict]:
    """The rows of the matrix whose columns are x^m * w, for each dict w of
    (summand, monomial) terms in `columns`, of degree degs[n] in
    sum Q(-shifts), and x^m over `standard_monomials(t - degs[n])`, read
    from `RingSpec.multiples`: one {column: residue} dict per position of
    the degree-t basis of `_offsets`, no residue zero."""
    p = rs.p
    at, size = _offsets(rs, shifts, t)
    rows = [{} for _ in range(size)]
    first = 0
    for w, e in zip(columns, degs):
        for (k, a), v in w.items():
            off = at[k]
            for c, entries in enumerate(rs.multiples(a, t - e), first):
                for pos, cf in entries:
                    row = rows[off + pos]
                    if x := (row.get(c, 0) + v * cf) % p:
                        row[c] = x
                    else:
                        del row[c]
        first += len(rs.standard_monomials(t - e))
    return rows


def _variable_products(rs: RingSpec, basis, shifts, t: int, at) -> list[dict]:
    """The rows x_v * w, for w a {position: residue} row of `basis` (vectors
    of the degree-(t-1) part of sum Q(-shifts)), as rows of the degree-t
    part, whose summand offsets are `at`: one row per (w, v) whose product
    is not zero, v fastest, no residue zero, from `variable_action`."""
    n = rs.ring.nvars
    p = rs.p
    groups, offs = [], []
    for j, e in enumerate(shifts):
        act = rs.variable_action(t - 1 - e)
        groups += act
        offs += [at[j]] * len(act)
    out = []
    for w in basis:
        sums = [{} for _ in range(n)]
        for c, a in w.items():
            off = offs[c]
            for v, entries in groups[c]:
                row = sums[v]
                for k, cf in entries:
                    k += off
                    if x := (row.get(k, 0) + a * cf) % p:
                        row[k] = x
                    else:
                        del row[k]
        out += [row for row in sums if row]
    return out


def kernel_generators(rs: RingSpec, cols, degs, target_shifts, step: int, image_dims=None):
    """Minimal generators of the kernel K of the map F -> G whose columns
    `cols`, of degrees `degs`, live in G = sum Q(-target_shifts[k]), over an
    artinian Q, one degree t at a time; returns them with {t: dim K_t}.

    (F)_t has the basis x^m e_j, j first, x^m over the standard monomials
    of degree t - degs[j], descending.  t runs from min(degs) + 1 (the
    columns are minimal) to max(degs) + socle degree, past which F
    vanishes.  In each degree the span of x_v * K_{t-1}
    (`_variable_products`, K_{t-1} as sparse rows) is eliminated first.
    When `image_dims` gives the rank of the map in every degree (for a
    resolution, the kernel dimensions of the step before), dim K_t is
    known, and a span of that dimension is K_t, with nothing new.
    Otherwise K_t is the `nullspace` of the matrix of (F)_t -> (G)_t
    (`_map_rows`), and the new generators are its basis vectors at the free
    columns where the span, restricted to those columns, has no pivot.  A
    vector's
    position-over-term lead is its first column: the generators are made
    monic there and ordered by it, largest lead first.  The span is read
    only through its pivots and as the next degree's x_v * K_{t-1}, so its
    pivot rows serve as the basis of K_t when it is all of K_t.  Every
    degree counts against the degree budget and every product x^m * column
    against the pair budget; either raises ResourceBudgetError naming the
    budget, `step` and the degree reached."""
    ring = rs.ring
    p = rs.p
    budgets = _current_budgets.get()
    rank = len(degs)
    kernel_dims = {}
    gens = []
    products = 0
    below = None  # sparse rows spanning K_{t-1}, None when K_{t-1} = 0
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
            tails = _eliminate(_variable_products(rs, below, degs, t, at), p)
            span = [{c: 1, **tails[c]} for c in sorted(tails)]
            if known == len(span):
                kernel_dims[t] = known
                below = span
                continue
        products += width
        if products > budgets.max_pairs:
            raise ResourceBudgetError(
                f"resolution step {step} forms {products} products x^m * column by "
                f"degree {t}, past the pair budget {budgets.max_pairs}",
                budget="max_pairs", limit=budgets.max_pairs, step=step, degree=t,
                products=products,
            )
        basis = nullspace(_map_rows(rs, [c.terms for c in cols], degs, t, target_shifts), width, p)
        if known is not None and len(basis) != known:
            raise InternalError(
                "kernel dimension differs from the one the previous step implies",
                step=step, degree=t, found=len(basis), expected=known,
            )
        kernel_dims[t] = len(basis)
        if not basis:
            below = None
            continue
        fresh = basis
        if span is not None:
            covered = _eliminate([{c: v for c, v in w.items() if c in basis} for w in span], p)
            fresh = [f for f in basis if f not in covered]
        keys = [(j, m) for j, e in enumerate(degs) for m in rs.standard_monomials(t - e)]
        for row in sorted((basis[f] for f in fresh), key=min):
            lead = sorted(row)
            inv = fp_inv(row[lead[0]], p)
            gens.append(FreeElt(ring, rank, {keys[c]: row[c] * inv % p for c in lead}, degs))
        below = list(basis.values())
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

    __slots__ = ("rs", "pres", "pruned", "degs", "diffs", "ops", "_kernel_dims", "_syzygies")

    def __init__(self, pres: ModulePresentation):
        self.rs = pres.rs
        self.pres = pres
        self.pruned = prune_units(pres)
        d1 = minimal_columns(self.rs, self.pruned.relations, self.pruned.gens)
        self.degs = [tuple(self.pruned.gens), tuple(c.degree() for c in d1)]
        self.diffs = [None, d1]
        self.ops = None  # filled by the operator-extraction layer
        self._kernel_dims = None  # {t: dim (ker d_i)_t} of the last degreewise step
        self._syzygies = {}  # {n: the n-th syzygy module}, see `syzygy_module`

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

    def betti_sequence(self, n: int):
        self.extend(n)
        return [len(self.degs[i]) for i in range(n + 1)]


def resolve_min(pres: ModulePresentation, steps: int = 1) -> Resolution:
    """The minimal free resolution, computed out to d_steps and cached on the
    presentation, so later calls only extend."""
    require_integer("steps", steps)
    if pres._resolution is None:
        pres._resolution = Resolution(pres)
    return pres._resolution.extend(steps)


def syzygy_module(pres: ModulePresentation, n: int) -> ModulePresentation:
    """Presentation of the n-th syzygy module read off the minimal
    resolution: generators F_n, relations the columns of d_{n+1}.  n = 0
    returns the pruned module itself.  Kept on the resolution; for n >= dim Q
    it is MCM or zero (the depth lemma), a verdict recorded for `is_mcm`."""
    require_integer("syzygy index", n)
    if n < 0:
        raise InputError("syzygy index must be nonnegative")
    res = resolve_min(pres, n + 1)
    syz = res.pruned if n == 0 else res._syzygies.get(n)
    if syz is None:
        syz = res._syzygies[n] = ModulePresentation(pres.rs, res.degs[n], list(res.diffs[n + 1]))
    if n >= pres.rs.dim:
        syz._mcm = True
    return syz


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
    y = 0.  A verdict `syzygy_module` recorded is read, not tested."""
    if pres._reduced is None:
        red = pres.rs.reduction()
        if red is None or not (pres._mcm or is_mcm(pres)):
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
    vector as a tuple of ints, and one action per ring variable, kept as
    sparse columns: column c is the image of basis vector c, a {row:
    residue} dict with no zero residue.  `arith.matmul` composes them into
    the action of any monomial."""

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
        vm = VectorModel(rs, [], (), [[] for _ in range(ring.nvars)])
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
    basis.sort(key=lambda k: (mono_deg(k[1]) + pres.gens[k[0]], k[0], _drl_key(k[1])))
    index = {k: i for i, k in enumerate(basis)}
    degs = tuple(mono_deg(m) + pres.gens[c] for (c, m) in basis)
    actions = []
    for v in range(ring.nvars):
        (_slot, xv), _ = ring.gen(v).lead()
        cols = []
        for c, m in basis:
            image = FreeElt(ring, rank, {(c, mono_mul(m, xv)): 1}, pres.gens)
            rem, _ = normal_form(image, gb)
            cols.append({index[key]: coeff for key, coeff in rem.terms.items()})
        actions.append(cols)
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
    commuting actions as sparse columns) back to a minimal presentation.
    Minimal generators are coordinate vectors outside (maximal ideal)*M
    degree by degree: in degree d, the pivots past the action columns of
    one `_eliminate` on the rows of [every action applied to M_{d-1} | the
    unit vectors of M_d].  Relations come from nullspaces of the evaluation
    map in each degree up to top+1, where the kernel is generated, and are
    made minimal by `minimal_columns`."""
    dim = len(degs)
    p = rs.p
    if dim == 0:
        return ModulePresentation(rs, (), ())
    gens = []  # (degree, coordinate)
    for d in range(min(degs), max(degs) + 1):
        prev = [i for i, e in enumerate(degs) if e == d - 1]
        columns = [act[i] for act in actions for i in prev]
        columns += [{i: 1} for i, e in enumerate(degs) if e == d]
        pivots = sorted(_eliminate(_transpose(columns, dim), p))
        skip = len(actions) * len(prev)
        gens += [(d, next(iter(columns[c]))) for c in pivots if c >= skip]
    gen_degs = tuple(d for d, _ in gens)
    r = len(gens)
    ring = rs.ring
    mono_mats = {}

    def monomial_matrix(m):
        got = mono_mats.get(m)
        if got is None:
            got = [{c: 1} for c in range(dim)]
            for v, e in enumerate(m):
                for _ in range(e):
                    got = matmul(got, actions[v], p)
            mono_mats[m] = got
        return got

    relations = []
    for d in range(min(gen_degs, default=0), max(degs) + 2):
        keys = []
        columns = []
        for g, (gd, coord) in enumerate(gens):
            for m in rs.standard_monomials(d - gd):
                keys.append((g, m))
                columns.append(monomial_matrix(m)[coord])
        if not keys:
            continue
        for vec in nullspace(_transpose(columns, dim), len(keys), p).values():
            relations.append(FreeElt(ring, r, {keys[c]: vec[c] for c in sorted(vec)}, gen_degs))
    minimal = minimal_columns(rs, relations, gen_degs)
    return ModulePresentation(rs, gen_degs, minimal)
