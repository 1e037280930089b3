"""Groebner machinery for submodules of graded free modules over F_p[x].

Generators are `arith.FreeElt`s, whose terms map (component, exponent tuple)
to a nonzero residue; the generators of an ideal are `Poly`s, the rank-1
elements, so ideals and submodules take the same paths.  The module order is
position-over-term: a term in a lower component beats any term in a higher
one, ties within a component broken by degrevlex.  Because
the leading components form an elimination block under this order, syzygies
drop out of a single completion run: each generator is given an inert tail
recording how the current element was assembled from the input, and any
element whose module part dies during reduction is harvested, its tail being
exactly a syzygy (the Schreyer generating set, one syzygy per S-pair that
reduces to zero).

Every division, whether top reduction during completion, interreduction of
the finished basis or a normal form against it, runs through one loop,
`_divide`, over the in-place kernel `arith._sub_shifted` that every product
of elements runs on too.  The reducer is always the first basis element, in a
fixed order, whose lead divides the current leading term, so every output is
deterministic.

Quotient rings never appear explicitly.  To work over Q = P/(f) a caller
passes the ring's reduced Groebner basis of (f), `RingSpec.ci_gb`, as
`quotient`; it is built once per ring and is the only way Q enters this
module.  `quotient_elements` adjoins its elements g_j * e_i to the
generators, and `syzygies` reduces the harvested tails modulo it.

Reduction modulo an ideal goes through one table instead of a division.  A
rank-1 basis keeps a table from monomial to the terms of its normal form,
each entry filled by `normal_form` the first time that monomial is met.  Any
dict keyed by (slot, monomial), the terms of a polynomial or a module
element or a syzygy tail, is then reduced term by term, slot by slot, by
table lookups (`GroebnerBasis.reduce_terms`).  This is exact: the remainder
modulo a Groebner basis is the unique combination of standard monomials
congruent to the input, so it does not depend on the division path, and it
is linear, so NF(sum c_m x^m) = sum c_m NF(x^m).

On a basis built with cofactors, the same `normal_form` call also records in
the entry the quotients c_{m,j} with x^m - NF(x^m) = sum_j c_{m,j} f_j over
the input generators f_j, and `GroebnerBasis.lift_terms` reads them the
same way: for w with NF(w) = 0 it returns u_j with w = sum_j f_j u_j.  The
quotients depend on the division path, but only up to a syzygy of the f_j.
When the f_j form a regular sequence, as the relations of a complete
intersection do, every syzygy is Koszul (Eisenbud, Trans. AMS 260, 1980),
so its entries lie in (f) and NF(u_j) does not depend on the path either.
The table lives on the basis and dies with it.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from contextvars import ContextVar
from itertools import combinations

from .arith import (
    FreeElt, Poly, PolyRing, _drl_key, _sub_shifted, add_terms, fp_inv, is_integer, mono_deg,
    mono_div, mono_lcm,
)
from .errors import InputError, ResourceBudgetError


class Budgets(namedtuple("Budgets", ("max_pairs", "max_degree"), defaults=(50_000, 40))):
    """Hard resource limits.  A completion run counts S-pairs against
    max_pairs and stops at pair degree max_degree; a degreewise resolution
    step over an artinian ring counts its products x^m * column against
    max_pairs and stops at degree max_degree.  Exceeding one raises
    ResourceBudgetError, its details naming the budget ("max_pairs" or
    "max_degree"), its limit and the degree reached; there is no silent
    truncation.  A named tuple, so
    immutable, and equal to a plain tuple of the same two values."""

    __slots__ = ()


DEFAULT_BUDGETS = Budgets()

_current_budgets: ContextVar[Budgets] = ContextVar("civar_budgets", default=DEFAULT_BUDGETS)


def configure_budgets(budgets: Budgets | None) -> Budgets:
    """Set the budgets of the current context and return the
    previous value.  None restores the shipped defaults.  The setting is a
    context variable, so it never reaches another thread (a new thread
    starts from the defaults) and concurrent callers cannot race.  It is the
    only way to set budgets: every completion run reads it when it starts,
    so a one-off override sets it and restores the returned value after.
    Anything but a `Budgets` (a plain tuple included) or None, and any field
    that is not an integer >= 0, is refused with InputError and leaves the
    setting as it was."""
    if budgets is None:
        budgets = DEFAULT_BUDGETS
    elif not isinstance(budgets, Budgets):
        raise InputError("budgets must be a Budgets or None", got=type(budgets).__name__)
    for name, value in zip(budgets._fields, budgets):
        if not is_integer(value) or value < 0:
            raise InputError(f"{name} must be an integer >= 0", value=repr(value))
    prev = _current_budgets.get()
    _current_budgets.set(budgets)
    return prev


# ---------------------------------------------------------------------------
# division


def _divide(terms: dict, tail, reducers: dict, termkey, p: int, rest: dict = None):
    """Divide `terms` in place by monic reducers, given per component as
    lists of (lead monomial, terms, tail); the first reducer in its list
    whose lead divides the current leading term is used, and the tail, when
    the reducer has one, follows every step.  Without `rest` this is top
    reduction: it stops at the first leading term no lead divides and
    returns that term (None when `terms` dies).  With `rest`, irreducible
    terms move into it and division goes on until `terms` is empty."""
    while terms:
        lt = max(terms, key=termkey)
        for lm, g, gt in reducers.get(lt[0], ()):
            q = mono_div(lt[1], lm)
            if q is not None:
                coeff = terms[lt]
                _sub_shifted(terms, g, coeff, q, p)
                if gt:  # reducers carry tails exactly when `tail` is a dict
                    _sub_shifted(tail, gt, coeff, q, p)
                break
        else:
            if rest is None:
                return lt
            rest[lt] = terms.pop(lt)
    return None


# ---------------------------------------------------------------------------
# completion engine


class _Completion:
    """One Buchberger run under the budgets of the current context.  Basis
    elements are monic; each carries an inert tail (its expression in the
    input generators) when tracking is on.  Tails never produce pairs and are
    never reduced against, so cofactor identities are exact by construction.
    With `harvest` on, the tails of elements that die are collected and every
    pair is treated: the harvested set must be the full Schreyer generating
    set, and criteria pruning would drop members."""

    def __init__(self, ring: PolyRing, rank: int, shifts, *, track: bool, harvest: bool):
        self.ring = ring
        self.p = ring.p
        self.rank = rank
        self.shifts = shifts
        self.track = track
        self.harvest = harvest
        self.budgets = _current_budgets.get()
        # parallel arrays for the basis
        self.leads = []  # (comp, mono)
        self.polys = []  # term dicts
        self.tails = []  # tail dicts (expression in input gens) or None
        self.pure = []  # element entirely inside its lead component?
        self.by_comp: dict[int, list[int]] = {}
        self.reducers: dict[int, list] = {}  # by_comp as (lead mono, terms, tail)
        self.queue = []  # heap of (deg, lcm key, comp, i, j)
        self.treated = set()
        self.pairs_done = 0
        self.harvested = []  # tail dicts of elements that died

    def termkey(self, t):
        return (-t[0], _drl_key(t[1]))

    # -- basis growth ------------------------------------------------------

    def add_generator(self, terms, tail):
        """Top-reduce an incoming element against the current basis, then
        either harvest its tail (if it died) or install it."""
        terms = dict(terms)
        lead = _divide(terms, tail, self.reducers, self.termkey, self.p)
        if lead is None:
            if self.harvest and tail:
                self.harvested.append(tail)
            return
        lc = terms[lead]
        if lc != 1:
            inv = fp_inv(lc, self.p)
            terms = add_terms({}, terms, inv, self.p)
            if tail is not None:
                tail = add_terms({}, tail, inv, self.p)
        idx = len(self.leads)
        comp = lead[0]
        for other in self.by_comp.get(comp, ()):
            lcm = mono_lcm(self.leads[other][1], lead[1])
            deg = mono_deg(lcm) + self.shifts[comp]
            heapq.heappush(
                self.queue, (deg, _drl_key(lcm), comp, other, idx)
            )
        self.leads.append(lead)
        self.polys.append(terms)
        self.tails.append(tail)
        self.pure.append(all(c == comp for (c, _m) in terms))
        self.by_comp.setdefault(comp, []).append(idx)
        self.reducers.setdefault(comp, []).append((lead[1], terms, tail))

    # -- main loop ---------------------------------------------------------

    def run(self):
        p = self.p
        while self.queue:
            deg, _lcmkey, comp, i, j = heapq.heappop(self.queue)
            if deg > self.budgets.max_degree:
                raise ResourceBudgetError(
                    f"S-pair degree {deg} exceeds the degree budget "
                    f"{self.budgets.max_degree}",
                    budget="max_degree", limit=self.budgets.max_degree,
                    degree=deg, pairs=self.pairs_done,
                )
            if self.pairs_done >= self.budgets.max_pairs:
                raise ResourceBudgetError(
                    f"S-pair budget {self.budgets.max_pairs} exhausted",
                    budget="max_pairs", limit=self.budgets.max_pairs,
                    degree=deg, pairs=self.pairs_done,
                )
            self.pairs_done += 1
            mi, mj = self.leads[i][1], self.leads[j][1]
            lcm = mono_lcm(mi, mj)
            if not self.harvest and self._criteria_skip(i, j, comp, lcm, mi, mj):
                self.treated.add((i, j))
                continue
            self.treated.add((i, j))
            ui = mono_div(lcm, mi)
            uj = mono_div(lcm, mj)
            terms = {}
            _sub_shifted(terms, self.polys[i], -1, ui, p)
            _sub_shifted(terms, self.polys[j], 1, uj, p)
            tail = None
            if self.track:
                tail = {}
                _sub_shifted(tail, self.tails[i], -1, ui, p)
                _sub_shifted(tail, self.tails[j], 1, uj, p)
            self.add_generator(terms, tail)

    def _criteria_skip(self, i, j, comp, lcm, mi, mj) -> bool:
        # product criterion: only valid when both elements live entirely in
        # the shared lead component, where the classical ideal-case proof
        # applies verbatim.
        if (
            self.pure[i]
            and self.pure[j]
            and all(a == 0 or b == 0 for a, b in zip(mi, mj))
        ):
            return True
        # chain criterion, conservative form: some third lead divides the
        # lcm and both sub-pairs were already treated.
        for k in self.by_comp.get(comp, ()):
            if k == i or k == j:
                continue
            if mono_div(lcm, self.leads[k][1]) is not None:
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a in self.treated and b in self.treated:
                    return True
        return False


# ---------------------------------------------------------------------------
# public entry points


class GroebnerBasis:
    """Reduced Groebner basis of a submodule, sorted with the largest lead
    first.  When built with cofactors=True, cofactors[i][g] expands
    elements[i] as a combination of the input generators.  leads[i] is the
    (component, monomial) lead of elements[i]."""

    def __init__(self, ring, rank, shifts, elements, cofactors):
        self.ring = ring
        self.rank = rank
        self.shifts = shifts
        self.elements: list[FreeElt] = elements
        self.cofactors = cofactors
        self.leads = [e.lead()[0] for e in elements]
        # element k divides with the tail {(k, 1): -1}, so a division's tail
        # collects the cofactors
        self._reducers: dict[int, list] = {}
        for k, ((c, m), e) in enumerate(zip(self.leads, elements)):
            minus_one = {(k, ring._one_mono): ring.p - 1}
            self._reducers.setdefault(c, []).append((m, e.terms, minus_one))
        # monomial -> (normal-form terms, quotients by the input generators
        # or None), each a tuple of (monomial, coeff) pairs; see `_fill_entry`
        self._nf_table: dict[tuple, tuple] = {}

    def contains(self, v) -> bool:
        rem, _ = normal_form(v, self)
        return rem.is_zero()

    def _fill_entry(self, m: tuple) -> tuple:
        """Fill the table entry of x^m, the first time the monomial is met,
        from one `normal_form` call: NF(x^m) and, on a basis built with
        cofactors, the quotients c_j with x^m - NF(x^m) = sum_j c_j f_j over
        the input generators f_j (the division's cofactors pushed through
        `cofactors`)."""
        rem, cofs = normal_form(self.ring.poly({m: 1}), self)
        nf = tuple((mm, c) for (_slot, mm), c in rem.terms.items())
        quots = None
        if self.cofactors is not None:
            quots = []
            for j in range(len(self.cofactors[0])):
                cj = self.ring.zero()
                for q, row in zip(cofs, self.cofactors):
                    if q.terms and row[j].terms:
                        cj = cj + q * row[j]
                quots.append(tuple((mm, c) for (_slot, mm), c in cj.terms.items()))
            quots = tuple(quots)
        entry = self._nf_table[m] = (nf, quots)
        return entry

    def reduce_terms(self, terms: dict) -> dict:
        """Normal form of `terms` modulo this ideal basis, slot by slot:
        `terms` maps (slot, monomial) to a residue, and so does the result.
        Each monomial is looked up in the basis's normal-form table."""
        if self.rank != 1:
            raise InputError("reduce_terms needs the basis of an ideal")
        table = self._nf_table
        p = self.ring.p
        acc = {}
        for (s, m), v in terms.items():
            for mm, c in (table.get(m) or self._fill_entry(m))[0]:
                k = (s, mm)
                acc[k] = acc.get(k, 0) + v * c
        return {k: r for k, a in acc.items() if (r := a % p)}

    def lift_terms(self, terms: dict) -> list[dict]:
        """Quotients of `terms` by the input generators f_1..f_c, slot by
        slot, read from the normal-form table: dicts u_j keyed like `terms`
        with terms - NF(terms) = sum_j f_j u_j in every slot.  Needs the basis
        of an ideal built with cofactors, such as `RingSpec.ci_gb`."""
        if self.rank != 1 or self.cofactors is None:
            raise InputError("lift_terms needs the basis of an ideal built with cofactors")
        table = self._nf_table
        p = self.ring.p
        accs = [{} for _ in self.cofactors[0]]
        for (s, m), v in terms.items():
            for acc, quot in zip(accs, (table.get(m) or self._fill_entry(m))[1]):
                for mm, c in quot:
                    k = (s, mm)
                    acc[k] = acc.get(k, 0) + v * c
        return [{k: r for k, a in acc.items() if (r := a % p)} for acc in accs]

    def scalar_elements(self) -> list[Poly]:
        if self.rank != 1:
            raise InputError("scalar_elements on a module basis")
        return [Poly(self.ring, e.terms) for e in self.elements]


def _prepare(gens, require_homogeneous: bool):
    if not gens:
        raise InputError("empty generator list")
    for i, g in enumerate(gens):
        if not isinstance(g, FreeElt):
            raise InputError(f"generator {i} is {type(g).__name__}, not a module element", index=i)
    ring = gens[0].ring
    rank = gens[0].rank
    shifts = gens[0].shifts
    for i, g in enumerate(gens):
        if g.ring != ring or g.rank != rank or g.shifts != shifts:
            raise InputError(f"generator {i} lives in a different free module")
        if require_homogeneous and not g.is_homogeneous():
            raise InputError(f"generator {i} is not homogeneous", index=i)
    return gens, ring, rank, shifts


def _check_quotient(quotient, ring: PolyRing = None) -> None:
    """`quotient=` is None (over P) or the Groebner basis of an ideal of
    `ring`."""
    if quotient is None:
        return
    if not isinstance(quotient, GroebnerBasis) or quotient.rank != 1:
        raise InputError("quotient must be the Groebner basis of an ideal, such as RingSpec.ci_gb")
    if ring is not None and quotient.ring != ring:
        raise InputError("quotient lives in a different ring")


def quotient_elements(quotient: GroebnerBasis, rank: int, shifts) -> list[FreeElt]:
    """The elements g_j e_i, for each element g_j of the ideal basis
    `quotient` and each component i of a rank-`rank` free module: adjoined
    to a generating set, they make it generate over P/(g)."""
    return [
        FreeElt(f.ring, rank, {(r, m): c for (_slot, m), c in f.terms.items()}, shifts)
        for f in quotient.elements
        for r in range(rank)
    ]


def groebner_basis(gens, *, cofactors: bool = False, _allow_inhomogeneous: bool = False) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by `gens` (Poly or
    FreeElt).  Deterministic: normal selection strategy, first-match
    reduction, element order fixed by sorting on lead terms.  Inhomogeneous
    input is allowed only for ideals, whose one shift is 0, so the pair
    degree is the degree of the lcm either way."""
    gens, ring, rank, shifts = _prepare(list(gens), not _allow_inhomogeneous)
    eng = _Completion(ring, rank, shifts, track=cofactors, harvest=False)
    for idx, g in enumerate(gens):
        tail = {(idx, ring._one_mono): 1} if cofactors else None
        eng.add_generator(g.terms, tail)
    eng.run()
    elements, tails = _reduced_form(eng)
    cofs = None
    if cofactors:
        # a tail's slots are generator indices: one row per generator
        cofs = [FreeElt(ring, len(gens), t).components() for t in tails]
    return GroebnerBasis(ring, rank, shifts, elements, cofs)


def _reduced_form(eng: _Completion):
    """Minimalize and tail-reduce the completed basis; monic; sorted with the
    largest lead first.  Tails follow every operation so cofactor identities
    survive interreduction."""
    kept: dict[int, list] = {}  # per component, ascending leads
    for i in sorted(range(len(eng.leads)), key=lambda i: eng.termkey(eng.leads[i])):
        c, m = eng.leads[i]
        same = kept.setdefault(c, [])
        if all(mono_div(m, lm) is None for lm, _g, _t in same):
            same.append((m, eng.polys[i], eng.tails[i]))
    # an element's own lead never divides its smaller terms, so once the
    # lead is set aside every kept element can serve as a reducer
    out = []
    for c, same in kept.items():
        for m, g, t in same:
            terms = dict(g)
            tail = dict(t) if t is not None else None
            result = {(c, m): terms.pop((c, m))}
            _divide(terms, tail, kept, eng.termkey, eng.p, result)
            out.append(((c, m), result, tail))
    out.sort(key=lambda t: eng.termkey(t[0]), reverse=True)
    elements = [FreeElt(eng.ring, eng.rank, terms, eng.shifts) for (_l, terms, _t) in out]
    tails = [t for (_l, _terms, t) in out]
    return elements, tails


def normal_form(v, gb: GroebnerBasis):
    """Full division of v by the basis: returns (remainder, cofactors) with
    v = remainder + sum cofactors[i] * gb.elements[i] exactly, and no
    remainder term divisible by any basis lead.  The reducer is always the
    first matching basis element, so the output is deterministic."""
    if not isinstance(v, FreeElt) or v.ring != gb.ring or v.rank != gb.rank:
        raise InputError("element does not live in the basis's free module")
    terms = dict(v.terms)
    tail = {}
    result = {}
    _divide(terms, tail, gb._reducers, lambda t: (-t[0], _drl_key(t[1])), gb.ring.p, result)
    rem = FreeElt(gb.ring, gb.rank, result, gb.shifts)
    # the tail's slots are basis indices: one cofactor row per element
    return rem, FreeElt(gb.ring, len(gb.elements), tail).components()


def syzygies(gens, *, quotient=None) -> list[FreeElt]:
    """Generators of the syzygy module of `gens` (rank-m column vectors of
    relations among them), via one tracked completion run.

    With `quotient` the Groebner basis of an ideal (f), such as
    `RingSpec.ci_gb`, the syzygies are taken over P/(f): its elements g_j e_i
    are adjoined as untracked generators and harvested tails are reduced
    modulo it.  Criteria pruning is off here: the harvested set must be the
    full Schreyer generating set, and skipping pairs would drop members."""
    raw = list(gens)
    if not raw:
        return []
    gens, ring, rank, shifts = _prepare(raw, True)
    _check_quotient(quotient, ring)
    m = len(gens)
    eng = _Completion(ring, rank, shifts, track=True, harvest=True)
    for idx, g in enumerate(gens):
        eng.add_generator(g.terms, {(idx, ring._one_mono): 1})
    if quotient is not None:
        for q in quotient_elements(quotient, rank, shifts):
            eng.add_generator(q.terms, {})
    eng.run()
    col_degs = tuple(g.degree() for g in gens)
    out = []
    for pos, tail in enumerate(eng.harvested):
        # a tail's slots are generator indices, so it is the syzygy itself
        terms = quotient.reduce_terms(tail) if quotient is not None else tail
        if not terms:
            continue
        elt = FreeElt(ring, m, terms, col_degs)
        lc = elt.lead()[1]
        if lc != 1:
            elt = elt.scale(fp_inv(lc, ring.p))
        out.append((elt.degree(), pos, elt))
    out.sort(key=lambda t: (t[0], t[1]))
    return [e for (_d, _p, e) in out]


class SubmoduleOracle:
    """Membership tests against a fixed generating set, optionally over the
    quotient by an ideal given by its Groebner basis, such as
    `RingSpec.ci_gb`.  Builds one Groebner basis up front and reuses it."""

    def __init__(self, gens, *, quotient=None):
        gens = list(gens)
        if gens:
            _prepare(gens, False)  # refuse a non-element before reading its ring
        _check_quotient(quotient, gens[0].ring if gens else None)
        self.quotient = quotient
        self.gb = None
        if gens:
            if quotient is not None:
                gens += quotient_elements(quotient, gens[0].rank, gens[0].shifts)
            self.gb = groebner_basis(gens)

    def reduce(self, v):
        if self.gb is not None:
            return normal_form(v, self.gb)[0]
        if self.quotient is not None:
            return FreeElt(v.ring, v.rank, self.quotient.reduce_terms(v.terms), v.shifts)
        return v

    def contains(self, v) -> bool:
        return self.reduce(v).is_zero()


# ---------------------------------------------------------------------------
# ideal-level operations


def ideal_dimension(gens, ring: PolyRing = None) -> int:
    """Krull dimension of P/I by the independent-set method: the dimension is
    the largest number of variables S such that no leading monomial of the
    Groebner basis lies entirely in k[S].  Returns -1 for the unit ideal."""
    gens = [g for g in gens if not g.is_zero()] if gens else []
    if ring is None:
        if not gens:
            raise InputError("ideal_dimension of (0) needs an explicit ring")
        ring = gens[0].ring
    n = ring.nvars
    if not gens:
        return n
    gb = groebner_basis(gens, _allow_inhomogeneous=True)
    return _leads_dimension(gb, n)


def _leads_dimension(gb: GroebnerBasis, n: int) -> int:
    """The dimension `ideal_dimension` reads off the leads of a Groebner
    basis of the ideal, in n variables."""
    leads = [m for (_c, m) in gb.leads]
    if any(mono_deg(m) == 0 for m in leads):
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in leads]
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = frozenset(subset)
            if all(not sup <= s for sup in supports):
                return size
    return 0


def _fresh_name(taken, base="t"):
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def radical_membership(g: Poly, gens, ring: PolyRing = None) -> bool:
    """Is g in the radical of (gens)?  Standard trick: g is in sqrt(I) iff
    1 lies in I + (1 - t g) in the extended ring P[t].  g and the
    generators must lie in `ring` (by default g's): their variables are read
    by position, so an element of another ring would be read as a different
    polynomial."""
    if ring is None:
        ring = g.ring
    gens = list(gens)
    for f in (g, *gens):
        if f.ring != ring:
            raise InputError(f"{f} lives over {f.ring}, not over {ring}")
    if g.is_zero():
        return True
    ext = PolyRing(ring.p, ring.vars + (_fresh_name(set(ring.vars)),))
    idx = list(range(ring.nvars))
    lifted = [f.map_to(ext, idx) for f in gens if not f.is_zero()]
    t = ext.gen(ext.nvars - 1)
    lifted.append(ext.one() - t * g.map_to(ext, idx))
    gb = groebner_basis(lifted, _allow_inhomogeneous=True)
    return any(m == ext._one_mono for (_c, m) in gb.leads)


def ideal_ops(a, b) -> list[Poly]:
    """The product of two ideals, returned as the reduced Groebner basis
    (deterministic generators); [] when either ideal is zero."""
    gens = [f * g for f in a for g in b if not f.is_zero() and not g.is_zero()]
    if not gens:
        return []
    return groebner_basis(gens, _allow_inhomogeneous=True).scalar_elements()
