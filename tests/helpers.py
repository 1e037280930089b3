"""Independent oracles for the engine tests.

Everything here reimplements the checked property from scratch on top of
the public term containers, with different tie-breaking than the engine
(reduction picks the LAST matching reducer, not the first), so a shared
bug would have to be shared logic, not shared code paths.
"""

import random

import numpy as np

from civar.arith import Poly, _drl_key, fp_inv, mono_div, mono_lcm, mono_mul
from civar.cohomology import ExtKModule, VarietyIdeal
from civar.groebner import FreeElt, groebner_basis, normal_form
from civar.resolve import RingSpec, _offsets, apply_columns, present_module, resolve_min


def naive_reduce(v, elements):
    """Full top-reduction of a FreeElt by a list of monic FreeElts, always
    choosing the last basis element whose lead divides the current term."""
    if not elements:
        return v
    ring = v.ring
    p = ring.p
    key = _drl_key
    leads = [e.lead() for e in elements]
    terms = dict(v.terms)
    out = {}
    while terms:
        lt = max(terms, key=lambda t: (-t[0], key(t[1])))
        coeff = terms[lt]
        hit = None
        for k in range(len(elements) - 1, -1, -1):
            (ck, mk), _ = leads[k]
            if ck == lt[0]:
                q = mono_div(lt[1], mk)
                if q is not None:
                    hit = (k, q)
                    break
        if hit is None:
            out[lt] = coeff
            del terms[lt]
            continue
        k, q = hit
        for (gc, gm), gv in elements[k].terms.items():
            kk = (gc, mono_mul(gm, q))
            s = (terms.get(kk, 0) - coeff * gv) % p
            if s:
                terms[kk] = s
            else:
                terms.pop(kk, None)
    return FreeElt(ring, v.rank, out, v.shifts)


def times(v, f):
    """The free-module element v times the polynomial f, one component at a
    time on Poly arithmetic."""
    return FreeElt.from_polys([c * f for c in v.components()], v.shifts)


def component(v, c):
    """Row c of a FreeElt as a polynomial, one filter over all the terms: the
    row-by-row reference for `FreeElt.components`."""
    return Poly(v.ring, {(0, m): x for (r, m), x in v.terms.items() if r == c})


def render_reference(v):
    """The text of a FreeElt built row by row from `component`, each row a
    separate filter over all the terms."""
    return "(" + ", ".join(str(component(v, c)) for c in range(v.rank)) + ")"


# References on plain {exponent tuple: residue} dicts, sharing no code with
# the (slot, monomial) terms and the `_sub_shifted` kernel of `FreeElt`.


def monomial_terms(f):
    """The terms of a polynomial as {exponent tuple: residue}."""
    return {m: c for (_slot, m), c in f.terms.items()}


def mul_reference(a, b, p):
    """a * b by the double loop over both term dicts."""
    t = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            s = (t.get(m, 0) + c1 * c2) % p
            if s:
                t[m] = s
            else:
                t.pop(m, None)
    return t


def add_reference(a, b, p):
    t = dict(a)
    for m, c in b.items():
        s = (t.get(m, 0) + c) % p
        if s:
            t[m] = s
        else:
            t.pop(m, None)
    return t


def pow_reference(a, e, ring):
    """a^e as e successive products, starting from 1."""
    t = {(0,) * ring.nvars: 1}
    for _ in range(e):
        t = mul_reference(t, a, ring.p)
    return t


def map_reference(a, ring, var_map):
    """The image of a under variable i -> ring variable var_map[i]."""
    t = {}
    for m, c in a.items():
        e = [0] * ring.nvars
        for i, ei in enumerate(m):
            e[var_map[i]] += ei
        t[tuple(e)] = (t.get(tuple(e), 0) + c) % ring.p
    return {m: c for m, c in t.items() if c}


def str_reference(ring, a):
    """The text of a polynomial: terms largest first, coefficient 1 and
    exponent 1 omitted, "0" for no terms."""
    parts = []
    for m in sorted(a, key=_drl_key, reverse=True):
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(ring.vars, m) if e]
        if a[m] != 1 or not factors:
            factors.insert(0, str(a[m]))
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"


def s_element(a, b):
    """The S-vector of two monic FreeElts with leads in one component, or
    None when the leads live in different components."""
    (ca, ma), _ = a.lead()
    (cb, mb), _ = b.lead()
    if ca != cb:
        return None
    lcm = mono_lcm(ma, mb)
    ua = mono_div(lcm, ma)
    ub = mono_div(lcm, mb)
    ring = a.ring
    return times(a, ring.poly({ua: 1})) - times(b, ring.poly({ub: 1}))


def buchberger_holds(gb) -> bool:
    """Every pairwise S-vector of the basis reduces to zero under the
    independent reducer above."""
    els = gb.elements
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            s = s_element(els[i], els[j])
            if s is None or s.is_zero():
                continue
            if not naive_reduce(s, els).is_zero():
                return False
    return True


def brute_radical(g, gens, ring, emax=6):
    """Is some power g^e (e <= emax) in the plain ideal?  Sound but not
    complete; agreement with radical_membership is asserted only where
    this bound suffices."""
    live = [f for f in gens if not f.is_zero()]
    if g.is_zero():
        return True
    if not live:
        return False
    gb = groebner_basis(live, _allow_inhomogeneous=True)
    power = ring.one()
    for _ in range(emax):
        power = power * g
        if gb.contains(power):
            return True
    return False


def random_homogeneous(ring, degree, rng, allow_zero=False):
    """Random homogeneous polynomial of the exact degree, dense over the
    monomial basis."""
    while True:
        terms = {}
        for m in ring.monomials_of_degree(degree):
            c = rng.randrange(ring.p)
            if c:
                terms[m] = c
        poly = ring.poly(terms)
        if allow_zero or not poly.is_zero():
            return poly


def random_column(ring, shifts, degree, rng):
    """Random homogeneous FreeElt of total degree `degree` against the
    generator shifts; component entries may be zero but not all."""
    while True:
        polys = []
        for s in shifts:
            d = degree - s
            if d < 0:
                polys.append(ring.zero())
            else:
                polys.append(random_homogeneous(ring, d, rng, allow_zero=True))
        elt = FreeElt.from_polys(polys, tuple(shifts))
        if not elt.is_zero():
            return elt


def linear_form(rs, coeffs):
    """sum_j coeffs[j] chi_j in the ring H of operators of rs."""
    c = rs.codim
    return rs.h_ring.poly({tuple(int(i == j) for i in range(c)): a for j, a in enumerate(coeffs)})


def in_variety_by_projective_dimension(pres, a) -> bool:
    """Point oracle for support varieties.  For a in F_p^c, a != 0, let
    Q_a = P/(a_1 f_1 + ... + a_c f_c); then a lies in V(M) exactly when M
    has infinite projective dimension over Q_a (Avramov, Invent. Math. 96,
    1989; Avramov-Buchweitz, Invent. Math. 142, 2000, Thm 2.5).  Q_a is
    Cohen-Macaulay of depth n - 1, n the number of variables, so by
    Auslander-Buchsbaum that is b_n^{Q_a}(M) != 0: one n-step resolution
    over a ring with one relation, exact at F_p-rational points.  Over Q_a,
    M is presented by its relations plus f_j e_i for every relation f_j of Q
    and generator e_i.  The f_j with a_j != 0 must share one degree, so
    that Q_a is graded."""
    rs = pres.rs
    p = rs.p
    fa = None
    for c, f in zip(a, rs.ci):
        if c % p:
            fa = f * c if fa is None else fa + f * c
    if fa is None:
        raise ValueError("the point must be nonzero")
    qa = RingSpec(p, rs.ring.vars, [fa])
    cols = list(pres.relations) + [
        FreeElt(rs.ring, pres.rank, {(i, m): v for (_, m), v in f.terms.items()}, pres.gens)
        for f in rs.ci
        for i in range(pres.rank)
    ]
    n = rs.ring.nvars
    return resolve_min(present_module(qa, pres.gens, cols), n).betti_sequence(n)[n] != 0


def seeded(tag: str) -> random.Random:
    """One rng per test, reproducible, distinct streams per tag."""
    return random.Random(f"civar:{tag}")


def betti_growth(betti) -> int:
    """Complexity read off Betti numbers alone: how many finite differences
    it takes the second half of the sequence to vanish, even and odd
    positions apart (the tail may be quasi-polynomial of period 2)."""

    def order(seq):
        n = 0
        while any(seq):
            seq = [b - a for a, b in zip(seq, seq[1:])]
            n += 1
        return n

    tail = list(betti[len(betti) // 2 :])
    return max(order(tail[0::2]), order(tail[1::2]))


def rref_reference(a, p: int):
    """Reduced row echelon form mod p the plain way, one column at a time
    from the left, the first row with a nonzero entry as the pivot row,
    reducing the whole matrix at every pivot.  The reduced form is unique,
    so `arith.rref`'s output must match it bit for bit."""
    a = np.mod(np.array(a, dtype=np.int64, copy=True), p)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = np.mod(a[r] * fp_inv(int(a[r, c]), p), p)
        col = a[:, c].copy()
        col[r] = 0
        a -= np.outer(col, a[r])
        np.mod(a, p, out=a)
        pivots.append(c)
        r += 1
    return a, pivots


def nullspace_reference(a, p: int):
    """Basis of {v : a v = 0} read off `rref_reference`, one list per free
    column, in free-column order: 1 there, minus that column of the reduced
    form at the pivots, 0 elsewhere."""
    r, pivots = rref_reference(a, p)
    cols = r.shape[1]
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [0] * cols
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = -int(r[i, f]) % p
        basis.append(vec)
    return basis


def minimal_columns_reference(rs, columns):
    """The minimal generating set `resolve.minimal_columns` must return,
    decided one candidate at a time.  Each column is brought to normal form
    modulo (f) entry by entry with `normal_form`, zero columns are dropped,
    and the rest are taken by ascending degree, in their given order within
    a degree.  A candidate of degree d is kept when `rref_reference` finds it
    outside the span of every product x^m * g, g kept in a lower degree and
    x^m any monomial of degree d - deg g (reduced with `normal_form`), and of
    the degree-d columns kept before it."""
    ring = rs.ring

    def nf(v):
        return FreeElt.from_polys(
            [component(normal_form(f, rs.ci_gb)[0], 0) for f in v.components()], v.shifts
        )

    cols = sorted((w for w in map(nf, columns) if not w.is_zero()), key=lambda w: w.degree())
    kept = []
    for v in cols:
        d = v.degree()
        span = [
            nf(times(g, ring.poly({m: 1})))
            for g in kept
            if g.degree() < d
            for m in ring.monomials_of_degree(d - g.degree())
        ]
        vectors = span + [g for g in kept if g.degree() == d] + [v]
        keys = sorted({k for w in vectors for k in w.terms})
        a = np.array([[w.terms.get(k, 0) for w in vectors] for k in keys], dtype=np.int64)
        if len(vectors) - 1 in rref_reference(a, ring.p)[1]:
            kept.append(v)
    return kept


def prune_units_reference(pres):
    """(generator degrees, relations) that `resolve.prune_units` must
    return, computed on a dense matrix of Poly entries.  The pivot is the
    first column, and in it the first remaining row, whose entry has a
    nonzero constant term c; every other column with a nonzero entry a in
    that row loses a / c times the pivot column, entry by entry through Poly
    arithmetic and `normal_form`; the pivot row and column then go, and so
    do zero columns at the end."""
    rs = pres.rs
    one = rs.ring._one_mono

    def constant(f):
        return f.terms.get((0, one), 0)

    mat = [[component(col, i) for col in pres.relations] for i in range(pres.rank)]
    rows = list(range(pres.rank))
    cols = list(range(len(pres.relations)))
    while True:
        pivot = next(((i, j) for j in cols for i in rows if constant(mat[i][j])), None)
        if pivot is None:
            break
        i, j = pivot
        u = fp_inv(constant(mat[i][j]), rs.p)
        for j2 in cols:
            if j2 != j and not mat[i][j2].is_zero():
                q = mat[i][j2].scale(u)
                for r in range(pres.rank):
                    mat[r][j2] = component(normal_form(mat[r][j2] - q * mat[r][j], rs.ci_gb)[0], 0)
        rows.remove(i)
        cols.remove(j)
    gens = tuple(pres.gens[i] for i in rows)
    out = [FreeElt.from_polys([mat[i][j] for i in rows], gens) for j in cols] if rows else []
    return gens, [c for c in out if not c.is_zero()]


def dense(columns, rows):
    """The int64 matrix, `rows` high, of a map given as sparse columns
    {row: residue}, the format of `ExtKModule.act` and its windows."""
    out = np.zeros((rows, len(columns)), dtype=np.int64)
    for c, col in enumerate(columns):
        for r, v in col.items():
            out[r, c] = v
    return out


def annihilator_reference(ext, top):
    """The window annihilator the plain way: in each degree d <= top, one
    nullspace over the coefficients of all degree-d monomials, of every
    block E^i -> E^{i+2d} stacked, and every degree's whole kernel handed
    to the Groebner basis.  `annihilator_window` must give the same ideal
    at its bound top = (N - g_N) / 2."""
    h_ring = ext.rs.h_ring
    found = []
    for d in range(1, top + 1):
        monos = h_ring.monomials_of_degree(d)
        blocks = []
        for i in range(ext.steps - 2 * d + 1):
            rows = ext.dims[i + 2 * d] * ext.dims[i]
            if rows:
                blocks.append(np.stack(
                    [dense(ext.monomial_window(m, i), ext.dims[i + 2 * d]).reshape(-1) for m in monos], axis=1
                ))
        if blocks:
            kernel = nullspace_reference(np.concatenate(blocks, axis=0), ext.rs.p)
        else:
            kernel = np.eye(len(monos), dtype=np.int64).tolist()
        for vec in kernel:
            found.append(h_ring.poly(dict(zip(monos, vec))))
    return VarietyIdeal(h_ring, found)


def quotient_ext(rs, gens, steps):
    """E = H/I for the ideal I of H = k[chi_1..chi_c] generated by the
    homogeneous `gens` (none constant), placed in the even degrees 0..steps
    (E^{2k} = (H/I)_k, odd degrees zero), chi_j acting by multiplication,
    each action as sparse columns like `ExtKModule.act`.
    Each (H/I)_k is read off the reduced row echelon form of I_k, spanned by
    the monomial multiples of the generators: its basis is the non-pivot
    monomials, and a pivot monomial's normal form is minus the rest of its
    row.  No Groebner basis is involved."""
    h_ring, p = rs.h_ring, rs.p
    forms = [{m: c for (_slot, m), c in g.terms.items()} for g in gens]
    normal, basis = [], []  # per k: {monomial: {standard monomial: coefficient}}
    for k in range(steps // 2 + 1):
        monos = h_ring.monomials_of_degree(k)
        at = {m: n for n, m in enumerate(monos)}
        span = []
        for f in forms:
            shift = k - sum(next(iter(f)))
            for q in h_ring.monomials_of_degree(shift):
                row = [0] * len(monos)
                for m, c in f.items():
                    row[at[mono_mul(m, q)]] = c
                span.append(row)
        r, pivots = rref_reference(np.array(span, dtype=np.int64).reshape(-1, len(monos)), p)
        free = [n for n in range(len(monos)) if n not in pivots]
        nf = {monos[n]: {monos[n]: 1} for n in free}
        for row, pc in zip(r.tolist(), pivots):
            nf[monos[pc]] = {monos[n]: -row[n] % p for n in free if row[n]}
        normal.append(nf)
        basis.append([monos[n] for n in free])
    dims = [len(basis[i // 2]) if i % 2 == 0 else 0 for i in range(steps + 1)]
    act = []
    for j in range(h_ring.nvars):
        u = tuple(int(v == j) for v in range(h_ring.nvars))
        per_i = []
        for i in range(steps - 1):
            cols = [{} for _ in range(dims[i])]
            if i % 2 == 0:
                target = {m: n for n, m in enumerate(basis[i // 2 + 1])}
                for col, s in enumerate(basis[i // 2]):
                    for m, c in normal[i // 2 + 1][mono_mul(s, u)].items():
                        cols[col][target[m]] = c
            per_i.append(cols)
        act.append(per_i)
    return ExtKModule(rs, steps, dims, act)


def shifted_quotients(rs, parts, steps):
    """The direct sum of the `quotient_ext` of each (gens, g) in `parts`,
    moved up g degrees, so that its generator 1 sits in E^g.  A basis of
    E^i lists the parts' basis vectors in the order of `parts`, and each
    chi_j acts on every part by itself."""
    pieces = [(quotient_ext(rs, gens, steps - g), g) for gens, g in parts]
    dims = [sum(q.dims[i - g] for q, g in pieces if i >= g) for i in range(steps + 1)]
    act = []
    for j in range(rs.h_ring.nvars):
        per_i = []
        for i in range(steps - 1):
            cols, top = [], 0  # top: where the part's rows start in E^{i+2}
            for q, g in pieces:
                if i >= g:
                    cols += [{top + r: v for r, v in col.items()} for col in q.act[j][i - g]]
                if i + 2 >= g:
                    top += q.dims[i + 2 - g]
            per_i.append(cols)
        act.append(per_i)
    return ExtKModule(rs, steps, dims, act)


# The degreewise kernel on dense int64 matrices, the reference for the sparse
# rows of `resolve.kernel_generators`: the products x_v * K_{t-1} by
# `np.add.at` against the action arrays, the degree matrix filled column by
# column, `rref_reference` on whole matrices, and the nullspace basis
# written out by hand from the reduced form.  Budgets are not checked.


def _action_arrays(rs, d):
    """`RingSpec.variable_action(d)` as int64 arrays (source position,
    variable, target position, coefficient) of the nonzero entries."""
    entries = [
        (k, v, pos, cf)
        for k, row in enumerate(rs.variable_action(d))
        for v, products in row
        for pos, cf in products
    ]
    return np.array(entries, dtype=np.int64).reshape(-1, 4).T.copy()


def _times_variables(rs, basis, shifts, t, below_at, at, width):
    parts = [_action_arrays(rs, t - 1 - e) for e in shifts]
    src = np.concatenate([act[0] + below_at[j] for j, act in enumerate(parts)])
    dst = np.concatenate([act[1] * width + act[2] + at[j] for j, act in enumerate(parts)])
    cf = np.concatenate([act[3] for act in parts])
    rows = np.zeros((basis.shape[0], rs.ring.nvars * width), dtype=np.int64)
    np.add.at(rows, (slice(None), dst), basis[:, src] * cf % rs.p)
    return rows.reshape(-1, width)


def _degree_matrix(rs, shifts, t, vectors, count):
    at, size = _offsets(rs, shifts, t)
    pos = [{m: n for n, m in enumerate(rs.standard_monomials(t - e))} for e in shifts]
    a = np.zeros((size, count), dtype=np.int64)
    for c, terms in enumerate(vectors):
        for (k, m), v in terms.items():
            a[at[k] + pos[k][m], c] = v
    return a


def kernel_generators_reference(rs, cols, degs, target_shifts, image_dims=None):
    """(generators, {t: dim K_t}) that `resolve.kernel_generators` must
    return for the same arguments, on dense matrices."""
    p = rs.p
    rank = len(degs)
    order = _drl_key
    kernel_dims, gens, below = {}, [], None
    for t in range(min(degs) + 1, max(degs) + rs.socle_degree + 1):
        at, width = _offsets(rs, degs, t)
        known = None if image_dims is None else width - image_dims.get(t, 0)
        if width == 0 or known == 0:
            below = None
            continue
        span = None
        if below is not None:
            image = _times_variables(rs, below[0], degs, t, below[1], at, width)
            rows, span = rref_reference(image, p)
            if known == len(span):
                kernel_dims[t] = known
                below = (rows[: len(span)], at)
                continue
        keys = [(j, m) for j, e in enumerate(degs) for m in rs.standard_monomials(t - e)]
        vectors = (
            rs.ci_gb.reduce_terms({(k, mono_mul(a, m)): v for (k, a), v in cols[j].terms.items()})
            for j, m in keys
        )
        r, pivots = rref_reference(_degree_matrix(rs, target_shifts, t, vectors, width), p)
        free = [c for c in range(width) if c not in pivots]
        assert known is None or len(free) == known
        kernel_dims[t] = len(free)
        if not free:
            below = None
            continue
        basis = np.zeros((len(free), width), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        if pivots:
            basis[:, pivots] = (-r[: len(pivots), free].T) % p
        fresh = range(len(free))
        if span is not None:
            covered = set(rref_reference(image[:, free], p)[1])
            fresh = [n for n in fresh if n not in covered]
        new = []
        for n in fresh:
            g = FreeElt(rs.ring, rank, {keys[c]: v for c, v in enumerate(basis[n].tolist()) if v}, degs)
            (c, m), lc = g.lead()
            new.append(((-c, order(m)), g.scale(fp_inv(lc, p)) if lc != 1 else g))
        new.sort(key=lambda lead_g: lead_g[0], reverse=True)
        gens += [g for _lead, g in new]
        below = (basis, at)
    return gens, kernel_dims


def operators_reference(res, upto):
    """The columns of t_j at middle indices 1..upto, {i: columns} per j,
    lifted one column at a time: each column w of d~_i d~_{i+1}, read over
    the ambient ring by `apply_columns`, is checked to reduce to zero,
    lifted to sum_j f_j u_j by `lift_terms` and audited term by term, and
    t_j = NF(u_j).  `lift_and_operators` works on monomial blocks instead
    and must give the same columns."""
    rs = res.rs
    res.extend(upto + 1)
    gb = rs.ci_gb
    out = [{} for _ in range(rs.codim)]
    for i in range(1, upto + 1):
        lo_rank, lo_shifts = len(res.degs[i - 1]), res.degs[i - 1]
        t_cols = [[] for _ in range(rs.codim)]
        for v in res.diffs[i + 1]:
            w = apply_columns(res.diffs[i], v, lo_rank, lo_shifts)
            assert not gb.reduce_terms(w.terms)
            u = gb.lift_terms(w.terms)
            check = FreeElt(rs.ring, lo_rank, {}, lo_shifts)
            for f, uj in zip(rs.ci, u):
                check = check + times(FreeElt(rs.ring, lo_rank, uj, lo_shifts), f)
            assert check == w
            for j, uj in enumerate(u):
                t_cols[j].append(FreeElt(rs.ring, lo_rank, gb.reduce_terms(uj), lo_shifts))
        for j in range(rs.codim):
            out[j][i] = t_cols[j]
    return out
