"""Exact arithmetic over a prime field: polynomials and free-module elements
under degrevlex, sparse linear algebra, and univariate factorization.

Scalars are integer residues modulo an odd prime p.  Polynomials and
free-module elements are one class, `FreeElt`, whose terms form one
dictionary mapping (slot, monomial) to a nonzero residue, a monomial being
an exponent tuple; a `Poly` is the rank-1 element with shift 0, every slot
0.  Equality of elements is equality of dictionaries and there is no
coefficient swell to manage.  Every product, and every division step
downstream, runs on one kernel, `_sub_shifted`.  A matrix is a list of
sparse rows, {column: residue} dicts of Python integers with no zero
residue (a map may be kept as its sparse columns instead, which compose by
the same product), so no arithmetic here can overflow.  Nothing in this
module (or anywhere downstream) touches floating point.

Row reduction is one sparse kernel, `_eliminate`, forward elimination on
sparse rows, followed by `_back_substitute` where the reduced form is
wanted.  `rref` returns the reduced pivot rows and `nullspace` the basis
read off them; the callers that read only pivots, or a basis of the span,
call `_eliminate` alone, and the degreewise resolution builds its rows
sparse and calls the kernel directly.  `matmul` is the one product.  Every
span question downstream is asked of the pivot columns.  A column is a
pivot exactly when it lies outside the span of the columns to its left, so
the greedy choice "keep each vector that is independent of those before
it" is the pivot set of one elimination, and the reduced form expresses
each non-pivot column in the pivots before it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from numbers import Integral
from operator import add, neg

from .errors import InputError

# ---------------------------------------------------------------------------
# primes and residues


def is_odd_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def is_integer(v) -> bool:
    """True for every integral type (`numbers.Integral`); False for bool
    and for anything inexact, which would otherwise be truncated or stored
    as given.  A plain int is let through before the slower check against
    the abstract class."""
    return type(v) is int or (isinstance(v, Integral) and not isinstance(v, bool))


def require_integer(what: str, v, **where) -> None:
    """InputError unless v is an integer (`is_integer`): a count or degree
    given as a float, a string or a bool is refused, never truncated."""
    if not is_integer(v):
        raise InputError(f"{what} is {v!r}, not an integer", **where)


def fp_inv(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in F_p")
    return pow(a, -1, p)


def add_terms(a: dict, b: dict, c: int, p: int) -> dict:
    """a + c*b as a new term dict on (slot, monomial) keys, zero
    coefficients dropped."""
    out = dict(a)
    for k, v in b.items():
        s = (out.get(k, 0) + c * v) % p
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _sub_shifted(acc: dict, src: dict, coeff: int, q: tuple, p: int) -> None:
    """acc -= coeff * x^q * src, in place, on (slot, monomial) keys; the slot
    is a component for module parts and a generator index for tails.  The
    one multiplication kernel: products and every division step run on it."""
    for (s, m), v in src.items():
        k = (s, mono_mul(m, q))
        r = (acc.get(k, 0) - coeff * v) % p
        if r:
            acc[k] = r
        else:
            acc.pop(k, None)


# ---------------------------------------------------------------------------
# monomials: exponent tuples of fixed length

MONO_ONE_CACHE: dict[int, tuple] = {}


def mono_one(n: int) -> tuple:
    m = MONO_ONE_CACHE.get(n)
    if m is None:
        m = MONO_ONE_CACHE[n] = (0,) * n
    return m


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def mono_div(a: tuple, b: tuple):
    """a / b as a monomial, or None when b does not divide a."""
    q = []
    for x, y in zip(a, b):
        if x < y:
            return None
        q.append(x - y)
    return tuple(q)


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a: tuple) -> int:
    return sum(a)


# ---------------------------------------------------------------------------
# the monomial order


def _drl_key(m: tuple):
    """Sort key of degrevlex, the one monomial order: larger key, larger
    monomial.  Graded, ties broken by the smallest last exponent; 1 is the
    smallest monomial."""
    return (sum(m), tuple(map(neg, reversed(m))))


# ---------------------------------------------------------------------------
# polynomial rings


_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _valid_ident(s: str) -> bool:
    return bool(s) and s[0] not in "0123456789" and set(s) <= _IDENT_OK


class PolyRing:
    """F_p[x_1, ..., x_n] under degrevlex (`_drl_key`).  p must be an
    integer, an odd prime below 2^31."""

    __slots__ = ("p", "vars", "nvars", "_index", "_one_mono", "_monos")

    def __init__(self, p: int, variables):
        if not is_integer(p):
            raise InputError(f"p must be an integer, got {type(p).__name__} {p!r}")
        p = int(p)
        if p >= 1 << 31:
            # `is_odd_prime` tests by trial division, which past this bound
            # takes too long
            raise InputError(f"p = {p} is too large: the prime must be below 2^31")
        if not is_odd_prime(p):
            raise InputError(f"p = {p} is not an odd prime")
        variables = tuple(variables)
        if not variables:
            raise InputError("a polynomial ring needs at least one variable")
        for v in variables:
            if not _valid_ident(v):
                raise InputError(f"bad variable name {v!r}")
        if len(set(variables)) != len(variables):
            raise InputError(f"repeated variable in {variables}")
        self.p = p
        self.vars = variables
        self.nvars = len(variables)
        self._index = {v: i for i, v in enumerate(variables)}
        self._one_mono = mono_one(self.nvars)
        self._monos = {}

    # -- construction -------------------------------------------------------

    def poly(self, terms: dict) -> "Poly":
        """Build a polynomial from {exponent tuple: integer}, normalizing
        coefficients mod p and dropping zeros."""
        clean = {}
        for m, c in terms.items():
            m = tuple(m)
            # bool is an int subclass: True would be read as exponent 1
            if len(m) != self.nvars or any(type(e) is not int or e < 0 for e in m):
                raise InputError(f"bad exponent tuple {m} for {self.nvars} variables")
            if not is_integer(c):
                raise InputError(f"coefficient {c!r} of {m} is not an integer")
            c = int(c) % self.p
            if c:
                clean[0, m] = c
        return Poly(self, clean)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {(0, self._one_mono): 1})

    def gen(self, i) -> "Poly":
        if isinstance(i, str):
            i = self._index[i]
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {(0, tuple(e)): 1})

    def gens(self):
        return [self.gen(i) for i in range(self.nvars)]

    def monomials_of_degree(self, d: int):
        """All exponent tuples of total degree d, sorted descending in
        degrevlex (deterministic enumeration used all over the place).
        Enumerated once per degree and kept on the ring; the list returned
        is that shared one, so callers must not change it."""
        if d < 0:
            return []
        out = self._monos.get(d)
        if out is not None:
            return out
        out = []

        def rec(i, left, acc):
            if i == self.nvars - 1:
                out.append(tuple(acc + [left]))
                return
            for e in range(left, -1, -1):
                rec(i + 1, left - e, acc + [e])

        rec(0, d, [])
        out.sort(key=_drl_key, reverse=True)
        self._monos[d] = out
        return out

    # -- parsing ------------------------------------------------------------

    def parse(self, text: str) -> "Poly":
        return _parse_poly(self, text)

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, PolyRing) and self.p == other.p and self.vars == other.vars

    def __hash__(self):
        return hash((self.p, self.vars))

    def __repr__(self):
        vs = ",".join(self.vars)
        return f"F_{self.p}[{vs}]/degrevlex"


class FreeElt:
    """Element of a graded free module F = sum P(-shift_i) e_i over a
    polynomial ring P: one dict maps (slot, monomial) to a nonzero residue,
    the slot being the component.  Treat as immutable; the constructor
    trusts its terms to be normalized."""

    __slots__ = ("ring", "rank", "shifts", "terms")

    def __init__(self, ring: PolyRing, rank: int, terms: dict, shifts=None):
        self.ring = ring
        self.rank = rank
        self.terms = terms
        self.shifts = tuple(shifts) if shifts is not None else (0,) * rank

    @classmethod
    def from_polys(cls, polys, shifts=None) -> "FreeElt":
        polys = list(polys)
        if not polys:
            raise InputError("a free module element needs at least one component")
        ring = polys[0].ring
        terms = {}
        for c, f in enumerate(polys):
            if f.ring != ring:
                raise InputError("components from different rings")
            for (_slot, m), v in f.terms.items():
                terms[(c, m)] = v
        return cls(ring, len(polys), terms, shifts)

    def _like(self, terms: dict) -> "FreeElt":
        """An element of the same class and free module with these terms."""
        out = object.__new__(type(self))
        out.ring, out.rank, out.shifts, out.terms = self.ring, self.rank, self.shifts, terms
        return out

    def components(self):
        """Every row as a polynomial, in one pass over the terms: each
        term is bucketed by its component, so the cost is the number of
        terms, not rank times terms."""
        rows = [{} for _ in range(self.rank)]
        for (c, m), v in self.terms.items():
            rows[c][0, m] = v
        return [Poly(self.ring, t) for t in rows]

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Common degree of all terms counting shifts; None if mixed, -1 if
        zero."""
        if not self.terms:
            return -1
        degs = {mono_deg(m) + self.shifts[c] for (c, m) in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self) -> bool:
        return self.degree() is not None

    def lead(self):
        """((component, monomial), coefficient) of the leading term under
        position-over-term; None for zero."""
        if not self.terms:
            return None
        cm = max(self.terms, key=lambda t: (-t[0], _drl_key(t[1])))
        return cm, self.terms[cm]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring or self.rank != other.rank or self.shifts != other.shifts:
            raise InputError("mixing elements of different free modules")

    def __add__(self, other):
        self._check(other)
        return self._like(add_terms(self.terms, other.terms, 1, self.ring.p))

    def __sub__(self, other):
        self._check(other)
        return self._like(add_terms(self.terms, other.terms, -1, self.ring.p))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: int) -> "FreeElt":
        if c % self.ring.p == 1:
            return self
        return self._like(add_terms({}, self.terms, c, self.ring.p))

    def __mul__(self, other):
        """Scaling by an integer, or the product of a polynomial with a
        polynomial or a free-module element, term by term on `_sub_shifted`."""
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, FreeElt):
            return NotImplemented
        f, v = (self, other) if isinstance(self, Poly) else (other, self)
        if not isinstance(f, Poly):
            raise InputError("a product needs a polynomial factor")
        if f.ring != v.ring:
            raise InputError("mixing elements over different rings")
        acc = {}
        for (_slot, q), c in f.terms.items():
            _sub_shifted(acc, v.terms, -c, q, v.ring.p)
        return v._like(acc)

    __rmul__ = __mul__

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FreeElt)
            and self.ring == other.ring
            and self.rank == other.rank
            and self.shifts == other.shifts
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.rank, frozenset(self.terms.items())))

    def __str__(self):
        return "(" + ", ".join(str(f) for f in self.components()) + ")"

    def __repr__(self):
        return f"<{self}>"


class Poly(FreeElt):
    """Element of a PolyRing: the rank-1 free module with shift 0, printed
    bare.  `Poly(ring, terms)` trusts `terms` to map (0, monomial) to
    nonzero residues; `PolyRing.poly` validates."""

    __slots__ = ()

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.rank = 1
        self.shifts = (0,)
        self.terms = terms

    def homogeneous_degree(self):
        """The common degree of all terms, None if inhomogeneous or zero."""
        return self.degree() if self.terms else None

    def __pow__(self, e: int):
        if e < 0:
            raise InputError("negative power of a polynomial")
        out = self.ring.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def map_to(self, ring: PolyRing, var_map) -> "Poly":
        """Image under the ring map sending variable i to ring variable
        var_map[i].  Coefficients carry over; p must match."""
        if ring.p != self.ring.p:
            raise InputError("cannot map between different characteristics")
        t = {}
        for (_slot, m), c in self.terms.items():
            e = [0] * ring.nvars
            for i, ei in enumerate(m):
                e[var_map[i]] += ei
            k = (0, tuple(e))
            t[k] = (t.get(k, 0) + c) % ring.p
        return Poly(ring, {k: c for k, c in t.items() if c})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, key=lambda k: _drl_key(k[1]), reverse=True):
            c = self.terms[k]
            factors = []
            for v, e in zip(self.ring.vars, k[1]):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# parser
#
#   poly := ('+'|'-')? term (('+'|'-') term)*
#   term := coeff ('*'? factor)*  |  factor ('*'? factor)*
#   factor := var ('^' nat)?
#
# '*' between factors is optional; whitespace is free.  Coefficients are
# nonnegative integers (signs come from the poly level) reduced mod p.


def _parse_poly(ring: PolyRing, text: str) -> Poly:
    if not isinstance(text, str):
        raise InputError(f"polynomial source must be a string, got {type(text).__name__}")
    n = len(text)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def fail(msg):
        raise InputError(f"{msg} at position {pos} in {text!r}")

    def read_int():
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if start == pos:
            fail("expected an integer")
        return int(text[start:pos])

    def read_ident():
        nonlocal pos
        start = pos
        while pos < n and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        return text[start:pos]

    terms: dict[tuple, int] = {}
    skip_ws()
    if pos == n:
        fail("empty polynomial")
    first = True
    while True:
        skip_ws()
        if pos == n:
            break
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
            skip_ws()
        elif not first:
            fail("expected '+' or '-'")
        first = False
        # one term
        coeff = 1
        exps = [0] * ring.nvars
        saw_anything = False
        if pos < n and text[pos].isdigit():
            coeff = read_int()
            saw_anything = True
        while True:
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
                if pos == n:
                    fail("dangling '*'")
            if pos < n and (text[pos].isalpha() or text[pos] == "_"):
                name = read_ident()
                idx = ring._index.get(name)
                if idx is None:
                    pos -= len(name)
                    fail(f"unknown variable {name!r}")
                e = 1
                if pos < n and text[pos] == "^":
                    pos += 1
                    e = read_int()
                exps[idx] += e
                saw_anything = True
            else:
                break
        if not saw_anything:
            fail("expected a term")
        m = (0, tuple(exps))
        c = (terms.get(m, 0) + sign * coeff) % ring.p
        if c:
            terms[m] = c
        else:
            terms.pop(m, None)
        skip_ws()
        if pos < n and text[pos] not in "+-":
            fail(f"unexpected character {text[pos]!r}")
        if pos == n:
            break
    return Poly(ring, terms)


# ---------------------------------------------------------------------------
# linear algebra mod p: sparse rows of Python integers, exact


def matmul(a: list, b: list, p: int) -> list[dict]:
    """The rows of a * b mod p, a and b given by their rows: row i is the
    sum of v times row k of b over the entries (k, v) of row i of a, with
    no residue zero.  A map kept as sparse columns composes the same way:
    `matmul(f, g, p)` holds the columns of g after f."""
    out = []
    for row in a:
        acc = {}
        for k, v in row.items():
            for c, w in b[k].items():
                if x := (acc.get(c, 0) + v * w) % p:
                    acc[c] = x
                else:
                    del acc[c]
        out.append(acc)
    return out


def _transpose(columns, rows: int) -> list[dict]:
    """The sparse rows, `rows` of them, of the matrix with these sparse
    columns."""
    out = [{} for _ in range(rows)]
    for c, col in enumerate(columns):
        for r, v in col.items():
            out[r][c] = v
    return out


def _eliminate(rows: list, p: int, tails: dict = None) -> dict:
    """Forward elimination on sparse rows, one row at a time: each row is
    reduced by the pivot rows already found, in ascending pivot column,
    until its first entry is not a pivot; then it is made monic and becomes
    the pivot row of that column, or it is dropped when nothing is left.
    Returns {pivot column: tail}, the tail being the pivot row right of its
    pivot (the pivot entry itself is 1).  The rows are consumed.  Given the
    `tails` of an earlier elimination, the rows are reduced against those
    pivot rows too and the new ones are added to it, so rows can be fed
    one call at a time.  A row of one entry at no pivot is a pivot row with
    an empty tail, and at a pivot with an empty tail it reduces to zero.

    A pivot row is zero left of its pivot, so subtracting it adds entries
    only to the right of the column it clears; the columns still to clear
    are kept in a heap.  The pivot columns are those of `rref`, since a
    column is a pivot exactly when it lies outside the span of the columns
    to its left, and the pivot rows span the row space of the rows.  The
    residues are Python integers reduced at every step, so there is no
    overflow to manage, and the cost follows the nonzero entries and their
    fill: a dense n x n matrix costs about n^3 / 3 dictionary updates."""
    if tails is None:
        tails = {}
    for row in rows:
        if not row or len(row) == 1 and not tails.setdefault(min(row), {}):
            continue
        todo = [c for c in row if c in tails]
        if todo:
            heapify(todo)
            while todo:
                c = heappop(todo)
                f = row.pop(c, 0)
                if not f:
                    continue
                for k, v in tails[c].items():
                    x = row.get(k)
                    if x is None:
                        row[k] = -f * v % p
                        if k in tails:
                            heappush(todo, k)
                    elif x := (x - f * v) % p:
                        row[k] = x
                    else:
                        del row[k]
            if not row:
                continue
        c = min(row)
        f = row.pop(c)
        if f != 1:
            inv = pow(f, -1, p)
            row = {k: v * inv % p for k, v in row.items()}
        tails[c] = row
    return tails


def _back_substitute(tails: dict, pivots, p: int) -> None:
    """Clear every pivot row at the pivots to its right, in place, from the
    rightmost pivot row leftwards, so every row subtracted is already
    reduced and has no pivot entry but its own.  Afterwards every tail
    entry sits in a free column."""
    for c in reversed(pivots):
        row = tails[c]
        for right in [k for k in row if k in tails]:
            f = row.pop(right)
            for k, v in tails[right].items():
                if x := (row.get(k, 0) - f * v) % p:
                    row[k] = x
                else:
                    del row[k]


def rref(rows: list, p: int):
    """Reduced row echelon form mod p of the matrix with these sparse rows,
    as (pivot rows, pivot columns), the pivot columns left to right and one
    row per pivot, 1 at its own pivot and 0 at every other:
    `_eliminate`, then `_back_substitute`.  The rows are consumed."""
    tails = _eliminate(rows, p)
    pivots = sorted(tails)
    _back_substitute(tails, pivots, p)
    return [{c: 1, **tails[c]} for c in pivots], pivots


def nullspace(rows: list, cols: int, p: int) -> dict:
    """Echelonized basis of {v : a v = 0}, a the matrix on `cols` columns
    with these sparse rows, as {free column: sparse row}, one per free
    column of `rref`, in free-column order: the row of free column f is 1
    at f and minus the entry of each reduced pivot row at f at that row's
    pivot.  Every residue is nonzero.  The rows are consumed."""
    tails = _eliminate(rows, p)
    pivots = sorted(tails)
    _back_substitute(tails, pivots, p)
    out = {f: {f: 1} for f in range(cols) if f not in tails}
    for c in pivots:
        for k, v in tails[c].items():
            out[k][c] = p - v
    return out


# ---------------------------------------------------------------------------
# univariate polynomials over F_p, dense ascending coefficient lists
#
# Enough machinery for minimal polynomials and their factorization, which is
# what idempotent splitting consumes.  p is odd throughout (ring-level
# invariant), so Cantor-Zassenhaus splitting applies.


def poly1_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def poly1_deg(f) -> int:
    return len(f) - 1


def poly1_monic(f, p):
    f = [c % p for c in f]
    poly1_trim(f)
    if not f:
        return f
    inv = fp_inv(f[-1], p)
    return [(c * inv) % p for c in f]


def poly1_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return poly1_trim(out)


def poly1_divmod(f, g, p):
    f = [c % p for c in f]
    poly1_trim(f)
    g = [c % p for c in g]
    poly1_trim(g)
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    inv = fp_inv(g[-1], p)
    q = [0] * max(0, len(f) - len(g) + 1)
    r = list(f)
    while len(r) >= len(g) and r:
        c = (r[-1] * inv) % p
        d = len(r) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            r[d + i] = (r[d + i] - c * b) % p
        poly1_trim(r)
    return poly1_trim(q), r


def poly1_gcd(f, g, p):
    f = poly1_monic(f, p)
    g = poly1_monic(g, p)
    while g:
        f, g = g, poly1_divmod(f, g, p)[1]
        g = poly1_monic(g, p)
    return f


def poly1_xgcd(f, g, p):
    """Extended gcd: returns (d, a, b) with a*f + b*g = d, d monic (or [])."""
    r0, r1 = list(f), list(g)
    a0, a1 = [1], []
    b0, b1 = [], [1]
    while poly1_trim(r1):
        q, r = poly1_divmod(r0, r1, p)
        r0, r1 = r1, r
        a0, a1 = a1, poly1_sub(a0, poly1_mul(q, a1, p), p)
        b0, b1 = b1, poly1_sub(b0, poly1_mul(q, b1, p), p)
    if not r0:
        return [], [], []
    lc = fp_inv(r0[-1], p)
    scale = lambda h: [(c * lc) % p for c in h]
    return scale(r0), scale(a0), scale(b0)


def poly1_sub(f, g, p):
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return poly1_trim(out)


def poly1_powmod(f, e: int, m, p):
    out = [1]
    base = poly1_divmod(f, m, p)[1]
    while e:
        if e & 1:
            out = poly1_divmod(poly1_mul(out, base, p), m, p)[1]
        e >>= 1
        if e:
            base = poly1_divmod(poly1_mul(base, base, p), m, p)[1]
    return out


def poly1_deriv(f, p):
    return poly1_trim([(i * c) % p for i, c in enumerate(f)][1:])


def _pth_root(f, p):
    # over F_p the Frobenius fixes scalars, so the root just reindexes.
    return [f[i] for i in range(0, len(f), p)]


def _ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f: list of
    (product of irreducibles of degree d, d)."""
    out = []
    h = [0, 1]  # T
    s = list(f)
    d = 0
    while poly1_deg(s) >= 2 * (d + 1):
        d += 1
        h = poly1_powmod(h, p, s, p)
        diff = list(h) + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g = poly1_gcd(s, diff, p)
        if poly1_deg(g) > 0:
            out.append((g, d))
            s = poly1_divmod(s, g, p)[0]
            h = poly1_divmod(h, s, p)[1] if poly1_deg(s) > 0 else [0]
    if poly1_deg(s) > 0:
        out.append((s, poly1_deg(s)))
    return out


def _edf(f, d, p, rng):
    """Equal-degree splitting (Cantor-Zassenhaus, odd p) of a monic
    squarefree f all of whose irreducible factors have degree d."""
    if poly1_deg(f) == d:
        return [f]
    e = (pow(p, d) - 1) // 2
    while True:
        r = [rng.randrange(p) for _ in range(poly1_deg(f))]
        poly1_trim(r)
        if poly1_deg(r) < 1:
            continue
        w = poly1_powmod(r, e, f, p)
        w = list(w) + [0] * max(0, 1 - len(w))
        w[0] = (w[0] - 1) % p
        poly1_trim(w)
        g = poly1_gcd(f, w, p)
        if 0 < poly1_deg(g) < poly1_deg(f):
            rest = poly1_divmod(f, g, p)[0]
            return _edf(g, d, p, rng) + _edf(rest, d, p, rng)


def factor_univariate(f, p: int, rng) -> list[tuple[list[int], int]]:
    """Factor a nonconstant univariate polynomial over F_p into monic
    irreducibles with multiplicities, sorted by (degree, coefficients).
    The rng drives the equal-degree splitting only, so a seeded rng makes
    the result deterministic."""
    f = poly1_monic(f, p)
    if poly1_deg(f) < 1:
        raise InputError("factoring a constant")
    # collect the distinct irreducible factors; multiplicities come later by
    # trial division, which sidesteps the char-p bookkeeping entirely.
    irreducibles = []
    seen = set()
    work = list(f)
    while poly1_deg(work) > 0:
        der = poly1_deriv(work, p)
        if not der:
            work = _pth_root(work, p)
            continue
        g = poly1_gcd(work, der, p)
        sqfree = poly1_divmod(work, g, p)[0]
        for q, d in _ddf(sqfree, p):
            for irr in _edf(q, d, p, rng):
                key = tuple(irr)
                if key not in seen:
                    seen.add(key)
                    irreducibles.append(irr)
        work = g
    out = []
    rem = list(f)
    for irr in sorted(irreducibles, key=lambda q: (poly1_deg(q), q)):
        mult = 0
        while True:
            quo, r = poly1_divmod(rem, irr, p)
            if r:
                break
            rem = quo
            mult += 1
        if mult:
            out.append((irr, mult))
    if poly1_deg(rem) != 0:
        # should be impossible; fail loudly rather than return a bad answer
        raise ArithmeticError("univariate factorization lost a factor")
    return out
