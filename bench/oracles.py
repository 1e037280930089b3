"""Output checks that do not trust the program.

Each check either returns quietly or raises Mismatch.  The facts used are
standard: Tate's formula for the Betti numbers of k over a complete
intersection whose relations lie in m^2, complexity = dim V (Avramov and
Buchweitz, Invent. Math. 2000), and additivity of Hilbert functions along
an exact complex.  None of them reads civar's own verdicts.
"""

from __future__ import annotations

import re
from math import comb


class Mismatch(Exception):
    """A job's output failed its check: a wrong answer, counted as failed."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def tate_betti(nvars: int, codim: int, steps: int):
    """Coefficients of (1 + t)^n / (1 - t^2)^c up to t^steps."""
    num = [comb(nvars, i) for i in range(nvars + 1)]
    den = [0] * (steps + 1)
    for j in range(0, steps + 1, 2):
        den[j] = comb(codim - 1 + j // 2, j // 2)
    return [
        sum(num[a] * den[i - a] for a in range(min(i, nvars) + 1))
        for i in range(steps + 1)
    ]


def growth_order(betti) -> int:
    """Complexity read off Betti numbers: the number of finite differences
    it takes the tail (second half) to vanish, even and odd positions taken
    separately because tails may be quasi-polynomial of period 2."""

    def count(seq):
        n = 0
        while any(seq):
            seq = [b - a for a, b in zip(seq, seq[1:])]
            n += 1
        return n

    tail = list(betti[len(betti) // 2 :])
    return max(count(tail[0::2]), count(tail[1::2]))


def check_minimal(diffs) -> None:
    """Every entry of every differential lies in the maximal ideal: no term
    with a degree-0 monomial.  diffs[i] holds the FreeElt columns of d_i."""
    for i, cols in enumerate(diffs):
        for c, col in enumerate(cols or ()):
            for (_row, mono), coeff in col.terms.items():
                require(
                    not (coeff and sum(mono) == 0),
                    f"d_{i} column {c} has a unit entry (not minimal)",
                )


_CONSTANT = re.compile(r"^-?\d+$")


def check_minimal_text(differentials) -> None:
    """The same check on the structured report: each column is printed as
    "(entry, entry, ...)" and each entry as "term + term + ..."."""
    for i, cols in enumerate(differentials, start=1):
        for c, col in enumerate(cols):
            for entry in col.strip("()").split(", "):
                if entry == "0":
                    continue
                require(
                    not any(_CONSTANT.match(t) for t in entry.split(" + ")),
                    f"d_{i} column {c} has a unit entry (not minimal)",
                )


def check_hilbert_alternating(degs, hilbert_ring, hilbert_module) -> None:
    """sum_i (-1)^i dim (F_i)_d = dim M_d for d <= n, where F_0..F_n are the
    computed free modules (generator degrees degs[i]).  It holds because the
    image of F_{n+1} lives in degrees above n for a minimal resolution of a
    module generated in degree 0."""
    n = len(degs) - 1
    for d in range(min(n, len(hilbert_module) - 1) + 1):
        total = 0
        for i, gens in enumerate(degs):
            for g in gens:
                if 0 <= d - g < len(hilbert_ring):
                    total += (-1) ** i * hilbert_ring[d - g]
        require(
            total == hilbert_module[d],
            f"Hilbert function breaks in degree {d}: {total} != {hilbert_module[d]}",
        )
