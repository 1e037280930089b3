"""Seeded inputs for the benchmark workloads, with their premises checked.

Everything here is plain Python over F_p and independent of civar: the
premises a draw must meet (a linear form in general position, a line that
is not inside a plane, a cut hypersurface that does not contain the variety
it cuts) are decided with the small dense linear algebra below, so no seed
can produce an input on which a job is invalid.  The program later receives
only the generated ring and module texts and the H-element strings.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations_with_replacement


# ---------------------------------------------------------------------------
# linear algebra and polynomials over F_p (dicts {exponent tuple: coeff})


def rank_mod_p(rows, p: int) -> int:
    """Rank of an integer matrix (list of rows) over F_p."""
    rows = [[x % p for x in r] for r in rows if any(x % p for x in r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def monomials(nvars: int, d: int):
    """Exponent tuples of total degree d."""
    if d < 0:
        return []
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for v in combo:
            e[v] += 1
        out.append(tuple(e))
    return out


def poly_mul_mono(f: dict, m: tuple) -> dict:
    return {tuple(a + b for a, b in zip(e, m)): c for e, c in f.items()}


def poly_degree(f: dict) -> int:
    return sum(next(iter(f)))


def quotient_hilbert(gens, nvars: int, p: int, top: int):
    """dim_k (P/(gens))_d for d = 0..top, P = F_p[x_1..x_nvars], gens
    homogeneous: monomials of degree d minus the rank of every monomial
    multiple of a generator that lands in degree d."""
    dims = []
    for d in range(top + 1):
        basis = monomials(nvars, d)
        index = {m: i for i, m in enumerate(basis)}
        rows = []
        for g in gens:
            for m in monomials(nvars, d - poly_degree(g)):
                row = [0] * len(basis)
                for e, c in poly_mul_mono(g, m).items():
                    row[index[e]] = c
                rows.append(row)
        dims.append(len(basis) - rank_mod_p(rows, p))
    return dims


def linear_text(coeffs, names) -> str:
    return " + ".join(f"{c}*{v}" for c, v in zip(coeffs, names) if c)


def draw_form(rng: random.Random, n: int, p: int):
    """A linear form with every coefficient nonzero, so it involves every
    variable."""
    return [rng.randrange(1, p) for _ in range(n)]


# ---------------------------------------------------------------------------
# desk: the 13-module test corpus and the README examples, as files

DESK_RINGS = {
    "R1": {"p": 101, "vars": ["x", "y"], "ci": ["x^2", "y^2"]},
    "R2": {"p": 101, "vars": ["x"], "ci": ["x^2"]},
    "R3": {"p": 101, "vars": ["x", "y", "z"], "ci": ["x^2", "y^2", "z^2"]},
    "R4": {"p": 101, "vars": ["x", "y"], "ci": ["x^2"]},
}

# (label, ring, generator degrees, relation rows, kind).  kind names the
# oracle that applies: "k" residue field, "free" free module, "syz1k" the
# first syzygy of k (the maximal ideal), "cyclic" any other module.
# Syz_1(k) over R1 is m = (x, y): generators x, y in degree 1 with the
# relations x*x = 0, y*y = 0 and y*x - x*y = 0.
DESK_MODULES = [
    ("R1 k", "R1", [0], [["x", "y"]], "k"),
    ("R1 free", "R1", [0, 1], [], "free"),
    ("R1 A/(x)", "R1", [0], [["x"]], "cyclic"),
    ("R1 A/(y)", "R1", [0], [["y"]], "cyclic"),
    ("R1 A/(x+y)", "R1", [0], [["x+y"]], "cyclic"),
    ("R1 syz1(k)", "R1", [1, 1], [["x", "0", "y"], ["0", "y", "-x"]], "syz1k"),
    ("R2 k", "R2", [0], [["x"]], "k"),
    ("R2 free", "R2", [0], [], "free"),
    ("R3 k", "R3", [0], [["x", "y", "z"]], "k"),
    ("R3 A/(x)", "R3", [0], [["x"]], "cyclic"),
    ("R3 A/(x+y)", "R3", [0], [["x+y"]], "cyclic"),
    ("R4 k", "R4", [0], [["x", "y"]], "k"),
    ("R4 A/(y)", "R4", [0], [["y"]], "cyclic"),
]

# The README's two-summand module A/(x) (+) A/(y) over R1.
README_SUM = ("R1 sum", "R1", [0, 0], [["x", "0"], ["0", "y"]], "cyclic")


def module_text(gens, rows, note: str) -> str:
    return f"# {note}\ngens: {json.dumps(gens)}\nrelations: {json.dumps(rows)}\n"


def file_stem(label: str) -> str:
    keep = "".join(ch if ch.isalnum() else "_" for ch in label)
    return keep.strip("_")


def write_desk(workdir: str) -> dict:
    """Write the desk rings and modules; return {"rings": {name: path},
    "modules": [(label, ring name, path, kind, gens)]}."""
    rings = {}
    for name, doc in DESK_RINGS.items():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        rings[name] = path
    mods = []
    for label, ring, gens, rows, kind in DESK_MODULES + [README_SUM]:
        path = os.path.join(workdir, file_stem(label) + ".txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(module_text(gens, rows, label))
        mods.append((label, ring, path, kind, gens))
    return {"rings": rings, "modules": mods}


# ---------------------------------------------------------------------------
# resolve-deep: k and Q/(l) over R5

R5 = {"p": 101, "vars": ["x", "y", "z"], "ci": ["x^2 + y*z", "y^2 + x*z", "z^2"]}
R5_POLYS = [
    {(2, 0, 0): 1, (0, 1, 1): 1},
    {(0, 2, 0): 1, (1, 0, 1): 1},
    {(0, 0, 2): 1},
]
R5_TOP = 8  # degrees checked by the Hilbert oracle, enough for every depth used


def draw_resolve_deep(seed: int) -> dict:
    """Draw l until multiplication by l on Q = R5 has maximal rank in every
    degree (the general-position locus).  Off that locus l can, for
    instance, square to zero in Q, and Q/(l) then has a periodic resolution
    of Betti numbers 1, 1, 1, ... that costs almost nothing; such draws
    would make the workload depend on the seed's luck."""
    p, n = R5["p"], len(R5["vars"])
    rng = random.Random(f"resolve-deep/{seed}")
    hq = quotient_hilbert(R5_POLYS, n, p, R5_TOP)
    want = [hq[0]] + [max(hq[d] - hq[d - 1], 0) for d in range(1, R5_TOP + 1)]
    for _ in range(200):
        coeffs = draw_form(rng, n, p)
        l = {tuple(1 if i == v else 0 for i in range(n)): c for v, c in enumerate(coeffs)}
        hm = quotient_hilbert(R5_POLYS + [l], n, p, R5_TOP)
        if hm == want:
            return {
                "ring": R5,
                "l": linear_text(coeffs, R5["vars"]),
                "hilbert_q": hq,
                "hilbert_ql": hm,
            }
    raise RuntimeError("no linear form in general position found")


# ---------------------------------------------------------------------------
# variety-construct: realizations over an artinian and a non-artinian ring

VC_RINGS = {
    "A": {"p": 32003, "vars": ["x", "y", "z"], "ci": ["x^2", "y^2", "z^2"]},
    "B": {"p": 101, "vars": ["x", "y", "z", "w"], "ci": ["x^2", "y^2", "z^2"]},
}


def draw_variety_construct(seed: int) -> dict:
    """Per ring: a plane V(a) and a line V(b1, b2) in chi-space, with the
    line not inside the plane (so they meet only at the origin), and a cut
    form h not proportional to a (so the plane cut by h is a line)."""
    rng = random.Random(f"variety-construct/{seed}")
    out = {}
    for name, ring in VC_RINGS.items():
        p, c = ring["p"], len(ring["ci"])
        chis = [f"chi{j + 1}" for j in range(c)]
        while True:
            a = draw_form(rng, c, p)
            b1, b2 = draw_form(rng, c, p), draw_form(rng, c, p)
            h = draw_form(rng, c, p)
            if rank_mod_p([b1, b2], p) != 2:
                continue
            if rank_mod_p([b1, b2, a], p) != 3:  # line inside the plane
                continue
            if rank_mod_p([a, h], p) != 2:  # h would not cut the plane
                continue
            break
        out[name] = {
            "ring": ring,
            "plane": [linear_text(a, chis)],
            "line": [linear_text(b1, chis), linear_text(b2, chis)],
            "cut": linear_text(h, chis),
            "dims": {"plane": c - 1, "line": c - 2, "cut": c - 2},
        }
    return out
