"""Support varieties over a non-artinian Q read on an artinian reduction.

For a maximal Cohen-Macaulay module M over Q of dimension d, and variables
x_S regular on Q and on M, Ext_Q(M, k) = Ext_{Q/(x_S)}(M/x_S M, k) as
modules over H (Avramov-Buchweitz 2000).  The oracle here is the Q-level
resolution itself: on drawn modules over four non-artinian rings the Betti
numbers, degree vectors, top generator degree and window annihilator of E
must come out the same on Q and on `artinian_reduction`.  Non-MCM modules
are drawn too, because reducing them would change E (Q/(y) over
F_101[x,y]/(x^2) has Betti numbers 1, 1, 0, .. over Q and 1, 0, .. mod y);
they must come back unreduced.  Q/(x) over that ring is MCM without being a
syzygy, and is reduced.

`support_variety` reads every module over such a ring on the reduction of
its dim Q-th syzygy, which is MCM by the depth lemma, so it never tests
MCM.  Its answers are checked against the point oracle of `helpers` on
drawn modules, over these rings and over F_101[x,y]/(xy), which has no
coordinate reduction, and the Q-level steps it takes are counted exactly.
"""

import json
import random
from itertools import product
from math import prod

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import civar.groebner as groebner
import civar.resolve as resolve
from civar import cli
from civar.cohomology import (
    annihilator_window,
    complexity,
    ext_k_module,
    generator_counts,
    support_variety,
)
from civar.construct import realize
from civar.resolve import (
    RingSpec,
    artinian_reduction,
    is_mcm,
    present_module,
    residue_field,
    resolve_min,
    syzygy_module,
)

from helpers import in_variety_by_projective_dimension

# no shrinking: every example resolves over Q, and shrinking a failure would
# resolve many more; the first falsifying example is reported as drawn
PROPS = settings(
    derandomize=True, max_examples=12, deadline=None, phases=[Phase.explicit, Phase.generate]
)

B = RingSpec(101, ["x", "y", "z", "w"], ["x^2", "y^2", "z^2"])
DIM2 = RingSpec(101, ["x", "y", "z", "w"], ["x^2", "y^2"])
MIXED = RingSpec(101, ["x", "y", "z"], ["x^2 + y*z", "y^2"])
R4 = RingSpec(101, ["x", "y"], ["x^2"])
XY = RingSpec(101, ["x", "y"], ["x*y"])
WINDOW = 6


def assert_same_ext(pres, n=WINDOW):
    """E(M, k) in degrees 0..n on Q and on the reduction: dimensions,
    degree vectors, generator counts and the window annihilator."""
    red = artinian_reduction(pres)
    res, res_bar = resolve_min(pres, n + 1), resolve_min(red, n + 1)
    ext, ext_bar = ext_k_module(res, n), ext_k_module(res_bar, n)
    assert ext_bar.dims == ext.dims
    assert res_bar.degs[: n + 1] == res.degs[: n + 1]
    assert generator_counts(ext_bar) == generator_counts(ext)
    assert annihilator_window(ext_bar).gens == annihilator_window(ext).gens
    return red


@st.composite
def modules(draw, rings=(B, DIM2, MIXED, R4)):
    """A ring and a module over it: k or Q/(g), g a linear or quadratic
    form, as text."""
    rs = draw(st.sampled_from(rings))
    degree = draw(st.sampled_from([0, 1, 2]))
    if degree == 0:
        return rs, "k"
    monos = rs.ring.monomials_of_degree(degree)
    coeffs = draw(st.lists(st.integers(0, 3), min_size=len(monos), max_size=len(monos)))
    g = rs.ring.poly(dict(zip(monos, coeffs)))
    return rs, str(g) if g.terms else "x"


@PROPS
@given(case=modules(), syzygy=st.booleans())
@example(case=(R4, "y"), syzygy=False)
@example(case=(R4, "x"), syzygy=False)
def test_reduction_keeps_ext_as_an_h_module(case, syzygy):
    rs, form = case
    base = residue_field(rs) if form == "k" else present_module(rs, (0,), [[form]])
    pres = syzygy_module(base, rs.dim) if syzygy else base
    red = assert_same_ext(pres)
    # every ring here has a reduction, and a dim Q-th syzygy is MCM
    assert (red is not pres) == is_mcm(pres)
    assert is_mcm(pres) or not syzygy


def test_reduction_keeps_ext_of_a_realized_module():
    pres = realize(B, ["chi1 + chi2"], verify=False)
    assert artinian_reduction(pres).rs.is_artinian
    assert_same_ext(pres)


# ---------------------------------------------------------------------------
# which reduction, and when


def test_b_drops_its_last_variable():
    kept, bar = B.reduction()
    assert kept == (0, 1, 2)
    assert bar.ring.vars == ("x", "y", "z")
    assert [str(f) for f in bar.ci] == ["x^2", "y^2", "z^2"]
    assert bar.is_artinian and bar.h_ring is B.h_ring


def test_the_first_artinian_coordinate_quotient_wins():
    # z = 0 leaves (x^2, y^2); in DIM2, w and z go first
    assert MIXED.reduction()[0] == (0, 1)
    assert DIM2.reduction()[0] == (0, 1)
    # z = 0 leaves (xy, y^2) and y = 0 leaves (z^2, z^2), both of
    # codimension 1; x = 0 leaves (z^2, y^2 + z^2)
    rs = RingSpec(101, ["x", "y", "z"], ["x*y + z^2", "z^2 + y^2"])
    kept, bar = rs.reduction()
    assert kept == (1, 2) and [str(f) for f in bar.ci] == ["z^2", "y^2 + z^2"]


def test_no_coordinate_reduction_keeps_the_q_level_path():
    xy = RingSpec(101, ["x", "y"], ["x*y"])
    assert xy.reduction() is None
    pres = syzygy_module(residue_field(xy), 1)
    assert is_mcm(pres) and artinian_reduction(pres) is pres
    v = support_variety(pres)
    assert v.gens == () and v.dimension() == 1
    assert v.meta == {
        "stabilized_at": 8, "steps_used": 10, "complexity": 1, "generator_degree": 1,
        "betti": [2] * 11,
    }


def test_non_mcm_modules_come_back_unchanged():
    for pres in (residue_field(R4), present_module(R4, (0,), [["y"]])):
        assert not is_mcm(pres)
        assert artinian_reduction(pres) is pres
    k = residue_field(B)
    assert artinian_reduction(k) is k


def test_artinian_rings_have_no_reduction(r1):
    assert r1.reduction() is None
    k = residue_field(r1)
    assert artinian_reduction(k) is k


def test_the_reduced_ring_is_built_once_and_not_at_construction(monkeypatch):
    built = []
    init = RingSpec.__init__

    def counting(self, *args, **kwargs):
        built.append(args[1])
        init(self, *args, **kwargs)

    monkeypatch.setattr(RingSpec, "__init__", counting)
    rs = RingSpec(101, ["x", "y", "z", "w"], ["x^2", "y^2", "z^2"])
    assert built == [["x", "y", "z", "w"]]
    one = artinian_reduction(syzygy_module(residue_field(rs), 1))
    two = artinian_reduction(syzygy_module(present_module(rs, (0,), [["x + w"]]), 1))
    assert rs.reduction() is rs.reduction()
    assert built == [["x", "y", "z", "w"], ("x", "y", "z")]
    assert one.rs is two.rs is rs.reduction()[1]


def test_mcm_verdict_and_reduction_are_cached(monkeypatch):
    """Q/(x) over F_101[x,y]/(x^2) is MCM but not a syzygy, so no verdict is
    recorded for it: `artinian_reduction` runs the Ext test once, and later
    calls read the verdict and the reduction kept on the presentation."""
    pres = present_module(R4, (0,), [["x"]])
    red = artinian_reduction(pres)
    assert red is not pres
    monkeypatch.setattr(resolve, "_ext_into_q_vanishes", lambda p: pytest.fail("asked again"))
    assert is_mcm(pres)
    assert artinian_reduction(pres) is red


# ---------------------------------------------------------------------------
# Q-level steps of the variety path


@pytest.fixture
def syzygy_calls(monkeypatch):
    calls = []
    inner = groebner.syzygies

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(resolve, "syzygies", counting)
    monkeypatch.setattr(groebner, "syzygies", counting)
    return calls


def test_variety_over_b_takes_one_q_level_step(syzygy_calls):
    """The first syzygy of k over B is MCM by the depth lemma, recorded by
    `syzygy_module`: `is_mcm` tests nothing, the variety resolves one step
    over Q (dim B = 1) before its reduction, and `complexity` reads the
    same reduction."""
    rs = RingSpec(101, ["x", "y", "z", "w"], ["x^2", "y^2", "z^2"])
    pres = syzygy_module(residue_field(rs), 1)
    assert syzygy_calls
    syzygy_calls.clear()
    assert is_mcm(pres) and syzygy_calls == []
    v = support_variety(pres)
    assert len(syzygy_calls) == 1
    assert complexity(pres, v.meta["steps_used"]) == 3
    assert v.dimension() == 3 and len(syzygy_calls) == 1


def test_cli_variety_builds_no_second_q_level_resolution(tmp_path, capsys, syzygy_calls):
    ring = tmp_path / "b.json"
    ring.write_text(json.dumps({"p": 101, "vars": list(B.ring.vars), "ci": ["x^2", "y^2", "z^2"]}))
    mod = tmp_path / "m.txt"
    mod.write_text(cli.format_module_file(realize(B, ["chi1 + chi2"], verify=False)))
    syzygy_calls.clear()
    # an MCM test costs one Q-level step and one Ext(M, Q) kernel
    assert is_mcm(cli.load_module(cli.load_ring(str(ring)), str(mod)))
    assert len(syzygy_calls) == 2
    syzygy_calls.clear()
    assert cli.main(["variety", str(ring), str(mod), "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 2 and doc["annihilator"] == ["chi1 + chi2"]
    assert doc["betti"][:6] == [9, 12, 16, 20, 24, 28]
    # the variety makes no MCM test: one Q-level step, the first syzygy
    assert len(syzygy_calls) == 1


# ---------------------------------------------------------------------------
# every module, one route per ring


def _vanishes(gens, a, p) -> bool:
    return all(
        sum(c * prod(pow(x, e, p) for x, e in zip(a, m)) for (_, m), c in g.terms.items()) % p == 0
        for g in gens
    )


def _points_on(gens, p, c):
    """The points of V(gens) in P^{c-1}(F_p), first nonzero coordinate 1."""
    return [
        a
        for lead in range(c)
        for tail in product(range(p), repeat=c - lead - 1)
        if _vanishes(gens, a := [0] * lead + [1, *tail], p)
    ]


@PROPS
@given(case=modules(rings=(B, DIM2, MIXED, R4, XY)), syzygy=st.booleans(), seed=st.integers(0, 2**32))
@example(case=(XY, "k"), syzygy=False, seed=0)
@example(case=(B, "x"), syzygy=True, seed=0)
def test_support_variety_agrees_with_the_point_oracle(case, syzygy, seed):
    """k or Q/(g), or its first syzygy, over the rings above and over
    F_101[x,y]/(xy), which has no coordinate reduction: at a drawn point on
    the computed V and at two random points, membership agrees with
    b_n^{Q_a}(M) != 0 (`helpers.in_variety_by_projective_dimension`)."""
    rs, form = case
    base = residue_field(rs) if form == "k" else present_module(rs, (0,), [[form]])
    pres = syzygy_module(base, 1) if syzygy else base
    v = support_variety(pres)
    p, c = rs.p, rs.codim
    rng = random.Random(seed)
    on_v = _points_on(v.gens, p, c)
    points = [rng.choice(on_v)] if on_v else []
    while len(points) < len(on_v[:1]) + 2:
        if any(a := [rng.randrange(p) for _ in range(c)]):
            points.append(a)
    for a in points:
        assert in_variety_by_projective_dimension(pres, a) == _vanishes(v.gens, a, p), (a, v)


def test_varieties_make_no_mcm_test(monkeypatch):
    """With both MCM tests broken, fresh MCM and non-MCM modules over B and
    R4 still get their varieties."""
    for name in ("is_mcm", "_ext_into_q_vanishes"):
        monkeypatch.setattr(resolve, name, lambda pres: pytest.fail("MCM test on the variety path"))
    cases = [
        (residue_field(B), [], 3),
        (present_module(B, (0,), [["w"]]), ["chi1", "chi2", "chi3"], 0),
        (present_module(B, (0,), [["x"]]), ["chi2", "chi3"], 1),
        (syzygy_module(residue_field(B), 1), [], 3),
        (realize(B, ["chi1 + chi2"], verify=False), ["chi1 + chi2"], 2),
        (residue_field(R4), [], 1),
        (present_module(R4, (0,), [["y"]]), ["chi1"], 0),
        (present_module(R4, (0,), [["x"]]), [], 1),
    ]
    for pres, gens, dim in cases:
        v = support_variety(pres)
        assert ([str(g) for g in v.gens], v.dimension()) == (gens, dim), pres
