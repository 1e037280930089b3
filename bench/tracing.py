"""Per-layer tracing of civar from outside the package.

The traced run replaces each public function listed in TARGETS with a
wrapper that records a span: its name, the job it belongs to, and the time
its child spans cover.  A module-level function is replaced under every
name that binds it in any civar module (`from .groebner import syzygies` in
resolve makes a second binding), so calls between modules are caught too; a
method is replaced once on its class.  Nothing under src/ changes, and
`uninstall` puts every original back.

Spans are aggregated as they close, because the hot functions run hundreds
of thousands of times per job: per name the call count and the self time
(duration minus the time covered by child spans).  Counters are computed by
hooks from the arguments and results at the same boundaries.  A child
span's cover includes its wrapper and hook, so the tracer's own cost is in
no span's self time and shows as `other`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("arith", "groebner", "resolve", "cohomology", "construct", "cli")


# ---------------------------------------------------------------------------
# counter hooks: hook(tracer, frame, args, result), run after a successful call


def _qnf_seen(tracer, frame, args, result):
    """Count qnf arguments already seen in this pass, per ring: the hit
    rate a normal-form memo on the ring would get."""
    rs, f = args[0], args[1]
    # the ring object is kept alive for the pass, so its id is not reused
    _rs, ring = tracer.rings.setdefault(id(rs), (rs, len(tracer.rings)))
    key = hash((ring, frozenset(f.terms.items())))
    tracer.counters["resolve.qnf.args"] += 1
    if key in tracer.qnf_keys:
        tracer.counters["resolve.qnf.repeats"] += 1
    else:
        tracer.qnf_keys.add(key)


def _kept_columns(tracer, frame, args, result):
    tracer.counters["resolve.minimal_columns.candidates"] += len(args[1])
    tracer.counters["resolve.minimal_columns.kept"] += len(result)


def _betti(tracer, frame, args, result):
    """Sum of the Betti numbers each resolution has computed, each step
    counted once however often the resolution is extended."""
    res = args[0]
    _res, counted = tracer.resolutions.get(id(res), (res, 0))
    tracer.counters["resolve.betti_total"] += sum(len(d) for d in res.degs[counted:])
    tracer.resolutions[id(res)] = (res, len(res.degs))


def _cells(name):
    def hook(tracer, frame, args, result):
        shape = getattr(args[0], "shape", (0, 0))
        tracer.counters[name + ".cells"] += int(shape[0]) * int(shape[1])

    return hook


def _window(tracer, frame, args, result):
    for open_frame in reversed(tracer.stack):
        if open_frame[0] == "cohomology.support_variety":
            open_frame[4] += 1
            return


def _widenings(tracer, frame, args, result):
    # two windows per try: the first try is not a widening
    tracer.counters["cohomology.widenings"] += max(0, frame[4] // 2 - 1)


def _summands(tracer, frame, args, result):
    tracer.counters["construct.summands"] += len(result.summands)


# (module, attribute or Class.method, span name, hook)
TARGETS = [
    ("civar.cli", "main", "cli.main", None),
    ("civar.cli", "load_ring", "cli.load_ring", None),
    ("civar.cli", "parse_module_text", "cli.parse_module_text", None),
    ("civar.cli", "render_structured", "cli.render", None),
    ("civar.cli", "render_text", "cli.render", None),
    ("civar.resolve", "RingSpec.__init__", "resolve.RingSpec", None),
    ("civar.resolve", "RingSpec.qnf", "resolve.qnf", _qnf_seen),
    ("civar.resolve", "minimal_columns", "resolve.minimal_columns", _kept_columns),
    ("civar.resolve", "Resolution.extend", "resolve.extend", _betti),
    ("civar.resolve", "prune_units", "resolve.prune_units", None),
    ("civar.resolve", "is_mcm", "resolve.is_mcm", None),
    ("civar.resolve", "vector_model", "resolve.vector_model", None),
    ("civar.resolve", "present_from_vector_model", "resolve.present_from_vector_model", None),
    ("civar.groebner", "syzygies", "groebner.syzygies", None),
    ("civar.groebner", "normal_form", "groebner.normal_form", None),
    ("civar.groebner", "groebner_basis", "groebner.groebner_basis", None),
    ("civar.groebner", "radical_membership", "groebner.radical_membership", None),
    ("civar.groebner", "ideal_dimension", "groebner.ideal_dimension", None),
    ("civar.groebner", "ideal_ops", "groebner.ideal_ops", None),
    ("civar.groebner", "SubmoduleOracle.__init__", "groebner.SubmoduleOracle", None),
    ("civar.groebner", "SubmoduleOracle.contains", "groebner.SubmoduleOracle", None),
    ("civar.cohomology", "lift_and_operators", "cohomology.lift_and_operators", None),
    ("civar.cohomology", "ext_k_module", "cohomology.ext_k_module", None),
    ("civar.cohomology", "annihilator_window", "cohomology.annihilator_window", _window),
    ("civar.cohomology", "complexity", "cohomology.complexity", None),
    ("civar.cohomology", "support_variety", "cohomology.support_variety", _widenings),
    ("civar.cohomology", "VarietyIdeal.equals", "cohomology.VarietyIdeal", None),
    ("civar.cohomology", "VarietyIdeal.contains_variety", "cohomology.VarietyIdeal", None),
    ("civar.cohomology", "VarietyIdeal.contains_element", "cohomology.VarietyIdeal", None),
    ("civar.cohomology", "VarietyIdeal.is_trivial", "cohomology.VarietyIdeal", None),
    ("civar.construct", "phi", "construct.phi", None),
    ("civar.construct", "pushout_cut", "construct.pushout_cut", None),
    ("civar.construct", "realize", "construct.realize", None),
    ("civar.construct", "decompose", "construct.decompose", _summands),
    ("civar.construct", "check_carlson", "construct.check_carlson", None),
    ("civar.arith", "rref", "arith.rref", _cells("arith.rref")),
    ("civar.arith", "nullspace", "arith.nullspace", _cells("arith.nullspace")),
    ("civar.arith", "matmul", "arith.matmul", None),
    ("civar.arith", "factor_univariate", "arith.factor_univariate", None),
]

SPAN_NAMES = sorted({name for _m, _a, name, _h in TARGETS})

# counters derived from the hooks, with their unit
COUNTERS = [
    ("resolve.betti_total", "count"),
    ("resolve.syz_kept_ratio", "ratio"),
    ("resolve.qnf.repeat_frac", "ratio"),
    ("cohomology.windows_per_variety", "ratio"),
    ("cohomology.widenings", "count"),
    ("construct.summands", "count"),
    ("arith.rref.cells", "count"),
    ("arith.nullspace.cells", "count"),
]


def _civar_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "civar" or name.startswith("civar.")]


class Tracer:
    """Spans and counters of one traced pass at a time.  Frames on the open
    stack are lists [name, job, start_ns, child_ns, windows]."""

    def __init__(self):
        self.patched = []  # (owner, attribute, original)
        self.defects = Counter()
        self.job = None
        self.stack = []
        self.reset()

    def reset(self):
        """Forget the previous pass's spans and counters."""
        self.calls = Counter()
        self.self_ns = Counter()
        self.counters = Counter()
        self.rings = {}
        self.qnf_keys = set()
        self.resolutions = {}

    # -- installing the wrappers --------------------------------------------

    def install(self):
        for modname, attr, name, hook in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, name, hook))
                self.patched.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name, hook)
            for m in _civar_modules():
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self.patched.append((m, key, original))

    def uninstall(self):
        while self.patched:
            owner, key, original = self.patched.pop()
            setattr(owner, key, original)

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            entered = perf_counter_ns()
            stack = tracer.stack
            try:
                if stack and stack[-1][1] != tracer.job:
                    tracer.defects["span parent in another job"] += 1
                frame = [name, tracer.job, 0, 0, 0]
                stack.append(frame)
                start = frame[2] = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    own = perf_counter_ns() - start - frame[3]
                    stack.pop()
                    if own < 0:
                        tracer.defects["negative self time"] += 1
                    tracer.calls[name] += 1
                    tracer.self_ns[name] += own
                if hook is not None:
                    hook(tracer, frame, args, result)
                return result
            finally:
                # the parent's self time excludes this whole call, wrapper
                # and hook included
                if stack:
                    stack[-1][3] += perf_counter_ns() - entered

        return wrapper

    # -- jobs ---------------------------------------------------------------

    def begin_job(self, job):
        if self.stack:
            self.defects["span left open across jobs"] += 1
            self.stack.clear()
        self.job = job

    def end_job(self):
        if self.stack:
            self.defects["span left open across jobs"] += 1
            self.stack.clear()
        self.job = None

    # -- results ------------------------------------------------------------

    def exact_counts(self) -> dict:
        """Everything that must repeat exactly between two passes."""
        out = {f"{n}.calls": self.calls[n] for n in SPAN_NAMES}
        out.update(self.counters)
        return out

    def metrics(self, wall_ns: int) -> dict:
        """Per-name and per-layer numbers for a pass of wall_ns nanoseconds,
        as {metric: (value, unit)}."""
        c = self.counters
        out = {}
        for n in SPAN_NAMES:
            out[f"{n}.calls"] = (self.calls[n], "count")
            out[f"{n}.self_s"] = (self.self_ns[n] / 1e9, "s")

        def ratio(a, b):
            return a / b if b else 0.0

        derived = {
            "resolve.betti_total": c["resolve.betti_total"],
            "resolve.syz_kept_ratio": ratio(
                c["resolve.minimal_columns.kept"], c["resolve.minimal_columns.candidates"]
            ),
            "resolve.qnf.repeat_frac": ratio(c["resolve.qnf.repeats"], c["resolve.qnf.args"]),
            "cohomology.windows_per_variety": ratio(
                self.calls["cohomology.annihilator_window"],
                self.calls["cohomology.support_variety"],
            ),
            "cohomology.widenings": c["cohomology.widenings"],
            "construct.summands": c["construct.summands"],
            "arith.rref.cells": c["arith.rref.cells"],
            "arith.nullspace.cells": c["arith.nullspace.cells"],
        }
        for name, unit in COUNTERS:
            out[name] = (derived[name], unit)
        spans_ns = 0
        for layer in LAYERS:
            own = sum(v for n, v in self.self_ns.items() if n.split(".", 1)[0] == layer)
            spans_ns += own
            out[f"{layer}.self_s"] = (own / 1e9, "s")
            out[f"{layer}.share"] = (own / wall_ns, "ratio")
        out["other.self_s"] = ((wall_ns - spans_ns) / 1e9, "s")
        out["other.share"] = ((wall_ns - spans_ns) / wall_ns, "ratio")
        return out
