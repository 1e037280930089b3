"""Command-line front end.

One job per invocation.  Ring files are JSON ({"p": .., "vars": [..],
"ci": [..]}); module files are a small text format,

    # optional comments
    gens: [0, 1]
    relations: [["x", "0"], ["0", "y"]]

with one row per generator and one column per relation (entries in the
polynomial grammar, JSON-quoted).  Reports are rendered either as indented
text or as canonical JSON ("structured"); identical inputs and config give
byte-identical structured output.  Exit codes: 0 success, 1 input or
premise error, 2 resource budget exceeded, 3 verification failure (a
theorem-level check failed on the given instance), 4 internal error (a
broken invariant: a bug, never the input's fault).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import namedtuple

from .arith import is_integer
from .errors import CivarError, InputError, ResourceBudgetError, VerificationError
from .groebner import DEFAULT_BUDGETS, Budgets, configure_budgets
from .cohomology import VarietyIdeal, lift_and_operators, support_variety
from .resolve import (
    ModulePresentation,
    RingSpec,
    is_mcm,
    present_module,
    resolve_min,
    vector_model,
)
from .construct import (
    DEFAULT_ATTEMPTS,
    DEFAULT_SEED,
    check_carlson,
    decompose,
    phi,
    pushout_cut,
    realize,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_VERIFICATION = 3
EXIT_INTERNAL = 4

DEFAULT_STEPS = 12  # resolution window of `resolve` and `operators`


# ---------------------------------------------------------------------------
# file formats


def load_ring(path: str) -> RingSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read ring file: {exc}", path=path) from exc
    except ValueError as exc:
        raise InputError(f"ring file is not valid JSON: {exc}", path=path) from exc
    if not isinstance(doc, dict) or not {"p", "vars", "ci"} <= set(doc):
        raise InputError("ring file needs the fields p, vars, ci", path=path)
    if not isinstance(doc["vars"], list) or not isinstance(doc["ci"], list):
        raise InputError("vars and ci must be JSON lists", path=path)
    return RingSpec(doc["p"], [str(v) for v in doc["vars"]], [str(f) for f in doc["ci"]])


def parse_module_text(rs: RingSpec, text: str, source: str = "<string>") -> ModulePresentation:
    """Parse the module file format; '#' starts a comment anywhere on a
    line, the list payloads are JSON and may span lines."""
    blob = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    decoder = json.JSONDecoder()

    def payload(field):
        at = blob.find(field + ":")
        if at < 0:
            return None
        idx = at + len(field) + 1
        while idx < len(blob) and blob[idx] in " \t\r\n":
            idx += 1
        try:
            value, _end = decoder.raw_decode(blob, idx)
        except ValueError as exc:
            raise InputError(f"malformed {field} list: {exc}", path=source) from exc
        return value

    gens = payload("gens")
    if gens is None:
        raise InputError("module file is missing 'gens:'", path=source)
    if not isinstance(gens, list) or not all(is_integer(d) for d in gens):
        raise InputError("gens must be a list of integers", path=source)
    rows = payload("relations")
    if rows is None:
        rows = []
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("relations must be a list of rows", path=source)
    if rows and len(rows) != len(gens):
        raise InputError(
            f"relations has {len(rows)} rows for {len(gens)} generators", path=source
        )
    ncols = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise InputError(f"relation row {i} has ragged length", path=source, row=i)
    columns = [[str(rows[r][c]) for r in range(len(gens))] for c in range(ncols)]
    return present_module(rs, gens, columns)


def load_module(rs: RingSpec, path: str) -> ModulePresentation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read module file: {exc}", path=path) from exc
    return parse_module_text(rs, text, source=path)


def module_doc(pres: ModulePresentation) -> dict:
    """The module as data: exactly the file payload, so emitted files
    round-trip through present_module unchanged."""
    cols = [col.components() for col in pres.relations]
    return {
        "gens": list(pres.gens),
        "relations": [[str(col[r]) for col in cols] for r in range(pres.rank)],
    }


def format_module_file(pres: ModulePresentation, note: str | None = None) -> str:
    doc = module_doc(pres)
    lines = []
    if note:
        lines.append(f"# {note}")
    lines.append(f"gens: {json.dumps(doc['gens'])}")
    lines.append(f"relations: {json.dumps(doc['relations'])}")
    return "\n".join(lines) + "\n"


def _write_out(path: str, content: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise InputError(f"cannot write output file: {exc}", path=path) from exc


# ---------------------------------------------------------------------------
# report rendering


def render_structured(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_text(report: dict) -> str:
    lines = []

    def scalar(v):
        return v is None or isinstance(v, (bool, int, str))

    def compound(v):
        if isinstance(v, dict):
            return len(v) > 0
        if isinstance(v, list):
            return len(v) > 0 and not all(scalar(x) for x in v)
        return False

    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, list):
            return json.dumps(v)
        if isinstance(v, dict):
            return "{}"
        return str(v)

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if compound(v):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {fmt(v)}")
        else:
            for v in obj:
                if compound(v):
                    lines.append(f"{pad}-")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}- {fmt(v)}")

    walk(report, 0)
    return "\n".join(lines) + "\n"


def _ring_doc(rs: RingSpec) -> dict:
    return {
        "p": rs.p,
        "vars": list(rs.ring.vars),
        "ci": [str(f) for f in rs.ci],
        "codim": rs.codim,
        "dim": rs.dim,
        "artinian": rs.is_artinian,
    }


def _ideal_doc(v: VarietyIdeal) -> dict:
    return {"gens": [str(g) for g in v.gens], "dimension": v.dimension()}


def _resolution_doc(res, steps: int) -> dict:
    return {
        "betti": [len(res.degs[i]) for i in range(steps + 1)],
        "degrees": [list(res.degs[i]) for i in range(steps + 1)],
        "differentials": [
            [str(col) for col in res.diffs[i]] for i in range(1, steps + 1)
        ],
    }


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments, the ring and the module (None
# if no module file was given) and returns its report fields, which `main`
# adds to the head (command, ring, module) that every report shares; a
# command that returns a module field writes the head's, which `main` then
# does not build


def cmd_validate(args, rs, pres):
    if pres is None:
        return {"ok": True}
    doc = module_doc(pres)
    doc["relation_count"] = len(pres.relations)
    return {"ok": True, "module": doc}


def cmd_resolve(args, rs, pres):
    steps = args.steps if args.steps is not None else DEFAULT_STEPS
    res = resolve_min(pres, steps)
    return {"steps": steps, "resolution": _resolution_doc(res, steps)}


def cmd_operators(args, rs, pres):
    steps = args.steps if args.steps is not None else DEFAULT_STEPS
    if steps < 2:
        raise InputError("operators need at least 2 steps", steps=steps)
    res = resolve_min(pres, steps)
    lift_and_operators(res, steps - 1)
    operators = []
    for j in range(rs.codim):
        windows = []
        for mid in range(1, steps):
            windows.append(
                {"mid": mid, "columns": [str(col) for col in res.ops.cols[j][mid]]}
            )
        operators.append({"variable": f"chi{j + 1}", "windows": windows})
    return {
        "steps": steps,
        "resolution": _resolution_doc(res, steps),
        "operators": operators,
    }


def cmd_variety(args, rs, pres):
    v = support_variety(pres, steps=args.steps)
    return {"annihilator": [str(g) for g in v.gens], "dimension": v.dimension(), **v.meta}


def cmd_cut(args, rs, pres):
    theta = phi(pres, args.eta)
    result = pushout_cut(pres, theta)
    report = {
        "eta": str(theta.h),
        "ext_degree": theta.n,
        "internal_degree": theta.internal_degree,
        "chain_map": [str(col) for col in theta.cols],
        "result": module_doc(result),
    }
    if not args.no_verify:
        v_m = support_variety(pres, steps=args.steps)
        v_k = support_variety(result, steps=args.steps)
        expected = v_m.intersect(VarietyIdeal(rs.h_ring, [theta.h]))
        mcm = is_mcm(pres)
        # equality on MCM input, one containment otherwise
        ok = expected.contains_variety(v_k) and (not mcm or v_k.contains_variety(expected))
        report["input_variety"] = _ideal_doc(v_m)
        report["result_variety"] = _ideal_doc(v_k)
        report["expected_variety"] = _ideal_doc(expected)
        report["input_is_mcm"] = mcm
        report["verified"] = True
        if not ok:
            raise VerificationError(
                "pushout variety does not match the cut",
                expected=[str(g) for g in expected.gens],
                computed=[str(g) for g in v_k.gens],
                mcm=mcm,
            )
    if args.out:
        _write_out(args.out, format_module_file(result, note=f"cut by {theta.h}"))
        report["out"] = args.out
    return report


def cmd_realize(args, rs, pres):
    etas = [rs.h_ring.parse(e) for e in args.eta]
    result = realize(rs, etas)
    # the variety `realize` verified, read back from the module's cache
    v = support_variety(result)
    report = {
        "etas": [str(f) for f in etas],
        "result": module_doc(result),
        "variety": _ideal_doc(v),
        "is_mcm": is_mcm(result),
        "verified": True,
    }
    if args.out:
        note = "realized module for ({})".format(", ".join(report["etas"]))
        _write_out(args.out, format_module_file(result, note=note))
        report["out"] = args.out
    return report


def cmd_decompose(args, rs, pres):
    vm = vector_model(pres)
    dec = decompose(pres, attempts=args.attempts, seed=args.seed)
    summands = []
    for i, sub in enumerate(dec.summands):
        doc = module_doc(sub)
        doc["model_dimension"] = len(dec.models[i][0])
        doc["possibly_decomposable"] = dec.possibly_decomposable[i]
        summands.append(doc)
        if args.out:
            path = f"{args.out}.summand{i}"
            _write_out(path, format_module_file(sub, note=f"summand {i}"))
    report = {
        "model_dimension": vm.dim,
        "summands": summands,
        "seed": args.seed,
        "attempts": args.attempts,
    }
    if args.out:
        report["out"] = [f"{args.out}.summand{i}" for i in range(len(dec.summands))]
    return report


def cmd_check_carlson(args, rs, pres):
    a1 = VarietyIdeal(rs.h_ring, [args.a1])
    a2 = VarietyIdeal(rs.h_ring, [args.a2])
    outcome = check_carlson(pres, a1, a2, attempts=args.attempts, seed=args.seed)
    return {
        "a1": _ideal_doc(a1),
        "a2": _ideal_doc(a2),
        "module_variety": _ideal_doc(outcome.m_variety),
        "summands": [module_doc(s) for s in outcome.summands],
        "group1": outcome.group1,
        "group2": outcome.group2,
        "free_summands": outcome.free,
        "group1_variety": _ideal_doc(outcome.v1),
        "group2_variety": _ideal_doc(outcome.v2),
        "verdict": "pass",
        "seed": args.seed,
        "attempts": args.attempts,
    }


# ---------------------------------------------------------------------------
# the command table and the entry point

class _Once(argparse.Action):
    """Store a flag's value, refusing a second occurrence, which would
    otherwise replace the first without a word.  Occurrences are counted on
    the namespace: a flag with a default holds a value before its first
    use."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


# Every flag's add_argument spec, once.  --eta has two: `cut` reads one
# operator polynomial, `realize` a repeatable list of variety generators.
# A flag that takes one value is refused when given twice (`_Once`).
FLAGS = {
    "steps": ("--steps", dict(type=int, help="resolution window size N")),
    "max_pairs": ("--max-pairs", dict(
        type=int, default=DEFAULT_BUDGETS.max_pairs,
        help="S-pair budget of a completion run, product budget of a resolution step",
    )),
    "max_degree": ("--max-degree", dict(
        type=int, default=DEFAULT_BUDGETS.max_degree,
        help="degree budget of a completion run and of a resolution step",
    )),
    "attempts": ("--attempts", dict(
        type=int, default=DEFAULT_ATTEMPTS, help="idempotent search budget"
    )),
    "seed": ("--seed", dict(type=int, default=DEFAULT_SEED, help="idempotent search seed")),
    "no_verify": ("--no-verify", dict(action="store_true", help="skip the variety check")),
    "format": ("--format", dict(
        choices=("text", "structured"), default="text", help="report format"
    )),
    "out": ("--out", dict(help="path for emitted module files")),
    "eta": ("--eta", dict(required=True, help="operator polynomial (chi1..)")),
    "etas": ("--eta", dict(action="append", required=True, help="variety generator (repeatable)")),
    "a1": ("--a1", dict(required=True, help="first piece of the split")),
    "a2": ("--a2", dict(required=True, help="second piece of the split")),
}

# Read by every subcommand.  The budgets also govern the ring's Groebner
# basis, computed when the ring file is loaded.
SHARED_FLAGS = ("format", "max_pairs", "max_degree")

MODULE = dict(help="module file")
OPTIONAL_MODULE = dict(nargs="?", help="optional module file")


# handler(args, rs, pres) -> report dict; help text; the module argument's
# add_argument spec, or None; flags: keys of FLAGS, besides SHARED_FLAGS
Command = namedtuple("Command", ("handler", "help", "module", "flags"))


COMMANDS = {
    "validate": Command(cmd_validate, "parse and validate inputs", OPTIONAL_MODULE, ()),
    "resolve": Command(
        cmd_resolve, "minimal free resolution and Betti numbers", MODULE, ("steps",)
    ),
    "operators": Command(
        cmd_operators, "degree-2 operator matrices along the resolution", MODULE, ("steps",)
    ),
    "variety": Command(
        cmd_variety, "support variety: annihilator ideal and dimension", MODULE, ("steps",)
    ),
    "cut": Command(
        cmd_cut, "pushout module cutting the variety by a hypersurface", MODULE,
        ("eta", "steps", "no_verify", "out"),
    ),
    "realize": Command(cmd_realize, "module with prescribed variety", None, ("etas", "out")),
    "decompose": Command(
        cmd_decompose, "split into (probable) indecomposable summands", MODULE,
        ("attempts", "seed", "out"),
    ),
    "check-carlson": Command(
        cmd_check_carlson, "verify the disjoint-variety splitting theorem", MODULE,
        ("a1", "a2", "attempts", "seed"),
    ),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; 2 means budget here, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error[input]: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared afterwards:
    building it costs far more than a parse, and `parse_args` keeps no state
    between calls (each returns a fresh namespace).  Each subcommand gets
    exactly the flags it reads, so any other flag is a usage error."""
    parser = _Parser(prog="civar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("ring", help="ring file (JSON)")
        if command.module is not None:
            p.add_argument("module", **command.module)
        for key in command.flags + SHARED_FLAGS:
            option, spec = FLAGS[key]
            p.add_argument(option, **{"action": _Once, **spec})
    return parser


def _emit_error(fmt: str, exc) -> None:
    if fmt == "structured":
        doc = {"error": {"reason": exc.reason, "message": str(exc), "details": exc.details}}
        sys.stdout.write(render_structured(doc))
    else:
        sys.stderr.write(f"error[{exc.reason}]: {exc}\n")
        for key in sorted(exc.details):
            sys.stderr.write(f"  {key}: {exc.details[key]}\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fmt = args.format
    try:
        for name in ("steps", "max_pairs", "max_degree", "attempts"):
            value = getattr(args, name, None)
            if value is not None and value < 1:
                raise InputError(f"{name} must be positive", value=value)
        prev = configure_budgets(Budgets(max_pairs=args.max_pairs, max_degree=args.max_degree))
        try:
            rs = load_ring(args.ring)
            path = getattr(args, "module", None)
            pres = None if path is None else load_module(rs, path)
            report = {"command": args.command, "ring": _ring_doc(rs)}
            report.update(COMMANDS[args.command].handler(args, rs, pres))
            if pres is not None and "module" not in report:
                report["module"] = module_doc(pres)
        finally:
            configure_budgets(prev)
    except VerificationError as exc:
        _emit_error(fmt, exc)
        return EXIT_VERIFICATION
    except ResourceBudgetError as exc:
        _emit_error(fmt, exc)
        return EXIT_BUDGET
    except InputError as exc:
        _emit_error(fmt, exc)
        return EXIT_INPUT
    except CivarError as exc:
        _emit_error(fmt, exc)
        return EXIT_INTERNAL
    renderer = render_structured if fmt == "structured" else render_text
    sys.stdout.write(renderer(report))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
