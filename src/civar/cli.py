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

from .errors import CivarError, InputError, ResourceBudgetError, VerificationError
from .groebner import DEFAULT_BUDGETS, Budgets, configure_budgets
from .cohomology import VarietyIdeal, lift_and_operators, support_variety
from .resolve import (
    ModulePresentation,
    RingSpec,
    artinian_reduction,
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
    if not isinstance(gens, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in gens
    ):
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
# commands


def cmd_validate(args):
    rs = load_ring(args.ring)
    report = {"command": "validate", "ring": _ring_doc(rs), "ok": True}
    if args.module is not None:
        pres = load_module(rs, args.module)
        doc = module_doc(pres)
        doc["relation_count"] = len(pres.relations)
        report["module"] = doc
    return report


def cmd_resolve(args):
    rs = load_ring(args.ring)
    pres = load_module(rs, args.module)
    steps = args.steps if args.steps is not None else DEFAULT_STEPS
    res = resolve_min(pres, steps)
    report = {
        "command": "resolve",
        "ring": _ring_doc(rs),
        "module": module_doc(pres),
        "steps": steps,
        "resolution": _resolution_doc(res, steps),
    }
    return report


def cmd_operators(args):
    rs = load_ring(args.ring)
    pres = load_module(rs, args.module)
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
        "command": "operators",
        "ring": _ring_doc(rs),
        "module": module_doc(pres),
        "steps": steps,
        "resolution": _resolution_doc(res, steps),
        "operators": operators,
    }


def cmd_variety(args):
    rs = load_ring(args.ring)
    pres = load_module(rs, args.module)
    v = support_variety(pres, steps=args.steps, max_op_degree=args.max_op_degree)
    used = v.meta["steps_used"]
    # the resolution the variety was read on: over Q, or its artinian reduction
    res = resolve_min(artinian_reduction(pres), used)
    return {
        "command": "variety",
        "ring": _ring_doc(rs),
        "module": module_doc(pres),
        "annihilator": [str(g) for g in v.gens],
        "dimension": v.dimension(),
        "complexity": v.meta["complexity"],
        "generator_degree": v.meta["generator_degree"],
        "stabilized_at": v.meta["stabilized_at"],
        "steps_used": used,
        "betti": [len(res.degs[i]) for i in range(used + 1)],
    }


def cmd_cut(args):
    rs = load_ring(args.ring)
    pres = load_module(rs, args.module)
    theta = phi(pres, args.eta)
    result = pushout_cut(pres, theta)
    report = {
        "command": "cut",
        "ring": _ring_doc(rs),
        "module": module_doc(pres),
        "eta": str(theta.h),
        "ext_degree": theta.n,
        "internal_degree": theta.internal_degree,
        "chain_map": [str(col) for col in theta.cols],
        "result": module_doc(result),
    }
    if not args.no_verify:
        v_m = support_variety(pres, steps=args.steps, max_op_degree=args.max_op_degree)
        v_k = support_variety(result, steps=args.steps, max_op_degree=args.max_op_degree)
        expected = v_m.intersect(VarietyIdeal(rs.h_ring, [theta.h]))
        mcm = is_mcm(pres)
        ok = expected.contains_variety(v_k) and (not mcm or v_k.equals(expected))
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


def cmd_realize(args):
    rs = load_ring(args.ring)
    result = realize(rs, args.eta, verify=not args.no_verify)
    v = support_variety(result, steps=args.steps, max_op_degree=args.max_op_degree)
    report = {
        "command": "realize",
        "ring": _ring_doc(rs),
        "etas": [str(rs.h_ring.parse(e)) for e in args.eta],
        "result": module_doc(result),
        "variety": _ideal_doc(v),
        "is_mcm": is_mcm(result),
        "verified": not args.no_verify,
    }
    if args.out:
        note = "realized module for ({})".format(", ".join(report["etas"]))
        _write_out(args.out, format_module_file(result, note=note))
        report["out"] = args.out
    return report


def cmd_decompose(args):
    rs = load_ring(args.ring)
    pres = load_module(rs, args.module)
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
        "command": "decompose",
        "ring": _ring_doc(rs),
        "module": module_doc(pres),
        "model_dimension": vm.dim,
        "summands": summands,
        "seed": args.seed,
        "attempts": args.attempts,
    }
    if args.out:
        report["out"] = [f"{args.out}.summand{i}" for i in range(len(dec.summands))]
    return report


def cmd_check_carlson(args):
    rs = load_ring(args.ring)
    pres = load_module(rs, args.module)
    a1 = VarietyIdeal(rs.h_ring, [args.a1])
    a2 = VarietyIdeal(rs.h_ring, [args.a2])
    outcome = check_carlson(pres, a1, a2, attempts=args.attempts, seed=args.seed)
    return {
        "command": "check-carlson",
        "ring": _ring_doc(rs),
        "module": module_doc(pres),
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


COMMANDS = {
    "validate": cmd_validate,
    "resolve": cmd_resolve,
    "operators": cmd_operators,
    "variety": cmd_variety,
    "cut": cmd_cut,
    "realize": cmd_realize,
    "decompose": cmd_decompose,
    "check-carlson": cmd_check_carlson,
}


# ---------------------------------------------------------------------------
# argument parsing and entry point


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
    between calls (each returns a fresh namespace)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--steps", type=int, default=None, help="resolution window size N")
    common.add_argument(
        "--cap", dest="max_op_degree", metavar="CAP", type=int, default=None,
        help="upper bound on the operator degree of the annihilator window",
    )
    common.add_argument(
        "--max-pairs", type=int, default=DEFAULT_BUDGETS.max_pairs,
        help="S-pair budget of a completion run, product budget of a resolution step",
    )
    common.add_argument(
        "--max-degree", type=int, default=DEFAULT_BUDGETS.max_degree,
        help="degree budget of a completion run and of a resolution step",
    )
    common.add_argument(
        "--attempts", type=int, default=DEFAULT_ATTEMPTS, help="idempotent search budget"
    )
    common.add_argument("--seed", type=int, default=DEFAULT_SEED, help="idempotent search seed")
    common.add_argument("--no-verify", action="store_true", help="skip theorem-level checks")
    common.add_argument(
        "--format", choices=("text", "structured"), default="text", help="report format"
    )
    common.add_argument("--out", default=None, help="path for emitted module files")

    parser = _Parser(prog="civar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("ring", help="ring file (JSON)")
        p.add_argument("module", help="module file")
        return p

    p = sub.add_parser("validate", parents=[common], help="parse and validate inputs")
    p.add_argument("ring", help="ring file (JSON)")
    p.add_argument("module", nargs="?", default=None, help="optional module file")

    add("resolve", "minimal free resolution and Betti numbers")
    add("operators", "degree-2 operator matrices along the resolution")
    add("variety", "support variety: annihilator ideal and dimension")
    p = add("cut", "pushout module cutting the variety by a hypersurface")
    p.add_argument("--eta", required=True, help="operator polynomial (chi1..)")
    p = sub.add_parser("realize", parents=[common], help="module with prescribed variety")
    p.add_argument("ring", help="ring file (JSON)")
    p.add_argument(
        "--eta", action="append", required=True, help="variety generator (repeatable)"
    )
    add("decompose", "split into (probable) indecomposable summands")
    p = add("check-carlson", "verify the disjoint-variety splitting theorem")
    p.add_argument("--a1", required=True, help="first piece of the split")
    p.add_argument("--a2", required=True, help="second piece of the split")
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
        for name in ("steps", "max_op_degree", "max_pairs", "max_degree", "attempts"):
            value = getattr(args, name)
            if value is not None and value < 1:
                raise InputError(f"{name} must be positive", value=value)
        prev = configure_budgets(Budgets(max_pairs=args.max_pairs, max_degree=args.max_degree))
        try:
            report = COMMANDS[args.command](args)
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
