"""End-to-end command line coverage: file parsing, report shapes, exit codes."""

import hashlib
import json
import re

import pytest

from civar import cli
from civar.arith import Poly, PolyRing
from civar.cohomology import VarietyIdeal
from civar.errors import InternalError
from civar.resolve import RingSpec, present_module, residue_field


RING1 = json.dumps({"p": 101, "vars": ["x", "y"], "ci": ["x^2", "y^2"]})

MOD_K = "gens: [0]\nrelations: [[\"x\", \"y\"]]\n"
MOD_M1 = "gens: [0]\nrelations: [[\"x\"]]\n"
MOD_M1M2 = (
    "# two cyclic summands\n"
    "gens: [0, 0]\n"
    "relations: [[\"x\", \"0\"],\n"
    "            [\"0\", \"y\"]]\n"
)


@pytest.fixture
def files(tmp_path):
    ring = tmp_path / "ring.json"
    ring.write_text(RING1)
    mods = {}
    for name, text in (("k", MOD_K), ("m1", MOD_M1), ("m1m2", MOD_M1M2)):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        mods[name] = str(path)
    return str(ring), mods, tmp_path


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths


def test_validate_ring_only(files, capsys):
    ring, _, _ = files
    code, out, err = run(capsys, ["validate", ring])
    assert code == 0
    assert "ok" in out
    assert err == ""


def test_validate_with_module_structured(files, capsys):
    ring, mods, _ = files
    code, out, _ = run(capsys, ["validate", ring, mods["k"], "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert doc["module"]["gens"] == [0]
    assert doc["module"]["relation_count"] == 2


def test_validate_builds_the_module_doc_once(files, capsys, monkeypatch):
    ring, mods, _ = files
    built = []
    real = cli.module_doc

    def counted(pres):
        built.append(pres)
        return real(pres)

    monkeypatch.setattr(cli, "module_doc", counted)
    code, out, _ = run(capsys, ["validate", ring, mods["k"], "--format", "structured"])
    assert code == 0 and len(built) == 1
    assert json.loads(out)["module"] == {
        "gens": [0], "relations": [["x", "y"]], "relation_count": 2,
    }


def test_resolve_betti(files, capsys):
    ring, mods, _ = files
    code, out, _ = run(
        capsys, ["resolve", ring, mods["k"], "--steps", "6", "--format", "structured"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["resolution"]["betti"] == [1, 2, 3, 4, 5, 6, 7]


def test_variety_of_residue_field(files, capsys):
    ring, mods, _ = files
    code, out, _ = run(capsys, ["variety", ring, mods["k"], "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 2
    assert doc["annihilator"] == []
    assert doc["complexity"] == 2


@pytest.mark.parametrize("name", ["k", "m1"])
def test_variety_reports_the_accepted_complexity(files, capsys, name):
    ring, mods, _ = files
    code, out, _ = run(capsys, ["variety", ring, mods[name], "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert doc["complexity"] == doc["dimension"]


def test_variety_text_mentions_dimension(files, capsys):
    ring, mods, _ = files
    code, out, _ = run(capsys, ["variety", ring, mods["m1"]])
    assert code == 0
    assert "dimension: 1" in out


def test_structured_reports_are_byte_identical(files, capsys):
    ring, mods, _ = files
    argv = ["variety", ring, mods["k"], "--format", "structured"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_cut_emits_roundtrippable_file(files, capsys):
    ring, mods, tmp = files
    out_path = tmp / "cut.txt"
    code, out, _ = run(
        capsys,
        [
            "cut",
            ring,
            mods["k"],
            "--eta",
            "chi1",
            "--out",
            str(out_path),
            "--format",
            "structured",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result_variety"]["gens"] == ["chi1"]
    assert doc["input_is_mcm"] is True

    rs = RingSpec(101, ["x", "y"], ["x^2", "y^2"])
    reread = cli.parse_module_text(rs, out_path.read_text())
    assert list(reread.gens) == doc["result"]["gens"]
    assert cli.module_doc(reread) == doc["result"]


def test_realize_repeatable_eta(files, capsys):
    ring, _, _ = files
    code, out, _ = run(
        capsys,
        ["realize", ring, "--eta", "chi1 + chi2", "--format", "structured"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["variety"]["gens"] == ["chi1 + chi2"]
    assert doc["is_mcm"] is True


def test_cut_refuses_a_repeated_eta(files, capsys):
    """`cut` reads one operator polynomial: a second --eta is a usage error
    (exit 1), not a silent replacement of the first, and nothing is
    written."""
    ring, mods, tmp = files
    out_path = tmp / "cut.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["cut", ring, mods["k"], "--eta", "chi2", "--eta", "chi1", "--no-verify",
             "--out", str(out_path)]
        )
    assert exc.value.code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "error[input]: argument --eta: given more than once" in err
    assert not out_path.exists()
    code, out, _ = run(
        capsys, ["cut", ring, mods["k"], "--eta", "chi2", "--no-verify", "--format", "structured"]
    )
    assert code == 0 and json.loads(out)["eta"] == "chi2"


# every flag that takes one value, with a subcommand that reads it; the
# first use of --format, --seed, --attempts, --max-pairs and --max-degree
# replaces a default, so a repeat is told apart by counting, not by value
REPEATABLE_ONCE = {
    "--steps": "variety",
    "--a1": "check-carlson",
    "--a2": "check-carlson",
    "--seed": "decompose",
    "--attempts": "decompose",
    "--out": "decompose",
    "--format": "validate",
    "--max-pairs": "validate",
    "--max-degree": "validate",
}


@pytest.mark.parametrize("flag", sorted(REPEATABLE_ONCE))
def test_repeated_flag_exits_1(files, capsys, flag):
    """A second value for a one-value flag is refused, exit 1, before
    anything runs, instead of silently replacing the first."""
    ring, mods, tmp = files
    cmd = REPEATABLE_ONCE[flag]
    argv = {
        "validate": [ring],
        "check-carlson": [ring, mods["m1m2"], "--a1", "chi2", "--a2", "chi1"],
    }.get(cmd, [ring, mods["k"]])
    value = {
        "--a1": "chi2", "--a2": "chi1", "--out": str(tmp / "out.txt"), "--format": "structured",
    }.get(flag, "3")
    once = [flag, value] if flag not in ("--a1", "--a2") else []
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd] + argv + once + [flag, value])
    assert exc.value.code == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error[input]: argument {flag}: given more than once" in captured.err
    assert not list(tmp.glob("out.txt*"))



def test_realize_parses_each_eta_once(files, capsys, monkeypatch):
    """`realize` parses every --eta once and hands the polynomials to
    `construct.realize`; the report prints them as parsed."""
    ring, _, _ = files
    parsed = []
    parse = PolyRing.parse
    monkeypatch.setattr(
        PolyRing, "parse", lambda self, text: parsed.append(text) or parse(self, text)
    )
    handed = []
    inner = cli.realize
    monkeypatch.setattr(
        cli, "realize", lambda rs, etas, **kw: handed.append(etas) or inner(rs, etas, **kw)
    )
    etas = ["2chi1 + chi2", "chi1^2 - chi2^2"]
    argv = ["realize", ring, "--format", "structured"]
    for eta in etas:
        argv += ["--eta", eta]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert [parsed.count(eta) for eta in etas] == [1, 1]
    assert [type(f) for f in handed[0]] == [Poly, Poly]
    assert json.loads(out)["etas"] == ["2*chi1 + chi2", "chi1^2 + 100*chi2^2"]


def test_realize_computes_the_variety_once(files, capsys, monkeypatch):
    """The report shows the variety `realize` verified, read from the
    module's cache: R1's windows N = 8 and 10 run once, and no others."""
    import civar.cohomology as cohomology

    ring, _, _ = files
    windows = []
    real = cohomology.annihilator_window
    monkeypatch.setattr(
        cohomology, "annihilator_window", lambda ext: windows.append(ext.steps) or real(ext)
    )
    code, out, _ = run(capsys, ["realize", ring, "--eta", "chi1", "--format", "structured"])
    assert code == 0 and json.loads(out)["variety"]["gens"] == ["chi1"]
    assert windows == [8, 10]


# sha256 of the structured `realize` report over R4 = F_101[x,y]/(x^2) and
# over B = F_101[x,y,z,w]/(x^2, y^2, z^2), as printed while `is_mcm` still
# tested the result
PINNED_REALIZE = {
    ("R4", "chi1"): (
        ["x", "y"], ["x^2"], "a2e2d5d63cb3da1b7b427aa266819e87e73885a4a531f57a562aa4a664db5d7e"
    ),
    ("B", "chi1 + 2*chi2 + 3*chi3"): (
        ["x", "y", "z", "w"], ["x^2", "y^2", "z^2"],
        "38369f5a183857cde7f9fa45cdb4e5ef4282ce496d00ceef8531aa184d92a723",
    ),
}


@pytest.mark.parametrize("ring_name, eta", sorted(PINNED_REALIZE))
def test_realize_reads_the_mcm_verdict_of_its_cuts(tmp_path, capsys, monkeypatch, ring_name, eta):
    """Each cut K of an MCM module M fits in 0 -> M -> K -> Omega^{n-1} M
    -> 0, so it is MCM too; `pushout_cut` records that, and the report's
    is_mcm runs no Ext test over a non-artinian ring."""
    import civar.resolve as resolve

    monkeypatch.setattr(resolve, "_ext_into_q_vanishes", lambda pres: pytest.fail("Ext test run"))
    variables, ci, digest = PINNED_REALIZE[ring_name, eta]
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"p": 101, "vars": variables, "ci": ci}))
    code, out, _ = run(capsys, ["realize", str(ring), "--eta", eta, "--format", "structured"])
    assert code == 0 and json.loads(out)["is_mcm"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cached_parser_keeps_no_state_between_calls(files, capsys):
    """`main` reuses one parser for the whole process: no call may see what
    an earlier one parsed, however that call ended."""
    ring, _, _ = files
    assert cli.build_parser() is cli.build_parser()

    def realize(*etas):
        argv = ["realize", ring, "--format", "structured"]
        for eta in etas:
            argv += ["--eta", eta]
        code, out, _ = run(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["etas"] == list(etas)
        return doc

    assert realize("chi1")["variety"]["gens"] == ["chi1"]
    assert realize("chi1", "chi2")["variety"]["gens"] == ["chi1", "chi2"]
    expected = realize("chi2")
    assert expected["variety"]["gens"] == ["chi2"]
    for argv, status in (
        (["realize", ring], 1),
        (["realize", ring, "--eta", "chi1", "--no-such-flag"], 1),
        (["--help"], 0),
        (["realize", "--help"], 0),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == status
        capsys.readouterr()
        assert realize("chi2") == expected


def test_decompose_writes_summand_files(files, capsys):
    ring, mods, tmp = files
    prefix = tmp / "dec"
    code, out, _ = run(
        capsys,
        ["decompose", ring, mods["m1m2"], "--out", str(prefix), "--format", "structured"],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["summands"]) == 2
    assert doc["model_dimension"] == sum(s["model_dimension"] for s in doc["summands"])
    rs = RingSpec(101, ["x", "y"], ["x^2", "y^2"])
    for i in range(2):
        text = (tmp / f"dec.summand{i}").read_text()
        pres = cli.parse_module_text(rs, text)
        assert cli.module_doc(pres) == {
            k: v for k, v in doc["summands"][i].items() if k in ("gens", "relations")
        }


def test_check_carlson_pass(files, capsys):
    ring, mods, _ = files
    code, out, _ = run(
        capsys,
        [
            "check-carlson",
            ring,
            mods["m1m2"],
            "--a1",
            "chi2",
            "--a2",
            "chi1",
            "--format",
            "structured",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["group1"] == [0] and doc["group2"] == [1]


# ---------------------------------------------------------------------------
# failure paths and exit codes


def test_missing_ring_file_exits_1(files, capsys):
    _, mods, tmp = files
    code, _, err = run(capsys, ["variety", str(tmp / "nope.json"), mods["k"]])
    assert code == 1
    assert "error[input]" in err


def test_invalid_ring_json_exits_1(files, capsys):
    _, mods, tmp = files
    bad = tmp / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["variety", str(bad), mods["k"]])
    assert code == 1
    assert "not valid JSON" in err


@pytest.mark.parametrize(
    "doc", [{"vars": "xy", "ci": ["x^2", "y^2"]}, {"vars": ["x"], "ci": "x^2"}], ids=["vars", "ci"]
)
def test_ring_fields_that_are_not_lists_exit_1(files, capsys, doc):
    _, mods, tmp = files
    bad = tmp / "bad.json"
    bad.write_text(json.dumps({"p": 101, **doc}))
    for argv in (["validate", str(bad)], ["variety", str(bad), mods["k"]]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert "vars and ci must be JSON lists" in err


def test_boolean_generator_degree_exits_1(files, capsys):
    ring, _, tmp = files
    bad = tmp / "bool.txt"
    bad.write_text("gens: [true]\nrelations: [[\"x\", \"y\"]]\n")
    code, out, err = run(capsys, ["validate", ring, str(bad)])
    assert (code, out) == (1, "")
    assert "gens must be a list of integers" in err


def test_module_without_gens_exits_1(files, capsys):
    ring, _, tmp = files
    bad = tmp / "bad.txt"
    bad.write_text("relations: [[\"x\"]]\n")
    code, _, err = run(capsys, ["resolve", ring, str(bad)])
    assert code == 1
    assert "gens" in err


def test_ragged_relations_exit_1(files, capsys):
    ring, _, tmp = files
    bad = tmp / "ragged.txt"
    bad.write_text("gens: [0, 0]\nrelations: [[\"x\"], [\"y\", \"x\"]]\n")
    code, _, err = run(capsys, ["resolve", ring, str(bad)])
    assert code == 1
    assert "ragged" in err


def test_bad_flag_value_exits_1(files, capsys):
    ring, mods, _ = files
    for flag, name in (("--steps", "steps"), ("--max-pairs", "max_pairs")):
        code, _, err = run(capsys, ["variety", ring, mods["k"], flag, "0"])
        assert code == 1
        assert f"{name} must be positive" in err


def test_prime_beyond_int64_linear_algebra_exits_1(tmp_path, capsys):
    ring = tmp_path / "big.json"
    ring.write_text(json.dumps({"p": 2147483659, "vars": ["x"], "ci": ["x^2"]}))
    code, _, err = run(capsys, ["validate", str(ring)])
    assert code == 1
    assert "2^31" in err


def test_prime_that_is_not_an_integer_exits_1(tmp_path, capsys):
    """A quoted p is refused as a non-integer, not as "not an odd prime"."""
    ring = tmp_path / "quoted.json"
    ring.write_text(json.dumps({"p": "101", "vars": ["x"], "ci": ["x^2"]}))
    code, _, err = run(capsys, ["validate", str(ring)])
    assert code == 1
    assert "p must be an integer, got str '101'" in err
    assert "odd prime" not in err


def test_internal_error_exits_4(files, capsys, monkeypatch):
    ring, mods, _ = files

    def broken(args, rs, pres):
        raise InternalError("invariant broke", step=3)

    entry = cli.COMMANDS["resolve"]._replace(handler=broken)
    monkeypatch.setitem(cli.COMMANDS, "resolve", entry)
    code, out, err = run(capsys, ["resolve", ring, mods["k"]])
    assert code == cli.EXIT_INTERNAL == 4
    assert "error[internal]: invariant broke" in err and "step: 3" in err
    code, out, _ = run(capsys, ["resolve", ring, mods["k"], "--format", "structured"])
    assert code == 4
    assert json.loads(out) == {
        "error": {"reason": "internal", "message": "invariant broke", "details": {"step": 3}}
    }


# the flags each subcommand reads, besides --format, --max-pairs and
# --max-degree, which every subcommand reads
READS = {
    "validate": set(),
    "resolve": {"--steps"},
    "operators": {"--steps"},
    "variety": {"--steps"},
    "cut": {"--eta", "--steps", "--no-verify", "--out"},
    "realize": {"--eta", "--out"},
    "decompose": {"--attempts", "--seed", "--out"},
    "check-carlson": {"--a1", "--a2", "--attempts", "--seed"},
}
SHARED = {"--format", "--max-pairs", "--max-degree"}
# the 36 (subcommand, flag) pairs, among the nine flags any subcommand
# accepted before, that the subcommand does not read; no subcommand reads
# --cap, which bounded the operator degree of the annihilator window, and
# `realize` reads neither --steps, which only computed a second variety for
# the report, nor --no-verify, which only reported a failed check as exit 0
NINE = (
    "--steps", "--cap", "--max-pairs", "--max-degree", "--attempts", "--seed", "--no-verify",
    "--format", "--out",
)
UNREAD = [(cmd, flag) for cmd in READS for flag in NINE if flag not in READS[cmd] | SHARED]


@pytest.mark.parametrize("cmd, flag", UNREAD)
def test_unread_flag_exits_1(files, capsys, cmd, flag):
    """A flag the subcommand would ignore is refused before anything runs."""
    ring, mods, tmp = files
    argv = {
        "validate": [ring],
        "cut": [ring, mods["k"], "--eta", "chi1"],
        "realize": [ring, "--eta", "chi1"],
        "check-carlson": [ring, mods["m1m2"], "--a1", "chi2", "--a2", "chi1"],
    }.get(cmd, [ring, mods["k"]])
    value = [] if flag == "--no-verify" else [str(tmp / "out.txt") if flag == "--out" else "3"]
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd] + argv + [flag] + value)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error[input]: unrecognized arguments: " + flag in captured.err
    assert not (tmp / "out.txt").exists()


@pytest.mark.parametrize("cmd", sorted(cli.COMMANDS))
def test_help_lists_exactly_the_flags_read(capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)) - {"--help"}
    assert listed == READS[cmd] | SHARED


def test_usage_error_exits_1(files, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1
    assert "error[input]" in capsys.readouterr().err


def test_zero_polynomials_are_named_as_zero(files, capsys):
    """A zero operator polynomial or ring relation exits 1 and says it is
    zero, not that it is inhomogeneous."""
    ring, mods, tmp = files
    code, _, err = run(capsys, ["cut", ring, mods["k"], "--eta", "0"])
    assert code == cli.EXIT_INPUT
    assert err == "error[input]: operator polynomial must be nonzero\n"
    zero_ring = tmp / "zero.json"
    zero_ring.write_text(json.dumps({"p": 101, "vars": ["x", "y"], "ci": ["x^2", "0"]}))
    code, _, err = run(capsys, ["validate", str(zero_ring)])
    assert code == cli.EXIT_INPUT
    assert err == "error[input]: relation 1 is zero\n  index: 1\n"


def test_realize_names_a_zero_cut_element_as_zero(files, capsys):
    ring, _, _ = files
    for etas, i in ((["0"], 0), (["chi1", "0"], 1)):
        argv = ["realize", ring] + [arg for eta in etas for arg in ("--eta", eta)]
        code, out, err = run(capsys, argv)
        assert code == cli.EXIT_INPUT and out == ""
        assert err == f"error[input]: cut element {i} must be nonzero\n  index: {i}\n"


def test_realize_names_a_cut_element_of_mixed_internal_degree(tmp_path, capsys):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"p": 101, "vars": ["x", "y"], "ci": ["x^2", "y^3"]}))
    code, out, err = run(capsys, ["realize", str(ring), "--eta", "chi1", "--eta", "chi1 + chi2"])
    assert code == cli.EXIT_INPUT and out == ""
    assert err == (
        "error[input]: cut element 1: monomials of mixed internal degree cannot represent "
        "one graded map\n  degrees: [2, 3]\n  index: 1\n"
    )


def test_premise_failure_exits_1(files, capsys):
    ring, mods, _ = files
    code, _, err = run(
        capsys,
        ["check-carlson", ring, mods["m1m2"], "--a1", "chi1", "--a2", "chi1"],
    )
    assert code == 1
    assert "error[premise]" in err


def test_budget_exhaustion_exits_2(files, capsys):
    ring, mods, _ = files
    code, _, err = run(capsys, ["variety", ring, mods["k"], "--max-pairs", "1"])
    assert code == 2
    assert "error[budget]" in err


def test_degree_budget_of_the_degreewise_resolution_exits_2(files, capsys):
    ring, mods, _ = files
    code, _, err = run(capsys, ["variety", ring, mods["k"], "--max-degree", "5"])
    assert code == 2
    assert "error[budget]" in err
    assert "budget: max_degree" in err and "step: 5" in err and "degree: 6" in err


def test_verification_failure_exits_3(files, capsys, monkeypatch):
    ring, mods, _ = files

    def wrong_variety(pres, steps=None):
        return VarietyIdeal(pres.rs.h_ring, [])

    monkeypatch.setattr(cli, "support_variety", wrong_variety)
    code, out, err = run(capsys, ["cut", ring, mods["k"], "--eta", "chi1"])
    assert code == 3
    assert "error[verification]" in err


def test_structured_error_report(files, capsys):
    ring, mods, _ = files
    code, out, _ = run(
        capsys,
        [
            "check-carlson",
            ring,
            mods["m1m2"],
            "--a1",
            "chi1",
            "--a2",
            "chi1",
            "--format",
            "structured",
        ],
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["reason"] == "premise"


# ---------------------------------------------------------------------------
# parsing units


def test_parse_module_text_comments_and_multiline():
    rs = RingSpec(101, ["x", "y"], ["x^2", "y^2"])
    pres = cli.parse_module_text(rs, MOD_M1M2)
    assert pres.gens == (0, 0)
    assert len(pres.relations) == 2  # columns after transposition


def test_parse_module_text_row_count_mismatch():
    rs = RingSpec(101, ["x", "y"], ["x^2", "y^2"])
    with pytest.raises(cli.InputError):
        cli.parse_module_text(rs, "gens: [0]\nrelations: [[\"x\"], [\"y\"]]\n")



# ---------------------------------------------------------------------------
# report bytes

# sha256 of the structured `resolve --steps 8`, `operators --steps 6` and
# `variety` reports of each corpus module and of k over
# R5 = F_101[x,y,z]/(x^2+yz, y^2+xz, z^2), a ring whose relations are not
# monomials.  Changes to how the engine computes must leave every byte.
# Over R4, a ring of dimension 1, the variety is read on E of the first
# syzygy, which is E(M) from degree 1 on, shifted down by one; the
# `generator_degree` of the R4 `variety` reports counts degrees there.
PINNED_REPORTS = {
    'R1 A/(x)': (
        "c6022e9363761087ef6a10ed8c0246a9ba9f6f16882e07db53a81537c980633d",
        "46345d2a6ee5269b4bd5a36ffd94a00a4361fd4e55d367bc700240706a848cdd",
        "7afa47cd69e654249687bc5fe7f8981ff57586b87fa56ed3292dfb938ba52955",
    ),
    'R1 A/(x+y)': (
        "cd0f54fbf4652ef6d04b9119f27aa9ed43c6a6897f4efde88e848e3b2e62e05f",
        "ceb00e39cc6fc5d61cd61f3a6b116801447e32fa5e6fc7bb8caff1646751d313",
        "0bc425066dc5580a29f05f4aa1d3a5b7ef5ae507cb4015927e4da2cd678312ea",
    ),
    'R1 A/(y)': (
        "01d697a206d3a6d7ccc39d0d670ed256836f5c40225c87f23fa3f14caf590417",
        "35ca57c542536eee50eb66e5bbbe1b4c1a473ec45ac6b275397b94afa03a60df",
        "512d5a9e94f840058e8b97c8fee4ca16c0470f962c48543ffd0feea5ae73ba77",
    ),
    'R1 free': (
        "bdd785866c8d0246eb5fc53e66140cf9a2f1263746e6ff11bdabd2cc02b57087",
        "6a9f1837e06b5162aaddfb9feb505005515dcaa27df4a286a41205f9889685c9",
        "f81de0813c050ffacf7788c65a4a74e3cc1c046ae256c0550bda6ea80a9cd08b",
    ),
    'R1 k': (
        "0f3b6bc259564a1f76c86f086ccc98656c21a6e5eacfeebb15a3038ca3c653a7",
        "5e2beba183791349fb66a863e0dfca754c9e6f46b273dd45d47521fed27eefb9",
        "c58e0237381d83c7db1f2254a2d06f6fb89eddac5a1da0217015b2fef0c671e0",
    ),
    'R1 syz1(k)': (
        "a22e03790ab41a78501505163960f5982ee5532784bc19d877607ef35becc59b",
        "079589282002c1c187055d365388a98b700b9f9b9386ca6732b061731bd92a89",
        "faff1c0155a407371e97abf8fde91cf423386ee3cd6daa0cf3a10e246e384bde",
    ),
    'R2 free': (
        "b9892ca98d5e19596df5242315b5a28c89fd3a4b274770cd6a735ddfdf4f2aad",
        "336d44fb9127c9c8df17338b136673f97ba7079bbbad5ac53ef84118888ced6a",
        "b10a1eaafc03ae827fcace4bf5e0782f4d891f2a62c9e948805536959e37690c",
    ),
    'R2 k': (
        "1713c3120692dbbcb0c103076b59a4178b926a51f635734ecdc482e450267e97",
        "7708f0a67719907692578e419842895ab02afa8ac0664906a10d31f9cddb3156",
        "aaff60875bbf8599066b1c2f93664258d66443d2b3663e84ba508eb273ca66f5",
    ),
    'R3 A/(x)': (
        "1c1cd006a1a19fb8d2ebf19e4b46e64540a07b57e1c55102013e5cb80efcb91d",
        "ef63bf55329cc6df10c0e3772eea3b0a190400629976b70f7965eab7b251a487",
        "8ac975d2150dc2d56490c762e09928b78b3d426db281b0f0c00f2b90235952f1",
    ),
    'R3 A/(x+y)': (
        "520bc729665eda7f0bcda21a86208da7f10c15a141e4686c2505bdb3d92ee475",
        "ee94e4295a75acf29279b40c7fe72f8a273610a879f9f76ff7910d070d4144d4",
        "c8929d8a7c1bb80ff4d72db5dbda4a533fa98d89aa4a7443189ead489ed1fc95",
    ),
    'R3 k': (
        "9029d80caf05dc1e329e2f1c47be2758efbe3bf96c141fb3e3fbb4d0b4e7587f",
        "1b537c9583176397ac151c449931b2139c375e01b79a1c2d4452518dd62dbddc",
        "f56c464544acfe29bf041d3b0bb8aaf71df5be7c47963cdf9b99202bdadf0654",
    ),
    'R4 A/(y)': (
        "bcca3dfb76c9f51aebd3349067d95971194b604b01ae74623cfd76773cdecdef",
        "106e6bd7d68bea6cbe34078de0f5ac3a9b0ccac821f4f1364acbb81cf14b3381",
        "ba73fe38dc01589834da0df1e4f6c9079c5908ac91ee9dd26fcebbe1c6a605c8",
    ),
    'R4 k': (
        "bc96a796e3d902dfb5e34f34d757775bbd27e32de25748912f1168ee8d0d6c7e",
        "8d4315568f646fe6d46c9289c2e7c3adde2bdbb25f63a3e7b22614024bdea4b7",
        "81bb3ba3edfed0b14ecda09de8875fdddc748378a4b3183d83344b7db9d3def6",
    ),
    'R5 k': (
        "84fe2150bd283ed21c061b23455480b4f1be4d734155d895c727036724f55b78",
        "2b31aef6df191499bcfd055cf9ac8f508f59902e852d3eada14aad6fa84519e9",
        "186291c693d4e9cad84d7e5ccaccf0a270e751dd96b8c651fc212b766413235b",
    ),
}

REPORT_ARGS = (["resolve", "--steps", "8"], ["operators", "--steps", "6"], ["variety"])


def pinned_modules(corpus):
    r5 = RingSpec(101, ["x", "y", "z"], ["x^2 + y*z", "y^2 + x*z", "z^2"])
    return dict(corpus + [("R5 k", residue_field(r5))])


def write_inputs(pres, tmp_path):
    """The ring file and the module file of `pres`."""
    rs = pres.rs
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"p": rs.p, "vars": list(rs.ring.vars), "ci": [str(f) for f in rs.ci]}))
    module = tmp_path / "module.txt"
    module.write_text(cli.format_module_file(pres))
    return str(ring), str(module)


def report_digests(pres, tmp_path, capsys):
    ring, module = write_inputs(pres, tmp_path)
    digests = []
    for cmd, *flags in REPORT_ARGS:
        code, out, _ = run(capsys, [cmd, ring, module, *flags, "--format", "structured"])
        assert code == 0, cmd
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    return tuple(digests)


@pytest.mark.parametrize("label", sorted(PINNED_REPORTS))
def test_reports_keep_their_bytes(corpus, tmp_path, capsys, label):
    pres = pinned_modules(corpus)[label]
    assert report_digests(pres, tmp_path, capsys) == PINNED_REPORTS[label]


# sha256 of the structured `decompose` report of each module above and of
# m1 (+) m2 over R1, and of `check-carlson` splitting m1 (+) m2 along
# chi2 | chi1: the vector models and the idempotent search behind them.
PINNED_SPLITS = {
    ("decompose", "R1 A/(x)"): "905274352a0e63bea524a83baaf2813f82f96d59ff5a29300174da1acbf7d41d",
    ("decompose", "R1 A/(x+y)"): "4ebf8866d7c43d675059d76ba47bf7ca0d66b58a9dae27edd1d9449cdc5d8ce8",
    ("decompose", "R1 A/(y)"): "ef0f29be1420931dea23a2049d6faa81083eca8f75750b8ddd500cd92abe1cf4",
    ("decompose", "R1 free"): "bf5c1e299b02e66ccc047b6dbc251859bfbc9abadb69b6fd87f4f4e0aa039ba9",
    ("decompose", "R1 k"): "bb5999a031f6d4ce2b791372d07933ddae75d64b54214e985b1326f2f12a2763",
    ("decompose", "R1 m1m2"): "8c7cbee47b5e70618b31d8325d96e511f2d781e68313498eb2f2dc25684a37b2",
    ("decompose", "R1 syz1(k)"): "ff0d3895df1037e9e988513c09196d8078e55fdd86b0dd396fad502935c2333a",
    ("decompose", "R2 free"): "bc238f2962800424a099010b02761b3a09b5f482478153164009d0daa36aef5c",
    ("decompose", "R2 k"): "568a437a882d5ef8d1ba020fded1e654b0462616eea67277eaa791fd1699e6ba",
    ("decompose", "R3 A/(x)"): "7c8f1926df38415a0b9bd6732f39a353dd0d6a44e67b4a23649a63c377a2d0a1",
    ("decompose", "R3 A/(x+y)"): "781310ed0aaf6f34d3311076a97fd0584faef651aac0a038533ba5e152664314",
    ("decompose", "R3 k"): "a0852e04206298e7a543981ad0bfdd2674c58973eb3bb101acb21f36e33bec3b",
    ("decompose", "R4 A/(y)"): "251cac1f8fe688237ea1a3ec5c55695c3540198430cc2fddff9208f5587ff440",
    ("decompose", "R4 k"): "404e3102a9158bcb9552bb8b0b997eda86017ed073a87d37df56ac21eff65d80",
    ("decompose", "R5 k"): "52d119e8e569e24403fe41b002d7ced5e8285290ba32196ef2a4f1d53e2c5850",
    ("check-carlson", "R1 m1m2"): "8420e18c4992074aba52bdcba56c0c45c42ad6f9fe4913d7aaa7f74accb283a6",
}

SPLIT_FLAGS = {"decompose": [], "check-carlson": ["--a1", "chi2", "--a2", "chi1"]}


@pytest.mark.parametrize("cmd, label", sorted(PINNED_SPLITS), ids=" ".join)
def test_split_reports_keep_their_bytes(corpus, tmp_path, capsys, cmd, label):
    mods = pinned_modules(corpus)
    mods["R1 m1m2"] = cli.parse_module_text(mods["R1 k"].rs, MOD_M1M2)
    ring, module = write_inputs(mods[label], tmp_path)
    code, out, _ = run(capsys, [cmd, ring, module, *SPLIT_FLAGS[cmd], "--format", "structured"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SPLITS[cmd, label]
