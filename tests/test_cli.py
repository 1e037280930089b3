"""End-to-end command line coverage: file parsing, report shapes, exit codes."""

import json
import re

import pytest

from civar import cli
from civar.arith import Poly, PolyRing
from civar.cohomology import VarietyIdeal
from civar.errors import InternalError
from civar.resolve import RingSpec, present_module


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
    "--cap": "variety",
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
        cli, "realize", lambda rs, etas, verify: handed.append(etas) or inner(rs, etas, verify)
    )
    etas = ["2chi1 + chi2", "chi1^2 - chi2^2"]
    argv = ["realize", ring, "--no-verify", "--format", "structured"]
    for eta in etas:
        argv += ["--eta", eta]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert [parsed.count(eta) for eta in etas] == [1, 1]
    assert [type(f) for f in handed[0]] == [Poly, Poly]
    assert json.loads(out)["etas"] == ["2*chi1 + chi2", "chi1^2 + 100*chi2^2"]


def test_realize_computes_the_variety_once(files, capsys, monkeypatch):
    """The report shows the variety `realize` verified when the window
    arguments agree (R1's default window is N = 8, so --steps 8 agrees
    too), with no second computation; another window is computed anew."""
    import civar.cohomology as cohomology

    ring, _, _ = files
    windows = []
    real = cohomology.annihilator_window
    monkeypatch.setattr(
        cohomology, "annihilator_window", lambda ext, cap=None: windows.append(ext.steps) or real(ext, cap)
    )
    for extra, want in (([], [8, 10]), (["--steps", "8"], [8, 10]), (["--steps", "10"], [8, 10, 10, 12])):
        windows.clear()
        code, out, _ = run(capsys, ["realize", ring, "--eta", "chi1", "--format", "structured"] + extra)
        assert code == 0 and json.loads(out)["variety"]["gens"] == ["chi1"]
        assert windows == want, extra


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
    for flag, name in (("--steps", "steps"), ("--cap", "max_op_degree"), ("--max-pairs", "max_pairs")):
        code, _, err = run(capsys, ["variety", ring, mods["k"], flag, "0"])
        assert code == 1
        assert f"{name} must be positive" in err


def test_prime_beyond_int64_linear_algebra_exits_1(tmp_path, capsys):
    ring = tmp_path / "big.json"
    ring.write_text(json.dumps({"p": 2147483659, "vars": ["x"], "ci": ["x^2"]}))
    code, _, err = run(capsys, ["validate", str(ring)])
    assert code == 1
    assert "2^31" in err


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
    "variety": {"--steps", "--cap"},
    "cut": {"--eta", "--steps", "--cap", "--no-verify", "--out"},
    "realize": {"--eta", "--steps", "--cap", "--no-verify", "--out"},
    "decompose": {"--attempts", "--seed", "--out"},
    "check-carlson": {"--a1", "--a2", "--attempts", "--seed"},
}
SHARED = {"--format", "--max-pairs", "--max-degree"}
# the 31 (subcommand, flag) pairs, among the nine flags any subcommand
# accepted before, that the subcommand does not read
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

    def wrong_variety(pres, steps=None, max_op_degree=None):
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

