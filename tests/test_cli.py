"""End-to-end command-line paths: pipelines, exit codes, diagnostics."""

import argparse
import csv
import io
import json
import re
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taftlab import cli
from taftlab.cli import main
from taftlab.fixtures import ss_specs, sweedler_two_dim, trivial_action
from taftlab.linalg import Matrix
from taftlab.serialize import dumps_canonical, hma_to_json, ss_spec_to_json
from taftlab.taft_hopf import AxiomReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps_canonical(doc))
    return str(path)


def test_hopf_check(capsys):
    code, out, err = run(capsys, "hopf-check", "--m", "3")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["ok"] is True and doc["m"] == 3


def test_hopf_check_failure_exits_2(capsys, monkeypatch):
    # a failed axiom battery is a failed verification: exit 2, one diagnostic
    def broken(H):
        return AxiomReport(m=H.m, antipode=False, failures=["antipode: forced"])

    monkeypatch.setattr(cli, "hopf_verify_axioms", broken)
    code, out, err = run(capsys, "hopf-check", "--m", "3")
    assert code == 2
    assert json.loads(out)["ok"] is False
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "axiom-failure"


def test_qbinom_vanishing(capsys):
    code, out, _ = run(capsys, "qbinom", "4", "2", "4", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"]["coeffs"] == ["0", "0"]
    code, out, _ = run(capsys, "qbinom", "2", "1", "2", "0")
    assert json.loads(out)["value"]["coeffs"][0] == "2"


def test_qbinom_long_row(capsys):
    # [5000] at zeta_3 = 1 + zeta, since 5000 = 2 mod 3
    code, out, _ = run(capsys, "qbinom", "5000", "1", "3", "1")
    assert code == 0
    assert json.loads(out)["value"]["coeffs"] == ["1", "1"]


def test_qbinom_rejects_out_of_range(capsys):
    code, out, err = run(capsys, "qbinom", "2", "5", "2", "1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "invalid-input"


def test_construct_verify_simple_pipeline(capsys, tmp_path):
    spec_path = write_doc(tmp_path, "spec.json",
                          ss_spec_to_json(ss_specs()["sweedler_p_gamma3"]))
    built = str(tmp_path / "mod.json")
    code, out, _ = run(capsys, "construct", "ss", "--in", spec_path,
                       "--out", built)
    assert code == 0

    code, out, _ = run(capsys, "verify", "--in", built)
    assert code == 0
    assert json.loads(out)["ok"] is True

    code, out, _ = run(capsys, "simple", "--in", built)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "certified_simple"
    assert doc["operator_algebra_dim"] == 16


def test_verify_failure_exits_two(capsys, tmp_path):
    doc = hma_to_json(sweedler_two_dim())
    doc["c"][0][0] = {"m": 2, "coeffs": ["5", "0"]}  # no longer order m
    path = write_doc(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, "verify", "--in", path)
    assert code == 2
    assert json.loads(out)["ok"] is False
    assert json.loads(err)["error"] == "verification-failure"


def test_simple_reports_witness_for_sums(capsys, tmp_path):
    from taftlab.algebra_core import direct_sum, field_algebra

    mod = trivial_action(direct_sum(field_algebra(2), field_algebra(2)))
    path = write_doc(tmp_path, "sum.json", hma_to_json(mod))
    code, out, _ = run(capsys, "simple", "--in", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "not_simple"
    assert doc["witness_dim"] == 1
    # tier 1's short span, certified exact, is named too
    assert doc["method"] == "operator span, certified(p=1048583)"


def test_iso_ss_verdicts(capsys, tmp_path):
    a = write_doc(tmp_path, "a.json", ss_spec_to_json(ss_specs()["pair_alpha_1"]))
    b = write_doc(tmp_path, "b.json",
                  ss_spec_to_json(ss_specs()["pair_alpha_neg1"]))
    c = write_doc(tmp_path, "c.json", ss_spec_to_json(ss_specs()["pair_alpha_2"]))

    code, out, _ = run(capsys, "iso-ss", "--a", a, "--b", b)
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is True and doc["r"] == 1

    code, out, _ = run(capsys, "iso-ss", "--a", a, "--b", c)
    assert code == 0
    assert json.loads(out)["isomorphic"] is False


def test_iso_generic_self(capsys, tmp_path):
    path = write_doc(tmp_path, "m.json", hma_to_json(sweedler_two_dim()))
    code, out, _ = run(capsys, "iso", "--a", path, "--b", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "isomorphic"

    other = write_doc(tmp_path, "other.json", hma_to_json(
        trivial_action(sweedler_two_dim().algebra)))
    code, out, _ = run(capsys, "iso", "--a", path, "--b", other)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "no_witness_found"
    assert doc["budget"] == 64


def test_iso_rejects_a_negative_budget(capsys, tmp_path):
    path = write_doc(tmp_path, "m.json", hma_to_json(sweedler_two_dim()))
    code, out, err = run(capsys, "iso", "--a", path, "--b", path,
                         "--budget", "-3")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "invalid-input",
                               "message": "budget must be >= 0, got -3"}


def _jet3():
    """F[t]/(t^3) over Q(zeta_2)."""
    from taftlab.algebra_core import FinDimAlgebra
    from taftlab.cyclotomic import CycNum

    zero, one = CycNum.zero(2), CycNum.one(2)
    e = lambda i: tuple(one if j == i else zero for j in range(3))
    z3 = (zero,) * 3
    return FinDimAlgebra(2, (
        (e(0), e(1), e(2)),
        (e(1), e(2), z3),
        (e(2), z3, z3),
    ))


def test_radical_of_jets(capsys, tmp_path):
    from taftlab.serialize import algebra_to_json

    path = write_doc(tmp_path, "jets.json", algebra_to_json(_jet3()))
    code, out, _ = run(capsys, "radical", "--in", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert len(doc["basis"]) == 2


def test_grading_command(capsys, tmp_path):
    from taftlab.algebra_core import matrix_algebra
    from taftlab.fixtures import elementary_c_matrix
    from taftlab.serialize import algebra_to_json, matrix_doc_to_json

    a = matrix_algebra(2, 2)
    apath = write_doc(tmp_path, "alg.json", algebra_to_json(a))
    cpath = write_doc(tmp_path, "c.json",
                      matrix_doc_to_json(elementary_c_matrix(2, (0, 1))))
    code, out, _ = run(capsys, "grading", "--in", apath, "--c", cpath)
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [2, 2]

    code, _, err = run(capsys, "grading", "--in", apath, "--c", cpath,
                       "--m", "3")
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"


def test_grading_names_a_c_matrix_over_another_conductor(capsys, tmp_path):
    from taftlab.algebra_core import matrix_algebra
    from taftlab.serialize import algebra_to_json, matrix_doc_to_json

    apath = write_doc(tmp_path, "alg.json", algebra_to_json(matrix_algebra(2, 2)))
    cpath = write_doc(tmp_path, "c.json", matrix_doc_to_json(Matrix.identity(3, 4)))
    code, out, err = run(capsys, "grading", "--in", apath, "--c", cpath)
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "invalid-input",
        "message": "conductor mismatch: c operator over Q(zeta_3), "
                   "algebra over Q(zeta_2)"}


def test_recover_round_trip_via_cli(capsys, tmp_path):
    from taftlab.constructions import build_nilpotent_extension
    from taftlab.fixtures import nilext_specs

    ext = build_nilpotent_extension(nilext_specs()["base_field_m2"])
    path = write_doc(tmp_path, "ext.json", hma_to_json(ext.module))
    base_out = str(tmp_path / "base.json")
    code, out, _ = run(capsys, "recover", "--in", path,
                       "--out-base", base_out)
    assert code == 0
    doc = json.loads(out)
    assert doc["nil_index"] == 2
    assert doc["base_dim"] == 1

    rebuilt = str(tmp_path / "rebuilt.json")
    code, out, _ = run(capsys, "construct", "nilext", "--in", base_out,
                       "--m", "2", "--out", rebuilt)
    assert code == 0
    reread = json.loads(open(rebuilt).read())
    original = json.loads(open(path).read())
    assert reread["algebra"]["mult"] == original["algebra"]["mult"]


def test_recover_rejects_semisimple(capsys, tmp_path):
    from taftlab.constructions import build_semisimple

    mod = build_semisimple(ss_specs()["mat2_trivial"])
    path = write_doc(tmp_path, "ss.json", hma_to_json(mod))
    code, out, err = run(capsys, "recover", "--in", path)
    assert code == 2
    assert "semisimple" in json.loads(err)["message"]


def test_codim_single_degree(capsys, tmp_path):
    path = write_doc(tmp_path, "m.json", hma_to_json(sweedler_two_dim()))
    code, out, _ = run(capsys, "codim", "--in", path, "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 1 and doc["c"] == 3
    assert doc["rows"] == 4 and doc["cols"] == 4
    assert doc["bound_ok"] is True


def test_codim_report_csv(capsys, tmp_path):
    path = write_doc(tmp_path, "m.json", hma_to_json(sweedler_two_dim()))
    code, out, _ = run(capsys, "codim", "--in", path, "--n", "3",
                       "--report", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["1", "2", "3"]
    assert [r["c_n"] for r in rows] == ["3", "7", "15"]
    assert all(r["bound_ok"] == "True" for r in rows)


@pytest.mark.parametrize("report", ["json", "csv"])
def test_codim_report_rejects_a_negative_degree(capsys, tmp_path, report):
    # as the single-degree form does; --n 0 asks for no rows
    path = write_doc(tmp_path, "m.json", hma_to_json(sweedler_two_dim()))
    code, out, err = run(capsys, "codim", "--in", path, "--n", "-2",
                         "--report", report)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "invalid-input"
    assert "degree" in json.loads(err)["message"]
    code, out, _ = run(capsys, "codim", "--in", path, "--n", "0",
                       "--report", "json")
    assert code == 0 and json.loads(out)["rows"] == []


@pytest.mark.parametrize("report", [None, "json", "csv"])
def test_codim_rejects_a_negative_budget(capsys, tmp_path, report):
    # as iso --budget does: rejected input, not a budget refusal
    path = write_doc(tmp_path, "m.json", hma_to_json(sweedler_two_dim()))
    argv = ("codim", "--in", path, "--n", "2", "--budget", "-5")
    code, out, err = run(capsys, *argv, *(("--report", report) if report
                                          else ()))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "invalid-input",
                               "message": "budget must be >= 0, got -5"}


def test_codim_budget_exit(capsys, tmp_path):
    path = write_doc(tmp_path, "m.json", hma_to_json(sweedler_two_dim()))
    code, out, err = run(capsys, "codim", "--in", path, "--n", "4",
                         "--budget", "100")
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "budget-exceeded"
    assert "budget" in diag["message"]


def test_schema_violation_exit(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "taftlab/1", "m": 2}\n')
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"


def test_missing_file_exit(capsys):
    code, _, err = run(capsys, "verify", "--in", "/nonexistent/x.json")
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"


def test_fixtures_command(capsys, tmp_path):
    out_dir = tmp_path / "corpus"
    code, out, _ = run(capsys, "fixtures", "--out-dir", str(out_dir))
    assert code == 0
    listing = json.loads(out)
    assert listing["count"] == len(listing["files"])
    assert (out_dir / "sweedler2dim.json").exists()


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "qbinom", "3", "1", "3", "1",
                       "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["n"] == 3 and doc["k"] == 1


def test_one_parser_serves_many_calls(capsys, monkeypatch, tmp_path):
    # main() builds only the named command's parser; a sequence of calls, a
    # usage error among them, must behave exactly as with the full parser
    mod = write_doc(tmp_path, "m.json", hma_to_json(sweedler_two_dim()))
    other = write_doc(tmp_path, "other.json", hma_to_json(
        trivial_action(sweedler_two_dim().algebra)))
    calls = [
        ("iso", "--a", mod, "--b", other, "--budget", "3"),
        ("qbinom", "4", "2", "4", "1"),
        ("verify",),  # usage error: --in is required
        ("iso", "--a", mod, "--b", other),  # the default budget again
        ("codim", "--in", mod, "--n", "2", "--backend", "exact"),
        ("codim", "--in", mod, "--n", "2"),
        ("hopf-check", "--m", "2"),
        ("construct", "nilext"),  # usage error in a nested subcommand
        ("verify", "--in", mod),
    ]

    def outcomes():
        seen = []
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            out = re.sub(r'"wall_ms": [0-9.e-]+', '"wall_ms": 0', captured.out)
            seen.append((code, out, captured.err))
        return seen

    monkeypatch.setenv("COLUMNS", "80")
    narrow = outcomes()
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: full_parser())
    assert narrow == outcomes()
    assert [code for code, _, _ in narrow] == [0, 0, 2, 0, 0, 0, 0, 2, 0]
    assert "required: --in" in narrow[2][2]
    assert json.loads(narrow[0][1])["budget"] == 3
    assert json.loads(narrow[3][1])["budget"] == 64
    assert json.loads(narrow[4][1])["method"] == "exact-echelon"
    assert json.loads(narrow[5][1])["method"].startswith("modp-pinned")


# ------------------------------------------- one command's parser vs the full

# each command (construct by its subcommands) with arguments that parse
VALID = {
    ("hopf-check",): ["--m", "3"],
    ("qbinom",): ["3", "1", "3", "1"],
    ("construct", "ss"): ["--in", "x"],
    ("construct", "nilext"): ["--in", "x", "--m", "3"],
    ("verify",): ["--in", "x"],
    ("simple",): ["--in", "x"],
    ("iso-ss",): ["--a", "x", "--b", "y"],
    ("iso",): ["--a", "x", "--b", "y", "--budget", "5"],
    ("radical",): ["--in", "x"],
    ("grading",): ["--in", "x", "--c", "y", "--m", "3"],
    ("recover",): ["--in", "x", "--out-base", "y"],
    ("codim",): ["--in", "x", "--n", "2", "--backend", "exact"],
    ("fixtures",): ["--out-dir", "x"],
}

ARGV_CORPUS = [
    [], ["-h"], ["--help"], ["-h", "verify"], ["verify", "-h", "--in"],
    ["frobnicate"], ["Verify"], ["ver"], ["iso-s"], ["--out", "x", "verify"],
    ["--", "verify"], ["construct"], ["construct", "-h"],
    ["construct", "bogus"], ["construct", "SS", "--in", "x"],
    ["construct", "ss", "nilext"],
    # bad types and choices
    ["hopf-check", "--m", "x"], ["qbinom", "3", "x", "3", "1"],
    ["codim", "--in", "x", "--n", "x"],
    ["iso", "--a", "x", "--b", "y", "--budget", "x"],
    ["grading", "--in", "x", "--c", "y", "--m", "2.5"],
    ["construct", "nilext", "--in", "x", "--m", "x"],
    ["codim", "--in", "x", "--n", "2", "--backend", "fast"],
    ["codim", "--in", "x", "--n", "2", "--report", "xml"],
    # abbreviated options: unique prefixes parse, ambiguous ones are errors
    ["verify", "--i", "x"], ["fixtures", "--out-d", "x"],
    ["recover", "--in", "x", "--out-b", "y"],
    ["codim", "--i", "x", "--n", "2", "--b", "5"],
    ["construct", "nilext", "--i", "x", "--o", "y"],
]
for words, valid in VALID.items():
    words = list(words)
    ARGV_CORPUS += [
        words + ["-h"],
        words,  # a required option or positional is missing
        words + valid,
        words + valid + ["extra"],
        words + valid + ["--out"],  # an option without its value
        words + valid + ["--nope", "1"],
    ]


@contextmanager
def parse_only():
    """main() and full_parse() return the parsed namespace as a dict instead
    of running the command; help is formatted for 80 columns."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        for name in list(vars(cli)):
            if name.startswith("cmd_"):
                mp.setattr(cli, name, vars)
        yield


def full_parse(argv):
    return vars(cli.build_parser().parse_args(argv))


def outcome(call, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = call(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def assert_parses_as_full(argv):
    with parse_only():
        assert outcome(main, argv) == outcome(full_parse, argv)


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=" ".join)
def test_main_parses_as_the_full_parser(argv):
    assert_parses_as_full(argv)


def test_argv_corpus_reaches_every_outcome():
    with parse_only():
        results = [outcome(main, argv) for argv in ARGV_CORPUS]
    codes = {r if isinstance(r, int) else "parsed" for r, _, _ in results}
    assert codes == {0, 2, "parsed"}
    errors = "".join(err for _, _, err in results)
    for message in ("invalid choice", "required", "invalid int value",
                    "unrecognized arguments", "ambiguous option",
                    "expected one argument"):
        assert message in errors
    # the full parser names the command argument by its dest
    assert "error: the following arguments are required: command\n" in errors
    assert "error: argument command: invalid choice: 'frobnicate'" in errors
    # a one-command parser's usage line still lists every command
    every = "{%s}" % ",".join(cli._COMMANDS)
    assert all(err.startswith("usage: taft [-h]") and every in err
               for _, _, err in results if "unrecognized arguments" in err)


TOKENS = (list(cli._COMMANDS) + [
    "ss", "nilext", "-h", "--help", "--", "--in", "--i", "--out", "--o",
    "--out-dir", "--out-base", "--m", "--n", "--a", "--b", "--c", "--budget",
    "--backend", "--report", "exact", "fast", "csv", "x", "3", "-1", "2.5"])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=6))
def test_random_argv_parses_as_the_full_parser(argv):
    assert_parses_as_full(argv)


def count_parsers(monkeypatch):
    counted = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        counted.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return counted


def test_a_call_builds_only_its_commands_parser(capsys, monkeypatch,
                                                tmp_path):
    counted = count_parsers(monkeypatch)
    cli.build_parser()
    assert len(counted) == 15

    spec = write_doc(tmp_path, "spec.json",
                     ss_spec_to_json(ss_specs()["mat2_trivial"]))
    mod = str(tmp_path / "mod.json")
    del counted[:]
    assert main(["construct", "ss", "--in", spec, "--out", mod]) == 0
    assert len(counted) <= 4  # taft, construct, ss and nilext
    del counted[:]
    assert main(["verify", "--in", mod]) == 0
    assert len(counted) <= 2  # taft and verify
    capsys.readouterr()


NESTED_ARGV = [
    ["construct", "ss", "-h"], ["construct", "nilext", "--help"],
    ["construct", "ss"], ["construct", "nilext", "--m", "3"],
    ["construct", "ss", "--in", "x"], ["construct", "ss", "--in", "x", "y"],
    ["construct", "nilext", "--in", "x", "--m", "2.5"],
    ["construct", "nilext", "--i", "x", "--o", "y", "--m", "3"],
    ["construct", "ss", "--in", "x", "--out"],
    ["construct", "ss", "nilext", "--in", "x"],
    ["construct", "nilext", "ss"], ["construct", "ss", "--nope", "1"],
    # not exactly a subcommand: the whole construct parser reads these
    ["construct", "-h"], ["construct"], ["construct", "s"],
    ["construct", "--in", "x", "ss"], ["construct", "SS", "--in", "x"],
]


@pytest.mark.parametrize("argv", NESTED_ARGV, ids=" ".join)
def test_nested_construct_parses_as_the_full_parser(argv):
    assert_parses_as_full(argv)


def test_construct_builds_only_the_named_subcommand(monkeypatch):
    counted = count_parsers(monkeypatch)
    for what in ("ss", "nilext"):
        del counted[:]
        parser = cli.build_parser(cli._command_words(["construct", what]))
        assert counted == ["taft", "taft construct", "taft construct " + what]
        # the narrowed construct parser keeps the full subcommand metavar
        usage = parser._subparsers._group_actions[0].choices[
            "construct"].format_usage()
        assert "{ss,nilext}" in usage
    del counted[:]
    cli.build_parser(cli._command_words(["construct", "-h"]))
    assert len(counted) == 4


# ------------------------------------------------------ unwritable outputs

def assert_cannot_write(result, path):
    code, out, err = result
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "invalid-input"
    assert diag["message"].startswith("cannot write %s: " % path)


def test_unwritable_out_is_rejected_input(capsys, tmp_path):
    target = str(tmp_path / "no" / "x.json")
    assert_cannot_write(run(capsys, "qbinom", "3", "1", "3", "1",
                            "--out", target), target)
    mod = write_doc(tmp_path, "m.json", hma_to_json(sweedler_two_dim()))
    target = str(tmp_path / "no" / "y.csv")
    assert_cannot_write(run(capsys, "codim", "--in", mod, "--n", "2",
                            "--report", "csv", "--out", target), target)


def test_unwritable_out_base_is_rejected_input(capsys, tmp_path):
    from taftlab.constructions import build_nilpotent_extension
    from taftlab.fixtures import nilext_specs

    ext = build_nilpotent_extension(nilext_specs()["base_field_m2"])
    path = write_doc(tmp_path, "ext.json", hma_to_json(ext.module))
    target = str(tmp_path / "no" / "base.json")
    code, out, err = run(capsys, "recover", "--in", path, "--out",
                         str(tmp_path / "rec.json"), "--out-base", target)
    assert_cannot_write((code, out, err), target)


def test_unwritable_out_dir_is_rejected_input(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for target in (str(blocker), str(blocker / "corpus")):
        assert_cannot_write(run(capsys, "fixtures", "--out-dir", target),
                            target)
