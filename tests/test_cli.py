"""Command line: subcommands, exit codes, output formats."""

import errno
import json
import os
import subprocess
import sys
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import nullcore.analysis
import nullcore.graphs
import nullcore.perturb
import nullcore.verify
from nullcore import cli
from nullcore.cli import main
from nullcore.graphs import (
    Graph,
    gen_cycle,
    gen_path,
    gen_random_bipartite,
    gen_random_graph,
    gen_random_tree,
    gen_random_unicyclic,
    gen_star,
    parse_edge_list,
    serialize_edge_list,
)
from nullcore.perturb import EdgeCandidate
from nullcore.verify import SuiteResult, VerifySuiteConfig


@pytest.fixture()
def p7_file(tmp_path):
    path = tmp_path / "p7.g"
    path.write_text("7 6\n" + "".join(
        "%d %d\n" % (i, i + 1) for i in range(6)))
    return str(path)


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.g"
    path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    return str(path)


@pytest.fixture()
def slim6_file(tmp_path):
    # dropping its remote vertices raises the nullity (test_analysis pins
    # the same graph), so reduce --slim breaks a guarantee
    path = tmp_path / "slim6.g"
    path.write_text(serialize_edge_list(Graph(
        6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 5), (2, 4), (3, 4)])))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_script(cwd, argv, code=None, **kwargs):
    """Run `python -m nullcore.cli ARGV`, or `python -c CODE` with ARGV as
    sys.argv[1:], in a child with buffered stdout and stderr."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = SRC
    head = ["-m", "nullcore.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *argv], cwd=cwd, env=env,
                          **kwargs)


def test_analyze_json(capsys, p7_file):
    code, out, _ = run_cli(capsys, "analyze", p7_file)
    assert code == 0
    data = json.loads(out)
    assert data["nullity"] == 1
    assert data["cv"] == [0, 2, 4, 6]
    assert data["kernel_basis"] == [[1, 0, -1, 0, 1, 0, -1]]
    assert all(c["holds"] for c in data["checks"])


def test_analyze_dot(capsys, p7_file):
    code, out, _ = run_cli(capsys, "analyze", p7_file, "--dot")
    assert code == 0
    assert out.startswith("graph G {")
    assert "0 [part=cv];" in out
    assert "1 [part=ncv];" in out


def test_analyze_dot_without_independent_core(capsys, tmp_path):
    # adjacent core vertices: the tags fall back to the raw classes
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 4),
                  (1, 5), (2, 4), (2, 5), (3, 4)])
    path = tmp_path / "g.g"
    path.write_text(serialize_edge_list(g))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--dot")
    assert code == 0
    tags = ["cfv_mid", "cv", "cv", "cfv_upp", "cv", "cv"]
    for v, tag in enumerate(tags):
        assert "  %d [part=%s];\n" % (v, tag) in out


def test_guarantee_violation_is_exit_4(capsys, slim6_file):
    code, out, err = run_cli(capsys, "reduce", slim6_file, "--slim")
    assert code == 4 and out == ""
    # the report's bytes: its keys in this order, the edges as lists
    assert err == (
        "guarantee violated: remote-vertex removal changed the nullity or "
        "a survivor's class\n"
        '{"edges": [[0, 1], [0, 2], [0, 3], [0, 5], [1, 5], [2, 4], '
        '[3, 4]], "n": 6, "nullity_before": 1, "nullity_after": 2, '
        '"class_changes": [[0, "cfv_mid", "cv"], [4, "cfv_mid", "cv"]]}\n')
    report = json.loads(err.splitlines()[-1])
    replay = Graph(report["n"], [tuple(e) for e in report["edges"]])
    with open(slim6_file) as f:
        assert replay == parse_edge_list(f.read())


def test_analyze_is_deterministic(capsys, p7_file):
    _, first, _ = run_cli(capsys, "analyze", p7_file)
    _, second, _ = run_cli(capsys, "analyze", p7_file)
    assert first == second


def test_analyze_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.g"
    bad.write_text("not a header\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("edge", ["0 +1", "1_0 0", "1 ２"])
def test_analyze_loose_integer_exit_2(capsys, tmp_path, edge):
    bad = tmp_path / "loose.g"
    bad.write_text("12 1\n" + edge + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert (code, out) == (2, "")
    assert "line 2: expected 'u w'" in err


def test_analyze_oversized_header_exit_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(nullcore.graphs, "MAX_VERTICES", 3)
    big = tmp_path / "big.g"
    big.write_text("4 0\n")
    code, out, err = run_cli(capsys, "analyze", str(big))
    assert (code, out) == (2, "")
    assert "exceeds the limit 3" in err


def test_analyze_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.g"))
    assert code == 2


def test_analyze_non_utf8_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.g"
    bad.write_bytes(b"\xff\xfe 1\n")
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("input error: 'utf-8' codec can't decode byte 0xff")


def test_spaced_unknown_option_is_a_path(capsys, tmp_path, monkeypatch):
    # as in argparse, "--bogus=a b" names no option, so it is the path
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "analyze", "--bogus=a b")
    assert (code, out) == (2, "")
    assert "--bogus=a b" in err


def test_reduce_pendant(capsys, p7_file):
    code, out, _ = run_cli(capsys, "reduce", p7_file, "--pendant")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "steps": [[0, 1], [2, 3], [4, 5]], "isolated": [6], "t": 3}


def test_reduce_pendant_rejects_cycles(capsys, c4_file):
    code, _, err = run_cli(capsys, "reduce", c4_file, "--pendant")
    assert code == 3


def test_reduce_slim(capsys, tmp_path):
    t9 = tmp_path / "t9.g"
    t9.write_text("9 8\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n1 7\n7 8\n")
    code, out, _ = run_cli(capsys, "reduce", str(t9), "--slim")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 7
    assert data["vertex_map"] == [0, 1, 2, 3, 4, 5, 6]
    reduced = Graph(data["n"], [tuple(e) for e in data["edges"]])
    assert reduced.m == 6


def test_reduce_slim_dependent_cores_exit_3(capsys, c4_file):
    code, _, err = run_cli(capsys, "reduce", c4_file, "--slim")
    assert code == 3
    assert "adjacent" in err


def test_perturb_list(capsys, p7_file):
    code, out, _ = run_cli(
        capsys, "perturb", p7_file, "--preserve", "nullspace", "--list")
    assert code == 0
    data = json.loads(out)
    assert data["preserve"] == "nullspace"
    assert data["safe"] == [[1, 3], [1, 5], [3, 5]]
    assert data["types"] == ["NCV-NCV"] * 3


def test_perturb_densify(capsys, p7_file):
    code, out, _ = run_cli(
        capsys, "perturb", p7_file, "--preserve", "cv", "--densify")
    assert code == 0
    data = json.loads(out)
    assert data["added"] == [[0, 5], [1, 3], [1, 5], [2, 5], [3, 5]]
    assert len(data["edges"]) == 11


def test_perturb_dependent_cores_exit_3(capsys, c4_file):
    code, _, err = run_cli(
        capsys, "perturb", c4_file, "--preserve", "nullity", "--list")
    assert code == 3


def test_mc_report(capsys, p7_file):
    code, out, _ = run_cli(capsys, "mc", p7_file)
    assert code == 0
    assert json.loads(out) == {
        "is_mc": True, "nullity": 1, "periphery": [1, 3, 5],
        "eta_core": 4, "failures": []}


def test_gen_cycle_exact_bytes(capsys):
    code, out, _ = run_cli(capsys, "gen", "cycle", "4")
    assert code == 0
    assert out == "4 4\n0 1\n0 3\n1 2\n2 3\n"


def test_gen_seeded_kinds_parse_back(capsys):
    for kind in ("tree", "bipartite", "unicyclic", "graph"):
        code, out, _ = run_cli(capsys, "gen", kind, "8", "11")
        assert code == 0
        g = parse_edge_list(out)
        assert g.n == 8


def test_gen_bad_size_exit_1(capsys):
    code, _, err = run_cli(capsys, "gen", "cycle", "2")
    assert code == 1



def test_gen_over_cap_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(nullcore.graphs, "MAX_VERTICES", 5)
    code, out, _ = run_cli(capsys, "gen", "path", "5")
    assert code == 0 and parse_edge_list(out).n == 5
    for kind in ("path", "cycle", "star", "tree", "bipartite", "unicyclic",
                 "graph"):
        code, out, err = run_cli(capsys, "gen", kind, "6")
        assert code == 1
        assert out == ""
        assert "exceeds the limit 5" in err


def test_gen_dense_kinds_have_their_own_cap_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(nullcore.graphs, "MAX_RANDOM_GRAPH_VERTICES", 5)
    monkeypatch.setattr(nullcore.graphs, "MAX_RANDOM_BIPARTITE_VERTICES", 4)
    for kind, limit in (("graph", 5), ("bipartite", 4)):
        code, out, err = run_cli(capsys, "gen", kind, str(limit + 1))
        assert code == 1
        assert out == ""
        assert "exceeds the limit %d" % limit in err
        code, out, _ = run_cli(capsys, "gen", kind, str(limit))
        assert code == 0 and parse_edge_list(out).n == limit


def test_gen_kinds_map_onto_the_generators(capsys):
    expected = {
        "cycle": gen_cycle(8),
        "path": gen_path(8),
        "star": gen_star(8),
        "bipartite": gen_random_bipartite(8, 11),
        "graph": gen_random_graph(8, 1, 2, 11),
        "tree": gen_random_tree(8, 11),
        "unicyclic": gen_random_unicyclic(8, 11),
    }
    assert sorted(cli._GEN_KINDS) == sorted(expected)
    for kind, g in expected.items():
        code, out, _ = run_cli(capsys, "gen", kind, "8", "11")
        assert code == 0
        assert out == serialize_edge_list(g), kind


def test_suite_choices_match_verify():
    # the parser lists the suites without importing nullcore.verify
    assert cli._SUITES == nullcore.verify.SUITES


def test_preserve_choices_match_perturb():
    # every --preserve choice names a property that perturb compares
    assert sorted(cli._PRESERVE_ALIASES.values()) == sorted(
        nullcore.perturb._PRESERVED)


def test_usage_error_is_exit_1():
    # _parse reports a usage error by raising SystemExit(1)
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "bogus"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["analyze"])  # missing path
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "invalid choice: 'bogus'"),
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["analyze", "p7.g", "--bogus"], "unrecognized arguments: --bogus"),
    (["analyze", "p7.g", "-x"], "unrecognized arguments: -x"),
    (["verify", "--s", "trees"], "ambiguous option: --s could match"),
    (["verify", "--trials"], "--trials: expected one argument"),
    (["perturb", "p7.g", "--preserve", "--list"],
     "--preserve: expected one argument"),
    (["perturb", "p7.g", "--preserve", "all", "--list"],
     "--preserve: invalid choice: 'all'"),
    (["gen", "hypercube", "4"], "kind: invalid choice: 'hypercube'"),
    (["verify", "--max-n", "ten"], "--max-n: invalid int value: 'ten'"),
    (["verify", "--seed=1.5"], "--seed: invalid int value: '1.5'"),
    (["gen", "cycle", "four"], "n: invalid int value: 'four'"),
    (["analyze", "p7.g", "--dot=yes"], "--dot: ignored explicit argument"),
    (["reduce", "p7.g", "--slim", "--pendant"],
     "--pendant: not allowed with argument --slim"),
    (["reduce", "p7.g"], "one of the arguments --slim --pendant is required"),
    (["perturb", "p7.g", "--preserve", "cv", "--list", "--densify"],
     "--densify: not allowed with argument --list"),
    (["perturb", "p7.g", "--preserve", "cv"],
     "one of the arguments --list --densify is required"),
    (["perturb", "p7.g", "--list"], "required: --preserve"),
    (["gen", "cycle"], "required: n"),
    (["mc", "p7.g", "extra"], "unrecognized arguments: extra"),
    (["gen", "cycle", "4", "0", "9"], "unrecognized arguments: 9"),
    # negative decimals and spaced tokens are values, as in argparse
    (["gen", "path", "-1.5"], "n: invalid int value: '-1.5'"),
    (["verify", "--seed", "-1.5"], "--seed: invalid int value: '-1.5'"),
    (["gen", "tree", "5", "-.5"], "seed: invalid int value: '-.5'"),
    (["verify", "--seed", "-x y"], "--seed: invalid int value: '-x y'"),
    # a spaced token is an option only when its flag is a known option
    (["verify", "--seed", "--bogus=a b"],
     "--seed: invalid int value: '--bogus=a b'"),
    (["analyze", "p7.g", "--do=a b"], "--dot: ignored explicit argument 'a b'"),
    # -h takes an argument straight after it, and any ambiguous
    # abbreviation is the error, even in the place of a value
    (["analyze", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
    (["analyze", "p7.g", "--help=x"],
     "argument -h/--help: ignored explicit argument 'x'"),
    (["verify", "--seed", "--s=a b"],
     "ambiguous option: --s=a b could match --suite, --seed"),
    # unknown options are reported with the surplus values, in argv
    # order, after every other check
    (["verify", "--bogus", "--trials", "x"],
     "argument --trials: invalid int value: 'x'"),
    (["analyze", "--bogus"], "the following arguments are required: path"),
    (["mc", "p7.g", "x", "--bogus"], "unrecognized arguments: x --bogus"),
    (["mc", "p7.g", "--bogus", "x"], "unrecognized arguments: --bogus x"),
    (["analyze", "p7.g", "--bogus", "--dot=1"],
     "argument --dot: ignored explicit argument '1'"),
    # "--=x" abbreviates every long option
    (["verify", "--=x"], "ambiguous option: --=x could match --help, "
     "--suite, --max-n, --trials, --seed"),
    # each positional is converted at its turn, a conflict is reported
    # at once, and a "--" that no positional takes is unrecognized
    (["gen", "x", "-h="], "argument kind: invalid choice: 'x'"),
    (["reduce", "--slim", "--pendant"],
     "argument --pendant: not allowed with argument --slim"),
    (["verify", "3", "--"], "unrecognized arguments: 3 --"),
])
def test_usage_errors_name_the_problem(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: nullcore ")
    assert error.startswith("nullcore: error: ")
    assert message in error


def _runs(arguments):
    """(plain, other): runs of tokens for the given arguments.  Plain
    runs are each value an argument accepts, each positional's own name
    as a value, and each option alone and before each value; the other
    runs abbreviate an option or give it "=value"."""
    plain, other = [], []
    for name, kind, _, _ in arguments:
        values = {int: ("0", "3"), bool: (), str: ("p7.g",)}.get(kind, kind)
        if name[:1] != "-":
            plain += [(name,)] + [(value,) for value in values]
            continue
        plain += [(name,)] + [(name, value) for value in values]
        other += [(name[:4],)] + [(name + "=" + value,)
                                   for value in values or ("x",)]
    return plain, other


_RUNS = {command: _runs(entry[2]) for command, entry in cli._COMMANDS.items()}
# help, "--", negative numbers, a spaced token, abbreviations, "=value"
# and the arguments of every other command
_OTHER_RUNS = [("-h",), ("-hx",), ("--",), ("-3",), ("-1.5",), ("a b",),
               ("x",)] + sorted({run for pair in _RUNS.values()
                                 for runs in pair for run in runs})


@st.composite
def argument_lists(draw):
    """(command, tokens): plain runs of the command, and in about half
    the lists one other run among them."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    runs = draw(st.lists(st.sampled_from(_RUNS[command][0]), max_size=6))
    if draw(st.booleans()):
        runs.insert(draw(st.integers(0, len(runs))),
                    draw(st.sampled_from(_OTHER_RUNS)))
    return command, [token for run in runs for token in run]


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(argument_lists())
@example(("mc", ["path", "12"]))
@example(("gen", ["kind", "n"]))
@example(("gen", ["tree", "8"]))
@example(("gen", ["graph", "3", "0"]))
@example(("verify", ["--trials", "x", "--trials", "3"]))
@example(("perturb", ["--list", "p7.g", "--preserve", "cv", "--list"]))
def test_plain_lists_read_as_argparse_reads_them(argument_list):
    # the fast path accepts only what argparse reads to the same values
    command, tokens = argument_list
    _, _, arguments, pair = cli._COMMANDS[command]
    values = cli._plain(arguments, pair, tokens)
    if values is not None:
        def typed(parsed):
            return {name: (type(v), v) for name, v in parsed.items()}

        assert typed(cli._argparse(command, tokens)) == typed(values)


@pytest.mark.parametrize("argv, canonical", [
    (["analyze", "--dot", "P7"], ["analyze", "P7", "--dot"]),
    (["analyze", "P7", "--d"], ["analyze", "P7", "--dot"]),
    (["analyze", "--", "P7"], ["analyze", "P7"]),
    (["perturb", "--preserve=cv", "--list", "P7"],
     ["perturb", "P7", "--preserve", "cv", "--list"]),
    (["perturb", "--pres", "cv", "--dens", "P7"],
     ["perturb", "P7", "--preserve", "cv", "--densify"]),
    (["perturb", "P7", "--densify", "--preserve", "nullity", "--densify"],
     ["perturb", "P7", "--preserve", "nullity", "--densify"]),
    (["reduce", "--p", "P7"], ["reduce", "P7", "--pendant"]),
])
def test_accepted_argument_forms(capsys, p7_file, argv, canonical):
    # options before or after the path, --opt=value, unique prefixes and
    # "--" all give the output of the canonical spelling
    expected = run_cli(capsys, *[p7_file if a == "P7" else a
                                 for a in canonical])
    assert expected[0] == 0
    assert run_cli(capsys, *[p7_file if a == "P7" else a
                             for a in argv]) == expected


def test_accepted_int_forms(capsys, tmp_path, monkeypatch):
    code, out, _ = run_cli(capsys, "gen", "tree", "8", "-3")
    assert code == 0 and parse_edge_list(out) == gen_random_tree(8, -3)
    # a negative int is a value, so it reaches the generator
    code, out, err = run_cli(capsys, "gen", "path", "-3")
    assert (code, out) == (1, "")
    assert err.startswith("invalid request:")
    monkeypatch.chdir(tmp_path)
    short = run_cli(capsys, "verify", "--su=trees", "--tr", "3", "--m", "6",
                    "--se=-5")
    full = run_cli(capsys, "verify", "--suite", "trees", "--trials", "3",
                   "--max-n", "6", "--seed", "-5")
    assert short == full and full[0] == 0


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he"],
    ["analyze", "-h"], ["reduce", "--help"], ["perturb", "p7.g", "--h"],
    ["analyze", "-hh"],
    ["mc", "-h"], ["gen", "cycle", "-h"], ["verify", "--help"],
])
def test_help_exits_0_with_usage_on_stdout(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    command = argv[0] if argv[0] in cli._COMMANDS else None
    assert captured.out.startswith(
        "usage: nullcore %s" % (command + " [-h]" if command else "[-h]"))
    if command is None:
        for name in cli._COMMANDS:
            assert "\n  %s " % name in captured.out
    else:
        # the help lists every argument of the command table
        for name, *_ in cli._COMMANDS[command][2]:
            assert name in captured.out


def test_verify_small_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "trees", "--max-n", "7",
        "--trials", "10", "--seed", "3")
    assert code == 0
    assert "result: pass" in out
    assert "trees/nullity_three_way: 10 pass, 0 fail" in out


def test_verify_dumps_counterexamples(capsys, tmp_path, monkeypatch):
    # fabricate a failing result to exercise the dump path; the verify
    # handler imports run_suite when it runs, so it is patched at its source
    import nullcore.verify as verify_mod

    fake = SuiteResult(
        VerifySuiteConfig("trees", 5, 1, 0),
        {"trees/fake_check": [0, 1]},
        (("trees/fake_check", Graph(3, [(0, 1), (1, 2)])),),
    )
    monkeypatch.setattr(verify_mod, "run_suite", lambda config: fake)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "trees", "--trials", "1")
    assert code == 4
    assert "result: FAIL" in out
    dumped = list(tmp_path.glob("counterexample-*.g"))
    assert len(dumped) == 1
    text = dumped[0].read_text()
    assert "failed check: trees/fake_check" in text
    assert parse_edge_list(text) == Graph(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize("mode", ["--list", "--densify"])
def test_perturb_classifies_input_once(capsys, monkeypatch, p7_file, mode):
    # the reduction made for the independence check is the one screened,
    # so perturb reduces the input once and otherwise only graphs with an
    # edge added
    calls = []
    real = nullcore.analysis._classified
    real_classify = nullcore.perturb.classify_vertices
    spy = lambda g: calls.append(g) or real(g)
    monkeypatch.setattr(nullcore.analysis, "_classified", spy)
    monkeypatch.setattr(nullcore.perturb, "_classified", spy)
    monkeypatch.setattr(
        nullcore.perturb, "classify_vertices",
        lambda g, basis=None: calls.append(g) or real_classify(g, basis))
    code, _, _ = run_cli(capsys, "perturb", p7_file, "--preserve", "cv", mode)
    assert code == 0
    assert [g.m for g in calls if g.m <= 6] == [6]


@pytest.mark.parametrize("argv", [
    ["analyze", "P7"],
    ["analyze", "P7", "--dot"],
    ["analyze", "missing.g"],
    ["reduce", "P7", "--pendant"],
    ["reduce", "C4", "--slim"],
    ["perturb", "P7", "--preserve", "cv", "--densify"],
    ["perturb", "C4", "--preserve", "nullity", "--list"],
    ["mc", "P7"],
    ["mc", "missing.g"],
    ["gen", "tree", "8", "11"],
    ["gen", "cycle", "2"],
    ["verify", "--suite", "trees", "--trials", "3", "--max-n", "6"],
    ["verify", "--suite", "bogus"],
    ["analyze"],
    ["gen", "-h"],
    ["reduce", "SLIM6", "--slim"],
])
def test_script_matches_main(capsys, tmp_path, monkeypatch, p7_file, c4_file,
                             slim6_file, argv):
    # the script's way out (os._exit after a flush) loses no output and
    # keeps every exit code: 0, 1 (usage), 2 (input), 3 (precondition),
    # 4 (guarantee violated)
    files = {"P7": p7_file, "C4": c4_file, "SLIM6": slim6_file}
    argv = [files.get(a, a) for a in argv]
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    child = run_script(tmp_path, argv, capture_output=True)
    assert (child.returncode, child.stdout, child.stderr) == (
        code, captured.out.encode(), captured.err.encode())


def test_script_flushes_large_output(tmp_path):
    # far more than one stdout buffer; the tail is still in the buffer
    # when main returns
    child = run_script(tmp_path, ["gen", "path", "20000"],
                       capture_output=True, check=True)
    expected = serialize_edge_list(gen_path(20000)).encode()
    assert len(expected) > 64 * 1024
    assert child.stdout == expected and child.stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
def test_script_reports_failed_flush_as_before(tmp_path):
    # the write fails only at the final flush; the normal shutdown then
    # reports it and exits 120, without a traceback
    with open("/dev/full", "wb") as full:
        child = run_script(tmp_path, ["gen", "path", "5"], stdout=full,
                           stderr=subprocess.PIPE, text=True)
    assert child.returncode == 120
    ignored, error = child.stderr.splitlines()
    assert ignored.startswith(
        "Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert error == "OSError: [Errno %d] %s" % (
        errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
def test_script_reports_failed_large_write_as_output_error(tmp_path):
    # far more than one stdout buffer, so the write fails inside the
    # command; that is not an input error, and it ends like the failed
    # final flush above: the OSError on stderr and exit 120
    with open("/dev/full", "wb") as full:
        child = run_script(tmp_path, ["gen", "path", "20000"], stdout=full,
                           stderr=subprocess.PIPE, text=True)
    assert child.returncode == 120
    assert "input error" not in child.stderr
    assert "Traceback" not in child.stderr
    assert child.stderr.splitlines()[-1] == "OSError: [Errno %d] %s" % (
        errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_script_runs_exit_handlers(tmp_path):
    # a handler registered before entry() runs, and what it writes is
    # flushed before the process ends
    code = ("import atexit, sys\n"
            "atexit.register(sys.stdout.write, 'handler ran\\n')\n"
            "from nullcore.cli import entry\n"
            "entry()")
    child = run_script(tmp_path, ["gen", "path", "3"], code=code,
                       capture_output=True, text=True)
    assert child.returncode == 0
    assert child.stdout == serialize_edge_list(gen_path(3)) + "handler ran\n"


# an int subclass whose repr is not its value; json writes the value
Level = IntEnum("Level", "LOW HIGH")
json_scalars = (
    st.none() | st.booleans() | st.sampled_from(list(Level))
    | st.integers(min_value=-(2 ** 1000), max_value=2 ** 1000)
    | st.text(alphabet=st.characters(codec="utf-8"))
    | st.text(alphabet='"\\\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600ab')
)


@st.composite
def records_of(draw, values):
    items = draw(st.lists(values, min_size=3, max_size=3))
    return EdgeCandidate(*items)


json_payloads = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | records_of(inner)
        | st.dictionaries(st.text(max_size=8), inner, max_size=5)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(json_payloads)
@example([[0, -7, 2**70], (3,)])
@example([1, True, 0, False])
def test_json_writer_matches_json_dumps(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("bad", [
    1.5, float("nan"), {1, 2}, frozenset(), object(), b"bytes", 1j,
    [0, [1.0]], {"a": {"b": {3}}}, {1: 0}, {None: 0}, {1.5: 0},
])
def test_json_writer_rejects_what_it_does_not_write(bad):
    with pytest.raises(TypeError):
        cli._json_text(bad)


def test_verify_max_n_over_the_cap_exit_1(capsys, tmp_path, monkeypatch):
    def never(config):
        raise AssertionError("run_suite called")

    monkeypatch.setattr(nullcore.verify, "run_suite", never)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--max-n", "65")
    assert code == 1
    assert out == ""
    assert err == "invalid request: max_n must be at most 64\n"
    assert list(tmp_path.iterdir()) == []
