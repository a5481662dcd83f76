import argparse
import ast
import inspect
import subprocess
import sys

import pytest

from steenmod import cli, scenarios, textio
from steenmod.cli import io_roundtrip, main
from steenmod.gmodule import Window, regular
from steenmod.milnor import Algebra


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_dims_degree_seven(capsys):
    code, out = run_cli(["dims", "--max", "7"], capsys)
    assert code == 0
    assert "degree 7: dim 4" in out


def test_dims_structured(capsys):
    code, out = run_cli(["dims", "--max", "5", "--format", "structured",
                         "--subalgebra", "1"], capsys)
    assert code == 0
    assert "schema steenmod.report/1" in out
    assert "dim.3 2" in out


def test_validate_roundtrip_file(tmp_path, capsys):
    m = regular(Algebra.subalgebra(1), Window(0, 6))
    path = tmp_path / "reg.stm"
    path.write_text(textio.print_module(m))
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 0
    assert "violations: 0" in out and "bit-exact" in out


def test_validate_truncated_file(tmp_path, capsys):
    m = regular(Algebra.subalgebra(1), Window(0, 6))
    text = textio.print_module(m)
    path = tmp_path / "broken.stm"
    path.write_text(text[: len(text) // 2])
    code = main(["validate", str(path)])
    assert code == 3


@pytest.mark.parametrize("prefix", ["# a note\n", "\n"],
                         ids=["comment", "blank"])
@pytest.mark.parametrize("kind", ["module", "comodule"])
def test_validate_detects_kind_past_comments_and_blanks(kind, prefix,
                                                        tmp_path, capsys):
    """The kind is read from the first line the parsers read, so a file
    may open with a comment or a blank line."""
    from steenmod.comodule import ExtendedSpec, extended
    if kind == "module":
        text = textio.print_module(regular(Algebra.subalgebra(1), Window(0, 6)))
    else:
        text = textio.print_comodule(extended(
            ExtendedSpec({0: 1}), Algebra.full(), Window(-4, 0)))
    path = tmp_path / "noted.stm"
    path.write_text(prefix + text)
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 0
    assert out == f"kind: {kind}\nviolations: 0\nroundtrip: bit-exact\n"


@pytest.mark.parametrize("header, dims, message", [
    ("module", "0=-3", "line 5: negative dimension -3 at degree 0"),
    ("comodule", "0=-3", "line 5: negative dimension -3 at degree 0"),
    ("comodule", "0=1 0=0 9=4", "line 5: dims repeat degree 0"),
    ("module", "0=1 9=4", "line 5: dims degree 9 outside window 0..0"),
], ids=["module-negative", "comodule-negative", "repeated-degree",
        "outside-window"])
def test_validate_rejects_bad_dims(header, dims, message, tmp_path, capsys):
    path = tmp_path / "bad.stm"
    path.write_text(f"steenmod {header} v1\nalgebra: full\nwindow: 0..0\n"
                    f"exact: none\ndims: {dims}\nend\n")
    assert main(["validate", str(path)]) == 3
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


def test_validate_skips_the_second_pass_on_a_canonical_file(tmp_path,
                                                            monkeypatch):
    """A file that reprints as itself is parsed once; one with a comment
    is parsed again from its reprint, and both reach the fixpoint."""
    calls = []
    parse = textio.parse_module

    def counted(text):
        calls.append(text)
        return parse(text)
    monkeypatch.setattr(textio, "parse_module", counted)
    text = textio.print_module(regular(Algebra.subalgebra(1), Window(0, 6)))
    path = tmp_path / "reg.stm"
    path.write_text(text)
    assert io_roundtrip(str(path)) == ("module", True, [])
    assert calls == [text]
    calls.clear()
    path.write_text("# a note\n" + text)
    assert io_roundtrip(str(path)) == ("module", True, [])
    assert calls == ["# a note\n" + text, text]


def test_perp_subcommand(capsys):
    code, out = run_cli(["perp", "--module", "regular", "--subalgebra", "1",
                         "--window", "0..6", "--ideal", "Sq(1)"], capsys)
    assert code == 0
    total = sum(int(line.split()[1]) for line in out.splitlines()[1:])
    assert total == 4


def test_chain_subcommand(capsys):
    code, out = run_cli(["chain", "--module", "dual-regular",
                         "--window=-12..0",
                         "--chain", "chain: [Sq(1)] ; [Sq(1),Sq(2)]"], capsys)
    assert code == 0
    assert "stages: 2" in out


def test_baer_subcommand(capsys):
    code, out = run_cli(["baer", "--module", "regular", "--subalgebra", "1",
                         "--window=-8..10", "--ideal", "Sq(1)",
                         "--shift", "0"], capsys)
    assert code == 0
    assert "status: extends_all" in out


def test_witness_subcommand(capsys):
    code, out = run_cli(["witness", "--module", "dual-regular",
                         "--window=-30..0",
                         "--chain",
                         "chain: [Sq(1)] ; [Sq(1),Sq(2)] ; [Sq(1),Sq(2),Sq(4)] ; [Sq(1),Sq(2),Sq(4),Sq(8)]"],
                        capsys)
    assert code == 0
    assert "extension-fails: True" in out
    assert "degree-function: [2, 4, 8, 16]" in out
    assert out.splitlines()[0] == (
        "chain: [Sq(1)] ; [Sq(1),Sq(2)] ; [Sq(1),Sq(2),Sq(4)] ; "
        "[Sq(1),Sq(2),Sq(4),Sq(8)]")


WITNESS_TWO_STAGES = ["witness", "--module", "dual-regular",
                      "--window=-30..0",
                      "--chain", "chain: [Sq(1)] ; [Sq(1),Sq(2)]"]


def test_witness_degree_function_in_stage_order(capsys):
    """--degree-function gives d(n) stage by stage: 2,4 puts x_0 at -2 and
    x_1 at -4; 4,2 asks stage 1 for a nonzero perp element at degree -2,
    where the perp of (Sq(1), Sq(2)) is zero."""
    code, out = run_cli(WITNESS_TWO_STAGES + ["--degree-function", "2,4"],
                        capsys)
    assert code == 0
    assert out.splitlines() == [
        "chain: [Sq(1)] ; [Sq(1),Sq(2)]",
        "degree-function: [2, 4]",
        "forced-stages: [0] of 2",
        "extension-fails: True",
        "note: every extension is nonzero in each destabilized stage "
        "component; no extension of bounded support exists as stages grow "
        "with the window",
        "choice 0: degree -2 coords 1",
        "choice 1: degree -4 coords 2",
        "destabilizer 0: Sq(2) moves the choice at degree -2 (nonzero image "
        "in degree 0)"]
    assert main(WITNESS_TWO_STAGES + ["--degree-function", "4,2"]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert ("stage 1: no nonzero perp element at degree -2"
            in captured.err)


def test_freeness_subcommand(capsys):
    code, out = run_cli(["freeness", "--module", "regular",
                         "--window", "0..20", "--over", "1"], capsys)
    assert code == 0
    assert "status: free" in out


def test_freeness_defaults_to_the_module_algebra(tmp_path, capsys):
    """Without --over, a module file over A(1) is tested over A(1)."""
    path = tmp_path / "a1.stm"
    path.write_text(textio.print_module(
        regular(Algebra.subalgebra(1), Window(0, 10))))
    code, out = run_cli(["freeness", "--module", str(path)], capsys)
    assert code == 0
    assert "status: free" in out


def test_iota_subcommand(tmp_path, capsys):
    out_path = tmp_path / "iota.stm"
    code, out = run_cli(["iota", "--v", "0:1,-2:1", "--window=-10..0",
                         "--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.exists()
    parsed = textio.parse_module(out_path.read_text())
    assert parsed.dims[0] == 1


def test_iota_over_a_subalgebra(tmp_path, capsys):
    out_path = tmp_path / "iota.stm"
    code, _ = run_cli(["iota", "--v", "0:1,-2:1", "--window=-10..0",
                       "--subalgebra", "1", "--out", str(out_path)], capsys)
    assert code == 0
    assert "algebra: subalgebra 1" in out_path.read_text().splitlines()
    code, out = run_cli(["validate", str(out_path)], capsys)
    assert code == 0
    assert "violations: 0" in out and "bit-exact" in out


def test_validate_checks_a_zero_middle_degree(tmp_path, capsys):
    """A comodule with dims 1 at -3 and 0 only and a nonzero Sq(3) row:
    every jump pair passes through a zero degree, and the split side
    still fails."""
    from steenmod.comodule import GradedComodule
    from steenmod.f2 import BitMatrix
    c = GradedComodule(Algebra.full(), Window(-3, 0), {-3: 1, 0: 1},
                       {(-3, 3): BitMatrix(2, 1, [1, 0])}, True, True)
    path = tmp_path / "gap.stm"
    path.write_text(textio.print_comodule(c))
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert "violations: 1" in out and "bit-exact" in out
    assert ("coassociativity fails at degree -3, jumps (1, 2), column 0"
            in out)


def test_scenario_unknown_name(capsys):
    code = main(["scenario", "does-not-exist"])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["scenario", "prop-3-1", "--window=3..1"],
    ["baer", "--shift", "x"],
    ["baer", "--seed", "1"],
    ["validate", "F", "--format", "structured"],
    ["witness", "--chain", "chain: [Sq(1)]", "--shift", "1"],
    ["dims", "--max", "-1"],
    ["scenario", "dims", "--max", "-1"],
], ids=["empty-window", "bad-int", "seed-not-accepted", "format-not-accepted",
        "shift-not-accepted", "negative-max", "negative-scenario-max"])
def test_usage_error_exits_3(argv, capsys):
    """A malformed option value is an error (3), not inconclusive (2)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err
    proc = subprocess.run([sys.executable, "-m", "steenmod.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 3


# the options each scenario reads, and a valid value for each option
SCENARIO_OPTIONS = {
    "dims": {"--max"},
    "prop-3-1": {"--window", "--stages"},
    "cor-2-6": {"--window", "--seed"},
    "faith-equiv-a1": set(),
    "iota-bounded-above": {"--window", "--n"},
    "iota-failure": {"--window", "--stages"},
}
OPTION_VALUES = {"--seed": "1", "--window": "-4..0", "--n": "1",
                 "--stages": "2", "--max": "4"}
UNREAD = [(name, option) for name, reads in SCENARIO_OPTIONS.items()
          for option in OPTION_VALUES if option not in reads]


@pytest.mark.parametrize("argv, message", [
    (["freeness", "--module", "regular", "--window", "0..4"],
     "pass --over N"),
    (["perp", "--module", "regular", "--window", "0..4",
      "--elements", "Sq(1)+Sq(2)"], "nonzero homogeneous"),
    (["baer", "--ideal", ";"], "empty generator list"),
    (["perp", "--ideal", ";"], "empty generator list"),
    (["perp", "--module", "dual-regular", "--window=-8..0",
      "--elements", "Sq(1)"], "--module regular only"),
    (["perp", "--module", "FILE", "--elements", "Sq(1)"],
     "--module regular only"),
    (["chain", "--module", "FILE", "--window", "0..4",
      "--chain", "chain: [Sq(1)]"], "carries its own window and algebra"),
    (["freeness", "--module", "FILE", "--subalgebra", "1"],
     "carries its own window and algebra"),
    (["iota", "--v", "0:1,0:2"], "--v repeats degree 0"),
    (["iota", "--v", "0"], "bad --v part '0' (expected DEG:DIM)"),
    (["iota", "--v", "0:1,"], "bad --v part '' (expected DEG:DIM)"),
    (["iota", "--v", "0:1:2"], "bad --v part '0:1:2' (expected DEG:DIM)"),
] + [(["scenario", name, f"{option}={OPTION_VALUES[option]}"],
      f"scenario {name} does not read {option}") for name, option in UNREAD],
    ids=["freeness-full", "perp-inhomogeneous", "baer-empty-ideal",
         "perp-empty-ideal", "perp-element-outside-module",
         "perp-elements-file", "file-window", "file-subalgebra",
         "iota-repeated-degree", "iota-no-dim", "iota-empty-part",
         "iota-three-fields"]
    + [f"scenario-{name}{option[1:]}" for name, option in UNREAD])
def test_invalid_request_exits_3(argv, message, tmp_path, capsys):
    """An invalid request is an error (3), not a counterexample (1): also
    a scenario option that the named scenario does not read.  FILE stands
    for a module file: the regular A(1) module suspended once."""
    path = tmp_path / "susp.stm"
    path.write_text(textio.print_module(
        regular(Algebra.subalgebra(1), Window(0, 6)).suspend(1)))
    argv = [str(path) if a == "FILE" else a for a in argv]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


def _attributes_read(name, param, defs, seen):
    """Attributes that function name of steenmod.cli reads off its
    parameter param, and that the module's functions it passes param to
    read in turn."""
    if (name, param) in seen:
        return set()
    seen.add((name, param))
    reads = set()
    for node in ast.walk(defs[name]):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == param):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in defs):
            params = defs[node.func.id].args.args
            for arg, p in zip(node.args, params):
                if isinstance(arg, ast.Name) and arg.id == param:
                    reads |= _attributes_read(node.func.id, p.arg, defs, seen)
    return reads


def test_every_option_is_read():
    """Each subcommand accepts only options its handler reads, directly
    or through a helper it passes the parsed arguments to."""
    tree = ast.parse(inspect.getsource(cli))
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    unread = []
    for command, parser in commands.choices.items():
        handler = parser.get_default("func").__name__
        reads = _attributes_read(handler, defs[handler].args.args[0].arg,
                                 defs, set())
        unread += [f"{command} {action.dest}" for action in parser._actions
                   if not isinstance(action, argparse._HelpAction)
                   and action.dest not in reads]
    assert not unread


def test_scenario_reads_table_matches_the_runners():
    """scenarios.READS names exactly the ScenarioConfig fields that each
    runner reads off its configuration."""
    tree = ast.parse(inspect.getsource(scenarios))
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    assert set(scenarios.READS) == set(scenarios.SCENARIOS)
    for name, run in scenarios.SCENARIOS.items():
        reads = _attributes_read(run.__name__,
                                 defs[run.__name__].args.args[0].arg,
                                 defs, set())
        assert reads == set(scenarios.READS[name]), name


def test_help_exits_0(capsys):
    for argv in (["--help"], ["baer", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_scenario_dims_deterministic(capsys):
    code1, out1 = run_cli(["scenario", "dims", "--max", "10",
                           "--format", "structured"], capsys)
    code2, out2 = run_cli(["scenario", "dims", "--max", "10",
                           "--format", "structured"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "steenmod.cli", "dims", "--max", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "degree 3: dim 2" in proc.stdout


def test_faith_scenario_reports_agreement(capsys):
    code, out = run_cli(["scenario", "faith-equiv-a1"], capsys)
    assert code == 0
    assert "disagreements = 0" in out


def test_scenario_seed_changes_random_catalog_only(capsys):
    code1, out1 = run_cli(["scenario", "cor-2-6", "--seed", "1",
                           "--format", "structured"], capsys)
    code2, out2 = run_cli(["scenario", "cor-2-6", "--seed", "1",
                           "--format", "structured"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # deterministic per seed
    assert "seed 1" in out1
