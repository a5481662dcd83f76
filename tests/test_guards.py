"""Guards on what the benchmark in ``perfbench/`` measures.

- Byte pins.  ``perfbench/pins.json`` holds the sha256 of the structured
  report of each default scenario at seed 0, and of the stdout of eight
  CLI commands on the module files the benchmark's ``cli-files`` workload
  writes.  Here every pin is reproduced in-process: the scenarios through
  ``render_structured``, the commands through ``steenmod.cli.main`` on
  files that ``perfbench/worker.py`` writes in its ``write-files`` mode.
  The pin file is only read.
- Walk counts.  Each default scenario, in a fresh interpreter, calls the
  whole walk of a degree (``milnor._walk_blocks``) and the squares' walk
  (``milnor._walk_squares``) a fixed number of times.  A change that walks
  a degree it need not, such as an empty degree of A(n), moves a count.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from steenmod import cli
from steenmod.scenarios import ScenarioConfig, render_structured, run_scenario

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

with open(PERFBENCH / "pins.json", encoding="utf-8") as fh:
    PINS = json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.mark.parametrize("key", sorted(PINS["scenarios"]))
def test_scenario_report_matches_its_pin(key):
    name, _, seed = key.rpartition(" seed ")
    rep = run_scenario(name, ScenarioConfig(seed=int(seed)))
    assert sha256(render_structured(rep)) == PINS["scenarios"][key]


@pytest.fixture(scope="module")
def module_files(tmp_path_factory):
    """The three module files of the ``cli-files`` workload, written by
    the benchmark's own worker."""
    out = tmp_path_factory.mktemp("cli-files")
    spec = {"mode": "write-files", "dir": str(out), "perp_ideals": [],
            "src": str(ROOT / "src"), "out": str(out / "worker.json")}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), json.dumps(spec)],
        capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return out


def pinned_argv(label: str, files: Path) -> list[str]:
    """The command a ``cli`` pin label names: the command, the module
    file, then its own options; ``chain`` reads the benchmark's chain."""
    command, fname, *options = label.split()
    path = str(files / fname)
    if command == "validate":
        return [command, path, *options]
    argv = [command, "--module", path, *options]
    if command == "chain":
        argv += ["--chain", run.CHAIN]
    return argv


@pytest.mark.parametrize("label", sorted(PINS["cli"]))
def test_cli_stdout_matches_its_pin(label, module_files, capsys):
    capsys.readouterr()
    assert cli.main(pinned_argv(label, module_files)) == 0
    assert sha256(capsys.readouterr().out) == PINS["cli"][label]


# Scenario: (whole walks, squares walks) at its defaults, fresh interpreter.
WALKS = {
    "prop-3-1": (8, 22),
    "iota-failure": (30, 0),
    "cor-2-6": (32, 0),
    "iota-bounded-above": (20, 0),
    "faith-equiv-a1": (13, 0),
}

COUNT_WALKS = """
import sys
from steenmod import milnor
from steenmod.scenarios import ScenarioConfig, run_scenario

counts = dict.fromkeys(("_walk_blocks", "_walk_squares"), 0)

def counted(name):
    walk = getattr(milnor, name)
    def wrapper(*args):
        counts[name] += 1
        return walk(*args)
    return wrapper

for name in counts:
    setattr(milnor, name, counted(name))
run_scenario(sys.argv[1], ScenarioConfig())
print(counts["_walk_blocks"], counts["_walk_squares"])
"""


def test_walk_table_covers_the_pinned_scenarios():
    assert {key.rpartition(" seed ")[0] for key in PINS["scenarios"]} \
        == set(WALKS)


@pytest.mark.parametrize("name", sorted(WALKS))
def test_scenario_walk_counts(name):
    proc = subprocess.run([sys.executable, "-c", COUNT_WALKS, name],
                          capture_output=True, text=True, env=child_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    whole, squares = map(int, proc.stdout.split())
    assert (whole, squares) == WALKS[name]
