"""Self-test of the benchmark harness, in its short mode.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_harness.py -q

It takes about two minutes: every workload runs once per trace mode with
a budget too small for more than the minimum number of passes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def prepared():
    run.prepare()


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_declared_workloads_are_the_implemented_ones(declared):
    assert sorted(w["name"] for w in declared["workloads"]) == \
        sorted(run.WORKLOADS)


def bench(*args: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_emitted_with_its_unit(declared, workload, trace):
    # cor-2-6 mislabels its report at seed 7; no workload may fail there
    code, out = bench("--workload", workload, "--seed", "7", "--seconds",
                      "0.1", "--trace", str(trace))
    assert code == 0, out
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out
    metrics = declared["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in metrics} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_digest_mismatch_counts_as_failure():
    pins = run.load_pins()
    pins["scenarios"]["prop-3-1 seed 0"] = "0" * 64
    p = run.ColdDual(0, pins).run_pass(traced=False)
    failed = {op.label: op.problems for op in p.ops if op.problems}
    assert failed == {"scenario prop-3-1 seed 0":
                      ["report digest differs from the pinned one"]}


def test_unexpected_exit_code_counts_as_failure():
    cmd = run.Command("scenario cor-2-6 seed 7",
                      ["scenario", "cor-2-6", "--seed", "7"])
    child = run.spawn(["-m", "steenmod.cli"] + cmd.argv)
    assert child.code == 1
    problems = run.check_command(cmd, child.code, child.stdout,
                                 run.load_pins(), {})
    assert problems == ["exit code 1, expected 0"]


def test_crashed_worker_counts_as_failure_and_is_not_timed(monkeypatch):
    monkeypatch.setattr(run, "WORKER", os.path.join(HERE, "missing.py"))
    p = run.ColdDual(0, run.load_pins()).run_pass(traced=False)
    assert p.wall == []
    assert [op.label for op in p.ops if op.problems] == ["scenario prop-3-1"]


def test_sweep_reports_the_mislabelled_seed():
    code, out = bench("--sweep", "6..7")
    assert code == 1
    result = json.loads(out.splitlines()[-1])
    assert (result["attempted"], result["failed"]) == (2, 1)
    (line,) = [s for s in out.splitlines() if "seed    7" in s]
    assert "mislabel" in line


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cold-dual", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
