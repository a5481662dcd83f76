"""The opt-in slow lane: scenario runs at sizes tier-1 does not reach.

Deselected by default (``addopts`` in pyproject.toml); run with
``pytest -m slow``.
"""

import hashlib
import os
import resource
import subprocess
import sys

import pytest

# sha256 of the structured reports at five stages on -62..0, as the engine
# printed them when every chain perp was one stacked kernel and every read
# walked its whole degree
PROP_3_1_FIVE_STAGES = \
    "fc76f2f004e6b744291b52d97f6a28ab87a32b7d5c650f99fe753586258a2eef"
IOTA_FAILURE_FIVE_STAGES = \
    "97465f97e01c16a4a8544c3a230bb70e0c336d61bdf57eda5c074eb3c5090b8f"

CAP_BYTES = 1 << 30             # address space of a run with a peak bound
SIX_STAGE_PEAK_MB = 200         # prop-3-1's resident peak at six stages
IOTA_FIVE_STAGE_PEAK_MB = 200   # iota-failure's at five stages


def _scenario(*args):
    return [sys.executable, "-m", "steenmod.cli", "scenario", *args,
            "--format", "structured"]


@pytest.mark.slow
def test_iota_failure_at_five_stages(tmp_path):
    """ι of the extended comodule on −62..0 is bit-identical to the
    coproduct of suspended dual regular modules, checked block by block,
    the report is unchanged, and the run peaks under 200 MB resident."""
    code, peak_mb, stderr, report = _run_capped(
        _scenario("iota-failure", "--stages", "5", "--window=-62..0"),
        tmp_path / "report.txt")
    assert code == 0, stderr
    assert "expect.bit-identical-to-suspended-duals met" in report
    assert hashlib.sha256(report.encode()).hexdigest() == \
        IOTA_FAILURE_FIVE_STAGES
    assert peak_mb <= IOTA_FIVE_STAGE_PEAK_MB


@pytest.mark.slow
def test_prop_3_1_at_five_stages_is_unchanged():
    """The chain perps read off the squares' walk and cut stage by stage
    give the report of whole walks and stacked kernels, byte for byte."""
    proc = subprocess.run(
        _scenario("prop-3-1", "--stages", "5", "--window=-62..0"),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        PROP_3_1_FIVE_STAGES


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))


def _run_capped(argv, out):
    """Run argv as a fresh child under a 1 GiB address-space cap, its
    stdout written to out; return its exit code, its resident peak in MB
    as ``os.wait4`` reports it, its stderr and its stdout."""
    with open(out, "w") as sink:
        proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.PIPE,
                                preexec_fn=_cap_address_space)
        _, status, usage = os.wait4(proc.pid, 0)
    return (os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024,
            proc.stderr.read(), out.read_text())


@pytest.mark.slow
def test_prop_3_1_at_six_stages_fits_in_memory(tmp_path):
    """Six stages on −126..0 run under a 1 GiB address-space cap, peak
    under 200 MB resident and meet every expectation."""
    code, peak_mb, stderr, report = _run_capped(
        _scenario("prop-3-1", "--stages", "6", "--window=-126..0"),
        tmp_path / "report.txt")
    assert code == 0, stderr
    assert peak_mb <= SIX_STAGE_PEAK_MB
    expects = [line for line in report.splitlines()
               if line.startswith("expect.")]
    assert expects and all(line.endswith(" met") for line in expects), expects
