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

SIX_STAGE_CAP_BYTES = 1 << 30   # address space of the six-stage run
SIX_STAGE_PEAK_MB = 200         # its resident peak


def _scenario(*args):
    return [sys.executable, "-m", "steenmod.cli", "scenario", *args,
            "--format", "structured"]


@pytest.mark.slow
def test_iota_failure_at_five_stages():
    """ι of the extended comodule on −62..0 is bit-identical to the
    coproduct of suspended dual regular modules, checked part by part,
    and the report is unchanged."""
    proc = subprocess.run(
        _scenario("iota-failure", "--stages", "5", "--window=-62..0"),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "expect.bit-identical-to-suspended-duals met" in proc.stdout
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        IOTA_FAILURE_FIVE_STAGES


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
    resource.setrlimit(resource.RLIMIT_AS,
                       (SIX_STAGE_CAP_BYTES, SIX_STAGE_CAP_BYTES))


@pytest.mark.slow
def test_prop_3_1_at_six_stages_fits_in_memory(tmp_path):
    """Six stages on −126..0 run under a 1 GiB address-space cap, peak
    under 200 MB resident and meet every expectation."""
    out = tmp_path / "report.txt"
    with open(out, "w") as sink:
        proc = subprocess.Popen(
            _scenario("prop-3-1", "--stages", "6", "--window=-126..0"),
            stdout=sink, stderr=subprocess.PIPE,
            preexec_fn=_cap_address_space)
        _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, proc.stderr.read()
    assert usage.ru_maxrss / 1024 <= SIX_STAGE_PEAK_MB
    expects = [line for line in out.read_text().splitlines()
               if line.startswith("expect.")]
    assert expects and all(line.endswith(" met") for line in expects), expects
