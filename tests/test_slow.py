"""The opt-in slow lane: scenario runs at sizes tier-1 does not reach.

Deselected by default (``addopts`` in pyproject.toml); run with
``pytest -m slow``.
"""

import subprocess
import sys

import pytest


@pytest.mark.slow
def test_iota_failure_at_five_stages():
    """ι of the extended comodule on −62..0 is bit-identical to the
    coproduct of suspended dual regular modules, checked part by part."""
    proc = subprocess.run(
        [sys.executable, "-m", "steenmod.cli", "scenario", "iota-failure",
         "--stages", "5", "--window=-62..0", "--format", "structured"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "expect.bit-identical-to-suspended-duals met" in proc.stdout
