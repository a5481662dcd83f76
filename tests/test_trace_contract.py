"""The benchmark's tracer reads the Milnor layer's memo statistics from
``cache_info()``; this guards the names and caches it relies on."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
from tracer import Tracer
tracer = Tracer()
tracer.install()
from steenmod import milnor
from steenmod.gmodule import Window, dual_regular
full = milnor.Algebra.full()
dual_regular(full, Window(-12, 0)).action_table()
milnor.multiplication_matrix(3, 4, full)
print(json.dumps(tracer.cache_stats()))
"""


def test_tracer_reads_both_milnor_caches():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"),
                                         str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout)
    assert set(stats) == {"milnor.multiply_seqs",
                          "milnor.multiplication_matrix"}
    lookups, built = stats["milnor.multiplication_matrix"]
    assert built > 0 and lookups >= built
