"""The benchmark's tracer reads the Milnor layer's memo statistics from
``cache_info()``, reports ``f2.backend_name()``, counts kernel bits by
rebinding the kernels on ``f2._impl``, and reads records in the hooks it
installs after module construction, text parsing and printing and the
extension test; this guards the names, caches, binding and record fields
it relies on."""

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
from steenmod import f2, milnor
from steenmod.gmodule import Window, dual_regular
full = milnor.Algebra.full()
dual_regular(full, Window(-12, 0)).action_table()
milnor.multiplication_matrix(3, 4, full)
milnor.Element.sq(3, 1) * milnor.Element.sq(2)
bits = tracer.counts["f2.kernel_bits"]
f2.Subspace.from_vectors([0b011, 0b110], 3)
kernel_bits = [bits, tracer.counts["f2.kernel_bits"]]
from steenmod import textio
from steenmod.annihilator import HomIdeal
from steenmod.baer import baer_test
from steenmod.gmodule import regular
a1 = milnor.Algebra.subalgebra(1)
textio.parse_module(textio.print_module(regular(a1, Window(0, 6))))
baer_test(HomIdeal([milnor.Element.sq(1)]), 1, regular(a1, Window(0, 6)))
names = ["gmodule.GradedModule.__init__", "textio.bytes_parsed",
         "textio.bytes_printed", "baer.baer_test"]
print(json.dumps({"caches": tracer.cache_stats(),
                  "backend": f2.backend_name(),
                  "kernel_bits": kernel_bits,
                  "counts": {n: tracer.counts[n] for n in names}}))
"""


def test_tracer_reads_both_milnor_caches():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"),
                                         str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["backend"] == "pure"
    before, after = out["kernel_bits"]
    assert after > before
    stats = out["caches"]
    assert set(stats) == {"milnor.multiply_seqs",
                          "milnor.multiplication_matrix"}
    lookups, built = stats["milnor.multiplication_matrix"]
    assert built > 0 and lookups >= built
    # no table read goes through multiply_seqs: the one isolated product
    # is its one lookup and its one miss
    assert stats["milnor.multiply_seqs"] == [1, 1]
    # each hook ran on the record it reads
    assert all(out["counts"].values()), out["counts"]
