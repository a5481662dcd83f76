"""The package's record classes are plain ``__slots__`` classes.

``import steenmod.cli`` must not load ``dataclasses`` (nor ``inspect``,
which it pulls in): every CLI command is a fresh interpreter and pays for
each module it imports.  The records keep the value semantics their
callers read: equal keys compare and hash equal, an ``Algebra`` is one
instance per profile, and mutable defaults are fresh per instance.
"""

import copy
import os
import subprocess
import sys

import pytest

from steenmod.annihilator import HomIdeal, IdealChain
from steenmod.baer import BaerVerdict
from steenmod.comodule import ExtendedSpec
from steenmod.gmodule import Window
from steenmod.milnor import Algebra, Element
from steenmod.scenarios import Report

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

IMPORT_SCRIPT = """
import sys
before = set(sys.modules)
import steenmod.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "steenmod.cli" in added
    assert "dataclasses" not in added and "inspect" not in added, added


def test_equal_keys_compare_and_hash_equal():
    sq = Element.sq
    cases = [
        (Window(-3, 4), Window(-3, 4), Window(-3, 5)),
        (HomIdeal([sq(1), sq(2)]), HomIdeal([sq(1), sq(2)]),
         HomIdeal([sq(2), sq(1)])),
        (IdealChain([HomIdeal([sq(1)])]), IdealChain([HomIdeal([sq(1)])]),
         IdealChain([HomIdeal([sq(2)])])),
        (ExtendedSpec({0: 1, -2: 1}), ExtendedSpec({-2: 1, 0: 1, 5: 0}),
         ExtendedSpec({0: 2})),
    ]
    for a, b, other in cases:
        assert a is not b
        assert a == b and hash(a) == hash(b) and not a != b
        assert a != other and not a == other
        assert len({a, b, other}) == 2


def test_algebra_is_interned():
    assert Algebra.full() is Algebra.full() is Algebra()
    assert Algebra.subalgebra(2) is Algebra.subalgebra(2) is Algebra(2)
    assert Algebra.subalgebra(1) is not Algebra.subalgebra(2)
    assert Algebra.full() is not Algebra.subalgebra(0)
    assert copy.copy(Algebra.subalgebra(1)) is Algebra.subalgebra(1)
    assert copy.deepcopy(Algebra.full()) is Algebra.full()
    with pytest.raises(ValueError):
        Algebra.subalgebra(-1)
    assert Algebra.full().top_degree() is None and Algebra.full().is_full
    assert Algebra.subalgebra(1).top_degree() == 6
    assert Algebra.subalgebra(2).top_degree() == 23
    assert not Algebra.subalgebra(2).is_full


def test_reports_do_not_share_lines():
    a, b = Report("a", "claim a"), Report("b", "claim b")
    a.add("key", 1)
    assert a.lines == [("key", "1")] and b.lines == []


def test_baer_verdicts_compare_by_fields():
    def verdict(values):
        return BaerVerdict("fails", 3, 2, True, "note", tuple(values))
    assert verdict([(1, -1, 1)]) == verdict([(1, -1, 1)])
    assert verdict([(1, -1, 1)]) != verdict([(1, -1, 3)])
    assert verdict([(1, -1, 1)]) != BaerVerdict("fails", 3, 2, True, "note")
