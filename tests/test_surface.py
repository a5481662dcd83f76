"""Every module-level function and class of the package has a caller.

The package is scanned with ``ast``.  A name defined at module level in
``steenmod.<mod>`` counts as used when other code in the package reaches
it: a bare name in its own module outside its own definition, an import
``from .<mod> import name``, or an attribute ``<alias>.name`` on a module
imported as ``from . import <mod> [as alias]``.  Method calls of the same
name do not count, and neither do names inside strings and docstrings.
The unused names must be exactly the allowlist below, each with a reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "steenmod"

ALLOWED_UNUSED = {
    ("milnor", "multiplication_matrix"):
        "perfbench/tracer.py reads its cache statistics",
    ("f2", "backend_name"):
        "perfbench/tracer.py reports the kernel backend by it",
    ("textio", "print_chain"):
        "the printer of the format that parse_chain reads",
}


def _module_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]


def _references(mod: str, tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) pairs that code in mod reaches.  A bare name inside
    a top-level definition of the same name is that definition's own body
    and is not counted."""
    aliases: dict[str, str] = {}
    refs: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    refs.add((node.module, alias.name))
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id != own:
                refs.add((mod, node.id))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                refs.add((aliases[node.value.id], node.attr))
    return refs


def unused_names() -> set[tuple[str, str]]:
    trees = _module_trees()
    defined = {(mod, name) for mod, tree in trees.items()
               for name in _definitions(tree)}
    used: set[tuple[str, str]] = set()
    for mod, tree in trees.items():
        used |= _references(mod, tree)
    return defined - used


def test_every_package_name_has_a_caller():
    assert unused_names() == set(ALLOWED_UNUSED)


def test_scan_sees_each_kind_of_reference():
    """A bare name in its own module, a relative import and a module
    attribute each count; a name reached only from its own body does not."""
    refs = _references("m", ast.parse(
        "from . import milnor as M\n"
        "from .f2 import kernel\n"
        "def rec():\n    return rec()\n"
        "def outer():\n    return helper(M.degree(()))\n"
        "x.method()\n"))
    assert {("m", "helper"), ("f2", "kernel"), ("milnor", "degree")} <= refs
    assert ("m", "rec") not in refs and ("m", "method") not in refs
