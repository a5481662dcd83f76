"""Every module-level function and class of the package, and every
method of its classes, has a caller.

The package is scanned with ``ast``.  A name defined at module level in
``steenmod.<mod>`` counts as used when other code in the package reaches
it: a bare name in its own module outside its own definition, an import
``from .<mod> import name``, or an attribute ``<alias>.name`` on a module
imported as ``from . import <mod> [as alias]``.  Method calls of the same
name do not count, and neither do names inside strings and docstrings.
The unused names must be exactly the allowlist below, each with a reason.

A non-dunder method or property of a module-level class counts as used
when the package reads an attribute of that name outside the method's own
body; whatever the attribute's object, the name alone decides.  The
unused methods must be exactly their own allowlist.

A ``__slots__`` field of a module-level class counts as read when the
package reads an attribute of that name anywhere, its own class's methods
included; again the name alone decides, so a field sharing its name with
an attribute read elsewhere passes.  A ``shift`` field of the
failing-map record ``baer`` once kept passed this way, unread, on the
reads of ``Window.shift`` and ``args.shift``; it is gone, and so is the
record.  ``fields_equal`` and ``fields_hash`` reach fields through
``getattr``, which is not a read by name, so a field that only they
compare has no reader.  The unread fields must be exactly
their own allowlist.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "steenmod"

ALLOWED_UNUSED = {
    ("milnor", "multiplication_matrix"):
        "perfbench/tracer.py reads its cache statistics",
    ("f2", "backend_name"):
        "perfbench/tracer.py reports the kernel backend by it",
    ("_f2pure", "solve"):
        "perfbench/tracer.py wraps it on f2._impl as one of its kernels",
}


ALLOWED_UNUSED_METHODS = {
    ("cli", "_Parser.error"): "argparse calls it on a usage error",
}


ALLOWED_UNREAD_FIELDS: dict[tuple[str, str], str] = {}


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


def unused_methods(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, "Class.method") of each non-dunder method or property no
    attribute read of its name reaches from outside its own body."""
    def reads(node: ast.AST) -> Counter:
        return Counter(n.attr for n in ast.walk(node)
                       if isinstance(n, ast.Attribute)
                       and isinstance(n.ctx, ast.Load))
    total: Counter = Counter()
    for tree in trees.values():
        total += reads(tree)
    unused = set()
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (fn.name.startswith("__")
                                 and fn.name.endswith("__"))
                        and total[fn.name] == reads(fn)[fn.name]):
                    unused.add((mod, f"{cls.name}.{fn.name}"))
    return unused


def unread_fields(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, "Class.field") of each ``__slots__`` field of a
    module-level class whose name no attribute read in the package has."""
    read = set()
    for tree in trees.values():
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.ctx, ast.Load)}
    unread = set()
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.Assign)
                        and any(isinstance(t, ast.Name)
                                and t.id == "__slots__"
                                for t in stmt.targets)):
                    unread |= {(mod, f"{cls.name}.{field}")
                               for field in ast.literal_eval(stmt.value)
                               if field not in read}
    return unread


def test_every_package_name_has_a_caller():
    assert unused_names() == set(ALLOWED_UNUSED)


def test_every_package_method_has_a_caller():
    assert unused_methods(_module_trees()) == set(ALLOWED_UNUSED_METHODS)


def test_every_record_field_has_a_reader():
    assert unread_fields(_module_trees()) == set(ALLOWED_UNREAD_FIELDS)


def test_scan_sees_each_kind_of_reference():
    """A bare name in its own module, a relative import and a module
    attribute each count; a name reached only from its own body does not.
    Of methods, a property read from a dunder counts; a method read only
    from its own body, or only assigned to, does not; dunders are not
    checked.  Of fields, a read in the class's own method counts; a field
    only assigned to does not."""
    refs = _references("m", ast.parse(
        "from . import milnor as M\n"
        "from .f2 import kernel\n"
        "def rec():\n    return rec()\n"
        "def outer():\n    return helper(M.degree(()))\n"
        "x.method()\n"))
    assert {("m", "helper"), ("f2", "kernel"), ("milnor", "degree")} <= refs
    assert ("m", "rec") not in refs and ("m", "method") not in refs
    trees = {"m": ast.parse(
        "class C:\n"
        "    @property\n    def size(self):\n        return 0\n"
        "    def rec(self):\n        return self.rec()\n"
        "    def unread(self):\n        pass\n"
        "    def __len__(self):\n        return self.size\n"
        "C().unread = None\n")}
    assert unused_methods(trees) == {("m", "C.rec"), ("m", "C.unread")}
    trees = {"m": ast.parse(
        "class R:\n"
        "    __slots__ = ('kept', 'shown', 'stored')\n"
        "    def show(self):\n        return self.shown\n"
        "r = R()\nr.stored = r.kept\n")}
    assert unread_fields(trees) == {("m", "R.stored")}
