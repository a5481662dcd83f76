"""Span and count recording for the traced benchmark runs.

The tracer works from outside the package: after ``steenmod`` is imported
it rebinds the public entry points of every layer module to recording
wrappers, in every loaded ``steenmod.*`` namespace, so calls made through
``from .x import f`` bindings are seen too.  Methods are rebound on their
classes and the GF(2) kernels on the backend module that ``f2`` selected.

A span (name, start, end, parent) is recorded only where a call crosses
from one layer into another; a call that stays inside the caller's layer
is counted but adds no span, so a layer's self time is the total of its
spans minus the spans of the layers it called.  Spans stay in memory until
``dump`` writes them out at the end of the worker.

Trivial accessors (matrix entries, window dimensions, memoized basis
lookups) are left unwrapped: they do no work of their own, and wrapping
them would multiply the spans without changing any layer's share.  The
memoized Milnor product ``multiply_seqs`` and multiplication blocks are
counted from their ``cache_info()``: lookups are hits plus misses, and
products computed or blocks built are misses.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("milnor", "gmodule", "f2", "annihilator", "baer", "comodule",
          "textio")

# Private functions that are layer entry points or carry a count.
PRIVATE_ENTRIES = {
    "annihilator": ("_stage_perp", "_left_mult_by_coords"),
    "baer": ("_generator_relations",),
}

# Dunder methods that do real work; every other dunder stays unwrapped.
WORK_DUNDERS = ("__init__", "__add__", "__mul__", "__matmul__", "__eq__")

SKIP = {
    "milnor": {"degree", "in_profile", "basis_in_degree",
               "Algebra.__init__", "Algebra.__eq__",
               "Algebra.basis", "Algebra.dim", "Algebra.contains",
               "Algebra.top_degree", "Algebra.full", "Algebra.subalgebra",
               "Element.degree", "Element.is_zero", "Element.is_homogeneous",
               "Element.sorted_terms", "Element.sq", "Element.unit",
               "Element.zero"},
    "gmodule": {"Window.__init__", "Window.__eq__", "Window.shift",
                "Window.intersect", "GradedModule.dim",
                "SuspensionProfile.counts", "SuspensionProfile.bounds"},
    "f2": {"BitMatrix.row", "BitMatrix.column", "BitMatrix.entry",
           "BitMatrix.zero", "BitMatrix.identity", "mask_to_bits",
           "backend_name"},
    "comodule": {"GradedComodule.dim", "ExtendedSpec.degrees"},
}

KERNELS = ("rref", "mul", "nullspace", "solve", "apply")


class Tracer:
    """Spans, counts and the wrappers that record them."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list = []
        self.stack: list[tuple[str, int]] = []
        self.counts: Counter = Counter()
        self._caches: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}

    # -- recording -----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        counts, spans, stack = self.counts, self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            counts[name] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append(None)
                stack.append((layer, idx))
                parent = stack[-2][1] if len(stack) > 1 else -1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[idx] = (name_id, start, clock(), parent)
                    stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind every entry point; call once, after importing steenmod."""
        import steenmod.cli  # noqa: F401  (loads every layer module)
        from steenmod import f2, milnor

        self._caches = {"milnor.multiply_seqs": milnor.multiply_seqs,
                        "milnor.multiplication_matrix":
                            milnor.multiplication_matrix}
        self._cache_base = {k: c.cache_info()[:2]
                            for k, c in self._caches.items()}

        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"steenmod.{layer}"]
            skip = SKIP.get(layer, set())
            for attr, value in list(vars(mod).items()):
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(layer, value, skip)
                    continue
                if not callable(value) or attr in skip:
                    continue
                private = PRIVATE_ENTRIES.get(layer, ())
                if attr.startswith("_") and attr not in private:
                    continue
                wrapped = self.wrap(layer, f"{layer}.{attr}", value,
                                    self._hook(f"{layer}.{attr}"))
                replaced[id(value)] = wrapped

        backend = f2._impl
        for kernel in KERNELS:
            fn = getattr(backend, kernel)
            wrapped = self.wrap("f2", f"f2.kernel.{kernel}", fn,
                                self._kernel_hook(kernel))
            setattr(backend, kernel, wrapped)

        for modname, mod in list(sys.modules.items()):
            if modname != "steenmod" and not modname.startswith("steenmod."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced and callable(value):
                    setattr(mod, attr, replaced[id(value)])

    def _wrap_class(self, layer: str, cls, skip) -> None:
        for attr, raw in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if qual in skip:
                continue
            if attr.startswith("__"):
                if attr not in WORK_DUNDERS:
                    continue
            elif attr.startswith("_"):
                continue
            name = f"{layer}.{qual}"
            if isinstance(raw, classmethod):
                fn = self.wrap(layer, name, raw.__func__, self._hook(name))
                setattr(cls, attr, classmethod(fn))
            elif isinstance(raw, staticmethod):
                fn = self.wrap(layer, name, raw.__func__, self._hook(name))
                setattr(cls, attr, staticmethod(fn))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(layer, name, raw,
                                             self._hook(name)))

    def _hook(self, name: str):
        counts = self.counts
        if name == "gmodule.GradedModule.__init__":
            def after(args, _result):
                mod = args[0]
                counts["gmodule.action_matrices"] += len(mod.actions)
                counts["gmodule.table_bits"] += sum(
                    m.nrows * m.ncols for m in mod.actions.values())
            return after
        if name == "comodule.GradedComodule.__init__":
            def after(args, _result):
                counts["comodule.coaction_blocks"] += len(args[0].coactions)
            return after
        if name == "baer.baer_test":
            def after(_args, verdict):
                if verdict.note.startswith("map space pinned"):
                    counts["baer.early_certified"] += 1
            return after
        if name.startswith("textio.parse_"):
            def after(args, _result):
                counts["textio.bytes_parsed"] += len(args[0].encode())
            return after
        if name.startswith("textio.print_"):
            def after(_args, text):
                counts["textio.bytes_printed"] += len(text.encode())
            return after
        return None

    def _kernel_hook(self, kernel: str):
        counts = self.counts

        def after(args, _result):
            rows = args[0]
            if kernel == "mul":
                bits = len(rows) * len(args[1])
            elif kernel == "apply":
                bits = len(rows) * args[1].bit_length()
            else:
                bits = len(rows) * args[1]
            counts["f2.kernel_bits"] += bits
        return after

    # -- output --------------------------------------------------------------

    def cache_stats(self) -> dict[str, list[int]]:
        """Lookups and misses of the memoized Milnor layer since install."""
        out = {}
        for k, cache in self._caches.items():
            info = cache.cache_info()
            hits0, misses0 = self._cache_base[k]
            out[k] = [info.hits + info.misses - hits0 - misses0,
                      info.misses - misses0]
        return out

    def dump(self, path: str) -> None:
        """Write spans, names and counts as one JSON document."""
        doc = {"names": self.names, "layers": self.layer_of,
               "spans": self.spans, "counts": dict(self.counts),
               "caches": self.cache_stats()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_self_times(doc: dict) -> dict[str, float]:
    """Self seconds per layer: each span minus the spans directly below it."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for _name_id, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {layer: 0.0 for layer in LAYERS}
    for i, (name_id, start, end, _parent) in enumerate(spans):
        out[doc["layers"][name_id]] += (end - start) - child[i]
    return out
