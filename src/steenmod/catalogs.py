"""Deterministic ideal and module catalogs for extension-test sweeps.

The subalgebra A(1) is small enough to enumerate every homogeneous left
ideal outright (they are the graded submodules of the regular module);
beyond it, sweeps use a fixed structured catalog: ideals generated by
subsets of Sq(1), Sq(2), Sq(4), Sq(8), plus seeded random homogeneous
elements so runs stay reproducible under a single seed.
"""

from __future__ import annotations

import random
from itertools import combinations, product as iproduct

from . import milnor
from ._f2pure import insert
from .annihilator import HomIdeal
from .f2 import Subspace
from .gmodule import (GradedModule, Window, _first_escape, coproduct,
                      dual_regular, free_module, quotient, regular, submodule,
                      zero_module)
from .milnor import Algebra, Element


def _all_subspaces(n: int) -> list[Subspace]:
    """Every subspace of GF(2)^n (only called for tiny n)."""
    seen = {}
    vectors = list(range(1, 1 << n))
    for r in range(0, n + 1):
        for combo in combinations(vectors, r):
            sp = Subspace.from_vectors(list(combo), n)
            seen[(sp.basis, n)] = sp
    return list(seen.values())


def all_a1_ideals() -> list[HomIdeal]:
    """Every homogeneous left ideal of A(1), as generator lists.

    Enumerates all degreewise subspace families of the regular module,
    keeps the action-invariant ones, and extracts minimal generators from
    the cokernel of the positive-degree action into the family.
    """
    alg = Algebra.subalgebra(1)
    W = Window(0, 6)
    R = regular(alg, W)
    per_degree = [_all_subspaces(R.dims[d]) for d in W]
    ideals: list[HomIdeal] = []
    for combo in iproduct(*per_degree):
        family = dict(zip(range(W.lo, W.hi + 1), combo))
        if _first_escape(R, family) is not None:
            continue
        gens = _family_generators(R, family)
        if gens:
            ideals.append(HomIdeal(gens))
    return ideals


def _family_generators(m: GradedModule, family: dict[int, Subspace]
                       ) -> list[Element]:
    """Minimal generators of an invariant family inside the regular module.

    Returns [] for the zero family (no ideal), a generator list otherwise.
    """
    gens: list[Element] = []
    alg = m.algebra
    for d in m.window:
        sp = family[d]
        if not sp.dim:
            continue
        image: dict[int, int] = {}
        for k in range(1, d - m.window.lo + 1):
            for seq in alg.basis(k):
                mat = m.action(seq, d - k)
                for v in family[d - k].basis:
                    insert(image, mat.apply(v))
        for v in sp.basis:
            if insert(image, v):
                gens.append(milnor.element_from_coords(v, d, alg))
    return gens


def structured_ideal_catalog(algebra: Algebra, seed: int) -> list[HomIdeal]:
    """Subsets of the generating squares plus three ideals (Sq(1), x) with
    x a seeded random element of degree 2..10."""
    squares = [Element.sq(1), Element.sq(2), Element.sq(4), Element.sq(8)]
    squares = [s for s in squares
               if algebra.is_full or algebra.contains(next(iter(s.terms)))]
    out: list[HomIdeal] = []
    n = len(squares)
    for mask in range(1, 1 << n):
        gens = [squares[i] for i in range(n) if (mask >> i) & 1]
        out.append(HomIdeal(gens))
    rng = random.Random(seed)
    made = 0
    while made < 3:
        d = rng.randint(2, 10)
        basis = algebra.basis(d)
        if not basis:
            continue
        mask = rng.randrange(1, 1 << len(basis))
        elem = milnor.element_from_coords(mask, d, algebra)
        out.append(HomIdeal([Element.sq(1), elem]))
        made += 1
    return out


def a1_module_corpus() -> list[tuple[str, GradedModule]]:
    """Named small modules over A(1), free and non-free, on generous windows."""
    pad = 8  # degrees past A(1)'s own 0..6 on either side
    alg = Algebra.subalgebra(1)
    W = Window(-pad, 6 + pad)
    R = regular(alg, W)
    top_degree = 6

    def socle_family():
        return {top_degree: Subspace.full(1)}

    def ideal_family(*gens: Element):
        from .annihilator import ideal_span
        wi = ideal_span(HomIdeal(list(gens)), alg, W)
        return {d: wi.space(d) for d in W if d >= 0}

    corpus: list[tuple[str, GradedModule]] = [
        ("regular", R),
        ("zero", zero_module(alg, W)),
        ("free-0-0", free_module([0, 0], alg, W)),
        ("free-0-3", free_module([0, 3], alg, W)),
        ("suspension-2", regular(alg, Window(-pad, 6 + pad)).suspend(2)),
        ("dual-regular", dual_regular(alg, Window(-6 - pad, pad))),
        ("trivial", quotient(R, ideal_family(Element.sq(1), Element.sq(2)))),
        ("regular-mod-socle", quotient(R, socle_family())),
        ("regular-mod-sq1", quotient(R, ideal_family(Element.sq(1)))),
        ("regular-mod-sq2", quotient(R, ideal_family(Element.sq(2)))),
        ("regular-mod-q1", quotient(R, ideal_family(Element.sq(0, 1)))),
        ("ideal-sq1", submodule(R, ideal_family(Element.sq(1)))),
        ("ideal-sq2", submodule(R, ideal_family(Element.sq(2)))),
        ("trivial-pair", coproduct([
            (quotient(R, ideal_family(Element.sq(1), Element.sq(2))), 0),
            (quotient(R, ideal_family(Element.sq(1), Element.sq(2))), 3)])),
    ]
    return corpus
