"""Cross-checks of the Milnor-basis engine against the admissible-basis
oracle: dimension counts, the change of basis through the polynomial
action, and product agreement."""

import random

from steenmod import milnor as M
from steenmod.milnor import Algebra, Element

import oracles

FULL = Algebra.full()


def test_dimension_oracle_to_24():
    for d in range(25):
        assert len(FULL.basis(d)) == len(oracles.admissible_words(d)), d


def test_adem_oracle_basics():
    assert oracles.straighten((1, 1)) == frozenset()
    assert oracles.straighten((1, 2)) == frozenset([(3,)])
    assert oracles.straighten((2, 2)) == frozenset([(3, 1)])
    assert oracles.straighten((2, 1)) == frozenset([(2, 1)])


def test_change_of_basis_on_known_values():
    t3 = oracles.milnor_to_admissible_table(3)
    assert t3[(3,)] == frozenset([(3,)])
    assert t3[(0, 1)] == frozenset([(3,)]) ^ frozenset([(2, 1)])


def test_products_match_adem_through_change_of_basis():
    rng = random.Random(1)
    pairs = []
    for d1 in range(0, 6):
        for d2 in range(0, 6):
            if 0 < d1 + d2 <= 8:
                for a in FULL.basis(d1):
                    for b in FULL.basis(d2):
                        pairs.append((d1, d2, a, b))
    rng.shuffle(pairs)
    for d1, d2, a, b in pairs[:120]:
        engine = (Element([a]) * Element([b])).terms
        via_oracle = oracles.adem_product(
            oracles.milnor_set_to_admissible(frozenset([a]), d1),
            oracles.milnor_set_to_admissible(frozenset([b]), d2))
        assert oracles.milnor_set_to_admissible(engine, d1 + d2) == via_oracle, (a, b)


def test_subalgebra_closure_oracle():
    """The profile-bounded basis is exactly the span generated by the
    squares Sq(1), ..., Sq(2^n) under left multiplication."""
    for n in range(3):
        alg = Algebra.subalgebra(n)
        top = alg.top_degree()
        gens = [Element.sq(1 << j) for j in range(n + 1)]
        span = {d: set() for d in range(top + 1)}
        span[0].add(())
        changed = True
        while changed:
            changed = False
            for d in range(top + 1):
                for g in gens:
                    k = g.degree()
                    if d + k > top:
                        continue
                    for s in list(span[d]):
                        for t in (g * Element([s])).terms:
                            if t not in span[d + k]:
                                # the products of basis monomials span the
                                # subalgebra degreewise over GF(2); track
                                # the support instead of full linear spans
                                span[d + k].add(t)
                                changed = True
        for d in range(top + 1):
            got_support = span[d]
            profile_basis = set(alg.basis(d))
            assert got_support <= profile_basis, (n, d)
        total_profile = sum(len(alg.basis(d)) for d in range(top + 1))
        assert total_profile == 1 << ((n + 1) * (n + 2) // 2)


def test_closure_reaches_profile_dimension():
    """Spans (not just supports): the generated subalgebra has the full
    profile-bound dimension in every degree, for small n."""
    from steenmod.f2 import Subspace

    for n in range(3):
        alg = Algebra.subalgebra(n)
        top = alg.top_degree()
        gens = [Element.sq(1 << j) for j in range(n + 1)]
        spans = {d: Subspace.zero(len(FULL.basis(d))) for d in range(top + 1)}
        unit = 1  # coordinate mask of Sq() in degree 0
        spans[0] = Subspace.from_vectors([unit], 1)
        changed = True
        while changed:
            changed = False
            for d in range(top + 1):
                if spans[d].dim == 0:
                    continue
                for g in gens:
                    k = g.degree()
                    if d + k > top:
                        continue
                    new_vecs = []
                    for v in spans[d].basis:
                        elem = M.element_from_coords(v, d, FULL)
                        prod = g * elem
                        if prod.is_zero():
                            continue
                        new_vecs.append(M.coords_of(prod, d + k, FULL))
                    if not new_vecs:
                        continue
                    bigger = spans[d + k]
                    for v in new_vecs:
                        if not bigger.contains(v):
                            bigger = Subspace.from_vectors(
                                bigger.basis + (v,), bigger.ambient_dim)
                            changed = True
                    spans[d + k] = bigger
        for d in range(top + 1):
            assert spans[d].dim == alg.dim(d), (n, d)
        # membership agrees with the profile bound both ways
        for d in range(top + 1):
            for s in FULL.basis(d):
                inside = spans[d].contains(M.coords_of(Element([s]), d, FULL))
                if M.in_profile(s, n):
                    assert inside, (n, s)


def test_quotient_dims_oracle_small():
    """First positive-degree generator of the quotient by the subalgebra
    ideal sits at twice the top generating square."""
    for n in range(3):
        dims = oracles.quotient_by_subalgebra_dims(n, 2 ** (n + 1) + 2)
        assert dims[0] == 1
        first_pos = next(d for d in range(1, len(dims)) if dims[d])
        assert first_pos == 2 ** (n + 1), (n, dims)
