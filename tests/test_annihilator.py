import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenmod.annihilator import (HomIdeal, IdealChain, _stage_perp,
                                  chain_perp_profile, classify_sigma,
                                  ideal_span, perp_subset_in_algebra,
                                  sq_power_chain)
from steenmod.f2 import Subspace
from steenmod.gmodule import Window, dual_regular, regular
from steenmod.milnor import Algebra, Element, parse_element

import oracles
from oracles import finite_subideal

A1 = Algebra.subalgebra(1)
A2 = Algebra.subalgebra(2)
FULL = Algebra.full()


def test_homideal_rejects_bad_generators():
    with pytest.raises(ValueError):
        HomIdeal([Element.zero()])
    with pytest.raises(ValueError):
        HomIdeal([Element.sq(1) + Element.sq(2)])  # inhomogeneous
    with pytest.raises(ValueError, match="empty generator list"):
        HomIdeal([])


def test_perp_of_zero_and_unit_ideals():
    r = regular(A1, Window(0, 6))
    full_prof = perp_subset_in_algebra([], r)
    for k in range(7):
        assert full_prof.dim(k) == A1.dim(k)
    unit_perp = perp_subset_in_algebra([(0, 1)], r)
    assert all(unit_perp.dim(k) == 0 for k in range(7))


def test_perp_refuses_elements_that_do_not_fit_the_module():
    """A mask wider than the module's known dimension at its degree is
    refused by name; a degree outside the window stays uncertified."""
    d = dual_regular(FULL, Window(-8, 0))
    with pytest.raises(ValueError, match="degree 1 does not fit the module, "
                                         "whose dimension there is 0"):
        perp_subset_in_algebra([(1, 1)], d)
    with pytest.raises(ValueError, match="degree -2 does not fit the module, "
                                         "whose dimension there is 1"):
        perp_subset_in_algebra([(-2, 0b10)], d)
    assert perp_subset_in_algebra([(-2, 1)], d).spaces[2].dim == 0
    assert perp_subset_in_algebra([(-9, 1)], d).spaces == {}


def test_perp_sq1_in_regular_a1():
    r = regular(A1, Window(0, 6))
    prof = chain_perp_profile(IdealChain([HomIdeal([Element.sq(1)])]), r)
    total = sum(prof.stages[d][0].dim for d in prof.window)
    assert total == 4
    # brute force over all 8 basis elements
    brute = 0
    for d in prof.window:
        for i in range(r.dims[d]):
            if r.action_of(Element.sq(1), d).apply(1 << i) == 0:
                brute += 1
    # brute counts basis vectors killed, which here equals the kernel dim
    assert brute == 4


def test_perp_of_top_class_is_positive_part():
    r = regular(A1, Window(0, 6))
    wi = perp_subset_in_algebra([(6, 1)], r)
    assert wi.dim(0) == 0
    for k in range(1, 7):
        assert wi.dim(k) == A1.dim(k), k


def test_perp_closure_is_left_ideal():
    r = regular(A1, Window(0, 6))
    # closure check runs inside the call and raises on failure
    perp_subset_in_algebra([(3, 1), (6, 1)], r)


def test_galois_antitonicity_and_double_perp():
    rng = random.Random(8)
    r = regular(A1, Window(0, 6))
    chain = sq_power_chain(2)
    prof = chain_perp_profile(chain, r)
    for d in prof.window:
        assert prof.stages[d][0].contains_subspace(prof.stages[d][1])
    # every y in Y is killed by every element of Y-perp
    for _ in range(10):
        d = rng.randint(0, 6)
        if not r.dims[d]:
            continue
        y = rng.randrange(1, 1 << r.dims[d])
        wi = perp_subset_in_algebra([(d, y)], r)
        for k in sorted(wi.spaces):
            for vec in wi.spaces[k].basis:
                elem = Element(A1.basis(k)[i] for i in range(A1.dim(k))
                               if (vec >> i) & 1)
                if d + k in r.window and not elem.is_zero():
                    assert r.action_of(elem, d).apply(y) == 0


@pytest.mark.parametrize("build,algebra,window", [
    (regular, A1, Window(0, 6)),
    (regular, A1, Window(0, 4)),
    (dual_regular, A1, Window(-6, 0)),
    (regular, A2, Window(0, 23)),
    (regular, A2, Window(0, 12)),
    (dual_regular, A2, Window(-23, 0)),
    (dual_regular, A2, Window(-14, -2)),
], ids=["reg-A1", "reg-A1-cut", "dual-A1", "reg-A2", "reg-A2-cut",
        "dual-A2", "dual-A2-cut"])
def test_perp_subset_matches_brute_force(build, algebra, window):
    """For 1-3 random elements, each certified degree's annihilator is
    exactly the span of the x in A^k, tried one by one, with x y = 0 for
    every element y; and a degree is certified exactly where every target
    is representable."""
    m = build(algebra, window)
    rng = random.Random(window.lo * 31 + window.hi)
    filled = [d for d in window if m.dims[d]]
    for _ in range(12):
        elements = [(d, rng.randrange(1, 1 << m.dims[d]))
                    for d in (rng.choice(filled)
                              for _ in range(rng.randint(1, 3)))]
        wi = perp_subset_in_algebra(elements, m)
        certified = [k for k in range(window.width + 1) if algebra.dim(k)
                     and all(m.dim(dy + k) is not None for dy, _ in elements)]
        assert sorted(wi.spaces) == certified
        for k in certified:
            basis = algebra.basis(k)
            killers = []
            for x in range(1 << len(basis)):
                if all(not _image(m, basis, x, dy, vy)
                       for dy, vy in elements):
                    killers.append(x)
            assert len(killers) == 1 << wi.spaces[k].dim
            assert wi.spaces[k] == Subspace.from_vectors(killers, len(basis))


def _image(m, basis, x, dy, vy):
    """Coordinates of x y for x the mask over basis, term by term."""
    out = 0
    for i, seq in enumerate(basis):
        if x >> i & 1:
            out ^= m.action(seq, dy).apply(vy)
    return out


def test_chain_must_be_ascending():
    bad = IdealChain([HomIdeal([Element.sq(2)]), HomIdeal([Element.sq(1)])])
    r = regular(A1, Window(0, 6))
    with pytest.raises(ValueError):
        chain_perp_profile(bad, r)


def test_one_stage_chain_builds_no_ideal_span(monkeypatch):
    """A one-stage chain has nothing to check for ascent."""
    from steenmod import annihilator

    def no_span(*args):
        raise AssertionError("ideal_span called for a one-stage chain")

    monkeypatch.setattr(annihilator, "ideal_span", no_span)
    r = regular(A1, Window(0, 6))
    prof = chain_perp_profile(IdealChain([HomIdeal([Element.sq(1)])]), r)
    assert prof.num_stages == 1 and all(prof.ell[d] == 0 for d in prof.window)


def test_constant_chain_ell_zero():
    r = regular(A1, Window(0, 6))
    const = IdealChain([HomIdeal([Element.sq(1)])] * 4)
    prof = chain_perp_profile(const, r)
    assert all(prof.ell[d] == 0 for d in prof.window)


def test_regular_full_chain_stabilizes_per_degree():
    r = regular(FULL, Window(0, 16))
    prof = chain_perp_profile(sq_power_chain(4), r)
    assert all(prof.ell[d] <= prof.num_stages for d in prof.window)
    # certified only where the deepest generator still acts inside the window
    for d in prof.window:
        assert prof.certified[d] == (d + 8 <= 16), d


def test_dual_regular_profile_matches_admissible_oracle():
    """Stage-n perp dims in the dual regular module equal the dims of the
    quotient by the left ideal of generating squares, computed in the
    admissible basis with no shared code path."""
    window = Window(-20, 0)
    dA = dual_regular(FULL, window)
    chain = sq_power_chain(4)
    prof = chain_perp_profile(chain, dA)
    for n in range(4):
        oracle = oracles.quotient_by_subalgebra_dims(n, 20)
        for d in window:
            assert prof.stages[d][n].dim == oracle[-d], (n, d)


def test_dual_regular_no_uniform_bound_on_window():
    dA = dual_regular(FULL, Window(-30, 0))
    prof = chain_perp_profile(sq_power_chain(4), dA)
    for t in range(4):
        assert any(prof.ell[d] > t for d in prof.window if prof.certified[d]), t


def _stacked_perp(ideal, m, d):
    """The perp of every generator with a known target at degree d, by
    the reference kernel of their stacked blocks, and whether every
    target is known."""
    known = [g for g in ideal.generators if m.dim(d + g.degree()) is not None]
    rows = [r for g in known for r in m.action_of(g, d).rows]
    n = m.dims[d]
    perp = Subspace.from_vectors(oracles.nullspace_by_columns(rows, n), n)
    return perp, len(known) == len(ideal.generators)


def _assert_profile_is_stacked(chain, m):
    """Check each stage's perp and flag, from ``_stage_perp`` fed the
    previous stage's as the profile feeds it, and the profile itself;
    return the number of uncertified degrees."""
    prof = chain_perp_profile(chain, m)
    uncertified = 0
    for d in m.window:
        flags = []
        prev = None
        for t, ideal in enumerate(chain.stages):
            want = _stacked_perp(ideal, m, d)
            got = _stage_perp(ideal, m, d, prev)
            assert got == want, (d, t)
            assert prof.stages[d][t] == want[0], (d, t)
            prev = (ideal, *got)
            flags.append(want[1])
        assert prof.certified[d] == all(flags), d
        uncertified += not prof.certified[d]
    return uncertified


POOL = [parse_element(e) for e in
        ("Sq(1)", "Sq(2)", "Sq(3)", "Sq(4)", "Sq(0,1)", "Sq(2,1)",
         "Sq(3)+Sq(0,1)", "Sq(5)+Sq(2,1)")]


@st.composite
def modules_and_chains(draw):
    """An ascending chain, and a module over its algebra on a window that
    may be open at either edge.  Each stage draws generators and
    carries the previous stage's others along, except, when the draw says
    so, those the new ones already generate: then the generator sets are
    not nested."""
    kind = draw(st.sampled_from(["dual", "regular", "dual-a2"]))
    lo = draw(st.integers(-16, -2))
    hi = draw(st.integers(lo + 2, 0))
    if kind == "dual":
        m = dual_regular(FULL, Window(lo, hi))
    elif kind == "dual-a2":
        m = dual_regular(A2, Window(lo, hi))
    else:
        m = regular(FULL, Window(-hi, -lo))
    stages = []
    prev = ()
    for _ in range(draw(st.integers(1, 4))):
        drawn = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3,
                              unique=True))
        keep = draw(st.booleans())
        span = ideal_span(HomIdeal(drawn), m.algebra, Window(0, 6))
        prev = tuple(drawn) + tuple(
            g for g in prev if g not in drawn
            and (keep or not span.contains_element(g)))
        stages.append(HomIdeal(prev))
    return IdealChain(stages), m


@settings(max_examples=40, deadline=None)
@given(modules_and_chains())
def test_chain_perps_equal_stacked_kernels(case):
    """Each stage's perp, cut from the last stage's where the generator
    sets are nested, equals the kernel of all its generators' stacked
    blocks, and a degree is certified exactly when every target is
    known."""
    _assert_profile_is_stacked(*case)


def test_chain_perps_equal_stacked_kernels_at_the_edges():
    """Nested and non-nested chains on windows open at the top edge, where
    some stages are uncertified."""
    sq = Element.sq
    not_nested = IdealChain([HomIdeal([sq(3)]), HomIdeal([sq(1), sq(2)]),
                             HomIdeal([sq(1), sq(2), sq(4)])])
    for chain in (sq_power_chain(4), not_nested):
        for window in (Window(-30, -2), Window(-20, -5)):
            m = dual_regular(FULL, window)
            assert _assert_profile_is_stacked(chain, m)
        assert _assert_profile_is_stacked(chain, regular(FULL, Window(3, 20)))


def test_finite_algebra_modules_get_no_counterexample():
    """No sub-window of the regular or the dual regular A(1) or A(2)
    module gets a counterexample under square chains of one stage up to
    the algebra's top square: A(n) is Noetherian, so every family is
    structural evidence."""
    for alg in (A1, A2):
        top = alg.top_degree()
        chains = [sq_power_chain(s)
                  for s in range(1, alg.profile_index + 2)]
        for build, edge in ((regular, Window(0, top)),
                            (dual_regular, Window(-top, 0))):
            for lo in edge:
                for hi in range(lo, edge.hi + 1):
                    m = build(alg, Window(lo, hi))
                    for chain in chains:
                        flags = classify_sigma(m, [chain])
                        assert set(flags.values()) == {"evidence_holds"}, (
                            alg, build.__name__, lo, hi, len(chain))


def test_finite_subideal_contract():
    r = regular(A1, Window(0, 6))
    positive = perp_subset_in_algebra([(6, 1)], r)  # all positive degrees
    degrees = list(range(0, 7))
    sub = finite_subideal(positive, r, degrees)
    assert len(sub.generators) <= 2
    target = chain_perp_profile(IdealChain([
        HomIdeal([g for k in sorted(positive.spaces) if k
                  for g in oracles.basis_elements(positive, k)])]), r)
    got = chain_perp_profile(IdealChain([sub]), r)
    for d in degrees:
        assert got.stages[d][0] == target.stages[d][0], d


def test_finite_subideal_accepts_small_input():
    r = regular(A1, Window(0, 6))
    small = HomIdeal([Element.sq(1)])
    sub = finite_subideal(small, r, range(0, 7))
    got = chain_perp_profile(IdealChain([sub]), r)
    want = chain_perp_profile(IdealChain([small]), r)
    for d in range(0, 7):
        assert got.stages[d][0] == want.stages[d][0]


def test_finite_subideal_empty_degrees():
    r = regular(A1, Window(0, 6))
    sub = finite_subideal(HomIdeal([Element.sq(1)]), r, [])
    assert isinstance(sub, HomIdeal)


def test_classifier_dual_regular():
    dA = dual_regular(FULL, Window(-30, 0))
    flags = classify_sigma(dA, [sq_power_chain(4)])
    assert flags["strictly"] == "evidence_holds"
    assert flags["bounded_abovely"] == "evidence_holds"
    assert flags["bounded_belowly"] == "counterexample"
    assert flags["unboundedly"] == "counterexample"
    assert flags["finite_sets"] == "evidence_holds"


def test_classifier_regular_full():
    r = regular(FULL, Window(0, 24))
    flags = classify_sigma(r, [sq_power_chain(4)])
    assert flags["bounded_belowly"] == "evidence_holds"
    assert flags["strictly"] == "evidence_holds"


def test_classifier_finite_module_all_structural():
    r = regular(A1, Window(0, 6))
    flags = classify_sigma(r, [sq_power_chain(2)])
    assert all(v == "evidence_holds" for v in flags.values())


def test_classifier_empty_catalog_decides_only_structurally():
    """With no chain, an exact edge still gives structural evidence and an
    open one has nothing to decide on."""
    flags = classify_sigma(dual_regular(FULL, Window(-20, 0)), [])
    assert flags == {"strictly": "evidence_holds",
                     "unboundedly": "inconclusive",
                     "bounded_abovely": "evidence_holds",
                     "bounded_belowly": "inconclusive",
                     "finite_sets": "evidence_holds"}


def test_classifier_monotone_in_catalog():
    dA = dual_regular(FULL, Window(-30, 0))
    small = classify_sigma(dA, [sq_power_chain(4)])
    extra = IdealChain([HomIdeal([Element.sq(1)])] * 2)
    big = classify_sigma(dA, [sq_power_chain(4), extra])
    for key, verdict in small.items():
        if verdict == "counterexample":
            assert big[key] == "counterexample", key


def test_classifier_flag_implications():
    """The strongest flag never holds evidence while a weaker one has a
    counterexample, and a bounded-side counterexample forces the unbounded
    one."""
    cases = [
        classify_sigma(dual_regular(FULL, Window(-30, 0)), [sq_power_chain(4)]),
        classify_sigma(regular(FULL, Window(0, 24)), [sq_power_chain(4)]),
        classify_sigma(regular(A1, Window(0, 6)), [sq_power_chain(2)]),
    ]
    for flags in cases:
        if flags["unboundedly"] == "evidence_holds":
            for weaker in ("strictly", "bounded_abovely", "bounded_belowly",
                           "finite_sets"):
                assert flags[weaker] != "counterexample", flags
        for side in ("bounded_abovely", "bounded_belowly"):
            if flags[side] == "counterexample":
                assert flags["unboundedly"] == "counterexample", flags


def test_ideal_span_membership():
    wi = ideal_span(HomIdeal([Element.sq(1)]), A1, Window(0, 6))
    assert wi.contains_element(Element.sq(1))
    assert not wi.contains_element(Element.sq(2))
    prod = Element.sq(2) * Element.sq(1)
    assert wi.contains_element(prod)
