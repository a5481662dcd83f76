import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import graded_homs
from steenmod import baer as B
from steenmod import catalogs as CAT
from steenmod import milnor
from steenmod.annihilator import (HomIdeal, IdealChain, ideal_span,
                                  sq_power_chain)
from steenmod.baer import (baer_test, build_witness,
                           track_destabilizing_degrees)
from steenmod.f2 import BitMatrix, Subspace
from steenmod.gmodule import (GradedModule, Window, dual_regular,
                              free_module, quotient, regular, submodule)
from steenmod.milnor import Algebra, Element

A1 = Algebra.subalgebra(1)
A2 = Algebra.subalgebra(2)
FULL = Algebra.full()


def test_hom_from_regular_is_target_degree_zero():
    w = Window(-14, 14)
    r = regular(A1, w)
    for target_name, target in [("regular", regular(A1, w)),
                                ("free00", free_module([0, 0], A1, w))]:
        for shift in range(0, 7):
            homs = graded_homs(r, target, shift)
            assert len(homs) == target.dims[shift], (target_name, shift)
            for h in homs:
                assert h.is_equivariant()


def test_hom_from_zero_module():
    from steenmod.gmodule import zero_module
    z = zero_module(A1, Window(0, 6))
    r = regular(A1, Window(0, 6))
    assert graded_homs(z, r, 0) == []


def test_no_splitting_of_socle_quotient():
    w = Window(-14, 14)
    r = regular(A1, w)
    q = quotient(r, {6: Subspace.full(1)})
    homs = graded_homs(q, r, 0)
    # exhaustive sweep of the hom space: no section of the projection
    proj = {d: None for d in w}
    for span in range(1 << len(homs)):
        mats = {}
        ok = True
        for d in w:
            if not q.dims[d]:
                continue
            acc = None
            for i, h in enumerate(homs):
                if (span >> i) & 1:
                    acc = h.mat(d) if acc is None else acc + h.mat(d)
            if acc is None:
                ok = False
                break
            # q o s = id means s composed with the quotient projection is
            # the identity; the projection here is coordinate projection on
            # every degree except the socle degree
            if d == 6:
                continue
            for j in range(q.dims[d]):
                col = oracles.column(acc, j)
                if col != (1 << j):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            pytest.fail("found a splitting of the socle quotient")


def test_baer_whole_ring_extends():
    r = regular(A1, Window(-10, 12))
    unit = HomIdeal([Element([()])])
    for shift in range(-6, 7):
        v = baer_test(unit, shift, r)
        assert v.passed, shift


def test_baer_exhaustive_catalog_on_free_targets():
    """Self-injectivity at desk scale: over A(1), every ideal extends into
    any finite coproduct of suspended copies of the regular module."""
    ideals = CAT.all_a1_ideals()
    w = Window(-14, 20)
    for shifts in [(0,), (0, 3), (-6, 6)]:
        target = free_module(shifts, A1, w)
        for idl in ideals:
            for shift in range(-8, 15):
                v = baer_test(idl, shift, target)
                assert v.status == B.EXTENDS_ALL, (idl, shifts, shift)


def test_baer_fails_on_socle_quotient():
    r = regular(A1, Window(-14, 14))
    q = quotient(r, {6: Subspace.full(1)})
    results = set()
    for idl in CAT.all_a1_ideals():
        for shift in range(-14, 9):
            results.add(baer_test(idl, shift, q).status)
    assert B.FAILS in results
    assert B.INCONCLUSIVE not in results  # window is generous enough


def test_baer_witness_map_is_genuinely_non_extendable():
    r = regular(A1, Window(-14, 14))
    q = quotient(r, {6: Subspace.full(1)})
    found = None
    for idl in CAT.all_a1_ideals():
        for shift in range(-14, 9):
            v = baer_test(idl, shift, q)
            if v.status == B.FAILS:
                found = (idl, shift, v)
                break
        if found:
            break
    idl, shift, v = found
    # no y in target^shift restricts to the witness values on the generators
    values = {gd: mask for gd, _, mask in v.witness}
    sd = q.dims[shift]
    for y in range(1 << sd):
        if all(q.action_of(g, shift).apply(y) == values[g.degree()]
               for g in idl.generators):
            pytest.fail("witness map was extendable after all")


def _ideal_module(ideal, algebra, window):
    """The ideal as a graded module: degreewise spans inside the regular
    module with the restricted action."""
    amb = regular(algebra, window)
    span = ideal_span(ideal, algebra, window)
    return submodule(amb, {d: span.space(d) for d in window if d >= 0})


def test_generator_coordinates_agree_with_dense_hom_solver():
    """The ideal-generator coordinatization and the dense equivariance
    solver compute the same map-space dimensions."""
    rng = random.Random(3)
    w = Window(-10, 12)
    r = regular(A1, w)
    q = quotient(r, {6: Subspace.full(1)})
    for idl in [HomIdeal([Element.sq(1)]),
                HomIdeal([Element.sq(2)]),
                HomIdeal([Element.sq(1), Element.sq(0, 1)])]:
        imod = _ideal_module(idl, A1, Window(0, 12))
        for target in (r, q):
            for shift in (-2, 0, 1, 4):
                dense = graded_homs(imod, target, shift)
                fast = baer_test(idl, shift, target)
                assert len(dense) == fast.hom_dim, (idl, shift)


def test_witness_constant_chain_extends():
    dA = dual_regular(FULL, Window(-20, 0))
    const = IdealChain([HomIdeal([Element.sq(1)])] * 3)
    assert not build_witness(const, dA, [2, 2, 2]).extension_fails


def test_witness_dual_regular_fails():
    dA = dual_regular(FULL, Window(-30, 0))
    chain = sq_power_chain(4)
    w = build_witness(chain, dA)
    assert w.extension_fails
    assert w.forced_stages == [0, 1, 2]
    assert w.degree_function == (2, 4, 8, 16)
    # the recorded destabilizers are re-checkable from the choice data
    for n, (deg, mask) in enumerate(w.choices):
        stage = chain.stages[n]
        for g in stage.generators:
            img = dA.action_of(g, deg).apply(mask)
            assert img == 0, (n, g)


def test_witness_regular_with_stable_choices_extends():
    """At degrees where the union perp is nonzero, choices inside it exist
    for every stage, the witness map has no forced components, and the
    extension succeeds: the bounded-family side of the dichotomy."""
    from steenmod.annihilator import chain_perp_profile

    r = regular(FULL, Window(0, 30))
    chain = sq_power_chain(3)
    prof = chain_perp_profile(chain, r)
    K = len(chain.stages) - 1
    stable_degrees = [d for d in prof.window
                      if prof.certified[d] and prof.stages[d][K].dim > 0]
    assert stable_degrees, "window too small to see the union perp"
    d0 = min(stable_degrees)
    w = build_witness(chain, r, [-d0] * (K + 1), prefer_stable=True)
    assert not w.extension_fails
    assert w.forced_stages == []


def test_witness_regular_destabilizing_tracking_marches_up():
    """Destabilizing choices in the regular module live at degrees growing
    toward the open upper edge, so the imaged suspension family is
    unbounded below; the forced-support outcome refutes only the
    unbounded-family flags, and the classifier keeps the bounded-below
    evidence structural."""
    from steenmod.annihilator import chain_perp_profile, classify_sigma

    r = regular(FULL, Window(0, 30))
    chain = sq_power_chain(3)
    prof = chain_perp_profile(chain, r)
    dfun = track_destabilizing_degrees(prof)
    assert list(dfun) == sorted(dfun)
    assert dfun[0] < 0  # degrees are positive, shifts negative
    assert classify_sigma(r, [chain])["bounded_belowly"] == "evidence_holds"


def test_track_destabilizing_degrees_matches_profile():
    from steenmod.annihilator import chain_perp_profile

    dA = dual_regular(FULL, Window(-30, 0))
    prof = chain_perp_profile(sq_power_chain(4), dA)
    dfun = track_destabilizing_degrees(prof)
    for n, dn in enumerate(dfun[:-1]):
        d = -dn
        assert prof.stages[d][n] != prof.stages[d][n + 1]


def test_verdicts_match_per_row_oracle_on_structured_catalog():
    """The cor-2-6 runs at seeds 0 and 7 (shift -t for t in -9..24 on the
    regular module over 0..32) and its direct coproduct checks give the
    same verdicts, field by field, as the per-row constraint assembly."""
    base = regular(FULL, Window(0, 32))
    ideals = {str(idl): idl for seed in (0, 7)
              for idl in CAT.structured_ideal_catalog(FULL, seed)}
    for idl in ideals.values():
        for t in range(-9, 25):
            assert (baer_test(idl, -t, base)
                    == oracles.baer_test_per_row(idl, -t, base)), (idl, t)
    for fam in [(0, 0), (0, 8), (0, 2, 5)]:
        cop = free_module(fam, FULL, Window(0, 32))
        for idl in list(ideals.values())[:4]:
            for shift in (0, 3):
                assert (baer_test(idl, shift, cop)
                        == oracles.baer_test_per_row(idl, shift, cop)), (
                            fam, idl, shift)


def test_verdicts_match_per_row_oracle_on_a1_corpus():
    """Every ideal of A(1) against every corpus module at every shift the
    faith-equiv-a1 scenario tries: equal verdicts, witnesses included."""
    witnesses = 0
    for name, module in CAT.a1_module_corpus():
        for idl in CAT.all_a1_ideals():
            for shift in range(module.window.lo - 6, module.window.hi + 1):
                v = baer_test(idl, shift, module)
                assert v == oracles.baer_test_per_row(idl, shift, module), (
                    name, idl, shift)
                witnesses += v.witness is not None
    assert witnesses > 0


def _a2_ideals_with_multi_term_generators():
    """Ideals of A(2) in which some generator has two or more terms: five
    written out, and five whose generators are drawn at random."""
    texts = ["Sq(3)+Sq(0,1)", "Sq(1);Sq(3)+Sq(0,1)", "Sq(2);Sq(6)+Sq(0,2)",
             "Sq(4)+Sq(1,1);Sq(2)",
             "Sq(5)+Sq(2,1);Sq(7)+Sq(1,2)+Sq(4,1)"]
    ideals = [HomIdeal(milnor.parse_element(t) for t in text.split(";"))
              for text in texts]
    rng = random.Random(19)
    while len(ideals) < 10:
        gens = []
        for _ in range(rng.randint(1, 3)):
            d = rng.choice([d for d in range(3, 11) if A2.dim(d) > 1])
            mask = rng.randrange(1, 1 << A2.dim(d))
            gens.append(milnor.element_from_coords(mask, d, A2))
        if any(len(g.terms) > 1 for g in gens):
            ideals.append(HomIdeal(gens))
    return ideals


def test_verdicts_match_per_row_oracle_on_a2_targets():
    """Ideals with multi-term generators against regular(A(2), 0..23),
    dual_regular(A(2), -23..0), copies of both on windows with two inexact
    edges, and the regular module modulo its socle, at every shift from
    past the bottom edge to past the top edge: equal verdicts field by
    field, witnesses included.  The cases reach both early inconclusive
    returns, shifts whose source degree has dimension 0, and failures."""
    reg = regular(A2, Window(0, 23))
    targets = [reg, dual_regular(A2, Window(-23, 0)),
               regular(A2, Window(2, 20)), dual_regular(A2, Window(-20, -2)),
               quotient(reg, {23: Subspace.full(1)})]
    notes = Counter()
    zero_source = witnesses = 0
    for target in targets:
        w = target.window
        for idl in _a2_ideals_with_multi_term_generators():
            for shift in range(w.lo - 12, w.hi + 3):
                got = baer_test(idl, shift, target)
                assert got == oracles.baer_test_per_row(idl, shift, target), (
                    idl, w, shift)
                notes[got.note] += 1
                zero_source += target.dim(shift) == 0 and any(
                    target.dim(shift + g.degree()) for g in idl.generators)
                witnesses += got.witness is not None
    assert notes["restriction source degree leaves the window"]
    assert any(n.startswith("value degree") for n in notes)
    assert zero_source > 0 and witnesses > 0, (zero_source, witnesses)


def test_generator_outside_the_algebra_raises_every_time():
    """The generator-coordinate memo keeps no entry for a failed lookup:
    Sq(8) is not in A(1), and the second call raises as the first did."""
    target = regular(A1, Window(0, 12))
    ideal = HomIdeal([Element.sq(1), Element.sq(8)])
    for _ in range(2):
        with pytest.raises(ValueError, match="outside"):
            baer_test(ideal, 0, target)
    assert (ideal.generators, A1) not in B._GEN_COORDS
    assert baer_test(HomIdeal([Element.sq(1)]), 0, target).passed


# -- the minimal presentation ---------------------------------------------------


def _gen_coords(ideal, algebra):
    return tuple((g.degree(), milnor.coords_of(g, g.degree(), algebra))
                 for g in ideal.generators)


def _presentation_totals(ideals, algebra, top):
    """Check _minimal_relations against an independent D_e at every degree
    through top; return the summed (dim R_e, dim D_e, minimal rows)."""
    totals = [0, 0, 0]
    for idl in ideals:
        key = _gen_coords(idl, algebra)
        for e in range(top + 1):
            rel, layout = B._generator_relations(key, e, algebra)
            width = len(layout)
            minimal = B._minimal_relations(key, e, algebra)
            r = Subspace.from_vectors(rel, width)
            d = Subspace.from_vectors(
                oracles.decomposable_relations(key, e, algebra), width)
            assert r.contains_subspace(d), (idl, e)
            assert set(minimal) <= set(rel), (idl, e)
            both = Subspace.from_vectors([*d.basis, *minimal], width)
            # the minimal rows span R_e with D_e, and are independent of it
            assert both == r, (idl, e)
            assert len(minimal) == r.dim - d.dim, (idl, e)
            totals[0] += r.dim
            totals[1] += d.dim
            totals[2] += len(minimal)
    return tuple(totals)


def test_relation_kernels_match_the_kernel_of_the_packed_block():
    """The relations read off the tagged columns are bit-identical to the
    kernel of the block packed from the same columns, at every degree
    through 32 of the cor-2-6 catalogs at seeds 0 and 7, of every A(1)
    ideal and of the A(2) ideals with multi-term generators."""
    cases = [(FULL, idl) for seed in (0, 7)
             for idl in CAT.structured_ideal_catalog(FULL, seed)]
    cases += [(A1, idl) for idl in CAT.all_a1_ideals()]
    cases += [(A2, idl) for idl in _a2_ideals_with_multi_term_generators()]
    nonzero = 0
    for algebra, idl in cases:
        key = _gen_coords(idl, algebra)
        for e in range(33):
            got = B._generator_relations(key, e, algebra)
            assert got == oracles.generator_relations_by_kernel(
                key, e, algebra), (idl, e)
            nonzero += bool(got[0])
    assert nonzero > 1000


def test_minimal_relations_present_the_structured_catalogs():
    """The cor-2-6 catalogs at seeds 0 and 7, over the full algebra."""
    ideals = {str(idl): idl for seed in (0, 7)
              for idl in CAT.structured_ideal_catalog(FULL, seed)}
    assert _presentation_totals(ideals.values(), FULL, 32) == (7872, 7801, 71)


def test_minimal_relations_present_every_a1_ideal():
    assert _presentation_totals(CAT.all_a1_ideals(), A1, 32) == (128, 94, 34)


@lru_cache(maxsize=None)
def _hyp_target(kind, algebra):
    """One shared module per (kind, algebra), so examples share its tables."""
    top = algebra.top_degree()
    hi = 16 if top is None else top + 4
    if kind == "regular":
        return regular(algebra, Window(-4, hi))
    if kind == "regular-open-bottom":
        return regular(algebra, Window(2, hi))
    if kind == "dual-regular":
        return dual_regular(algebra, Window(-hi, 4))
    if kind == "free":
        return free_module([0, 3], algebra, Window(-4, hi))
    assert kind == "socle-quotient"
    return quotient(regular(algebra, Window(-4, hi)), {top: Subspace.full(1)})


_HYP_ALGEBRAS = {"A": FULL, "A(1)": A1, "A(2)": A2}


@st.composite
def _baer_cases(draw):
    """(algebra, generators as (degree, mask), target kind, shift)."""
    name = draw(st.sampled_from(sorted(_HYP_ALGEBRAS)))
    algebra = _HYP_ALGEBRAS[name]
    degrees = [d for d in range(9) if algebra.dim(d)]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.sampled_from(degrees))
        gens.append((d, draw(st.integers(1, (1 << algebra.dim(d)) - 1))))
    kinds = ["regular", "regular-open-bottom", "dual-regular", "free"]
    if not algebra.is_full:
        kinds.append("socle-quotient")
    kind = draw(st.sampled_from(kinds))
    w = _hyp_target(kind, algebra).window
    shift = draw(st.integers(w.lo - 8, w.hi))
    return name, tuple(gens), kind, shift


def test_verdicts_match_per_row_oracle_on_random_ideals():
    """1-3 random homogeneous generators of degree <= 8 over A, A(1) and
    A(2), against regular modules with and without an exact bottom edge,
    dual regular modules, a free coproduct and the socle quotient: equal
    verdicts field by field, witnesses included.  Every status occurs."""
    statuses = Counter()

    @settings(max_examples=400, deadline=None)
    @given(_baer_cases())
    @example(("A(1)", ((1, 1),), "socle-quotient", 4))
    @example(("A(1)", ((1, 1),), "regular-open-bottom", 0))
    @example(("A", ((0, 1),), "regular", 0))
    def check(case):
        name, gens, kind, shift = case
        algebra = _HYP_ALGEBRAS[name]
        ideal = HomIdeal(milnor.element_from_coords(mask, d, algebra)
                         for d, mask in gens)
        target = _hyp_target(kind, algebra)
        got = baer_test(ideal, shift, target)
        assert got == oracles.baer_test_per_row(ideal, shift, target)
        statuses[got.status] += 1

    check()
    assert set(statuses) == {B.EXTENDS_ALL, B.FAILS, B.INCONCLUSIVE}, statuses


def _profile_case(name):
    """A module and a chain: the dual regular module, a finite regular
    module, and ι of the criterion-7 spec whose generators run to the
    lower window edge."""
    from steenmod.comodule import ExtendedSpec, extended, iota

    if name == "dual_regular":
        return dual_regular(FULL, Window(-30, 0)), sq_power_chain(4)
    if name == "regular_a1":
        return regular(A1, Window(0, 6)), sq_power_chain(2)
    spec = ExtendedSpec({-7 * k: 1 for k in range(4)})
    return iota(extended(spec, FULL, Window(-30, 0))), sq_power_chain(4)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("name", ["dual_regular", "regular_a1",
                                  "iota_criterion_7"])
def test_passed_profile_gives_the_same_results(name):
    from steenmod.annihilator import chain_perp_profile, classify_sigma

    m, chain = _profile_case(name)
    prof = chain_perp_profile(chain, m)
    K = len(chain) - 1
    stable = max(d for d in prof.window
                 if prof.certified[d] and prof.stages[d][K].dim)
    for kwargs in ({}, {"degree_function": [-stable] * (K + 1),
                        "prefer_stable": True}):
        want = _outcome(build_witness, chain, m, **kwargs)
        got = _outcome(build_witness, chain, m, profile=prof, **kwargs)
        assert got == want, kwargs
    assert classify_sigma(m, [chain], [prof]) == classify_sigma(m, [chain])


def test_mismatched_profile_is_rejected():
    """A profile of another window or chain length is refused up front; so
    is, at the first forced stage, a profile of another module on the same
    window, here one where the algebra acts trivially, since no union
    generator moves a pick that the profile puts outside the union's perp."""
    from steenmod.annihilator import chain_perp_profile, classify_sigma

    m = dual_regular(FULL, Window(-30, 0))
    chain = sq_power_chain(4)
    other_window = chain_perp_profile(chain, dual_regular(FULL, Window(-20, 0)))
    other_stages = chain_perp_profile(sq_power_chain(3), m)
    for prof in (other_window, other_stages):
        with pytest.raises(ValueError, match="profile covers"):
            build_witness(chain, m, profile=prof)
        with pytest.raises(ValueError, match="profile covers"):
            classify_sigma(m, [chain], [prof])
    with pytest.raises(ValueError, match="1 profiles for 2 chains"):
        classify_sigma(m, [chain, chain], [other_window])
    trivial = GradedModule(
        FULL, m.window, dict(m.dims),
        lambda seq, d: BitMatrix.zero(m.dims[d + milnor.degree(seq)],
                                      m.dims[d]),
        m.bottom_exact, m.top_exact)
    with pytest.raises(ValueError, match="does not belong to the module"):
        build_witness(chain, trivial,
                      profile=chain_perp_profile(chain, m))


@pytest.mark.parametrize("scenario", ["prop-3-1", "iota-failure"])
def test_scenarios_compute_each_profile_once(scenario, monkeypatch):
    """Every chain_perp_profile call of the scenario, through any module's
    binding, is counted per (chain, module) pair."""
    import sys

    from steenmod import annihilator, scenarios

    calls: dict[tuple[int, int], int] = {}
    real = annihilator.chain_perp_profile

    def counted(chain, m):
        key = (id(chain), id(m))
        calls[key] = calls.get(key, 0) + 1
        return real(chain, m)
    for name, mod in list(sys.modules.items()):
        if (name.startswith("steenmod")
                and getattr(mod, "chain_perp_profile", None) is real):
            monkeypatch.setattr(mod, "chain_perp_profile", counted)
    rep = scenarios.run_scenario(scenario, scenarios.ScenarioConfig())
    assert rep.status == scenarios.OK
    assert list(calls.values()) == [1]
