import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from steenmod import catalogs
from steenmod import gmodule as G
from steenmod import milnor as M
from steenmod.annihilator import HomIdeal, ideal_span
from steenmod.comodule import ExtendedSpec, extended, iota
from steenmod.f2 import BitMatrix, Subspace
from steenmod.gmodule import (Window, coproduct, dual_regular, free_module,
                              freeness_test, quotient, regular, submodule,
                              zero_module)
from steenmod.milnor import Algebra, Element

A0 = Algebra.subalgebra(0)
A1 = Algebra.subalgebra(1)
A2 = Algebra.subalgebra(2)
FULL = Algebra.full()


def test_window_basics():
    w = Window(-3, 4)
    assert -3 in w and 4 in w and 5 not in w
    assert list(w) == list(range(-3, 5))
    with pytest.raises(ValueError):
        Window(2, 1)


def test_regular_a1_dims_and_validity():
    r = regular(A1, Window(0, 6))
    assert [r.dims[d] for d in range(7)] == [1, 1, 1, 2, 1, 1, 1]
    assert r.validate() == []
    assert r.bottom_exact and r.top_exact


def test_zero_module_valid():
    z = zero_module(A1, Window(0, 6))
    assert z.validate() == [] and z.total_dim() == 0


def test_validate_detects_flipped_bit():
    r = regular(A1, Window(0, 6))
    seq, d = (1,), 2  # Sq(1): M^2 -> M^3
    mat = r.action_table()[(seq, d)]
    flipped = BitMatrix(mat.nrows, mat.ncols, [mat.rows[0] ^ 1] + list(mat.rows[1:]))
    actions = dict(r.action_table())
    actions[(seq, d)] = flipped
    bad = G.GradedModule(A1, r.window, dict(r.dims),
                         oracles.table_source(actions), True, True)
    assert bad.validate() != []


def _flip_one_bit(m, key, rng):
    """A copy of m, read from a table, with one bit of the action at key
    flipped."""
    actions = dict(m.action_table())
    mat = actions[key]
    rows = list(mat.rows)
    rows[rng.randrange(mat.nrows)] ^= 1 << rng.randrange(mat.ncols)
    actions[key] = BitMatrix(mat.nrows, mat.ncols, rows)
    return G.GradedModule(m.algebra, m.window, dict(m.dims),
                          oracles.table_source(actions),
                          m.bottom_exact, m.top_exact)


def _flip_action_bits(m, rng):
    """A copy of m, read from a table, with one to three action bits
    flipped."""
    keys = sorted(m.action_table())
    for _ in range(rng.randint(1, 3)):
        m = _flip_one_bit(m, rng.choice(keys), rng)
    return m


@pytest.mark.parametrize("name", ["regular", "dual_regular", "iota", "a2"])
def test_validate_matches_dense_oracle_on_flipped_tables(name):
    """Seeded bit flips of module tables: the row-level composition check
    reports exactly the dense BitMatrix oracle's violations, in order."""
    from steenmod.comodule import ExtendedSpec, extended, iota
    m = {"regular": lambda: regular(FULL, Window(0, 14)),
         "dual_regular": lambda: dual_regular(FULL, Window(-14, 0)),
         "iota": lambda: iota(extended(ExtendedSpec({0: 1, -2: 1}), FULL,
                                       Window(-14, 0))),
         "a2": lambda: regular(A2, Window(0, 14))}[name]()
    assert m.validate() == oracles.validate_composition_dense(m) == []
    rng = random.Random(len(name))
    caught = 0
    for _ in range(40):
        mutant = _flip_action_bits(m, rng)
        bad = mutant.validate()
        assert bad == oracles.validate_composition_dense(mutant)
        caught += bool(bad)
    assert caught > 20


def _square_pass_is_clean(m):
    """Whether validate's first pass, over the pairs (Sq(2^i), c), finds
    nothing."""
    return next(m._composition_failures(G._is_square), None) is None


@pytest.mark.parametrize("name", ["regular", "dual_regular", "iota",
                                  "a1", "a2"])
def test_square_pairs_decide_validity(name):
    """The Sq(2^i) generate the algebra, so the pass over pairs
    (Sq(2^i), c) is clean exactly when the check of every pair is: on
    seeded random flips, and on one flip of each square's action at each
    degree."""
    from steenmod.comodule import ExtendedSpec, extended, iota
    m = {"regular": lambda: regular(FULL, Window(0, 12)),
         "dual_regular": lambda: dual_regular(FULL, Window(-12, 0)),
         "iota": lambda: iota(extended(ExtendedSpec({0: 1, -2: 1}), FULL,
                                       Window(-12, 0))),
         "a1": lambda: regular(A1, Window(0, 6)),
         "a2": lambda: regular(A2, Window(0, 12))}[name]()
    assert _square_pass_is_clean(m)
    rng = random.Random(7 * len(name))
    mutants = [_flip_action_bits(m, rng) for _ in range(25)]
    mutants += [_flip_one_bit(m, key, rng) for key in sorted(m.action_table())
                if G._is_square(key[0])]
    caught = 0
    for mutant in mutants:
        full_pass = oracles.validate_composition_dense(mutant)
        assert _square_pass_is_clean(mutant) == (full_pass == [])
        caught += bool(full_pass)
    assert caught > len(mutants) // 2


def test_valid_module_runs_only_the_square_pass(monkeypatch):
    """Validating a module makes one kernel product per (Sq(2^i), c,
    degree) and no more: the pass over every pair never runs."""
    m = regular(FULL, Window(0, 20))
    expected = 0
    for kc in range(1, 21):
        for kb in (1, 2, 4, 8, 16):
            if kb + kc <= 20:
                expected += len(FULL.basis(kc)) * sum(
                    1 for d in range(0, 21 - kb - kc)
                    if m.dims[d] and m.dims[d + kb + kc])
    calls = []
    kernel = G.mul_rows

    def counting(a, b):
        calls.append(None)
        return kernel(a, b)
    monkeypatch.setattr(G, "mul_rows", counting)
    assert m.validate() == []
    assert len(calls) == expected


def test_free_module_dims():
    f = free_module([0], A1, Window(0, 6))
    assert [f.dims[d] for d in range(7)] == [1, 1, 1, 2, 1, 1, 1]
    assert free_module([], A1,
                       Window(0, 6)).total_dim() == 0
    f2 = free_module([0, 0], A1, Window(0, 6))
    assert [f2.dims[d] for d in range(7)] == [2, 2, 2, 4, 2, 2, 2]


def test_suspend_examples():
    r = regular(A1, Window(0, 6))
    assert r.suspend(0) == r
    up = r.suspend(5)
    assert up.window == Window(5, 11)
    assert up.dims[11] == 1  # top class lands at 6 + 5
    assert up.suspend(-5) == r


def test_coproduct_dims_additive_and_block_sum():
    """Four copies of the dual regular module at shifts 0, -7, -14, -21:
    non-overlapping blocks whose dims match the by-hand sum."""
    w = Window(-27, 0)
    parts = [(dual_regular(A1, w.shift(7 * n)), -7 * n) for n in range(4)]
    cop = coproduct(parts)
    assert cop.window == w
    for d in w:
        want = sum(A1.dim(-(d + 7 * n)) for n in range(4)
                   if -6 <= d + 7 * n <= 0)
        assert cop.dims[d] == want, d
    assert cop.validate() == []


def test_coproduct_single_part_identity():
    r = regular(A1, Window(0, 6))
    assert coproduct([(r, 0)]) == r


def test_dual_regular_defining_identity():
    """(a . f)(b) = f(b a) for all basis pairs, exhaustively on the window."""
    for alg in (A1, FULL):
        w = Window(-8, 0)
        dr = dual_regular(alg, w)
        for k in range(1, 8):
            for a_seq in alg.basis(k):
                a = Element([a_seq])
                for d in w:
                    if d + k not in w or not dr.dims[d] or not dr.dims[d + k]:
                        continue
                    mat = dr.action(a_seq, d)
                    src_basis = alg.basis(-d)
                    dst_basis = alg.basis(-d - k)
                    for ci, c_seq in enumerate(src_basis):
                        out = oracles.column(mat, ci)  # a . (dual of c)
                        for bi, b_seq in enumerate(dst_basis):
                            prod = Element([b_seq]) * a
                            want = int(c_seq in prod.terms)
                            assert (out >> bi) & 1 == want


def _table_from_products(algebra, window, product, dual=False):
    """Action table assembled column by column from a Milnor product
    (``oracles.milnor_product_unpruned``, not the engine's walk):
    the column of basis monomial c holds product(seq, c), or, for the dual
    regular module, has bit b set when c is a term of product(seq, b)."""
    table = {}
    for k in range(1, window.width + 1):
        for seq in algebra.basis(k):
            for d in window:
                if d + k not in window:
                    continue
                if dual:
                    src, dst = algebra.basis(-d), algebra.basis(-d - k)
                    cols = [sum(1 << i for i, b in enumerate(dst)
                                if c in product(seq, b))
                            for c in src]
                else:
                    src, dst = algebra.basis(d), algebra.basis(d + k)
                    cols = [M.coords_of(Element(product(seq, c)), d + k, algebra)
                            for c in src]
                if src and dst:
                    table[(seq, d)] = BitMatrix.from_columns(cols, len(dst))
    return table


_product = oracles.milnor_product_unpruned


def _right(a, b):
    return _product(b, a)


def _opposite_regular(algebra, window):
    """The algebra acting on itself by right multiplication on window, which
    is the regular module of the opposite algebra: the transpose dual of
    the dual regular module on the mirrored window, which the freeness
    test reads mirrored.  Its tables are checked here; it is not a left
    module."""
    return oracles.transpose_dual(
        dual_regular(algebra, Window(-window.hi, -window.lo)))


def test_memoized_tables_match_products():
    w = Window(0, 16)
    first = regular(FULL, w)
    assert first.action_table() == _table_from_products(FULL, w, _product)
    again = regular(FULL, w)
    assert again == first
    # the left-multiplication memo shares one matrix per key
    assert all(again.action_table()[key] is mat
               for key, mat in first.action_table().items())

    right = _opposite_regular(FULL, w)
    assert right.action_table() == _table_from_products(FULL, w, _right)
    assert _opposite_regular(FULL, w) == right
    dw = Window(-16, 0)
    assert dual_regular(FULL, dw).action_table() == _table_from_products(
        FULL, dw, _right, dual=True)


def _explicit(like, table, window=None, algebra=None):
    """A module with like's dims and flags (moved to window when given)
    whose action table is built up front and read through its source."""
    window = like.window if window is None else window
    dims = dict(zip(window, like.dims.values()))
    return G.GradedModule(algebra or like.algebra, window, dims,
                          oracles.table_source(table),
                          like.bottom_exact, like.top_exact)


def _eager_regular(algebra, window, right=False):
    """regular(), or _opposite_regular() when right, with its table built
    up front from the products."""
    table = _table_from_products(algebra, window,
                                 _right if right else _product)
    lazy = (_opposite_regular if right else regular)(algebra, window)
    return _explicit(lazy, table)


def _eager_dual_regular(algebra, window):
    table = _table_from_products(algebra, window, _right, dual=True)
    return _explicit(dual_regular(algebra, window), table)


def _assert_same(lazy, eager):
    assert lazy.action_table() == eager.action_table()
    assert lazy == eager


@pytest.mark.parametrize("algebra, hi, sub", [(FULL, 16, A2), (A2, 23, A1),
                                              (A1, 10, A0)],
                         ids=["full", "A2", "A1"])
def test_forced_tables_match_eager_references(algebra, hi, sub):
    """Every lazily sourced constructor forces the same table as a reference
    built up front: from the oracle's Milnor products, or by the eager
    coproduct, submodule, quotient and comodule embedding of
    tests/oracles.py."""
    w = Window(0, hi)
    ref = _eager_regular(algebra, w)
    ref_table = ref.action_table()
    _assert_same(regular(algebra, w), ref)
    _assert_same(_opposite_regular(algebra, w),
                 _eager_regular(algebra, w, right=True))
    dw = Window(-hi, 0)
    ref_dual = _eager_dual_regular(algebra, dw)
    _assert_same(dual_regular(algebra, dw), ref_dual)

    shifts = [0, 3, 3, -2]
    _assert_same(free_module(shifts, algebra, w),
                 oracles.coproduct_eager(
                     [(_eager_regular(algebra, w.shift(-s)), s)
                      for s in sorted(shifts)]))
    _assert_same(coproduct([(regular(algebra, w), 0),
                            (dual_regular(algebra, dw), hi)]),
                 oracles.coproduct_eager([(ref, 0), (ref_dual, hi)]))

    _assert_same(regular(algebra, w).suspend(5), _explicit(
        ref, {(seq, d + 5): m for (seq, d), m in ref_table.items()},
        w.shift(5)))
    _assert_same(regular(algebra, w).restrict_to(sub), _explicit(
        ref, {key: m for key, m in ref_table.items() if sub.contains(key[0])},
        algebra=sub))
    _assert_same(oracles.transpose_dual(regular(algebra, w)), G.GradedModule(
        algebra, dw, {d: ref.dims[-d] for d in dw},
        oracles.table_source({(seq, -d - M.degree(seq)): m.transpose()
                              for (seq, d), m in ref_table.items()}),
        ref.top_exact, ref.bottom_exact))

    rng = random.Random(hi)
    for m in (regular(algebra, w), _opposite_regular(algebra, w),
              dual_regular(algebra, dw)):
        # generators in the upper half generate a proper submodule
        degrees = [d for d in m.window if m.dims[d]]
        gens = [(d, rng.randrange(1, 1 << m.dims[d]))
                for d in rng.sample(degrees[len(degrees) // 2:], 2)]
        spaces = _generated_family(m, gens)
        sub_m = submodule(m, spaces)
        assert 0 < sub_m.total_dim() < m.total_dim()
        _assert_same(sub_m, oracles.submodule_eager(m, spaces))
        _assert_same(quotient(m, spaces), oracles.quotient_eager(m, spaces))

    # the two comodules of the embedding criterion's acceptance test
    for v_dims, cw in (({0: 1, -2: 1}, Window(-20, 0)),
                       ({-7 * k: 1 for k in range(4)}, Window(-30, 0))):
        c = extended(ExtendedSpec(v_dims), algebra, cw)
        _assert_same(iota(c), oracles.iota_eager(c))


@pytest.mark.parametrize("name", ["a1", "a1_dual", "full", "full_opposite"])
def test_closure_errors_match_eager_references(name):
    """Seeded families that are not invariant raise, at construction, the
    message of the eager reference: random families on a module, and on a
    copy of it with a bit flipped in the action of a monomial that is not
    a square, the family generated in the module by the flipped column's
    basis vector, which a check of the squares alone would pass.  Families
    that are closed force the reference's table."""
    seed, m = {"a1": (1, regular(A1, Window(0, 6))),
               "a1_dual": (2, dual_regular(A1, Window(-6, 0))),
               "full": (3, regular(FULL, Window(0, 10))),
               "full_opposite": (4, _opposite_regular(FULL,
                                                      Window(0, 10)))}[name]
    rng = random.Random(seed)
    degrees = [d for d in m.window if m.dims[d]]
    cases = []
    for _ in range(20):
        spaces = {}
        for d in rng.sample(degrees, rng.randint(1, 3)):
            spaces[d] = Subspace.from_vectors(
                [rng.randrange(1, 1 << m.dims[d])], m.dims[d])
        cases.append((m, spaces))
    table = m.action_table()
    non_squares = [key for key in sorted(table) if not G._is_square(key[0])]
    for _ in range(20):
        key = rng.choice(non_squares)
        mat = table[key]
        col = rng.randrange(mat.ncols)
        rows = list(mat.rows)
        rows[rng.randrange(mat.nrows)] ^= 1 << col
        flipped = dict(table)
        flipped[key] = BitMatrix(mat.nrows, mat.ncols, rows)
        cases.append((_explicit(m, flipped),
                      _generated_family(m, [(key[1], 1 << col)])))
    raised = []
    for base, spaces in cases:
        for build, eager in ((submodule, oracles.submodule_eager),
                             (quotient, oracles.quotient_eager)):
            try:
                ref = eager(base, spaces)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    build(base, spaces)
                assert str(got.value) == str(exc)
                raised.append(base is not m)
            else:
                _assert_same(build(base, spaces), ref)
    assert raised.count(False) > 20 and raised.count(True) >= 4


@pytest.mark.parametrize("build", [
    lambda: regular(FULL, Window(0, 24)),
    lambda: dual_regular(FULL, Window(-24, 0)).suspend(24),
    lambda: free_module([0, 2, 2], FULL, Window(0, 24)),
    lambda: regular(A2, Window(0, 24)).restrict_to(A1).suspend(-1).suspend(1),
    lambda: oracles.transpose_dual(dual_regular(FULL, Window(-24, 0))),
], ids=["regular", "dual-suspended", "free", "restricted", "dual-of"])
def test_one_read_builds_one_matrix(build):
    """Constructors build nothing up front: reading one action of a fresh
    module leaves exactly one entry in its memo."""
    m = build()
    assert m.actions == {}
    mat = m.action((0, 1), 4)
    assert m.actions == {((0, 1), 4): mat}
    assert m.action((0, 1), 4) is mat


def test_monomial_outside_the_algebra_is_refused():
    r = regular(A2, Window(0, 20)).restrict_to(A1)
    assert r.action((2,), 1) == regular(A1, Window(0, 20)).action((2,), 1)
    with pytest.raises(ValueError, match=r"Sq\(4,\) is not in"):
        r.action((4,), 1)


def _no_source(seq, d):
    raise AssertionError(f"source read for Sq{seq} at degree {d}")


def test_a_read_past_an_inexact_edge_leaves_the_window():
    """A key whose other degree lies past an edge that is not exact
    raises, even where the end inside the window has dimension 0; past an
    exact edge the same key is a zero-shape read."""
    dims = {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}
    loose = G.GradedModule(A1, Window(0, 4), dims, _no_source)
    for seq, d in [((2,), -1), ((3,), 3), ((3, 1), -4), ((1,), 4)]:
        with pytest.raises(ValueError, match=rf"at degree {d} leaves the "
                                             r"window"):
            loose.action(seq, d)
    exact = G.GradedModule(A1, Window(0, 4), dims, _no_source, True, True)
    assert exact.action((2,), -1) == BitMatrix.zero(0, 0)
    assert exact.action((3,), 3) == BitMatrix.zero(0, 0)
    assert exact.action((1,), 4) == BitMatrix.zero(0, 1)
    # the dual of A(1) above -2: degree -7 has dimension 0, but -1 is
    # past the top edge, which is not exact
    dr = dual_regular(A1, Window(-12, -2))
    assert dr.dims[-7] == 0 and not dr.top_exact
    with pytest.raises(ValueError, match="leaves the window"):
        dr.action((3, 1), -7)
    assert dr.action((3, 1), -8) == BitMatrix.zero(1, 0)
    assert exact.actions == loose.actions == dr.actions == {}


@pytest.mark.parametrize("build", [
    lambda: regular(A1, Window(0, 10)),
    lambda: dual_regular(A1, Window(-12, -2)),
    lambda: free_module([0, 9], A1, Window(0, 12)),
    lambda: iota(extended(ExtendedSpec({0: 1, -9: 1}), A1, Window(-14, 0))),
], ids=["regular", "dual", "free-gap", "iota-gap"])
def test_zero_shape_and_unit_reads_stay_out_of_the_memo(build):
    """Every read with a zero dimension at either end returns
    BitMatrix.zero(td, sd), the unit returns the identity, and neither
    enters ``actions``: the memo keys stay exactly the required keys."""
    m = build()
    w = m.window
    zero_reads = 0
    for k in range(0, w.width + 1):
        for seq in A1.basis(k):
            for d in range(w.lo, w.hi + 1 - k):
                sd, td = m.dims[d], m.dims[d + k]
                if k and sd and td:
                    continue
                mat = m.action(seq, d)
                if k:
                    assert mat == BitMatrix.zero(td, sd)
                    zero_reads += 1
                else:
                    assert mat == BitMatrix.identity(sd)
    assert zero_reads and m.actions == {}
    required = set(G._required_action_keys(A1, w, m.dims))
    assert set(m.action_table()) == required
    for seq, d in required:
        assert m.action(seq, d).shape == (m.dims[d + M.degree(seq)], m.dims[d])
    assert set(m.actions) == required


def test_monomials_outside_a_finite_algebra_raise_on_every_module():
    """Over A(1), a monomial outside it raises wherever both dimensions
    are nonzero; over the full algebra no monomial is refused."""
    r = regular(A1, Window(0, 10))
    for seq, d in [((4,), 0), ((5,), 1), ((0, 2), 0), ((4,), 2)]:
        assert r.dims[d] and r.dims[d + M.degree(seq)]
        with pytest.raises(ValueError, match=rf"Sq\({seq[0]},.*is not in "
                                             r"A\(1\)"):
            r.action(seq, d)
    assert r.actions == {}
    f = regular(FULL, Window(0, 10))
    assert f.action((4,), 0).shape == (2, 1)
    assert f.action((0, 0, 1), 0).shape == (4, 1)


def test_table_keys_the_header_does_not_call_for_are_not_printed():
    """A module reads its source only at the keys the header calls for,
    so a table source that also holds the unit, a monomial outside the
    algebra or a key with a zero dimension prints exactly the required
    blocks, and the print parses back to an equal module."""
    from steenmod import textio
    r = regular(A1, Window(0, 3))
    table = dict(r.action_table())
    table[((), 0)] = BitMatrix.identity(1)
    # keys with a zero dimension at either end
    table[((4,), 0)] = BitMatrix.zero(0, 1)
    table[((1,), 5)] = BitMatrix.zero(0, 0)
    m = G.GradedModule(A1, r.window, dict(r.dims),
                       oracles.table_source(table), r.bottom_exact,
                       r.top_exact)
    assert m.action_table() == r.action_table()
    assert textio.print_module(m) == textio.print_module(r)
    assert textio.parse_module(textio.print_module(m)) == m
    # a monomial outside the algebra: the full table handed to A(0)
    f = regular(FULL, Window(0, 4))
    m = G.GradedModule(A0, f.window, dict(f.dims),
                       oracles.table_source(f.action_table()), True)
    text = textio.print_module(m)
    assert set(m.actions) == set(G._required_action_keys(A0, f.window,
                                                         m.dims))
    assert [line for line in text.split("\n")
            if line.startswith("action ")] == ["action Sq(1)"]
    assert text.count("\n@ ") == len(m.actions) == 4
    assert textio.parse_module(text) == m


def test_every_explicit_table_module_reprints_to_a_parse():
    from steenmod import textio
    r = regular(A1, Window(0, 6))
    explicit = [
        G.GradedModule(A1, r.window, dict(r.dims),
                       oracles.table_source(dict(r.action_table())),
                       r.bottom_exact, r.top_exact),
        zero_module(A1, Window(0, 3)),
        oracles.coproduct_eager([(r, 0), (r, 2)]),
        oracles.iota_eager(extended(ExtendedSpec({0: 1, -2: 1}), A1,
                                    Window(-8, 0))),
        textio.parse_module(textio.print_module(
            dual_regular(FULL, Window(-8, 0)))),
    ]
    for m in explicit:
        text = textio.print_module(m)
        assert textio.parse_module(text) == m
        assert textio.print_module(textio.parse_module(text)) == text


def test_source_of_wrong_shape_is_refused():
    r = regular(A1, Window(0, 6))

    def source(seq, d):
        mat = r.action(seq, d)
        if (seq, d) == ((1,), 2):
            return BitMatrix.zero(mat.nrows + 1, mat.ncols)
        return mat

    def bad():
        return G.GradedModule(A1, r.window, dict(r.dims), source, True, True)

    where = r"Sq\(1,\) at degree 2 has shape \(3, 1\), expected \(2, 1\)"
    with pytest.raises(ValueError, match=where):
        bad().action((1,), 2)
    with pytest.raises(ValueError, match=where):
        bad() == r
    with pytest.raises(ValueError, match=where):
        r == bad()
    with pytest.raises(ValueError, match=where):
        bad().validate()
    m = bad()
    assert m.action((1,), 1) == r.action((1,), 1)
    assert m.actions == {((1,), 1): r.action((1,), 1)}
    # validation forces the whole table, even keys no composition reads
    short = G.GradedModule(A1, Window(0, 1), {0: 1, 1: 1},
                           lambda seq, d: BitMatrix.zero(2, 1))
    with pytest.raises(ValueError, match=r"Sq\(1,\) at degree 0"):
        short.validate()


def test_dual_regular_dims_mirror():
    dr = dual_regular(A1, Window(-6, 0))
    assert [dr.dims[d] for d in range(-6, 1)] == [1, 1, 1, 2, 1, 1, 1]
    one = dr.action((), -3)
    assert one == BitMatrix.identity(2)


def test_minimal_generators_examples():
    f = free_module([0, 0, 3], A1, Window(0, 9))
    assert freeness_test(f).generator_degrees == {0: 2, 3: 1}
    r = regular(A2, Window(0, 23))
    assert freeness_test(r).generator_degrees == {0: 1}
    z = zero_module(A1, Window(0, 4))
    assert freeness_test(z).generator_degrees == {}


def test_freeness_regular_and_socle_quotient():
    r = regular(A1, Window(0, 6))
    v = freeness_test(r)
    assert v.is_free and v.generator_degrees == {0: 1}
    q = quotient(r, {6: Subspace.full(1)})
    vq = freeness_test(q)
    assert vq.status == "not_free"
    assert q.total_dim() == 7  # not a multiple of 8


def test_freeness_recovers_generators():
    rng = random.Random(6)
    for n in (0, 1, 2):
        alg = Algebra.subalgebra(n)
        top = alg.top_degree()
        for _ in range(3):
            shifts = sorted(rng.randint(-3, 3)
                            for _ in range(rng.randint(1, 4)))
            w = Window(min(shifts) - 1, max(shifts) + top + 1)
            f = free_module(shifts, alg, w)
            v = freeness_test(f)
            counts = {}
            for s in shifts:
                counts[s] = counts.get(s, 0) + 1
            assert v.is_free and v.generator_degrees == counts, (n, shifts)


def test_freeness_dual_regular_single_top_generator():
    for n in (0, 1, 2):
        alg = Algebra.subalgebra(n)
        top = alg.top_degree()
        dr = dual_regular(alg, Window(-top, 0))
        v = freeness_test(dr)
        assert v.is_free and v.generator_degrees == {-top: 1}, n


def test_freeness_full_restricted_to_a1():
    rf = regular(FULL, Window(0, 20))
    v = freeness_test(rf, A1)
    assert v.is_free
    assert all(g >= 0 for g in v.generator_degrees)
    drf = dual_regular(FULL, Window(-20, 0))
    vd = freeness_test(drf, A1)
    assert vd.is_free
    assert all(g <= 0 for g in vd.generator_degrees)


def test_freeness_full_restricted_to_a2():
    rf = regular(FULL, Window(0, 20))
    v = freeness_test(rf, A2)
    assert v.is_free
    assert all(g >= 0 for g in v.generator_degrees)
    drf = dual_regular(FULL, Window(-20, 0))
    vd = freeness_test(drf, A2)
    assert vd.is_free
    assert all(g <= 0 for g in vd.generator_degrees)


def test_freeness_witness_names_degrees_of_a_bounded_above_module():
    """A bounded-above module is tested through its transpose dual; the
    witness, like the generator and certified degrees, names the module's
    own degrees, mirrored from the dual's in the dual's order."""
    m = quotient(dual_regular(FULL, Window(-20, 0)), {0: Subspace.full(1)})
    v = freeness_test(m, A1)
    assert v.status == "not_free"
    assert v.certified_degrees == tuple(range(-20, 1))
    assert v.witness == ("degree -2: free rank 2 != module dim 1; "
                         "degree -4: free rank 4 != module dim 2; "
                         "degree -5: free rank 4 != module dim 2")
    assert (m.dims[-2], m.dims[-4], m.dims[-5]) == (1, 2, 2)


def _with_flipped_bit(m, seq, d, i, j):
    """m read from a copy of its action table with bit (i, j) of Sq(seq)
    at d flipped."""
    table = dict(m.action_table())
    mat = table[(seq, d)]
    rows = list(mat.rows)
    rows[i] ^= 1 << j
    table[(seq, d)] = BitMatrix(mat.nrows, mat.ncols, rows)
    return G.GradedModule(m.algebra, m.window, dict(m.dims),
                          oracles.table_source(table),
                          m.bottom_exact, m.top_exact)


def test_freeness_witness_canonical_map_drops_rank():
    """A flipped bit in Sq(3)'s action leaves every dimension matched but
    the generator's images dependent three degrees up, on either side."""
    r = _with_flipped_bit(regular(A1, Window(0, 6)), (3,), 0, 1, 0)
    v = freeness_test(r)
    assert (v.status, v.witness) == (
        "not_free", "degree 3: canonical map drops rank")
    dr = _with_flipped_bit(dual_regular(A1, Window(-6, 0)), (3,), -6, 0, 0)
    v = freeness_test(dr)
    assert (v.status, v.witness) == (
        "not_free", "degree -3: canonical map drops rank")


@lru_cache(maxsize=None)
def _bounded_above_cases():
    """Modules exact at the top edge only, free and not, each with the
    subalgebra the freeness test runs over."""
    dr = dual_regular(FULL, Window(-20, 0))
    return [
        ("dual-regular-a1", dual_regular(A1, Window(-5, 0)), A1),
        ("dual-regular-a2", dual_regular(A2, Window(-20, 0)), A2),
        ("dual-regular-full-over-a1", dr, A1),
        ("dual-regular-full-over-a2", dr, A2),
        ("dual-regular-mod-top", quotient(dr, {0: Subspace.full(1)}), A1),
        ("iota", iota(extended(ExtendedSpec({0: 1, -2: 1}), FULL,
                               Window(-20, 0))), A1),
    ]


@pytest.mark.parametrize("name", [c[0] for c in _bounded_above_cases()])
def test_mirrored_freeness_view_matches_the_transpose_dual_module(name):
    """Reading a bounded-above module mirrored, through its own rows,
    gives the generators and failures that reading its transpose dual,
    built as a module with transposed matrices, gives."""
    m, sub = next((m, sub) for n, m, sub in _bounded_above_cases()
                  if n == name)
    m = m.restrict_to(sub)
    ref = oracles.transpose_dual(m)
    assert (G._freeness_bottom_anchored(m, True)
            == G._freeness_bottom_anchored(ref, False))


def test_bounded_above_freeness_transposes_no_matrix(monkeypatch):
    """The freeness test reads a bounded-above module's own action rows:
    with every action matrix already built, it transposes none."""
    for name, m, sub in _bounded_above_cases():
        m = m.restrict_to(sub)
        assert m.top_exact and not m.bottom_exact, name
        m.action_table()
        want = freeness_test(m)

        def refuse(self):
            raise AssertionError(f"{name}: transposed an action matrix")
        with monkeypatch.context() as patch:
            patch.setattr(BitMatrix, "transpose", refuse)
            got = freeness_test(m)
        assert (got.status, got.generator_degrees, got.witness,
                got.certified_degrees) == (
                    want.status, want.generator_degrees, want.witness,
                    want.certified_degrees), name


def test_freeness_compares_past_an_exact_top_edge():
    """A module exact at its top edge is zero past it, so a generator
    whose copy of the algebra reaches past the edge cannot be free: the
    left ideal of A(1) spanned by its top class is one-dimensional."""
    w = Window(0, 6)
    span = ideal_span(HomIdeal([Element.sq(3, 1)]), A1, w)
    m = submodule(regular(A1, w), {d: span.space(d) for d in w})
    assert m.total_dim() == 1 and m.top_exact
    v = freeness_test(m)
    assert v.status == "not_free"
    assert v.generator_degrees == {6: 1}
    assert v.certified_degrees == tuple(range(0, 7))
    assert v.witness == ("degree 7: free rank 1 != module dim 0; "
                         "degree 8: free rank 1 != module dim 0; "
                         "degree 9: free rank 2 != module dim 0")


def test_freeness_inconclusive_without_anchor():
    from steenmod.milnor import degree as seq_degree

    r = regular(A1, Window(0, 6))
    mid_window = Window(1, 5)
    mid = G.GradedModule(
        A1, mid_window,
        {d: r.dims[d] for d in mid_window},
        oracles.table_source(
            {(seq, d): mat for (seq, d), mat in r.action_table().items()
             if d in mid_window and d + seq_degree(seq) in mid_window}),
        bottom_exact=False, top_exact=False)
    v = freeness_test(mid)
    assert v.status == "window_inconclusive"


def test_dual_of_roundtrip():
    """The transpose dual mirrors the window and the exactness flags, and
    taking it twice gives the module back."""
    r = regular(A1, Window(0, 4))
    d = oracles.transpose_dual(r)
    assert d.window == Window(-4, 0) and d.top_exact and not d.bottom_exact
    assert (d.bottom_exact, d.top_exact) == (r.top_exact, r.bottom_exact)
    assert oracles.transpose_dual(d) == r


def test_submodule_closure_checked():
    r = regular(A1, Window(0, 6))
    with pytest.raises(ValueError):
        submodule(r, {0: Subspace.full(1)})  # unit generates everything


def test_quotient_invariance_checked():
    r = regular(A1, Window(0, 6))
    with pytest.raises(ValueError):
        quotient(r, {0: Subspace.full(1)})


def test_restrict_to_smaller_profile():
    r2 = regular(A2, Window(0, 10))
    r2a1 = r2.restrict_to(A1)
    assert r2a1.validate() == []
    v = freeness_test(r2a1)
    assert v.is_free  # the bigger subalgebra is free over the smaller one


def test_every_constructor_output_validates():
    w = Window(-8, 8)
    outputs = [
        regular(A1, w),
        regular(FULL, Window(0, 10)),
        dual_regular(A1, w),
        dual_regular(FULL, Window(-10, 0)),
        free_module([0, 2, -3], A1, w),
        zero_module(A1, w),
        coproduct([(regular(A1, w), 0), (regular(A1, w.shift(-2)), 2)]),
        regular(A1, w).suspend(3),
        quotient(regular(A1, Window(0, 6)), {6: Subspace.full(1)}),
        submodule(regular(A1, Window(0, 6)),
                  {6: Subspace.full(1)}),
    ]
    for m in outputs:
        assert m.validate() == [], m


PROPERTY_BASES = [
    regular(A1, Window(0, 6)),
    dual_regular(A1, Window(-6, 0)),
    regular(FULL, Window(0, 8)),
    free_module([0, 2], A1, Window(-1, 7)),
]


def _generated_family(m, gens):
    """The smallest invariant family of subspaces holding the vectors
    gens, given as (degree, vector) pairs: each degree takes its own
    vectors and the images of every lower degree's space."""
    spaces = {}
    for e in m.window:
        rows = [v for d, v in gens if d == e]
        for d in range(m.window.lo, e):
            for seq in m.algebra.basis(e - d):
                mat = m.action(seq, d)
                rows.extend(mat.apply(v) for v in spaces[d].basis)
        spaces[e] = Subspace.from_vectors(rows, m.dims[e])
    return spaces


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(range(len(PROPERTY_BASES))),
       st.lists(st.tuples(st.integers(0, 8), st.integers(1, 255)),
                max_size=3),
       st.integers(-2, 2))
def test_submodule_quotient_coproduct_of_valid_modules_validate(base, picks,
                                                                 shift):
    """Submodules and quotients by a generated invariant family, and
    coproducts of those with the module, validate, and the dense oracle
    agrees."""
    m = PROPERTY_BASES[base]
    degrees = [d for d in m.window if m.dims[d]]
    gens = []
    for i, v in picks:
        d = degrees[i % len(degrees)]
        gens.append((d, v % (1 << m.dims[d])))
    spaces = _generated_family(m, gens)
    sub = submodule(m, spaces)
    quo = quotient(m, spaces)
    for out in (sub, quo, coproduct([(m, 0), (sub, shift)]),
                coproduct([(quo, shift), (m, 0), (sub, 0)])):
        assert out.validate() == oracles.validate_composition_dense(out) == []


def _a2_margolis_quotients():
    """regular(A(2)) modulo the left ideal of each Margolis element P:
    H(-; P) is the only Margolis homology that does not vanish."""
    w = Window(0, 23)
    r = regular(A2, w)
    out = []
    for p in oracles.margolis_elements(2):
        span = ideal_span(HomIdeal([Element([p])]), A2, w)
        out.append((f"A(2)/A(2){Element([p])}",
                    quotient(r, {d: span.space(d) for d in w})))
    return out


@st.composite
def _ideal_quotients_and_submodules(draw):
    """(algebra name, generators as (degree, mask), 'sub' or 'quotient'):
    the left ideal of A(n) spanned by one or two random homogeneous
    elements, as a submodule of regular(A(n)) or as the quotient by it."""
    name = draw(st.sampled_from(["A(1)", "A(2)"]))
    algebra = A1 if name == "A(1)" else A2
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.integers(0, algebra.top_degree()))
        gens.append((d, draw(st.integers(1, (1 << algebra.dim(d)) - 1))))
    return name, tuple(gens), draw(st.sampled_from(["sub", "quotient"]))


@lru_cache(maxsize=None)
def _margolis_sample_module(name, gens, kind):
    algebra = A1 if name == "A(1)" else A2
    w = Window(0, algebra.top_degree())
    span = ideal_span(HomIdeal(M.element_from_coords(mask, d, algebra)
                               for d, mask in gens), algebra, w)
    spaces = {d: span.space(d) for d in w}
    r = regular(algebra, w)
    if kind == "sub":
        return oracles.submodule_eager(r, spaces)
    return oracles.quotient_eager(r, spaces)


def test_margolis_oracle_agrees_with_freeness_test_on_a_sample():
    """On submodules and quotients of regular(A(1)) and regular(A(2)) by
    left ideals with random generators, built eagerly: the Margolis
    oracle and freeness_test agree.  So does freeness_test on the same
    table with the window padded by zero degrees below and its bottom
    edge marked inexact, which sends it through the transpose dual (a
    finite module over A(n) is free iff its dual is); the padding, as
    wide as the algebra's top degree, holds every degree where the dual's
    free comparison can fail.  Both verdicts occur."""
    seen = Counter()

    @settings(max_examples=30, deadline=None)
    @given(_ideal_quotients_and_submodules())
    @example(("A(2)", ((0, 1),), "sub"))
    @example(("A(2)", ((0, 1),), "quotient"))
    @example(("A(1)", ((3, 1),), "quotient"))
    @example(("A(2)", ((22, 1),), "sub"))
    def check(case):
        m = _margolis_sample_module(*case)
        free = oracles.margolis_free(m)
        assert freeness_test(m).is_free == free
        w = Window(-m.algebra.top_degree(), m.window.hi)
        top_only = G.GradedModule(m.algebra, w,
                                  {d: m.dims.get(d, 0) for d in w},
                                  oracles.table_source(m.action_table()),
                                  bottom_exact=False, top_exact=True)
        assert freeness_test(top_only).is_free == free
        seen[free] += 1

    check()
    assert set(seen) == {True, False}, seen


def test_margolis_elements_of_a1_and_a2():
    assert oracles.margolis_elements(1) == [(1,), (0, 1)]
    assert sorted(oracles.margolis_elements(2)) == sorted(
        [(1,), (0, 1), (0, 2), (0, 0, 1)])


def test_margolis_oracle_agrees_with_freeness_test():
    """The Margolis-homology oracle decides freeness as freeness_test does
    on the A(1) corpus (6 free, 8 not), on regular(A(2)), and on the
    quotients of regular(A(2)) by each Margolis element, each of which is
    told apart from a free module by that element's homology alone."""
    quotients = _a2_margolis_quotients()
    modules = catalogs.a1_module_corpus() + [
        ("regular(A(2))", regular(A2, Window(0, 23)))] + quotients
    verdicts = {}
    for name, m in modules:
        free = oracles.margolis_free(m)
        assert free == freeness_test(m).is_free, name
        verdicts[name] = free
    assert sum(verdicts.values()) == 7
    # the trivial module F2 has F2 as its homology for every P
    trivial = dict(modules)["trivial"]
    for p in oracles.margolis_elements(1):
        assert oracles.margolis_homology(trivial, p) == {0: 1}
    # each A(2) quotient has homology for its own P only
    for p, (name, q) in zip(oracles.margolis_elements(2), quotients):
        nonzero = [pp for pp in oracles.margolis_elements(2)
                   if oracles.margolis_homology(q, pp)]
        assert nonzero == [p], name
