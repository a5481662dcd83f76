import random

import pytest

import oracles
from steenmod import comodule
from steenmod.comodule import (ExtendedSpec, GradedComodule, extended, iota,
                               iota_matches_suspended_duals, validate_coaction)
from steenmod.f2 import BitMatrix
from steenmod.gmodule import Window, dual_regular, freeness_test, validate
from steenmod.milnor import Algebra

FULL = Algebra.full()
A2 = Algebra.subalgebra(2)


def test_extended_unit_is_the_dual_algebra():
    w = Window(-10, 0)
    c = extended(ExtendedSpec({0: 1}), FULL, w)
    for d in w:
        assert c.dims[d] == FULL.dim(-d)
    assert validate_coaction(c) == []


def test_extended_zero():
    c = extended(ExtendedSpec({}), FULL, Window(-5, 0))
    assert c.total_dim() == 0
    assert validate_coaction(c) == []


def test_extended_dims_bookkeeping():
    w = Window(-10, 0)
    degs = [0, -1, -3]
    c = extended(ExtendedSpec({g: 1 for g in degs}), FULL, w)
    for d in w:
        assert c.dims[d] == sum(FULL.dim(g - d) for g in degs)


def test_counit_block_is_identity():
    c = extended(ExtendedSpec({0: 1}), FULL, Window(-6, 0))
    for d in c.window:
        assert c.coaction(d, 0) == BitMatrix.identity(c.dims[d])


def test_coaction_mutation_detected():
    w = Window(-8, 0)
    c = extended(ExtendedSpec({0: 1}), FULL, w)
    (d, k), mat = next(iter(sorted(c.coactions.items())))
    flipped = BitMatrix(mat.nrows, mat.ncols,
                        [mat.rows[0] ^ 1] + list(mat.rows[1:]))
    coactions = dict(c.coactions)
    coactions[(d, k)] = flipped
    mutant = GradedComodule(FULL, w, dict(c.dims), coactions,
                            c.bottom_exact, c.top_exact)
    assert validate_coaction(mutant) != []


def test_iota_of_unit_is_dual_regular():
    w = Window(-12, 0)
    m = iota(extended(ExtendedSpec({0: 1}), FULL, w))
    assert m == dual_regular(FULL, w)


def test_iota_zero():
    m = iota(extended(ExtendedSpec({}), FULL, Window(-5, 0)))
    assert m.is_zero()


def test_iota_preserves_dimensions_and_validates():
    w = Window(-14, 0)
    v = ExtendedSpec({0: 2, -3: 1})
    c = extended(v, FULL, w)
    m = iota(c)
    assert validate(m) == []
    for d in w:
        assert m.dims[d] == c.dims[d]


def test_iota_extended_is_coproduct_of_suspended_duals():
    w = Window(-14, 0)
    for dims in [{0: 1}, {0: 1, -1: 1, -3: 1}, {0: 2, -2: 1}]:
        v = ExtendedSpec(dims)
        m = iota(extended(v, FULL, w))
        assert m == oracles.iota_of_extended_reference(v, FULL, w)
        assert iota_matches_suspended_duals(m, v)


A1 = Algebra.subalgebra(1)


@pytest.mark.parametrize("algebra,v_dims,window", [
    (FULL, {0: 1, -4: 1}, Window(-18, 0)),
    (FULL, {0: 2, -3: 1, -7: 2}, Window(-16, 0)),
    (FULL, {3: 1, 0: 1, -2: 1}, Window(-12, 5)),
    (A1, {0: 1, -2: 2}, Window(-12, 0)),
    (A1, {2: 1, -1: 1}, Window(-9, 3)),
    (A2, {0: 1, -5: 1}, Window(-26, 0)),
], ids=["full", "full-repeated", "full-positive", "A1-repeated",
        "A1-positive", "A2"])
def test_extended_matches_per_bit_oracle(algebra, v_dims, window):
    """The slice-built comodule equals the per-bit build block for block,
    and its embedding is the coproduct of suspended dual regular modules."""
    v = ExtendedSpec(v_dims)
    c = extended(v, algebra, window)
    ref = oracles.extended_by_bits(v, algebra, window)
    assert c.coactions == ref.coactions
    assert c == ref
    assert c.coactions  # the spec is not degenerate
    assert iota(c) == oracles.iota_of_extended_reference(v, algebra, window)
    assert iota_matches_suspended_duals(iota(c), v)


def test_iota_exactness_of_sequences():
    """Degreewise exactness of a short exact sequence of comodules is
    preserved: dims of kernel and cokernel match under the embedding."""
    w = Window(-10, 0)
    a = extended(ExtendedSpec({-1: 1}), FULL, w)
    ab = extended(ExtendedSpec({-1: 1, 0: 1}), FULL, w)
    b = extended(ExtendedSpec({0: 1}), FULL, w)
    ma, mab, mb = iota(a), iota(ab), iota(b)
    for d in w:
        assert mab.dims[d] == ma.dims[d] + mb.dims[d]


def test_direct_freeness_of_iota_over_a1():
    w = Window(-20, 0)
    m = iota(extended(ExtendedSpec({0: 1, -2: 1}), FULL, w))
    verdict = freeness_test(m, Algebra.subalgebra(1))
    assert verdict.is_free
    assert all(g <= 0 for g in verdict.generator_degrees)


def _flip_bits(c, rng):
    """A copy of c with one to three coaction bits flipped."""
    coactions = dict(c.coactions)
    keys = sorted(coactions)
    for _ in range(rng.randint(1, 3)):
        key = rng.choice(keys)
        mat = coactions[key]
        rows = list(mat.rows)
        rows[rng.randrange(mat.nrows)] ^= 1 << rng.randrange(mat.ncols)
        coactions[key] = BitMatrix(mat.nrows, mat.ncols, rows)
    return GradedComodule(c.algebra, c.window, dict(c.dims), coactions,
                          c.bottom_exact, c.top_exact)


@pytest.mark.parametrize("algebra,v_dims,window,count", [
    (FULL, {0: 1}, Window(-20, 0), 8),
    (FULL, {0: 1}, Window(-16, 0), 32),
    (A2, {0: 1, -3: 1}, Window(-12, 0), 60),
    (A1, {0: 1, -10: 1}, Window(-16, 0), 40),
], ids=["full-20", "full-16", "A2-12", "A1-gap"])
def test_violations_match_entrywise_oracle(algebra, v_dims, window, count):
    """Seeded bit flips of extended comodules: the row-level check reports
    exactly the entry-wise oracle's violations, in the same order."""
    rng = random.Random(window.lo * 7 + count)
    c = extended(ExtendedSpec(v_dims), algebra, window)
    assert validate_coaction(c) == oracles.validate_coaction_entrywise(c) == []
    caught = 0
    for _ in range(count):
        mutant = _flip_bits(c, rng)
        bad = validate_coaction(mutant)
        assert bad == oracles.validate_coaction_entrywise(mutant)
        caught += bool(bad)
    assert caught > count // 2


def _gap_comodule(bit):
    """Dims 1 at -3 and 0 and zero between, one coaction block (-3, 3)
    whose Sq(3) row is bit: the twice-applied side of every jump pair
    passes through a zero degree."""
    return GradedComodule(FULL, Window(-3, 0), {-3: 1, 0: 1},
                          {(-3, 3): BitMatrix(2, 1, [bit, 0])}, True, True)


def test_zero_middle_degree_is_checked():
    """At a zero middle degree the twice-applied side is 0 but the split
    side need not be; ι of the comodule shows the same failure."""
    assert validate_coaction(_gap_comodule(0)) == []
    bad = validate_coaction(_gap_comodule(1))
    assert bad == ["coassociativity fails at degree -3, jumps (1, 2), "
                   "column 0"]
    assert bad == oracles.validate_coaction_entrywise(_gap_comodule(1))
    assert validate(iota(_gap_comodule(1))) != []


def _flip_crossing(c, rng, lo, hi):
    """A copy of c with one bit flipped in a block from degree <= lo to a
    degree >= hi."""
    keys = sorted(key for key in c.coactions
                  if key[0] <= lo and key[0] + key[1] >= hi)
    coactions = dict(c.coactions)
    key = rng.choice(keys)
    mat = coactions[key]
    rows = list(mat.rows)
    rows[rng.randrange(mat.nrows)] ^= 1 << rng.randrange(mat.ncols)
    coactions[key] = BitMatrix(mat.nrows, mat.ncols, rows)
    return GradedComodule(c.algebra, c.window, dict(c.dims), coactions,
                          c.bottom_exact, c.top_exact)


@pytest.mark.parametrize("algebra,v_dims,window,count", [
    (FULL, {0: 1}, Window(-20, 0), 6),
    (FULL, {0: 1, -3: 1}, Window(-16, 0), 16),
    (A1, {0: 1, -2: 1}, Window(-12, 0), 30),
    (A2, {0: 1, -3: 1}, Window(-12, 0), 30),
    (A1, {0: 1, -10: 1}, Window(-16, 0), 30),
], ids=["full-20", "full-16", "A1-12", "A2-12", "A1-gap"])
def test_square_pass_decides_coassociativity(algebra, v_dims, window, count):
    """The first pass, on the outer jumps Sq(2^i) only, finds a failure
    exactly when the full pass does, on seeded bit flips.  A(1)'s
    comodule on generators 0 and -10 has zero dims at -9..-7, and half of
    its flips land in blocks across that gap."""
    rng = random.Random(window.lo * 11 + count)
    c = extended(ExtendedSpec(v_dims), algebra, window)
    filled = [d for d in window if c.dims[d]]
    gap = [d for d in range(filled[0], filled[-1]) if not c.dims[d]]
    mutants = []
    for i in range(count):
        if gap and i % 2:
            mutants.append(_flip_crossing(c, rng, min(gap) - 1, max(gap) + 1))
        else:
            mutants.append(_flip_bits(c, rng))
    caught = 0
    for mutant in [c] + mutants:
        first = next(comodule._coassociativity_failures(mutant, True), None)
        full = list(comodule._coassociativity_failures(mutant, False))
        assert (first is None) == (not full)
        assert validate_coaction(mutant) == full
        caught += bool(full)
    assert caught > count // 2


def test_part_wise_check_rejects_a_flipped_block_bit():
    """A flipped coaction bit anywhere makes ι differ from the suspended
    duals, and the part-wise check says so wherever the full-table oracle
    does."""
    v = ExtendedSpec({0: 1, -2: 1})
    w = Window(-10, 0)
    c = extended(v, FULL, w)
    ref = oracles.iota_of_extended_reference(v, FULL, w)
    rng = random.Random(5)
    for _ in range(12):
        m = iota(_flip_bits(c, rng))
        assert iota_matches_suspended_duals(m, v) == (m == ref)
        assert not iota_matches_suspended_duals(m, v)


@pytest.mark.parametrize("seq", [(3,), (0, 1)], ids=["Sq3", "Sq01"])
@pytest.mark.parametrize("part", [0, 1])
def test_part_wise_check_rejects_a_flip_in_a_non_square(seq, part):
    """One bit flipped in the rows of a monomial that is not a square, in
    one part only, leaves every square's matrix as the reference's; the
    check must still fail, as the full-table oracle does.  A check of the
    squares alone would pass here, and iota-failure never validates the
    coaction that would make it sound."""
    v = ExtendedSpec({-2: 1, 0: 1})
    w = Window(-10, 0)
    c = extended(v, FULL, w)
    ref = oracles.iota_of_extended_reference(v, FULL, w)
    d, k = -8, 3
    gens = [-2, 0]
    dk = FULL.dim(k)
    j = FULL.basis(k).index(seq)
    # the part's first target row at d + k and its first column at d
    m = sum(FULL.dim(g - d - k) for g in gens[:part])
    col = sum(FULL.dim(g - d) for g in gens[:part])
    mat = c.coactions[(d, k)]
    rows = list(mat.rows)
    rows[m * dk + j] ^= 1 << col
    coactions = dict(c.coactions)
    coactions[(d, k)] = BitMatrix(mat.nrows, mat.ncols, rows)
    module = iota(GradedComodule(FULL, w, dict(c.dims), coactions,
                                 c.bottom_exact, c.top_exact))
    assert not iota_matches_suspended_duals(module, v)
    assert module != ref
    for key, want in ref.action_table().items():
        got = module.action(*key)
        if key == (seq, d):
            assert got != want
            assert [row for i, row in enumerate(got.rows)
                    if row != want.rows[i]] == [want.rows[m] ^ (1 << col)]
        else:
            assert got == want, key


def test_part_wise_check_reads_rows_of_a_part_without_source():
    """Over A(1) at degree -8 the generator 0 has no basis (A(1) stops at
    6) but a target at -5: its rows of the (-8, 3) block must stay zero.
    Generator -4 comes first, with A(1)^1 at -5, so generator 0's rows
    start at dim A(1)^1 * dim A(1)^3."""
    v = ExtendedSpec({0: 1, -4: 1})
    w = Window(-12, 0)
    c = extended(v, A1, w)
    assert iota_matches_suspended_duals(iota(c), v)
    mat = c.coactions[(-8, 3)]
    row = A1.dim(1) * A1.dim(3)
    assert mat.rows[row] == 0
    rows = list(mat.rows)
    rows[row] = 1
    coactions = dict(c.coactions)
    coactions[(-8, 3)] = BitMatrix(mat.nrows, mat.ncols, rows)
    m = iota(GradedComodule(A1, w, dict(c.dims), coactions,
                            c.bottom_exact, c.top_exact))
    assert m != oracles.iota_of_extended_reference(v, A1, w)
    assert not iota_matches_suspended_duals(m, v)


def test_part_wise_check_compares_the_header():
    """Other exactness flags or other generators fail before any matrix
    is read; the empty V matches only the zero module."""
    w = Window(-10, 0)
    v = ExtendedSpec({0: 1, -2: 1})
    c = extended(v, FULL, w)
    flags = GradedComodule(FULL, w, dict(c.dims), dict(c.coactions),
                           not c.bottom_exact, c.top_exact)
    assert not iota_matches_suspended_duals(iota(flags), v)
    assert not iota_matches_suspended_duals(iota(c), ExtendedSpec({0: 1}))
    zero = iota(extended(ExtendedSpec({}), FULL, w))
    assert iota_matches_suspended_duals(zero, ExtendedSpec({}))
    assert not iota_matches_suspended_duals(zero, v)
