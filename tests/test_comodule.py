import random
from collections import Counter

import pytest

import oracles
from steenmod import comodule, milnor, textio
from steenmod.comodule import (ExtendedSpec, extended, iota,
                               iota_matches_suspended_duals,
                               of_coaction_blocks, validate_coaction)
from steenmod.f2 import BitMatrix, mask_to_bits
from steenmod.gmodule import (GradedModule, Window, _is_square,
                              _required_action_keys, dual_regular,
                              freeness_test)
from steenmod.milnor import Algebra, degree

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
        assert oracles.coaction_block(c, d, 0) == BitMatrix.identity(c.dims[d])


def _of_blocks(c, blocks):
    """The comodule on c's header whose coaction blocks are the matrices
    of blocks, keyed (degree, jump)."""
    return of_coaction_blocks(c.algebra, c.window, dict(c.dims),
                              lambda d, k: blocks[d, k].rows,
                              c.bottom_exact, c.top_exact)


def test_coaction_mutation_detected():
    w = Window(-8, 0)
    c = extended(ExtendedSpec({0: 1}), FULL, w)
    coactions = oracles.coaction_blocks(c)
    (d, k), mat = next(iter(coactions.items()))
    flipped = BitMatrix(mat.nrows, mat.ncols,
                        [mat.rows[0] ^ 1] + list(mat.rows[1:]))
    coactions[(d, k)] = flipped
    mutant = _of_blocks(c, coactions)
    assert validate_coaction(mutant) != []


def test_iota_of_unit_is_dual_regular():
    w = Window(-12, 0)
    m = iota(extended(ExtendedSpec({0: 1}), FULL, w))
    assert m == dual_regular(FULL, w)


def test_iota_zero():
    m = iota(extended(ExtendedSpec({}), FULL, Window(-5, 0)))
    assert m.total_dim() == 0


def test_iota_preserves_dimensions_and_validates():
    w = Window(-14, 0)
    v = ExtendedSpec({0: 2, -3: 1})
    c = extended(v, FULL, w)
    m = iota(c)
    assert m.validate() == []
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
    header, blocks = oracles.extended_by_bits(v, algebra, window)
    assert oracles.coaction_blocks(c) == blocks
    assert {name: getattr(c, name) for name in header} == header
    assert blocks  # the spec is not degenerate
    assert iota(c) == oracles.iota_of_extended_reference(v, algebra, window)
    assert iota_matches_suspended_duals(iota(c), v)


class _CountingMilnor:
    """steenmod.milnor as ``steenmod.comodule`` sees it, with the calls
    of ``product_columns`` recorded."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(milnor, name)

    def product_columns(self, *args):
        self.calls.append(args)
        return milnor.product_columns(*args)


@pytest.mark.parametrize("algebra,v_dims,window,d,k,calls", [
    (FULL, {0: 1, -2: 1, -5: 2}, Window(-14, 0), -9, 3, 4),
    (FULL, {0: 1, -2: 1, -5: 2}, Window(-14, 0), -6, 3, 2),
    (A1, {0: 1, -4: 1}, Window(-12, 0), -8, 3, 2),
], ids=["full-every-generator", "full-short-generator", "A1-no-basis"])
def test_blocks_are_built_on_first_read(monkeypatch, algebra, v_dims, window,
                                        d, k, calls):
    """extended reads no product block.  The first read of a monomial of
    degree k at d builds block (d, k), one product block per generator g
    with g - d >= k, and files the matrix of every monomial of degree k at
    d; a second monomial of that block is read off the memo, with no
    source call.  The cases cover a repeated generator, generators with
    basis at d but none at d + k, and over A(1) a generator with no basis
    at d."""
    counting = _CountingMilnor()
    monkeypatch.setattr(comodule, "milnor", counting)
    c = extended(ExtendedSpec(v_dims), algebra, window)
    assert counting.calls == []
    gens = [g for g, n in sorted(v_dims.items()) for _ in range(n)]
    first, second = algebra.basis(k)[:2]
    c.action(first, d)
    want = [(g - d - k, k, algebra) for g in gens if g - d >= k]
    assert len(want) == calls
    assert counting.calls == want
    block = {(seq, d) for seq in algebra.basis(k)}
    assert set(c.actions) == block
    sources = []
    source = c._source

    def counted(seq, d):
        sources.append((seq, d))
        return source(seq, d)
    c._source = counted
    c.action(second, d)
    assert counting.calls == want
    assert sources == []
    assert set(c.actions) == block


def _parsed_extended(v, algebra, window):
    """extended(v) parsed from a comodule file printed off the coproduct
    of suspended dual regular modules it embeds as, so no block of the
    file passes through ``of_coaction_blocks`` before the parse."""
    return textio.parse_comodule(textio.print_comodule(
        oracles.iota_of_extended_reference(v, algebra, window)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("build,algebra,v_dims,window", [
    (extended, FULL, {0: 1, -3: 1}, Window(-12, 0)),
    (extended, A1, {2: 1, 0: 1, -2: 1}, Window(-10, 2)),
    (extended, A2, {0: 1, -5: 1}, Window(-18, 0)),
    (_parsed_extended, FULL, {0: 1, -2: 1}, Window(-10, 0)),
], ids=["full", "A1", "A2", "parsed"])
def test_fill_order_never_changes_a_matrix(build, algebra, v_dims, window,
                                           seed):
    """Every required monomial, a quarter of them twice, read in a seeded
    random order.  Each read adds the whole block of the monomial read
    to the memo and nothing else, keeps every earlier matrix as it was,
    leaves only required keys there, and lays the block out as the
    per-bit oracle does.  The full table then equals the coproduct of
    suspended dual regular modules."""
    v = ExtendedSpec(v_dims)
    c = build(v, algebra, window)
    _, blocks = oracles.extended_by_bits(v, algebra, window)
    required = list(_required_action_keys(algebra, window, c.dims))
    keys = required + random.Random(seed).sample(required, len(required) // 4)
    random.Random(seed).shuffle(keys)
    for seq, d in keys:
        k = degree(seq)
        before = dict(c.actions)
        c.action(seq, d)
        block = {(s, d) for s in algebra.basis(k)}
        assert set(c.actions) == set(before) | block
        assert all(c.actions[key] is mat for key, mat in before.items())
        assert set(c.actions) <= set(required)
        assert oracles.coaction_block(c, d, k) == blocks[d, k]
    assert c.action_table() == oracles.iota_of_extended_reference(
        v, algebra, window).action_table()


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_a_malformed_block_fails_at_its_first_read(extra):
    """A block function that gives one row too few or too many for block
    (d, k) makes every read of a monomial of degree k at d raise, naming
    the degree and the jump, and files no matrix of the block; the other
    blocks read as before."""
    c = extended(ExtendedSpec({0: 1, -2: 1}), FULL, Window(-10, 0))
    blocks = oracles.coaction_blocks(c)
    d, k = -8, 3

    def block(dd, kk):
        rows = list(blocks[dd, kk].rows)
        if (dd, kk) == (d, k):
            rows = rows + [0] if extra > 0 else rows[:-1]
        return rows
    m = of_coaction_blocks(FULL, c.window, dict(c.dims), block,
                           c.bottom_exact, c.top_exact)
    want = len(blocks[d, k].rows)
    for seq in FULL.basis(k):
        with pytest.raises(ValueError) as exc:
            m.action(seq, d)
        assert str(exc.value) == (
            f"coaction block at degree {d}, jump {k} has {want + extra} "
            f"rows, expected {want}")
        assert m.actions == {}
    assert m.action((1,), d) == c.action((1,), d)
    assert m.action((0, 1), d + 1) == c.action((0, 1), d + 1)


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
    coactions = oracles.coaction_blocks(c)
    keys = list(coactions)
    for _ in range(rng.randint(1, 3)):
        key = rng.choice(keys)
        mat = coactions[key]
        rows = list(mat.rows)
        rows[rng.randrange(mat.nrows)] ^= 1 << rng.randrange(mat.ncols)
        coactions[key] = BitMatrix(mat.nrows, mat.ncols, rows)
    return _of_blocks(c, coactions)


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
    blocks = {(-3, 3): (bit, 0)}
    return of_coaction_blocks(FULL, Window(-3, 0), {-3: 1, 0: 1},
                              lambda d, k: blocks[d, k], True, True)


def test_zero_middle_degree_is_checked():
    """At a zero middle degree the twice-applied side is 0 but the split
    side need not be; ι of the comodule shows the same failure."""
    assert validate_coaction(_gap_comodule(0)) == []
    bad = validate_coaction(_gap_comodule(1))
    assert bad == ["coassociativity fails at degree -3, jumps (1, 2), "
                   "column 0"]
    assert bad == oracles.validate_coaction_entrywise(_gap_comodule(1))
    assert iota(_gap_comodule(1)).validate() != []


def _flip_crossing(c, rng, lo, hi):
    """A copy of c with one bit flipped in a block from degree <= lo to a
    degree >= hi."""
    coactions = oracles.coaction_blocks(c)
    keys = [key for key in coactions
            if key[0] <= lo and key[0] + key[1] >= hi]
    key = rng.choice(keys)
    mat = coactions[key]
    rows = list(mat.rows)
    rows[rng.randrange(mat.nrows)] ^= 1 << rng.randrange(mat.ncols)
    coactions[key] = BitMatrix(mat.nrows, mat.ncols, rows)
    return _of_blocks(c, coactions)


@pytest.mark.parametrize("algebra,v_dims,window,count", [
    (FULL, {0: 1}, Window(-20, 0), 6),
    (FULL, {0: 1, -3: 1}, Window(-16, 0), 16),
    (A1, {0: 1, -2: 1}, Window(-12, 0), 30),
    (A2, {0: 1, -3: 1}, Window(-12, 0), 30),
    (A1, {0: 1, -10: 1}, Window(-16, 0), 30),
], ids=["full-20", "full-16", "A1-12", "A2-12", "A1-gap"])
def test_square_pass_decides_coassociativity(algebra, v_dims, window, count):
    """On iota of seeded bit flips, the composition check's first pass,
    on the outer jumps Sq(2^i) only, finds a failure exactly when the full
    pass does, and validate_coaction reports the full pass's failing
    columns per (degree, jumps).  A(1)'s comodule on generators 0 and -10
    has zero dims at -9..-7, and half of its flips land in blocks across
    that gap."""
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
        m = iota(mutant)
        first = next(m._composition_failures(_is_square), None)
        full = list(m._composition_failures(lambda b: True))
        assert (first is None) == (not full)
        columns = sorted({(d, degree(y), degree(x), col)
                          for x, y, d, mask in full
                          for col in mask_to_bits(mask)})
        assert validate_coaction(mutant) == [
            f"coassociativity fails at degree {d}, jumps ({k1}, {k2}), "
            f"column {col}" for d, k1, k2, col in columns]
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
    coactions = oracles.coaction_blocks(c)
    mat = coactions[(d, k)]
    rows = list(mat.rows)
    rows[m * dk + j] ^= 1 << col
    coactions[(d, k)] = BitMatrix(mat.nrows, mat.ncols, rows)
    module = iota(_of_blocks(c, coactions))
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
    coactions = oracles.coaction_blocks(c)
    mat = coactions[(-8, 3)]
    row = A1.dim(1) * A1.dim(3)
    assert mat.rows[row] == 0
    rows = list(mat.rows)
    rows[row] = 1
    coactions[(-8, 3)] = BitMatrix(mat.nrows, mat.ncols, rows)
    m = iota(_of_blocks(c, coactions))
    assert m != oracles.iota_of_extended_reference(v, A1, w)
    assert not iota_matches_suspended_duals(m, v)


def test_part_wise_check_compares_the_header():
    """Other exactness flags or other generators fail before any matrix
    is read; the empty V matches only the zero module."""
    w = Window(-10, 0)
    v = ExtendedSpec({0: 1, -2: 1})
    c = extended(v, FULL, w)
    coactions = oracles.coaction_blocks(c)
    flags = of_coaction_blocks(FULL, w, dict(c.dims),
                               lambda d, k: coactions[d, k].rows,
                               not c.bottom_exact, c.top_exact)
    assert not iota_matches_suspended_duals(iota(flags), v)
    assert not iota_matches_suspended_duals(iota(c), ExtendedSpec({0: 1}))
    zero = iota(extended(ExtendedSpec({}), FULL, w))
    assert iota_matches_suspended_duals(zero, ExtendedSpec({}))
    assert not iota_matches_suspended_duals(zero, v)


BLOCK_CASES = pytest.mark.parametrize("algebra,v_dims,window", [
    (FULL, {0: 1, -2: 1}, Window(-10, 0)),
    (A1, {0: 1, -4: 1}, Window(-12, 0)),
    (A2, {0: 2, -3: 1}, Window(-14, 0)),
], ids=["full", "a1", "a2"])


@BLOCK_CASES
def test_block_check_reads_every_required_matrix_once_through_iota(
        monkeypatch, algebra, v_dims, window):
    """The block check reads ι's matrices through ``module.action``,
    exactly the keys the module requires and each once, not the coaction
    blocks behind them.  The source runs once per coaction block, on the
    first read of any of its monomials, and the memo ends holding exactly
    the required keys."""
    v = ExtendedSpec(v_dims)
    m = iota(extended(v, algebra, window))
    reads = Counter()
    action = GradedModule.action

    def counted_action(self, seq, d):
        if self is m:
            reads[(seq, d)] += 1
        return action(self, seq, d)
    monkeypatch.setattr(GradedModule, "action", counted_action)
    sources = Counter()
    source = m._source

    def counted_source(seq, d):
        sources[(d, degree(seq))] += 1
        return source(seq, d)
    m._source = counted_source
    assert iota_matches_suspended_duals(m, v)
    required = list(_required_action_keys(algebra, window, m.dims))
    assert required and len(set(required)) == len(required)
    assert set(reads) == set(required)
    assert set(reads.values()) == {1}
    blocks = list(comodule._required_coaction_keys(algebra, window, m.dims))
    assert len(blocks) < len(required)
    assert set(sources) == set(blocks)
    assert set(sources.values()) == {1}
    assert set(m.actions) == set(required)


@BLOCK_CASES
def test_block_check_rejects_swapped_monomials(algebra, v_dims, window):
    """Swapping the rows of Sq(3) and Sq(0,1) inside one coaction block
    keeps every row of the block and only moves it between the two
    monomials; the check rejects each such block, as the full-table
    oracle does."""
    v = ExtendedSpec(v_dims)
    c = extended(v, algebra, window)
    ref = oracles.iota_of_extended_reference(v, algebra, window)
    k = 3
    stride = algebra.dim(k)
    i, j = algebra.basis(k).index((3,)), algebra.basis(k).index((0, 1))
    blocks = oracles.coaction_blocks(c)
    swapped = 0
    for d in window:
        mat = blocks.get((d, k))
        if mat is None:
            continue
        rows = list(mat.rows)
        rows[i::stride], rows[j::stride] = rows[j::stride], rows[i::stride]
        if rows == list(mat.rows):
            continue
        coactions = dict(blocks)
        coactions[(d, k)] = BitMatrix(mat.nrows, mat.ncols, rows)
        m = iota(_of_blocks(c, coactions))
        assert not iota_matches_suspended_duals(m, v)
        assert m != ref
        swapped += 1
    assert swapped
