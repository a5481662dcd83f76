import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenmod import _f2pure
from steenmod.f2 import BitMatrix, Subspace, kernel

from oracles import (bitmatrix_from_entries, column, entry,
                     nullspace_by_columns, row, rref_2x2_hand,
                     rref_by_columns, rref_rows, solve)


def random_matrix(rng, nrows, ncols):
    return BitMatrix(nrows, ncols, [rng.getrandbits(ncols) for _ in range(nrows)])


matrices = st.integers(0, 8).flatmap(
    lambda r: st.integers(0, 8).flatmap(
        lambda c: st.lists(st.integers(0, (1 << c) - 1 if c else 0),
                           min_size=r, max_size=r).map(
            lambda rows: BitMatrix(r, c, rows))))


def reduced(m):
    """The reduced echelon form of m's rows, as a matrix of m's width."""
    red, _ = _f2pure.rref(list(m.rows), m.ncols)
    return BitMatrix(len(red), m.ncols, red)


def rank(m):
    return len(rref_rows(m.rows, m.ncols)[1])


def test_rref_identity_fixed_point():
    i3 = BitMatrix.identity(3)
    assert reduced(i3) == i3


def test_rref_zero_matrix_drops_rows():
    z = BitMatrix.zero(4, 3)
    assert reduced(z).nrows == 0
    assert rank(reduced(z)) == 0


def test_rref_2x2_hand_oracle():
    for bits in range(16):
        entries = [[(bits >> 0) & 1, (bits >> 1) & 1],
                   [(bits >> 2) & 1, (bits >> 3) & 1]]
        got = reduced(bitmatrix_from_entries(entries))
        want = bitmatrix_from_entries(rref_2x2_hand(entries), ncols=2)
        assert got == want, entries


def test_rref_spec_example():
    m = bitmatrix_from_entries([[1, 1], [1, 0]])
    assert reduced(m) == BitMatrix.identity(2)


@settings(max_examples=200)
@given(matrices)
def test_rref_idempotent_and_rank_preserving(m):
    r = reduced(m)
    assert reduced(r) == r
    assert rank(r) == rank(m)
    # row space preserved: every original row reduces to zero
    sp = Subspace(m.ncols, r.rows)
    assert all(sp.contains(row) for row in m.rows)


@settings(max_examples=200)
@given(matrices)
def test_rank_nullity(m):
    assert kernel(m.rows, m.ncols).dim == m.ncols - rank(m)


def test_kernel_examples():
    assert kernel(BitMatrix.identity(5).rows, 5).dim == 0
    full = kernel(BitMatrix.zero(3, 4).rows, 4)
    assert full.dim == 4
    k = kernel(bitmatrix_from_entries([[1, 1]]).rows, 2)
    assert k.dim == 1 and k.basis == (0b11,)
    # exhaustive check over all four vectors
    m = bitmatrix_from_entries([[1, 1]])
    members = [v for v in range(4) if m.apply(v) == 0]
    assert members == [0, 0b11]


def test_kernel_members_exhaustive_random():
    rng = random.Random(7)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 6))
        ker = kernel(m.rows, m.ncols)
        members = {v for v in range(1 << m.ncols) if m.apply(v) == 0}
        spanned = set()
        for mask in range(1 << ker.dim):
            v = 0
            for i in range(ker.dim):
                if (mask >> i) & 1:
                    v ^= ker.basis[i]
            spanned.add(v)
        assert members == spanned


def test_canonical_form_bit_identical():
    a = Subspace.from_vectors([0b011, 0b101], 3)
    b = Subspace.from_vectors([0b110, 0b011], 3)
    assert a == b
    assert a.basis == b.basis
    # sums and containment read the same canonical bases
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 6)
        a, b = (Subspace.from_vectors(
            [rng.getrandbits(n) for _ in range(rng.randint(0, 4))], n)
            for _ in range(2))
        ab = Subspace.from_vectors(a.basis + b.basis, n)
        assert ab == Subspace.from_vectors(b.basis + a.basis, n)
        assert ab.contains_subspace(a) and ab.contains_subspace(b)
        assert a.contains_subspace(b) == (ab == a)
        assert a.contains_subspace(Subspace.zero(n))
        assert Subspace.full(n).contains_subspace(ab)
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        Subspace.zero(2).contains_subspace(Subspace.zero(3))


subspace_draws = st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, (1 << n) - 1), max_size=8),
    st.lists(st.integers(0, 255), max_size=4),
    st.lists(st.integers(0, (1 << n) - 1), max_size=3)))


@settings(max_examples=300, deadline=None)
@given(subspace_draws)
def test_contains_subspace_matches_the_row_walk(draw):
    """The pivot-table containment agrees with ``contains`` run row by
    row, on canonical subspaces drawn inside the first one and across
    it."""
    n, spanning, combos, extra = draw
    a = Subspace.from_vectors(spanning, n)
    inside = []
    for mask in combos:
        v = 0
        for i, r in enumerate(a.basis):
            if mask >> i & 1:
                v ^= r
        inside.append(v)
    b_in = Subspace.from_vectors(inside, n)
    b_across = Subspace.from_vectors(inside + extra, n)
    assert a.contains_subspace(b_in)
    for b in (b_in, b_across):
        assert a.contains_subspace(b) == all(a.contains(r)
                                             for r in b.basis)
        assert b.contains_subspace(a) == all(b.contains(r)
                                             for r in a.basis)


@settings(max_examples=200, deadline=None)
@given(matrices, st.integers(0, 63))
def test_subspace_accepts_exactly_the_reduced_form(m, flip):
    """The linear canonical-form check agrees with re-reducing the rows, on
    the matrix, on its reduced form, and on that form with one bit flipped."""
    red, _ = _f2pure.rref(list(m.rows), m.ncols)
    cases = [list(m.rows), red]
    if red and m.ncols:
        i, j = flip % len(red), (flip // len(red)) % m.ncols
        cases.append(red[:i] + [red[i] ^ (1 << j)] + red[i + 1:])
    for rows in cases:
        if _f2pure.rref(rows, m.ncols)[0] == rows:
            assert Subspace(m.ncols, rows).basis == tuple(rows)
        else:
            with pytest.raises(ValueError, match="canonical reduced form"):
                Subspace(m.ncols, rows)


@pytest.mark.parametrize("rows", [
    [0b010, 0b001],          # pivots out of order
    [0b011, 0b010],          # row 0 keeps a bit at row 1's pivot
    [0b001, 0b000],          # a zero row
    [0b000],
    [0b101, 0b101],          # a duplicate row
])
def test_subspace_rejects_non_canonical_basis(rows):
    with pytest.raises(ValueError, match="canonical reduced form"):
        Subspace(3, rows)


@pytest.mark.parametrize("rows", [[0b1000], [0b001, 0b1010], [-1]])
def test_subspace_rejects_rows_outside_the_ambient_dimension(rows):
    with pytest.raises(ValueError, match="outside the ambient dimension"):
        Subspace(3, rows)


def test_solve_examples():
    i4 = BitMatrix.identity(4)
    assert solve(i4, 0b1010) == 0b1010
    z = BitMatrix.zero(3, 2)
    assert solve(z, 0b001) is None
    m = bitmatrix_from_entries([[1, 1]])
    x = solve(m, 1)
    assert x in (0b01, 0b10) and m.apply(x) == 1


@settings(max_examples=200)
@given(matrices, st.integers(0, 255))
def test_solve_verified_by_substitution(m, seed):
    target = seed & ((1 << m.nrows) - 1)
    x = solve(m, target)
    if x is not None:
        assert m.apply(x) == target
    else:
        # no vector works (exhaustive for small widths)
        if m.ncols <= 6:
            assert all(m.apply(v) != target for v in range(1 << m.ncols))


def test_matmul_against_entrywise():
    rng = random.Random(11)
    for _ in range(60):
        p, q, r = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = random_matrix(rng, p, q)
        b = random_matrix(rng, q, r)
        c = a @ b
        for i in range(p):
            for j in range(r):
                want = 0
                for t in range(q):
                    want ^= entry(a, i, t) & entry(b, t, j)
                assert entry(c, i, j) == want


def test_matrix_on_checked_rows_equals_checked_construction():
    """A slice of a checked matrix's rows, wrapped without the per-row
    check, equals the same rows passed through __init__."""
    rng = random.Random(17)
    for _ in range(40):
        ncols = rng.randint(0, 6)
        m = random_matrix(rng, rng.randint(0, 8), ncols)
        step = rng.randint(1, 3)
        rows = m.rows[rng.randint(0, 2)::step]
        sliced = BitMatrix._of_checked_rows(ncols, rows)
        assert sliced == BitMatrix(len(rows), ncols, rows)
        assert sliced.shape == (len(rows), ncols)


def test_transpose_involution_and_apply():
    rng = random.Random(13)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
        assert m.transpose().transpose() == m
        cols = [column(m, j) for j in range(m.ncols)]
        assert m.transpose() == BitMatrix(m.ncols, m.nrows, cols)
        assert BitMatrix.from_columns(cols, m.nrows) == m
        v = rng.getrandbits(m.ncols) if m.ncols else 0
        w = m.apply(v)
        for i in range(m.nrows):
            assert (w >> i) & 1 == (row(m, i) & v).bit_count() % 2


# -- pivot insertion against the column scan --------------------------------


@st.composite
def row_lists(draw):
    """(rows, width): up to 4x as many rows as columns, widths to 200, with
    zero rows, duplicates and rows that are sums of earlier ones mixed in."""
    width = draw(st.integers(0, 200))
    nrows = draw(st.integers(0, 4 * width))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from([0.02, 0.1, 0.5]))
    repeat = draw(st.sampled_from([0.0, 0.2, 0.6]))
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if rows and roll < repeat / 2:
            rows.append(rng.choice(rows))
        elif rows and roll < repeat:
            rows.append(rng.choice(rows) ^ rng.choice(rows))
        elif roll < repeat + 0.05:
            rows.append(0)
        else:
            rows.append(sum(1 << j for j in range(width)
                            if rng.random() < density))
    return rows, width


@settings(max_examples=120, deadline=None)
@given(row_lists())
def test_rref_matches_column_scan_oracle(case):
    rows, width = case
    before = list(rows)
    assert _f2pure.rref(rows, width) == rref_by_columns(rows, width)
    assert rows == before  # the input list is not touched


def test_rref_edge_cases_match_column_scan_oracle():
    rng = random.Random(5)
    cases = [([], 0), ([], 7), ([0, 0], 0), ([0, 0, 0], 5),
             ([1 << j for j in range(9)], 9),                 # identity
             ([(1 << 9) - 1 >> j for j in range(9)], 9),      # full rank
             ([rng.getrandbits(40) for _ in range(40)], 40),
             ([rng.getrandbits(12) for _ in range(48)], 12),
             ([0b10], 1), ([0b110, 0b011], 1)]                 # bits past ncols
    for rows, width in cases:
        assert _f2pure.rref(rows, width) == rref_by_columns(rows, width)
    assert _f2pure.rref([], 3) == ([], [])
    red, piv = _f2pure.rref([(1 << 9) - 1 >> j for j in range(9)], 9)
    assert red == [1 << j for j in range(9)] and piv == list(range(9))


def test_solve_augmented_column_matches_column_scan_oracle():
    """solve reduces [M | target] with one column more; the extra column
    is a pivot exactly when the system is inconsistent."""
    rng = random.Random(17)
    for _ in range(300):
        ncols = rng.randint(0, 12)
        nrows = rng.randint(0, 16)
        base = [rng.getrandbits(ncols) if ncols else 0
                for _ in range(rng.randint(0, 4))]
        rows = []
        for _ in range(nrows):
            v = 0
            for b in base:
                if rng.random() < 0.5:
                    v ^= b
            rows.append(v)
        target = rng.getrandbits(nrows) if nrows else 0
        tbit = 1 << ncols
        aug = [rv | tbit if (target >> i) & 1 else rv
               for i, rv in enumerate(rows)]
        got = _f2pure.rref(aug, ncols + 1)
        assert got == rref_by_columns(aug, ncols + 1)
        inconsistent = bool(got[1]) and got[1][-1] == ncols
        x = _f2pure.solve(rows, ncols, target)
        assert (x is None) == inconsistent
        if x is not None:
            assert _f2pure.apply(rows, x) == target


# -- one pivot insertion, one kernel routine ----------------------------------


@st.composite
def small_rows(draw, extra=0):
    """(rows, ncols) on shapes 0..12 x 0..12, zero rows and zero columns
    included.  Each row is a sum of some of up to 12 base rows, so
    kernels and dependent or repeated rows are common; extra widens the
    rows past ncols."""
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(0, 12))
    base = draw(st.lists(st.integers(0, (1 << (ncols + extra)) - 1),
                         min_size=1, max_size=12))
    rows = []
    for pick in draw(st.lists(st.integers(0, (1 << len(base)) - 1),
                              min_size=nrows, max_size=nrows)):
        v = 0
        for i, b in enumerate(base):
            if (pick >> i) & 1:
                v ^= b
        rows.append(v)
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(small_rows())
def test_nullspace_matches_free_column_oracle(case):
    rows, ncols = case
    assert _f2pure.nullspace(rows, ncols) == nullspace_by_columns(rows, ncols)


@settings(max_examples=300, deadline=None)
@given(small_rows())
def test_column_kernel_is_nullspace_of_the_transpose(case):
    cols, n = case  # len(cols) columns of n rows
    assert _f2pure.column_kernel(cols, n) == _f2pure.nullspace(
        _f2pure.transpose(cols, n), len(cols))


@settings(max_examples=300, deadline=None)
@given(small_rows(), st.integers(0, (1 << 12) - 1))
def test_insert_reduces_to_zero_exactly_on_the_span(case, probe):
    rows, ncols = case

    def rank(rs):
        return len(rref_by_columns(rs, ncols)[0])
    table = {}
    for i, v in enumerate(rows):
        grew = rank(rows[:i + 1]) > rank(rows[:i])
        assert (_f2pure.insert(table, v) != 0) == grew
        assert len(table) == rank(rows[:i + 1])
    probe &= (1 << ncols) - 1
    in_span = rank(rows + [probe]) == rank(rows)
    assert (_f2pure.insert(dict(table), probe) == 0) == in_span


@settings(max_examples=300, deadline=None)
@given(small_rows(extra=3))
def test_rref_drops_pivots_at_or_above_ncols(case):
    """Rows with bits past ncols reduce as their parts below ncols do; the
    reduced rows stay in the row space of the input."""
    rows, ncols = case
    red, pivots = _f2pure.rref(rows, ncols)
    mask = (1 << ncols) - 1
    assert ([v & mask for v in red], pivots) == rref_by_columns(
        [v & mask for v in rows], ncols)
    width = ncols + 3
    assert (len(rref_by_columns(rows + red, width)[0])
            == len(rref_by_columns(rows, width)[0]))
