import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steenmod import _f2pure
from steenmod.f2 import BitMatrix, Subspace, kernel

from oracles import bitmatrix_from_entries, rref_2x2_hand, rref_by_columns


def random_matrix(rng, nrows, ncols):
    return BitMatrix(nrows, ncols, [rng.getrandbits(ncols) for _ in range(nrows)])


matrices = st.integers(0, 8).flatmap(
    lambda r: st.integers(0, 8).flatmap(
        lambda c: st.lists(st.integers(0, (1 << c) - 1 if c else 0),
                           min_size=r, max_size=r).map(
            lambda rows: BitMatrix(r, c, rows))))


def test_rref_identity_fixed_point():
    i3 = BitMatrix.identity(3)
    assert i3.rref() == i3


def test_rref_zero_matrix_drops_rows():
    z = BitMatrix.zero(4, 3)
    assert z.rref().nrows == 0
    assert z.rref().rank() == 0


def test_rref_2x2_hand_oracle():
    for bits in range(16):
        entries = [[(bits >> 0) & 1, (bits >> 1) & 1],
                   [(bits >> 2) & 1, (bits >> 3) & 1]]
        got = bitmatrix_from_entries(entries).rref()
        want = bitmatrix_from_entries(rref_2x2_hand(entries), ncols=2)
        assert got == want, entries


def test_rref_spec_example():
    m = bitmatrix_from_entries([[1, 1], [1, 0]])
    assert m.rref() == BitMatrix.identity(2)


@settings(max_examples=200)
@given(matrices)
def test_rref_idempotent_and_rank_preserving(m):
    r = m.rref()
    assert r.rref() == r
    assert r.rank() == m.rank()
    # row space preserved: every original row reduces to zero
    sp = Subspace(m.ncols, r)
    assert all(sp.contains(row) for row in m.rows)


@settings(max_examples=200)
@given(matrices)
def test_rank_nullity(m):
    assert kernel(m).dim == m.ncols - m.rank()


def test_kernel_examples():
    assert kernel(BitMatrix.identity(5)).dim == 0
    full = kernel(BitMatrix.zero(3, 4))
    assert full.dim == 4
    k = kernel(bitmatrix_from_entries([[1, 1]]))
    assert k.dim == 1 and k.basis.rows == (0b11,)
    # exhaustive check over all four vectors
    m = bitmatrix_from_entries([[1, 1]])
    members = [v for v in range(4) if m.apply(v) == 0]
    assert members == [0, 0b11]


def test_kernel_members_exhaustive_random():
    rng = random.Random(7)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 6))
        ker = kernel(m)
        members = {v for v in range(1 << m.ncols) if m.apply(v) == 0}
        spanned = set()
        for mask in range(1 << ker.dim):
            v = 0
            for i in range(ker.dim):
                if (mask >> i) & 1:
                    v ^= ker.basis.row(i)
            spanned.add(v)
        assert members == spanned


def test_canonical_form_bit_identical():
    a = Subspace.from_vectors([0b011, 0b101], 3)
    b = Subspace.from_vectors([0b110, 0b011], 3)
    assert a == b
    assert a.basis.rows == b.basis.rows
    # sums and containment read the same canonical bases
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 6)
        a, b = (Subspace.from_vectors(
            [rng.getrandbits(n) for _ in range(rng.randint(0, 4))], n)
            for _ in range(2))
        ab = a.sum_with(b)
        assert ab == b.sum_with(a)
        assert ab == Subspace.from_vectors(a.basis.rows + b.basis.rows, n)
        assert ab.contains_subspace(a) and ab.contains_subspace(b)
        assert a.contains_subspace(b) == (ab == a)
        assert a.contains_subspace(Subspace.zero(n))
        assert Subspace.full(n).contains_subspace(ab)
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        Subspace.zero(2).sum_with(Subspace.zero(3))
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        Subspace.zero(2).contains_subspace(Subspace.zero(3))


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
        b = BitMatrix(len(rows), m.ncols, rows)
        if _f2pure.rref(rows, m.ncols)[0] == rows:
            assert Subspace(m.ncols, b).basis == b
        else:
            with pytest.raises(ValueError, match="canonical reduced form"):
                Subspace(m.ncols, b)


@pytest.mark.parametrize("rows", [
    [0b010, 0b001],          # pivots out of order
    [0b011, 0b010],          # row 0 keeps a bit at row 1's pivot
    [0b001, 0b000],          # a zero row
    [0b000],
    [0b101, 0b101],          # a duplicate row
])
def test_subspace_rejects_non_canonical_basis(rows):
    with pytest.raises(ValueError, match="canonical reduced form"):
        Subspace(3, BitMatrix(len(rows), 3, rows))


def test_solve_examples():
    i4 = BitMatrix.identity(4)
    assert i4.solve(0b1010) == 0b1010
    z = BitMatrix.zero(3, 2)
    assert z.solve(0b001) is None
    m = bitmatrix_from_entries([[1, 1]])
    x = m.solve(1)
    assert x in (0b01, 0b10) and m.apply(x) == 1


@settings(max_examples=200)
@given(matrices, st.integers(0, 255))
def test_solve_verified_by_substitution(m, seed):
    target = seed & ((1 << m.nrows) - 1)
    x = m.solve(target)
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
                    want ^= a.entry(i, t) & b.entry(t, j)
                assert c.entry(i, j) == want


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
        cols = [m.column(j) for j in range(m.ncols)]
        assert m.transpose() == BitMatrix(m.ncols, m.nrows, cols)
        assert BitMatrix.from_columns(cols, m.nrows) == m
        v = rng.getrandbits(m.ncols) if m.ncols else 0
        w = m.apply(v)
        for i in range(m.nrows):
            assert (w >> i) & 1 == (m.row(i) & v).bit_count() % 2


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
