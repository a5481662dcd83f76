import random

from hypothesis import given, settings
from hypothesis import strategies as st

from steenmod.f2 import BitMatrix, Subspace, intersect, kernel, rref, solve

from oracles import rref_2x2_hand


def random_matrix(rng, nrows, ncols):
    return BitMatrix(nrows, ncols, [rng.getrandbits(ncols) for _ in range(nrows)])


matrices = st.integers(0, 8).flatmap(
    lambda r: st.integers(0, 8).flatmap(
        lambda c: st.lists(st.integers(0, (1 << c) - 1 if c else 0),
                           min_size=r, max_size=r).map(
            lambda rows: BitMatrix(r, c, rows))))


def test_rref_identity_fixed_point():
    i3 = BitMatrix.identity(3)
    assert rref(i3) == i3


def test_rref_zero_matrix_drops_rows():
    z = BitMatrix.zero(4, 3)
    assert rref(z).nrows == 0
    assert rref(z).rank() == 0


def test_rref_2x2_hand_oracle():
    for bits in range(16):
        entries = [[(bits >> 0) & 1, (bits >> 1) & 1],
                   [(bits >> 2) & 1, (bits >> 3) & 1]]
        got = rref(BitMatrix.from_entries(entries))
        want = BitMatrix.from_entries(rref_2x2_hand(entries), ncols=2)
        assert got == want, entries


def test_rref_spec_example():
    m = BitMatrix.from_entries([[1, 1], [1, 0]])
    assert rref(m) == BitMatrix.identity(2)


@settings(max_examples=200)
@given(matrices)
def test_rref_idempotent_and_rank_preserving(m):
    r = rref(m)
    assert rref(r) == r
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
    k = kernel(BitMatrix.from_entries([[1, 1]]))
    assert k.dim == 1 and k.basis.rows == (0b11,)
    # exhaustive check over all four vectors
    m = BitMatrix.from_entries([[1, 1]])
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


def test_intersect_examples():
    a = Subspace.from_vectors([0b01], 2)
    b = Subspace.from_vectors([0b11], 2)
    assert intersect(a, b).dim == 0
    assert intersect(a, a) == a
    assert intersect(a, Subspace.full(2)) == a


@settings(max_examples=100)
@given(matrices, matrices)
def test_intersect_commutative(m1, m2):
    n = max(m1.ncols, m2.ncols)
    a = Subspace.from_vectors(m1.rows, n)
    b = Subspace.from_vectors(m2.rows, n)
    assert intersect(a, b) == intersect(b, a)
    assert intersect(a, b).dim <= min(a.dim, b.dim)


def test_intersect_associative_and_monotone():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 6)
        a, b, c = (Subspace.from_vectors(
            [rng.getrandbits(n) for _ in range(rng.randint(0, 4))], n)
            for _ in range(3))
        assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))
        ab = intersect(a, b)
        assert ab.dim <= a.dim
        if a.contains_subspace(b):
            assert intersect(a, b) == b
        # dimension formula via the sum
        assert ab.dim == a.dim + b.dim - a.sum_with(b).dim


def test_canonical_form_bit_identical():
    a = Subspace.from_vectors([0b011, 0b101], 3)
    b = Subspace.from_vectors([0b110, 0b011], 3)
    assert a == b
    assert a.basis.rows == b.basis.rows


def test_solve_examples():
    i4 = BitMatrix.identity(4)
    assert solve(i4, 0b1010) == 0b1010
    z = BitMatrix.zero(3, 2)
    assert solve(z, 0b001) is None
    m = BitMatrix.from_entries([[1, 1]])
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
                    want ^= a.entry(i, t) & b.entry(t, j)
                assert c.entry(i, j) == want


def test_transpose_involution_and_apply():
    rng = random.Random(13)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
        assert m.transpose().transpose() == m
        v = rng.getrandbits(m.ncols) if m.ncols else 0
        w = m.apply(v)
        for i in range(m.nrows):
            assert (w >> i) & 1 == (m.row(i) & v).bit_count() % 2
