import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (column, milnor_product_unpruned,
                     multiplication_block_by_pairs, row, square_rows_by_pairs)
from steenmod import milnor as M
from steenmod.annihilator import chain_perp_profile, sq_power_chain
from steenmod.f2 import BitMatrix
from steenmod.gmodule import Window, dual_regular, regular
from steenmod.milnor import Algebra, Element

FULL = Algebra.full()
A2 = Algebra.subalgebra(2)


def test_degree_examples():
    assert M.degree(()) == 0
    assert M.degree((0, 1)) == 3
    assert M.degree((3, 1)) == 6


def test_canonical_strips_trailing_zeros():
    assert Element([(3, 0, 0)]).terms == frozenset([(3,)])
    assert Element([(0, 0)]).terms == frozenset([()])
    with pytest.raises(ValueError):
        Element([(-1,)])


def test_basis_examples():
    assert FULL.basis(0) == ((),)
    assert set(FULL.basis(7)) == {(7,), (4, 1), (1, 2), (0, 0, 1)}
    a1 = Algebra.subalgebra(1)
    assert set(a1.basis(3)) == {(3,), (0, 1)}


def test_basis_is_sorted_and_graded():
    for d in range(127):
        basis = FULL.basis(d)
        assert list(basis) == sorted(set(basis))
        assert all(M.degree(s) == d for s in basis)


def test_basis_dims_match_the_generating_function():
    """Over the full algebra dim A^d, d <= 126, is the coefficient of x^d
    in the product of 1 / (1 - x^(2^i - 1)) over i >= 1."""
    top = 126
    want = [1] + [0] * top
    for i in range(1, top.bit_length() + 1):
        w = (1 << i) - 1
        for d in range(w, top + 1):
            want[d] += want[d - w]
    assert [FULL.dim(d) for d in range(top + 1)] == want


def test_subalgebra_bases_filter_the_full_basis():
    """Every basis of A(n), n <= 3, up to one past its top, is the full
    algebra's basis of that degree filtered by the profile."""
    for n in range(4):
        alg = Algebra.subalgebra(n)
        for d in range(alg.top_degree() + 2):
            assert alg.basis(d) == tuple(
                s for s in FULL.basis(d) if M.in_profile(s, n)), (n, d)


def test_unit_law():
    rng = random.Random(5)
    one = Element([()])
    for _ in range(25):
        d = rng.randint(0, 12)
        basis = FULL.basis(d)
        x = Element(s for s in basis if rng.random() < 0.5)
        assert one * x == x
        assert x * one == x


def test_product_examples():
    sq = Element.sq
    assert sq(1) * sq(1) == Element.zero()
    assert sq(2) * sq(1) == sq(3) + sq(0, 1)
    assert sq(1) * sq(2) == sq(3)
    assert sq(2) * sq(2) == sq(1, 1)
    assert sq(3) * sq(1) == sq(1, 1)


def test_product_degree_additive():
    rng = random.Random(9)
    for _ in range(40):
        d1, d2 = rng.randint(0, 9), rng.randint(0, 9)
        s1 = rng.choice(FULL.basis(d1))
        s2 = rng.choice(FULL.basis(d2))
        p = Element([s1]) * Element([s2])
        if not p.is_zero():
            assert p.degree() == d1 + d2


def _assoc_triples(dmax, sample=None, seed=0):
    triples = []
    for d1 in range(dmax + 1):
        for d2 in range(dmax + 1 - d1):
            for d3 in range(dmax + 1 - d1 - d2):
                for a in FULL.basis(d1):
                    for b in FULL.basis(d2):
                        for c in FULL.basis(d3):
                            triples.append((a, b, c))
    if sample is not None:
        triples = random.Random(seed).sample(triples, sample)
    return triples


def test_associativity_exhaustive_low_degree():
    for a, b, c in _assoc_triples(10):
        ea, eb, ec = Element([a]), Element([b]), Element([c])
        assert (ea * eb) * ec == ea * (eb * ec)


def test_in_profile_examples():
    assert M.in_profile((3, 1), 1)
    assert not M.in_profile((4,), 1)
    for n in range(4):
        assert M.in_profile((), n)


def test_profile_total_dims():
    # 2^((n+1)(n+2)/2)
    for n, want in [(0, 2), (1, 8), (2, 64), (3, 1024)]:
        alg = Algebra.subalgebra(n)
        total = sum(alg.dim(d) for d in range(alg.top_degree() + 1))
        assert total == want


def test_profile_closure_under_product():
    for n in range(3):
        alg = Algebra.subalgebra(n)
        top = alg.top_degree()
        for d1 in range(top + 1):
            for d2 in range(top + 1 - d1):
                for a in alg.basis(d1):
                    for b in alg.basis(d2):
                        for t in M.multiply_seqs(a, b):
                            assert M.in_profile(t, n), (a, b, t)


def test_products_match_unpruned_oracle_exhaustive():
    """Every pair of total degree <= 24, and every pair in A(2)."""
    pairs = [(a, b) for d1 in range(25) for d2 in range(25 - d1)
             for a in FULL.basis(d1)
             for b in FULL.basis(d2)]
    a2 = [t for d in range(A2.top_degree() + 1) for t in A2.basis(d)]
    pairs += [(a, b) for a in a2 for b in a2]
    for a, b in pairs:
        assert M.multiply_seqs(a, b) == milnor_product_unpruned(a, b), (a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_products_match_unpruned_oracle_random(data):
    d1 = data.draw(st.integers(0, 48))
    d2 = data.draw(st.integers(0, 48 - d1))
    a = data.draw(st.sampled_from(FULL.basis(d1)))
    b = data.draw(st.sampled_from(FULL.basis(d2)))
    assert M.multiply_seqs(a, b) == milnor_product_unpruned(a, b)


def test_blocks_match_per_pair_oracle_exhaustive():
    """Every block with d1 + d2 <= 32 over the full algebra, and every
    block of A(1) and A(2)."""
    cases = [(d1, n - d1, FULL) for n in range(33) for d1 in range(n + 1)]
    for alg in (Algebra.subalgebra(1), A2):
        top = alg.top_degree()
        cases += [(d1, d2, alg) for d1 in range(top + 1)
                  for d2 in range(top + 1)]
    for d1, d2, alg in cases:
        want = multiplication_block_by_pairs(d1, d2, alg)
        assert M.multiplication_matrix(d1, d2, alg) == want, (d1, d2, alg)
        assert M.product_columns(d1, d2, alg) == \
            tuple(column(want, c) for c in range(want.ncols))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_blocks_match_per_pair_oracle_random(data):
    n = data.draw(st.integers(33, 40))
    d1 = data.draw(st.integers(0, n))
    want = multiplication_block_by_pairs(d1, n - d1, FULL)
    assert M.multiplication_matrix(d1, n - d1, FULL) == want


def test_multiplication_matrix_unit_blocks():
    for d in range(7):
        m = M.multiplication_matrix(0, d, FULL)
        assert m == M.multiplication_matrix(0, d, FULL)
        assert m.shape == (len(FULL.basis(d)),) * 2
        assert m == m.__class__.identity(m.nrows)
        m2 = M.multiplication_matrix(d, 0, FULL)
        assert m2 == m2.__class__.identity(m2.nrows)


def test_multiplication_matrix_sq1_sq1():
    m = M.multiplication_matrix(1, 1, FULL)
    assert m.shape == (1, 1) and m.rows == (0,)


def test_multiplication_matrix_matches_products():
    rng = random.Random(2)
    for _ in range(20):
        d1, d2 = rng.randint(0, 7), rng.randint(0, 7)
        mat = M.multiplication_matrix(d1, d2, FULL)
        b1 = FULL.basis(d1)
        b2 = FULL.basis(d2)
        i = rng.randrange(len(b1))
        j = rng.randrange(len(b2))
        col = column(mat, i * len(b2) + j)
        want = Element([b1[i]]) * Element([b2[j]])
        assert M.element_from_coords(col, d1 + d2, FULL) == want


def test_parse_and_print_roundtrip():
    cases = ["Sq(3,1)+Sq(6)", "Sq()", "0", "Sq(0,2)+Sq(3,1)+Sq(6)"]
    for text in cases:
        e = M.parse_element(text)
        assert M.parse_element(str(e)) == e
    assert M.parse_element(" Sq( 3 , 1 ) + Sq(6) ") == M.parse_element("Sq(3,1)+Sq(6)")
    with pytest.raises(ValueError):
        M.parse_element("Sq[3]")
    with pytest.raises(ValueError):
        M.parse_element("")


def test_mod2_cancellation():
    e = M.parse_element("Sq(3)+Sq(3)")
    assert e.is_zero()


def test_left_right_multiplication_consistency():
    """The regular module's action of an element and the rows of its
    transposed right multiplication against products of elements:
    monomials and multi-term elements, d + deg elem <= 16, in the full
    algebra and in A(2)."""
    rng = random.Random(4)
    for algebra in (FULL, A2):
        for trial in range(80):
            k = rng.randint(1, 12)
            d = rng.randint(0, 16 - k)
            basis = algebra.basis(k)
            if trial % 2 and len(basis) > 1:
                elem = Element(rng.sample(basis, rng.randint(2, len(basis))))
            else:
                elem = Element([rng.choice(basis)])
            src = algebra.basis(d)
            lm = regular(algebra, Window(0, 16)).action_of(elem, d)
            rm = M.right_multiplication(elem, d, algebra)
            assert rm.shape == (len(src), algebra.dim(d + k))
            for j, c in enumerate(src):
                assert M.element_from_coords(column(lm, j), d + k, algebra) \
                    == elem * Element([c])
                assert M.element_from_coords(row(rm, j), d + k, algebra) \
                    == Element([c]) * elem


def _check_right_memo(e, k, alg):
    """Each memoized transposed right multiplication by a monomial of
    degree k on A^e, and the stride slice of the product block it is
    built from, against the per-pair block (e, k): the rows for monomial
    j are the block's columns j, j + dim A^k, ..."""
    block = multiplication_block_by_pairs(e, k, alg)
    basis_k = alg.basis(k)
    de = len(alg.basis(e))
    for j, seq in enumerate(basis_k):
        mat = M.right_multiplication(Element([seq]), e, alg)
        assert mat is M._right_memo(e, alg)[seq]
        rows = [column(block, j + i * len(basis_k)) for i in range(de)]
        assert mat == BitMatrix(de, block.nrows, rows), (seq, e, alg)
        walked = M.product_columns(e, k, alg)
        assert walked[j::len(basis_k)] == mat.rows == tuple(rows)


def test_right_memo_matches_per_pair_oracle_exhaustive():
    """Every monomial of degree k >= 1 on every A^e with e + k <= 32 over
    the full algebra, and every pair of degrees of A(1) and A(2)."""
    cases = [(n - k, k, FULL) for n in range(33) for k in range(1, n + 1)]
    for alg in (Algebra.subalgebra(1), A2):
        top = alg.top_degree()
        cases += [(e, k, alg) for e in range(top + 1)
                  for k in range(1, top + 1)]
    for e, k, alg in cases:
        _check_right_memo(e, k, alg)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_right_memo_matches_per_pair_oracle_random(data):
    n = data.draw(st.integers(33, 64))
    k = data.draw(st.integers(1, n))
    _check_right_memo(n - k, k, FULL)


@pytest.mark.parametrize("alg", [FULL, Algebra.subalgebra(1), A2],
                         ids=["full", "a1", "a2"])
def test_dual_regular_modules_share_memoized_matrices(alg):
    """Dual regular modules on different windows, and a suspended copy,
    hold the same matrix object for the same (monomial, degree)."""
    wide = dual_regular(alg, Window(-30, 0))
    narrow = dual_regular(alg, Window(-20, -4))
    moved = dual_regular(alg, Window(-27, 3)).suspend(-3)
    shared = 0
    for k in range(1, 17):
        for seq in alg.basis(k):
            for d in range(-20, -4 - k + 1):
                if not (wide.dims[d] and wide.dims[d + k]):
                    continue
                mat = wide.action(seq, d)
                assert narrow.action(seq, d) is mat
                assert moved.action(seq, d - 3) is mat
                assert mat is M.right_multiplication(
                    Element([seq]), -d - k, alg)
                shared += 1
    assert shared


def _powers(n, alg):
    """The degrees 2^j <= n of the algebra's squares Sq(2^j)."""
    return [1 << j for j in range(n.bit_length()) if alg.contains((1 << j,))]


def _check_square_rows(n, alg):
    table = M._walk_squares(n, alg)
    assert sorted(table) == _powers(n, alg), (n, alg)
    for k, rows in table.items():
        assert rows == square_rows_by_pairs(n, k, alg), (n, k, alg)


def test_square_rows_match_per_pair_oracle_exhaustive():
    """Every square Sq(2^j) of every degree n <= 40 over the full algebra,
    and of every degree of A(1) and A(2), one past the top included."""
    cases = [(n, FULL) for n in range(41)]
    for alg in (Algebra.subalgebra(1), A2):
        cases += [(n, alg) for n in range(alg.top_degree() + 2)]
    for n, alg in cases:
        _check_square_rows(n, alg)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_square_rows_match_per_pair_oracle_random(data):
    n = data.draw(st.integers(41, 70))
    k = 1 << data.draw(st.integers(0, n.bit_length() - 1))
    table = M._walk_squares(n, FULL)
    assert sorted(table) == _powers(n, FULL)
    assert table[k] == square_rows_by_pairs(n, k, FULL)


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty product and right multiplication memos for one test, the
    process's own restored after it."""
    def reset():
        monkeypatch.setattr(M, "_BLOCKS", {})
        monkeypatch.setattr(M, "_right_memo",
                            lru_cache(maxsize=None)(lambda d, alg: {}))
    reset()
    return reset


@pytest.fixture
def square_walks(monkeypatch):
    """The (degree, algebra) of each call of ``_walk_squares`` in one test,
    in call order."""
    calls = []
    walk = M._walk_squares

    def counted(n, alg):
        calls.append((n, alg))
        return walk(n, alg)
    monkeypatch.setattr(M, "_walk_squares", counted)
    return calls


@pytest.mark.parametrize("alg", [FULL, Algebra.subalgebra(1), A2],
                         ids=["full", "a1", "a2"])
def test_dual_regular_squares_agree_walked_or_not(alg, fresh_memos,
                                                  square_walks):
    """A dual regular module reads Sq(2^i) of a degree not yet walked whole
    off the squares' walk, leaving the degree unwalked whole, and of a
    walked degree off the whole walk; both give the same matrices, the
    stride slices of the whole blocks.  A read of Sq(3) walks its degree
    whole."""
    window = Window(-24, 0)
    keys = [((k,), d) for d in window for k in _powers(24, alg)
            if d + k <= 0]

    def read():
        m = dual_regular(alg, window)
        return {key: m.action(*key) for key in keys
                if m.dims[key[1]] and m.dims[key[1] + key[0][0]]}
    by_squares = read()
    degrees = {-d for _, d in by_squares}
    assert sorted(square_walks) == sorted((n, alg) for n in degrees)
    assert not any((n, alg) in M._BLOCKS for n in degrees)
    fresh_memos()
    for n in degrees:
        M._product_blocks(n, alg)
    walks = len(square_walks)
    assert read() == by_squares
    assert len(square_walks) == walks
    for ((k,), d), mat in by_squares.items():
        block = M.product_columns(-d - k, k, alg)
        j = M._basis_index(k, alg.profile_index)[(k,)]
        assert mat.rows == block[j::alg.dim(k)]
    fresh_memos()
    m = dual_regular(alg, window)
    mat = m.action((3,), -6)
    assert (6, alg) in M._BLOCKS and len(square_walks) == walks
    assert mat.rows == square_rows_by_pairs(6, 3, alg)


def test_square_walk_runs_once_per_degree(fresh_memos, square_walks):
    """A 4-stage square chain on the dual regular module walks each degree
    for its squares at most once, and every matrix that walk files is the
    one ``right_multiplication`` returns."""
    m = dual_regular(FULL, Window(-30, 0))
    chain_perp_profile(sq_power_chain(4), m)
    assert square_walks
    assert len(square_walks) == len(set(square_walks))
    for n, _ in square_walks:
        for k in _powers(n, FULL):
            mat = M._right_memo(n - k, FULL)[(k,)]
            assert mat is M.right_multiplication(Element.sq(k), n - k, FULL)
            assert mat.rows == square_rows_by_pairs(n, k, FULL)


def test_square_walk_keeps_matrices_already_filed(fresh_memos, monkeypatch):
    """A square's matrix already in the memo when its degree is walked for
    its squares keeps its identity."""
    kept = M.right_multiplication(Element.sq(2), 18, FULL)
    # forget the whole walk of degree 20, keep its memoized matrix
    monkeypatch.setattr(M, "_BLOCKS", {})
    m = dual_regular(FULL, Window(-30, 0))
    assert m.action((1,), -20).rows == square_rows_by_pairs(20, 1, FULL)
    assert (20, FULL) not in M._BLOCKS
    assert M._right_memo(18, FULL)[(2,)] is kept
    assert m.action((2,), -20) is kept


def test_multi_term_right_multiplication_is_not_memoized():
    """A sum of monomials is rebuilt on every call and equals the XOR of
    the terms' memoized matrices."""
    for e, k in [(3, 4), (7, 6), (10, 8)]:
        terms = FULL.basis(k)
        elem = Element(terms[:2])
        memo = M._right_memo(e, FULL)
        before = dict(memo)
        first = M.right_multiplication(elem, e, FULL)
        again = M.right_multiplication(elem, e, FULL)
        assert first == again and first is not again
        assert memo == before
        want = M.right_multiplication(Element([terms[0]]), e, FULL) \
            + M.right_multiplication(Element([terms[1]]), e, FULL)
        assert first == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_degree_memo_and_basis_index_match_closed_forms(data):
    alg = data.draw(st.sampled_from([FULL, Algebra.subalgebra(1), A2]))
    d = data.draw(st.integers(0, 40 if alg.is_full else alg.top_degree()))
    basis = alg.basis(d)
    index = M._basis_index(d, alg.profile_index)
    assert len(index) == len(basis)
    for seq in basis:
        assert index[seq] == basis.index(seq)
        closed = sum(r * (2 ** (i + 1) - 1) for i, r in enumerate(seq))
        assert M.degree(seq) == closed == d
    seq = tuple(data.draw(st.lists(st.integers(0, 9), max_size=4)))
    closed = sum(r * (2 ** (i + 1) - 1) for i, r in enumerate(seq))
    assert M.degree(seq) == closed  # first read, or a memo hit
    assert M.degree(seq) == closed  # a memo hit
