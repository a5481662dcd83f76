"""Arithmetic in the mod-2 Steenrod algebra in the Milnor basis.

A basis monomial Sq(r1, ..., rk) is a tuple of nonnegative ints with no
trailing zeros; the empty tuple is the unit.  Its degree is
sum(r[i] * (2**(i+1) - 1)).  Elements are mod-2 sums of monomials.  The
finite subalgebra A(n) is cut out by the profile bound
r[i] < 2**(n + 1 - i) for 0-based i <= n, r[i] = 0 beyond; it is the
subalgebra generated by Sq(1), Sq(2), ..., Sq(2**n), which the test suite
checks rather than assumes.

Products follow Milnor's formula: Sq(R) Sq(S) sums the monomials of
diagonal sums of the matrices that split R by rows and S by columns, each
counted with a product of multinomial coefficients.  A multinomial is odd
iff its parts are carry-free, i.e. pairwise bitwise disjoint.  Every
product comes from one memoized walk per degree, ``_product_blocks``, of
the dual coproduct psi(xi_m) = sum_i xi_(m-i)^(2^i) (x) xi_i.  For each
target monomial Sq(T) of degree n, each bit of t_m goes to one of the
m + 1 cells of diagonal m, and each choice is one carry-free matrix, so
one walk per T meets only live terms and fills every block
A^d1 (x) A^(n-d1) -> A^n at once.  For a whole table this costs far less
than one product per pair, since no matrix that dies mod 2 is visited.

The readers of products are slices of one block:

- ``multiply_seqs(r, s)``: one entry of block (deg r, deg s) over the full
  algebra, as a set of monomials; ``Element.__mul__`` sums them.  One
  isolated product of degree n pays for the walk of degree n.
- ``product_columns(d1, d2)``: block (d1, d2) itself, one column mask per
  pair; ``comodule.extended`` assembles a coaction block from such blocks
  on the first read of any of its monomials.
  Read with stride dim A^d2, the run at index j holds the rows of the
  transposed right multiplication by the j-th monomial of degree d2 on
  A^d1; ``comodule.iota_matches_suspended_duals`` compares those runs
  without building a matrix.
- ``multiplication_matrix(d1, d2)``: the same block as a matrix, for
  callers outside the engine.
- ``_left_action(seq, d)``: left multiplication by one monomial on A^d,
  the contiguous run of block (deg seq, d) at the monomial's index; the
  regular module's source.
- ``_right_action(seq, d)``: the stride run of block (d, deg seq) at the
  monomial's index as a memoized matrix; the dual regular module's
  source.  When that source reads a square Sq(2^i) at a degree
  n = d + 2^i whose whole walk has not run, the rows come instead
  from ``_walk_squares(n)``, a walk of only the squares' part of the
  coproduct, which costs 2^popcount(T) per target T instead of the
  product of (m + 1)^popcount(t_m), and keeps no block of the degree; the
  rows of every Sq(2^j) of degree n go into the memo at once.  That
  source is the walk's one reader.
- ``right_multiplication``: the transposed right multiplication by any
  homogeneous element, a monomial going through ``_right_action`` and a
  sum XORing the stride slices of its terms; ideal spans and relations
  read it.

Every basis goes through ``Algebra.basis`` and every dimension through
``Algebra.dim``, inside this module too.  Basis lists and each monomial's
position in its basis, monomial degrees, isolated products, the blocks of
each degree, multiplication matrices, and the left and the transposed
right multiplication matrix of each monomial on each degree are memoized;
construction is idempotent and the memoized values are immutable, so
sharing them is safe.  The squares' rows are kept only as those matrices.
Nothing is kept across runs: a degree's blocks are rebuilt by one walk the
first time a process reads them.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Optional

from .f2 import BitMatrix, mask_to_bits

Seq = tuple[int, ...]

UNIT: Seq = ()


def _is_square(seq: Seq) -> bool:
    """Whether seq is Sq(2^i) for some i >= 0."""
    return len(seq) == 1 and not seq[0] & (seq[0] - 1)


def _canonical(seq: Iterable[int]) -> Seq:
    s = tuple(seq)
    for r in s:
        if r < 0:
            raise ValueError(f"negative Milnor exponent in {s}")
    while s and s[-1] == 0:
        s = s[:-1]
    return s


_DEGREES: dict[Seq, int] = {}


def degree(seq: Seq) -> int:
    """Degree of Sq(r1,...,rk): sum of r_i * (2^i - 1), memoized per seq."""
    d = _DEGREES.get(seq)
    if d is None:
        d = _DEGREES[seq] = sum(r * ((1 << (i + 1)) - 1)
                                for i, r in enumerate(seq))
    return d


def in_profile(seq: Seq, n: int) -> bool:
    """Whether the monomial lies in A(n): r_i < 2^(n+1-i), zero past slot n."""
    if n < 0:
        raise ValueError("profile index must be >= 0")
    for i, r in enumerate(seq):
        bound_exp = n + 1 - i
        if bound_exp <= 0:
            if r != 0:
                return False
        elif r >= (1 << bound_exp):
            return False
    return True


_ALGEBRAS: dict[Optional[int], "Algebra"] = {}


class Algebra:
    """The full algebra (profile None) or the finite subalgebra A(n).

    Interned: constructing an algebra returns the one instance of its
    profile, so the memos keyed by an algebra hash and compare it by
    identity.  Its top degree is computed once, at first construction.
    """

    __slots__ = ("profile_index", "is_full", "_top")

    def __new__(cls, profile_index: Optional[int] = None) -> "Algebra":
        alg = _ALGEBRAS.get(profile_index)
        if alg is None:
            n = profile_index
            if n is not None and n < 0:
                raise ValueError("subalgebra index must be >= 0")
            alg = super().__new__(cls)
            alg.profile_index = n
            alg.is_full = n is None
            alg._top = None if n is None else degree(
                tuple((1 << (n + 1 - i)) - 1 for i in range(n + 1)))
            _ALGEBRAS[n] = alg
        return alg

    def __reduce__(self):
        # copies and unpickled instances go through the intern table too
        return Algebra, (self.profile_index,)

    @classmethod
    def full(cls) -> "Algebra":
        return cls(None)

    @classmethod
    def subalgebra(cls, n: int) -> "Algebra":
        return cls(n)

    def contains(self, seq: Seq) -> bool:
        return True if self.is_full else in_profile(seq, self.profile_index)

    def top_degree(self) -> Optional[int]:
        """Largest degree with a nonzero component; None for the full algebra."""
        return self._top

    def basis(self, d: int) -> tuple[Seq, ...]:
        """All basis monomials of degree d, ordered lexicographically."""
        return _basis_cached(d, self.profile_index)

    def dim(self, d: int) -> int:
        return len(_basis_cached(d, self.profile_index))

    def __str__(self) -> str:
        return "A" if self.is_full else f"A({self.profile_index})"


@lru_cache(maxsize=None)
def _basis_cached(d: int, profile_index: Optional[int]) -> tuple[Seq, ...]:
    """``Algebra.basis(d)``, enumerated from the highest slot down: slot 0,
    of weight 1, takes whatever degree is left, so over the full algebra
    every leaf is a basis element, and over A(n) a leaf is dropped only
    when that rest exceeds slot 0's profile bound."""
    if d < 0:
        return ()
    # the slots i of weight 2^(i+1) - 1 <= d, and each one's largest
    # exponent: the profile bound, or over the full algebra just d
    slots = (d + 1).bit_length() - 1
    if profile_index is None:
        caps = [d] * slots
    else:
        slots = min(slots, profile_index + 1)
        caps = [(1 << (profile_index + 1 - i)) - 1 for i in range(slots)]
    out: list[Seq] = []

    def extend(tail: Seq, slot: int, remaining: int) -> None:
        # tail holds the exponents of the slots above slot, trailing zeros
        # already stripped
        if slot == 0:
            if remaining <= caps[0]:
                out.append((remaining,) + tail if remaining or tail else ())
            return
        weight = (1 << (slot + 1)) - 1
        for r in range(min(caps[slot], remaining // weight) + 1):
            extend((r,) + tail if r or tail else (), slot - 1,
                   remaining - r * weight)

    if caps:
        extend((), len(caps) - 1, d)
    else:
        out.append(())  # d == 0
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _basis_index(d: int, profile_index: Optional[int]) -> dict[Seq, int]:
    """Position of each monomial in ``Algebra.basis(d)``; do not mutate."""
    return {seq: i for i, seq in enumerate(_basis_cached(d, profile_index))}


@lru_cache(maxsize=None)
def multiply_seqs(r: Seq, s: Seq) -> frozenset[Seq]:
    """Product of two basis monomials as a mod-2 set of monomials.

    It is entry i * dim A^d2 + j of ``product_columns(d1, d2)`` over the
    full algebra, for r the i-th monomial of degree d1 and s the j-th of
    degree d2, read back through the basis of degree d1 + d2.  So an
    isolated product of degree n pays for the memoized walk of all of
    degree n the first time that degree is read; every later product of
    degree n is one lookup in it.
    """
    full = Algebra.full()
    d1, i, _ = _monomial_slot(r, full)
    d2, j, dim2 = _monomial_slot(s, full)
    mask = product_columns(d1, d2, full)[i * dim2 + j]
    basis = full.basis(d1 + d2)
    return frozenset(basis[b] for b in mask_to_bits(mask))


_TERM_RE = re.compile(r"Sq\(([0-9,\s]*)\)")


class Element:
    """A mod-2 sum of Milnor basis monomials.

    Immutable; terms is a frozenset of canonical tuples.  Homogeneous
    elements report their common degree, anything else reports None.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Seq] = ()):
        self.terms = frozenset(_canonical(t) for t in terms)

    @classmethod
    def sq(cls, *exponents: int) -> "Element":
        return cls([tuple(exponents)])

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Optional[int]:
        """Common degree of the terms; None when zero or inhomogeneous."""
        degs = {degree(t) for t in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def is_homogeneous(self) -> bool:
        return len({degree(t) for t in self.terms}) <= 1

    def __add__(self, other: "Element") -> "Element":
        return Element(self.terms ^ other.terms)

    def __mul__(self, other: "Element") -> "Element":
        acc: set[Seq] = set()
        for a in self.terms:
            for b in other.terms:
                acc ^= multiply_seqs(a, b)
        return Element(acc)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def sorted_terms(self) -> list[Seq]:
        return sorted(self.terms, key=lambda t: (degree(t), t))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "+".join("Sq(" + ",".join(str(r) for r in t) + ")"
                        for t in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Element({self})"


def parse_element(text: str) -> Element:
    """Parse the textual element syntax, e.g. 'Sq(3,1)+Sq(6)'.

    Whitespace-insensitive; terms separated by '+'; 'Sq()' is the unit and
    '0' the zero element.
    """
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty element text")
    if compact == "0":
        return Element.zero()
    terms: list[Seq] = []
    for part in compact.split("+"):
        m = _TERM_RE.fullmatch(part)
        if not m:
            raise ValueError(f"bad term {part!r} (expected Sq(a,b,...))")
        body = m.group(1).strip()
        if body:
            try:
                seq = tuple(int(x) for x in body.split(","))
            except ValueError as exc:
                raise ValueError(f"bad exponents in {part!r}") from exc
        else:
            seq = UNIT
        terms.append(seq)
    out = Element.zero()
    for t in terms:
        out = out + Element([t])
    return out


def coords_of(elem: Element, d: int, algebra: Algebra) -> int:
    """Coordinate mask of a homogeneous element in ``algebra.basis(d)``."""
    index = _basis_index(d, algebra.profile_index)
    v = 0
    for t in elem.terms:
        if degree(t) != d:
            raise ValueError(f"term {t} is not of degree {d}")
        try:
            v |= 1 << index[t]
        except KeyError:
            raise ValueError(f"term {t} lies outside {algebra}") from None
    return v


def element_from_coords(mask: int, d: int, algebra: Algebra) -> Element:
    basis = algebra.basis(d)
    if mask < 0 or mask >> len(basis):
        raise ValueError("coordinate mask outside basis range")
    return Element(basis[i] for i in range(len(basis)) if (mask >> i) & 1)


# the blocks of each degree walked whole so far, keyed by (degree, algebra)
_BLOCKS: dict[tuple[int, Algebra], dict[int, tuple[int, ...]]] = {}


def _product_blocks(n: int, algebra: Algebra) -> dict[int, tuple[int, ...]]:
    """Every multiplication block into A^n, keyed by the degree d1 of the
    left factor: entry i * dim A^(n-d1) + j of block d1 is the coordinate
    mask in A^n of b_i c_j (b_i in A^d1, c_j in A^(n-d1)).  Walked by
    ``_walk_blocks`` and memoized in ``_BLOCKS``.
    """
    blocks = _BLOCKS.get((n, algebra))
    if blocks is None:
        blocks = _BLOCKS[n, algebra] = _walk_blocks(n, algebra)
    return blocks


def _walk_blocks(n: int, algebra: Algebra) -> dict[int, tuple[int, ...]]:
    """``_product_blocks`` of degree n.

    Walks the dual coproduct: a carry-free Milnor matrix with diagonal sums
    t sends each bit of t_m to one cell x[i][m-i] of diagonal m, so the
    matrices behind the row of Sq(t) are enumerated directly, one choice of
    cell per bit.  Row i adds 2^(m-i) x[i][m-i] to r_i and column m - i adds
    x[i][m-i] to s_(m-i).  R and S are packed into ints with one field of
    n.bit_length() bits per exponent, so the sums never carry from one
    field into the next and a packed sum is looked up in one dict.  A pair
    (R, S) outside the algebra is dropped: products of A(n) monomials stay
    in A(n), so the surviving terms are exactly the subalgebra's products.
    """
    width = max(n, 1).bit_length()
    dims = [algebra.dim(d) for d in range(n + 1)]
    index: dict[int, tuple[int, int]] = {}
    for d in range(n + 1):
        for i, seq in enumerate(algebra.basis(d)):
            packed = 0
            for slot, r in enumerate(seq):
                packed |= r << (width * slot)
            index[packed] = (d, i)
    cols = {d1: [0] * (dims[d1] * dims[n - d1]) for d1 in range(n + 1)}
    cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for ti, t in enumerate(algebra.basis(n)):
        terms = [(0, 0)]
        for m, tm in enumerate(t, 1):
            while tm:
                low = tm & -tm
                tm ^= low
                choices = cells.get((m, low))
                if choices is None:
                    # cell (i, m - i); row 0 feeds only S, column 0 only R
                    choices = cells[(m, low)] = [
                        ((low << (m - i)) << (width * (i - 1)) if i else 0,
                         low << (width * (m - i - 1)) if i < m else 0)
                        for i in range(m + 1)]
                terms = [(r + dr, s + ds) for r, s in terms
                         for dr, ds in choices]
        bit = 1 << ti
        for r, s in terms:
            left = index.get(r)
            right = index.get(s)
            if left is None or right is None:
                continue  # a factor outside the subalgebra
            d1, i = left
            cols[d1][i * dims[n - d1] + right[1]] ^= bit
    return {d1: tuple(c) for d1, c in cols.items()}


def _walk_squares(n: int, algebra: Algebra) -> dict[int, tuple[int, ...]]:
    """The rows of x -> x * Sq(2^j) from A^(n-2^j) into A^n, keyed by 2^j,
    for every square Sq(2^j) of the algebra with 2^j <= n: row i holds the
    coordinates of b_i Sq(2^j) for b_i the i-th monomial of degree n - 2^j.
    They equal the stride slice of ``product_columns(n - 2^j, 2^j)`` at
    Sq(2^j), but come from a walk of only the squares' part of the
    coproduct.  Not memoized: ``_right_action`` files the rows in
    ``_right_memo`` and calls this once per degree.

    The coefficient of Sq(T) in Sq(R) Sq(k) is that of xi^R (x) xi_1^k in
    psi(xi^T), and psi(xi_m)^(2^b) = sum_i xi_(m-i)^(2^(b+i)) (x) xi_i^(2^b).
    With only xi_1 allowed on the right, each set bit low of t_m has two
    cells: it stays (r_m += low), or it moves (r_(m-1) += 2 low and
    k += low; at m = 1 a move only adds to k).  So each T costs
    2^popcount(T) steps where the whole walk costs the product of
    (m + 1)^popcount(t_m).  A pair outside the algebra, or with k not a
    power of two, is dropped.
    """
    width = max(n, 1).bit_length()
    # R as in ``_walk_blocks``, with k in one more field above its exponents
    kshift = width * (n + 1).bit_length()
    # the packed (R, k) of row i of square k, mapped to its place in flat
    where: dict[int, int] = {}
    spans: dict[int, tuple[int, int]] = {}
    for k in (1 << j for j in range(n.bit_length())):
        if not algebra.contains((k,)):
            break
        start = len(where)
        for seq in algebra.basis(n - k):
            packed = k << kshift
            for slot, r in enumerate(seq):
                packed |= r << (width * slot)
            where[packed] = len(where)
        spans[k] = start, len(where)
    flat = [0] * len(where)
    cells: dict[tuple[int, int], tuple[int, int]] = {}
    for ti, t in enumerate(algebra.basis(n)):
        terms = [0]
        for m, tm in enumerate(t, 1):
            while tm:
                low = tm & -tm
                tm ^= low
                choices = cells.get((m, low))
                if choices is None:
                    # stays in r_m; or moves to r_(m-1) as 2 low, adding low to k
                    choices = cells[(m, low)] = (
                        low << (width * (m - 1)),
                        (low << kshift)
                        + ((low << 1) << (width * (m - 2)) if m > 1 else 0))
                stay, move = choices
                terms = [p + stay for p in terms] + [p + move for p in terms]
        bit = 1 << ti
        for p in terms:
            # misses: the unit (k = 0), k not a power of two, and a
            # square or an R outside A(n)
            pos = where.get(p)
            if pos is not None:
                flat[pos] ^= bit
    return {k: tuple(flat[a:b]) for k, (a, b) in spans.items()}


def product_columns(d1: int, d2: int, algebra: Algebra) -> tuple[int, ...]:
    """Column masks of multiplication_matrix(d1, d2, algebra): entry
    i * dim A^d2 + j holds the coordinates of b_i c_j in A^(d1+d2)."""
    if d1 < 0 or d2 < 0:
        raise ValueError("degrees must be >= 0")
    return _product_blocks(d1 + d2, algebra)[d1]


@lru_cache(maxsize=None)
def multiplication_matrix(d1: int, d2: int, algebra: Algebra) -> BitMatrix:
    """Matrix of the product A^d1 (x) A^d2 -> A^(d1+d2) in the basis ordering.

    Shape: dim A^(d1+d2) rows by dim A^d1 * dim A^d2 columns; the column for
    the pair (i, j) is i * dim A^d2 + j and holds the coordinates of b_i c_j.
    """
    return BitMatrix.from_columns(product_columns(d1, d2, algebra),
                                  algebra.dim(d1 + d2))


@lru_cache(maxsize=None)
def _left_memo(d: int, algebra: Algebra) -> dict[Seq, BitMatrix]:
    """Left multiplication matrices on A^d, keyed by monomial.

    A table per (degree, algebra) keyed by the basis tuples themselves
    costs one dict slot per matrix; a memo keyed by (monomial, degree,
    algebra) would also keep a key tuple alive per matrix.
    """
    return {}


@lru_cache(maxsize=None)
def _right_memo(d: int, algebra: Algebra) -> dict[Seq, BitMatrix]:
    """Transposed right multiplication matrices on A^d, keyed by monomial,
    laid out as ``_left_memo``."""
    return {}


def _monomial_slot(seq: Seq, algebra: Algebra) -> tuple[int, int, int]:
    """Degree of the monomial, its index in its basis and that basis's size."""
    k = degree(seq)
    index = _basis_index(k, algebra.profile_index)
    j = index.get(seq)
    if j is None:
        raise ValueError(f"term {seq} lies outside {algebra}")
    return k, j, len(index)


def _left_action(seq: Seq, d: int, algebra: Algebra) -> BitMatrix:
    """Memoized matrix of x -> Sq(seq) * x from A^d to A^(d + deg seq).

    Its columns are the contiguous slice of the product block (k, d) that
    starts at the monomial's index times dim A^d, read once into
    ``_left_memo``.
    """
    memo = _left_memo(d, algebra)
    mat = memo.get(seq)
    if mat is None:
        k, j, _ = _monomial_slot(seq, algebra)
        dd = algebra.dim(d)
        nrows = algebra.dim(d + k)
        cols = product_columns(k, d, algebra)[j * dd:(j + 1) * dd] if dd else ()
        mat = memo[seq] = BitMatrix.from_columns(cols, nrows)
    return mat


def _right_action(seq: Seq, d: int, algebra: Algebra,
                  squares: bool = False) -> BitMatrix:
    """Memoized transpose of x -> x * Sq(seq) from A^d to A^(d + deg seq).

    Its rows are the slice of ``product_columns(d, deg seq)`` at the
    monomial's index with stride dim A^(deg seq), read once into
    ``_right_memo``: the dual regular action, shared by every module that
    reads it.  An empty A^d gives an empty matrix without walking degree
    d + deg seq.  With squares, as the dual regular module's source asks,
    a miss on Sq(2^i) at a degree n = d + 2^i whose whole walk has not
    run calls ``_walk_squares(n)`` instead and files the matrix of every
    Sq(2^j) it returns in ``_right_memo(n - 2^j)``, keeping any matrix
    already there.  A later read of a square of degree n then hits the
    memo, so no degree is walked for its squares twice; other monomials
    read the slice.
    """
    memo = _right_memo(d, algebra)
    mat = memo.get(seq)
    if mat is None:
        k, j, stride = _monomial_slot(seq, algebra)
        n = d + k
        nrows = algebra.dim(n)
        if squares and _is_square(seq) and (n, algebra) not in _BLOCKS:
            for s, rows in _walk_squares(n, algebra).items():
                _right_memo(n - s, algebra).setdefault(
                    (s,), BitMatrix(len(rows), nrows, rows))
            return memo[seq]
        rows = (product_columns(d, k, algebra)[j::stride]
                if algebra.dim(d) else ())
        mat = memo[seq] = BitMatrix(len(rows), nrows, rows)
    return mat


def right_multiplication(elem: Element, d: int, algebra: Algebra) -> BitMatrix:
    """Transpose of the matrix of x -> x * elem from A^d to A^(d + deg elem):
    row i holds the coordinates of b_i * elem for the basis b of A^d.

    A monomial reads ``_right_action``'s memo, so every dual regular module,
    suspended copies included, shares that one immutable matrix.  A sum of
    monomials XORs the stride slices of its terms in block (d, deg elem) and
    is rebuilt on every call.
    """
    if len(elem.terms) == 1:
        (seq,) = elem.terms
        return _right_action(seq, d, algebra)
    k = elem.degree()
    if k is None:
        raise ValueError("need a nonzero homogeneous element")
    nrows = algebra.dim(d + k)
    dd = algebra.dim(d)
    if not dd:
        return BitMatrix(0, nrows, ())
    block, stride = product_columns(d, k, algebra), algebra.dim(k)
    rows = [0] * dd
    for j in mask_to_bits(coords_of(elem, k, algebra)):
        rows = [a ^ b for a, b in zip(rows, block[j::stride])]
    return BitMatrix(dd, nrows, rows)
