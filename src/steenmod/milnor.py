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
iff its parts are carry-free, i.e. pairwise bitwise disjoint.  The same
matrices are enumerated in two directions:

- ``multiply_seqs`` serves an isolated product (``Element.__mul__``).  It
  fills the matrices of one pair (R, S), keeps a running OR per diagonal
  and drops a partial matrix as soon as an entry overlaps its diagonal.
- Multiplication *tables* come from one memoized walk per degree,
  ``_product_blocks``, of the dual coproduct
  psi(xi_m) = sum_i xi_(m-i)^(2^i) (x) xi_i.  For each target monomial
  Sq(T) of degree n, each bit of t_m goes to one of the m + 1 cells of
  diagonal m, and each choice is one carry-free matrix, so one walk per T
  meets only live terms and fills every block A^d1 (x) A^(n-d1) -> A^n at
  once.  For a whole table this costs far less than one product per pair,
  since no matrix that dies mod 2 is visited; for one pair it would cost
  the whole degree, which is why isolated products keep the first path.

The table readers are slices of one block:

- ``product_columns(d1, d2)``: block (d1, d2) itself, one column mask per
  pair; ``comodule.extended`` reads its coaction rows from it directly.
- ``multiplication_matrix(d1, d2)``: the same block as a matrix, for
  callers outside the engine.
- ``_left_action(seq, d)``: left multiplication by one monomial on A^d,
  the contiguous run of block (deg seq, d) at the monomial's index; the
  regular module's source.
- ``_right_action_rows(d, k, j)``: the rows of the transposed right
  multiplication by the j-th monomial of degree k on A^d, the run of block
  (d, k) at stride dim A^k; ``comodule.iota_matches_suspended_duals``
  compares against it without building a matrix.
- ``_right_action(seq, d)``: those rows as a memoized matrix; the dual
  regular module's source.
- ``right_multiplication``: the transposed right multiplication by any
  homogeneous element, a monomial going through ``_right_action`` and a
  sum XORing the stride slices of its terms; ideal spans and relations
  read it.

Basis lists and each monomial's position in its basis, monomial degrees,
isolated products, the blocks of each degree, multiplication matrices, and
the left and the transposed right multiplication matrix of each monomial
on each degree are memoized; construction is idempotent and the memoized
values are immutable, so sharing them is safe.  Nothing is kept across
runs: a degree's blocks are rebuilt by one walk the first time a process
reads them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .f2 import BitMatrix, mask_to_bits

Seq = tuple[int, ...]

UNIT: Seq = ()


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


@dataclass(frozen=True)
class Algebra:
    """The full algebra (profile None) or the finite subalgebra A(n)."""

    profile_index: Optional[int] = None

    @classmethod
    def full(cls) -> "Algebra":
        return cls(None)

    @classmethod
    def subalgebra(cls, n: int) -> "Algebra":
        if n < 0:
            raise ValueError("subalgebra index must be >= 0")
        return cls(n)

    @property
    def is_full(self) -> bool:
        return self.profile_index is None

    def contains(self, seq: Seq) -> bool:
        return True if self.is_full else in_profile(seq, self.profile_index)

    def top_degree(self) -> Optional[int]:
        """Largest degree with a nonzero component; None for the full algebra."""
        if self.is_full:
            return None
        n = self.profile_index
        top = tuple((1 << (n + 1 - i)) - 1 for i in range(n + 1))
        return degree(top)

    def basis(self, d: int) -> tuple[Seq, ...]:
        return basis_in_degree(d, self)

    def dim(self, d: int) -> int:
        return len(self.basis(d))

    def __str__(self) -> str:
        return "A" if self.is_full else f"A({self.profile_index})"


@lru_cache(maxsize=None)
def _basis_cached(d: int, profile_index: Optional[int]) -> tuple[Seq, ...]:
    if d < 0:
        return ()
    out: list[Seq] = []

    def extend(prefix: list[int], slot: int, remaining: int) -> None:
        weight = (1 << (slot + 1)) - 1
        if weight > remaining:
            if remaining == 0:
                out.append(_canonical(prefix))
            return
        if profile_index is not None:
            bound_exp = profile_index + 1 - slot
            rmax = 0 if bound_exp <= 0 else (1 << bound_exp) - 1
        else:
            rmax = remaining // weight
        rmax = min(rmax, remaining // weight)
        for r in range(rmax + 1):
            prefix.append(r)
            extend(prefix, slot + 1, remaining - r * weight)
            prefix.pop()
        # exhausted this slot

    extend([], 0, d)
    return tuple(sorted(out))


def basis_in_degree(d: int, algebra: Algebra) -> tuple[Seq, ...]:
    """All basis monomials of degree d in the algebra, ordered lexicographically."""
    return _basis_cached(d, algebra.profile_index)


@lru_cache(maxsize=None)
def _basis_index(d: int, profile_index: Optional[int]) -> dict[Seq, int]:
    """Position of each monomial in basis_in_degree(d); do not mutate."""
    return {seq: i for i, seq in enumerate(_basis_cached(d, profile_index))}


@lru_cache(maxsize=None)
def multiply_seqs(r: Seq, s: Seq) -> frozenset[Seq]:
    """Product of two basis monomials as a mod-2 set of monomials.

    Enumerates the Milnor matrices x[i][j] (row i >= 1 spends r_i as
    sum_j 2^j x[i][j], column j >= 1 spends s_j as sum_i x[i][j]; row 0 and
    column 0 take the leftovers) whose diagonals are carry-free, i.e.
    pairwise bitwise disjoint, and toggles the monomial of diagonal sums
    of each.  diag[n] is the running OR of the entries placed on diagonal
    n, so an entry that overlaps it is skipped as soon as it is placed.
    """
    nr, ns = len(r), len(s)
    cols = list(s)  # cols[j - 1]: what column j has left for rows below
    diag = [0] * (nr + ns + 1)
    acc: set[Seq] = set()

    def close() -> None:
        # the column leftovers x[0][j] are the last entries of diagonal j
        out = diag[1:]
        for j in range(ns):
            left = cols[j]
            if left & out[j]:
                return
            out[j] |= left
        while out and not out[-1]:
            out.pop()
        acc.symmetric_difference_update((tuple(out),))

    def fill(i: int, j: int, rem: int) -> None:
        if j > ns:
            # row i is closed: its leftover x[i][0] completes diagonal i
            # up to the column leftover x[0][i]
            d = diag[i]
            if rem & d:
                return
            diag[i] = d | rem
            if i == nr:
                close()
            else:
                fill(i + 1, 1, r[i])
            diag[i] = d
            return
        n = i + j
        d = diag[n]
        cap = min(rem >> j, cols[j - 1])
        v = 0
        while v <= cap:
            diag[n] = d | v
            cols[j - 1] -= v
            fill(i, j + 1, rem - (v << j))
            cols[j - 1] += v
            v = ((v | d) + 1) & ~d  # the next integer disjoint from d
        diag[n] = d

    if nr:
        fill(1, 1, r[0])
    else:
        close()
    return frozenset(acc)


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
    def unit(cls) -> "Element":
        return cls([UNIT])

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
    """Coordinate mask of a homogeneous element in basis_in_degree(d)."""
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
    basis = basis_in_degree(d, algebra)
    if mask < 0 or mask >> len(basis):
        raise ValueError("coordinate mask outside basis range")
    return Element(basis[i] for i in range(len(basis)) if (mask >> i) & 1)


@lru_cache(maxsize=None)
def _product_blocks(n: int, algebra: Algebra) -> dict[int, tuple[int, ...]]:
    """Every multiplication block into A^n, keyed by the degree d1 of the
    left factor: entry i * dim A^(n-d1) + j of block d1 is the coordinate
    mask in A^n of b_i c_j (b_i in A^d1, c_j in A^(n-d1)).

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
    dims = [len(basis_in_degree(d, algebra)) for d in range(n + 1)]
    index: dict[int, tuple[int, int]] = {}
    for d in range(n + 1):
        for i, seq in enumerate(basis_in_degree(d, algebra)):
            packed = 0
            for slot, r in enumerate(seq):
                packed |= r << (width * slot)
            index[packed] = (d, i)
    cols = {d1: [0] * (dims[d1] * dims[n - d1]) for d1 in range(n + 1)}
    cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for ti, t in enumerate(basis_in_degree(n, algebra)):
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
                                  len(basis_in_degree(d1 + d2, algebra)))


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
        dd = len(basis_in_degree(d, algebra))
        nrows = len(basis_in_degree(d + k, algebra))
        cols = product_columns(k, d, algebra)[j * dd:(j + 1) * dd] if dd else ()
        mat = memo[seq] = BitMatrix.from_columns(cols, nrows)
    return mat


def _right_action_rows(d: int, k: int, j: int,
                       algebra: Algebra) -> tuple[int, ...]:
    """Rows of the transpose of x -> x * b_j from A^d to A^(d + k), for
    b_j the j-th monomial of degree k: row i holds the coordinates of
    b_i b_j in A^(d + k), the column masks of the product block (d, k) at
    index j with stride dim A^k.  The one definition of the dual regular
    action's rows; nothing is memoized here."""
    if not basis_in_degree(d, algebra):
        return ()
    block = _product_blocks(d + k, algebra)[d]
    return block[j::len(basis_in_degree(k, algebra))]


def _right_action(seq: Seq, d: int, algebra: Algebra) -> BitMatrix:
    """Memoized transpose of x -> x * Sq(seq) from A^d to A^(d + deg seq).

    Its rows are ``_right_action_rows`` at the monomial's index, read once
    into ``_right_memo``: the dual regular action, shared by every module
    that reads it.
    """
    memo = _right_memo(d, algebra)
    mat = memo.get(seq)
    if mat is None:
        k, j, _ = _monomial_slot(seq, algebra)
        nrows = len(basis_in_degree(d + k, algebra))
        rows = _right_action_rows(d, k, j, algebra)
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
    nrows = len(basis_in_degree(d + k, algebra))
    dd = len(basis_in_degree(d, algebra))
    if not dd:
        return BitMatrix(0, nrows, ())
    rows = [0] * dd
    for j in mask_to_bits(coords_of(elem, k, algebra)):
        rows = [a ^ b for a, b in zip(
            rows, _right_action_rows(d, k, j, algebra))]
    return BitMatrix(dd, nrows, rows)
