"""Exact linear algebra over the two-element field.

Matrices are dense and bit-packed: each row is a Python int whose bit j is
the entry in column j.  Vectors are single ints of the same shape.  The
inner loops live in ``steenmod._f2pure``, bound here as ``_impl`` and
looked up on it at call time, so a profiler can rebind them in one place.

All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

from . import _f2pure as _impl


def backend_name() -> str:
    """Name of the kernel backend ('pure')."""
    return _impl.BACKEND_NAME


def mul_rows(a_rows: Sequence[int], b_rows: Sequence[int]) -> list[int]:
    """Backend product on raw int rows: bit j of an A-row selects row j of B.

    B-rows may be of any width, so one call can multiply against several
    matrices packed side by side into wide rows.
    """
    return _impl.mul(a_rows, b_rows)


def mask_to_bits(mask: int) -> list[int]:
    """Positions of the set bits of a vector mask, ascending."""
    out = []
    while mask:
        b = (mask & -mask).bit_length() - 1
        out.append(b)
        mask &= mask - 1
    return out


def _transpose_masks(masks: Sequence[int], n: int) -> list[int]:
    """Transpose of a bit matrix given by its masks: mask j of the n
    returned has bit i set iff masks[i] has bit j set.  Turns columns into
    rows, or rows into columns."""
    out = [0] * n
    for i, r in enumerate(masks):
        bit = 1 << i
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= bit
            r ^= low
    return out


class BitMatrix:
    """An immutable nrows x ncols matrix over GF(2).

    The matrix of a linear map f: V -> W (in chosen bases) has shape
    (dim W, dim V); column j holds f(e_j), and vectors are multiplied on
    the right: ``m.apply(v)``.
    """

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, nrows: int, ncols: int, rows: Sequence[int]):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimension")
        if len(rows) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(rows)}")
        mask = (1 << ncols) - 1
        for r in rows:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the column range")
        self.nrows = nrows
        self.ncols = ncols
        self._rows = tuple(rows)

    @classmethod
    def _of_checked_rows(cls, ncols: int, rows: Sequence[int]) -> "BitMatrix":
        """A matrix on rows taken from a checked BitMatrix of the same
        ncols, such as a slice of its rows: they already lie in the column
        range, so the per-row check of ``__init__`` is skipped."""
        mat = object.__new__(cls)
        mat.nrows = len(rows)
        mat.ncols = ncols
        mat._rows = tuple(rows)
        return mat

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "BitMatrix":
        return _zero_cached(nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return _identity_cached(n)

    @classmethod
    def from_columns(cls, cols: Sequence[int], nrows: int) -> "BitMatrix":
        return cls(nrows, len(cols), _transpose_masks(cols, nrows))

    @classmethod
    def vstack(cls, mats: Iterable["BitMatrix"]) -> "BitMatrix":
        mats = list(mats)
        if not mats:
            raise ValueError("vstack of nothing")
        ncols = mats[0].ncols
        rows: list[int] = []
        for m in mats:
            if m.ncols != ncols:
                raise ValueError("column count mismatch in vstack")
            rows.extend(m._rows)
        return cls(len(rows), ncols, rows)

    @property
    def rows(self) -> tuple[int, ...]:
        return self._rows

    def row(self, i: int) -> int:
        return self._rows[i]

    def column(self, j: int) -> int:
        bit = 1 << j
        out = 0
        for i, r in enumerate(self._rows):
            if r & bit:
                out |= 1 << i
        return out

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError("entry out of range")
        return (self._rows[i] >> j) & 1

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.ncols, self.nrows,
                         _transpose_masks(self._rows, self.ncols))

    def __add__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in +")
        return BitMatrix(self.nrows, self.ncols,
                         [a ^ b for a, b in zip(self._rows, other._rows)])

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch in @: {self.shape} x {other.shape}")
        return BitMatrix(self.nrows, other.ncols,
                         mul_rows(self._rows, other._rows))

    def apply(self, v: int) -> int:
        """Matrix times column vector (v is a mask over columns)."""
        if v < 0 or v >> self.ncols:
            raise ValueError("vector outside column range")
        return _impl.apply(self._rows, v)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def rref(self) -> "BitMatrix":
        red, _ = _impl.rref(self._rows, self.ncols)
        return BitMatrix(len(red), self.ncols, red)

    def pivots(self) -> list[int]:
        return _impl.rref(self._rows, self.ncols)[1]

    def rank(self) -> int:
        return len(self.pivots())

    def solve(self, target: int) -> Optional[int]:
        """Some x with self @ x = target, verified by substitution, or
        None when the system is inconsistent."""
        if target < 0 or target >> self.nrows:
            raise ValueError("target outside row range")
        x = _impl.solve(self._rows, self.ncols, target)
        if x is not None and self.apply(x) != target:
            raise AssertionError("backend returned an unverified solution")
        return x

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BitMatrix)
                and self.nrows == other.nrows
                and self.ncols == other.ncols
                and self._rows == other._rows)

    def __repr__(self) -> str:
        return f"BitMatrix({self.nrows}x{self.ncols})"

    def to_text_rows(self) -> list[str]:
        """Rows as '01...' strings, column 0 first."""
        if not self.ncols:
            return [""] * self.nrows  # format(0, "00b") would give "0"
        spec = f"0{self.ncols}b"
        # join, not [::-1]: a one-column row then stays the shared
        # one-character string instead of a new object per row
        return ["".join(reversed(format(r, spec))) for r in self._rows]


@lru_cache(maxsize=4096)
def _zero_cached(nrows: int, ncols: int) -> "BitMatrix":
    return BitMatrix(nrows, ncols, [0] * nrows)


@lru_cache(maxsize=512)
def _identity_cached(n: int) -> "BitMatrix":
    return BitMatrix(n, n, [1 << i for i in range(n)])


class Subspace:
    """A subspace of GF(2)^n in canonical form.

    The basis is the reduced row-echelon form of any spanning set, with
    zero rows dropped, so equal subspaces compare bit-identical.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: BitMatrix):
        if basis.ncols != ambient_dim:
            raise ValueError("basis width disagrees with ambient dimension")
        # the reduced echelon form is the unique basis whose rows are
        # nonzero, whose lowest set bits (the pivots) strictly increase,
        # and which has no bit at another row's pivot
        pivmask = prev = 0
        for r in basis.rows:
            low = r & -r
            if low <= prev:
                raise ValueError("basis is not in canonical reduced form")
            pivmask |= low
            prev = low
        for r in basis.rows:
            if r & pivmask != r & -r:
                raise ValueError("basis is not in canonical reduced form")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_vectors(cls, vectors: Iterable[int], ambient_dim: int) -> "Subspace":
        red, _ = _impl.rref(list(vectors), ambient_dim)
        return cls(ambient_dim, BitMatrix(len(red), ambient_dim, red))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, BitMatrix(0, ambient_dim, []))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, BitMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def is_zero(self) -> bool:
        return self.dim == 0

    def reduce(self, v: int) -> int:
        """Residue of v after elimination against the basis; 0 iff v in span."""
        for r in self.basis.rows:
            low = r & -r
            if v & low:
                v ^= r
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains(r) for r in other.basis.rows)

    def coordinates(self, v: int) -> Optional[int]:
        """Coefficients of v over the basis rows, or None if v is outside."""
        coords = 0
        for i, r in enumerate(self.basis.rows):
            low = r & -r
            if v & low:
                v ^= r
                coords |= 1 << i
        return coords if v == 0 else None

    def sum_with(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(self.basis.rows + other.basis.rows,
                                     self.ambient_dim)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def kernel(m: BitMatrix) -> Subspace:
    """{v : m @ v = 0} in canonical form; dim = ncols - rank."""
    basis = _impl.nullspace(m.rows, m.ncols)
    return Subspace(m.ncols, BitMatrix(len(basis), m.ncols, basis))
