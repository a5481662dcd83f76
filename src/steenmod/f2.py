"""Exact linear algebra over the two-element field.

Matrices are dense and bit-packed: each row is a Python int whose bit j is
the entry in column j.  Vectors are single ints of the same shape, and a
``Subspace``'s canonical basis is a plain tuple of such rows; ``kernel``
takes the rows of its matrix and their width, not a ``BitMatrix``.  The
inner loops live in ``steenmod._f2pure``, bound here as ``_impl`` and
looked up on it at call time, so a profiler can rebind them in one place.
Every elimination in the package is ``_impl``'s pivot insertion:
canonical subspaces come from its ``rref``, kernels from its
``column_kernel``, which its ``nullspace`` runs on the transposed rows,
and ranks from the size of its pivot tables.

All values are immutable after construction and safe to share between
threads.  A ``BitMatrix``'s ``rows`` tuple is a plain field, as ``nrows``
and ``ncols`` are: set once when the matrix is made and never rebound, so
reading it is one attribute load.
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


class BitMatrix:
    """An immutable nrows x ncols matrix over GF(2).

    The matrix of a linear map f: V -> W (in chosen bases) has shape
    (dim W, dim V); column j holds f(e_j), and vectors are multiplied on
    the right: ``m.apply(v)``.

    ``nrows``, ``ncols`` and ``rows``, the tuple of the packed rows, are
    plain fields, set when the matrix is made and never rebound.
    """

    __slots__ = ("nrows", "ncols", "rows")

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
        self.rows = tuple(rows)

    @classmethod
    def _of_checked_rows(cls, ncols: int, rows: Sequence[int]) -> "BitMatrix":
        """A matrix on rows known to lie in the column range, such as a
        slice of the rows of a BitMatrix of the same ncols, the rows of a
        block text whose width the parser has checked, or the product
        masks ``comodule.extended`` shifts into a block's columns, so the
        per-row check of ``__init__`` is skipped."""
        mat = object.__new__(cls)
        mat.nrows = len(rows)
        mat.ncols = ncols
        mat.rows = tuple(rows)
        return mat

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "BitMatrix":
        return _zero_cached(nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return _identity_cached(n)

    @classmethod
    def from_columns(cls, cols: Sequence[int], nrows: int) -> "BitMatrix":
        return cls(nrows, len(cols), _impl.transpose(cols, nrows))

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.ncols, self.nrows,
                         _impl.transpose(self.rows, self.ncols))

    def __add__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in +")
        return BitMatrix(self.nrows, self.ncols,
                         [a ^ b for a, b in zip(self.rows, other.rows)])

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch in @: {self.shape} x {other.shape}")
        return BitMatrix(self.nrows, other.ncols,
                         mul_rows(self.rows, other.rows))

    def apply(self, v: int) -> int:
        """Matrix times column vector (v is a mask over columns)."""
        if v < 0 or v >> self.ncols:
            raise ValueError("vector outside column range")
        return _impl.apply(self.rows, v)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BitMatrix)
                and self.nrows == other.nrows
                and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self) -> str:
        return f"BitMatrix({self.nrows}x{self.ncols})"


@lru_cache(maxsize=4096)
def _zero_cached(nrows: int, ncols: int) -> "BitMatrix":
    return BitMatrix(nrows, ncols, [0] * nrows)


@lru_cache(maxsize=512)
def _identity_cached(n: int) -> "BitMatrix":
    return BitMatrix(n, n, [1 << i for i in range(n)])


class Subspace:
    """A subspace of GF(2)^n in canonical form.

    The basis is a tuple of rows, packed as ``BitMatrix`` rows are: the
    reduced row-echelon form of any spanning set, with zero rows dropped,
    so equal subspaces compare bit-identical.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, rows: Sequence[int]):
        basis = tuple(rows)
        # the reduced echelon form is the unique basis whose rows are
        # nonzero, whose lowest set bits (the pivots) strictly increase,
        # and which has no bit at another row's pivot
        pivmask = prev = 0
        for r in basis:
            if r < 0 or r >> ambient_dim:
                raise ValueError("row has bits outside the ambient dimension")
            low = r & -r
            if low <= prev:
                raise ValueError("basis is not in canonical reduced form")
            pivmask |= low
            prev = low
        for r in basis:
            if r & pivmask != r & -r:
                raise ValueError("basis is not in canonical reduced form")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_vectors(cls, vectors: Iterable[int], ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, _impl.rref(list(vectors), ambient_dim)[0])

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, BitMatrix.identity(ambient_dim).rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: int) -> int:
        """Residue of v after elimination against the basis; 0 iff v in span."""
        for r in self.basis:
            low = r & -r
            if v & low:
                v ^= r
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def contains_subspace(self, other: "Subspace") -> bool:
        """Whether other lies in this subspace.

        Each row of other is reduced only against the basis rows whose
        pivots it holds, found in a table keyed by pivot bit and built per
        call.  A reduced echelon row has no bit at another row's pivot, so
        a nonzero vector of the span has a pivot as its lowest bit, and so
        does what is left of it after that pivot's row is added; a lowest
        bit that is no pivot puts the vector outside.
        """
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        pivots = {r & -r: r for r in self.basis}
        for v in other.basis:
            while v:
                r = pivots.get(v & -v)
                if r is None:
                    return False
                v ^= r
        return True

    def coordinates(self, v: int) -> Optional[int]:
        """Coefficients of v over the basis rows, or None if v is outside."""
        coords = 0
        for i, r in enumerate(self.basis):
            low = r & -r
            if v & low:
                v ^= r
                coords |= 1 << i
        return coords if v == 0 else None

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def kernel(rows: Sequence[int], ncols: int) -> Subspace:
    """{v : M @ v = 0} in canonical form, for the matrix M of ncols
    columns with these packed rows; dim = ncols - rank."""
    return Subspace(ncols, _impl.nullspace(rows, ncols))
