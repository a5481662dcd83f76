"""Graded right comodules over the dual algebra, and their embedding into
graded left modules by the adjoint action.

The dual algebra is handled implicitly: its degree -k piece carries the
basis dual to the Milnor basis of degree k, and its comultiplication is the
transpose of the multiplication matrices.  A comodule stores one matrix per
(degree d, jump k >= 1): the coaction component M^d -> M^(d+k) (x) dual^(-k),
with rows indexed by pairs (module basis index, algebra basis index) as
row = m_idx * dim A^k + a_idx.  The counit block k = 0 is the identity and
is kept implicit.

The module ``iota`` makes of a comodule reads these blocks directly, and
``validate_coaction`` decides coassociativity as that module's composition
check, so the pairing between coaction blocks and actions is stated once.

Cohomological conventions throughout: the algebra sits in nonnegative
degrees, its dual in nonpositive ones, so unsuspended comodule windows live
in nonpositive degrees.
"""

from __future__ import annotations

from . import milnor
from ._records import fields_equal, fields_hash
from .f2 import BitMatrix, mask_to_bits
from .gmodule import (GradedModule, Window, _graded_header, coproduct,
                      dual_regular, zero_module)
from .milnor import Algebra


class ExtendedSpec:
    """A graded vector space V by degreewise dimensions (finitely many)."""

    __slots__ = ("v_dims",)

    def __init__(self, v_dims: dict[int, int]):
        items = tuple(sorted((d, n) for d, n in v_dims.items() if n))
        for _, n in items:
            if n < 0:
                raise ValueError("negative dimension")
        self.v_dims = items  # sorted (degree, dim), dims > 0

    __eq__ = fields_equal
    __hash__ = fields_hash


def _generators(v: ExtendedSpec) -> list[int]:
    """The degree of each generator of V, ascending, repeated by dim."""
    gens: list[int] = []
    for g, n in v.v_dims:
        gens.extend([g] * n)
    return gens


def _required_coaction_keys(algebra: Algebra, window: Window,
                            dims: dict[int, int]):
    """Yield the (degree, k) of every coaction block a comodule with these
    dims holds: k >= 1 (the counit block is the identity, kept implicit),
    d and d + k in the window, both dimensions and the algebra's dimension
    in degree k nonzero."""
    for d in window:
        if not dims[d]:
            continue
        for k in range(1, window.hi - d + 1):
            if dims[d + k] and algebra.dim(k):
                yield d, k


class GradedComodule:
    """A graded right comodule on a window, with full coaction blocks.

    Exactness flags mean the same as for modules: dims are genuinely zero
    beyond the flagged edge, not merely unknown.

    The constructor stores coactions as given, unchecked: it must hold
    exactly the blocks ``_required_coaction_keys`` yields for these dims,
    each of shape (dims[d + k] * dim A^k, dims[d]).  ``extended`` builds
    them so, wrapping each block unchecked because its rows lie in the
    column range by construction, and ``textio.parse_comodule`` checks
    them before it calls this.
    """

    __slots__ = ("algebra", "window", "dims", "coactions",
                 "bottom_exact", "top_exact")

    def __init__(self, algebra: Algebra, window: Window, dims: dict[int, int],
                 coactions: dict[tuple[int, int], BitMatrix],
                 bottom_exact: bool = False, top_exact: bool = False):
        _graded_header(self, algebra, window, dims, bottom_exact, top_exact)
        self.coactions = coactions

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GradedComodule)
                and self.algebra == other.algebra
                and self.window == other.window
                and self.dims == other.dims
                and self.coactions == other.coactions
                and self.bottom_exact == other.bottom_exact
                and self.top_exact == other.top_exact)

    def __repr__(self) -> str:
        return (f"GradedComodule({self.algebra}-dual on {self.window}, "
                f"total dim {self.total_dim()})")


def extended(v: ExtendedSpec, algebra: Algebra, window: Window) -> GradedComodule:
    """The extended comodule V (x) dual, coaction 1 (x) comultiplication.

    Basis at degree d: pairs (generator g of V, monomial s of degree g - d),
    generator-major, monomials in basis order.

    Each coaction block (d, k) is assembled from product-block slices.  For
    a generator g with n = g - d >= k, entry sp * dim A^k + bi of
    ``milnor.product_columns(n - k, k)`` is the mask of the monomials s of
    A^n that occur in s' * b, for s' the sp-th monomial of degree n - k and
    b the bi-th of degree k.  That is row (s', b) of 1 (x) psi restricted
    to g's block, so the whole tuple, each entry shifted left by g's column
    offset at d, is the run of rows that starts at g's row offset at d + k
    times dim A^k.  A generator with n < k has no basis at d + k and adds
    no rows.  Each row so built is a mask over A^n shifted into g's columns
    at d, inside the block's width dims[d] by construction, so the block is
    wrapped without ``BitMatrix``'s per-row range check.
    """
    gens = _generators(v)

    # offsets[d][gi]: first basis index of generator gi at degree d
    offsets: dict[int, list[int]] = {}
    dims: dict[int, int] = {}
    for d in window:
        offs = offsets[d] = []
        total = 0
        for g in gens:
            offs.append(total)
            if g >= d:
                total += algebra.dim(g - d)
        dims[d] = total
    coactions: dict[tuple[int, int], BitMatrix] = {}
    for d in window:
        if not dims[d]:
            continue
        offs = offsets[d]
        for k in range(1, window.hi - d + 1):
            if not dims[d + k] or not algebra.dim(k):
                continue
            rows: list[int] = []
            for g, off in zip(gens, offs):
                n = g - d
                if n < k:
                    continue
                block = milnor.product_columns(n - k, k, algebra)
                rows.extend([c << off for c in block] if off else block)
            coactions[(d, k)] = BitMatrix._of_checked_rows(dims[d], rows)
    top = algebra.top_degree()
    if gens:
        top_exact = window.hi >= max(gens)
        bottom_exact = top is not None and window.lo <= min(gens) - top
    else:
        top_exact = bottom_exact = True
    return GradedComodule(algebra, window, dims, coactions,
                          bottom_exact=bottom_exact, top_exact=top_exact)


def validate_coaction(c: GradedComodule) -> list[str]:
    """Counit and coassociativity violations; [] means valid.

    The counit law is structural here (the k = 0 block is implicit).
    Coassociativity is ``GradedModule.validate``'s composition check run
    on iota(c).  Pairing block (d, k) with a monomial a of degree k is the
    action of a on M^d in ``iota``, so block (d, k1, k2) paired with
    x (x) y, for x of degree k2 and y of degree k1, says action(x)
    action(y) = action(x y) at degree d: applying the coaction twice
    against applying it once and splitting the dual factor by the
    transpose of multiplication.  The check's square pass and its proof
    carry over unchanged.  A zero middle degree d + k1 is checked too:
    the twice-applied side is 0 there, but the split side need not be.

    The failing columns of M^d of every pair (x, y) are ORed per
    (d, k1, k2), and one message per column is reported, sorted by
    (d, k1, k2) and then by column.
    """
    return _coassociativity_messages(iota(c)._failing_compositions())


def _coassociativity_messages(failures) -> list[str]:
    """``validate_coaction``'s messages, from the failing (x, y, d, mask)
    of the composition check of the comodule's iota."""
    failing: dict[tuple[int, int, int], int] = {}
    for x, y, d, mask in failures:
        key = (d, milnor.degree(y), milnor.degree(x))
        failing[key] = failing.get(key, 0) | mask
    return [f"coassociativity fails at degree {d}, jumps ({k1}, {k2}), "
            f"column {col}"
            for (d, k1, k2), mask in sorted(failing.items())
            for col in mask_to_bits(mask)]


def iota(c: GradedComodule) -> GradedModule:
    """The adjoint-action module: a of degree k acts on M^d through the
    (d, k) coaction block paired against a in the dual basis, the rows
    m * dim A^k + (index of a) of the block.

    The module calls its source only for keys with both dimensions
    nonzero, and those are exactly the stored coaction blocks.  The rows
    are a slice of that block, whose width is dims[d] too and whose rows
    lie in its column range (by construction in ``extended``, checked by
    the parser for a comodule file), so they are wrapped without a range
    check.
    """
    alg = c.algebra
    coactions, dims = c.coactions, c.dims

    def source(seq: milnor.Seq, d: int) -> BitMatrix:
        k = milnor.degree(seq)
        index = milnor._basis_index(k, alg.profile_index)
        rows = coactions[(d, k)].rows[index[seq]::len(index)]
        return BitMatrix._of_checked_rows(dims[d], rows)
    return GradedModule(alg, c.window, c.dims, source,
                        bottom_exact=c.bottom_exact, top_exact=c.top_exact)


def iota_matches_suspended_duals(module: GradedModule,
                                 v: ExtendedSpec) -> bool:
    """Whether module is bit-identical to the coproduct of dual regular
    modules suspended to V's generators, generator-major as in
    ``extended``, on module's algebra and window: the claim that
    iota(extended(v)) must meet.

    The coproduct is built on module's algebra and window for its header
    only: its dims and exactness flags must equal module's, and none of
    its matrices is read.  The matrices are compared one (d, k) block at
    a time.  Each required matrix of module, the j-th monomial of degree
    k at d, is read once through ``module.action``, and its rows are laid
    into a list of dims[d + k] * dim A^k rows at j, j + dim A^k, ...: the
    layout of a coaction block.  The part on generator g is the dual
    regular module at d - g, whose action there is the transposed right
    multiplication on A^(g - d - k), so its run of that list must equal
    the whole of ``milnor.product_columns(g - d - k, k)``, the product
    block that ``milnor.right_multiplication`` reads with stride dim A^k,
    fetched once per part and (d, k) and shifted left once to the part's
    column offset, and must be zero when the part has no basis at d.  The
    runs are joined into one reference list, and the two lists are
    compared once per block.  No part matrix is built and no memo entry is
    made: the parts' rows are read straight off the product block.
    """
    gens = _generators(v)
    algebra, window = module.algebra, module.window
    parts = [(dual_regular(algebra, window.shift(-g)), g) for g in gens]
    ref = coproduct(parts) if parts else zero_module(algebra, window)
    if (ref.dims != module.dims or ref.bottom_exact != module.bottom_exact
            or ref.top_exact != module.top_exact):
        return False
    dims = module.dims
    for k in range(1, window.width + 1):
        basis = algebra.basis(k)
        stride = len(basis)
        if not stride:
            continue
        for d in range(window.lo, window.hi + 1 - k):
            if not (dims[d] and dims[d + k]):
                continue
            got = [0] * (dims[d + k] * stride)
            for j, seq in enumerate(basis):
                got[j::stride] = module.action(seq, d).rows
            own: list[int] = []
            col = 0
            for part, g in parts:
                sd, td = part.dims[d - g], part.dims[d - g + k]
                if td:
                    if sd:
                        block = milnor.product_columns(g - d - k, k,
                                                       algebra)
                        own.extend([r << col for r in block]
                                   if col else block)
                    else:
                        own.extend([0] * (td * stride))
                col += sd
            if got != own:
                return False
    return True
