"""Graded right comodules over the dual algebra, and their embedding into
graded left modules by the adjoint action.

The dual algebra is handled implicitly: its degree -k piece carries the
basis dual to the Milnor basis of degree k, and its comultiplication is the
transpose of the multiplication matrices.  A comodule stores one matrix per
(degree d, jump k >= 0): the coaction component M^d -> M^(d+k) (x) dual^(-k),
with rows indexed by pairs (module basis index, algebra basis index) as
row = m_idx * dim A^k + a_idx.

Cohomological conventions throughout: the algebra sits in nonnegative
degrees, its dual in nonpositive ones, so unsuspended comodule windows live
in nonpositive degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import milnor
from .f2 import BitMatrix, mask_to_bits, mul_rows
from .gmodule import (GradedModule, Window, _graded_header, coproduct,
                      dual_regular, zero_module)
from .milnor import Algebra


@dataclass(frozen=True)
class ExtendedSpec:
    """A graded vector space V by degreewise dimensions (finitely many)."""

    v_dims: tuple[tuple[int, int], ...]  # sorted (degree, dim), dims > 0

    def __init__(self, v_dims: dict[int, int]):
        items = tuple(sorted((d, n) for d, n in v_dims.items() if n))
        for _, n in items:
            if n < 0:
                raise ValueError("negative dimension")
        object.__setattr__(self, "v_dims", items)


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
    """

    __slots__ = ("algebra", "window", "dims", "coactions",
                 "bottom_exact", "top_exact")

    def __init__(self, algebra: Algebra, window: Window, dims: dict[int, int],
                 coactions: dict[tuple[int, int], BitMatrix],
                 bottom_exact: bool = False, top_exact: bool = False):
        _graded_header(self, algebra, window, dims, bottom_exact, top_exact)
        table: dict[tuple[int, int], BitMatrix] = {}
        for d, k in _required_coaction_keys(algebra, window, self.dims):
            mat = coactions.get((d, k))
            if mat is None:
                raise ValueError(f"missing coaction block ({d}, {k})")
            expected = (self.dims[d + k] * algebra.dim(k), self.dims[d])
            if mat.shape != expected:
                raise ValueError(
                    f"coaction block ({d}, {k}) has shape {mat.shape}, "
                    f"expected {expected}")
            table[(d, k)] = mat
        self.coactions = table

    def coaction(self, d: int, k: int) -> BitMatrix:
        """Block M^d -> M^(d+k) (x) dual^(-k); identity at k = 0."""
        sd = self.dims.get(d, 0) if d in self.window else 0
        if k == 0:
            return BitMatrix.identity(sd)
        td = self.dims.get(d + k, 0) if (d + k) in self.window else 0
        ak = self.algebra.dim(k)
        if not sd or not td or not ak:
            return BitMatrix.zero(td * ak, sd)
        return self.coactions[(d, k)]

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
    no rows.
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
            coactions[(d, k)] = BitMatrix(len(rows), dims[d], rows)
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
    Coassociativity compares, for every (d, k1, k2), applying the coaction
    twice against applying it once and splitting the dual factor by the
    transpose of multiplication.  Both sides are computed on whole rows,
    each row a mask over the columns of M^d: the twice-applied side is one
    product per jump index y of (d + k1, k2) against the y rows of
    (d, k1), and the split side one product per target index m'' of the
    multiplication block's column masks against the m'' rows of
    (d, k1 + k2).  The XOR of matching rows marks the failing columns.
    A zero middle degree d + k1 is checked too: the twice-applied side is
    0 there, but the split side need not be.

    A first pass takes the outer jump k2 = 2^i only where Sq(2^i) is in
    the algebra, and reads only the rows of x = Sq(2^i): its rows of
    (d + k1, k2) and the entries x * dim A^k1 ... of the multiplication
    block.  If no such row fails, the comodule is coassociative.  Proof:
    pairing block (d, k) with a monomial a of degree k is the action of a
    on M^d in ``iota``, and block (d, k1, k2) paired with x (x) y, for x
    of degree k2 and y of degree k1, says action(x) action(y) =
    action(x y) at degree d.  So the first pass is ``GradedModule.validate``'s
    first pass on iota(c), the squares Sq(2^i) generate the algebra
    (Milnor, Ann. of Math. 67, 1958), and that method's induction over
    words in the squares carries over unchanged: every step is a pair
    (square, monomial) at a degree d with d + k1 + k2 in the window, which
    the first pass checked or skipped for a zero end.  If any square row
    fails, the check reruns over every x, so a violation list has the same
    content and order as a check of every (d, k1, k2) would give.
    """
    if next(_coassociativity_failures(c, squares_only=True), None) is None:
        return []
    return list(_coassociativity_failures(c, squares_only=False))


def _coassociativity_failures(c: GradedComodule, squares_only: bool):
    """Yield a message per failing (d, k1, k2, column), in the order of
    validate_coaction's full pass; with squares_only, only the rows of
    x = Sq(k2) for k2 a power of two with Sq(k2) in the algebra."""
    alg = c.algebra
    w = c.window
    # degree 2^i -> index of Sq(2^i) in its basis, for the squares in alg
    squares = {k: milnor._basis_index(k, alg.profile_index)[(k,)]
               for k in (1 << i for i in range(w.width.bit_length()))
               if alg.contains((k,))}
    for d in w:
        if not c.dims[d]:
            continue
        for k1 in range(1, w.hi - d + 1):
            a1 = alg.dim(k1)
            if not a1:
                continue
            b1 = c.coaction(d, k1).rows
            b1_by_y = [b1[y::a1] for y in range(a1)]
            for k2 in range(1, w.hi - d - k1 + 1):
                a2 = alg.dim(k2)
                td = c.dims[d + k1 + k2]
                if not td or not a2 or (squares_only and k2 not in squares):
                    continue
                b2 = c.coaction(d + k1, k2).rows
                # row x * a1 + y: the degree k1 + k2 monomials in x * y
                mm_t = milnor.product_columns(k2, k1, alg)
                nx = a2
                if squares_only:
                    # keep x = Sq(k2) only: its rows of b2 and of mm_t
                    sq = squares[k2]
                    b2 = b2[sq::a2]
                    mm_t = mm_t[sq * a1:(sq + 1) * a1]
                    nx = 1
                big = c.coaction(d, k1 + k2).rows
                a12 = alg.dim(k1 + k2)
                # twice: row m'' * nx + x of lhs[y] holds ((m'', x), y)
                lhs = [mul_rows(b2, rows) for rows in b1_by_y]
                bad = 0
                for m2 in range(td):
                    # once + split: row x * a1 + y holds (m'', (x, y))
                    rhs = mul_rows(mm_t, big[m2 * a12:(m2 + 1) * a12])
                    for x in range(nx):
                        row = m2 * nx + x
                        for y in range(a1):
                            bad |= lhs[y][row] ^ rhs[x * a1 + y]
                for col in mask_to_bits(bad):
                    yield (f"coassociativity fails at degree {d}, jumps "
                           f"({k1}, {k2}), column {col}")


def iota(c: GradedComodule) -> GradedModule:
    """The adjoint-action module: a of degree k acts on M^d through the
    (d, k) coaction block paired against a in the dual basis, the rows
    m * dim A^k + (index of a) of the block.

    The module calls its source only for keys with both dimensions
    nonzero, and those are exactly the stored coaction blocks.  The rows
    are a slice of that checked block, whose width is dims[d] too, so
    they are wrapped without a second range check.
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
    its matrices is read.  Each required matrix of module, the j-th
    monomial of degree k at d, is read once and compared part by part.
    The part on generator g is the dual regular module at d - g, whose
    action there is the transposed right multiplication by that monomial
    on A^(g - d - k).  So its run of rows, for a part with a target at
    d + k, must equal ``milnor._right_action_rows(g - d - k, k, j)``
    shifted left to the part's column offset, and must be zero when the
    part has no basis at d.  No part matrix is built and no memo entry is
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
    right_rows = milnor._right_action_rows
    for k in range(1, window.width + 1):
        basis = algebra.basis(k)
        for d in range(window.lo, window.hi + 1 - k):
            if not (dims[d] and dims[d + k]):
                continue
            # (degree of the part's algebra source, first row, rows,
            # column offset or None when the part has no basis at d)
            runs = []
            start = col = 0
            for part, g in parts:
                sd, td = part.dims[d - g], part.dims[d - g + k]
                if td:
                    runs.append((g - d - k, start, start + td,
                                 col if sd else None))
                    start += td
                col += sd
            for j, seq in enumerate(basis):
                rows = module.action(seq, d).rows
                for e, lo, hi, off in runs:
                    run = rows[lo:hi]
                    if off is None:
                        if any(run):
                            return False
                        continue
                    own = right_rows(e, k, j, algebra)
                    if off:
                        own = tuple([r << off for r in own])
                    if run != own:
                        return False
    return True
