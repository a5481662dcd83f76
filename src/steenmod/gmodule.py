"""Graded left modules over the full algebra or a finite subalgebra A(n),
represented exactly on a degree window.

A module acts through the matrix of each algebra basis monomial b with
0 < deg b <= hi - lo at each window degree d with d + deg b representable:
b: M^d -> M^(d+deg b).  The matrices are not built up front.  A module holds
a *source*, a function (b, d) -> matrix, and derives each matrix from it the
first time it is read, checks its shape there and memoizes it per module in
``actions``.  Every module is built this way: regular, dual regular, free,
zero and coproduct modules, their suspensions and restrictions,
submodules, quotients, comodules, each stored as its ι module by
``comodule.of_coaction_blocks``, whose source builds a coaction block on
the first read of any of its monomials and files the matrix of each of
them, and parsed text, whose source decodes each block that
``textio.parse_module`` checked at parse on the block's first read.
Only equality, validation and printing force the full table
(``action_table``).
The sources of regular and of dual regular modules read ``milnor``'s
per-degree memos of left and transposed right multiplication by a monomial
(``_left_action``, ``_right_action``), so all such modules, and the
suspended copies built from them, hold one shared immutable matrix per
monomial and degree.  The dual regular source is the one reader of the
squares' walk: a square Sq(2^i) of a degree not yet walked whole is read
off it.

Degrees outside the window are *unknown* unless the module is flagged exact
on that side (dims are then zero beyond the edge); every verdict computed
downstream carries the degree range on which it is exact, so truncation is
never silently promoted to a global claim.

Every module is a left module.  The freeness test reads a bounded-above
module as its transpose dual, which is not one, through the rows of the
module's own matrices, not as a module.

All modules are immutable after construction: the memo only ever gains the
matrices the source determines, and nothing here mutates inputs.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import milnor
from ._f2pure import insert, transpose
from ._records import fields_equal, fields_hash
from .f2 import BitMatrix, Subspace, mask_to_bits, mul_rows
from .milnor import Algebra, Element, Seq, _is_square


class Window:
    """The degrees lo..hi, both included."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ValueError(f"empty window {lo}..{hi}")
        self.lo = lo
        self.hi = hi

    __eq__ = fields_equal
    __hash__ = fields_hash

    def __contains__(self, d: int) -> bool:
        return self.lo <= d <= self.hi

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def shift(self, k: int) -> "Window":
        return Window(self.lo + k, self.hi + k)

    def intersect(self, other: "Window") -> "Window":
        return Window(max(self.lo, other.lo), min(self.hi, other.hi))

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def __str__(self) -> str:
        return f"{self.lo}..{self.hi}"


Source = Callable[[Seq, int], BitMatrix]


def _required_action_keys(algebra: Algebra, window: Window,
                          dims: dict[int, int]):
    """Yield the (monomial, degree) of every action matrix a module with
    these dims holds: a monomial of positive degree k and a degree d with
    d and d + k in the window and both dimensions nonzero."""
    lo, hi = window.lo, window.hi
    for k in range(1, hi - lo + 1):
        sources = [d for d in range(lo, hi - k + 1) if dims[d] and dims[d + k]]
        if not sources:
            continue
        for seq in algebra.basis(k):
            for d in sources:
                yield seq, d


class GradedModule:
    """A graded left module on a window, acting through matrices derived
    from a source on first read.

    The source is called only for keys with both dimensions nonzero, and
    its matrices are checked as they are built.  A source may also file
    in ``actions`` the other required keys of the block it builds, as
    ``comodule.of_coaction_blocks`` does for a coaction block.
    """

    __slots__ = ("algebra", "window", "dims", "actions", "_source",
                 "bottom_exact", "top_exact")

    def __init__(self, algebra: Algebra, window: Window, dims: dict[int, int],
                 source: Source, bottom_exact: bool = False,
                 top_exact: bool = False):
        self.algebra = algebra
        self.window = window
        # every window degree, a missing one meaning zero
        self.dims = {d: dims.get(d, 0) for d in window}
        if any(n < 0 for n in self.dims.values()):
            raise ValueError("negative dimension")
        self.bottom_exact = bottom_exact
        self.top_exact = top_exact
        # the matrices built so far, keyed by (monomial, degree)
        self.actions: dict[tuple[Seq, int], BitMatrix] = {}
        self._source = source

    def action_table(self) -> dict[tuple[Seq, int], BitMatrix]:
        """The full action table: every required matrix, built if not yet
        read.  The returned dict is the module's memo; do not mutate it."""
        table = self.actions
        for key in _required_action_keys(self.algebra, self.window, self.dims):
            if key not in table:
                self.action(*key)
        return table

    # -- degree bookkeeping ------------------------------------------------

    def dim(self, d: int) -> Optional[int]:
        """Dimension at degree d; 0 beyond an exact edge, None when unknown."""
        if d in self.window:
            return self.dims[d]
        if d < self.window.lo:
            return 0 if self.bottom_exact else None
        return 0 if self.top_exact else None

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def action(self, seq: Seq, d: int) -> BitMatrix:
        """Matrix of the basis monomial on M^d, including the implicit unit.

        A key with both dimensions nonzero is built from the source on its
        first read, its shape checked, and memoized in ``actions``; so the
        memo only ever holds keys of ``_required_action_keys``.  Every
        other read is answered without the source and leaves the memo as
        it is:

        - a degree past an edge that is not exact raises "leaves the
          window", even where the other end has dimension 0;
        - the unit, the one monomial of degree 0, gives the identity;
        - a zero dimension at either end gives ``BitMatrix.zero(td, sd)``;
        - a monomial outside a finite A(n) raises.

        Both dimensions come straight from ``dims`` when d and d + deg seq
        lie in the window; ``dim``, where exactness decides, is consulted
        only at the edges.
        """
        mat = self.actions.get((seq, d))
        if mat is not None:
            return mat
        k = milnor.degree(seq)
        window = self.window
        if window.lo <= d and d + k <= window.hi:
            sd, td = self.dims[d], self.dims[d + k]
        else:
            sd, td = self.dim(d), self.dim(d + k)
            if sd is None or td is None:
                raise ValueError(
                    f"action of Sq{seq} at degree {d} leaves the window")
        if not k:
            return BitMatrix.identity(sd)
        if not sd or not td:
            return BitMatrix.zero(td, sd)
        algebra = self.algebra
        if algebra.profile_index is not None and not algebra.contains(seq):
            raise ValueError(f"Sq{seq} is not in {self.algebra}")
        mat = self._source(seq, d)
        if mat.shape != (td, sd):
            raise ValueError(
                f"action of Sq{seq} at degree {d} has shape {mat.shape}, "
                f"expected {(td, sd)}")
        self.actions[(seq, d)] = mat
        return mat

    def action_of(self, elem: Element, d: int) -> BitMatrix:
        """Matrix of a homogeneous element on M^d."""
        k = elem.degree()
        if k is None:
            raise ValueError("need a nonzero homogeneous element")
        mats = [self.action(seq, d) for seq in elem.terms]
        out = mats[0]
        for m in mats[1:]:
            out = out + m
        return out

    # -- structural checks ---------------------------------------------------

    def validate(self) -> list[str]:
        """Composition check; [] means valid.

        For monomials b, c and each degree d, the rows of action(b) @
        action(c), one kernel product, are compared with the XOR of the
        rows of action(t) over the terms t of b * c, read off a column of
        the multiplication block.

        A first pass takes b among the squares Sq(2^i) of the algebra only
        (all i for A, i <= n for A(n)), which generate it as an algebra
        (Milnor, Ann. of Math. 67, 1958).  If no such pair fails, the table
        is a module.  Proof: write b as a sum of words g_1 ... g_k in the
        squares.  The first pass gives action(g y) = action(g) action(y)
        for a square g and any homogeneous y of positive degree, by
        linearity in y; by induction on k, action(g_1 ... g_k c) =
        action(g_1) ... action(g_k) action(c), and with the unit for c the
        same product is action(g_1 ... g_k).  Summing over the words gives
        action(b c) = action(b) action(c).  Squares have positive degree,
        so every intermediate degree lies between d and d + |b| + |c|,
        inside the window, and every step is a pair the first pass
        checked (a pair it skips for a zero dimension holds trivially).
        If any square pair fails, the check reruns
        over every pair, so a violation list has the same content and
        order as a check of every pair would give.
        """
        self.action_table()
        return [f"action(Sq{b}*Sq{c}) != action(Sq{b})action(Sq{c}) "
                f"at degree {d}" for b, c, d, _ in self._failing_compositions()]

    def _failing_compositions(self) -> list[tuple[Seq, Seq, int, int]]:
        """validate's two passes: [] when no pair with b a square fails,
        else every failing (b, c, d, mask) of the full pass."""
        if next(self._composition_failures(_is_square), None) is None:
            return []
        return list(self._composition_failures(lambda b: True))

    def _composition_failures(self, is_left: Callable[[Seq], bool]):
        """Yield (b, c, d, mask) per pair of monomials with is_left(b) whose
        composition fails at degree d, in the order of validate's full
        pass; the mask marks the columns of M^d where action(b) action(c)
        and action(b * c) differ."""
        w = self.window
        alg = self.algebra
        for kc in range(1, w.width + 1):
            for kb in range(1, w.width + 1 - kc):
                basis_b = alg.basis(kb)
                lefts = [(bi, b) for bi, b in enumerate(basis_b) if is_left(b)]
                if not lefts:
                    continue
                basis_c = alg.basis(kc)
                basis_bc = alg.basis(kb + kc)
                block = milnor.product_columns(kb, kc, alg)
                for bi, b in lefts:
                    for ci, c in enumerate(basis_c):
                        prod = [basis_bc[i] for i in mask_to_bits(
                            block[bi * len(basis_c) + ci])]
                        for d in range(w.lo, w.hi + 1 - kb - kc):
                            if not (self.dims[d] and self.dims[d + kb + kc]):
                                continue
                            composite = mul_rows(self.action(b, d + kc).rows,
                                                 self.action(c, d).rows)
                            direct = [0] * self.dims[d + kb + kc]
                            for t in prod:
                                for i, v in enumerate(self.action(t, d).rows):
                                    direct[i] ^= v
                            if direct != composite:
                                bad = 0
                                for u, v in zip(direct, composite):
                                    bad |= u ^ v
                                yield b, c, d, bad

    # -- constructors --------------------------------------------------------

    def suspend(self, k: int) -> "GradedModule":
        if k == 0:
            return self
        dims = {d + k: n for d, n in self.dims.items()}

        def source(seq: Seq, d: int) -> BitMatrix:
            return self.action(seq, d - k)
        return GradedModule(self.algebra, self.window.shift(k), dims, source,
                            self.bottom_exact, self.top_exact)

    def restrict_to(self, algebra: Algebra) -> "GradedModule":
        """The same window of dims, acted on by a subalgebra only."""
        if not algebra.is_full and not self.algebra.is_full:
            if algebra.profile_index > self.algebra.profile_index:
                raise ValueError("can only restrict to a smaller algebra")
        elif algebra.is_full and not self.algebra.is_full:
            raise ValueError("cannot extend a subalgebra module to the full algebra")
        return GradedModule(algebra, self.window, dict(self.dims), self.action,
                            self.bottom_exact, self.top_exact)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GradedModule)
                and self.algebra == other.algebra
                and self.window == other.window
                and self.dims == other.dims
                and self.bottom_exact == other.bottom_exact
                and self.top_exact == other.top_exact
                and self.action_table() == other.action_table())

    def __repr__(self) -> str:
        return (f"GradedModule({self.algebra} on {self.window}, "
                f"total dim {self.total_dim()})")


def zero_module(algebra: Algebra, window: Window) -> GradedModule:
    # every dimension is zero, so ``action`` never calls the source
    return GradedModule(algebra, window, {},
                        lambda seq, d: BitMatrix.zero(0, 0), True, True)


def regular(algebra: Algebra, window: Window) -> GradedModule:
    """The algebra acting on itself by multiplication, truncated to window."""
    dims = {d: algebra.dim(d) if d >= 0 else 0 for d in window}

    def source(seq: Seq, d: int) -> BitMatrix:
        return milnor._left_action(seq, d, algebra)
    top = algebra.top_degree()
    top_exact = top is not None and window.hi >= top
    return GradedModule(algebra, window, dims, source,
                        bottom_exact=window.lo <= 0, top_exact=top_exact)


def dual_regular(algebra: Algebra, window: Window) -> GradedModule:
    """The linear dual of the algebra with (a . f)(b) = f(b a).

    Concentrated in nonpositive degrees; the action matrix of a at degree d
    is the transpose of right multiplication by a into degree -d.  A square
    Sq(2^i) of a degree -d whose whole walk has not run is read off the
    squares' walk (``milnor._walk_squares``), so a chain of squares walks
    only their part of the coproduct.
    """
    dims = {d: algebra.dim(-d) if d <= 0 else 0 for d in window}

    def source(seq: Seq, d: int) -> BitMatrix:
        return milnor._right_action(seq, -d - milnor.degree(seq), algebra,
                                    squares=True)
    top = algebra.top_degree()
    bottom_exact = top is not None and window.lo <= -top
    return GradedModule(algebra, window, dims, source,
                        bottom_exact=bottom_exact, top_exact=window.hi >= 0)


def coproduct(parts: Sequence[tuple[GradedModule, int]]) -> GradedModule:
    """Degreewise direct sum of suspended copies, on the common window.

    The action of a monomial stacks the parts' actions as diagonal blocks,
    part by part, when it is first read.  A part with a zero dimension at
    either end contributes zero rows or no columns and is not read.
    """
    if not parts:
        raise ValueError("coproduct of nothing (use zero_module)")
    algebra = parts[0][0].algebra
    window = None
    for m, s in parts:
        if m.algebra != algebra:
            raise ValueError("coproduct parts live over different algebras")
        w = m.window.shift(s)
        window = w if window is None else window.intersect(w)

    dims = {d: sum(m.dims[d - s] for m, s in parts) for d in window}

    def edge_exact(lower: bool) -> bool:
        for m, s in parts:
            if lower:
                if not m.bottom_exact:
                    return False
                cut = range(m.window.lo, window.lo - s)
            else:
                if not m.top_exact:
                    return False
                cut = range(window.hi - s + 1, m.window.hi + 1)
            if any(m.dims[e] for e in cut):
                return False
        return True

    def source(seq: Seq, d: int) -> BitMatrix:
        k = milnor.degree(seq)
        rows: list[int] = []
        col_off = 0
        for m, s in parts:
            sd, td = m.dims[d - s], m.dims[d - s + k]
            if sd and td:
                mat = m.action(seq, d - s)
                rows.extend([r << col_off for r in mat.rows]
                            if col_off else mat.rows)
            elif td:
                rows.extend([0] * td)
            col_off += sd
        return BitMatrix(len(rows), col_off, rows)
    return GradedModule(algebra, window, dims, source,
                        bottom_exact=edge_exact(True), top_exact=edge_exact(False))


def free_module(shifts: Iterable[int], algebra: Algebra,
                window: Window) -> GradedModule:
    """Direct sum of suspended regular modules, one per generator degree.

    The shifts are a multiset: they are summed in ascending order, so the
    basis does not depend on the order they are given in."""
    parts = [(regular(algebra, window.shift(-s)), s) for s in sorted(shifts)]
    if not parts:
        return zero_module(algebra, window)
    return coproduct(parts)


def _family(m: GradedModule, spaces: Mapping[int, Subspace]) -> dict[int, Subspace]:
    """spaces on every window degree of m, a missing degree meaning zero."""
    family = {}
    for d in m.window:
        sp = spaces.get(d)
        if sp is None:
            sp = Subspace.zero(m.dims[d])
        if sp.ambient_dim != m.dims[d]:
            raise ValueError(f"subspace at degree {d} has wrong ambient dimension")
        family[d] = sp
    return family


def _first_escape(m: GradedModule, family: Mapping[int, Subspace]
                  ) -> Optional[tuple[Seq, int]]:
    """The first (monomial, degree), scanning by degree k, basis order,
    then d, whose action maps family[d] outside family[d + k]; None when
    the family is closed.  Every monomial is checked: closure under the
    squares alone implies closure only when m is known to be a module."""
    w = m.window
    for k in range(1, w.width + 1):
        for seq in m.algebra.basis(k):
            for d in range(w.lo, w.hi + 1 - k):
                vectors = family[d].basis
                if not vectors:
                    continue
                mat = m.action(seq, d)
                if not all(family[d + k].contains(mat.apply(v)) for v in vectors):
                    return seq, d
    return None


def submodule(m: GradedModule, spaces: dict[int, Subspace]) -> GradedModule:
    """The submodule spanned degreewise by invariant subspaces.

    spaces maps window degrees to subspaces of M^d (missing degrees mean
    zero).  Raises when the family is not closed under the action.
    """
    family = _family(m, spaces)
    escape = _first_escape(m, family)
    if escape is not None:
        raise ValueError(f"family not closed: Sq{escape[0]} at degree {escape[1]}")

    def source(seq: Seq, d: int) -> BitMatrix:
        mat = m.action(seq, d)
        target = family[d + milnor.degree(seq)]
        return BitMatrix.from_columns(
            [target.coordinates(mat.apply(v)) for v in family[d].basis],
            target.dim)
    return GradedModule(m.algebra, m.window,
                        {d: sp.dim for d, sp in family.items()}, source,
                        m.bottom_exact, m.top_exact)


def quotient(m: GradedModule, spaces: dict[int, Subspace]) -> GradedModule:
    """The quotient of m by an invariant degreewise family of subspaces."""
    family = _family(m, spaces)
    escape = _first_escape(m, family)
    if escape is not None:
        raise ValueError(
            f"family not invariant: Sq{escape[0]} at degree {escape[1]}")
    # coset coordinates: entries at non-pivot columns after reduction
    free_cols = {}
    for d, sp in family.items():
        pivots = {(r & -r).bit_length() - 1 for r in sp.basis}
        free_cols[d] = [j for j in range(m.dims[d]) if j not in pivots]

    def project(d: int, v: int) -> int:
        v = family[d].reduce(v)
        out = 0
        for idx, j in enumerate(free_cols[d]):
            if (v >> j) & 1:
                out |= 1 << idx
        return out

    def source(seq: Seq, d: int) -> BitMatrix:
        e = d + milnor.degree(seq)
        mat = m.action(seq, d)
        return BitMatrix.from_columns(
            [project(e, mat.apply(1 << j)) for j in free_cols[d]],
            len(free_cols[e]))
    return GradedModule(m.algebra, m.window,
                        {d: len(cols) for d, cols in free_cols.items()}, source,
                        m.bottom_exact, m.top_exact)


# -- freeness ---------------------------------------------------------------


class FreenessVerdict:
    """Outcome of the degreewise free-comparison test.

    When the test ran over a finite subalgebra, status 'free' doubles as a
    gr-injectivity verdict on the certified range (free, projective and
    injective coincide there).
    """

    __slots__ = ("status", "generator_degrees", "witness", "certified_degrees")

    def __init__(self, status: str,
                 generator_degrees: Optional[dict[int, int]] = None,
                 witness: Optional[str] = None,
                 certified_degrees: tuple[int, ...] = ()):
        self.status = status  # 'free' | 'not_free' | 'window_inconclusive'
        self.generator_degrees = ({} if generator_degrees is None
                                  else generator_degrees)
        self.witness = witness
        self.certified_degrees = certified_degrees

    @property
    def is_free(self) -> bool:
        return self.status == "free"


def _freeness_bottom_anchored(m: GradedModule, mirrored: bool) -> tuple[
        dict[int, int], list[tuple[int, str]]]:
    """Compare m, or with mirrored its transpose dual, against the free
    module on its minimal generators, in one pass up the degrees.

    The transpose dual of a bounded-above m is bounded below: degree d
    holds the dual of M^(-d), b acts by the transpose of its action into
    degree -d, and the exactness flags mirror.  It is not a left module,
    but the test only spans action images and never composes two
    actions; the images of its basis under b are the rows of m's own
    action matrix, so no matrix is transposed.

    At degree d the images of degrees d - 1 .. d - top go into one pivot
    table (``_f2pure.insert``); the columns that key no pivot are the new
    generators, as unit vectors.  Those and the lower generators' images,
    rows of the same image lists, go into a second table: their count is
    the free module's dimension at d, the table's size the rank of the
    canonical map.  From the exact bottom edge the generators generate
    every degree, so the map is onto and freeness at d is a dimension
    match plus full rank.  Past an exact top edge the module is zero, so
    a generator whose copy of the algebra reaches there fails too.
    Returns the nonzero generator counts and the (degree, reason) of each
    failure, ascending.
    """
    alg = m.algebra
    top = alg.top_degree()
    if mirrored:
        window = Window(-m.window.hi, -m.window.lo)
        dims = {d: m.dims[-d] for d in window}
        top_exact = m.bottom_exact

        def images(seq: Seq, d: int) -> Sequence[int]:
            return m.action(seq, -d - milnor.degree(seq)).rows
    else:
        window, dims, top_exact = m.window, m.dims, m.top_exact

        def images(seq: Seq, d: int) -> Sequence[int]:
            mat = m.action(seq, d)
            return transpose(mat.rows, mat.ncols)
    gens: dict[int, list[int]] = {}  # degree -> columns of its generators
    failures: list[tuple[int, str]] = []
    for d in window:
        image: dict[int, int] = {}
        reached: dict[int, int] = {}
        fdim = 0
        for k in range(1, min(top, d - window.lo) + 1):
            if not dims[d - k]:
                continue
            lower = gens.get(d - k, ())
            for seq in alg.basis(k):
                rows = images(seq, d - k)
                for v in rows:
                    insert(image, v)
                for j in lower:
                    insert(reached, rows[j])
                fdim += len(lower)
        n = dims[d]
        new = [j for j in range(n) if 1 << j not in image]
        if new:
            gens[d] = new
            for j in new:
                insert(reached, 1 << j)
            fdim += len(new)
        if fdim != n:
            failures.append((d, f"free rank {fdim} != module dim {n}"))
        elif len(reached) != n:
            failures.append((d, "canonical map drops rank"))
    counts = {g: len(cols) for g, cols in gens.items()}
    if top_exact and counts:
        # past an exact top edge the module is zero, and the free module
        # is not while a generator's copy of the algebra reaches there
        for d in range(window.hi + 1, max(counts) + top + 1):
            fdim = sum(c * alg.dim(d - g) for g, c in counts.items()
                       if g <= d)
            if fdim:
                failures.append((d, f"free rank {fdim} != module dim 0"))
    return counts, failures


def freeness_test(m: GradedModule, algebra: Optional[Algebra] = None) -> FreenessVerdict:
    """Decide degreewise whether m is free over a finite subalgebra.

    Bounded-below modules are compared against the free module on their
    minimal generators.  A bounded-above module is compared through its
    transpose dual, which is bounded below, and every degree reported is
    mirrored back: a generator degree h of the dual to -h - topdeg, and a
    failing degree d to -d.  Either way every degree the test reads is
    known, so the certified degrees are the module's window.
    """
    if algebra is not None and algebra != m.algebra:
        m = m.restrict_to(algebra)
    if m.algebra.is_full:
        raise ValueError("freeness test needs a finite subalgebra")
    if m.bottom_exact:
        counts, failures = _freeness_bottom_anchored(m, False)
    elif m.top_exact:
        top = m.algebra.top_degree()
        counts, failures = _freeness_bottom_anchored(m, True)
        counts = {-h - top: c for h, c in counts.items()}
        failures = [(-d, reason) for d, reason in failures]
    else:
        return FreenessVerdict("window_inconclusive", {},
                               "module is anchored on neither side", ())
    certified = tuple(m.window)
    if failures:
        witness = "; ".join(f"degree {d}: {reason}"
                            for d, reason in failures[:3])
        return FreenessVerdict("not_free", counts, witness, certified)
    return FreenessVerdict("free", counts, None, certified)
