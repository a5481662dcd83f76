"""Graded left modules over the full algebra or a finite subalgebra A(n),
represented exactly on a degree window.

A module acts through the matrix of each algebra basis monomial b with
0 < deg b <= hi - lo at each window degree d with d + deg b representable:
b: M^d -> M^(d+deg b).  The matrices are not built up front.  A module holds
a *source*, a function (b, d) -> matrix, and derives each matrix from it the
first time it is read, checks its shape there and memoizes it per module in
``actions``.  Regular, dual regular, free and coproduct modules, their
suspensions and restrictions, submodules, quotients and the comodule
embedding ``comodule.iota`` are sources of this kind.  Only parsed text
and ``zero_module`` hand over an explicit table, which is checked for
shape and completeness at construction and serves as its own source.
Only equality, validation and printing force the full table
(``action_table``).  The sources of regular and of dual regular modules
read ``milnor``'s per-degree memos of left and transposed right
multiplication by a monomial (``_left_action``, ``_right_action``), so all
such modules, and the suspended copies built from them, hold one shared
immutable matrix per monomial and degree.

Degrees outside the window are *unknown* unless the module is flagged exact
on that side (dims are then zero beyond the edge); every verdict computed
downstream carries the degree range on which it is exact, so truncation is
never silently promoted to a global claim.

Every module is a left module, except the transpose dual that the
freeness test reads a bounded-above module through (``_transpose_dual``).

All modules are immutable after construction: the memo only ever gains the
matrices the source determines, and nothing here mutates inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from . import milnor
from .f2 import BitMatrix, Subspace, mask_to_bits, mul_rows
from .milnor import Algebra, Element, Seq


@dataclass(frozen=True, order=True)
class Window:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty window {self.lo}..{self.hi}")

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


@dataclass(frozen=True)
class SuspensionProfile:
    """A finite multiset of suspension degrees d(s)."""

    shifts: tuple[int, ...]

    def __init__(self, shifts: Iterable[int]):
        object.__setattr__(self, "shifts", tuple(sorted(shifts)))

    def __len__(self) -> int:
        return len(self.shifts)


Source = Callable[[Seq, int], BitMatrix]


def _graded_header(obj, algebra: Algebra, window: Window,
                   dims: Mapping[int, int], bottom_exact: bool,
                   top_exact: bool) -> None:
    """Set the algebra, window, dims and exactness flags that modules and
    comodules share: dims get every window degree, a missing one meaning
    zero, and a negative dimension is rejected."""
    obj.algebra = algebra
    obj.window = window
    obj.dims = {d: dims.get(d, 0) for d in window}
    if any(n < 0 for n in obj.dims.values()):
        raise ValueError("negative dimension")
    obj.bottom_exact = bottom_exact
    obj.top_exact = top_exact


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

    ``actions`` is either a source function or an explicit table keyed by
    (monomial, degree).  An explicit table is checked at once for shape and
    completeness, and a key with both dimensions nonzero that the header
    does not call for is refused; a source is called only for keys with
    both dimensions nonzero, and its matrices are checked as they are
    built.
    """

    __slots__ = ("algebra", "window", "dims", "actions", "_source",
                 "bottom_exact", "top_exact")

    def __init__(self, algebra: Algebra, window: Window, dims: dict[int, int],
                 actions: Union[Source, Mapping[tuple[Seq, int], BitMatrix]],
                 bottom_exact: bool = False, top_exact: bool = False):
        _graded_header(self, algebra, window, dims, bottom_exact, top_exact)
        # the matrices built so far, keyed by (monomial, degree)
        self.actions: dict[tuple[Seq, int], BitMatrix] = {}
        if callable(actions):
            self._source = actions
            return
        table = self.actions
        for (seq, d), mat in actions.items():
            k = milnor.degree(seq)
            sd, td = self.dim(d), self.dim(d + k)
            if not sd or not td:
                continue
            if mat.shape != (td, sd):
                raise ValueError(
                    f"action of Sq{seq} at degree {d} has shape {mat.shape}, "
                    f"expected {(td, sd)}")
            table[(seq, d)] = mat
        found = 0
        for seq, d in _required_action_keys(algebra, window, self.dims):
            if (seq, d) not in table:
                raise ValueError(f"missing action of Sq{seq} at degree {d}")
            found += 1
        if found != len(table):
            # a key the header never calls for, such as the unit or a
            # monomial outside the algebra, would print as a block that
            # the parser rejects
            required = set(_required_action_keys(algebra, window, self.dims))
            seq, d = next(key for key in table if key not in required)
            raise ValueError(f"action of Sq{seq} at degree {d} is not one "
                             f"the header calls for")
        # complete, so the source is never reached for a required key
        self._source = table.__getitem__

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

    def is_zero(self) -> bool:
        return self.total_dim() == 0

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
        if next(self._composition_failures(_is_square), None) is None:
            return []
        return list(self._composition_failures(lambda b: True))

    def _composition_failures(self, is_left: Callable[[Seq], bool]):
        """Yield a message per failing (b, c, degree) with is_left(b), in
        the order of validate's full pass."""
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
                                yield (f"action(Sq{b}*Sq{c}) != "
                                       f"action(Sq{b})action(Sq{c}) at degree {d}")

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


def _is_square(seq: Seq) -> bool:
    """Whether seq is Sq(2^i) for some i >= 0."""
    return len(seq) == 1 and not seq[0] & (seq[0] - 1)


def validate(m: GradedModule) -> list[str]:
    return m.validate()


def zero_module(algebra: Algebra, window: Window) -> GradedModule:
    return GradedModule(algebra, window, {}, {}, True, True)


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
    is the transpose of right multiplication by a into degree -d.
    """
    dims = {d: algebra.dim(-d) if d <= 0 else 0 for d in window}

    def source(seq: Seq, d: int) -> BitMatrix:
        return milnor._right_action(seq, -d - milnor.degree(seq), algebra)
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


def free_module(gens: SuspensionProfile, algebra: Algebra,
                window: Window) -> GradedModule:
    """Direct sum of suspended regular modules, one per generator degree."""
    if not len(gens):
        return zero_module(algebra, window)
    parts = []
    for s in gens.shifts:
        parts.append((regular(algebra, window.shift(-s)), s))
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
                vectors = family[d].basis.rows
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
            [target.coordinates(mat.apply(v)) for v in family[d].basis.rows],
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
        pivots = {(r & -r).bit_length() - 1 for r in sp.basis.rows}
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


# -- generators and freeness -------------------------------------------------


def _transpose_dual(m: GradedModule) -> GradedModule:
    """Transpose dual, for the freeness test of a bounded-above m: degree d
    holds the dual of M^(-d), b acts by the transpose of its action into
    degree -d, and the exactness flags mirror.

    The result has the transposed action matrices and is *not* a left
    A-module (acting by c and then by b is acting by c b), so ``validate``
    would reject it.  ``minimal_generators`` and
    ``_freeness_bottom_anchored`` read it only through spans of action
    images and never compose two actions.
    """
    w = Window(-m.window.hi, -m.window.lo)
    dims = {d: m.dims[-d] for d in w}

    def source(seq: Seq, d: int) -> BitMatrix:
        return m.action(seq, -d - milnor.degree(seq)).transpose()
    return GradedModule(m.algebra, w, dims, source,
                        bottom_exact=m.top_exact, top_exact=m.bottom_exact)


@dataclass
class GeneratorReport:
    """Degreewise cokernel of the positive-degree action."""

    counts: dict[int, int]
    representatives: dict[int, list[int]]
    certified: dict[int, bool]


def minimal_generators(m: GradedModule) -> GeneratorReport:
    """Dims (and lifts) of coker(A^+ (x) M -> M) per window degree.

    A degree is certified when every positive-degree source that could hit
    it is either inside the window or beyond an exact edge.
    """
    counts: dict[int, int] = {}
    reps: dict[int, list[int]] = {}
    certified: dict[int, bool] = {}
    top = m.algebra.top_degree()
    for d in m.window:
        kmax = top if top is not None else d - m.window.lo + (0 if m.bottom_exact else 1)
        cert = True
        image_rows: list[int] = []
        for k in range(1, kmax + 1):
            src = m.dim(d - k)
            if src is None:
                cert = False
                continue
            if top is None and not m.bottom_exact and d - k < m.window.lo:
                cert = False
            if src == 0 or not m.algebra.dim(k):
                continue
            for seq in m.algebra.basis(k):
                image_rows.extend(m.action(seq, d - k).transpose().rows)
        if top is None and not m.bottom_exact:
            cert = False
        n = m.dims[d]
        image = Subspace.from_vectors(image_rows, n)
        pivot_cols = {(r & -r).bit_length() - 1 for r in image.basis.rows}
        free = [j for j in range(n) if j not in pivot_cols]
        counts[d] = len(free)
        reps[d] = [1 << j for j in free]
        certified[d] = cert
    return GeneratorReport(counts, reps, certified)


@dataclass
class FreenessVerdict:
    """Outcome of the degreewise free-comparison test.

    When the test ran over a finite subalgebra, status 'free' doubles as a
    gr-injectivity verdict on the certified range (free, projective and
    injective coincide there).
    """

    status: str  # 'free' | 'not_free' | 'window_inconclusive'
    generator_degrees: dict[int, int] = field(default_factory=dict)
    witness: Optional[str] = None
    certified_degrees: tuple[int, ...] = ()

    @property
    def is_free(self) -> bool:
        return self.status == "free"


def _freeness_bottom_anchored(m: GradedModule) -> tuple[
        dict[int, int], list[int], list[tuple[int, str]]]:
    """Compare m against the free module on its minimal generators.

    Sound for bottom-exact modules: the cokernel lifts generate every
    window degree (downward induction from the exact bottom edge), so the
    canonical map is surjective wherever it is defined, and freeness at a
    degree reduces to a dimension match plus full rank there.  Returns the
    nonzero generator counts, the certified degrees (ascending) and a
    (degree, reason) per certified degree where the comparison fails.
    """
    gens = minimal_generators(m)
    counts = {d: c for d, c in gens.counts.items() if c}

    ordered_gens: list[tuple[int, int]] = []  # (degree, representative)
    for g in sorted(counts):
        for rep in gens.representatives[g]:
            ordered_gens.append((g, rep))

    top = m.algebra.top_degree()
    certified: list[int] = []
    for d in m.window:
        needed = [e for e in m.window
                  if e <= d and (top is None or d - e <= top)]
        if all(gens.certified[e] for e in needed):
            certified.append(d)

    failures: list[tuple[int, str]] = []
    for d in certified:
        cols: list[int] = []
        fdim = 0
        for g, rep in ordered_gens:
            k = d - g
            if k < 0:
                continue
            for seq in m.algebra.basis(k):
                fdim += 1
                if seq == milnor.UNIT:
                    cols.append(rep)
                else:
                    cols.append(m.action(seq, g).apply(rep))
        if fdim != m.dims[d]:
            failures.append((d, f"free rank {fdim} != module dim {m.dims[d]}"))
            continue
        phi = BitMatrix.from_columns(cols, m.dims[d])
        if phi.rank() != m.dims[d]:
            failures.append((d, "canonical map drops rank"))
    return counts, certified, failures


def freeness_test(m: GradedModule, algebra: Optional[Algebra] = None) -> FreenessVerdict:
    """Decide degreewise whether m is free over a finite subalgebra.

    Bounded-below modules are compared against the free module on their
    minimal generators.  A bounded-above module is compared through its
    transpose dual, which is bounded below, and every degree reported is
    mirrored back: a generator degree h of the dual to -h - topdeg, and a
    certified or failing degree d to -d.
    """
    if algebra is not None and algebra != m.algebra:
        m = m.restrict_to(algebra)
    if m.algebra.is_full:
        raise ValueError("freeness test needs a finite subalgebra")
    if m.bottom_exact:
        counts, certified, failures = _freeness_bottom_anchored(m)
    elif m.top_exact:
        top = m.algebra.top_degree()
        counts, certified, failures = _freeness_bottom_anchored(
            _transpose_dual(m))
        counts = {-h - top: c for h, c in counts.items()}
        certified = sorted(-d for d in certified)
        failures = [(-d, reason) for d, reason in failures]
    else:
        return FreenessVerdict("window_inconclusive", {},
                               "module is anchored on neither side", ())
    if failures:
        witness = "; ".join(f"degree {d}: {reason}"
                            for d, reason in failures[:3])
        return FreenessVerdict("not_free", counts, witness, tuple(certified))
    if not certified:
        return FreenessVerdict("window_inconclusive", counts,
                               "no certified degrees", ())
    return FreenessVerdict("free", counts, None, tuple(certified))
