"""Independent oracles for the test suite.

Almost everything here works in the admissible basis (words of squares with
each entry at least twice the next) or on polynomial algebras, sharing no
code path with the Milnor-basis engine: products come from the classical
rewriting rule, dimensions from direct enumeration, and the change of
basis from the faithful action on a product of degree-one classes.  The
exceptions are the unpruned Milnor product enumerator, kept as the reference
for the engine's products, the per-pair multiplication block assembled
from it, kept as the reference for the engine's coproduct walk, the
coaction block reader of a comodule, the column-scan row
reduction and the free-column kernel built on it, kept as the references
for the engine's pivot insertion and tagged-column kernels, the
per-bit extended comodule, kept as the reference for the engine's
product-block slices, the eager coproduct, submodule, quotient and
comodule embedding, kept as the references for the engine's lazily sourced
ones, the full-table coproduct of suspended dual regular modules, kept as
the reference for the part-by-part bit-identity check of the embedding,
the per-row block reader and formatter of module files, kept as the
references for the parser's block-at-a-time decode and the printers'
block-at-a-time format, the dense graded hom solver, kept as an
independent count of the extension test's map spaces, the entry-wise
and per-row forms of the three verifiers (module composition,
coassociativity, extension test),
kept as the references for the engine's row-level ones, the term-by-term
Sq(2^k)-multiples of lower relations, kept as the reference for the
extension test's minimal presentation, the free-column kernel of the
packed relation block, kept as the reference for the relations read off
tagged columns, the transpose dual built as a module with transposed matrices,
kept as the reference for the freeness test's mirrored reading, the greedy
finite-subideal search, which no engine path needs, and the Margolis
homology of a finite A(n)-module, kept as an independent freeness
test: it reads only the module's action matrices and ranks them by
column scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Sequence

from steenmod import _f2pure, milnor
from steenmod.annihilator import (HomIdeal, IdealChain, WindowIdeal,
                                  chain_perp_profile, ideal_span)
from steenmod.baer import (EXTENDS_ALL, FAILS, INCONCLUSIVE, BaerVerdict,
                           _generator_relations)
from steenmod.comodule import GradedComodule
from steenmod.f2 import BitMatrix, Subspace, kernel, mask_to_bits
from steenmod.gmodule import (GradedModule, Window, coproduct,
                              dual_regular, zero_module)
from steenmod.milnor import Element

Word = tuple[int, ...]


def binom_odd(n: int, k: int) -> bool:
    if k < 0 or n < 0 or k > n:
        return False
    return (n & k) == k


@lru_cache(maxsize=None)
def admissible_words(d: int) -> tuple[Word, ...]:
    """All admissible words of degree d (entries >= twice the next)."""
    if d == 0:
        return ((),)
    out = []
    for lead in range(1, d + 1):
        for rest in admissible_words(d - lead):
            if not rest or lead >= 2 * rest[0]:
                out.append((lead,) + rest)
    return tuple(sorted(out))


def _first_inadmissible(word: Word) -> int:
    for i in range(len(word) - 1):
        if word[i] < 2 * word[i + 1]:
            return i
    return -1


@lru_cache(maxsize=None)
def straighten(word: Word) -> frozenset[Word]:
    """Rewrite a word of squares into admissible form, mod 2."""
    if 0 in word:
        word = tuple(x for x in word if x)
    i = _first_inadmissible(word)
    if i < 0:
        return frozenset([word])
    a, b = word[i], word[i + 1]
    acc: set[Word] = set()
    for c in range(0, a // 2 + 1):
        if binom_odd(b - c - 1, a - 2 * c):
            mid = (a + b,) if c == 0 else (a + b - c, c)
            acc ^= straighten(word[:i] + mid + word[i + 2:])
    return frozenset(acc)


def adem_product(x: frozenset[Word], y: frozenset[Word]) -> frozenset[Word]:
    acc: set[Word] = set()
    for w1 in x:
        for w2 in y:
            acc ^= straighten(w1 + w2)
    return frozenset(acc)


# -- the unpruned Milnor product ------------------------------------------------


def multinomial_odd(parts: tuple[int, ...]) -> bool:
    """(sum parts)! / prod(parts!) is odd iff the parts are carry-free."""
    total = 0
    xor = 0
    for p in parts:
        total += p
        xor ^= p
    return total == xor


@lru_cache(maxsize=None)
def milnor_product_unpruned(r: tuple[int, ...],
                            s: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Milnor's product formula by brute force: fill every matrix x[i][j]
    with row i >= 1 spending r_i as sum_j 2^j x[i][j] and column j >= 1
    spending s_j as sum_i x[i][j] (row 0 and column 0 hold the leftovers),
    then test each diagonal's multinomial coefficient once the matrix is
    full, and keep the monomials of diagonal sums met an odd number of
    times.  Memoized, as the reference tables and the dense composition
    check ask for the same pairs many times."""
    nr, ns = len(r), len(s)
    x = [[0] * (ns + 1) for _ in range(nr + 1)]
    x[0][1:] = list(s)
    acc: set[tuple[int, ...]] = set()

    def finish() -> None:
        diag = []
        for n in range(1, nr + ns + 1):
            parts = tuple(x[i][n - i]
                          for i in range(max(0, n - ns), min(n, nr) + 1))
            if not multinomial_odd(parts):
                return
            diag.append(sum(parts))
        while diag and diag[-1] == 0:
            diag.pop()
        acc.symmetric_difference_update([tuple(diag)])

    def fill_row(i: int) -> None:
        if i > nr:
            finish()
            return

        def fill_entry(j: int, rem: int) -> None:
            if j > ns:
                x[i][0] = rem
                fill_row(i + 1)
                x[i][0] = 0
                return
            cap = min(rem >> j, x[0][j])
            for v in range(cap + 1):
                x[i][j] = v
                x[0][j] -= v
                fill_entry(j + 1, rem - (v << j))
                x[0][j] += v
            x[i][j] = 0

        fill_entry(1, r[i - 1])

    fill_row(1)
    return frozenset(acc)


def multiplication_block_by_pairs(d1: int, d2: int,
                                  algebra: milnor.Algebra) -> BitMatrix:
    """The multiplication block (d1, d2) assembled one pair at a time from
    ``milnor_product_unpruned``: column i * dim A^d2 + j holds b_i c_j."""
    b1 = algebra.basis(d1)
    b2 = algebra.basis(d2)
    b3 = algebra.basis(d1 + d2)
    index = {seq: i for i, seq in enumerate(b3)}
    cols = []
    for r in b1:
        for s in b2:
            v = 0
            for t in milnor_product_unpruned(r, s):
                v ^= 1 << index[t]
            cols.append(v)
    return BitMatrix.from_columns(cols, len(b3))


def square_rows_by_pairs(n: int, k: int, algebra: milnor.Algebra
                        ) -> tuple[int, ...]:
    """The rows of x -> x * Sq(k) from A^(n-k) into A^n, one pair at a
    time from ``milnor_product_unpruned``: row i holds the coordinates of
    b_i Sq(k) in A^n."""
    index = {seq: i for i, seq in
             enumerate(algebra.basis(n))}
    rows = []
    for r in algebra.basis(n - k):
        v = 0
        for t in milnor_product_unpruned(r, (k,)):
            v ^= 1 << index[t]
        rows.append(v)
    return tuple(rows)


# -- action on polynomials -----------------------------------------------------

Monomial = tuple[int, ...]
Poly = frozenset


def sq_on_monomial(k: int, exps: Monomial) -> set[Monomial]:
    """Total-square component of degree k on a monomial, by the product rule
    and Sq^j x^a = binom(a, j) x^(a+j) in each variable."""
    results: set[Monomial] = set()

    def rec(i: int, rem: int, acc: list[int]) -> None:
        if i == len(exps):
            if rem == 0:
                results.add(tuple(acc))
            return
        a = exps[i]
        for ki in range(0, min(rem, a) + 1):
            if binom_odd(a, ki):
                acc.append(a + ki)
                rec(i + 1, rem - ki, acc)
                acc.pop()

    rec(0, k, [])
    return results


def sq_on_poly(k: int, poly: Poly) -> Poly:
    acc: set[Monomial] = set()
    for m in poly:
        acc ^= sq_on_monomial(k, m)
    return frozenset(acc)


def word_action(word: Word, nvars: int) -> Poly:
    """The word applied to x_1 ... x_n (rightmost square first)."""
    poly: Poly = frozenset([(1,) * nvars])
    for k in reversed(word):
        poly = sq_on_poly(k, poly)
    return poly


def milnor_action(seq: tuple[int, ...], nvars: int) -> Poly:
    """Sq(r_1, ..., r_k) on x_1 ... x_n: the sum of all monomials whose
    exponent multiset has r_j copies of 2^j and ones elsewhere."""
    total = sum(seq)
    if total > nvars:
        return frozenset()
    multiset: list[int] = []
    for j, r in enumerate(seq):
        multiset.extend([1 << (j + 1)] * r)
    multiset.extend([1] * (nvars - total))
    return frozenset(set(permutations(multiset)))


@lru_cache(maxsize=None)
def milnor_to_admissible_table(d: int) -> dict[tuple[int, ...], frozenset[Word]]:
    """Change of basis in degree d via the faithful action on d variables."""
    from steenmod import milnor as M

    words = admissible_words(d)
    polys = [word_action(w, d) for w in words]
    monomials = sorted(set().union(*polys)) if polys else []
    index = {m: i for i, m in enumerate(monomials)}

    def vec(poly: Poly) -> int:
        v = 0
        for m in poly:
            v |= 1 << index[m]
        return v

    cols = [vec(p) for p in polys]
    mat = BitMatrix.from_columns(cols, len(monomials))
    table = {}
    for seq in M.Algebra.full().basis(d):
        target = vec(milnor_action(seq, d))
        x = solve(mat, target)
        assert x is not None, f"action of Sq{seq} not spanned by admissibles"
        table[seq] = frozenset(words[i] for i in range(len(words))
                               if (x >> i) & 1)
    return table


def milnor_set_to_admissible(terms: frozenset, d: int) -> frozenset[Word]:
    table = milnor_to_admissible_table(d)
    acc: set[Word] = set()
    for t in terms:
        acc ^= table[t]
    return frozenset(acc)


# -- left-ideal ranks in the admissible basis ----------------------------------


@lru_cache(maxsize=None)
def generated_ideal_rank(n: int, d: int) -> int:
    """Rank in degree d of the left ideal generated by the squares
    Sq^1, ..., Sq^(2^n), computed entirely in the admissible basis."""
    words = admissible_words(d)
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for j in range(n + 1):
        g = 1 << j
        for w in admissible_words(d - g):
            v = 0
            for t in straighten(w + (g,)):
                v |= 1 << index[t]
            rows.append(v)
    if not rows:
        return 0
    return len(rref_rows(rows, len(words))[1])


def quotient_by_subalgebra_dims(n: int, dmax: int) -> list[int]:
    """Dims of the quotient of the algebra by that left ideal, degree 0..dmax."""
    return [len(admissible_words(d)) - generated_ideal_rank(n, d)
            for d in range(dmax + 1)]


# -- matrix and ideal readers ---------------------------------------------------


def row(m: BitMatrix, i: int) -> int:
    """Row i of m as a mask over its columns."""
    return m.rows[i]


def column(m: BitMatrix, j: int) -> int:
    """Column j of m as a mask over its rows."""
    bit = 1 << j
    out = 0
    for i, r in enumerate(m.rows):
        if r & bit:
            out |= 1 << i
    return out


def entry(m: BitMatrix, i: int, j: int) -> int:
    if not (0 <= i < m.nrows and 0 <= j < m.ncols):
        raise IndexError("entry out of range")
    return (m.rows[i] >> j) & 1


def solve(m: BitMatrix, target: int):
    """Some x with m @ x = target, verified by substitution, or None when
    the system is inconsistent."""
    if target < 0 or target >> m.nrows:
        raise ValueError("target outside row range")
    x = _f2pure.solve(m.rows, m.ncols, target)
    if x is not None and m.apply(x) != target:
        raise AssertionError("backend returned an unverified solution")
    return x


def basis_elements(ideal: WindowIdeal, d: int) -> list[Element]:
    """The basis of an ideal's degree-d space, as algebra elements."""
    return [milnor.element_from_coords(v, d, ideal.algebra)
            for v in ideal.space(d).basis]


def table_source(table):
    """A module source reading an action table keyed by (monomial,
    degree), for handing a table built up front to ``GradedModule``."""
    return lambda seq, d: table[seq, d]


# -- module file blocks --------------------------------------------------------


def text_rows(m: BitMatrix) -> list[str]:
    """The rows of m as '01...' strings, column 0 first, formatted one row
    at a time."""
    if not m.ncols:
        return [""] * m.nrows  # format(0, "00b") would give "0"
    return ["".join(reversed(format(r, f"0{m.ncols}b"))) for r in m.rows]


def blocks_by_rows(text: str) -> dict:
    """Every matrix block of a module or comodule file, decoded one row at
    a time: keyed (monomial, degree) for an action block and (degree, jump)
    for a coaction block.  Blank and comment lines are skipped, so a block
    of width 0 is not read."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    blocks = {}
    seq = None
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.startswith("action Sq("):
            seq = tuple(int(r) for r in line[len("action Sq("):-1].split(",")
                        if r)
            continue
        head, _, shape = line.partition(":")
        if head.startswith("@ "):
            key = (seq, int(head[2:]))
        elif head.startswith("coaction "):
            d, k = head[len("coaction "):].split()
            key = (int(d), int(k))
        else:
            continue
        nrows, ncols = (int(n) for n in shape.split("x"))
        rows = lines[i:i + nrows]
        i += nrows
        blocks[key] = bitmatrix_from_entries(
            [[int(ch) for ch in row] for row in rows], ncols)
    return blocks


# -- tiny hand oracles ----------------------------------------------------------


def bitmatrix_from_entries(entries, ncols=None) -> BitMatrix:
    """A BitMatrix from rows of 0/1 entries, column 0 first; ncols is
    needed only when there are no rows."""
    rows = []
    width = ncols
    for er in entries:
        if width is None:
            width = len(er)
        elif len(er) != width:
            raise ValueError("ragged entry rows")
        rows.append(sum((1 << j) for j, e in enumerate(er) if e & 1))
    return BitMatrix(len(rows), width or 0, rows)


def vstack(mats: Sequence[BitMatrix]) -> BitMatrix:
    """The rows of nonempty mats, of equal widths, stacked in order."""
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise ValueError("column count mismatch in vstack")
    return BitMatrix(sum(m.nrows for m in mats), ncols,
                     [r for m in mats for r in m.rows])


def rref_2x2_hand(m: list[list[int]]) -> list[list[int]]:
    """Reduced echelon form of a 2x2 bit matrix by explicit case analysis."""
    a, b = m[0]
    c, d = m[1]
    rows = []
    if a == 0 and c == 1:
        (a, b), (c, d) = (c, d), (a, b)
    if a == 1:
        if c == 1:
            c, d = 0, d ^ b
        if d == 1:
            b = 0
        rows.append([a, b])
        if d:
            rows.append([0, 1])
    else:
        if b or d:
            rows.append([0, 1])
    return rows


def rref_by_columns(rows, ncols):
    """Reduced row-echelon form by a scan over the columns: for each column
    in turn, the first remaining row with that bit becomes its pivot row
    and is XORed into every other row holding the bit.  Same contract as
    steenmod._f2pure.rref: (reduced rows, pivot columns), zero rows
    dropped, rows ordered by pivot column."""
    rows = list(rows)
    nrows = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        bit = 1 << col
        piv = -1
        for i in range(r, nrows):
            if rows[i] & bit:
                piv = i
                break
        if piv < 0:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rv = rows[r]
        for i in range(nrows):
            if i != r and rows[i] & bit:
                rows[i] ^= rv
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def nullspace_by_columns(rows, ncols):
    """Canonical (rref) basis rows of {v : M @ v = 0} from the free
    columns of ``rref_by_columns``: free column f gives the vector with
    bit f and the pivot bit of every reduced row holding bit f.  Those
    vectors span the kernel but have their lowest bit at a pivot column,
    so a second reduction puts them in canonical form.  Same contract as
    steenmod._f2pure.nullspace."""
    red, pivots = rref_by_columns(rows, ncols)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        fb = 1 << f
        v = fb
        for k, rv in enumerate(red):
            if rv & fb:
                v |= 1 << pivots[k]
        basis.append(v)
    return rref_by_columns(basis, ncols)[0]


# -- eager constructors ---------------------------------------------------------


def coproduct_eager(parts) -> GradedModule:
    """Degreewise direct sum of suspended copies (module, shift), with every
    block of the action table assembled up front from the parts' actions
    and read through ``table_source``."""
    algebra = parts[0][0].algebra
    window = None
    for m, s in parts:
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

    actions = {}
    for k in range(1, window.width + 1):
        for seq in algebra.basis(k):
            for d in window:
                if d + k not in window or not dims[d] or not dims[d + k]:
                    continue
                rows = []
                col_off = 0
                for m, s in parts:
                    mat = m.action(seq, d - s)
                    for r in mat.rows:
                        rows.append(r << col_off)
                    col_off += m.dims[d - s]
                actions[(seq, d)] = BitMatrix(dims[d + k], dims[d], rows)
    return GradedModule(algebra, window, dims, table_source(actions),
                        bottom_exact=edge_exact(True),
                        top_exact=edge_exact(False))


def _full_family(m: GradedModule, spaces) -> dict:
    family = {}
    for d in m.window:
        sp = spaces.get(d)
        if sp is None:
            sp = Subspace.zero(m.dims[d])
        if sp.ambient_dim != m.dims[d]:
            raise ValueError(f"subspace at degree {d} has wrong ambient dimension")
        family[d] = sp
    return family


def submodule_eager(m: GradedModule, spaces) -> GradedModule:
    """The submodule spanned degreewise by invariant subspaces, every block
    built up front while closure is checked, monomial by monomial."""
    w = m.window
    basis = _full_family(m, spaces)
    dims = {d: basis[d].dim for d in w}
    actions = {}
    for k in range(1, w.width + 1):
        for seq in m.algebra.basis(k):
            for d in w:
                if d + k not in w or not dims[d] or not dims.get(d + k):
                    # closure still needs checking when the target space is 0
                    if d + k in w and dims[d]:
                        mat = m.action(seq, d)
                        for v in basis[d].basis:
                            if not basis[d + k].contains(mat.apply(v)):
                                raise ValueError(
                                    f"family not closed: Sq{seq} at degree {d}")
                    continue
                mat = m.action(seq, d)
                cols = []
                for v in basis[d].basis:
                    coords = basis[d + k].coordinates(mat.apply(v))
                    if coords is None:
                        raise ValueError(f"family not closed: Sq{seq} at degree {d}")
                    cols.append(coords)
                actions[(seq, d)] = BitMatrix.from_columns(cols, dims[d + k])
    return GradedModule(m.algebra, w, dims, table_source(actions),
                        m.bottom_exact, m.top_exact)


def quotient_eager(m: GradedModule, spaces) -> GradedModule:
    """The quotient by an invariant family, every block built up front
    while invariance is checked, monomial by monomial."""
    w = m.window
    sub = _full_family(m, spaces)
    # coset coordinates: entries at non-pivot columns after reduction
    free_cols = {}
    for d in w:
        pivots = {(r & -r).bit_length() - 1 for r in sub[d].basis}
        free_cols[d] = [j for j in range(m.dims[d]) if j not in pivots]
    dims = {d: len(free_cols[d]) for d in w}

    def project(d: int, v: int) -> int:
        v = sub[d].reduce(v)
        out = 0
        for idx, j in enumerate(free_cols[d]):
            if (v >> j) & 1:
                out |= 1 << idx
        return out

    actions = {}
    for k in range(1, w.width + 1):
        for seq in m.algebra.basis(k):
            for d in w:
                if d + k not in w:
                    continue
                mat = m.action(seq, d)
                for v in sub[d].basis:
                    if not sub[d + k].contains(mat.apply(v)):
                        raise ValueError(f"family not invariant: Sq{seq} at degree {d}")
                if not dims[d] or not dims[d + k]:
                    continue
                cols = [project(d + k, mat.apply(1 << j)) for j in free_cols[d]]
                actions[(seq, d)] = BitMatrix.from_columns(cols, dims[d + k])
    return GradedModule(m.algebra, w, dims, table_source(actions),
                        m.bottom_exact, m.top_exact)


def transpose_dual(m: GradedModule) -> GradedModule:
    """The transpose dual of m as a module object with its own transposed
    action matrices: degree d holds the dual of M^(-d), b acts by the
    transpose of its action into degree -d, and the exactness flags
    mirror.  It is *not* a left A-module (acting by c and then by b is
    acting by c b), so ``validate`` would reject it."""
    w = Window(-m.window.hi, -m.window.lo)
    dims = {d: m.dims[-d] for d in w}

    def source(seq, d: int) -> BitMatrix:
        return m.action(seq, -d - milnor.degree(seq)).transpose()
    return GradedModule(m.algebra, w, dims, source,
                        bottom_exact=m.top_exact, top_exact=m.bottom_exact)


def generator_relations_by_kernel(gen_coords, e: int,
                                  algebra: milnor.Algebra):
    """``steenmod.baer._generator_relations`` as the kernel of the block
    whose columns are the right multiplications by the generators, packed
    with ``BitMatrix.from_columns`` and reduced by ``nullspace_by_columns``."""
    cols: list[int] = []
    layout: list[tuple[int, int]] = []
    for gi, (gd, gv) in enumerate(gen_coords):
        k = e - gd
        if k < 0:
            continue
        g = milnor.element_from_coords(gv, gd, algebra)
        part = milnor.right_multiplication(g, k, algebra).rows
        cols.extend(part)
        layout.extend((gi, j) for j in range(len(part)))
    if not cols:
        return (), ()
    block = BitMatrix.from_columns(cols, algebra.dim(e))
    return (tuple(nullspace_by_columns(block.rows, block.ncols)),
            tuple(layout))


def coaction_block(c: GradedComodule, d: int, k: int) -> BitMatrix:
    """Coaction block M^d -> M^(d+k) (x) dual^(-k) of a comodule: the
    identity at k = 0, zero where the comodule stores no block (a zero
    dimension at either end, or outside the window), else the stored one."""
    sd = c.dims.get(d, 0) if d in c.window else 0
    if k == 0:
        return BitMatrix.identity(sd)
    td = c.dims.get(d + k, 0) if (d + k) in c.window else 0
    ak = c.algebra.dim(k)
    if not sd or not td or not ak:
        return BitMatrix.zero(td * ak, sd)
    return c.coactions[(d, k)]


def iota_eager(c) -> GradedModule:
    """The adjoint-action module of a comodule, every block sliced up front
    from the coaction blocks, row by row."""
    alg = c.algebra
    w = c.window
    actions = {}
    for k in range(1, w.width + 1):
        basis_k = alg.basis(k)
        ak = len(basis_k)
        if not ak:
            continue
        for d in w:
            if d + k not in w or not c.dims[d] or not c.dims[d + k]:
                continue
            block = coaction_block(c, d, k)
            td = c.dims[d + k]
            for ai, seq in enumerate(basis_k):
                rows = [row(block, mi * ak + ai) for mi in range(td)]
                actions[(seq, d)] = BitMatrix(td, c.dims[d], rows)
    return GradedModule(alg, w, dict(c.dims), table_source(actions),
                        bottom_exact=c.bottom_exact, top_exact=c.top_exact)


def iota_of_extended_reference(v, algebra: milnor.Algebra,
                               window) -> GradedModule:
    """The coproduct of suspended dual regular copies that iota(extended(v))
    must equal, generator-major as in steenmod.comodule.extended: the
    full-table reference for comodule.iota_matches_suspended_duals, which
    compares part by part."""
    gens: list[int] = []
    for g, n in v.v_dims:
        gens.extend([g] * n)
    if not gens:
        return zero_module(algebra, window)
    return coproduct([(dual_regular(algebra, window.shift(-g)), g)
                      for g in gens])


def extended_by_bits(v, algebra: milnor.Algebra, window):
    """The extended comodule V (x) dual built one coaction bit at a time:
    for each source basis pair (generator, s) and jump k, every pair
    (s', b) with s in s' * b is read off a set bit of s's row of the
    multiplication matrix (n - k, k) and toggled in the target row of
    (generator, s') and b.  Same contract as steenmod.comodule.extended."""
    gens: list[int] = []
    for g, n in v.v_dims:
        gens.extend([g] * n)

    def basis_layout(d: int) -> list[tuple[int, int]]:
        # (generator position, algebra basis index) pairs
        out = []
        for gi, g in enumerate(gens):
            k = g - d
            if k < 0:
                continue
            for si in range(algebra.dim(k)):
                out.append((gi, si))
        return out

    layouts = {d: basis_layout(d) for d in window}
    dims = {d: len(layouts[d]) for d in window}
    coactions = {}
    for d in window:
        if not dims[d]:
            continue
        src_index = {pair: i for i, pair in enumerate(layouts[d])}
        for k in range(1, window.hi - d + 1):
            ak = algebra.dim(k)
            if not dims.get(d + k) or not ak:
                continue
            tgt_index = {pair: i for i, pair in enumerate(layouts[d + k])}
            rows = [0] * (dims[d + k] * ak)
            for (gi, si), col in src_index.items():
                n_deg = gens[gi] - d  # degree of the dual monomial split
                if n_deg < k:
                    continue
                mm = milnor.multiplication_matrix(n_deg - k, k, algebra)
                for bit in mask_to_bits(row(mm, si)):
                    sp, bi = divmod(bit, ak)
                    ti = tgt_index[(gi, sp)]
                    rows[ti * ak + bi] ^= 1 << col
            coactions[(d, k)] = BitMatrix(dims[d + k] * ak, dims[d], rows)
    top = algebra.top_degree()
    if gens:
        top_exact = window.hi >= max(gens)
        bottom_exact = top is not None and window.lo <= min(gens) - top
    else:
        top_exact = bottom_exact = True
    return GradedComodule(algebra, window, dims, coactions,
                          bottom_exact=bottom_exact, top_exact=top_exact)


# -- dense graded homs ---------------------------------------------------------


@dataclass
class GradedHom:
    """A degree-shifting graded module map given by per-degree matrices."""

    source: GradedModule
    target: GradedModule
    shift: int
    mats: dict[int, BitMatrix]

    def mat(self, d: int) -> BitMatrix:
        if d in self.mats:
            return self.mats[d]
        sd = self.source.dim(d)
        td = self.target.dim(d + self.shift)
        if sd is None or td is None:
            raise ValueError(f"map not representable at degree {d}")
        return BitMatrix.zero(td, sd)

    def is_equivariant(self) -> bool:
        src, dst, s = self.source, self.target, self.shift
        for k in range(1, src.window.width + 1):
            for seq in src.algebra.basis(k):
                for d in src.window:
                    if d + k not in src.window:
                        continue
                    if (d + s) not in dst.window or (d + k + s) not in dst.window:
                        continue
                    lhs = dst.action(seq, d + s) @ self.mat(d)
                    rhs = self.mat(d + k) @ src.action(seq, d)
                    if lhs != rhs:
                        return False
        return True


def graded_homs(src: GradedModule, dst: GradedModule, shift: int) -> list[GradedHom]:
    """A basis of all shift-graded maps src -> dst, solved as one linear system.

    Unknowns are the entries of every per-degree matrix; equations are the
    equivariance constraints visible on the window overlap.
    """
    if src.algebra != dst.algebra:
        raise ValueError("hom between modules over different algebras")
    degrees = [d for d in src.window
               if src.dims[d] and (d + shift) in dst.window and dst.dims[d + shift]]
    offsets: dict[int, int] = {}
    total = 0
    for d in degrees:
        offsets[d] = total
        total += src.dims[d] * dst.dims[d + shift]
    if total == 0:
        return []

    def var(d: int, i: int, j: int) -> int:
        return offsets[d] + i * src.dims[d] + j

    rows: list[int] = []
    for k in range(1, src.window.width + 1):
        for seq in src.algebra.basis(k):
            for d in src.window:
                if d + k not in src.window:
                    continue
                if (d + shift) not in dst.window or (d + k + shift) not in dst.window:
                    continue
                a_src = src.action(seq, d)
                a_dst = dst.action(seq, d + shift)
                sd, sdk = src.dims[d], src.dims[d + k]
                td, tdk = dst.dims[d + shift], dst.dims[d + k + shift]
                for i in range(tdk):
                    for j in range(sd):
                        row = 0
                        if d in offsets:
                            for t in range(td):
                                if entry(a_dst, i, t):
                                    row ^= 1 << var(d, t, j)
                        if (d + k) in offsets:
                            for t in range(sdk):
                                if entry(a_src, t, j):
                                    row ^= 1 << var(d + k, i, t)
                        if row:
                            rows.append(row)
    sol = kernel(rows, total)
    homs = []
    for v in sol.basis:
        mats = {}
        for d in degrees:
            sd, td = src.dims[d], dst.dims[d + shift]
            mrows = []
            for i in range(td):
                r = 0
                for j in range(sd):
                    if (v >> var(d, i, j)) & 1:
                        r |= 1 << j
                mrows.append(r)
            mats[d] = BitMatrix(td, sd, mrows)
        homs.append(GradedHom(src, dst, shift, mats))
    return homs


# -- verifiers, entry-wise and per row -----------------------------------------


def validate_composition_dense(m: GradedModule) -> list[str]:
    """The composition check with a BitMatrix per product and per sum:
    action(b) @ action(c) against the sum of action(t) over the terms t of
    b * c, taken from ``milnor_product_unpruned``.  Same messages and
    order as GradedModule.validate."""
    m.action_table()
    violations = []
    w = m.window
    for kc in range(1, w.width + 1):
        for kb in range(1, w.width + 1 - kc):
            for b in m.algebra.basis(kb):
                for c in m.algebra.basis(kc):
                    prod = milnor_product_unpruned(b, c)
                    for d in range(w.lo, w.hi + 1 - kb - kc):
                        if not (m.dims[d] and m.dims[d + kb + kc]):
                            continue
                        composite = m.action(b, d + kc) @ m.action(c, d)
                        direct = BitMatrix.zero(m.dims[d + kb + kc], m.dims[d])
                        for t in prod:
                            direct = direct + m.action(t, d)
                        if direct != composite:
                            violations.append(
                                f"action(Sq{b}*Sq{c}) != action(Sq{b})action(Sq{c}) "
                                f"at degree {d}")
    return violations


def validate_coaction_entrywise(c) -> list[str]:
    """Coassociativity violations, column by column: both sides are
    expanded bit by bit into dicts keyed by (m'', b2, b1), the split side
    reading the multiplication matrix one entry at a time.  Same messages
    and order as steenmod.comodule.validate_coaction."""
    violations: list[str] = []
    alg = c.algebra
    w = c.window
    for d in w:
        if not c.dims[d]:
            continue
        for k1 in range(1, w.hi - d + 1):
            a1 = alg.dim(k1)
            if not a1:
                continue
            b1 = coaction_block(c, d, k1)
            for k2 in range(1, w.hi - d - k1 + 1):
                a2 = alg.dim(k2)
                td = c.dims.get(d + k1 + k2, 0)
                if not td or not a2:
                    continue
                b2 = coaction_block(c, d + k1, k2)
                sd = c.dims[d]
                big = coaction_block(c, d, k1 + k2)
                mm = milnor.multiplication_matrix(k2, k1, alg)
                a12 = alg.dim(k1 + k2)
                for col in range(sd):
                    # twice: m -> (m', b1) -> ((m'', b2), b1)
                    lhs: dict[tuple[int, int, int], int] = {}
                    mid = column(b1, col)
                    for r1 in range(c.dims[d + k1] * a1):
                        if not (mid >> r1) & 1:
                            continue
                        mprime, bi1 = divmod(r1, a1)
                        out = column(b2, mprime)
                        for r2 in range(td * a2):
                            if (out >> r2) & 1:
                                m2, bi2 = divmod(r2, a2)
                                key = (m2, bi2, bi1)
                                lhs[key] = lhs.get(key, 0) ^ 1
                    # once + split: m -> (m'', cbig) -> (m'', (b2, b1))
                    rhs: dict[tuple[int, int, int], int] = {}
                    out = column(big, col)
                    for r in range(td * a12):
                        if not (out >> r) & 1:
                            continue
                        m2, ci = divmod(r, a12)
                        # c splits as sum over (x of deg k2, y of deg k1)
                        # with c appearing in x * y
                        for xi in range(a2):
                            for yi in range(a1):
                                if entry(mm, ci, xi * a1 + yi):
                                    key = (m2, xi, yi)
                                    rhs[key] = rhs.get(key, 0) ^ 1
                    lhs = {k: v for k, v in lhs.items() if v}
                    rhs = {k: v for k, v in rhs.items() if v}
                    if lhs != rhs:
                        violations.append(
                            f"coassociativity fails at degree {d}, jumps "
                            f"({k1}, {k2}), column {col}")
    return violations


def rref_rows(rows: Sequence[int], ncols: int) -> tuple[list[int], list[int]]:
    """Backend row reduction on raw int rows: (reduced rows, pivot columns)."""
    return _f2pure.rref(list(rows), ncols)


def decomposable_relations(gen_coords, e: int,
                           algebra: milnor.Algebra) -> list[int]:
    """A spanning set of D_e, the sum over the squares Sq(2^k) of the
    algebra of Sq(2^k) * R_(e - 2^k), in the column layout of
    ``_generator_relations(gen_coords, e, algebra)``.  Each lower relation
    is multiplied term by term with Element products, not read off a
    product block."""
    _, layout = _generator_relations(gen_coords, e, algebra)
    position = {col: p for p, col in enumerate(layout)}
    out = []
    s = 1
    while s <= e and algebra.contains((s,)):
        lower, lower_layout = _generator_relations(gen_coords, e - s, algebra)
        images = []
        for gi, j in lower_layout:
            m = e - s - gen_coords[gi][0]
            prod = Element.sq(s) * Element([algebra.basis(m)[j]])
            images.append(sum(1 << position[(gi, i)] for i in mask_to_bits(
                milnor.coords_of(prod, m + s, algebra))))
        for row in lower:
            v = 0
            for c in mask_to_bits(row):
                v ^= images[c]
            out.append(v)
        s <<= 1
    return out


def baer_test_per_row(ideal, shift: int, target: GradedModule) -> BaerVerdict:
    """The extension test assembling its constraints one output row at a
    time: for each row r of the degree-e target, the relation matrix times
    a fresh matrix of every column's row r, as separate BitMatrix products.
    Same verdict contract as steenmod.baer.baer_test."""
    algebra = target.algebra
    gen_coords = []
    for g in ideal.generators:
        gd = g.degree()
        gen_coords.append((gd, milnor.coords_of(g, gd, algebra)))

    gen_info = []  # (degree, coords, value dim, offset)
    total = 0
    for gd, gv in gen_coords:
        td = target.dim(shift + gd)
        if td is None:
            return BaerVerdict(INCONCLUSIVE, 0, 0, False,
                               f"value degree {shift + gd} leaves the window")
        gen_info.append((gd, gv, td, total))
        total += td

    # restriction space: images of y in C^shift under y -> (g_i y)_i
    if target.dim(shift) is None:
        return BaerVerdict(INCONCLUSIVE, 0, 0, False,
                           "restriction source degree leaves the window")
    blocks = []
    for gd, gv, td, _ in gen_info:
        if td and target.dim(shift):
            elem = milnor.element_from_coords(gv, gd, algebra)
            blocks.append(target.action_of(elem, shift))
        else:
            blocks.append(BitMatrix.zero(td, target.dim(shift)))
    restr = vstack(blocks) if blocks else BitMatrix.zero(0, 0)
    ext_space = Subspace.from_vectors(
        [column(restr, j) for j in range(restr.ncols)], total)

    min_gd = min(gd for gd, _ in gen_coords)
    max_gd = max(gd for gd, _ in gen_coords)
    window_cap = target.window.hi - shift
    alg_top = algebra.top_degree()
    rel_cap = None if alg_top is None else alg_top + max_gd

    complete = True
    # the constraint system is reduced incrementally; its rank determines
    # the surviving map-space dimension without materializing a basis
    pivot_rows: list[int] = []
    ext_dim = ext_space.dim
    e = min_gd
    last = window_cap if rel_cap is None else min(window_cap, rel_cap)
    done_note = None
    while e <= last:
        td_out = target.dim(shift + e)
        if td_out is None:
            complete = False
            e += 1
            continue
        if td_out:
            rel_rows, layout = _generator_relations(tuple(gen_coords), e, algebra)
            if rel_rows:
                # action rows of every needed basis monomial, one lookup each
                acts: dict[tuple[int, int], tuple[int, ...]] = {}
                for gi, (gd, gv, td, off) in enumerate(gen_info):
                    if e - gd < 0:
                        continue
                    for j, seq in enumerate(algebra.basis(e - gd)):
                        acts[(gi, j)] = target.action(seq, shift + gd).rows
                # constraint rows per (relation, output row) as one product:
                # column ci contributes its action row shifted to the
                # generator's coordinate block
                batch: list[int] = []
                for r in range(td_out):
                    per_col = [acts[(gi, j)][r] << gen_info[gi][3]
                               for (gi, j) in layout]
                    prod = BitMatrix(len(rel_rows), len(layout),
                                     list(rel_rows)) @ BitMatrix(
                                         len(per_col), total, per_col)
                    batch.extend(v for v in prod.rows if v)
                pivot_rows, _ = rref_rows(pivot_rows + batch, total)
                if total - len(pivot_rows) == ext_dim:
                    done_note = (f"map space pinned to restrictions by "
                                 f"relations of degree <= {e}")
                    break
        e += 1
    hom_dim = total - len(pivot_rows)
    if done_note is not None:
        return BaerVerdict(EXTENDS_ALL, hom_dim, ext_dim, complete, done_note)
    if rel_cap is not None and rel_cap > window_cap and not target.top_exact:
        complete = False
    if rel_cap is None and not target.top_exact:
        complete = False
    if hom_dim == ext_dim:
        return BaerVerdict(EXTENDS_ALL, hom_dim, ext_dim, complete,
                           "all visible maps are restrictions")
    status = FAILS if complete else INCONCLUSIVE
    witness = None
    if status == FAILS:
        sol = kernel(pivot_rows, total)
        for v in sol.basis:
            if not ext_space.contains(v):
                values = []
                for gd, gv, td, off in gen_info:
                    mask = (v >> off) & ((1 << td) - 1)
                    values.append((gd, shift + gd, mask))
                witness = tuple(values)
                break
    note = ("a visible map admits no extension" if status == FAILS else
            "map space exceeds restrictions but some relations leave the window")
    return BaerVerdict(status, hom_dim, ext_dim, complete, note, witness)


def finite_subideal(ideal: WindowIdeal | HomIdeal, m: GradedModule,
                    degrees: Sequence[int]) -> HomIdeal:
    """A finitely generated subideal with the same perp as `ideal` at `degrees`.

    Greedy accumulation in deterministic order: walk the ideal's degreewise
    basis ascending and keep any generator that strictly shrinks some perp
    degree.  Terminates because the tracked dimensions are finite.
    """
    if isinstance(ideal, HomIdeal):
        span = ideal_span(ideal, m.algebra, Window(0, m.window.width))
    else:
        span = ideal
    degrees = sorted(degrees)
    for d in degrees:
        if m.dim(d) is None:
            raise ValueError(f"degree {d} is not certified in the module window")

    def perp_dims(gens: Sequence[Element]) -> list[int]:
        if not gens:
            return [m.dim(d) for d in degrees]
        prof = chain_perp_profile(IdealChain([HomIdeal(gens)]), m)
        for d in degrees:
            if not prof.certified[d]:
                raise ValueError(f"perp at degree {d} leaves the window")
        return [prof.stages[d][0].dim for d in degrees]

    full_gens: list[Element] = []
    for k in sorted(span.spaces):
        full_gens.extend(basis_elements(span, k))
    target = perp_dims(full_gens)

    chosen: list[Element] = []
    current = perp_dims(chosen)
    for k in sorted(span.spaces):
        if current == target:
            break
        for cand in basis_elements(span, k):
            trial = perp_dims(chosen + [cand])
            if trial != current:
                chosen.append(cand)
                current = trial
                if current == target:
                    break
    if current != target:
        raise AssertionError("greedy subideal search failed to reach the target perp")
    # nothing chosen: every element already has the target perp, and a
    # HomIdeal needs at least one generator
    return HomIdeal(chosen or full_gens[:1])


# -- Margolis homology ------------------------------------------------------------


def margolis_elements(n: int) -> list[tuple[int, ...]]:
    """The P^s_t of A(n) with s < t: Sq(0,...,0,2^s), 2^s in slot t, which
    lies in A(n) iff s + t <= n + 1; each squares to zero."""
    return [(0,) * (t - 1) + (1 << s,)
            for t in range(1, n + 2) for s in range(t) if s + t <= n + 1]


def margolis_homology(m: GradedModule, seq: tuple[int, ...]) -> dict[int, int]:
    """dim H(M; P) = dim ker(P: M^d -> M^(d+k)) - dim im(P: M^(d-k) -> M^d)
    at each degree d where it is nonzero, for P = Sq(seq) of degree k with
    P^2 = 0.  Ranks come from ``rref_by_columns``, not from the engine's
    kernels.  M must be exact at both window edges, so every degree outside
    the window is zero."""
    if not (m.bottom_exact and m.top_exact):
        raise ValueError("Margolis homology needs a module exact at both edges")
    k = sum(r * ((2 << i) - 1) for i, r in enumerate(seq))

    def rank(d: int) -> int:
        # rank of P: M^d -> M^(d+k), zero when either end is zero
        if d not in m.window or d + k not in m.window:
            return 0
        if not (m.dims[d] and m.dims[d + k]):
            return 0
        mat = m.action(seq, d)
        return len(rref_by_columns(mat.rows, mat.ncols)[0])

    out = {}
    for d in m.window:
        h = m.dims[d] - rank(d) - rank(d - k)
        if h:
            out[d] = h
    return out


def margolis_free(m: GradedModule) -> bool:
    """Whether the finite A(n)-module m is free: every H(M; P^s_t) of A(n)
    vanishes (Adams and Margolis, "Modules over the Steenrod algebra",
    Topology 10, 1971)."""
    return not any(margolis_homology(m, p)
                   for p in margolis_elements(m.algebra.profile_index))
