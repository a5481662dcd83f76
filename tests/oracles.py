"""Independent oracles for the test suite.

Almost everything here works in the admissible basis (words of squares with
each entry at least twice the next) or on polynomial algebras, sharing no
code path with the Milnor-basis engine: products come from the classical
rewriting rule, dimensions from direct enumeration, and the change of
basis from the faithful action on a product of degree-one classes.  The
exceptions are the unpruned Milnor product enumerator, kept as the reference
for the engine's pruned one, and the eager coproduct, kept as the reference
for the engine's lazily assembled one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from steenmod.f2 import BitMatrix, solve
from steenmod.gmodule import GradedModule

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


def milnor_product_unpruned(r: tuple[int, ...],
                            s: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Milnor's product formula by brute force: fill every matrix x[i][j]
    with row i >= 1 spending r_i as sum_j 2^j x[i][j] and column j >= 1
    spending s_j as sum_i x[i][j] (row 0 and column 0 hold the leftovers),
    then test each diagonal's multinomial coefficient once the matrix is
    full, and keep the monomials of diagonal sums met an odd number of
    times."""
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
    for seq in M.basis_in_degree(d, M.Algebra.full()):
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
    return BitMatrix(len(rows), len(words), rows).rank()


def quotient_by_subalgebra_dims(n: int, dmax: int) -> list[int]:
    """Dims of the quotient of the algebra by that left ideal, degree 0..dmax."""
    return [len(admissible_words(d)) - generated_ideal_rank(n, d)
            for d in range(dmax + 1)]


# -- tiny hand oracles ----------------------------------------------------------


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


# -- eager coproduct ------------------------------------------------------------


def coproduct_eager(parts) -> GradedModule:
    """Degreewise direct sum of suspended copies (module, shift), with every
    block of the action table assembled up front from the parts' actions
    and handed over as an explicit table."""
    algebra = parts[0][0].algebra
    opposite = parts[0][0].opposite
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
    return GradedModule(algebra, window, dims, actions,
                        bottom_exact=edge_exact(True),
                        top_exact=edge_exact(False), opposite=opposite)
