"""Pure-Python GF(2) kernels.

Rows are Python ints used as bit masks: bit j of a row is the entry in
column j.  All functions are total and deterministic.
"""

from __future__ import annotations

BACKEND_NAME = "pure"


def rref(rows, ncols):
    """Reduced row-echelon form.

    Returns (reduced_rows, pivot_cols).  Zero rows are dropped, so the
    result has exactly rank(rows) rows, ordered by pivot column.  Pivots
    lie below ncols: a row that reduces to bits at or above ncols only
    counts as zero.

    Elimination is by pivot insertion.  Each row in turn is reduced against
    a table of pivot rows keyed by their lowest set bit: while its lowest
    bit is a key, XOR that pivot row in, which moves the lowest bit up.  A
    row left nonzero joins the table under its new lowest bit.  The table
    is then in echelon form, and back-substitution in descending pivot
    order makes it reduced: every higher pivot row is already free of the
    other pivot columns, so XORing it in clears exactly its own bit.  Each
    row is touched once per pivot it meets, instead of once per column.
    """
    if not rows:
        return [], []
    limit = 1 << ncols
    table = {}
    for v in rows:
        while v:
            low = v & -v
            p = table.get(low)
            if p is None:
                if low < limit:
                    table[low] = v
                break
            v ^= p
    pivmask = 0
    for low in table:
        pivmask |= low
    order = sorted(table, reverse=True)
    for low in order:
        v = table[low]
        m = (v & pivmask) ^ low
        while m:
            b = m & -m
            v ^= table[b]
            m ^= b
        table[low] = v
    order.reverse()
    return [table[b] for b in order], [b.bit_length() - 1 for b in order]


def mul(a_rows, b_rows):
    """Rows of the product A @ B; bit j of an A-row selects row j of B."""
    out = []
    for v in a_rows:
        acc = 0
        while v:
            j = (v & -v).bit_length() - 1
            acc ^= b_rows[j]
            v &= v - 1
        out.append(acc)
    return out


def nullspace(rows, ncols):
    """Canonical (rref) basis rows of {v : M @ v = 0}."""
    red, pivots = rref(rows, ncols)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = 1 << f
        fb = 1 << f
        for k, rv in enumerate(red):
            if rv & fb:
                v |= 1 << pivots[k]
        basis.append(v)
    return rref(basis, ncols)[0]


def solve(rows, ncols, target):
    """Some x with M @ x = target (bit i of target = row i), else None."""
    aug = []
    tbit = 1 << ncols
    for i, rv in enumerate(rows):
        if (target >> i) & 1:
            rv |= tbit
        aug.append(rv)
    red, pivots = rref(aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = 0
    for k, col in enumerate(pivots):
        if red[k] & tbit:
            x |= 1 << col
    return x


def apply(rows, v):
    """M @ v for a column vector v given as a bit mask over columns."""
    out = 0
    for i, rv in enumerate(rows):
        if (rv & v).bit_count() & 1:
            out |= 1 << i
    return out
