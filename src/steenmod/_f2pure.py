"""Pure-Python GF(2) kernels.

Rows are Python ints used as bit masks: bit j of a row is the entry in
column j.  All functions are total and deterministic.

- ``insert`` is pivot insertion, the one elimination step every routine
  here and in ``baer`` is built on.
- ``rref`` reduces rows to the canonical reduced echelon form.
- ``column_kernel`` and ``nullspace`` give the canonical kernel basis, of
  a matrix given by its columns or by its rows; ``transpose`` turns one
  into the other.
- ``mul``, ``solve`` and ``apply`` are the product, one solution of a
  linear system, and a matrix times a column vector.
"""

from __future__ import annotations

BACKEND_NAME = "pure"


def insert(table, v):
    """Reduce v against a table of pivot rows keyed by their lowest set bit
    and return the residue; a nonzero residue joins the table under its own
    lowest bit.  The residue is 0 exactly when v lies in the span of the
    table, so len(table) is the rank of the rows inserted so far.

    While the lowest bit of v is a key, XORing that pivot row in clears it
    and moves the lowest bit up, so a residue never has a lower bit than
    the v it came from.
    """
    while v:
        low = v & -v
        p = table.get(low)
        if p is None:
            table[low] = v
            return v
        v ^= p
    return 0


def rref(rows, ncols):
    """Reduced row-echelon form.

    Returns (reduced_rows, pivot_cols).  Zero rows are dropped, so the
    result has exactly rank(rows) rows, ordered by pivot column.  Pivots
    lie below ncols: a row that reduces to bits at or above ncols only
    counts as zero.

    The rows are inserted into one pivot table (``insert``).  Rows keyed
    at or above bit ncols are then left out: they are no pivot rows, and
    as a row reaches such a key only once its own lowest bit is that
    high, they changed no row keyed below ncols.  Those rows are in
    echelon form, and back-substitution in descending pivot order makes
    them reduced: every higher pivot row is already free of the other
    pivot columns, so XORing it in clears exactly its own bit.  Each row
    is touched once per pivot it meets, instead of once per column.
    """
    if not rows:
        return [], []
    table = {}
    for v in rows:
        insert(table, v)
    limit = 1 << ncols
    order = sorted((low for low in table if low < limit), reverse=True)
    pivmask = sum(order)
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


def column_kernel(cols, nrows):
    """Canonical (rref) basis rows of the kernel of the nrows-row matrix
    whose column j is cols[j]: the masks x over columns with
    sum of cols[j] over the set bits j of x = 0.

    Column j is tagged with bit nrows + j and inserted into one pivot
    table.  A row keyed at a tag bit has no bit below nrows left, so its
    tag part is a relation among the columns; its lowest tag bit is the
    column it was keyed by, so these relations are independent, one per
    column that is not a pivot, and span the kernel.  One ``rref`` of them
    gives the canonical basis.
    """
    table = {}
    tag = 1 << nrows
    for v in cols:
        insert(table, v | tag)
        tag <<= 1
    relations = [v >> nrows for low, v in table.items() if low >> nrows]
    return rref(relations, len(cols))[0]


def transpose(masks, n):
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


def nullspace(rows, ncols):
    """Canonical (rref) basis rows of {v : M @ v = 0}."""
    return column_kernel(transpose(rows, ncols), len(rows))


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
