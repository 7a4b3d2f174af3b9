"""Exact rational kernels: matmul, rref (and its integer form
rref_int), rank, det and permanent.

Contract: a matrix is a rectangular list (or tuple) of rows with int or
Fraction entries. Inputs are never mutated. rref, rref_int, rank, det
and permanent take matrices with at least one row and one column;
matmul reads the width of the product from a row of b, so b needs one.
hermk.linalg answers the other shapes. rank returns an int and rref_int
integer rows over a positive int; every other result entry is a
Fraction, and results are exact: the RREF rows are
the unique reduced echelon form, the determinant and the permanent are
the exact values.

Each kernel first clears denominators (_clear): one lcm over the
distinct denominators of the input, and no rescale when that is 1. So
the inner loops run on Python ints. Fraction arithmetic pays a gcd on
every operation; integer arithmetic does not, and the one division by
the common denominator happens when the result is built. A result
matrix gets one Fraction per distinct value (_over): Fractions are
immutable, so equal entries can share one.

Elimination is the one-step fraction-free scheme of Bareiss (Math.
Comp. 22, 1968): every division is exact, so entries stay integral and
grow only as fast as the minors they are. rank and det stop at echelon
form and eliminate below the pivots only; rank builds no Fraction at
all. rref runs the same step on the rows above the pivot too
(fraction-free Gauss-Jordan). That leaves the last pivot d in the pivot
column of every echelon row and zeros elsewhere in the pivot columns,
so the RREF is those rows over d, with no Fraction back-substitution.
rref_int hands out exactly that integer form, with d made positive;
rref is its _over.
"""

from fractions import Fraction
from math import lcm


def _clear(a):
    """Return (integer rows, common denominator den) with a == rows / den;
    den is the least one, the lcm of the distinct entry denominators."""
    # int and Fraction both give (numerator, denominator) in one call
    pairs = [[x.as_integer_ratio() for x in row] for row in a]
    den = lcm(*{d for row in pairs for _, d in row})
    if den == 1:
        return [[n for n, _ in row] for row in pairs], 1
    return [[n * (den // d) for n, d in row] for row in pairs], den


def _over(rows, den):
    """The integer rows over den, as rows of Fractions: one Fraction per
    distinct value."""
    frac = {v: Fraction(v, den) for v in {v for row in rows for v in row}}
    return [list(map(frac.__getitem__, row)) for row in rows]


def matmul(a, b):
    """Exact product of an r x m and an m x c matrix."""
    m, nc = len(b), len(b[0])
    if any(len(row) != m for row in a):
        raise ValueError("matmul shape mismatch")
    ai, da = _clear(a)
    bi, db = _clear(b)
    cols = range(nc)
    out = []
    for arow in ai:
        acc = [0] * nc
        for x, brow in zip(arow, bi):
            if x:
                for j in cols:
                    y = brow[j]
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return _over(out, da * db)


def rref_int(a):
    """Reduced row echelon form in integers.

    Returns (rows, den, pivots): integer rows whose quotients by den > 0
    are the nonzero rows of the unique RREF, and the pivot column
    indices. den is the last pivot of the elimination up to sign, so it
    sits in the pivot column of every row; it need not be the least
    common denominator. len(rows) == len(pivots) == rank.
    """
    rows, _ = _clear(a)  # a common scale does not change the row space
    nr, nc = len(rows), len(rows[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(nc):
        p = next((i for i in range(r, nr) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        piv = prow[c]
        for i in range(nr):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if f:
                rows[i] = [(piv * x - f * y) // prev for x, y in zip(row, prow)]
            elif prev != piv:
                rows[i] = [piv * x // prev for x in row]
        prev = piv
        pivots.append(c)
        r += 1
        if r == nr:
            break
    # every pivot row now carries the last pivot on its diagonal
    rows = rows[:r]
    if prev < 0:
        rows = [[-x for x in row] for row in rows]
        prev = -prev
    return rows, prev, pivots


def rref(a):
    """Reduced row echelon form.

    Returns (rows, pivots): the nonzero rows of the unique RREF and the
    pivot column indices. len(rows) == len(pivots) == rank.
    """
    rows, den, pivots = rref_int(a)
    return _over(rows, den), pivots


def rank(a):
    """Rank, by fraction-free forward elimination to echelon form."""
    rows, _ = _clear(a)
    nr, nc = len(rows), len(rows[0])
    prev = 1
    r = 0
    for c in range(nc):
        p = next((i for i in range(r, nr) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        piv = prow[c]
        for i in range(r + 1, nr):
            row = rows[i]
            f = row[c]
            if f:
                rows[i] = [(piv * x - f * y) // prev for x, y in zip(row, prow)]
            elif prev != piv:
                rows[i] = [piv * x // prev for x in row]
        prev = piv
        r += 1
        if r == nr:
            break
    return r


def det(a):
    """Determinant of a square matrix, fraction-free Bareiss elimination."""
    n = len(a)
    rows, den = _clear(a)
    negate = False
    prev = 1
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            negate = not negate
        prow = rows[c]
        piv = prow[c]
        for i in range(c + 1, n):
            row = rows[i]
            f = row[c]
            rows[i] = [(piv * x - f * y) // prev for x, y in zip(row, prow)]
        prev = piv
    d = Fraction(prev, den**n)
    return -d if negate else d


def permanent(a):
    """Permanent of a small square matrix, Ryser with Gray-code updates."""
    n = len(a)
    rows, den = _clear(a)
    cols = list(zip(*rows))
    total = 0
    sums = [0] * n
    prev = 0
    npar = n & 1
    for g in range(1, 1 << n):
        gray = g ^ (g >> 1)
        bit = gray ^ prev
        col = cols[bit.bit_length() - 1]
        if gray & bit:
            sums = [s + x for s, x in zip(sums, col)]
        else:
            sums = [s - x for s, x in zip(sums, col)]
        prev = gray
        prod = 1
        for s in sums:
            if not s:
                break
            prod *= s
        else:
            if (gray.bit_count() & 1) == npar:
                total += prod
            else:
                total -= prod
    return Fraction(total, den**n)
