"""Fraction-free integer kernels: matmul, rref, rank, det, permanent
and the positive-definiteness test.

Integers in, integers out. A matrix is a rectangular list (or tuple)
of integer rows; the kernels never change an input, its rows
included. hermk.linalg is the only caller: a Mat is its integer form
(its rows over their least common denominator, Mat.int_rows), and
linalg hands each kernel those rows and builds Mats from the integers
that come back without a Fraction. rref, rank, det, permanent and
positive_definite take matrices with at least one row and one column;
matmul reads the width of the product from a row of b, so b needs
one. hermk.linalg answers the other shapes. matmul returns the integer
rows of the product, rref its integer rows over a positive int
denominator plus the pivot columns, rank an int, det and permanent the
int values and positive_definite a bool. Fraction arithmetic pays a
gcd on every operation; integer arithmetic does not. Results are
exact: the RREF rows are the unique reduced echelon form, the
determinant and the permanent are the exact values.

There is one elimination, _bareiss: the one-step fraction-free scheme
of Bareiss (Math. Comp. 22, 1968). Every division is exact, so entries
stay integral and grow only as fast as the minors they are. Its
forward form eliminates below each pivot and stops at echelon form;
rank, det and positive_definite are read from it:
- rank is the number of pivots;
- det is the last pivot, signed by the number of row exchanges, when
  the rank is n, and 0 otherwise;
- with no row exchange, the k-th pivot is the leading (k+1)-minor, so
  Sylvester's criterion reads it off the diagonal.
Its pivot columns are the columns independent of the columns before
them; no caller reads them from the forward form. Its full form runs
the same step on the rows above the pivot too (fraction-free
Gauss-Jordan). That leaves the last pivot d in the pivot
column of every echelon row and zeros elsewhere in the pivot columns,
so the RREF is those rows over d, with no Fraction back-substitution;
rref hands out exactly that, with d made positive. Each kernel that
eliminates works on a fresh list of the input's rows, which _bareiss
exchanges and replaces but never writes into.
"""

from itertools import chain


def matmul(a, b):
    """The integer rows of a @ b, for integer rows a and b, one row of b
    per entry of a row of a. Each row of the product sums the rows of b
    weighted by the nonzero entries of a row of a."""
    nc = len(b[0])
    cols = range(nc)
    out = []
    for arow in a:
        acc = [0] * nc
        for x, brow in zip(arow, b):
            if x:
                for j in cols:
                    y = brow[j]
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def _bareiss(rows, full):
    """Fraction-free elimination of a list of integer rows, in place.

    Forward (full false): each pivot row eliminates the rows below it,
    leaving echelon form. Full: it eliminates the rows above it too,
    leaving every echelon row with the last pivot in its pivot column
    and zeros in the other pivot columns. Returns (r, pivots, swaps,
    prev): the rank, the pivot columns, the number of row exchanges and
    the last pivot (1 when r == 0); rows[:r] are the echelon rows. No
    rows, or rows of width 0, have rank 0.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    swaps = 0
    prev = 1
    r = 0
    for c in range(nc):
        for p in range(r, nr):
            if rows[p][c]:
                break
        else:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            swaps += 1
        prow = rows[r]
        piv = prow[c]
        below = range(r + 1, nr)
        for i in chain(range(r), below) if full else below:
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
    return r, pivots, swaps, prev


def rref(a):
    """Reduced row echelon form of integer rows.

    Returns (rows, den, pivots): integer rows whose quotients by den > 0
    are the nonzero rows of the unique RREF, and the pivot column
    indices. den is the last pivot of the elimination up to sign, so it
    sits in the pivot column of every row; it need not be the least
    common denominator. len(rows) == len(pivots) == rank.
    """
    rows = list(a)
    r, pivots, _, prev = _bareiss(rows, True)
    rows = rows[:r]
    if prev < 0:
        rows = [[-x for x in row] for row in rows]
        prev = -prev
    return rows, prev, pivots


def rank(a):
    """Rank: the number of pivots of the forward elimination."""
    return _bareiss(list(a), False)[0]


def det(a):
    """Determinant of a square integer matrix: with full rank, the last
    pivot of the forward elimination, signed by the row exchanges."""
    r, _, swaps, prev = _bareiss(list(a), False)
    if r < len(a):
        return 0
    return -prev if swaps & 1 else prev


def positive_definite(a):
    """Is the symmetric integer matrix a positive definite? Sylvester's
    criterion: every leading principal minor is positive. When the
    forward elimination reaches full rank with no row exchange, its k-th
    pivot rows[k][k] is the leading (k+1)-minor; a zero leading minor
    forces an exchange or leaves a column without a pivot."""
    rows = list(a)
    r, _, swaps, _ = _bareiss(rows, False)
    return r == len(rows) and not swaps and all(rows[k][k] > 0 for k in range(r))


def permanent(a):
    """Permanent of a small square integer matrix, Ryser with Gray-code
    updates."""
    n = len(a)
    cols = list(zip(*a))
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
    return total
