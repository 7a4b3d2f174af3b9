"""Exact rational kernels: matmul, rref, rank, det and permanent.

Integers in, integers out. A matrix is a rectangular list (or tuple) of
rows with int or Fraction entries; the entries of an input are never
changed, and a hermk.linalg.Mat input may gain its integer form
(below). rref, rank, det and permanent take matrices with at least one
row and one column; matmul reads the width of the product from a row
of b, so b needs one. hermk.linalg answers the other shapes. matmul
returns integer rows over a positive int denominator, rref the same
plus the pivot columns, and rank an int; hermk.linalg turns integer
rows into a Mat (linalg._int_mat). det and permanent return a scalar,
which is the only Fraction a kernel builds. Results are exact: the
RREF rows are the unique reduced echelon form, the determinant and the
permanent are the exact values.

Each kernel first clears denominators (_clear), so the inner loops run
on Python ints. Fraction arithmetic pays a gcd on every operation;
integer arithmetic does not. _clear is the one place where a matrix of
Fractions becomes integers: its integer form is the integer rows over
the least common denominator, the lcm of the distinct entry
denominators. A Mat keeps that form as its _form once it is computed,
so no Mat is cleared twice, and the Mats hermk.linalg builds from a
kernel's integers carry theirs from the start. A form is two nested
tuples and an int, and _clear hands out its rows in a fresh list, so
_bareiss can exchange and replace rows without touching the form.

There is one elimination, _bareiss: the one-step fraction-free scheme
of Bareiss (Math. Comp. 22, 1968). Every division is exact, so entries
stay integral and grow only as fast as the minors they are. Its
forward form eliminates below each pivot and stops at echelon form;
the rank, the determinant and the positive-definiteness test of
hermk.core are read from it:
- rank is the number of pivots;
- det is the last pivot, signed by the number of row exchanges, over
  den^n when the rank is n, and 0 otherwise;
- with no row exchange, the k-th pivot is the leading (k+1)-minor, so
  Sylvester's criterion reads it off the diagonal.
Its pivot columns are the columns independent of the columns before
them; no caller reads them from the forward form. Its full form runs
the same step on the rows above the pivot too (fraction-free
Gauss-Jordan). That leaves the last pivot d in the pivot
column of every echelon row and zeros elsewhere in the pivot columns,
so the RREF is those rows over d, with no Fraction back-substitution;
rref hands out exactly that, with d made positive.
"""

from fractions import Fraction
from itertools import chain
from math import lcm


def _clear(a):
    """Return (rows, den) with a == rows / den: integer row tuples in a
    fresh list, over the least common denominator den (the lcm of the
    distinct entry denominators).

    A matrix that takes attributes (a linalg.Mat) keeps the pair as its
    _form, so it is cleared once and every later call reads _form. A
    transpose of a Mat that had a form carries that form as _tform and
    gets its own by transposing those integers. Lists and tuples of rows
    are cleared on every call.
    """
    form = getattr(a, "_form", None)
    if form is None:
        tform = getattr(a, "_tform", None)
        if tform is not None:
            form = tuple(zip(*tform[0])), tform[1]
        else:
            # int and Fraction both give (numerator, denominator) in one call
            pairs = [[x.as_integer_ratio() for x in row] for row in a]
            den = lcm(*{d for row in pairs for _, d in row})
            if den == 1:
                form = tuple([tuple([n for n, _ in row]) for row in pairs]), 1
            else:
                form = tuple([tuple([n * (den // d) for n, d in row]) for row in pairs]), den
        try:
            a._form = form
        except AttributeError:
            pass
    rows, den = form
    return list(rows), den


def matmul(a, b):
    """Exact product of an r x m and an m x c matrix, as (rows, den):
    integer rows whose quotients by den > 0 are the product's rows. den
    is the product of the factors' denominators; it need not be the
    least one."""
    m, nc = len(b), len(b[0])
    if any(len(row) != m for row in a):
        raise ValueError("matmul shape mismatch")
    ai, da = _clear(a)
    bi, db = _clear(b)
    return _matmul_int(ai, bi, nc), da * db


def _matmul_int(ai, bi, nc):
    """The integer rows of ai @ bi, for integer rows ai and integer rows
    bi of width nc, one per entry of a row of ai. Each row of the
    product sums the rows of bi weighted by the nonzero entries of a row
    of ai."""
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
    """Reduced row echelon form in integers.

    Returns (rows, den, pivots): integer rows whose quotients by den > 0
    are the nonzero rows of the unique RREF, and the pivot column
    indices. den is the last pivot of the elimination up to sign, so it
    sits in the pivot column of every row; it need not be the least
    common denominator. len(rows) == len(pivots) == rank.
    """
    rows, _ = _clear(a)  # a common scale does not change the row space
    r, pivots, _, prev = _bareiss(rows, True)
    rows = rows[:r]
    if prev < 0:
        rows = [[-x for x in row] for row in rows]
        prev = -prev
    return rows, prev, pivots


def rank(a):
    """Rank: the number of pivots of the forward elimination."""
    return _bareiss(_clear(a)[0], False)[0]


def det(a):
    """Determinant of a square matrix: with full rank, the last pivot of
    the forward elimination, signed by the row exchanges, over den^n."""
    n = len(a)
    rows, den = _clear(a)
    r, _, swaps, prev = _bareiss(rows, False)
    if r < n:
        return Fraction(0)
    d = Fraction(prev, den**n)
    return -d if swaps & 1 else d


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
