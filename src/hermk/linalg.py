"""Exact linear algebra over the rationals.

A matrix is a Mat: an immutable tuple of row tuples with Fraction
entries that also knows its column count, so a matrix with no rows or
no columns keeps its exact shape and callers need no special case for
empty matrices. Vectors are plain tuples of Fractions.

Raw input is coerced once: by mat() for a matrix, by stack() for
vectors of a known length, by vec() for one vector. mat() and stack()
hand a Mat back as it is, and every function here builds its results
as Mats directly, so a built matrix is never coerced again.

The heavy kernels are delegated to hermk._qkernels, one fraction-free
plain-Python implementation that needs at least one row; the calls
that could have none (a product with no inner dimension, the rref of a
matrix without a nonzero entry, det and permanent of 0 x 0) are
answered here. Everything is exact.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Iterable, Sequence

from . import _qkernels

Vec = tuple  # tuple[Fraction, ...]

# stamped by verifybench/worker.py; compare.py refuses runs whose stamps differ
BACKEND = "pure"


class Mat(tuple):
    """An r x c matrix: a tuple of r row tuples of Fractions that also
    knows c when r is 0.

    Mat(rows, ncols) adopts a tuple of row tuples as it is, without
    looking at the entries; ncols is read from the rows when there are
    any. mat() is the constructor for raw input. Indexing, iteration,
    == and hash are the tuple's, so two matrices without rows compare
    equal whatever their widths.
    """

    def __new__(cls, rows, ncols: int):
        m = tuple.__new__(cls, rows)
        if not m:
            m._ncols = ncols
        return m

    def __getnewargs__(self):
        return tuple(self), self.ncols

    @property
    def ncols(self) -> int:
        return len(self[0]) if self else self._ncols


def q(x) -> Fraction:
    """Coerce an int, string, or Fraction to Fraction. Floats are refused."""
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass Fraction, int, or string")
    return Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(q(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    """rows as a Mat. A Mat is returned as it is; raw rows are coerced
    entry by entry and must all have one length. Raw input without rows
    has no width to give, so it is 0 x 0."""
    if isinstance(rows, Mat):
        return rows
    out = tuple(vec(row) for row in rows)
    ncols = len(out[0]) if out else 0
    if any(len(row) != ncols for row in out):
        raise ValueError("ragged matrix")
    return Mat(out, ncols)


def stack(vectors: Sequence, width: int) -> Mat:
    """The vectors, all of the given length, as the rows of a Mat of that
    width; unlike mat() this keeps the width when there are no vectors.
    A Mat is taken as it is, raw vectors are coerced."""
    m = vectors if isinstance(vectors, Mat) else Mat(tuple(map(vec, vectors)), width)
    if m.ncols != width or any(len(row) != width for row in m):
        raise ValueError(f"vectors of length other than {width}")
    return m


def shape(a: Mat) -> tuple[int, int]:
    return (len(a), a.ncols)


def zeros(r: int, c: int) -> Mat:
    return Mat(((Fraction(0),) * c,) * r, c)


def identity(n: int) -> Mat:
    one, zero = Fraction(1), Fraction(0)
    return Mat(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), n)


def transpose(a: Mat) -> Mat:
    # zip sees no columns when a has no rows
    return Mat(tuple(zip(*a)) or ((),) * a.ncols, len(a))


def is_zero(a: Mat) -> bool:
    return all(not x for row in a for x in row)


def add(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ValueError("add shape mismatch")
    return Mat(tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)), a.ncols)


def sub(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ValueError("sub shape mismatch")
    return Mat(tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)), a.ncols)


def scale(a: Mat, s) -> Mat:
    s = q(s)
    return Mat(tuple(tuple(s * x for x in row) for row in a), a.ncols)


def matmul(a: Mat, b: Mat) -> Mat:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"matmul shape mismatch: {ra}x{ca} @ {rb}x{cb}")
    if not (ra and rb and cb):
        # no entry, or every entry an empty sum
        return zeros(ra, cb)
    return Mat(tuple(map(tuple, _qkernels.matmul(a, b))), cb)


def matvec(a: Mat, v: Vec) -> Vec:
    if len(v) != a.ncols:
        raise ValueError("matvec shape mismatch")
    return tuple(sum((x * y for x, y in zip(row, v) if x and y), Fraction(0)) for row in a)


def add_vec(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise ValueError("vector lengths differ")
    return tuple(x + y for x, y in zip(u, v))


def scale_vec(v: Vec, s) -> Vec:
    c = q(s)
    return tuple(c * x for x in v)


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dot shape mismatch")
    return sum((x * y for x, y in zip(u, v) if x and y), Fraction(0))


def bilinear(g: Mat, u: Vec, v: Vec) -> Fraction:
    """u^T g v."""
    return dot(u, matvec(g, v))


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product; row/col index = (i_a * rows_b + i_b, ...)."""
    ca, cb = a.ncols, b.ncols
    out = []
    for arow in a:
        for brow in b:
            out.append(tuple(arow[j] * brow[m] for j in range(ca) for m in range(cb)))
    return Mat(tuple(out), ca * cb)


def hstack(*ms: Mat) -> Mat:
    if len({len(m) for m in ms}) != 1:
        raise ValueError("hstack row mismatch")
    return Mat(tuple(sum(rows, ()) for rows in zip(*ms)), sum(m.ncols for m in ms))


def vstack(*ms: Mat) -> Mat:
    if len({m.ncols for m in ms}) != 1:
        raise ValueError("vstack column mismatch")
    return Mat(tuple(row for m in ms for row in m), ms[0].ncols)


def block_diag(*ms: Mat) -> Mat:
    total = sum(m.ncols for m in ms)
    zero = Fraction(0)
    out = []
    left = 0
    for m in ms:
        right = total - left - m.ncols
        out.extend((zero,) * left + row + (zero,) * right for row in m)
        left += m.ncols
    return Mat(tuple(out), total)


def submatrix(a: Mat, rows: Sequence[int], cols: Sequence[int]) -> Mat:
    return Mat(tuple(tuple(a[i][j] for j in cols) for i in rows), len(cols))


def block_matrix(row_dims: Sequence[int], col_dims: Sequence[int], blocks) -> Mat:
    """Assemble a matrix from blocks.

    blocks maps (i, j) to a row_dims[i] x col_dims[j] matrix; missing
    entries are zero.
    """
    zero = Fraction(0)
    total_c = sum(col_dims)
    out = []
    for i, rd in enumerate(row_dims):
        rows = [[zero] * total_c for _ in range(rd)]
        off = 0
        for j, cd in enumerate(col_dims):
            blk = blocks.get((i, j))
            if blk is not None:
                if shape(blk) != (rd, cd):
                    raise ValueError(f"block ({i},{j}) is {shape(blk)}, need {(rd, cd)}")
                for r in range(rd):
                    brow = blk[r]
                    row = rows[r]
                    for c in range(cd):
                        if brow[c]:
                            row[off + c] = brow[c]
            off += cd
        out.extend(tuple(r) for r in rows)
    return Mat(tuple(out), total_c)


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Nonzero rows of the unique reduced row echelon form, as a Mat of
    a's width, plus pivot columns."""
    if is_zero(a):
        return Mat((), a.ncols), ()
    rows, pivots = _qkernels.rref(a)
    return Mat(tuple(map(tuple, rows)), a.ncols), tuple(pivots)


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def det(a: Mat) -> Fraction:
    r, c = shape(a)
    if r != c:
        raise ValueError("det needs a square matrix")
    if r == 0:
        return Fraction(1)
    return Fraction(_qkernels.det(a))


def permanent(a: Mat) -> Fraction:
    r, c = shape(a)
    if r != c:
        raise ValueError("permanent needs a square matrix")
    if r == 0:
        return Fraction(1)
    return Fraction(_qkernels.permanent(a))


def nullspace(a: Mat) -> Mat:
    """Canonical basis of {v : a v = 0}, as the rows of a Mat of a's
    width, one row per free column.

    The row for free column f has 1 there, minus the reduced
    coefficients at the pivot columns, 0 at other free columns; ordered
    by f.
    """
    c = a.ncols
    rows, pivots = rref(a)
    pivset = set(pivots)
    out = []
    zero, one = Fraction(0), Fraction(1)
    for f in range(c):
        if f in pivset:
            continue
        v = [zero] * c
        v[f] = one
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        out.append(tuple(v))
    return Mat(tuple(out), c)


def solve(a: Mat, b: Mat) -> Mat | None:
    """One exact solution x of a x = b (free variables 0), or None.

    b is a matrix of stacked right-hand-side columns; x has the same
    number of columns.
    """
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ra != rb:
        raise ValueError("solve shape mismatch")
    if not cb:
        # no right-hand side: the empty x solves it, whatever a is
        return zeros(ca, 0)
    rows, pivots = rref(hstack(a, b))
    if any(p >= ca for p in pivots):
        return None
    zero = Fraction(0)
    x = [[zero] * cb for _ in range(ca)]
    for i, p in enumerate(pivots):
        for j in range(cb):
            x[p][j] = rows[i][ca + j]
    return Mat(tuple(map(tuple, x)), cb)


def solve_vec(a: Mat, v: Vec) -> Vec | None:
    x = solve(a, Mat(tuple((y,) for y in v), 1))
    return None if x is None else tuple(row[0] for row in x)


def is_exact(*mats: Mat) -> bool:
    """Is the chain exact at every inner space?

    mats[i] maps space i to space i + 1 (its columns are the images),
    so the chain is exact at space i + 1 exactly when mats[i + 1] @
    mats[i] is zero and the ranks of the two add up to the dimension of
    that space. A zeros(d, 0) in front makes the check cover
    injectivity, a zeros(0, d) at the back surjectivity; neither costs
    any arithmetic.
    """
    return exactness_defect(*mats) is None


def exactness_defect(*mats: Mat) -> tuple[int, str] | None:
    """Where is_exact fails: (i, "product") for the first space i at
    which mats[i] @ mats[i - 1] is not zero, else (i, "ranks") for the
    first space i at which the ranks of those two do not add up to its
    dimension; None when the chain is exact."""
    # every product is formed, so a chain of the wrong shape always raises
    zero = [is_zero(matmul(g, f)) for f, g in zip(mats, mats[1:])]
    if not all(zero):
        return zero.index(False) + 1, "product"
    ranks = [rank(m) for m in mats]
    bad = [i for i, (f, r, s) in enumerate(zip(mats, ranks, ranks[1:]), 1) if r + s != len(f)]
    return (bad[0], "ranks") if bad else None


class EchelonBasis:
    """A subspace of Q^width held as the nonzero rows of its unique
    reduced row echelon form, plus their pivot columns.

    Because every pivot column is zero outside its own row, a vector v
    lies in the span exactly when v - sum_i v[pivots[i]] * rows[i] is
    zero, and the v[pivots[i]] are then its coordinates over rows. So
    membership and coordinates cost one pass over the rows and no
    elimination; add() keeps the form reduced as the span grows.

    This is the one representation of a canonical span: equal spans
    have equal rows, so a span is built once and passed along, and
    callers that need the basis as a matrix read rows.
    """

    __slots__ = ("width", "rows", "pivots")

    def __init__(self, vectors: Sequence[Vec], width: int):
        """Basis of the span of arbitrary vectors: one rref."""
        self.width = width
        self.rows, self.pivots = rref(stack(vectors, width))

    def reduce(self, v: Vec) -> Vec:
        """v minus sum_i v[pivots[i]] * rows[i]: zero at every pivot, and
        zero everywhere exactly when v is in the span."""
        if len(v) != self.width:
            raise ValueError(f"vector of length {len(v)} against a basis of width {self.width}")
        out = list(v)
        for row, p in zip(self.rows, self.pivots):
            c = out[p]
            if c:
                # entries left of the pivot are zero in an echelon row
                for i in range(p, self.width):
                    if row[i]:
                        out[i] -= c * row[i]
        return tuple(out)

    def contains(self, v: Vec) -> bool:
        return not any(self.reduce(v))

    def coords(self, v: Vec) -> Vec:
        """Coefficients of v over rows; ValueError when v is not in the span."""
        if not self.contains(v):
            raise ValueError("vector is not in the span")
        return tuple(Fraction(v[p]) for p in self.pivots)

    def add(self, v: Vec) -> bool:
        """Grow the span by v. Returns whether it grew; when it did not,
        nothing changes."""
        r = self.reduce(v)
        p = next((i for i, x in enumerate(r) if x), None)
        if p is None:
            return False
        inv = 1 / Fraction(r[p])
        new = tuple(x * inv for x in r)
        # clear the new pivot column from the existing rows
        rows = []
        for row in self.rows:
            c = row[p]
            rows.append(tuple(x - c * y for x, y in zip(row, new)) if c else row)
        k = bisect.bisect(self.pivots, p)
        rows.insert(k, new)
        self.rows = tuple(rows)
        self.pivots = self.pivots[:k] + (p,) + self.pivots[k:]
        return True


def in_span(vectors: Sequence[Vec], v: Vec) -> bool:
    """Is v in the span of the given row vectors?"""
    if not any(v):
        return True
    return EchelonBasis(vectors, len(v)).contains(v)
