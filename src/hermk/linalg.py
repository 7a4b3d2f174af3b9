"""Exact linear algebra over the rationals.

Matrices are immutable tuples of row tuples with Fraction entries.
Vectors are plain tuples of Fractions. The heavy kernels are delegated
to hermk._qkernels, one fraction-free plain-Python implementation;
this module owns all degenerate shapes (empty rows or columns) so the
kernels can assume nonempty rectangular input. Everything is exact.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Iterable, Sequence

from . import _qkernels

Mat = tuple  # tuple[tuple[Fraction, ...], ...]
Vec = tuple  # tuple[Fraction, ...]

# stamped by verifybench/worker.py; compare.py refuses runs whose stamps differ
BACKEND = "pure"


def q(x) -> Fraction:
    """Coerce an int, string, or Fraction to Fraction. Floats are refused."""
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass Fraction, int, or string")
    return Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(q(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vec(row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def shape(a: Mat) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def zeros(r: int, c: int) -> Mat:
    zero = Fraction(0)
    return tuple(tuple(zero for _ in range(c)) for _ in range(r))


def identity(n: int) -> Mat:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def is_zero(a: Mat) -> bool:
    return all(not x for row in a for x in row)


def add(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ValueError("add shape mismatch")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ValueError("sub shape mismatch")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(a: Mat, s) -> Mat:
    s = q(s)
    return tuple(tuple(s * x for x in row) for row in a)


def matmul(a: Mat, b: Mat) -> Mat:
    ra, ca = shape(a)
    rb, cb = shape(b)
    # An empty matrix cannot carry its other dimension in this
    # representation, so inner-dim consistency is only checkable (and
    # only matters) when both operands are nonempty.
    if ra == 0 or cb == 0 or ca == 0 or rb == 0:
        return zeros(ra, cb)
    if ca != rb:
        raise ValueError(f"matmul shape mismatch: {ra}x{ca} @ {rb}x{cb}")
    return tuple(tuple(row) for row in _qkernels.matmul(a, b))


def matvec(a: Mat, v: Vec) -> Vec:
    # 0-row matrices are () and lose their width; accept any v there
    if not a:
        return ()
    r, c = shape(a)
    if len(v) != c:
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
    ra, ca = shape(a)
    rb, cb = shape(b)
    out = []
    for i in range(ra):
        arow = a[i]
        for k in range(rb):
            brow = b[k]
            out.append(tuple(arow[j] * brow[m] for j in range(ca) for m in range(cb)))
    return tuple(out)


def hstack(*ms: Mat) -> Mat:
    ms = tuple(m for m in ms if shape(m)[1] > 0)
    if not ms:
        return ()
    if len({len(m) for m in ms}) != 1:
        raise ValueError("hstack row mismatch")
    return tuple(tuple(x for m in ms for x in m[i]) for i in range(len(ms[0])))


def vstack(*ms: Mat) -> Mat:
    ms = tuple(m for m in ms if len(m) > 0)
    if not ms:
        return ()
    if len({shape(m)[1] for m in ms}) != 1:
        raise ValueError("vstack column mismatch")
    return tuple(row for m in ms for row in m)


def block_diag(*ms: Mat) -> Mat:
    rs = [shape(m)[0] for m in ms]
    cs = [shape(m)[1] for m in ms]
    out = []
    for i, m in enumerate(ms):
        left = sum(cs[:i])
        right = sum(cs[i + 1:])
        zero = Fraction(0)
        for row in m:
            out.append(tuple([zero] * left) + row + tuple([zero] * right))
    total_c = sum(cs)
    if not out and total_c == 0:
        return ()
    return tuple(out) if out else zeros(0, total_c)


def submatrix(a: Mat, rows: Sequence[int], cols: Sequence[int]) -> Mat:
    return tuple(tuple(a[i][j] for j in cols) for i in rows)


def block_matrix(row_dims: Sequence[int], col_dims: Sequence[int], blocks) -> Mat:
    """Assemble a matrix from blocks without losing degenerate shapes.

    blocks maps (i, j) to a row_dims[i] x col_dims[j] matrix; missing
    entries are zero. Unlike hstack/vstack this keeps explicit widths,
    so zero-dimensional strips are safe.
    """
    zero = Fraction(0)
    total_c = sum(col_dims)
    out = []
    for i, rd in enumerate(row_dims):
        rows = [[zero] * total_c for _ in range(rd)]
        off = 0
        for j, cd in enumerate(col_dims):
            blk = blocks.get((i, j))
            if blk is not None and rd and cd:
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
    return tuple(out)


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Nonzero rows of the unique reduced row echelon form, plus pivot columns."""
    r, c = shape(a)
    if r == 0 or c == 0 or is_zero(a):
        return ((), ())
    rows, pivots = _qkernels.rref(a)
    return tuple(tuple(row) for row in rows), tuple(pivots)


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


def nullspace(a: Mat, width: int | None = None) -> tuple[Vec, ...]:
    """Canonical basis of {v : a v = 0}, one vector per free column.

    Vector for free column f has 1 there, minus the reduced coefficients
    at the pivot columns, 0 at other free columns; ordered by f. width
    recovers the column count when a has no rows.
    """
    r, c = shape(a)
    if r == 0 and width is not None:
        c = width
    if c == 0:
        return ()
    if r == 0:
        return tuple(identity(c))
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
    return tuple(out)


def solve(a: Mat, b: Mat) -> Mat | None:
    """One exact solution x of a x = b (free variables 0), or None.

    b is a matrix of stacked right-hand-side columns; x has the same
    number of columns.
    """
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ra != rb:
        raise ValueError("solve shape mismatch")
    if cb == 0:
        return zeros(ca, 0)
    if ca == 0:
        return None if not is_zero(b) else zeros(0, cb)
    rows, pivots = rref(hstack(a, b))
    if any(p >= ca for p in pivots):
        return None
    zero = Fraction(0)
    x = [[zero] * cb for _ in range(ca)]
    for i, p in enumerate(pivots):
        for j in range(cb):
            x[p][j] = rows[i][ca + j]
    return tuple(tuple(row) for row in x)


def solve_vec(a: Mat, v: Vec) -> Vec | None:
    x = solve(a, tuple((y,) for y in v))
    return None if x is None else tuple(row[0] for row in x)


def canon_span(vectors: Sequence[Vec], width: int | None = None) -> tuple[Vec, ...]:
    """Canonical (RREF) basis of the span of the given row vectors."""
    if not vectors:
        if width is None:
            raise ValueError("canon_span of nothing needs an explicit width")
        return ()
    return rref(mat(vectors))[0]


class EchelonBasis:
    """A subspace of Q^width held as the nonzero rows of its unique
    reduced row echelon form, plus their pivot columns.

    Because every pivot column is zero outside its own row, a vector v
    lies in the span exactly when v - sum_i v[pivots[i]] * rows[i] is
    zero, and the v[pivots[i]] are then its coordinates over rows. So
    membership and coordinates cost one pass over the rows and no
    elimination; add() keeps the form reduced as the span grows.
    """

    __slots__ = ("width", "rows", "pivots")

    def __init__(self, vectors: Sequence[Vec], width: int):
        """Basis of the span of arbitrary vectors: one rref."""
        m = mat(vectors)
        if m and len(m[0]) != width:
            raise ValueError(f"vectors of length {len(m[0])} in a basis of width {width}")
        self.width = width
        self.rows, self.pivots = rref(m)

    @classmethod
    def from_rref(cls, rows: Sequence[Vec], width: int) -> "EchelonBasis":
        """Adopt rows that are already the nonzero rows of an RREF (as
        canon_span returns them) without elimination; the pivots are
        their first nonzero entries. Raises if the rows are not in that
        form."""
        rows = tuple(rows)
        pivots = []
        for row in rows:
            if len(row) != width:
                raise ValueError(f"row of length {len(row)} in a basis of width {width}")
            p = next((i for i, x in enumerate(row) if x), None)
            if p is None or row[p] != 1 or (pivots and p <= pivots[-1]):
                raise ValueError("rows are not in reduced row echelon form")
            pivots.append(p)
        for p in pivots:
            if sum(1 for row in rows if row[p]) != 1:
                raise ValueError("rows are not in reduced row echelon form")
        basis = cls.__new__(cls)
        basis.width, basis.rows, basis.pivots = width, rows, tuple(pivots)
        return basis

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


def span_eq(u: Sequence[Vec], v: Sequence[Vec], width: int) -> bool:
    return canon_span(u, width) == canon_span(v, width)


def span_le(u: Sequence[Vec], v: Sequence[Vec]) -> bool:
    """Is span(u) contained in span(v)?"""
    u = [x for x in u if any(x)]
    if not u:
        return True
    basis = EchelonBasis(v, len(u[0]))
    return all(basis.contains(x) for x in u)
