"""Exact linear algebra over the rationals.

A matrix is a Mat, and a Mat is its integer form: its rows as integers
over the least common denominator of its entries, plus its column
count, so a matrix with no rows or no columns keeps its exact shape
and callers need no special case for empty matrices. Read as a
sequence, a Mat is a tuple of row tuples of Fractions; those are built
from the form where an entry is first read, and nowhere else. Vectors
are plain tuples of Fractions.

Raw input is coerced once: by mat() for a matrix, by stack() for
vectors of a known length, by vec() for one vector. mat() and stack()
hand a Mat back as it is and end in Mat(rows, ncols), the one
conversion of a matrix from Fractions to integers. _int_mat, the one
builder of a Mat from integer rows over a denominator, divides them
down to the least denominator (_least) and builds no Fraction. Every
function here works on the forms and builds its results through
_int_mat: products, sums, scalings, transposes, Kronecker products,
submatrices, column reads, block layouts, RREFs, kernel bases,
solutions, the identity, and the rows, reductions and coordinates of
an EchelonBasis; outside this module only hermk.multilinear does, for
its power Grams and the maps word_map builds. This module is the only
one that writes a Mat's form.

A Mat is never written into, so zeros(r, c) and identity(n) are one
shared Mat per shape, and _int_mat hands back zeros(r, c) for every
result with no rows or no columns: a shape-only result costs no
arithmetic, and no caller a special case.

The heavy kernels are delegated to hermk._qkernels, one fraction-free
plain-Python implementation on integers, and this module is its only
caller: it hands them the forms. The kernels need at least one row;
the calls that could have none (a product with no inner dimension, the
rref and rank of a matrix without a nonzero entry, det, permanent and
the PD test of 0 x 0) are answered here. Everything is exact.

EchelonBasis, the span type, is its RREF rows, one Mat, plus their
pivot columns. Membership, reduction and coordinates take vectors as
the rows of a Mat, and the last two return a Mat; they and growth run
on the integer forms and build no Fraction. Entries must be int or
Fraction; floats raise TypeError, as they do in q() and Mat(). One
loop, _kernel_int, reads kernel vectors off an integer RREF:
EchelonBasis.kernel takes them as an echelon basis, and nullspace, for
callers that need the canonical basis as a matrix, through _int_mat.

block_matrix is the one block assembler: direct sums and their
injections, [a | b] layouts and the matching maps of direct-sum cubes
all build through it, over the lcm of the blocks' denominators.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

from . import _qkernels

Vec = tuple  # tuple[Fraction, ...]

# stamped by verifybench/worker.py; compare.py refuses runs whose stamps differ
BACKEND = "pure"


class Mat:
    """An r x c rational matrix, held as its integer form: int_rows, r
    row tuples of c ints, over den > 0, the least common denominator of
    the entries, so that the matrix is int_rows / den; and ncols, c,
    which stays known when r is 0.

    Mat(rows, ncols) computes the form of rows of ints or Fractions (a
    float raises TypeError); it is the one conversion of a matrix from
    Fractions to integers, and ncols is read from the rows when there
    are any. mat() is the constructor for raw input, _int_mat the
    builder from integers. The form is unique, so == between Mats
    compares forms; against a tuple it compares the rows. Two matrices
    without rows are equal whatever their widths: both forms are
    ((), 1).

    Read as a sequence, by index or iteration, a Mat is a tuple of row
    tuples of Fractions. That view is built from the form on the first
    read and then kept; hash and repr are the view's. len and truth
    count the rows and build nothing. Nothing writes into a form, and
    pickles and copies carry it. zeros(r, c) and identity(n) are one
    shared Mat per shape, as is every Mat with no rows or no columns
    that _int_mat builds, pickles and copies included.
    """

    __slots__ = ("int_rows", "den", "ncols", "_rows")

    def __init__(self, rows, ncols: int):
        if float in {type(x) for row in rows for x in row}:
            raise TypeError("floats are not exact; pass Fraction or int")
        # int and Fraction both give (numerator, denominator) in one call
        pairs = [[x.as_integer_ratio() for x in row] for row in rows]
        den = lcm(*{d for row in pairs for _, d in row})
        if den == 1:
            self.int_rows = tuple([tuple([n for n, _ in row]) for row in pairs])
        else:
            self.int_rows = tuple([tuple([n * (den // d) for n, d in row]) for row in pairs])
        self.den = den
        self.ncols = len(pairs[0]) if pairs else ncols
        self._rows = None

    def _view(self) -> tuple:
        """The rows as tuples of Fractions, built on the first read."""
        rows = self._rows
        if rows is None:
            frac = _Fractions(self.den).__getitem__
            rows = self._rows = tuple([tuple(map(frac, row)) for row in self.int_rows])
        return rows

    def __getitem__(self, i):
        return self._view()[i]

    def __iter__(self):
        return iter(self._view())

    def __len__(self) -> int:
        return len(self.int_rows)

    def __eq__(self, other):
        if isinstance(other, Mat):
            return self.den == other.den and self.int_rows == other.int_rows
        if isinstance(other, tuple):
            return self._view() == other
        return NotImplemented

    def __hash__(self):
        return hash(self._view())

    def __repr__(self) -> str:
        return repr(self._view())

    def __reduce__(self):
        return _int_mat, (self.int_rows, self.den, self.ncols)


_ZERO = Fraction(0)


class _Fractions(dict):
    """int v -> Fraction(v, den), each built on its first lookup: one
    Fraction per distinct value, and the shared _ZERO for 0."""

    def __init__(self, den):
        super().__init__(((0, _ZERO),))
        self.den = den

    def __missing__(self, v):
        f = self[v] = Fraction(v, self.den)
        return f


def _least(rows, den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows over den > 0 as (row tuples, den) over the least
    common denominator: both divided by the factor common to den and
    every entry. This is the form Mat gives rows / den."""
    g = gcd(den, *chain.from_iterable(rows)) if den != 1 else 1
    if g == 1:
        return tuple(map(tuple, rows)), den
    return tuple([tuple([x // g for x in row]) for row in rows]), den // g


def _int_mat(rows, den: int, ncols: int) -> Mat:
    """The Mat rows / den of width ncols, for integer rows over den > 0,
    with the form _least(rows, den). It builds no Fraction. A result
    with no rows or no columns is the shared zeros(len(rows), ncols)."""
    if not (rows and ncols):
        return zeros(len(rows), ncols)
    m = object.__new__(Mat)
    m.int_rows, m.den = _least(rows, den)
    m.ncols = ncols
    m._rows = None
    return m


def q(x) -> Fraction:
    """Coerce an int, string, or Fraction to Fraction. Floats are refused.
    A Fraction is immutable, so it is returned as it is."""
    if type(x) is Fraction:
        return x
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
    # a Mat's rows all have its ncols entries; raw rows need not
    if m.ncols != width or (m is not vectors and any(len(row) != width for row in m.int_rows)):
        raise ValueError(f"vectors of length other than {width}")
    return m


def shape(a: Mat) -> tuple[int, int]:
    return (len(a.int_rows), a.ncols)


# the shared zeros(r, c) and identity(n), by shape
_ZEROS: dict[tuple[int, int], Mat] = {}
_IDENTITIES: dict[int, Mat] = {}


def zeros(r: int, c: int) -> Mat:
    """The r x c zero matrix, one shared Mat per shape."""
    m = _ZEROS.get((r, c))
    if m is None:
        m = _ZEROS[r, c] = object.__new__(Mat)
        m.int_rows, m.den, m.ncols, m._rows = ((0,) * c,) * r, 1, c, None
    return m


def identity(n: int) -> Mat:
    """The n x n identity, one shared Mat per size."""
    m = _IDENTITIES.get(n)
    if m is None:
        m = _IDENTITIES[n] = _int_mat([(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)], 1, n)
    return m


def transpose(a: Mat) -> Mat:
    # zip sees no columns when a has no rows
    return _int_mat(tuple(zip(*a.int_rows)) or ((),) * a.ncols, a.den, len(a.int_rows))


def is_zero(a: Mat) -> bool:
    return not any(map(any, a.int_rows))


def add(a: Mat, b: Mat) -> Mat:
    """a + b, over the lcm of their dens."""
    if shape(a) != shape(b):
        raise ValueError("add shape mismatch")
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    rows = [[sa * x + sb * y for x, y in zip(ra, rb)] for ra, rb in zip(a.int_rows, b.int_rows)]
    return _int_mat(rows, den, a.ncols)


def scale(a: Mat, s) -> Mat:
    """s * a, in integers: a's integer form times s's numerator, over
    its den times s's denominator, built by _int_mat. s = 1 gives a."""
    s = q(s)
    n, d = s.numerator, s.denominator
    if n == d:
        return a
    return _int_mat([[n * x for x in row] for row in a.int_rows], a.den * d, a.ncols)


def is_permuted(a: Mat, b: Mat, rows: Sequence[int], cols: Sequence[int]) -> bool:
    """Is a[i][j] == b[rows[i]][cols[j]] for every i, j, for rows and
    cols permutations of b's row and column indices? Decided on the
    integer forms: permuting b keeps its least denominator."""
    if a.den != b.den:
        return False
    bi = b.int_rows
    return all(ra == tuple([rb[j] for j in cols]) for ra, rb in zip(a.int_rows, [bi[i] for i in rows]))


def matmul(a: Mat, b: Mat) -> Mat:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"matmul shape mismatch: {ra}x{ca} @ {rb}x{cb}")
    if not (ra and rb and cb):
        # no entry, or every entry an empty sum
        return zeros(ra, cb)
    return _int_mat(_qkernels.matmul(a.int_rows, b.int_rows), a.den * b.den, cb)


def matvec(a: Mat, v: Vec) -> Vec:
    if len(v) != a.ncols:
        raise ValueError("matvec shape mismatch")
    return tuple(sum((x * y for x, y in zip(row, v) if x and y), _ZERO) for row in a)


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
    return sum((x * y for x, y in zip(u, v) if x and y), _ZERO)


def bilinear(g: Mat, u: Vec, v: Vec) -> Fraction:
    """u^T g v."""
    return dot(u, matvec(g, v))


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product: entry (i_a * rows_b + i_b, j_a * cols_b + j_b)
    is a[i_a][j_a] * b[i_b][j_b], taken in integers over a.den * b.den.
    A zero entry of a contributes one shared block of zeros instead of
    a row of b's worth of products."""
    cb = b.ncols
    zero = (0,) * cb
    out = []
    for arow in a.int_rows:
        for brow in b.int_rows:
            row = []
            for x in arow:
                if x:
                    row.extend([x * y for y in brow])
                else:
                    row.extend(zero)
            out.append(row)
    return _int_mat(out, a.den * b.den, a.ncols * cb)


def submatrix(a: Mat, rows: Sequence[int], cols: Sequence[int]) -> Mat:
    src = a.int_rows
    return _int_mat([[src[i][j] for j in cols] for i in rows], a.den, len(cols))


def columns(a: Mat, cols: Sequence[int]) -> Mat:
    """The columns cols of a as the rows of a Mat of width len(a):
    transpose(submatrix(a, range(len(a)), cols)), in one pass."""
    src = a.int_rows
    return _int_mat([[row[j] for row in src] for j in cols], a.den, len(src))


def block_matrix(row_dims: Sequence[int], col_dims: Sequence[int], blocks) -> Mat:
    """Assemble a matrix from blocks; the one block assembler.

    blocks maps (i, j), a cell of the grid, to a row_dims[i] x
    col_dims[j] matrix; missing cells are zero, and a key outside the
    grid or a block of another shape raises ValueError. The blocks are
    brought to the lcm of their dens, and each block row is copied in
    as one slice; a layout with no rows or no columns is zeros.
    """
    for (i, j), blk in blocks.items():
        if not (0 <= i < len(row_dims) and 0 <= j < len(col_dims)):
            raise ValueError(f"block {(i, j)} lies outside the {len(row_dims)} x {len(col_dims)} grid")
        if shape(blk) != (row_dims[i], col_dims[j]):
            raise ValueError(f"block ({i},{j}) is {shape(blk)}, need {(row_dims[i], col_dims[j])}")
    total_r, total_c = sum(row_dims), sum(col_dims)
    if not (total_r and total_c):
        return zeros(total_r, total_c)
    den = lcm(*(blk.den for blk in blocks.values()))
    out = []
    for i, rd in enumerate(row_dims):
        rows = [[0] * total_c for _ in range(rd)]
        off = 0
        for j, cd in enumerate(col_dims):
            blk = blocks.get((i, j))
            if blk is not None:
                s = den // blk.den
                for row, brow in zip(rows, blk.int_rows):
                    row[off : off + cd] = brow if s == 1 else [s * x for x in brow]
            off += cd
        out.extend(rows)
    return _int_mat(out, den, total_c)


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Nonzero rows of the unique reduced row echelon form, as a Mat of
    a's width, plus pivot columns."""
    rows, den, pivots = ((), 1, ()) if is_zero(a) else _qkernels.rref(a.int_rows)
    return _int_mat(rows, den, a.ncols), tuple(pivots)


def rank(a: Mat) -> int:
    if is_zero(a):
        return 0
    return _qkernels.rank(a.int_rows)


def det(a: Mat) -> Fraction:
    """The kernel's determinant of the integer form, over den^n."""
    r, c = shape(a)
    if r != c:
        raise ValueError("det needs a square matrix")
    if r == 0:
        return Fraction(1)
    return Fraction(_qkernels.det(a.int_rows), a.den**r)


def permanent(a: Mat) -> Fraction:
    """The kernel's permanent of the integer form, over den^n."""
    r, c = shape(a)
    if r != c:
        raise ValueError("permanent needs a square matrix")
    if r == 0:
        return Fraction(1)
    return Fraction(_qkernels.permanent(a.int_rows), a.den**r)


def is_positive_definite(a: Mat) -> bool:
    """Is the symmetric matrix a positive definite? Clearing a to its
    integer form scales the k-th leading minor by den^k > 0, so the
    kernel's Sylvester test on the integers decides it. A 0 x 0 matrix
    is positive definite."""
    return not a or _qkernels.positive_definite(a.int_rows)


def nullspace(a: Mat) -> Mat:
    """Canonical basis of {v : a v = 0}, as the rows of a Mat of a's
    width, one row per free column.

    The row for free column f has 1 there, minus the reduced
    coefficients at the pivot columns, 0 at other free columns; ordered
    by f.
    """
    return nullspace_free(a)[0]


def nullspace_free(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """nullspace(a) and its free columns, from one elimination.

    Restricted to the free columns the basis is the identity, so the
    coordinates of a kernel vector over it are its entries there.
    """
    out, den, free = _kernel_int(a, False)
    return _int_mat(out, den, a.ncols), free


def _kernel_int(a: Mat, reverse: bool) -> tuple[list[list[int]], int, tuple[int, ...]]:
    """A basis of {v : a v = 0} in integers, from one elimination of a's
    integer form: (vectors, den, free), one vector over den per free
    column f, den at f and minus each echelon row's entry at f at that
    row's pivot. This is the one loop that reads kernel vectors off an
    RREF.

    reverse eliminates a's columns in reverse order; pivots and entries
    are then read at c - 1 - j, so every index is in a's column order.
    Unreversed the vectors are nullspace(a); reversed, see
    EchelonBasis.kernel. A matrix without a nonzero entry has the
    identity as its kernel, with no elimination.
    """
    c = a.ncols
    if is_zero(a):
        rows, den, pivots = (), 1, ()
    else:
        rows = a.int_rows
        rows, den, pivots = _qkernels.rref([row[::-1] for row in rows] if reverse else rows)
    held = [(c - 1 - p if reverse else p, row) for p, row in zip(pivots, rows)]
    taken = {p for p, _ in held}
    free = tuple(f for f in range(c) if f not in taken)
    out = []
    for f in free:
        v = [0] * c
        v[f] = den
        at = c - 1 - f if reverse else f
        for p, row in held:
            v[p] = -row[at]
        out.append(v)
    return out, den, free


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
    m, pivots = rref(block_matrix((ra,), (ca, cb), {(0, 0): a, (0, 1): b}))
    if any(p >= ca for p in pivots):
        return None
    x = [[0] * cb for _ in range(ca)]
    for p, row in zip(pivots, m.int_rows):
        x[p] = row[ca:]
    return _int_mat(x, m.den, cb)


def solve_vec(a: Mat, v: Vec) -> Vec | None:
    x = solve(a, transpose(stack((v,), len(v))))
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
    """A subspace of Q^n held as rows, the Mat of the nonzero rows of its
    unique reduced row echelon form (n = rows.ncols), plus pivots, their
    pivot columns. rows is built by _int_mat, so its integer form is
    unique too: equal spans have equal rows.

    Because every pivot column is zero outside its own row, a vector v
    lies in the span exactly when v - sum_i v[pivots[i]] * rows[i] is
    zero, and the v[pivots[i]] are then its coordinates over rows. So
    membership, reduction and coordinates cost one pass over the rows
    and no elimination. contains, reduce and coords take the vectors as
    the rows of a Mat (raw rows are coerced once by stack) and answer
    for all of them from one integer loop, _residues; add() grows the
    span by one vector and keeps the form reduced. Entries must be int
    or Fraction; floats raise TypeError.

    This is the one representation of a canonical span: a span is built
    once and passed along, and callers that need the basis as a matrix
    read rows.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self, vectors: Sequence[Vec], width: int):
        """Basis of the span of arbitrary vectors: one integer rref."""
        a = stack(vectors, width)
        rows, den, pivots = _qkernels.rref(a.int_rows) if a and width else ((), 1, ())
        self.rows, self.pivots = _int_mat(rows, den, width), tuple(pivots)

    @classmethod
    def zero(cls, width: int) -> "EchelonBasis":
        """The zero subspace of Q^width, with no elimination."""
        b = object.__new__(cls)
        b.rows, b.pivots = zeros(0, width), ()
        return b

    @classmethod
    def kernel(cls, a: Mat) -> "EchelonBasis":
        """Basis of {v : a v = 0}: _kernel_int(a, True), from one
        elimination of a's integer form with its columns reversed.

        Reversed, each echelon row's pivot is its rightmost nonzero in
        a's column order. So the kernel vector of a free column f is
        zero left of f and at every other free column: these vectors are
        the kernel's RREF over den, pivoted at the free columns, and
        equal EchelonBasis(nullspace(a), a.ncols). A matrix without a
        nonzero entry has the identity as its kernel, with no
        elimination.
        """
        out, den, free = _kernel_int(a, True)
        b = object.__new__(cls)
        b.rows, b.pivots = _int_mat(out, den, a.ncols), free
        return b

    def _residues(self, m: Mat) -> list[list[int]]:
        """For each integer row w of m, den * w - sum_i w[pivots[i]] *
        R_i, where R over den is the integer form of rows: the
        numerators of the rows of reduce(m) over den * m.den."""
        den = self.rows.den
        held = list(zip(self.pivots, self.rows.int_rows))
        out = []
        for w in m.int_rows:
            r = list(w) if den == 1 else [den * x for x in w]
            for p, row in held:
                c = w[p]
                if c:
                    r = [x - c * y for x, y in zip(r, row)]
            out.append(r)
        return out

    def reduce(self, vectors) -> Mat:
        """Row j is row j of vectors minus sum_i v[pivots[i]] * rows[i]:
        zero at every pivot, and zero everywhere exactly when that
        vector is in the span."""
        m = stack(vectors, self.rows.ncols)
        if not (m and self.pivots):
            # nothing to reduce, or nothing to reduce by
            return m
        return _int_mat(self._residues(m), self.rows.den * m.den, m.ncols)

    def contains(self, vectors) -> bool:
        """Does the span hold every row of vectors?"""
        m = stack(vectors, self.rows.ncols)
        if not (m and self.pivots):
            # no rows, or the zero span
            return is_zero(m)
        return not any(map(any, self._residues(m)))

    def coords(self, vectors) -> Mat:
        """The matrix whose column j holds the coefficients of row j of
        vectors over rows: its entries at the pivots. ValueError when a
        row is not in the span."""
        m = stack(vectors, self.rows.ncols)
        if not self.contains(m):
            raise ValueError("vector is not in the span")
        return columns(m, self.pivots)

    def add(self, v: Vec) -> bool:
        """Grow the span by v. Returns whether it grew; when it did not,
        nothing changes."""
        (r,) = self._residues(stack((v,), self.rows.ncols))
        p = next((i for i, x in enumerate(r) if x), None)
        if p is None:
            return False
        g = gcd(*r) if r[p] > 0 else -gcd(*r)
        r = [x // g for x in r]
        # over den * e, the new row r / e is den * r, and each row R
        # loses R[p] / e times r to clear the new pivot column
        e, den = r[p], self.rows.den
        rows = []
        for row in self.rows.int_rows:
            c = row[p]
            if c:
                rows.append([e * x - c * y for x, y in zip(row, r)])
            else:
                rows.append(row if e == 1 else [e * x for x in row])
        k = bisect.bisect(self.pivots, p)
        rows.insert(k, r if den == 1 else [den * x for x in r])
        self.rows = _int_mat(rows, den * e, self.rows.ncols)
        self.pivots = self.pivots[:k] + (p,) + self.pivots[k:]
        return True


def in_span(vectors: Sequence[Vec], v: Vec) -> bool:
    """Is v in the span of the given row vectors?"""
    w = stack((v,), len(v))
    return is_zero(w) or EchelonBasis(vectors, len(v)).contains(w)
