"""Scaled rational matrices, metrized spaces, and metric plumbing.

A ScaledMatrix (entries, scale_sq) stands for the linear map
sqrt(scale_sq) * entries. Keeping the scale as its square keeps every
norm^2, pullback, and composite inside the rationals: the only
irrational factors that ever show up are square roots of positive
rationals, and they always appear squared in anything we compare.

A MetrizedSpace is a based rational inner-product space: an ordered
tuple of distinct opaque labels plus a symmetric positive-definite Gram
matrix in that basis. A SpaceMap wires two spaces together with a
ScaledMatrix written in their bases.

Subspaces never float free. A subspace of a metrized space is realized
as a new MetrizedSpace whose labels are the coordinate vectors of its
basis and whose Gram is the pulled-back metric, so the same subspace
constructed twice (with the same basis) is the same object. Kernels use
the canonical nullspace basis, which makes that determinism useful.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg as la
from .linalg import Mat, Vec


def square_free_split(n: int) -> tuple[int, int]:
    """Write n > 0 as s^2 * r with r squarefree; returns (s, r)."""
    if n <= 0:
        raise ValueError("need a positive integer")
    s, r = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                r *= d
        d += 1 if d == 2 else 2
    return s, r * n


class ScaledMatrix:
    """A rational matrix times the square root of a positive rational."""

    __slots__ = ("entries", "scale_sq")

    def __init__(self, entries, scale_sq=1):
        self.entries = entries if isinstance(entries, Mat) else la.mat(entries)
        self.scale_sq = la.q(scale_sq)
        if self.scale_sq <= 0:
            raise ValueError("scale_sq must be positive")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return self.entries.ncols

    def canonical(self) -> "ScaledMatrix":
        """Move every rational-square factor of scale_sq into the entries.

        The class of (M, s) under (M, s) ~ (cM, s/c^2) is pinned by the
        squarefree part of s in Q*/(Q*)^2, so the canonical scale_sq is
        a squarefree positive integer: for s = a/b reduced, sqrt(s) =
        s0 sqrt(r) / b where a b = s0^2 r, r squarefree. (A mere "ratio
        of squarefree integers" is not unique: 69/58 ~ 4002.) A zero
        matrix canonicalizes to scale_sq = 1: the zero map has one form.
        """
        if la.is_zero(self.entries):
            if self.scale_sq == 1:
                return self
            return ScaledMatrix(self.entries, 1)
        s = self.scale_sq
        s0, r = square_free_split(s.numerator * s.denominator)
        factor = Fraction(s0, s.denominator)
        if factor == 1 and s == r:
            return self
        return ScaledMatrix(la.scale(self.entries, factor), r)

    def key(self):
        c = self.canonical()
        return (c.entries, c.scale_sq)

    def __eq__(self, other):
        if not isinstance(other, ScaledMatrix):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"ScaledMatrix({self.entries!r}, scale_sq={self.scale_sq!r})"

    def compose(self, other: "ScaledMatrix") -> "ScaledMatrix":
        """self after other: matrices multiply, scale squares multiply."""
        return ScaledMatrix(
            la.matmul(self.entries, other.entries), self.scale_sq * other.scale_sq
        )

    def add(self, other: "ScaledMatrix") -> "ScaledMatrix":
        """Sum; defined only when both scales agree (after canonicalizing)."""
        a, b = self.canonical(), other.canonical()
        if a.scale_sq != b.scale_sq and not la.is_zero(a.entries) and not la.is_zero(b.entries):
            raise ValueError("cannot add scaled matrices with different scales")
        s = a.scale_sq if not la.is_zero(a.entries) else b.scale_sq
        return ScaledMatrix(la.add(a.entries, b.entries), s)

    def is_zero(self) -> bool:
        return la.is_zero(self.entries)

    def pullback(self, gram: Mat) -> Mat:
        """scale_sq * M^T gram M: the bilinear form pulled through the map."""
        m = self.entries
        return la.scale(la.matmul(la.matmul(la.transpose(m), gram), m), self.scale_sq)

    def image_norm_sq(self, gram: Mat, v: Vec) -> Fraction:
        """Norm^2 of the image of v, measured by gram on the codomain."""
        w = la.matvec(self.entries, v)
        return self.scale_sq * la.bilinear(gram, w, w)


def _is_positive_definite(g: Mat) -> bool:
    """Exact PD test: Gaussian pivots without row exchange all positive."""
    n = len(g)
    rows = [list(r) for r in g]
    for c in range(n):
        piv = rows[c][c]
        if piv <= 0:
            return False
        for i in range(c + 1, n):
            f = rows[i][c] / piv
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return True


class MetrizedSpace:
    """A based rational inner-product space.

    check=False skips the symmetric/PD validation; constructions that
    preserve positive definiteness by theorem (Kronecker and power
    Grams, pullbacks along injections, block sums) use it because the
    exact check is cubic and tensor powers get big.
    """

    __slots__ = ("labels", "gram")

    def __init__(self, labels, gram, *, check: bool = True):
        self.labels = tuple(labels)
        self.gram = gram if isinstance(gram, Mat) else la.mat(gram)
        n = len(self.labels)
        if la.shape(self.gram) != (n, n):
            raise ValueError("gram shape does not match label count")
        if len(set(self.labels)) != n:
            raise ValueError("labels must be distinct")
        if check:
            if self.gram != la.transpose(self.gram):
                raise ValueError("gram must be symmetric")
            if not _is_positive_definite(self.gram):
                raise ValueError("gram must be positive definite")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def key(self):
        return (self.labels, self.gram)

    def __eq__(self, other):
        if not isinstance(other, MetrizedSpace):
            return NotImplemented
        return self.labels == other.labels and self.gram == other.gram

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"MetrizedSpace(dim={self.dim})"

    def inner(self, u: Vec, v: Vec) -> Fraction:
        return la.bilinear(self.gram, u, v)

    def norm_sq(self, v: Vec) -> Fraction:
        return la.bilinear(self.gram, v, v)

    def basis_vector(self, i: int) -> Vec:
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))


ZERO_SPACE = MetrizedSpace((), ())


def standard_space(n: int, gram: Mat | None = None, tag: str = "e") -> MetrizedSpace:
    """Q^n with labels (tag, 0..n-1); orthonormal unless a Gram is given."""
    labels = tuple((tag, i) for i in range(n))
    if gram is None:
        return MetrizedSpace(labels, la.identity(n), check=False)
    return MetrizedSpace(labels, gram)


class SpaceMap:
    """A linear map between metrized spaces, matrix written in their bases."""

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: MetrizedSpace, codomain: MetrizedSpace, matrix, scale_sq=None):
        if not isinstance(matrix, ScaledMatrix):
            matrix = ScaledMatrix(matrix, 1 if scale_sq is None else scale_sq)
        elif scale_sq is not None:
            raise ValueError("scale_sq belongs inside the ScaledMatrix")
        got = la.shape(matrix.entries)
        if got != (codomain.dim, domain.dim):
            raise ValueError(f"matrix is {got}, need {codomain.dim}x{domain.dim}")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix

    def key(self):
        return (self.domain.key(), self.codomain.key(), self.matrix.key())

    def __eq__(self, other):
        if not isinstance(other, SpaceMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"SpaceMap({self.domain.dim} -> {self.codomain.dim})"

    def compose(self, other: "SpaceMap") -> "SpaceMap":
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("compose: domain/codomain mismatch")
        return SpaceMap(other.domain, self.codomain, self.matrix.compose(other.matrix))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def kernel_basis(self) -> Mat:
        """Canonical basis of the kernel; the scale never matters."""
        return la.nullspace(self.matrix.entries)

    def image_basis(self) -> Mat:
        """Canonical (RREF) basis of the image, in codomain coordinates."""
        return la.EchelonBasis(la.transpose(self.matrix.entries), self.codomain.dim).rows

    def rank(self) -> int:
        return la.rank(self.matrix.entries)

    def is_injective(self) -> bool:
        return self.rank() == self.domain.dim

    def is_surjective(self) -> bool:
        return self.rank() == self.codomain.dim

    def is_isometry(self) -> bool:
        """Bijective and scale_sq * M^T G_cod M == G_dom exactly."""
        if self.domain.dim != self.codomain.dim:
            return False
        if self.rank() != self.domain.dim:
            return False
        return self.matrix.pullback(self.codomain.gram) == self.domain.gram

    def is_isometry_onto_image(self) -> bool:
        """Injective with the codomain metric restricting to the domain one."""
        return (
            self.is_injective()
            and self.matrix.pullback(self.codomain.gram) == self.domain.gram
        )


def identity_map(space: MetrizedSpace) -> SpaceMap:
    return SpaceMap(space, space, la.identity(space.dim))


def zero_map(domain: MetrizedSpace, codomain: MetrizedSpace) -> SpaceMap:
    return SpaceMap(domain, codomain, la.zeros(codomain.dim, domain.dim))


def _require_independent(vectors, dim: int) -> Mat:
    m = la.stack(vectors, dim)
    if la.rank(m) != len(m):
        raise ValueError("basis vectors must be independent")
    return m


def induced_subspace_metric(ambient: MetrizedSpace, basis) -> MetrizedSpace:
    """The subspace spanned by the given vectors, metric restricted.

    Labels are the coordinate vectors themselves, so equal bases give
    equal objects. Gram = B^T G B with the vectors as columns of B.
    """
    rows = _require_independent(basis, ambient.dim)
    if not rows:
        return ZERO_SPACE
    gram = la.matmul(la.matmul(rows, ambient.gram), la.transpose(rows))
    return MetrizedSpace(tuple(rows), gram, check=False)


def subspace_object(ambient: MetrizedSpace, basis) -> tuple[MetrizedSpace, SpaceMap]:
    """Subspace with induced metric plus its inclusion into the ambient."""
    sub = induced_subspace_metric(ambient, basis)
    # the labels of the subspace are its basis rows
    incl = SpaceMap(sub, ambient, la.transpose(Mat(sub.labels, ambient.dim)))
    return sub, incl


def orthogonal_complement(ambient: MetrizedSpace, basis) -> Mat:
    """Canonical basis of {v : <b, v> = 0 for all given b}."""
    rows = _require_independent(basis, ambient.dim)
    return la.nullspace(la.matmul(rows, ambient.gram))


def quotient_metric(f: SpaceMap) -> MetrizedSpace:
    """Codomain of a surjection, carrying the quotient metric.

    The value on codomain basis vectors w_i, w_j is <v_i, v_j> where
    v_i is the unique preimage of w_i inside the orthogonal complement
    of ker f. For f = sqrt(s) * M the preimages of the w_i under M form
    U, and the Gram is (1/s) * U^T G_dom U.
    """
    if not f.is_surjective():
        raise ValueError("quotient_metric needs a surjective map")
    if f.codomain.dim == 0:
        return f.codomain
    cols = la.transpose(orthogonal_complement(f.domain, f.kernel_basis()))
    mc = la.matmul(f.matrix.entries, cols)
    x = la.solve(mc, la.identity(f.codomain.dim))
    if x is None:
        raise AssertionError("surjective map must hit every basis vector")
    u = la.matmul(cols, x)
    gram = la.scale(
        la.matmul(la.matmul(la.transpose(u), f.domain.gram), u),
        1 / f.matrix.scale_sq,
    )
    return MetrizedSpace(f.codomain.labels, gram, check=False)


def kernel_object(f: SpaceMap) -> tuple[MetrizedSpace, SpaceMap]:
    """ker f with the induced metric, plus its inclusion.

    A zero map short-circuits to the literal domain object (identity
    inclusion): downstream bookkeeping wants "the kernel of nothing" to
    BE the space, not an isomorphic copy with coordinate-vector labels.
    """
    if f.is_zero():
        return f.domain, identity_map(f.domain)
    return subspace_object(f.domain, f.kernel_basis())


def direct_sum_space(parts) -> MetrizedSpace:
    """Orthogonal direct sum; labels become (tag, original label).

    parts: ordered sequence of (tag, MetrizedSpace), tags distinct.
    """
    parts = tuple(parts)
    tags = [t for t, _ in parts]
    if len(set(tags)) != len(tags):
        raise ValueError("direct sum tags must be distinct")
    labels = tuple((t, lab) for t, s in parts for lab in s.labels)
    gram = la.block_diag(*(s.gram for _, s in parts))
    if not labels:
        return ZERO_SPACE
    return MetrizedSpace(labels, gram, check=False)


def dsum_injection(parts, tag) -> SpaceMap:
    total = direct_sum_space(parts)
    parts = tuple(parts)
    offset = 0
    for t, s in parts:
        if t == tag:
            block = la.vstack(
                la.zeros(offset, s.dim),
                la.identity(s.dim),
                la.zeros(total.dim - offset - s.dim, s.dim),
            )
            return SpaceMap(s, total, block)
        offset += s.dim
    raise KeyError(tag)


def dsum_projection(parts, tag) -> SpaceMap:
    total = direct_sum_space(parts)
    parts = tuple(parts)
    offset = 0
    for t, s in parts:
        if t == tag:
            block = la.hstack(
                la.zeros(s.dim, offset),
                la.identity(s.dim),
                la.zeros(s.dim, total.dim - offset - s.dim),
            )
            return SpaceMap(total, s, block)
        offset += s.dim
    raise KeyError(tag)


class ShortExactMetrized:
    """0 -> sub -> total -> quot -> 0 with metrized terms.

    Construction validates exactness at all three terms by one
    la.is_exact call on the chain with its zero ends; a failure names
    the term and the test (product or ranks) that fails there.
    """

    __slots__ = ("inject", "project")

    def __init__(self, inject: SpaceMap, project: SpaceMap):
        if inject.codomain != project.domain:
            raise ValueError("inject and project must share the middle space")
        a, c = inject.domain.dim, project.codomain.dim
        chain = (la.zeros(a, 0), inject.matrix.entries, project.matrix.entries, la.zeros(0, c))
        if not la.is_exact(*chain):
            i, why = la.exactness_defect(*chain)
            term = ("sub", "total", "quot")[i - 1]
            raise ValueError(f"sequence is not exact at {term}: the {why} test fails")
        self.inject = inject
        self.project = project

    @property
    def sub(self) -> MetrizedSpace:
        return self.inject.domain

    @property
    def total(self) -> MetrizedSpace:
        return self.inject.codomain

    @property
    def quot(self) -> MetrizedSpace:
        return self.project.codomain

    def key(self):
        return (self.inject.key(), self.project.key())

    def __eq__(self, other):
        if not isinstance(other, ShortExactMetrized):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (
            f"ShortExactMetrized({self.sub.dim} -> {self.total.dim} -> {self.quot.dim})"
        )


def is_hermitian_split(ses: ShortExactMetrized) -> bool:
    """Does the sequence split orthogonally, metrics and all?

    True iff (a) inject is an isometry onto its image and (b) project,
    restricted to the orthogonal complement of that image, is an
    isometry onto quot. The restriction is automatically bijective
    (the complement misses ker project), so (b) is one Gram equation.
    """
    if ses.inject.matrix.pullback(ses.total.gram) != ses.sub.gram:
        return False
    image = la.transpose(ses.inject.matrix.entries)
    cols = la.transpose(orthogonal_complement(ses.total, image))
    if cols.ncols != ses.quot.dim:
        raise AssertionError("complement dimension must match the quotient")
    pc = la.matmul(ses.project.matrix.entries, cols)
    lhs = la.scale(
        la.matmul(la.matmul(la.transpose(pc), ses.quot.gram), pc),
        ses.project.matrix.scale_sq,
    )
    rhs = la.matmul(la.matmul(la.transpose(cols), ses.total.gram), cols)
    return lhs == rhs
