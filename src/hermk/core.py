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
        if self.scale_sq == other.scale_sq:
            # one scale: the canonical forms agree exactly when the entries do
            return self.entries == other.entries
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

    def is_zero(self) -> bool:
        return la.is_zero(self.entries)

    def pullback(self, gram: Mat) -> Mat:
        """scale_sq * M^T gram M: the bilinear form pulled through the map."""
        m = self.entries
        return la.scale(la.matmul(la.matmul(la.transpose(m), gram), m), self.scale_sq)


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
            if not la.is_positive_definite(self.gram):
                raise ValueError("gram must be positive definite")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def key(self):
        return (self.labels, self.gram)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, MetrizedSpace):
            return NotImplemented
        return self.labels == other.labels and self.gram == other.gram

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"MetrizedSpace(dim={self.dim})"

    def norm_sq(self, v: Vec) -> Fraction:
        return la.bilinear(self.gram, v, v)


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
        if self is other:
            return True
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
        return self.domain.dim == self.codomain.dim and self.is_isometry_onto_image()

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
    Raw vectors are checked for independence (one rank); an
    EchelonBasis is independent by construction and is taken as it is.
    """
    if isinstance(basis, la.EchelonBasis):
        rows = la.stack(basis.rows, ambient.dim)
    else:
        rows = _require_independent(basis, ambient.dim)
    return _span_metric(ambient, rows)


def _span_metric(ambient: MetrizedSpace, rows: Mat) -> MetrizedSpace:
    """induced_subspace_metric of rows already known to be independent."""
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


class KernelObject(tuple):
    """The pair (ker f, its inclusion) that kernel_object returns, which
    also keeps the free columns of the elimination that built the
    kernel, one per basis vector: the inclusion's rows at them form the
    identity, so a vector of ker f has its coordinates there."""

    def __new__(cls, sub: MetrizedSpace, incl: SpaceMap, free):
        pair = super().__new__(cls, (sub, incl))
        pair.free = tuple(free)
        return pair

    @classmethod
    def whole(cls, space: MetrizedSpace) -> "KernelObject":
        """The space as its own kernel, included by the identity."""
        return cls(space, identity_map(space), range(space.dim))


def kernel_object(f: SpaceMap) -> tuple[MetrizedSpace, SpaceMap]:
    """ker f with the induced metric, plus its inclusion, as a
    KernelObject.

    A zero map short-circuits to the literal domain object (identity
    inclusion): downstream bookkeeping wants "the kernel of nothing" to
    BE the space, not an isomorphic copy with coordinate-vector labels.
    """
    if f.is_zero():
        return KernelObject.whole(f.domain)
    basis, free = la.nullspace_free(f.matrix.entries)
    # independent without a rank: its rows at free are the identity
    sub = _span_metric(f.domain, basis)
    return KernelObject(sub, SpaceMap(sub, f.domain, la.transpose(basis)), free)


def direct_sum_space(parts) -> MetrizedSpace:
    """Orthogonal direct sum; labels become (tag, original label).

    parts: ordered sequence of (tag, MetrizedSpace), tags distinct.
    """
    parts = tuple(parts)
    tags = [t for t, _ in parts]
    if len(set(tags)) != len(tags):
        raise ValueError("direct sum tags must be distinct")
    labels = tuple((t, lab) for t, s in parts for lab in s.labels)
    if not labels:
        return ZERO_SPACE
    dims = [s.dim for _, s in parts]
    gram = la.block_matrix(dims, dims, {(i, i): s.gram for i, (_, s) in enumerate(parts)})
    return MetrizedSpace(labels, gram, check=False)


class ShortExactMetrized:
    """0 -> sub -> total -> quot -> 0 with metrized terms.

    Construction validates exactness at all three terms by one
    la.is_exact call on the chain with its zero ends; a failure names
    the term and the test (product or ranks) that fails there.

    complement, when given, is called with no arguments when the split
    test first runs and returns a candidate C for the orthogonal
    complement of the image of inject, as columns with P C = I for
    project = sqrt(s) P (a Koszul kernel sequence passes its section's,
    see mu_decompose); _split_parts certifies it. Without one the
    complement comes from a nullspace (_nullspace_complement).

    _split holds, once is_hermitian_split has run, the part of its test
    that does not read project's scale_sq (_split_parts); the sequences
    _rescaled derives from this one share it, and the complement.
    """

    __slots__ = ("inject", "project", "_split", "_complement")

    def __init__(self, inject: SpaceMap, project: SpaceMap, complement=None):
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
        self._split = []
        self._complement = complement

    def _rescaled(self, scale_sq) -> "ShortExactMetrized":
        """This sequence with project's scale_sq replaced, unchecked.

        Exactness reads only the entries of inject and project, and a
        ScaledMatrix has scale_sq > 0, so the result is exact because
        this one is. Only mu_decompose uses this: a rescaled complex
        shares its checked kernel sequences. The result shares _split
        and the complement: a rescaling changes no input of
        _split_parts.
        """
        p = self.project
        if scale_sq == p.matrix.scale_sq:
            return self
        out = object.__new__(ShortExactMetrized)
        out.inject = self.inject
        out.project = SpaceMap(p.domain, p.codomain, ScaledMatrix(p.matrix.entries, scale_sq))
        out._split = self._split
        out._complement = self._complement
        return out

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
    isometry onto quot. The restriction is bijective (the complement
    misses ker project), so for a basis C of the complement (as
    columns) with P C = I, project = sqrt(scale_sq) P, (b) is one Gram
    equation: scale_sq H == C^T G C, for the Grams G of total and H of
    quot. All of it but the scale is computed once per sequence and
    its rescalings (_split_parts), so a later call makes one scale and
    one comparison.
    """
    if not ses._split:
        ses._split.append(_split_parts(ses))
    cgc = ses._split[0]
    return cgc is not None and la.scale(ses.quot.gram, ses.project.matrix.scale_sq) == cgc


def certify_complement(kg: Mat, project: Mat, cols: Mat, target: Mat) -> Mat:
    """cols, once two products show that its columns are orthogonal to
    the rows of kg (K G for the Gram G and rows K spanning ker project)
    and that project cols == target; AssertionError otherwise: a fault
    of the code that made the candidate, never a verdict. With target
    the identity, cols is then a basis of the orthogonal complement.
    """
    if not la.is_zero(la.matmul(kg, cols)):
        raise AssertionError("the complement candidate is not orthogonal to the kernel")
    if la.matmul(project, cols) != target:
        raise AssertionError("the complement candidate is not a section of the projection")
    return cols


def _split_parts(ses: ShortExactMetrized) -> Mat | None:
    """None when test (a) of is_hermitian_split fails, else C^T G C of
    test (b) before the scale, for the complement basis C with P C = I.

    Both tests read one product, K G with K the image rows of inject:
    (a) is s K G K^T == the Gram of sub, for inject = sqrt(s) K^T, and
    K G certifies C. C is the sequence's own complement candidate if it
    was given one, else _nullspace_complement; either way
    certify_complement checks K G C == 0 and P C == I before C is read.
    """
    m = ses.inject.matrix
    kg = la.matmul(la.transpose(m.entries), ses.total.gram)
    if la.scale(la.matmul(kg, m.entries), m.scale_sq) != ses.sub.gram:
        return None
    p = ses.project.matrix.entries
    cols = ses._complement() if ses._complement else _nullspace_complement(kg, p)
    certify_complement(kg, p, cols, la.identity(ses.quot.dim))
    return la.matmul(la.matmul(la.transpose(cols), ses.total.gram), cols)


def _nullspace_complement(kg: Mat, p: Mat) -> Mat:
    """The complement for a sequence without a candidate: the nullspace
    N of K G (orthogonal_complement without its independence rank; the
    sequence was checked exact, so inject is injective), as columns,
    times the inverse of P N, so that P C = I."""
    cols = la.transpose(la.nullspace(kg))
    if cols.ncols != len(p):
        raise AssertionError("complement dimension must match the quotient")
    x = la.solve(la.matmul(p, cols), la.identity(len(p)))
    if x is None:
        raise AssertionError("the complement must map onto the quotient")
    return la.matmul(cols, x)
