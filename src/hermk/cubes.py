"""Exact cubes of metrized spaces and the flag-to-cube calculus.

An n-cube assigns a metrized space to every index in {0,1,2}^n and a
map to every adjacent pair so that each direction-i triple (faces 0,
1, 2 of a fixed complementary index) is short exact and all squares
commute. Flags (nested chains of subspaces of an ambient metrized
space) produce (n-1)-cubes whose vertices are orthogonal complements
W(a, b) of one chain entry inside a later one; quotients are realized
by those complements, so equal subspace data yields structurally
equal cubes and formal sums of cubes cancel exactly.

Degeneracy images, the cube differential, the filtration-level
homotopy, direct-sum cubes, and split-cube detection follow the same
structural-equality discipline: identities that hold only modulo
degenerate cubes are checked by expanding both sides and testing each
residual summand for structural degeneracy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import linalg as la
from .core import (
    ZERO_SPACE,
    MetrizedSpace,
    ScaledMatrix,
    ShortExactMetrized,
    SpaceMap,
    direct_sum_space,
    identity_map,
    induced_subspace_metric,
    is_hermitian_split,
    zero_map,
)

__all__ = [
    "Cube",
    "CubeSum",
    "Flag",
    "associated_sum_cube",
    "canonical_kernel_rebuild",
    "cub",
    "cub_chain_property",
    "cub_degeneracy_relations",
    "cub_face_relations",
    "cub_degenerate_differential",
    "cube_differential",
    "cube_swap",
    "degeneracy",
    "direct_sum_cube",
    "face",
    "homotopy_check",
    "is_normalized",
    "is_split_cube",
    "is_structurally_degenerate",
    "paired_faces_agree",
    "ses_as_cube",
    "tau_symmetric",
]

_VERT = (0, 1, 2)


def _insert(j: tuple, pos: int, v: int) -> tuple:
    return j[:pos] + (v,) + j[pos:]


def _bump(j: tuple, pos: int) -> tuple:
    return j[:pos] + (j[pos] + 1,) + j[pos + 1 :]


def _adjacent(n: int):
    for j in product(_VERT, repeat=n):
        for i in range(n):
            if j[i] < 2:
                yield j, _bump(j, i)


class Cube:
    """An n-cube of metrized spaces: vertices over {0,1,2}^n, one map
    per adjacent pair, every direction triple short exact and every
    square commuting. check=False skips validation for cubes obtained
    by restricting or permuting an already validated one."""

    __slots__ = ("n", "vertices", "arrows", "_key", "_hash")

    def __init__(self, n: int, vertices, arrows, check: bool = True):
        self.n = n
        self.vertices = dict(vertices)
        self.arrows = dict(arrows)
        self._key = None
        self._hash = None
        expected = set(product(_VERT, repeat=n))
        if set(self.vertices) != expected:
            raise ValueError("vertex index set must be all of {0,1,2}^n")
        if set(self.arrows) != set(_adjacent(n)):
            raise ValueError("arrows must cover exactly the adjacent pairs")
        if check:
            self._validate()

    def _validate(self):
        for (src, dst), m in self.arrows.items():
            if m.domain != self.vertices[src] or m.codomain != self.vertices[dst]:
                raise ValueError(f"arrow {src}->{dst} does not match its endpoints")
        for i in range(1, self.n + 1):
            for bj in product(_VERT, repeat=self.n - 1):
                self.triple(i, bj)
        for j in product(_VERT, repeat=self.n):
            for i1 in range(self.n):
                if j[i1] == 2:
                    continue
                for i2 in range(i1 + 1, self.n):
                    if j[i2] == 2:
                        continue
                    a, b = _bump(j, i1), _bump(j, i2)
                    ab = _bump(a, i2)
                    left = self.arrows[(a, ab)].compose(self.arrows[(j, a)])
                    right = self.arrows[(b, ab)].compose(self.arrows[(j, b)])
                    if left != right:
                        raise ValueError(
                            f"square at {j} in directions {i1 + 1},{i2 + 1} "
                            "does not commute"
                        )

    def vertex(self, j) -> MetrizedSpace:
        return self.vertices[tuple(j)]

    def arrow(self, src, dst) -> SpaceMap:
        return self.arrows[(tuple(src), tuple(dst))]

    def triple(self, i: int, bj) -> ShortExactMetrized:
        """The direction-i short exact sequence over a complementary index."""
        bj = tuple(bj)
        j0 = _insert(bj, i - 1, 0)
        j1 = _insert(bj, i - 1, 1)
        j2 = _insert(bj, i - 1, 2)
        return ShortExactMetrized(self.arrows[(j0, j1)], self.arrows[(j1, j2)])

    def is_zero(self) -> bool:
        return all(s.dim == 0 for s in self.vertices.values())

    def key(self):
        if self._key is None:
            vs = tuple((j, self.vertices[j].key()) for j in sorted(self.vertices))
            ars = tuple(
                (pair, self.arrows[pair].matrix.key()) for pair in sorted(self.arrows)
            )
            self._key = (self.n, vs, ars)
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Cube):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        dims = tuple(
            self.vertices[j].dim for j in sorted(self.vertices)
        )
        return f"Cube(n={self.n}, dims={dims})"


def face(c: Cube, i: int, k: int) -> Cube:
    """The (n-1)-cube obtained by fixing coordinate i (1-based) to k."""
    if not 1 <= i <= c.n:
        raise ValueError("face direction out of range")
    if k not in _VERT:
        raise ValueError("face value must be 0, 1 or 2")
    pos = i - 1
    verts = {
        bj: c.vertices[_insert(bj, pos, k)] for bj in product(_VERT, repeat=c.n - 1)
    }
    arrows = {
        (s, d): c.arrows[(_insert(s, pos, k), _insert(d, pos, k))]
        for s, d in _adjacent(c.n - 1)
    }
    return Cube(c.n - 1, verts, arrows, check=False)


def degeneracy(c: Cube, i: int, kind: int) -> Cube:
    """Insert a trivial direction at position i (1-based, up to n+1).

    kind 0 inserts (X = X -> 0) and kind 1 inserts (0 -> X = X), where
    X is the original cube sliced at the remaining coordinates.
    """
    if not 1 <= i <= c.n + 1:
        raise ValueError("degeneracy position out of range")
    if kind not in (0, 1):
        raise ValueError("degeneracy kind must be 0 or 1")
    pos = i - 1
    live = (0, 1) if kind == 0 else (1, 2)
    verts = {}
    for j in product(_VERT, repeat=c.n + 1):
        rest = j[:pos] + j[pos + 1 :]
        verts[j] = c.vertices[rest] if j[pos] in live else ZERO_SPACE
    arrows = {}
    for src, dst in _adjacent(c.n + 1):
        vs, vd = src[pos], dst[pos]
        rs = src[:pos] + src[pos + 1 :]
        rd = dst[:pos] + dst[pos + 1 :]
        if vs == vd:
            if vs in live:
                arrows[(src, dst)] = c.arrows[(rs, rd)]
            else:
                arrows[(src, dst)] = zero_map(ZERO_SPACE, ZERO_SPACE)
        elif vs in live and vd in live:
            arrows[(src, dst)] = identity_map(c.vertices[rs])
        else:
            arrows[(src, dst)] = zero_map(verts[src], verts[dst])
    return Cube(c.n + 1, verts, arrows, check=False)


def cube_swap(c: Cube, i: int) -> Cube:
    """The cube with directions i and i+1 (1-based) interchanged."""
    if not 1 <= i <= c.n - 1:
        raise ValueError("swap needs two adjacent directions")
    pos = i - 1

    def sw(j):
        return j[:pos] + (j[pos + 1], j[pos]) + j[pos + 2 :]

    verts = {j: c.vertices[sw(j)] for j in product(_VERT, repeat=c.n)}
    arrows = {(s, d): c.arrows[(sw(s), sw(d))] for s, d in _adjacent(c.n)}
    return Cube(c.n, verts, arrows, check=False)


def tau_symmetric(c: Cube, i: int) -> bool:
    """Is the cube unchanged by swapping directions i and i+1?"""
    return cube_swap(c, i) == c


def is_structurally_degenerate(c: Cube) -> bool:
    """Is the cube the degeneracy of one of its own faces?"""
    return any(
        c == degeneracy(face(c, i, 0), i, 0) or c == degeneracy(face(c, i, 1), i, 1)
        for i in range(1, c.n + 1)
    )


def is_normalized(c: Cube) -> bool:
    """Do all 0- and 1-faces vanish?"""
    return all(
        face(c, i, k).is_zero() for i in range(1, c.n + 1) for k in (0, 1)
    )


class CubeSum:
    """Formal integer combination of equal-dimension cubes, merged by
    structural identity."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=()):
        self.n = n
        self._terms: dict = {}
        for coeff, cube in terms:
            self._add(coeff, cube)

    def _add(self, coeff: int, cube: Cube):
        if cube.n != self.n:
            raise ValueError("mixed cube dimensions in one sum")
        k = cube.key()
        prev = self._terms.get(k)
        total = coeff + (prev[0] if prev else 0)
        if total:
            self._terms[k] = (total, cube)
        elif prev:
            del self._terms[k]

    @staticmethod
    def single(cube: Cube, coeff: int = 1) -> "CubeSum":
        return CubeSum(cube.n, ((coeff, cube),))

    def summands(self):
        return tuple(self._terms.values())

    def coefficient(self, cube: Cube) -> int:
        entry = self._terms.get(cube.key())
        return entry[0] if entry else 0

    def add(self, other: "CubeSum") -> "CubeSum":
        out = CubeSum(self.n, self.summands())
        for coeff, cube in other.summands():
            out._add(coeff, cube)
        return out

    def sub(self, other: "CubeSum") -> "CubeSum":
        return self.add(other.scaled(-1))

    def scaled(self, s: int) -> "CubeSum":
        if not s:
            return CubeSum(self.n)
        return CubeSum(self.n, ((coeff * s, cube) for coeff, cube in self.summands()))

    def is_zero(self) -> bool:
        return not self._terms

    def __repr__(self):
        return f"CubeSum(n={self.n}, terms={len(self._terms)})"


def cube_differential(x) -> CubeSum:
    """Alternating sum of all faces: the i-th direction contributes
    (-1)^i (face 0 - face 1 + face 2)."""
    if isinstance(x, Cube):
        x = CubeSum.single(x)
    out = CubeSum(x.n - 1)
    for coeff, cube in x.summands():
        for i in range(1, cube.n + 1):
            sign = -1 if i % 2 else 1
            out._add(coeff * sign, face(cube, i, 0))
            out._add(-coeff * sign, face(cube, i, 1))
            out._add(coeff * sign, face(cube, i, 2))
    return out


class Flag:
    """A chain of nested subspaces 0 <= E_1 <= ... <= E_n inside a
    metrized ambient space; repeated entries are allowed. Each entry is
    held as its EchelonBasis (built once: faces and degeneracies pass
    the bases along), so equal subspace chains give equal flags, and
    nesting is checked by containment of each entry's rows in the next
    entry's basis. chain reads the entries' rows."""

    __slots__ = ("ambient", "bases")

    def __init__(self, ambient: MetrizedSpace, chain, check: bool = True):
        self.ambient = ambient
        self.bases = tuple(
            b if isinstance(b, la.EchelonBasis) else la.EchelonBasis(b, ambient.dim)
            for b in chain
        )
        if check:
            for small, big in zip(self.bases, self.bases[1:]):
                if not all(big.contains(row) for row in small.rows):
                    raise ValueError("flag entries must be nested")

    @property
    def chain(self) -> tuple:
        return tuple(b.rows for b in self.bases)

    @property
    def length(self) -> int:
        return len(self.bases)

    def key(self):
        return (self.ambient.key(), self.chain)

    def __eq__(self, other):
        if not isinstance(other, Flag):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Flag(dims={tuple(len(b) for b in self.chain)})"

    def face(self, i: int) -> "Flag":
        """Simplicial face: i = 0 passes to complements modulo the first
        entry, i >= 1 deletes the i-th entry."""
        if not 0 <= i <= self.length:
            raise ValueError("face index out of range")
        if i == 0:
            first = self.bases[0]
            rest = tuple(
                _ortho_in(self.ambient, first, big) for big in self.bases[1:]
            )
            return Flag(self.ambient, rest, check=False)
        return Flag(
            self.ambient,
            self.bases[: i - 1] + self.bases[i:],
            check=False,
        )

    def degeneracy(self, i: int) -> "Flag":
        """Simplicial degeneracy: i = 0 prepends the zero subspace,
        i >= 1 repeats the i-th entry."""
        if not 0 <= i <= self.length:
            raise ValueError("degeneracy index out of range")
        if i == 0:
            return Flag(self.ambient, ((),) + self.bases, check=False)
        return Flag(
            self.ambient,
            self.bases[:i] + (self.bases[i - 1],) + self.bases[i:],
            check=False,
        )


def _ortho_in(ambient: MetrizedSpace, small: la.EchelonBasis, big: la.EchelonBasis):
    """Echelon basis of the orthogonal complement of span(small) inside
    span(big), both echelon bases in ambient coordinates."""
    rel = la.matmul(la.matmul(small.rows, ambient.gram), la.transpose(big.rows))
    return la.EchelonBasis(la.matmul(la.nullspace(rel), big.rows), ambient.dim)


@lru_cache(maxsize=None)
def _cub_tags(n: int):
    """Vertex tags of the (n-1)-cube of a length-n flag. Tag (a, b)
    stands for the complement of E_a inside E_b (E_0 = 0), None for a
    zero vertex. Recursion: direction-1 slices are the degenerate
    extension of E_1, the cube of the flag minus E_1, and the cube of
    the complement flag, which shift tags uniformly."""
    if n == 1:
        return {(): (0, 1)}
    sub = _cub_tags(n - 1)
    tags = {}
    for jr, t in sub.items():
        tags[(0,) + jr] = (0, 1) if all(x != 2 for x in jr) else None
        if t is None:
            tags[(1,) + jr] = None
            tags[(2,) + jr] = None
        else:
            a, b = t
            tags[(1,) + jr] = (0, b + 1) if a == 0 else (a + 1, b + 1)
            tags[(2,) + jr] = (1, b + 1) if a == 0 else (a + 1, b + 1)
    return tags


def _inclusion_map(sub, sup, sub_space, sup_space) -> SpaceMap:
    """The inclusion of span(sub) into span(sup), echelon bases with
    sub inside sup: column j holds the coordinates of sub's row j over
    sup's rows, read at sup's pivots."""
    cols = la.Mat(tuple(sup.coords(row) for row in sub.rows), len(sup.rows))
    return SpaceMap(sub_space, sup_space, la.transpose(cols))


def _orthoprojection_map(src_basis, dst_basis, src_space, dst_space, gram) -> SpaceMap:
    b2g = la.matmul(dst_basis, gram)
    g2 = la.matmul(b2g, la.transpose(dst_basis))
    rhs = la.matmul(b2g, la.transpose(src_basis))
    return SpaceMap(src_space, dst_space, la.solve(g2, rhs))


def cub(f: Flag) -> Cube:
    """The (n-1)-cube of a length-n flag.

    Vertices realize complements W(a, b) of E_a inside E_b with the
    induced metric; arrows are subspace inclusions (b grows), metric
    orthoprojections (a grows), identities, or zero. Quotients are
    represented by orthogonal complements, so the three kinds of faces
    of the construction agree with flag faces structurally.
    """
    n = f.length
    if n < 1:
        raise ValueError("cub needs a flag with at least one entry")
    tags = _cub_tags(n)
    bases: dict = {}
    spaces: dict = {None: ZERO_SPACE}

    def basis_of(t):
        if t not in bases:
            a, b = t
            if a == 0:
                bases[t] = f.bases[b - 1]
            else:
                bases[t] = _ortho_in(f.ambient, f.bases[a - 1], f.bases[b - 1])
        return bases[t]

    for t in set(tags.values()):
        if t is not None:
            spaces[t] = induced_subspace_metric(f.ambient, basis_of(t).rows)

    verts = {j: spaces[tags[j]] for j in tags}
    arrow_cache: dict = {}

    def arrow_for(t1, t2) -> SpaceMap:
        if (t1, t2) in arrow_cache:
            return arrow_cache[(t1, t2)]
        if t1 is None or t2 is None:
            m = zero_map(spaces[t1], spaces[t2])
        elif t1 == t2:
            m = identity_map(spaces[t1])
        elif t1[0] == t2[0] and t1[1] < t2[1]:
            m = _inclusion_map(basis_of(t1), basis_of(t2), spaces[t1], spaces[t2])
        elif t1[1] == t2[1] and t1[0] < t2[0]:
            m = _orthoprojection_map(
                basis_of(t1).rows, basis_of(t2).rows, spaces[t1], spaces[t2], f.ambient.gram
            )
        else:
            raise AssertionError(f"unexpected tag step {t1} -> {t2}")
        arrow_cache[(t1, t2)] = m
        return m

    arrows = {
        (s, d): arrow_for(tags[s], tags[d]) for s, d in _adjacent(n - 1)
    }
    return Cube(n - 1, verts, arrows)


def cub_chain_property(f: Flag) -> bool:
    """Does the cube differential of cub(f) agree with minus the
    alternating sum of cub over the flag faces, up to degenerate
    cubes? The two sides cancel summand by summand; whatever survives
    must be structurally degenerate."""
    total = cube_differential(cub(f))
    for i in range(f.length + 1):
        g = f.face(i)
        if g.length >= 1:
            total._add(1 if i % 2 == 0 else -1, cub(g))
    return all(is_structurally_degenerate(c) for _, c in total.summands())


def cub_degenerate_differential(f: Flag, i: int) -> bool:
    """The cube differential of cub of a degenerate flag expands into
    degeneracies of flag faces: d cub(s_i f) equals
    sum_{j<i} (-1)^{j+1} cub(s_{i-1} d_j f)
    + sum_{j>i} (-1)^j cub(s_i d_j f) up to degenerate cubes."""
    n = f.length
    if not 1 <= i <= n - 1:
        raise ValueError("interior degeneracy index required")
    total = cube_differential(cub(f.degeneracy(i)))
    for j in range(i):
        total._add((-1) ** j, cub(f.face(j).degeneracy(i - 1)))
    for j in range(i + 1, n + 1):
        total._add((-1) ** (j + 1), cub(f.face(j).degeneracy(i)))
    return all(is_structurally_degenerate(c) for _, c in total.summands())


def paired_faces_agree(f: Flag, i: int) -> bool:
    """On cub(s_i f) the direction-i and direction-(i+1) faces agree
    for all three face kinds."""
    c = cub(f.degeneracy(i))
    return all(face(c, i, l) == face(c, i + 1, l) for l in _VERT)


def cub_face_relations(f: Flag) -> bool:
    """Every face of cub(f) against its closed form: kind 1 is the cub
    of the deleted flag, kind 0 extends the truncated flag by trailing
    0-degeneracies, kind 2 extends the iterated complement flag by
    leading 1-degeneracies."""
    n = f.length
    c = cub(f)
    for i in range(1, n):
        if face(c, i, 1) != cub(f.face(i)):
            return False
        g = f
        for _ in range(n - i):
            g = g.face(g.length)
        x = cub(g)
        for t in range(i, c.n):
            x = degeneracy(x, t, 0)
        if face(c, i, 0) != x:
            return False
        g = f
        for _ in range(i):
            g = g.face(0)
        x = cub(g)
        for t in range(1, i):
            x = degeneracy(x, t, 1)
        if face(c, i, 2) != x:
            return False
    return True


def cub_degeneracy_relations(f: Flag) -> bool:
    """cub of a degenerate flag: the first degeneracy gives a leading
    1-degenerate cube, the last a trailing 0-degenerate cube, and every
    inner one a swap-symmetric cube."""
    n = f.length
    if cub(f.degeneracy(0)) != degeneracy(cub(f), 1, 1):
        return False
    if cub(f.degeneracy(n)) != degeneracy(cub(f), n, 0):
        return False
    return all(tau_symmetric(cub(f.degeneracy(i)), i) for i in range(1, n))


def homotopy_check(f: Flag, i: int) -> bool:
    """Degree-shift homotopy h = (-1)^{i+1} cub(s_i s_i -) satisfies
    d h + h d = id on cub(s_i f) in the filtration quotient that
    discards structurally degenerate cubes and cubes built from lower
    degeneracy indices."""
    n = f.length
    if not 1 <= i <= n - 1:
        raise ValueError("interior degeneracy index required")
    if not cub_degenerate_differential(f, i):
        return False
    si = f.degeneracy(i)
    hsign = (-1) ** (i + 1)
    total = cube_differential(cub(si.degeneracy(i))).scaled(hsign)
    for m in range(i + 1, n + 1):
        total._add(
            ((-1) ** m) * hsign, cub(f.face(m).degeneracy(i).degeneracy(i))
        )
    total._add(-1, cub(si))
    lower = {
        cub(f.face(j).degeneracy(i - 1).degeneracy(i - 1)).key() for j in range(i)
    }
    return all(
        is_structurally_degenerate(c) or c.key() in lower
        for _, c in total.summands()
    )


def direct_sum_cube(parts) -> Cube:
    """The cube of orthogonal direct sums built from spaces indexed by
    {0,2}^n: a vertex sums the given spaces over all ways of resolving
    its 1-coordinates to 0 or 2, and arrows match summands by index
    (identity where present on both sides, zero otherwise)."""
    parts = {tuple(j): s for j, s in dict(parts).items()}
    if not parts:
        raise ValueError("parts must be indexed by {0,2}^n")
    n = len(next(iter(parts)))
    if set(parts) != set(product((0, 2), repeat=n)):
        raise ValueError("parts must be indexed by all of {0,2}^n")

    def summands(j):
        ones = [k for k, v in enumerate(j) if v == 1]
        out = []
        for m in product((0, 2), repeat=len(ones)):
            tag = list(j)
            for k, u in enumerate(ones):
                tag[u] = m[k]
            tag = tuple(tag)
            out.append((tag, parts[tag]))
        return out

    sums = {j: summands(j) for j in product(_VERT, repeat=n)}
    spaces = {
        j: ss[0][1] if len(ss) == 1 else direct_sum_space(ss)
        for j, ss in sums.items()
    }
    arrows = {
        (s, d): _summand_matching_map(sums[s], spaces[s], sums[d], spaces[d])
        for s, d in _adjacent(n)
    }
    return Cube(n, spaces, arrows)


def _summand_matching_map(src_parts, src_space, dst_parts, dst_space) -> SpaceMap:
    entries = [[Fraction(0)] * src_space.dim for _ in range(dst_space.dim)]
    src_off = {}
    off = 0
    for tag, s in src_parts:
        src_off[tag] = off
        off += s.dim
    off = 0
    for tag, s in dst_parts:
        if tag in src_off:
            so = src_off[tag]
            for r in range(s.dim):
                entries[off + r][so + r] = Fraction(1)
        off += s.dim
    return SpaceMap(src_space, dst_space, la.Mat(tuple(map(tuple, entries)), src_space.dim))


def associated_sum_cube(c: Cube) -> Cube:
    """The direct-sum cube on the corner vertices of c."""
    return direct_sum_cube(
        {j: c.vertices[j] for j in product((0, 2), repeat=c.n)}
    )


def is_split_cube(c: Cube) -> bool:
    """Does every direction triple split orthogonally, metrics
    included? Equivalent to c carrying the canonical isometry from its
    associated direct-sum cube that fixes the corner vertices."""
    for i in range(1, c.n + 1):
        for bj in product(_VERT, repeat=c.n - 1):
            if not is_hermitian_split(c.triple(i, bj)):
                return False
    return True


def ses_as_cube(s: ShortExactMetrized) -> Cube:
    """A short exact sequence viewed as a 1-cube."""
    verts = {(0,): s.sub, (1,): s.total, (2,): s.quot}
    arrows = {((0,), (1,)): s.inject, ((1,), (2,)): s.project}
    return Cube(1, verts, arrows, check=False)


def canonical_kernel_rebuild(c: Cube):
    """Replace every vertex by the image of its composite injections
    along the 0-directions, carried inside the vertex with those
    coordinates raised to 1 and given the metric induced there.

    Returns (rebuilt cube, vertex isomorphisms old -> new). All
    0 -> 1 arrows of the rebuilt cube are literal coordinate
    inclusions of nested subspaces.
    """
    verts = {}
    isos = {}
    for j in product(_VERT, repeat=c.n):
        comp = identity_map(c.vertices[j])
        cur = j
        for pos in range(c.n):
            if j[pos] == 0:
                nxt = _bump(cur, pos)
                comp = c.arrows[(cur, nxt)].compose(comp)
                cur = nxt
        big = c.vertices[cur]
        img = comp.image_basis()
        sub = induced_subspace_metric(big, img)
        coords = la.solve(la.transpose(img), comp.matrix.entries)
        isos[j] = SpaceMap(c.vertices[j], sub, ScaledMatrix(coords, comp.matrix.scale_sq))
        verts[j] = sub
    arrows = {}
    for src, dst in _adjacent(c.n):
        old = c.arrows[(src, dst)]
        inv = _inverse_map(isos[src])
        arrows[(src, dst)] = isos[dst].compose(old).compose(inv)
    return Cube(c.n, verts, arrows, check=False), isos


def _inverse_map(m: SpaceMap) -> SpaceMap:
    if m.domain.dim != m.codomain.dim or not m.is_injective():
        raise ValueError("only bijective maps invert")
    inv = la.solve(m.matrix.entries, la.identity(m.domain.dim))
    return SpaceMap(
        m.codomain, m.domain, ScaledMatrix(inv, Fraction(1, 1) / m.matrix.scale_sq)
    )
