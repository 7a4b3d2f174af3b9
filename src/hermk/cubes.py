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

Faces, degeneracies, swaps and cub build their cubes by one rule
(_assemble): each vertex index names a source, or None for a zero
vertex, and an arrow is the given arrow between distinct sources, the
identity between equal ones and a zero map at a zero vertex. The
sources of a face, degeneracy or swap are vertices of the cube it
reindexes; those of cub are the tags W(a, b) of its flag.

A flag and every flag its faces and degeneracies reach form one
family, and the family shares one table of what cub builds: cubes,
complements, vertex spaces, inclusions and projections, and the
certificates of the direction triples and squares it has validated. A
relation check draws one flag and evaluates cub on many of its
relatives, so each piece is built, and each distinct triple and square
checked, once per family. The table lives and dies with
the family's flags; nothing is cached across families.
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


@lru_cache(maxsize=None)
def _shape(n: int) -> tuple:
    """The index data of every n-cube, made once per n: up maps each
    index j of {0,1,2}^n, in product order, to its successors j + e_i
    (None where j[i] is 2), pairs lists the adjacent pairs (j, j + e_i)
    by j and then i, and pair_set holds them."""
    up = {
        j: tuple(j[:i] + (j[i] + 1,) + j[i + 1 :] if j[i] < 2 else None for i in range(n))
        for j in product(_VERT, repeat=n)
    }
    pairs = tuple((j, b) for j, bs in up.items() for b in bs if b is not None)
    return up, pairs, frozenset(pairs)


class Cube:
    """An n-cube of metrized spaces: vertices over {0,1,2}^n, one map
    per adjacent pair, every direction triple short exact and every
    square commuting. Any other vertex or arrow index set is refused.

    check=True (the default) validates the rest at construction.
    check=False skips it: faces, degeneracies and swaps of a validated
    cube need none (all three, and cub, are built by _assemble), and cub
    builds its cubes unchecked and then runs _validate against its
    family's table of certificates, which checks each distinct triple
    and square once per flag family."""

    __slots__ = ("n", "vertices", "arrows", "_hash")

    def __init__(self, n: int, vertices, arrows, check: bool = True):
        self.n = n
        self.vertices = dict(vertices)
        self.arrows = dict(arrows)
        self._hash = None
        up, _, pair_set = _shape(n)
        if self.vertices.keys() != up.keys():
            raise ValueError("vertex index set must be all of {0,1,2}^n")
        if self.arrows.keys() != pair_set:
            raise ValueError("arrows must cover exactly the adjacent pairs")
        if check:
            self._validate()

    def _validate(self, certified=None, vertex_key=None):
        """Check that every arrow matches its endpoints, every direction
        triple is short exact and every square commutes.

        A triple or square is named by the vertex_key of its vertices
        (by default the vertex index itself, so all are distinct), and
        one whose name is in the table certified is skipped: the caller
        vouches that the vertex keys fix the spaces and arrows involved.
        Each one that passes is entered there, and only then."""
        if certified is None:
            certified, vertex_key = {}, (lambda j: j)
        for (src, dst), m in self.arrows.items():
            if m.domain != self.vertices[src] or m.codomain != self.vertices[dst]:
                raise ValueError(f"arrow {src}->{dst} does not match its endpoints")
        up = _shape(self.n)[0]
        for i in range(self.n):
            for j in up:
                if j[i] == 0:
                    j1 = up[j][i]
                    name = ("triple",) + tuple(map(vertex_key, (j, j1, up[j1][i])))
                    if name not in certified:
                        self.triple(i + 1, j[:i] + j[i + 1 :])
                        certified[name] = True
        for j, succ in up.items():
            for i1, a in enumerate(succ):
                for i2 in range(i1 + 1, self.n):
                    b = succ[i2]
                    if a is None or b is None:
                        continue
                    ab = up[a][i2]
                    name = ("square",) + tuple(map(vertex_key, (j, a, b, ab)))
                    if name in certified:
                        continue
                    left = self.arrows[(a, ab)].compose(self.arrows[(j, a)])
                    right = self.arrows[(b, ab)].compose(self.arrows[(j, b)])
                    if left != right:
                        raise ValueError(
                            f"square at {j} in directions {i1 + 1},{i2 + 1} "
                            "does not commute"
                        )
                    certified[name] = True

    def vertex(self, j) -> MetrizedSpace:
        return self.vertices[tuple(j)]

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
        """The full structural data, in sorted index order."""
        vs = tuple((j, self.vertices[j].key()) for j in sorted(self.vertices))
        ars = tuple(
            (pair, self.arrows[pair].matrix.key()) for pair in sorted(self.arrows)
        )
        return (self.n, vs, ars)

    def __eq__(self, other):
        # the verdict of comparing key()s (for cubes whose arrows match
        # their vertices) without building them: dict comparison skips
        # the vertex and arrow objects that faces, degeneracies and
        # swaps share, and compares the rest by value
        if not isinstance(other, Cube):
            return NotImplemented
        return (
            self.n == other.n
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        # the shape only: hashing the whole key hashed every Gram and
        # arrow entry, while == still compares the full structure
        if self._hash is None:
            self._hash = hash((self.n, self._dims()))
        return self._hash

    def _dims(self) -> tuple:
        return tuple(self.vertices[j].dim for j in sorted(self.vertices))

    def __repr__(self):
        return f"Cube(n={self.n}, dims={self._dims()})"


def _assemble(m: int, source, vertex, arrow) -> Cube:
    """The m-cube of the one construction rule (see the module
    docstring): vertex j is vertex(source(j)), or the zero space where
    source(j) is None; the arrow between distinct sources a and b is
    arrow((a, b)). The identity and zero maps are made once per pair of
    vertex spaces and shared. The cube is not validated."""
    up, pairs, _ = _shape(m)
    src = {j: source(j) for j in up}
    vertices = {j: ZERO_SPACE if s is None else vertex(s) for j, s in src.items()}
    shared: dict = {}
    arrows = {}
    for pair in pairs:
        a, b = pair
        sa, sb = src[a], src[b]
        if sa is not None and sb is not None and sa != sb:
            arrows[pair] = arrow((sa, sb))
            continue
        va, vb = vertices[a], vertices[b]
        zero = sa is None or sb is None
        key = (id(va), id(vb), zero)
        mp = shared.get(key)
        if mp is None:
            mp = shared[key] = zero_map(va, vb) if zero else identity_map(va)
        arrows[pair] = mp
    return Cube(m, vertices, arrows, check=False)


def _sliced(c: Cube, m: int, source) -> Cube:
    """The m-cube whose vertex j is c's vertex source(j)."""
    return _assemble(m, source, c.vertices.__getitem__, c.arrows.__getitem__)


def face(c: Cube, i: int, k: int) -> Cube:
    """The (n-1)-cube obtained by fixing coordinate i (1-based) to k."""
    if not 1 <= i <= c.n:
        raise ValueError("face direction out of range")
    if k not in _VERT:
        raise ValueError("face value must be 0, 1 or 2")
    pos = i - 1
    return _sliced(c, c.n - 1, lambda bj: _insert(bj, pos, k))


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
    dead = 2 if kind == 0 else 0
    return _sliced(
        c, c.n + 1, lambda j: None if j[pos] == dead else j[:pos] + j[pos + 1 :]
    )


def cube_swap(c: Cube, i: int) -> Cube:
    """The cube with directions i and i+1 (1-based) interchanged."""
    if not 1 <= i <= c.n - 1:
        raise ValueError("swap needs two adjacent directions")
    pos = i - 1
    return _sliced(c, c.n, lambda j: j[:pos] + (j[pos + 1], j[pos]) + j[pos + 2 :])


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
    structural identity: the terms are keyed by the cubes themselves,
    hashed by their shape and compared by their full structure."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=()):
        self.n = n
        self._terms: dict = {}
        for coeff, cube in terms:
            self._add(coeff, cube)

    def _add(self, coeff: int, cube: Cube):
        if cube.n != self.n:
            raise ValueError("mixed cube dimensions in one sum")
        prev = self._terms.get(cube)
        total = coeff + (prev[0] if prev else 0)
        if total:
            self._terms[cube] = (total, cube)
        elif prev:
            del self._terms[cube]

    @staticmethod
    def single(cube: Cube, coeff: int = 1) -> "CubeSum":
        return CubeSum(cube.n, ((coeff, cube),))

    def summands(self):
        return tuple(self._terms.values())

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
    held as its EchelonBasis (an entry given as a span is taken as it
    is, and faces and degeneracies pass the bases along), so equal
    subspace chains give equal flags. Nesting is checked by one
    containment call of each entry's rows in the next entry's basis,
    and an entry without rows is the zero subspace. chain reads the
    entries' rows.

    A constructed flag starts a family with a fresh private table
    (_cubes); face and degeneracy hand the same table to the flags they
    derive. A zero entry is the family's one zero basis, which
    degeneracy(0) prepends. cub
    looks its cubes, complements, vertex spaces, arrows and certificates
    up there by the EchelonBasis objects involved (a cube by the tuple of
    its flag's bases). Those identity keys are sound because a span is
    a value: nothing writes into an EchelonBasis after it is built, so
    one basis object stands for one subspace for as long as the table
    holds it. Complements are interned by the integer form of their
    rows (a Mat hashes its Fraction view, so the form is the key), so a
    span reached two ways is one object."""

    __slots__ = ("ambient", "bases", "_cubes")

    def __init__(self, ambient: MetrizedSpace, chain):
        self.ambient = ambient
        self._cubes: dict = {}
        bases = (
            b if isinstance(b, la.EchelonBasis) else la.EchelonBasis(b, ambient.dim)
            for b in chain
        )
        self.bases = tuple(b if b.rows else _zero_basis(self) for b in bases)
        for small, big in zip(self.bases, self.bases[1:]):
            if not big.contains(small.rows):
                raise ValueError("flag entries must be nested")

    def _derive(self, bases: tuple) -> "Flag":
        """The flag of nested bases in this flag's family."""
        g = object.__new__(Flag)
        g.ambient = self.ambient
        g.bases = bases
        g._cubes = self._cubes
        return g

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
        entry, i >= 1 deletes the i-th entry. The empty flag has none."""
        if not 0 <= i <= self.length or not self.bases:
            raise ValueError("face index out of range")
        if i == 0:
            first = self.bases[0]
            return self._derive(
                tuple(_ortho_in(self, first, big) for big in self.bases[1:])
            )
        return self._derive(self.bases[: i - 1] + self.bases[i:])

    def degeneracy(self, i: int) -> "Flag":
        """Simplicial degeneracy: i = 0 prepends the zero subspace,
        i >= 1 repeats the i-th entry."""
        if not 0 <= i <= self.length:
            raise ValueError("degeneracy index out of range")
        if i == 0:
            return self._derive((_zero_basis(self),) + self.bases)
        return self._derive(self.bases[:i] + (self.bases[i - 1],) + self.bases[i:])


def _memo(table: dict, key, build):
    """table[key], made by build() on a miss. A build that raises
    stores nothing: the entries it added for its parts go too, since
    they may be what made it fail."""
    value = table.get(key)
    if value is None:
        mark = len(table)
        try:
            value = build()
        except BaseException:
            for k in list(table)[mark:]:
                del table[k]
            raise
        table[key] = value
    return value


def _interned(f: Flag, basis: la.EchelonBasis) -> la.EchelonBasis:
    """The family's one basis object for span(basis), by its unique
    integer form; basis itself when the family has none yet."""
    rows = basis.rows
    return _memo(f._cubes, ("span", rows.int_rows, rows.den), lambda: basis)


def _zero_basis(f: Flag) -> la.EchelonBasis:
    """The zero subspace of f's ambient space, one object per family."""
    return _interned(f, la.EchelonBasis.zero(f.ambient.dim))


def _ortho_in(f: Flag, small: la.EchelonBasis, big: la.EchelonBasis):
    """Echelon basis of the orthogonal complement of span(small) inside
    span(big), both entries or complements in f's family, in ambient
    coordinates; built once per (small, big) pair and interned (see
    Flag). The complement of 0 is big itself, and that of big in big the
    family's zero basis."""
    if not small.rows:
        return big
    if small is big:
        return _zero_basis(f)

    def build():
        amb = f.ambient
        rel = la.matmul(la.matmul(small.rows, amb.gram), la.transpose(big.rows))
        rows = la.matmul(la.nullspace(rel), big.rows)
        return _interned(f, la.EchelonBasis(rows, amb.dim))

    return _memo(f._cubes, ("ortho", small, big), build)


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
    return SpaceMap(sub_space, sup_space, sup.coords(sub.rows))


def _orthoprojection_map(src, dst, src_space, dst_space, gram) -> SpaceMap:
    """The orthogonal projection of span(src) onto span(dst), echelon
    bases in ambient coordinates with metric gram. dst_space carries the
    induced Gram B G B^T of dst's rows B."""
    rhs = la.matmul(la.matmul(dst.rows, gram), la.transpose(src.rows))
    return SpaceMap(src_space, dst_space, la.solve(dst_space.gram, rhs))


def cub(f: Flag) -> Cube:
    """The (n-1)-cube of a length-n flag.

    Vertices realize complements W(a, b) of E_a inside E_b with the
    induced metric; arrows are subspace inclusions (b grows), metric
    orthoprojections (a grows), identities, or zero. Quotients are
    represented by orthogonal complements, so the three kinds of faces
    of the construction agree with flag faces structurally.

    The cube and its pieces are stored in the table of f's family (see
    Flag), so each is built once per family. The cube is validated
    there too: each direction triple and square is named by the bases
    of its vertices, checked the first time the family meets that name,
    and certified in the table only once it has passed. A build that
    raises leaves nothing in the table, certificates included.
    """
    if f.length < 1:
        raise ValueError("cub needs a flag with at least one entry")
    return _memo(f._cubes, ("cub", f.bases), lambda: _build_cub(f))


def _build_cub(f: Flag) -> Cube:
    n = f.length
    table = f._cubes
    tags = _cub_tags(n)
    bases: dict = {}
    spaces: dict = {None: ZERO_SPACE}
    for t in set(tags.values()):
        if t is not None:
            a, b = t
            big = f.bases[b - 1]
            basis = big if a == 0 else _ortho_in(f, f.bases[a - 1], big)
            bases[t] = basis
            spaces[t] = _memo(
                table,
                ("space", basis),
                lambda: induced_subspace_metric(f.ambient, basis),
            )

    def arrow(step) -> SpaceMap:
        t1, t2 = step
        b1, b2, s1, s2 = bases[t1], bases[t2], spaces[t1], spaces[t2]
        if t1[0] == t2[0] and t1[1] < t2[1]:
            build, kind = (lambda: _inclusion_map(b1, b2, s1, s2)), "incl"
        elif t1[1] == t2[1] and t1[0] < t2[0]:
            gram = f.ambient.gram
            build, kind = (lambda: _orthoprojection_map(b1, b2, s1, s2, gram)), "proj"
        else:
            raise AssertionError(f"unexpected tag step {t1} -> {t2}")
        return _memo(table, (kind, b1, b2), build)

    c = _assemble(n - 1, tags.__getitem__, spaces.__getitem__, arrow)
    # A triple or square is named in the table by the echelon bases of
    # its vertices, None for a zero vertex whatever basis it came from.
    # The name fixes everything it checks: each vertex is the induced
    # metric on its basis (the zero space for None), and each arrow from
    # basis B1 to basis B2 is the orthogonal projection of span(B1) onto
    # span(B2) written over the two bases. An inclusion is that
    # projection when span(B1) lies in span(B2), an identity is it when
    # B1 is B2, and a map from or to a zero vertex is the empty matrix.
    # So a name certified once in the family holds for every cube that
    # has it.
    names = {j: bases[t] if spaces[t].dim else None for j, t in tags.items()}
    c._validate(table, names.__getitem__)
    return c


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
    lower = {cub(f.face(j).degeneracy(i - 1).degeneracy(i - 1)) for j in range(i)}
    return all(
        is_structurally_degenerate(c) or c in lower for _, c in total.summands()
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

    up, pairs, _ = _shape(n)
    sums = {j: summands(j) for j in up}
    spaces = {
        j: ss[0][1] if len(ss) == 1 else direct_sum_space(ss)
        for j, ss in sums.items()
    }
    arrows = {
        (s, d): _summand_matching_map(sums[s], spaces[s], sums[d], spaces[d])
        for s, d in pairs
    }
    return Cube(n, spaces, arrows)


def _summand_matching_map(src_parts, src_space, dst_parts, dst_space) -> SpaceMap:
    """The identity block where a source and a target summand share a
    tag, zero elsewhere."""
    col = {tag: j for j, (tag, _) in enumerate(src_parts)}
    blocks = {(i, col[t]): la.identity(s.dim) for i, (t, s) in enumerate(dst_parts) if t in col}
    entries = la.block_matrix([s.dim for _, s in dst_parts], [s.dim for _, s in src_parts], blocks)
    return SpaceMap(src_space, dst_space, entries)


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
    up, pairs, _ = _shape(c.n)
    for j in up:
        comp = identity_map(c.vertices[j])
        cur = j
        for pos in range(c.n):
            if j[pos] == 0:
                nxt = up[cur][pos]
                comp = c.arrows[(cur, nxt)].compose(comp)
                cur = nxt
        big = c.vertices[cur]
        img = comp.image_basis()
        sub = induced_subspace_metric(big, img)
        coords = la.solve(la.transpose(img), comp.matrix.entries)
        isos[j] = SpaceMap(c.vertices[j], sub, ScaledMatrix(coords, comp.matrix.scale_sq))
        verts[j] = sub
    arrows = {}
    for src, dst in pairs:
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
