"""Chain complexes over Q, cones, truncations, and modified homology.

Complexes are homological: the differential lowers degree. Groups are
presented as Q-vector spaces with deterministic reduced-row-echelon
representatives: a PresentedQuotient is the echelon bases of its cycles
and boundaries (each an RREF Mat plus pivots), its representatives are
a Mat, and its normal forms and coordinates take and return Mats, so
the induced and structure maps below are products, block layouts and
one coordinate call each. The modified homology of a chain map
rho: A -> B in degree n is the space of pairs (a, b) with a an n-cycle
of A and b in B_{n+1} taken modulo the relations (0, d b') and
(d a', rho a'); it is computed both from that presentation and as H_n
of the cone of rho followed by the truncation that kills degrees <= n.
The cone sign is fixed as d(a, b) = (d a, rho(a) - d b), the choice
under which the two standard exact sequences below come out exact.

Each presentation is built once per object. A ChainComplex keeps its
H_n and its C_n / im d in per-degree tables, and a ChainMap keeps its
cone, its truncations and its direct modified homology groups; the
methods of the same names read these tables and fill them on a miss
from the module-level functions, which always build from scratch (and
are the oracle the tables are tested against). A table lives and dies
with its object, so one verification trial shares its presentations
and the next starts empty. The tables rely on one contract: a complex
or map is not mutated after construction; only the constructors assign
dims, diffs, source, target and maps. A degree without a stored matrix
needs no table: its differential or component is the shared la.zeros
of its shape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import linalg as la

__all__ = [
    "ChainComplex",
    "ChainMap",
    "PresentedQuotient",
    "quotient_presentation",
    "zero_chain_map",
    "identity_chain_map",
    "compose_chain_maps",
    "direct_sum_complex",
    "dsum_complex_projection",
    "cone",
    "cone_les_check",
    "truncate_above",
    "truncated_map",
    "homology",
    "forms_modulo_exact",
    "modified_homology",
    "modified_homology_via_cone",
    "modified_maps",
    "verify_modified_sequences",
    "truncated_cone_cases",
    "induced_on_quotients",
    "induced_modified_map",
    "is_quasi_iso",
]


def _kept(table: dict, key, build):
    """table[key], from build() when it is missing."""
    got = table.get(key)
    if got is None:
        got = table[key] = build()
    return got


class ChainComplex:
    """Finitely supported dims per degree plus differentials d_n:
    C_n -> C_{n-1}; d composed with d is zero. Raw differentials are
    coerced to Mats.

    homology(n) and forms_modulo_exact(n) are built once per degree and
    kept, so dims and diffs must not change after construction. diff(n)
    of a degree without a stored matrix is the shared la.zeros of its
    shape."""

    __slots__ = ("dims", "diffs", "_homology", "_forms")

    def __init__(self, dims, diffs, check: bool = True):
        self.dims = {n: d for n, d in dict(dims).items() if d}
        self.diffs = {
            n: m if isinstance(m, la.Mat) else la.mat(m)
            for n, m in dict(diffs).items()
            if self.dims.get(n) and self.dims.get(n - 1)
        }
        if check:
            for n, m in self.diffs.items():
                if la.shape(m) != (self.dim(n - 1), self.dim(n)):
                    raise ValueError(f"differential at {n} has the wrong shape")
            for n in self.diffs:
                if n + 1 in self.diffs:
                    if not la.is_zero(la.matmul(self.diffs[n], self.diffs[n + 1])):
                        raise ValueError(f"d.d != 0 at degree {n + 1}")
        self._homology: dict[int, PresentedQuotient] = {}
        self._forms: dict[int, PresentedQuotient] = {}

    def homology(self, n: int) -> PresentedQuotient:
        """H_n, built by the module-level homology on first use."""
        return _kept(self._homology, n, lambda: homology(self, n))

    def forms_modulo_exact(self, n: int) -> PresentedQuotient:
        """C_n / im d, built by the module-level forms_modulo_exact on
        first use."""
        return _kept(self._forms, n, lambda: forms_modulo_exact(self, n))

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def diff(self, n: int) -> la.Mat:
        m = self.diffs.get(n)
        if m is not None:
            return m
        return la.zeros(self.dim(n - 1), self.dim(n))

    def is_zero(self) -> bool:
        return not self.dims

    def __repr__(self):
        return f"ChainComplex(dims={dict(sorted(self.dims.items()))})"


class ChainMap:
    """Degreewise matrices commuting with the differentials. Raw
    components are coerced to Mats.

    cone(), truncated_map(n) and modified_homology(n) are built once and
    kept, so source, target and maps must not change after
    construction. map_at(n) of a degree without a stored matrix is the
    shared la.zeros of its shape."""

    __slots__ = ("source", "target", "maps", "_cone", "_truncated", "_modified")

    def __init__(self, source, target, maps, check: bool = True):
        self.source = source
        self.target = target
        self.maps = {
            n: m if isinstance(m, la.Mat) else la.mat(m)
            for n, m in dict(maps).items()
            if source.dim(n) and target.dim(n)
        }
        if check:
            for n, m in self.maps.items():
                if la.shape(m) != (target.dim(n), source.dim(n)):
                    raise ValueError(f"component at {n} has the wrong shape")
            degrees = set(source.dims) | set(target.dims)
            for n in degrees:
                lhs = la.matmul(self.target.diff(n), self.map_at(n))
                rhs = la.matmul(self.map_at(n - 1), self.source.diff(n))
                if lhs != rhs:
                    raise ValueError(f"does not commute with d at degree {n}")
        self._cone: ChainComplex | None = None
        self._truncated: dict[int, ChainMap] = {}
        self._modified: dict[int, PresentedQuotient] = {}

    def cone(self) -> ChainComplex:
        """The mapping cone, built by the module-level cone on first use."""
        if self._cone is None:
            self._cone = cone(self)
        return self._cone

    def truncated_map(self, n: int) -> ChainMap:
        """The truncation above n, built by the module-level
        truncated_map on first use."""
        return _kept(self._truncated, n, lambda: truncated_map(self, n))

    def modified_homology(self, n: int) -> PresentedQuotient:
        """The direct presentation, built by the module-level
        modified_homology on first use."""
        return _kept(self._modified, n, lambda: modified_homology(self, n))

    def map_at(self, n: int) -> la.Mat:
        m = self.maps.get(n)
        if m is not None:
            return m
        return la.zeros(self.target.dim(n), self.source.dim(n))


def zero_chain_map(a: ChainComplex, b: ChainComplex) -> ChainMap:
    return ChainMap(a, b, {})


def compose_chain_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f."""
    if g.source is not f.target and g.source.dims != f.target.dims:
        raise ValueError("compose: middle complexes differ")
    maps = {
        n: la.matmul(g.map_at(n), f.map_at(n))
        for n in set(f.source.dims) & set(g.target.dims)
    }
    return ChainMap(f.source, g.target, maps, check=False)


def identity_chain_map(a: ChainComplex) -> ChainMap:
    return ChainMap(a, a, {n: la.identity(d) for n, d in a.dims.items()})


def direct_sum_complex(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """Degreewise direct sum, a-coordinates first."""
    degrees = set(a.dims) | set(b.dims)
    dims = {n: a.dim(n) + b.dim(n) for n in degrees}
    diffs = {}
    for n in degrees:
        rows, cols = dims.get(n - 1, 0), dims[n]
        if rows and cols:
            diffs[n] = la.block_matrix(
                (a.dim(n - 1), b.dim(n - 1)),
                (a.dim(n), b.dim(n)),
                {(0, 0): a.diff(n), (1, 1): b.diff(n)},
            )
    return ChainComplex(dims, diffs)


def dsum_complex_projection(a: ChainComplex, b: ChainComplex) -> ChainMap:
    """a (+) b -> a; a quasi-isomorphism whenever b is acyclic."""
    s = direct_sum_complex(a, b)
    maps = {
        n: la.block_matrix((a.dim(n),), (a.dim(n), b.dim(n)), {(0, 0): la.identity(a.dim(n))})
        for n in a.dims
    }
    return ChainMap(s, a, maps, check=False)


def cone(f: ChainMap) -> ChainComplex:
    """s(f)_n = A_n (+) B_{n+1}, d(a, b) = (d a, f(a) - d b)."""
    a, b = f.source, f.target
    degrees = set(a.dims) | {n - 1 for n in b.dims}
    dims = {n: a.dim(n) + b.dim(n + 1) for n in degrees}
    diffs = {}
    for n in degrees:
        rows = [a.dim(n - 1), b.dim(n)]
        cols = [a.dim(n), b.dim(n + 1)]
        diffs[n] = la.block_matrix(
            rows,
            cols,
            {
                (0, 0): a.diff(n),
                (1, 0): f.map_at(n),
                (1, 1): la.scale(b.diff(n + 1), -1),
            },
        )
    return ChainComplex(dims, diffs)


def truncate_above(c: ChainComplex, n: int) -> ChainComplex:
    """Degrees <= n replaced by zero, differentials restricted."""
    dims = {r: d for r, d in c.dims.items() if r > n}
    diffs = {r: m for r, m in c.diffs.items() if r > n + 1}
    return ChainComplex(dims, diffs, check=False)


def truncated_map(f: ChainMap, n: int) -> ChainMap:
    """f followed by the projection onto the truncation above n."""
    target = truncate_above(f.target, n)
    return ChainMap(f.source, target, {r: m for r, m in f.maps.items() if r > n})


@dataclass(frozen=True, eq=False)
class PresentedQuotient:
    """Subquotient span(cycles)/span(boundaries) of Q^width, read off the
    echelon bases of the two spans, which quotient_presentation builds
    once; the boundaries must lie inside the cycles. Then the boundary
    pivots are cycle pivots, and the cycle echelon rows at the other
    cycle pivots, the pivots of the presentation, are zero at every
    boundary pivot: they are the representatives, a basis of the
    quotient. Classes are canonicalized by clearing the boundary pivots,
    and a class's coordinates over the representatives are its normal
    form at their pivots, so membership, normal forms and coordinates
    need no further elimination. normal_form and coords take vectors as
    the rows of a Mat and return a Mat; vectors with float entries
    raise TypeError."""

    cycles: la.EchelonBasis
    boundaries: la.EchelonBasis

    @property
    def width(self) -> int:
        return self.cycles.rows.ncols

    @functools.cached_property
    def pivots(self) -> tuple:
        """The cycle pivots that are not boundary pivots, in order."""
        bound = set(self.boundaries.pivots)
        return tuple(p for p in self.cycles.pivots if p not in bound)

    @functools.cached_property
    def reps(self) -> la.Mat:
        """The cycle echelon rows at pivots."""
        keep = set(self.pivots)
        at = [i for i, p in enumerate(self.cycles.pivots) if p in keep]
        return la.submatrix(self.cycles.rows, at, range(self.width))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def normal_form(self, vectors) -> la.Mat:
        """Row j is the normal form of row j of vectors; ValueError when
        a row is not a cycle."""
        m = la.stack(vectors, self.width)
        if not self.cycles.contains(m):
            raise ValueError("vector is not a cycle of this presentation")
        if not self.pivots:
            # the cycles are all boundaries: every class is zero
            return la.zeros(len(m), self.width)
        return self.boundaries.reduce(m)

    def coords(self, vectors) -> la.Mat:
        """The matrix whose column j holds the coefficients of the class
        of row j of vectors over the representatives."""
        # the normal form is a cycle that is zero at every boundary
        # pivot, so it is the sum of the reps weighted by its entries at
        # their pivots, where each rep is 1 and the others are 0
        return la.columns(self.normal_form(vectors), self.pivots)


def _zero_presentation() -> PresentedQuotient:
    """The presentation of the zero group, the only subquotient of Q^0."""
    return PresentedQuotient(la.EchelonBasis.zero(0), la.EchelonBasis.zero(0))


def quotient_presentation(cycles, boundary_rows, width: int) -> PresentedQuotient:
    """span(cycles) / span(boundary_rows) in Q^width, with the cycle
    echelon rows at the cycle pivots that are not boundary pivots as
    representatives; ValueError when a boundary is not a cycle. cycles
    is an EchelonBasis of that width, taken as it is, or rows."""
    if not isinstance(cycles, la.EchelonBasis):
        cycles = la.EchelonBasis(cycles, width)
    elif cycles.rows.ncols != width:
        raise ValueError(f"cycles of width {cycles.rows.ncols} in Q^{width}")
    boundaries = la.EchelonBasis(boundary_rows, width)
    if not cycles.contains(boundaries.rows):
        raise ValueError("boundaries must lie inside cycles")
    return PresentedQuotient(cycles, boundaries)


def homology(c: ChainComplex, n: int) -> PresentedQuotient:
    """ker d_n modulo im d_{n+1}."""
    if not c.dim(n):
        return _zero_presentation()
    cycles = la.EchelonBasis.kernel(c.diff(n))
    boundaries = la.transpose(c.diff(n + 1))
    return quotient_presentation(cycles, boundaries, c.dim(n))


def forms_modulo_exact(c: ChainComplex, n: int) -> PresentedQuotient:
    """C_n modulo im d_{n+1} (no cycle condition)."""
    width = c.dim(n)
    # the kernel of a map to Q^0 is all of C_n, with no elimination
    cycles = la.EchelonBasis.kernel(la.zeros(0, width))
    return quotient_presentation(cycles, la.transpose(c.diff(n + 1)), width)


def modified_homology(f: ChainMap, n: int) -> PresentedQuotient:
    """Direct presentation on A_n (+) B_{n+1}: cycles are pairs (a, b)
    with d a = 0; relations are (0, d b') and (d a', f a')."""
    a, b = f.source, f.target
    wa, wb = a.dim(n), b.dim(n + 1)
    width = wa + wb
    if not width:
        return _zero_presentation()
    # pairs with d a = 0: the kernel of [d_n | 0]
    cycles = la.EchelonBasis.kernel(
        la.block_matrix((a.dim(n - 1),), (wa, wb), {(0, 0): a.diff(n)})
    )
    # (d a', f a') for each basis vector a' of A_{n+1}, then (0, d b')
    rel = la.transpose(
        la.block_matrix(
            (wa, wb),
            (a.dim(n + 1), b.dim(n + 2)),
            {(0, 0): a.diff(n + 1), (1, 0): f.map_at(n + 1), (1, 1): b.diff(n + 2)},
        )
    )
    return quotient_presentation(cycles, rel, width)


def modified_homology_via_cone(f: ChainMap, n: int) -> PresentedQuotient:
    """The same group as H_n of the cone of the truncated map; the cone
    coordinates at degree n are literally A_n (+) B_{n+1}. Read from the
    tables of f, its truncation and that cone."""
    return f.truncated_map(n).cone().homology(n)


@dataclass(frozen=True)
class ModifiedMaps:
    """The three structure maps around a modified homology group, as
    matrices over the stored presentations."""

    hat: PresentedQuotient
    forms: PresentedQuotient  # B_{n+1} / im d
    cycles_b: la.Mat  # basis rows of Z(B_n)
    from_form: la.Mat  # forms -> hat, b |-> [(0, -b)]
    to_cycle_class: la.Mat  # hat -> H_n(A), [(a, b)] |-> [a]
    to_form_cycle: la.Mat  # hat -> Z(B_n), [(a, b)] |-> f(a) - d(b)


def modified_maps(f: ChainMap, n: int) -> ModifiedMaps:
    """The structure maps of hat H_n(f), over the presentations the
    tables of f and its complexes keep."""
    a, b = f.source, f.target
    wa = a.dim(n)
    hat, ha = f.modified_homology(n), a.homology(n)
    forms = b.forms_modulo_exact(n + 1)
    zb = b.homology(n).cycles

    from_form = hat.coords(_padded(wa, la.scale(forms.reps, -1)))
    zeta = ha.coords(la.submatrix(hat.reps, range(hat.dim), range(wa)))
    # (a, b) |-> f(a) - d(b) is the matrix [f_n | -d_{n+1}]
    rho = la.block_matrix(
        (b.dim(n),),
        (wa, b.dim(n + 1)),
        {(0, 0): f.map_at(n), (0, 1): la.scale(b.diff(n + 1), -1)},
    )
    try:
        to_form_cycle = zb.coords(_images(rho, hat.reps))
    except ValueError:
        raise AssertionError("structure map must land in the cycle space") from None
    return ModifiedMaps(hat, forms, zb.rows, from_form, zeta, to_form_cycle)


def _padded(width: int, rows: la.Mat) -> la.Mat:
    """The rows (0, r) of Q^width (+) Q^rows.ncols, for r the rows."""
    return la.block_matrix((len(rows),), (width, rows.ncols), {(0, 1): rows})


def _images(m: la.Mat, rows: la.Mat) -> la.Mat:
    """The rows m r, for r the rows."""
    return la.matmul(rows, la.transpose(m))


# the inner nodes of the two sequences, in chain order
_NODES = {
    "a": ("a-inject", "a-exact-hat", "a-exact-forms"),
    "b": ("b-exact-forms", "b-exact-hat", "b-surject"),
}


def _sequence_verdict(seq: str, n: int, *mats: la.Mat) -> tuple[str, bool]:
    """One la.is_exact call on the chain of sequence seq in degree n;
    when it fails, the entry names the first failing inner node."""
    if la.is_exact(*mats):
        return (f"{seq}-exact n={n}", True)
    node, _ = la.exactness_defect(*mats)
    return (f"{_NODES[seq][node - 1]} n={n}", False)


def verify_modified_sequences(f: ChainMap) -> list[tuple[str, bool]]:
    """Exactness of the two standard sequences around every modified
    homology group of f, one (name, ok) entry per sequence and degree.

    (a) 0 -> H_n(s(f)) -> hat H_n -> Z(B_n) -> H_{n-1}(s(f))
    (b) H_{n+1}(A) -> B_{n+1}/im d -> hat H_n -> H_n(A) -> 0

    Each sequence is one la.is_exact call on its maps between zero ends.
    A failing entry is named after the first node where the sequence is
    not exact (a-inject, a-exact-hat, a-exact-forms; b-exact-forms,
    b-exact-hat, b-surject). The kernel description H_n(s(f)) =
    ker(hat H_n -> Z(B_n)) needs no check of its own: exactness of (a)
    at H_n(s(f)) and at hat H_n gives nullity(hat H_n -> Z(B_n)) =
    rank(H_n(s(f)) -> hat H_n) = dim H_n(s(f)).
    """
    a, b = f.source, f.target
    degrees = sorted(set(a.dims) | set(b.dims))
    if not degrees:
        return [("empty", True)]
    cn = f.cone()
    out = []
    for n in range(degrees[0] - 1, degrees[-1] + 2):
        ha_n = a.homology(n)
        ha_next = a.homology(n + 1)
        mm = modified_maps(f, n)
        hat, forms = mm.hat, mm.forms
        hcone_n = cn.homology(n)
        hcone_prev = cn.homology(n - 1)

        m1 = hat.coords(hcone_n.reps)
        # Z(B_n) -> H_{n-1}(s(f)), z |-> [(0, z)]
        m3 = hcone_prev.coords(_padded(a.dim(n - 1), b.homology(n).cycles.rows))
        zero_in = la.zeros(hcone_n.dim, 0)
        out.append(_sequence_verdict("a", n, zero_in, m1, mm.to_form_cycle, m3))

        m1b = forms.coords(_images(f.map_at(n + 1), ha_next.reps))
        zero_out = la.zeros(0, ha_n.dim)
        out.append(
            _sequence_verdict("b", n, m1b, mm.from_form, mm.to_cycle_class, zero_out)
        )
    return out


def truncated_cone_cases(f: ChainMap, n: int) -> bool:
    """Dimension check of the three regimes of the truncated cone:
    above n it matches the full cone, at n the modified homology, and
    below n the homology of the source."""
    cn_full = f.cone()
    cn_trunc = f.truncated_map(n).cone()
    degrees = sorted(set(cn_full.dims) | set(cn_trunc.dims) | set(f.source.dims))
    if not degrees:
        return True
    for r in range(degrees[0] - 1, degrees[-1] + 2):
        got = cn_trunc.homology(r).dim
        if r > n:
            want = cn_full.homology(r).dim
        elif r == n:
            want = f.modified_homology(n).dim
        else:
            want = f.source.homology(r).dim
        if got != want:
            return False
    return True


def induced_on_quotients(
    m: la.Mat, src: PresentedQuotient, dst: PresentedQuotient
) -> la.Mat:
    """Matrix of the map induced by m on presented subquotients.
    Raises when m is not well defined on the classes."""
    if la.shape(m) != (dst.width, src.width):
        raise ValueError(f"a {la.shape(m)} matrix between widths {src.width} and {dst.width}")
    mt = la.transpose(m)
    if not dst.boundaries.contains(la.matmul(src.boundaries.rows, mt)):
        raise ValueError("relations do not map into relations")
    return dst.coords(la.matmul(src.reps, mt))


def induced_modified_map(
    f1: ChainMap,
    f2: ChainMap,
    rho: ChainMap,
    rho2: ChainMap,
    n: int,
) -> la.Mat:
    """The map hat H_n(rho) -> hat H_n(rho2) induced by a commuting
    square (f1 on sources, f2 on targets): [(a, b)] -> [(f1 a, f2 b)],
    between the presentations the tables of rho and rho2 keep."""
    if f1.source is not rho.source and f1.source.dims != rho.source.dims:
        raise ValueError("f1 must start at the source of rho")
    degrees = set(rho.source.dims) | set(rho.target.dims) | set(rho2.source.dims)
    for r in degrees:
        lhs = la.matmul(rho2.map_at(r), f1.map_at(r))
        rhs = la.matmul(f2.map_at(r), rho.map_at(r))
        if lhs != rhs:
            raise ValueError(f"square does not commute at degree {r}")
    dims1 = [rho.source.dim(n), rho.target.dim(n + 1)]
    dims2 = [rho2.source.dim(n), rho2.target.dim(n + 1)]
    blk = la.block_matrix(dims2, dims1, {(0, 0): f1.map_at(n), (1, 1): f2.map_at(n + 1)})
    return induced_on_quotients(blk, rho.modified_homology(n), rho2.modified_homology(n))


def is_quasi_iso(f: ChainMap) -> bool:
    degrees = set(f.source.dims) | set(f.target.dims)
    for n in degrees:
        hs, ht = f.source.homology(n), f.target.homology(n)
        if hs.dim != ht.dim:
            return False
        m = induced_on_quotients(f.map_at(n), hs, ht)
        if la.rank(m) != hs.dim:
            return False
    return True


def cone_les_check(f: ChainMap) -> bool:
    """Exactness of ... -> H_{n+1}(A) -> H_{n+1}(B) -> H_n(s(f)) ->
    H_n(A) -> H_n(B) -> ... at every node, by la.is_exact."""
    a, b = f.source, f.target
    cn = f.cone()
    degrees = sorted(set(a.dims) | set(b.dims))
    if not degrees:
        return True
    for n in range(degrees[0] - 1, degrees[-1] + 2):
        ha_n, hb_n = a.homology(n), b.homology(n)
        ha_next, hb_next = a.homology(n + 1), b.homology(n + 1)
        hc = cn.homology(n)
        wa = a.dim(n)

        # H_{n+1}(B) -> H_n(s(f)), [b] |-> [(0, b)]
        m_in = hc.coords(_padded(wa, hb_next.reps))
        m_proj = induced_on_quotients(
            la.block_matrix([wa], [wa, b.dim(n + 1)], {(0, 0): la.identity(wa)}),
            hc,
            ha_n,
        )
        m_f_n = induced_on_quotients(f.map_at(n), ha_n, hb_n)
        m_f_next = induced_on_quotients(f.map_at(n + 1), ha_next, hb_next)

        if not la.is_exact(m_f_next, m_in, m_proj, m_f_n):
            return False
    return True
