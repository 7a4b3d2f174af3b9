"""Chain complexes over Q, cones, truncations, and modified homology.

Complexes are homological: the differential lowers degree. Groups are
presented as Q-vector spaces with deterministic reduced-row-echelon
representatives. The modified homology of a chain map rho: A -> B in
degree n is the space of pairs (a, b) with a an n-cycle of A and b in
B_{n+1} taken modulo the relations (0, d b') and (d a', rho a'); it is
computed both from that presentation and as H_n of the cone of rho
followed by the truncation that kills degrees <= n. The cone sign is
fixed as d(a, b) = (d a, rho(a) - d b), the choice under which the two
standard exact sequences below come out exact.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from fractions import Fraction

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


class ChainComplex:
    """Finitely supported dims per degree plus differentials d_n:
    C_n -> C_{n-1}; d composed with d is zero. Raw differentials are
    coerced to Mats."""

    __slots__ = ("dims", "diffs")

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

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def diff(self, n: int) -> la.Mat:
        m = self.diffs.get(n)
        if m is not None:
            return m
        return la.zeros(self.dim(n - 1), self.dim(n))

    def support(self):
        return sorted(self.dims)

    def is_zero(self) -> bool:
        return not self.dims

    def __repr__(self):
        return f"ChainComplex(dims={dict(sorted(self.dims.items()))})"


ZERO_COMPLEX = ChainComplex({}, {})


class ChainMap:
    """Degreewise matrices commuting with the differentials. Raw
    components are coerced to Mats."""

    __slots__ = ("source", "target", "maps")

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
    """Subquotient span(cycles)/span(boundaries) of Q^width with
    deterministic representatives. cycles and boundaries are the echelon
    bases of the two spans, built once by quotient_presentation, so
    membership and normal forms need no further elimination; classes
    are canonicalized by clearing the boundary pivots."""

    cycles: la.EchelonBasis
    boundaries: la.EchelonBasis
    reps: tuple

    @property
    def width(self) -> int:
        return self.cycles.width

    @functools.cached_property
    def _rep_transform(self) -> la.EchelonBasis:
        """Echelon basis of [reps | I]; see coords."""
        ident = la.identity(self.dim)
        return la.EchelonBasis(
            [tuple(r) + e for r, e in zip(self.reps, ident)], self.width + self.dim
        )

    @property
    def dim(self) -> int:
        return len(self.reps)

    def normal_form(self, v: la.Vec) -> la.Vec:
        if not self.cycles.contains(v):
            raise ValueError("vector is not a cycle of this presentation")
        return self.boundaries.reduce(v)

    def same_class(self, u: la.Vec, v: la.Vec) -> bool:
        return self.normal_form(u) == self.normal_form(v)

    def coords(self, v: la.Vec) -> la.Vec:
        """Coefficients of the class of v over the representatives."""
        # The rows of rref([reps | I]) are E | T with E = T reps, so
        # reducing (nf | 0) leaves (nf - c E | -c T) for c = the pivot
        # entries of nf: the head vanishes exactly when nf is in the
        # span of the reps, and then nf = c T reps.
        nf = self.normal_form(v)
        out = self._rep_transform.reduce(nf + (Fraction(0),) * self.dim)
        if any(out[: self.width]):
            raise ValueError("class does not lie in the quotient")
        return tuple(-x for x in out[self.width:])


def quotient_presentation(cycle_rows, boundary_rows, width: int) -> PresentedQuotient:
    cycle_basis = la.EchelonBasis(cycle_rows, width)
    boundary_basis = la.EchelonBasis(boundary_rows, width)
    if not all(cycle_basis.contains(row) for row in boundary_basis.rows):
        raise ValueError("boundaries must lie inside cycles")
    spanning = copy.copy(boundary_basis)
    reps = [row for row in cycle_basis.rows if spanning.add(row)]
    reduced = tuple(boundary_basis.reduce(r) for r in reps)
    return PresentedQuotient(cycle_basis, boundary_basis, reduced)


def homology(c: ChainComplex, n: int) -> PresentedQuotient:
    """ker d_n modulo im d_{n+1}."""
    cycles = la.nullspace(c.diff(n))
    boundaries = la.transpose(c.diff(n + 1))
    return quotient_presentation(cycles, boundaries, c.dim(n))


def forms_modulo_exact(c: ChainComplex, n: int) -> PresentedQuotient:
    """C_n modulo im d_{n+1} (no cycle condition)."""
    width = c.dim(n)
    return quotient_presentation(la.identity(width), la.transpose(c.diff(n + 1)), width)


def _pair(avec, bvec) -> tuple:
    return tuple(avec) + tuple(bvec)


def modified_homology(f: ChainMap, n: int) -> PresentedQuotient:
    """Direct presentation on A_n (+) B_{n+1}: cycles are pairs (a, b)
    with d a = 0; relations are (0, d b') and (d a', f a')."""
    a, b = f.source, f.target
    wa, wb = a.dim(n), b.dim(n + 1)
    width = wa + wb
    cycles = [_pair(z, (0,) * wb) for z in la.nullspace(a.diff(n))]
    cycles += [_pair((0,) * wa, e) for e in la.identity(wb)]
    rel = []
    da, fa = a.diff(n + 1), f.map_at(n + 1)
    for j in range(a.dim(n + 1)):
        rel.append(
            _pair(tuple(row[j] for row in da), tuple(row[j] for row in fa))
        )
    db = b.diff(n + 2)
    for j in range(b.dim(n + 2)):
        rel.append(_pair((0,) * wa, tuple(row[j] for row in db)))
    return quotient_presentation(cycles, rel, width)


def modified_homology_via_cone(f: ChainMap, n: int) -> PresentedQuotient:
    """The same group as H_n of the cone of the truncated map; the cone
    coordinates at degree n are literally A_n (+) B_{n+1}."""
    return homology(cone(truncated_map(f, n)), n)


@dataclass(frozen=True)
class ModifiedMaps:
    """The three structure maps around a modified homology group, as
    matrices over the stored presentations."""

    hat: PresentedQuotient
    forms: PresentedQuotient  # B_{n+1} / im d
    cycles_b: tuple  # basis rows of Z(B_n)
    from_form: la.Mat  # forms -> hat, b |-> [(0, -b)]
    to_cycle_class: la.Mat  # hat -> H_n(A), [(a, b)] |-> [a]
    to_form_cycle: la.Mat  # hat -> Z(B_n), [(a, b)] |-> f(a) - d(b)


def modified_maps(f: ChainMap, n: int) -> ModifiedMaps:
    return _modified_maps(f, n, homology(f.source, n))


def _modified_maps(f: ChainMap, n: int, ha: PresentedQuotient) -> ModifiedMaps:
    """modified_maps, given ha = H_n(A)."""
    a, b = f.source, f.target
    wa = a.dim(n)
    hat = modified_homology(f, n)
    forms = forms_modulo_exact(b, n + 1)
    zb_basis = la.EchelonBasis(la.nullspace(b.diff(n)), b.dim(n))
    zb = zb_basis.rows

    cols_from_form = [
        hat.coords(_pair((0,) * wa, tuple(-x for x in t))) for t in forms.reps
    ]
    cols_zeta = [ha.coords(rep[:wa]) for rep in hat.reps]
    cols_rho = []
    fm, dbm = f.map_at(n), b.diff(n + 1)
    for rep in hat.reps:
        avec, bvec = rep[:wa], rep[wa:]
        val = la.add_vec(la.matvec(fm, avec), la.scale_vec(la.matvec(dbm, bvec), -1))
        try:
            cols_rho.append(zb_basis.coords(val))
        except ValueError:
            raise AssertionError("structure map must land in the cycle space") from None
    return ModifiedMaps(
        hat,
        forms,
        zb,
        _cols_to_mat(cols_from_form, hat.dim),
        _cols_to_mat(cols_zeta, ha.dim),
        _cols_to_mat(cols_rho, len(zb)),
    )


def _cols_to_mat(cols, height: int) -> la.Mat:
    """The matrix with the given columns, coordinate vectors of length
    height."""
    return la.transpose(la.Mat(tuple(cols), height))


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
    cn = cone(f)
    # neighbouring degrees share H_n(s(f)) and H_n(A)
    hom = functools.cache(homology)
    out = []
    for n in range(degrees[0] - 1, degrees[-1] + 2):
        ha_n = hom(a, n)
        ha_next = hom(a, n + 1)
        mm = _modified_maps(f, n, ha_n)
        hat, forms, zb = mm.hat, mm.forms, mm.cycles_b
        hcone_n = hom(cn, n)
        hcone_prev = hom(cn, n - 1)

        cols_m1 = [hat.coords(rep) for rep in hcone_n.reps]
        m1 = _cols_to_mat(cols_m1, hat.dim)
        cols_m3 = [
            hcone_prev.coords(_pair((0,) * a.dim(n - 1), z)) for z in zb
        ]
        m3 = _cols_to_mat(cols_m3, hcone_prev.dim)
        zero_in = la.zeros(hcone_n.dim, 0)
        out.append(_sequence_verdict("a", n, zero_in, m1, mm.to_form_cycle, m3))

        fm_next = f.map_at(n + 1)
        cols_m1b = [forms.coords(la.matvec(fm_next, rep)) for rep in ha_next.reps]
        m1b = _cols_to_mat(cols_m1b, forms.dim)
        zero_out = la.zeros(0, ha_n.dim)
        out.append(
            _sequence_verdict("b", n, m1b, mm.from_form, mm.to_cycle_class, zero_out)
        )
    return out


def truncated_cone_cases(f: ChainMap, n: int) -> bool:
    """Dimension check of the three regimes of the truncated cone:
    above n it matches the full cone, at n the modified homology, and
    below n the homology of the source."""
    cn_full = cone(f)
    cn_trunc = cone(truncated_map(f, n))
    degrees = sorted(set(cn_full.dims) | set(cn_trunc.dims) | set(f.source.dims))
    if not degrees:
        return True
    for r in range(degrees[0] - 1, degrees[-1] + 2):
        got = homology(cn_trunc, r).dim
        if r > n:
            want = homology(cn_full, r).dim
        elif r == n:
            want = modified_homology(f, n).dim
        else:
            want = homology(f.source, r).dim
        if got != want:
            return False
    return True


def induced_on_quotients(
    m: la.Mat, src: PresentedQuotient, dst: PresentedQuotient
) -> la.Mat:
    """Matrix of the map induced by m on presented subquotients.
    Raises when m is not well defined on the classes."""
    for row in src.boundaries.rows:
        img = la.matvec(m, row)
        if any(dst.normal_form(img)):
            raise ValueError("relations do not map into relations")
    cols = [dst.coords(la.matvec(m, rep)) for rep in src.reps]
    return _cols_to_mat(cols, dst.dim)


def induced_modified_map(
    f1: ChainMap,
    f2: ChainMap,
    rho: ChainMap,
    rho2: ChainMap,
    n: int,
    hat1: PresentedQuotient,
    hat2: PresentedQuotient,
) -> la.Mat:
    """The map hat H_n(rho) -> hat H_n(rho2) induced by a commuting
    square (f1 on sources, f2 on targets): [(a, b)] -> [(f1 a, f2 b)].
    hat1 and hat2 are the presentations modified_homology(rho, n) and
    modified_homology(rho2, n), which the caller has built."""
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
    if hat1.width != sum(dims1) or hat2.width != sum(dims2):
        raise ValueError("a presentation is not on A_n (+) B_{n+1} of its map")
    blk = la.block_matrix(dims2, dims1, {(0, 0): f1.map_at(n), (1, 1): f2.map_at(n + 1)})
    return induced_on_quotients(blk, hat1, hat2)


def is_quasi_iso(f: ChainMap) -> bool:
    degrees = set(f.source.dims) | set(f.target.dims)
    for n in degrees:
        hs, ht = homology(f.source, n), homology(f.target, n)
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
    cn = cone(f)
    degrees = sorted(set(a.dims) | set(b.dims))
    if not degrees:
        return True
    # degree n + 1 of one step is degree n of the next
    hom = functools.cache(homology)
    for n in range(degrees[0] - 1, degrees[-1] + 2):
        ha_n, hb_n = hom(a, n), hom(b, n)
        ha_next, hb_next = hom(a, n + 1), hom(b, n + 1)
        hc = hom(cn, n)
        wa = a.dim(n)

        cols_in = [
            hc.coords(_pair((0,) * wa, rep)) for rep in hb_next.reps
        ]
        m_in = _cols_to_mat(cols_in, hc.dim)
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
