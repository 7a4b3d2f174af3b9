"""Degree-k Koszul transform complexes with metrics, and their algebra.

For a metrized space V the degree-k transform complex has objects
A^p = S^p V (x) Lambda^{k-p} V for p = 0..k. Its maps phi_p and their
rational sections psi_p are defined through T^k V by the composites

    phi_p = (pi_{p+1} (x) rho_{k-p-1}) . (iota_p (x) j_{k-p}) / (p! (k-p-1)!)
    psi_p = (pi_p (x) rho_{k-p}) . (iota_{p+1} (x) j_{k-p-1}) / (k p! (k-p-1)!)

which the tests keep as the oracle. The factorials cancel, and both are
built from their rules on basis words (s, e): phi_p moves the exterior
letter at position i (from 0) to the symmetric side, psi_p moves back a
letter x of s not in e, with multiplicity m_s(x) in s and position t in
sorted(e + x):

    phi_p(s, e) = sum_i (-1)^i (sorted(s + e_i), e without e_i)
    psi_p(s, e) = (1/k) sum_x m_s(x) (-1)^t (s - x, sorted(e + x))

The complex is exact.

This module also builds: the rational section of phi_p; the 1/sqrt(k)
rescale; the canonical kernel sequences mu^j with induced metrics and
their hermitian-splitting test; formal integer combinations of metrized
objects and the secondary Euler characteristic; two-dimensional
(commuting) complexes with their total complex and the refinement of
the secondary Euler characteristic that accounts for direct sums; the
direct-sum decomposition isometry for V (+) W; and the recursion trace
relating the additive and multiplicative descriptions of the transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .core import (
    MetrizedSpace,
    ScaledMatrix,
    ShortExactMetrized,
    SpaceMap,
    ZERO_SPACE,
    direct_sum_space,
    identity_map,
    is_hermitian_split,
    kernel_object,
    orthogonal_complement,
    zero_map,
)
from .multilinear import (
    PowerBasisWord,
    ext_power,
    sym_power,
    tensor_of_maps,
    tensor_of_spaces,
    word_map,
)

__all__ = [
    "HermitianComplex",
    "FormalObjectSum",
    "koszul_complex",
    "koszul_section",
    "lambda_rescale",
    "mu_decompose",
    "is_hermitian_split",
    "norm_ratio",
    "koszul_norms",
    "norm_ratio_all",
    "secondary_euler",
    "alternating_object_sum",
    "ses_boundary",
    "TwoIteratedComplex",
    "koszul_iterated",
    "total_complex",
    "secondary_euler_pair",
    "secondary_euler_pair_identity",
    "tensor_of_complexes",
    "dsum_of_complexes",
    "koszul_sum_rhs",
    "koszul_sum_isometry",
    "transposed_koszul",
    "psicomp_tree",
    "TraceNode",
]


class HermitianComplex:
    """A bounded cochain complex of metrized spaces, degrees 0..top.

    maps[p] goes from objects[p] to objects[p+1]. Construction checks
    that consecutive maps compose to zero; with acyclic=True it checks
    exactness everywhere instead, ends included, by one la.is_exact
    call on the maps between zero ends, whose failure names the pair
    of maps that does not compose to zero or else the degree where the
    ranks do not add up. check=False skips revalidation for complexes
    produced by transformations that preserve the invariants.
    """

    __slots__ = ("objects", "maps", "acyclic")

    def __init__(self, objects, maps, acyclic: bool = False, check: bool = True):
        self.objects = tuple(objects)
        self.maps = tuple(maps)
        self.acyclic = acyclic
        if not self.objects:
            raise ValueError("a complex needs at least one object")
        if len(self.maps) != len(self.objects) - 1:
            raise ValueError("need exactly one map per consecutive pair")
        if check:
            for p, f in enumerate(self.maps):
                if f.domain != self.objects[p] or f.codomain != self.objects[p + 1]:
                    raise ValueError(f"map {p} does not match the objects")
            entries = [f.matrix.entries for f in self.maps]
            if acyclic:
                first, last = self.objects[0].dim, self.objects[-1].dim
                chain = (la.zeros(first, 0), *entries, la.zeros(0, last))
                if not la.is_exact(*chain):
                    i, why = la.exactness_defect(*chain)
                    if why == "product":
                        raise ValueError(f"maps {i - 2}, {i - 1} do not compose to zero")
                    raise ValueError(f"complex flagged acyclic is not exact at degree {i - 1}")
            else:
                for p in range(len(entries) - 1):
                    if not la.is_zero(la.matmul(entries[p + 1], entries[p])):
                        raise ValueError(f"maps {p}, {p + 1} do not compose to zero")

    @property
    def top(self) -> int:
        return len(self.objects) - 1

    def is_zero(self) -> bool:
        return all(obj.dim == 0 for obj in self.objects)

    def key(self):
        return (
            tuple(obj.key() for obj in self.objects),
            tuple(f.matrix.key() for f in self.maps),
        )

    def __eq__(self, other):
        if not isinstance(other, HermitianComplex):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"HermitianComplex(dims={[o.dim for o in self.objects]})"


def koszul_object(v: MetrizedSpace, k: int, p: int) -> MetrizedSpace:
    """S^p V (x) Lambda^(k-p) V with the induced metric."""
    return tensor_of_spaces(sym_power(v, p).space, ext_power(v, k - p).space)


def _phi_images(label):
    """phi_p on one basis word (s, e)."""
    s, e = label
    for i, x in enumerate(e.indices):
        sym = PowerBasisWord("sym", tuple(sorted(s.indices + (x,))))
        ext = PowerBasisWord("ext", e.indices[:i] + e.indices[i + 1 :])
        yield (sym, ext), -1 if i % 2 else 1


def _psi_images(label, k: int):
    """psi_p on one basis word (s, e) of the degree-k complex."""
    s, e = label
    for x in set(s.indices) - set(e.indices):
        i, ext = s.indices.index(x), tuple(sorted(e.indices + (x,)))
        sym = PowerBasisWord("sym", s.indices[:i] + s.indices[i + 1 :])
        coeff = Fraction(s.indices.count(x) * (-1) ** ext.index(x), k)
        yield (sym, PowerBasisWord("ext", ext)), coeff


def koszul_complex(v: MetrizedSpace, k: int) -> HermitianComplex:
    """The exact degree-k transform complex of v.

    k = 0 yields the single-object complex on S^0 (x) Lambda^0 (not
    acyclic); it exists so direct-sum decompositions have their edge
    terms.
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    objects = [koszul_object(v, k, p) for p in range(k + 1)]
    maps = [SpaceMap(a, b, word_map(a, b, _phi_images)) for a, b in zip(objects, objects[1:])]
    return HermitianComplex(objects, maps, acyclic=k >= 1)


def koszul_section(v: MetrizedSpace, k: int, p: int) -> SpaceMap:
    """The rational section psi_p of phi_p: phi_p psi_p phi_p = phi_p."""
    if not 0 <= p <= k - 1:
        raise ValueError("need 0 <= p <= k-1")
    src, dst = koszul_object(v, k, p + 1), koszul_object(v, k, p)
    return SpaceMap(src, dst, word_map(src, dst, lambda label: _psi_images(label, k)))


def lambda_rescale(c: HermitianComplex, k: int) -> HermitianComplex:
    """Divide every map's scale_sq by k; objects untouched."""
    if k < 1:
        raise ValueError("rescale degree must be >= 1")
    if k == 1:
        return c
    maps = [
        SpaceMap(
            f.domain,
            f.codomain,
            ScaledMatrix(f.matrix.entries, f.matrix.scale_sq / k),
        )
        for f in c.maps
    ]
    return HermitianComplex(c.objects, maps, acyclic=c.acyclic, check=False)


def mu_decompose(c: HermitianComplex) -> list[tuple[int, ShortExactMetrized]]:
    """Canonical kernel sequences of an acyclic complex.

    Entry j (j = 0..top-1) is (sign, ker f^j -> A^j -> ker f^{j+1})
    with sign (-1)^(j-1). Kernels carry the metric induced from their
    ambient object; the kernel at the top is the top object itself.
    The zero complex decomposes into nothing.
    """
    if not c.acyclic:
        raise ValueError("mu decomposition needs an acyclic complex")
    if c.is_zero():
        return []
    kernels = [kernel_object(f) for f in c.maps]
    kernels.append((c.objects[-1], identity_map(c.objects[-1])))
    out = []
    for j, f in enumerate(c.maps):
        sub, inject = kernels[j]
        knext, kincl = kernels[j + 1]
        coords = la.solve(kincl.matrix.entries, f.matrix.entries)
        if coords is None:
            raise AssertionError("image must land in the next kernel")
        project = SpaceMap(
            c.objects[j], knext, ScaledMatrix(coords, f.matrix.scale_sq)
        )
        sign = -1 if j % 2 == 0 else 1
        out.append((sign, ShortExactMetrized(inject, project)))
    return out


def koszul_norms(v: MetrizedSpace, k: int, p: int, e: la.Vec) -> tuple[Fraction, Fraction]:
    """(inclusion-norm^2, quotient-norm^2) of phi_p(e).

    The inclusion norm measures phi_p(e) inside the degree p+1 object;
    the quotient norm measures it in the quotient metric that degree p
    induces on the image of phi_p. Rejects e in ker phi_p.
    """
    c = koszul_complex(v, k)
    f = c.maps[p]
    w = la.matvec(f.matrix.entries, e)
    if not any(w):
        raise ValueError("e lies in the kernel; the ratio is undefined")
    i_sq = c.objects[p + 1].norm_sq(w)
    comp = orthogonal_complement(c.objects[p], f.kernel_basis())
    cols = la.transpose(comp)
    x = la.solve_vec(la.matmul(f.matrix.entries, cols), w)
    if x is None:
        raise AssertionError("image vector must be reachable from the complement")
    u = la.matvec(cols, x)
    return i_sq, c.objects[p].norm_sq(u)


def norm_ratio(v: MetrizedSpace, k: int, p: int, e: la.Vec) -> Fraction:
    """inclusion-norm^2 / quotient-norm^2 of phi_p(e); equals k."""
    i_sq, q_sq = koszul_norms(v, k, p, e)
    return i_sq / q_sq


def norm_ratio_all(v: MetrizedSpace, k: int, p: int):
    """(basis index, i-norm^2, q-norm^2) for every basis vector not in
    ker phi_p, with one shared elimination for the quotient norms."""
    c = koszul_complex(v, k)
    f = c.maps[p]
    m = f.matrix.entries
    comp = orthogonal_complement(c.objects[p], f.kernel_basis())
    cols = la.transpose(comp)
    x = la.solve(la.matmul(m, cols), m)
    if x is None:
        raise AssertionError("every image vector is reachable from the complement")
    u = la.matmul(cols, x)
    g_next, g_here = c.objects[p + 1].gram, c.objects[p].gram
    out = []
    for idx in range(c.objects[p].dim):
        w = tuple(row[idx] for row in m)
        if not any(w):
            continue
        uvec = tuple(row[idx] for row in u)
        out.append(
            (idx, la.bilinear(g_next, w, w), la.bilinear(g_here, uvec, uvec))
        )
    return out


class FormalObjectSum:
    """Integer combination of metrized objects, identified literally.

    Keys are (labels, Gram); zero coefficients and zero-dimensional
    objects are dropped, so "the zero object" never contributes.
    """

    __slots__ = ("_terms",)

    def __init__(self, items=()):
        terms: dict = {}
        for coeff, space in items:
            if not coeff or space.dim == 0:
                continue
            key = space.key()
            if key in terms:
                terms[key][0] += coeff
            else:
                terms[key] = [coeff, space]
        self._terms = {k: (c, s) for k, (c, s) in terms.items() if c}

    def items(self):
        return tuple((c, s) for c, s in self._terms.values())

    def coefficient(self, space: MetrizedSpace) -> int:
        entry = self._terms.get(space.key())
        return entry[0] if entry else 0

    def is_zero(self) -> bool:
        return not self._terms

    def rank(self) -> int:
        return sum(c * s.dim for c, s in self._terms.values())

    def __add__(self, other: "FormalObjectSum") -> "FormalObjectSum":
        return FormalObjectSum(self.items() + other.items())

    def __sub__(self, other: "FormalObjectSum") -> "FormalObjectSum":
        return self + other.scaled(-1)

    def scaled(self, c: int) -> "FormalObjectSum":
        return FormalObjectSum(tuple((c * coeff, s) for coeff, s in self.items()))

    def __eq__(self, other):
        if not isinstance(other, FormalObjectSum):
            return NotImplemented
        return {k: c for k, (c, _) in self._terms.items()} == {
            k: c for k, (c, _) in other._terms.items()
        }

    def __hash__(self):
        return hash(frozenset((k, c) for k, (c, _) in self._terms.items()))

    def __repr__(self):
        parts = [f"{c}*[dim {s.dim}]" for c, s in self._terms.values()]
        return "FormalObjectSum(" + " + ".join(parts or ["0"]) + ")"


def secondary_euler(c: HermitianComplex) -> FormalObjectSum:
    """sum_p (-1)^(top-p+1) (top-p) [A^p]; rank = rank of the underlying
    space when c is a degree-top transform complex."""
    k = c.top
    return FormalObjectSum(
        ((-1) ** (k - p + 1) * (k - p), c.objects[p]) for p in range(k + 1)
    )


def alternating_object_sum(c: HermitianComplex) -> FormalObjectSum:
    """sum_r (-1)^r [objects[r]]."""
    return FormalObjectSum(((-1) ** r, obj) for r, obj in enumerate(c.objects))


def ses_boundary(s: ShortExactMetrized) -> FormalObjectSum:
    """-( [sub] - [total] + [quot] ): the alternating face sum of the
    sequence read as a one-dimensional cube."""
    return FormalObjectSum([(-1, s.sub), (1, s.total), (-1, s.quot)])


# -- two-dimensional complexes and the direct-sum refinement ------------


class TwoIteratedComplex:
    """A commuting double complex of metrized spaces, degrees
    (0..vtop) x (0..htop), with every row and every column exact.

    vmaps[(a, b)]: B^{a,b} -> B^{a+1,b}; hmaps[(a, b)]: -> B^{a,b+1}.
    Squares commute on the nose; the total complex inserts the signs.
    """

    __slots__ = ("vtop", "htop", "objects", "vmaps", "hmaps")

    def __init__(self, vtop, htop, objects, vmaps, hmaps):
        self.vtop, self.htop = vtop, htop
        self.objects = dict(objects)
        self.vmaps = dict(vmaps)
        self.hmaps = dict(hmaps)
        for a in range(vtop + 1):
            for b in range(htop + 1):
                if (a, b) not in self.objects:
                    raise ValueError(f"missing object {(a, b)}")
        for (a, b), f in self.vmaps.items():
            if f.domain != self.objects[(a, b)] or f.codomain != self.objects[(a + 1, b)]:
                raise ValueError(f"vertical map {(a, b)} mismatched")
        for (a, b), f in self.hmaps.items():
            if f.domain != self.objects[(a, b)] or f.codomain != self.objects[(a, b + 1)]:
                raise ValueError(f"horizontal map {(a, b)} mismatched")
        for a in range(vtop):
            for b in range(htop):
                lhs = self.vmaps[(a, b + 1)].compose(self.hmaps[(a, b)])
                rhs = self.hmaps[(a + 1, b)].compose(self.vmaps[(a, b)])
                if lhs != rhs:
                    raise ValueError(f"square at {(a, b)} does not commute")
        for b in range(htop + 1):
            self.column(b)
        for a in range(vtop + 1):
            self.row(a)

    def column(self, b: int) -> HermitianComplex:
        """The vertical complex at horizontal position b (acyclic)."""
        objs = [self.objects[(a, b)] for a in range(self.vtop + 1)]
        maps = [self.vmaps[(a, b)] for a in range(self.vtop)]
        return HermitianComplex(objs, maps, acyclic=True)

    def row(self, a: int) -> HermitianComplex:
        """The horizontal complex at vertical position a (acyclic)."""
        objs = [self.objects[(a, b)] for b in range(self.htop + 1)]
        maps = [self.hmaps[(a, b)] for b in range(self.htop)]
        return HermitianComplex(objs, maps, acyclic=True)


def koszul_iterated(v: MetrizedSpace, w: MetrizedSpace, i: int, k: int) -> TwoIteratedComplex:
    """The product of the degree-(k-i) transform of v with the degree-i
    transform of w: B^{a,b} = A_v^a (x) A_w^b, differentials phi (x) id
    and id (x) phi."""
    cv = koszul_complex(v, k - i)
    cw = koszul_complex(w, i)
    objects, vmaps, hmaps = {}, {}, {}
    for a in range(k - i + 1):
        for b in range(i + 1):
            objects[(a, b)] = tensor_of_spaces(cv.objects[a], cw.objects[b])
            if a < k - i:
                vmaps[(a, b)] = tensor_of_maps(cv.maps[a], identity_map(cw.objects[b]))
            if b < i:
                hmaps[(a, b)] = tensor_of_maps(identity_map(cv.objects[a]), cw.maps[b])
    return TwoIteratedComplex(k - i, i, objects, vmaps, hmaps)


def _antidiagonal(b: TwoIteratedComplex, p: int):
    """Summands of total degree p as (tag, space), column index ascending."""
    return [
        ((p - j, j), b.objects[(p - j, j)])
        for j in range(p + 1)
        if 0 <= p - j <= b.vtop and j <= b.htop
    ]


def _column_dsum(parts) -> MetrizedSpace:
    """Direct sum collapsing a singleton to the bare object.

    The collapse makes the object-level bookkeeping literal: a sum with
    one summand IS that summand, so telescoping identities close up.
    """
    parts = [p for p in parts if p[1].dim > 0] or list(parts)
    if len(parts) == 1:
        return parts[0][1]
    return direct_sum_space(parts)


def total_complex(b: TwoIteratedComplex) -> HermitianComplex:
    """The simple complex: degree p object is the orthogonal sum over
    a+b = p, differential d = d_vert + (-1)^a d_horiz. Requires honest
    rational maps (scale 1) so blocks can be assembled literally."""
    for f in list(b.vmaps.values()) + list(b.hmaps.values()):
        if f.matrix.scale_sq != 1:
            raise ValueError("total complex needs scale-1 maps")
    top = b.vtop + b.htop
    parts = [_antidiagonal(b, p) for p in range(top + 1)]
    objects = [_column_dsum(pp) if pp else ZERO_SPACE for pp in parts]
    maps = []
    for p in range(top):
        src, dst = parts[p], parts[p + 1]
        dst_index = {tag: i for i, (tag, _) in enumerate(dst)}
        blocks = {}
        for jsrc, ((a, bb), space) in enumerate(src):
            if (a, bb) in b.vmaps:
                blocks[(dst_index[(a + 1, bb)], jsrc)] = b.vmaps[(a, bb)].matrix.entries
            if (a, bb) in b.hmaps:
                m = b.hmaps[(a, bb)].matrix.entries
                blocks[(dst_index[(a, bb + 1)], jsrc)] = (
                    m if a % 2 == 0 else la.scale(m, -1)
                )
        entries = la.block_matrix(
            [s.dim for _, s in dst], [s.dim for _, s in src], blocks
        )
        maps.append(SpaceMap(objects[p], objects[p + 1], entries))
    return HermitianComplex(objects, maps, acyclic=True)


def _two_step_complex(parts, j: int) -> HermitianComplex:
    """B_j -> (+)_{j' >= j} B_{j'} -> (+)_{j' > j} B_{j'} with the
    canonical inclusion and projection; split exact by construction."""
    tail = parts[j:]
    head_tag, head = tail[0]
    mid = _column_dsum(tail)
    rest = tail[1:]
    quot = _column_dsum(rest) if rest else ZERO_SPACE
    mid_dims = [s.dim for _, s in tail]
    inject = SpaceMap(
        head,
        mid,
        la.block_matrix(mid_dims, [head.dim], {(0, 0): la.identity(head.dim)}),
    )
    blocks = {(r, r + 1): la.identity(s.dim) for r, (_, s) in enumerate(rest)}
    project = SpaceMap(
        mid,
        quot,
        la.block_matrix([s.dim for _, s in rest], mid_dims, blocks),
    )
    return HermitianComplex([head, mid, quot], [inject, project], acyclic=True)


def secondary_euler_pair(b: TwoIteratedComplex, i: int, k: int):
    """The signed complexes refining the secondary Euler characteristic
    of the total complex of b.

    First family, for j = 0..htop and j = 0..vtop: the rescaled columns
    and rows with coefficients (-1)^(k-j+1)(k-i-j), respectively
    (-1)^(k-j+1)(i-j). Second family, for s = 1..k-1, j = 0..s: the
    split two-step complexes with coefficient (-1)^(k-s)(k-s).
    Zero-coefficient entries are dropped.
    """
    if b.vtop != k - i or b.htop != i:
        raise ValueError("two-complex degrees must be (k-i, i)")
    if not 1 <= i <= k - 1:
        raise ValueError("need 1 <= i <= k-1")
    entries: list[tuple[int, HermitianComplex]] = []
    for j in range(i + 1):
        coeff = (-1) ** (k - j + 1) * (k - i - j)
        if coeff:
            entries.append((coeff, lambda_rescale(b.column(j), k - i)))
    for j in range(k - i + 1):
        coeff = (-1) ** (k - j + 1) * (i - j)
        if coeff:
            entries.append((coeff, lambda_rescale(b.row(j), i)))
    for s in range(1, k):
        coeff = (-1) ** (k - s) * (k - s)
        parts = _antidiagonal(b, s)
        for j in range(len(parts)):
            entries.append((coeff, _two_step_complex(parts, j)))
    return entries


def secondary_euler_pair_identity(b: TwoIteratedComplex, i: int, k: int) -> bool:
    """Object-level bookkeeping: the secondary Euler characteristic of
    the total complex equals the signed alternating object sums of the
    refining complexes."""
    lhs = secondary_euler(total_complex(b))
    rhs = FormalObjectSum(())
    for coeff, cplx in secondary_euler_pair(b, i, k):
        rhs = rhs + alternating_object_sum(cplx).scaled(coeff)
    return lhs == rhs


# -- direct-sum decomposition isometry -----------------------------------


def tensor_of_complexes(c: HermitianComplex, d: HermitianComplex) -> HermitianComplex:
    """Tensor product complex; the right differential picks up the sign
    (-1)^(c.top - a) on the summand (a, b), matching the convention
    that the left factor contributes its exterior degree."""
    top = c.top + d.top
    parts = []
    for p in range(top + 1):
        parts.append(
            [
                ((a, p - a), tensor_of_spaces(c.objects[a], d.objects[p - a]))
                for a in range(p + 1)
                if a <= c.top and p - a <= d.top
            ]
        )
    objects = [direct_sum_space(pp) if pp else ZERO_SPACE for pp in parts]
    maps = []
    for p in range(top):
        src, dst = parts[p], parts[p + 1]
        dst_index = {tag: idx for idx, (tag, _) in enumerate(dst)}
        blocks = {}
        for jsrc, ((a, bb), _) in enumerate(src):
            if a < c.top:
                blk = tensor_of_maps(c.maps[a], identity_map(d.objects[bb]))
                blocks[(dst_index[(a + 1, bb)], jsrc)] = blk.matrix.entries
            if bb < d.top:
                blk = tensor_of_maps(identity_map(c.objects[a]), d.maps[bb])
                sign = (-1) ** (c.top - a)
                blocks[(dst_index[(a, bb + 1)], jsrc)] = (
                    blk.matrix.entries if sign > 0 else la.scale(blk.matrix.entries, -1)
                )
        entries = la.block_matrix([s.dim for _, s in dst], [s.dim for _, s in src], blocks)
        maps.append(SpaceMap(objects[p], objects[p + 1], entries))
    acyclic = (c.acyclic and not d.is_zero()) or (d.acyclic and not c.is_zero())
    return HermitianComplex(objects, maps, acyclic=acyclic)


def dsum_of_complexes(tagged) -> HermitianComplex:
    """Degreewise orthogonal sum of same-length complexes."""
    tagged = tuple(tagged)
    tops = {c.top for _, c in tagged}
    if len(tops) != 1:
        raise ValueError("complexes must share their degree range")
    top = tops.pop()
    objects = [
        direct_sum_space([(t, c.objects[p]) for t, c in tagged]) for p in range(top + 1)
    ]
    any_scaled = {c.maps[0].matrix.scale_sq for _, c in tagged if c.maps} if top else set()
    if len(any_scaled) > 1:
        raise ValueError("summand complexes must share map scales")
    maps = []
    for p in range(top):
        blocks = {
            (idx, idx): c.maps[p].matrix.entries for idx, (_, c) in enumerate(tagged)
        }
        dims_dst = [c.objects[p + 1].dim for _, c in tagged]
        dims_src = [c.objects[p].dim for _, c in tagged]
        scale = next(iter(any_scaled)) if any_scaled else 1
        maps.append(
            SpaceMap(
                objects[p],
                objects[p + 1],
                ScaledMatrix(la.block_matrix(dims_dst, dims_src, blocks), scale),
            )
        )
    acyclic = all(c.acyclic or c.is_zero() for _, c in tagged)
    return HermitianComplex(objects, maps, acyclic=acyclic)


def _split_word(word, cut: int):
    left = tuple(x for x in word if x < cut)
    right = tuple(x - cut for x in word if x >= cut)
    return left, right


def koszul_sum_rhs(v: MetrizedSpace, w: MetrizedSpace, k: int) -> HermitianComplex:
    """(+)_p of (transform_p v) (x) (transform_{k-p} w)."""
    return dsum_of_complexes(
        (p, tensor_of_complexes(koszul_complex(v, p), koszul_complex(w, k - p)))
        for p in range(k + 1)
    )


def _sum_matching(v_dim: int, lhs_obj: MetrizedSpace, rhs_obj: MetrizedSpace):
    """Permutation sending each (sym word, ext word) basis label of the
    transform of v (+) w to its summand label on the split side."""
    rhs_index = {lab: i for i, lab in enumerate(rhs_obj.labels)}
    perm = []
    for sym_word, ext_word in lhs_obj.labels:
        us, uw = _split_word(sym_word.indices, v_dim)
        xs, xw = _split_word(ext_word.indices, v_dim)
        p = len(us) + len(xs)
        a, b = len(us), len(uw)
        label = (
            p,
            (
                (a, b),
                (
                    (PowerBasisWord("sym", us), PowerBasisWord("ext", xs)),
                    (PowerBasisWord("sym", uw), PowerBasisWord("ext", xw)),
                ),
            ),
        )
        perm.append(rhs_index[label])
    if sorted(perm) != list(range(rhs_obj.dim)):
        raise AssertionError("basis matching must be a bijection")
    return perm


def koszul_sum_isometry(
    v: MetrizedSpace,
    w: MetrizedSpace,
    k: int,
    rhs: HermitianComplex | None = None,
) -> bool:
    """Does the canonical basis matching between the transform of the
    orthogonal sum v (+) w and the split side preserve metrics and
    commute with the differentials? rhs may be supplied to compare
    against a doctored candidate."""
    vw = direct_sum_space([(0, v), (1, w)])
    lhs = koszul_complex(vw, k)
    if rhs is None:
        rhs = koszul_sum_rhs(v, w, k)
    perms = []
    for p in range(k + 1):
        lo, ro = lhs.objects[p], rhs.objects[p]
        if lo.dim != ro.dim:
            return False
        try:
            perm = _sum_matching(v.dim, lo, ro)
        except KeyError:
            # a candidate rhs may simply not carry the matching labels
            return False
        for a in range(lo.dim):
            for bcol in range(lo.dim):
                if lo.gram[a][bcol] != ro.gram[perm[a]][perm[bcol]]:
                    return False
        perms.append(perm)
    for p in range(k):
        fl = lhs.maps[p].matrix
        fr = rhs.maps[p].matrix
        if fl.scale_sq != fr.scale_sq:
            return False
        pm, pn = perms[p + 1], perms[p]
        for r in range(lhs.objects[p + 1].dim):
            for ccol in range(lhs.objects[p].dim):
                if fl.entries[r][ccol] != fr.entries[pm[r]][pn[ccol]]:
                    return False
    return True


# -- transposed complexes and the recursion trace -------------------------


def _swap_map(v: MetrizedSpace, k: int, p: int) -> SpaceMap:
    """The factor-swap isometry S^p (x) Lambda^(k-p) -> Lambda^(k-p) (x) S^p."""
    sspace, espace = sym_power(v, p).space, ext_power(v, k - p).space
    src, dst = tensor_of_spaces(sspace, espace), tensor_of_spaces(espace, sspace)
    return SpaceMap(src, dst, word_map(src, dst, lambda lab: ((lab[::-1], 1),)))


def _swapped_phi_images(label):
    """phi_p on one basis word (e, s) of the transposed complex."""
    for (s, e), coeff in _phi_images(label[::-1]):
        yield (e, s), coeff


def transposed_koszul(v: MetrizedSpace, k: int):
    """The transform complex rewritten with exterior factors first.

    Returns (complex, swaps): swaps[p] is the isometry conjugating
    degree p; the new maps are swap_{p+1} . phi_p . swap_p^{-1}.
    """
    swaps = [_swap_map(v, k, p) for p in range(k + 1)]
    objects = [s.codomain for s in swaps]
    maps = [
        SpaceMap(a, b, word_map(a, b, _swapped_phi_images)) for a, b in zip(objects, objects[1:])
    ]
    return HermitianComplex(objects, maps, acyclic=True), swaps


@dataclass(frozen=True)
class TraceNode:
    """One verified witness in the recursion trace."""

    stage: str
    kind: str  # "iso" | "ses"
    sign: int
    iso: SpaceMap | None = None
    ses: ShortExactMetrized | None = None


def _tensor_ses(ctx: MetrizedSpace, s: ShortExactMetrized) -> ShortExactMetrized:
    ctx_id = identity_map(ctx)
    return ShortExactMetrized(
        tensor_of_maps(ctx_id, s.inject), tensor_of_maps(ctx_id, s.project)
    )


def _unit_iso(ctx: MetrizedSpace, v: MetrizedSpace) -> SpaceMap:
    """ctx (x) S^0 -> ctx: strip the one-dimensional unit factor."""
    src = tensor_of_spaces(ctx, sym_power(v, 0).space)
    return SpaceMap(src, ctx, la.identity(ctx.dim))


def psicomp_tree(k: int, v: MetrizedSpace | None = None) -> list[TraceNode]:
    """Witness trace for rewriting the degree-k transform against the
    alternating expansion of symmetric powers by exterior ones.

    Emits, for each degree m = 2..k, the factor-swap isometries and the
    signed canonical kernel sequences of the transposed degree-m
    complex (the expansion backbone), then recurses through the
    alternating expansion inside each exterior context, tensoring the
    backbone sequences by the context and emitting unit isomorphisms
    where the recursion bottoms out. k = 1 has nothing to witness.
    Every sequence is validated exact and every isomorphism is checked
    to be an isometry on the concrete v (default: orthonormal of
    dimension max(2, k)).
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    if v is None:
        from .core import standard_space

        v = standard_space(max(2, k))
    nodes: list[TraceNode] = []

    transposed: dict[int, HermitianComplex] = {}
    for m in range(2, k + 1):
        ct, swaps = transposed_koszul(v, m)
        transposed[m] = ct
        stage = f"expand-sym m={m}"
        for s in swaps:
            if not s.is_isometry():
                raise AssertionError("factor swap must be an isometry")
            nodes.append(TraceNode(stage, "iso", 1, iso=s))
        for j, (sign, ses) in enumerate(mu_decompose(ct)):
            nodes.append(TraceNode(stage, "ses", sign, ses=ses))

    def expand(m: int, contexts: tuple[MetrizedSpace, ...], stage: str):
        ctx = contexts[0]
        for extra in contexts[1:]:
            ctx = tensor_of_spaces(ctx, extra)
        if m == 0:
            iso = _unit_iso(ctx, v)
            if not iso.is_isometry():
                raise AssertionError("unit strip must be an isometry")
            nodes.append(TraceNode(stage, "iso", 1, iso=iso))
            return
        if m == 1:
            return
        for sign, ses in mu_decompose(transposed[m]):
            if ctx.dim:
                nodes.append(TraceNode(stage, "ses", sign, ses=_tensor_ses(ctx, ses)))
        for i in range(1, m + 1):
            expand(m - i, contexts + (ext_power(v, i).space,), stage)

    for p in range(1, k):
        s = _swap_map(v, k, p)
        if not s.is_isometry():
            raise AssertionError("factor swap must be an isometry")
        nodes.append(TraceNode(f"peel p={p}", "iso", 1, iso=s))
        expand(p, (ext_power(v, k - p).space,), f"peel p={p}")
    return nodes
