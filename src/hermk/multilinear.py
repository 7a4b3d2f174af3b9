"""Tensor, symmetric, and exterior powers of metrized spaces.

Bases are words in the underlying basis positions: arbitrary length-k
words for the tensor power, weakly increasing words for the symmetric
power, strictly increasing words for the exterior power, all ordered
lexicographically. The tensor power carries the Kronecker-power Gram.
The symmetric and exterior powers sit inside it through the
(anti)symmetrization inclusions, normalized by 1/sqrt(k!); with that
normalization their Grams come out as the permanent, respectively the
determinant, of the submatrices G[I, J] of the underlying Gram. For an
orthonormal underlying basis the symmetric Gram is diagonal with entry
prod_i m_i! (m_i = multiplicity of i in the word) and the exterior
basis is orthonormal. Maps given by their values on basis words, here
and in koszul, are built by word_map, from integer coefficients over a
denominator the caller gives.

No permanent or determinant is computed one minor at a time. The Grams
of S^d and Lambda^d come from those of degree d - 1 by expansion along
the first letter (Laplace expansion along the first row): for words I,
J with first letter i_1 of I,

    perm G[I, J] = sum_{j in set(J)} m_J(j) G[i_1, j] perm G[I - i_1, J - j]
    det G[I, J]  = sum_c (-1)^c G[i_1, J_c] det G[I - i_1, J - J_c]

(J - j drops one copy of j, c runs over the positions of J). So
power_tower builds every degree 0..d of one kind in one pass, in
integers over den^d where den clears the denominators of G, skipping the
zero entries G[i_1, j], and la._int_mat turns each level into its Gram
without building a Fraction; sym_power and ext_power read its top level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import factorial

from . import linalg as la
from .core import MetrizedSpace, SpaceMap, ZERO_SPACE


@dataclass(frozen=True)
class PowerBasisWord:
    """A basis word of a power space; doubles as the basis label."""

    kind: str  # "tensor" | "sym" | "ext"
    indices: tuple[int, ...]

    def __repr__(self):
        return f"{self.kind}{list(self.indices)}"


def _labels(kind: str, words) -> tuple[PowerBasisWord, ...]:
    return tuple(PowerBasisWord(kind, w) for w in words)


def tensor_power(v: MetrizedSpace, k: int) -> MetrizedSpace:
    """T^k v with the k-fold Kronecker power metric."""
    if k < 0:
        raise ValueError("power degree must be >= 0")
    words = list(itertools.product(range(v.dim), repeat=k))
    gram = reduce(la.kron, [v.gram] * k, la.identity(1))
    return MetrizedSpace(_labels("tensor", words), gram, check=False)


def sym_power(v: MetrizedSpace, k: int) -> MetrizedSpace:
    """S^k v; Gram entry (I, J) = permanent of G[I, J]."""
    return _powers(v, "sym", k, k)[0]


def ext_power(v: MetrizedSpace, k: int) -> MetrizedSpace:
    """Lambda^k v; Gram entry (I, J) = determinant of G[I, J].

    k > dim v yields the zero-dimensional space.
    """
    return _powers(v, "ext", k, k)[0]


def power_tower(v: MetrizedSpace, kind: str, top: int) -> tuple[MetrizedSpace, ...]:
    """(S^0 v, ..., S^top v) for kind "sym", the exterior powers for
    kind "ext": entry d equals sym_power(v, d), respectively
    ext_power(v, d), and all of them come from one expansion."""
    return _powers(v, kind, top, 0)


_WORDS = {"sym": itertools.combinations_with_replacement, "ext": itertools.combinations}


def _powers(v: MetrizedSpace, kind: str, top: int, low: int) -> tuple[MetrizedSpace, ...]:
    """The power spaces of degrees low..top, built level by level from
    degree 0 by expansion along the first letter."""
    if top < 0:
        raise ValueError("power degree must be >= 0")
    if kind not in _WORDS:
        raise ValueError(f"unknown power kind {kind!r}")
    h, den = v.gram.int_rows, v.gram.den
    out = []
    index, gram = {(): 0}, [[1]]
    for d in range(top + 1):
        if d:
            index, gram = _next_level(h, kind, d, index, gram)
        if d >= low:
            words = list(index)
            if not words:
                out.append(ZERO_SPACE)
            else:
                rows = la._int_mat(gram, den**d, len(words))
                out.append(MetrizedSpace(_labels(kind, words), rows, check=False))
    return tuple(out)


def _next_level(h, kind: str, d: int, prev_index: dict, prev: list):
    """Words of degree d, in order, as a dict to their positions, and
    the integer Gram over den^d from degree d - 1's.

    Entry (I, J) sums coeff * h[I[0]][j] * prev[I[1:]][J - j] over the
    letters j of J (each distinct letter once, coeff its multiplicity,
    for "sym"; each position c, coeff (-1)^c, for "ext")."""
    words = list(_WORDS[kind](range(len(h)), d))
    drops = []
    for w in words:
        if kind == "sym":
            cut = [(w.count(j), c) for c, j in enumerate(w) if not c or w[c - 1] != j]
        else:
            cut = [(-1 if c & 1 else 1, c) for c in range(d)]
        drops.append([(w[c], m, prev_index[w[:c] + w[c + 1 :]]) for m, c in cut])
    # per first letter a: the terms of every word J with h[a][j] != 0
    terms = [[[(m * ha[j], x) for j, m, x in drop if ha[j]] for drop in drops] for ha in h]
    n = len(words)
    rows = [[0] * n for _ in range(n)]
    for i, w in enumerate(words):
        sub, by_j, row = prev[prev_index[w[1:]]], terms[w[0]], rows[i]
        for j in range(i, n):
            val = 0
            for c, x in by_j[j]:
                val += c * sub[x]
            row[j] = rows[j][i] = val
    return {w: i for i, w in enumerate(words)}, rows


def _perm_sign(word) -> int:
    inv = sum(
        1
        for a in range(len(word))
        for b in range(a + 1, len(word))
        if word[a] > word[b]
    )
    return -1 if inv & 1 else 1


def word_map(src: MetrizedSpace, dst: MetrizedSpace, images, den: int) -> la.Mat:
    """The matrix of the linear map src -> dst given on basis labels,
    over the positive int den.

    images(label) yields (dst label, coeff) pairs for one src label,
    with int coeffs; repeated targets add up, and the entry is the sum
    over den. The map is built from those integers (la._int_mat).
    """
    index = {lab: i for i, lab in enumerate(dst.labels)}
    rows = [[0] * src.dim for _ in range(dst.dim)]
    for c, lab in enumerate(src.labels):
        for target, coeff in images(lab):
            rows[index[target]][c] += coeff
    return la._int_mat(rows, den, src.dim)


def iota_map(v: MetrizedSpace, p: int, normalized: bool = False) -> SpaceMap:
    """S^p v -> T^p v, a word mapping to the sum of its permutations.

    Repeated letters make permutations collide, so the column of a word
    with multiplicities m_i carries entries prod m_i! over (p! / prod
    m_i!) distinct targets. With scale_sq = 1/p! (normalized=True) this
    is an isometry onto its image.
    """
    sp, tp = sym_power(v, p), tensor_power(v, p)

    def images(w):
        for t in itertools.permutations(w.indices):
            yield PowerBasisWord("tensor", t), 1

    scale = Fraction(1, factorial(p)) if normalized else Fraction(1)
    return SpaceMap(sp, tp, word_map(sp, tp, images, 1), scale_sq=scale)


def j_map(v: MetrizedSpace, p: int, normalized: bool = False) -> SpaceMap:
    """Lambda^p v -> T^p v, the signed sum of permutations."""
    ep, tp = ext_power(v, p), tensor_power(v, p)

    def images(w):
        for t in itertools.permutations(w.indices):
            yield PowerBasisWord("tensor", t), _perm_sign(t)

    scale = Fraction(1, factorial(p)) if normalized else Fraction(1)
    return SpaceMap(ep, tp, word_map(ep, tp, images, 1), scale_sq=scale)


def pi_map(v: MetrizedSpace, p: int) -> SpaceMap:
    """T^p v -> S^p v: sort the word, coefficient 1. pi . iota = p! id."""
    sp, tp = sym_power(v, p), tensor_power(v, p)

    def images(w):
        yield PowerBasisWord("sym", tuple(sorted(w.indices))), 1

    return SpaceMap(tp, sp, word_map(tp, sp, images, 1))


def rho_map(v: MetrizedSpace, p: int) -> SpaceMap:
    """T^p v -> Lambda^p v: sign of the sorting shuffle, 0 on repeats."""
    ep, tp = ext_power(v, p), tensor_power(v, p)

    def images(w):
        if len(set(w.indices)) == len(w.indices):
            yield PowerBasisWord("ext", tuple(sorted(w.indices))), _perm_sign(w.indices)

    return SpaceMap(tp, ep, word_map(tp, ep, images, 1))


def tensor_of_spaces(v: MetrizedSpace, w: MetrizedSpace) -> MetrizedSpace:
    """v (x) w with the Kronecker metric; labels are (label_v, label_w)."""
    labels = tuple((lv, lw) for lv in v.labels for lw in w.labels)
    if not labels:
        return ZERO_SPACE
    return MetrizedSpace(labels, la.kron(v.gram, w.gram), check=False)


def tensor_of_maps(f: SpaceMap, g: SpaceMap) -> SpaceMap:
    """f (x) g between the tensor products of domains and codomains."""
    return SpaceMap(
        tensor_of_spaces(f.domain, g.domain),
        tensor_of_spaces(f.codomain, g.codomain),
        la.kron(f.matrix.entries, g.matrix.entries),
        scale_sq=f.matrix.scale_sq * g.matrix.scale_sq,
    )
