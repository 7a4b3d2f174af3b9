"""Symmetric-function identities behind the graded Adams operations.

Polynomials in the elementary (e), complete homogeneous (h), and power
sum (p) generators. Equality in n underlying variables is decided on
the expansion in the monomial symmetric basis m_lam (PartitionPoly):
a symmetric polynomial is fixed by its coefficients at the partitions
lam, and products of generators keep integer coordinates there. The
Chern-character part carries non-symmetric root data and stays on
exponent vectors (MonoPoly). Newton's recurrence writes p_k in the
elementary basis; the alternating composition expansion writes h_k in
elementary terms; and the signed sum matching the secondary Euler
characteristic of the degree-k transform complex reproduces the k-th
power sum. Graded elements model classes that Adams operations scale
by k^p in degree p, and formal Chern characters over symbolic roots
verify that the operations commute with ch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

__all__ = [
    "MonoPoly",
    "PartitionPoly",
    "SymPoly",
    "sym_gen",
    "compositions",
    "newton_power_sum",
    "complete_from_compositions",
    "koszul_euler_identity",
    "GradedElement",
    "graded_adams",
    "graded_mul",
    "ChernRootBundle",
    "scale_roots",
    "formal_chern_character",
    "adams_chern_commute",
]


class MonoPoly:
    """Polynomial over Q in nvars commuting variables, keyed by
    exponent tuples: the coefficients of the formal Chern character."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=()):
        self.nvars = nvars
        acc: dict = {}
        for expo, coeff in dict(terms).items():
            if coeff:
                acc[expo] = acc.get(expo, Fraction(0)) + coeff
        self.terms = {e: c for e, c in acc.items() if c}

    @classmethod
    def unit(cls, nvars: int) -> "MonoPoly":
        return cls(nvars, {(0,) * nvars: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "MonoPoly") -> "MonoPoly":
        acc = dict(self.terms)
        for expo, coeff in other.terms.items():
            acc[expo] = acc.get(expo, Fraction(0)) + coeff
        return MonoPoly(self.nvars, acc)

    def mul(self, other: "MonoPoly") -> "MonoPoly":
        acc: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                acc[key] = acc.get(key, Fraction(0)) + ca * cb
        return MonoPoly(self.nvars, acc)

    def scaled(self, c) -> "MonoPoly":
        return MonoPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, MonoPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MonoPoly(nvars={self.nvars}, terms={len(self.terms)})"


def _expo(nvars: int, pairs) -> tuple:
    out = [0] * nvars
    for i, d in pairs:
        out[i] += d
    return tuple(out)


def _partition_of(expo) -> tuple:
    """The parts of an exponent vector in descending order, zeros dropped."""
    return tuple(sorted((x for x in expo if x), reverse=True))


@lru_cache(maxsize=None)
def _partitions(d: int, maxparts: int, largest: int | None = None) -> tuple:
    """Partitions of d with at most maxparts parts, each part at most
    largest, as descending tuples."""
    if d == 0:
        return ((),)
    if maxparts == 0:
        return ()
    top = d if largest is None else min(d, largest)
    return tuple(
        (first,) + rest
        for first in range(top, 0, -1)
        for rest in _partitions(d - first, maxparts - 1, first)
    )


@lru_cache(maxsize=None)
def _splits(lam: tuple) -> tuple:
    """The exponent vectors alpha <= lam, coordinate by coordinate,
    grouped as (sort(alpha), sort(lam - alpha), how many alpha) triples."""
    acc: dict = {}
    for alpha in product(*(range(x + 1) for x in lam)):
        key = (_partition_of(alpha), _partition_of(x - a for x, a in zip(lam, alpha)))
        acc[key] = acc.get(key, 0) + 1
    return tuple((mu, nu, count) for (mu, nu), count in acc.items())


class PartitionPoly:
    """Symmetric polynomial in nvars variables, held by its coordinates
    in the monomial symmetric basis: coeffs maps a partition lam (a
    descending tuple of positive parts, at most nvars of them) to the
    coefficient of m_lam, which is the coefficient of every monomial
    whose exponents sort to lam. Equal coordinates mean equal
    polynomials (Macdonald, Symmetric Functions and Hall Polynomials,
    ch. I, section 2)."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=()):
        self.nvars = nvars
        self.coeffs = {lam: c for lam, c in dict(coeffs).items() if c}
        for lam in self.coeffs:
            if len(lam) > nvars or any(x < y for x, y in zip(lam, lam[1:])) or 0 in lam:
                raise ValueError(f"{lam} is not a partition with at most {nvars} parts")

    def add(self, other: "PartitionPoly") -> "PartitionPoly":
        acc = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            acc[lam] = acc.get(lam, 0) + c
        return PartitionPoly(self.nvars, acc)

    def scaled(self, c) -> "PartitionPoly":
        return PartitionPoly(self.nvars, {lam: c * v for lam, v in self.coeffs.items()})

    def mul(self, other: "PartitionPoly") -> "PartitionPoly":
        """(fg)[lam] = sum over exponent vectors alpha <= lam of
        f[sort(alpha)] g[sort(lam - alpha)]."""
        f, g = self.coeffs, other.coeffs
        degrees = {a + b for a in {sum(mu) for mu in f} for b in {sum(nu) for nu in g}}
        out = {}
        for d in degrees:
            for lam in _partitions(d, self.nvars):
                c = 0
                for mu, nu, count in _splits(lam):
                    a = f.get(mu)
                    if a:
                        b = g.get(nu)
                        if b:
                            c += count * a * b
                out[lam] = c
        return PartitionPoly(self.nvars, out)

    def __eq__(self, other):
        if not isinstance(other, PartitionPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.coeffs == other.coeffs

    def __repr__(self):
        return f"PartitionPoly(nvars={self.nvars}, terms={len(self.coeffs)})"


def _generator(basis: str, d: int, n: int) -> PartitionPoly:
    """e_d, h_d or p_d in n variables: e_d = m_(1^d), zero when d > n;
    h_d is the sum of every m_lam with lam a partition of d; p_d = m_(d)."""
    if basis == "e":
        lams = [(1,) * d] if d <= n else []
    elif basis == "h":
        lams = _partitions(d, n)
    else:
        lams = [(d,)]
    return PartitionPoly(n, dict.fromkeys(lams, 1))


_BASES = ("e", "h", "p")


@dataclass(frozen=True)
class SymPoly:
    """Polynomial with rational coefficients in one generator family.

    terms maps a sorted tuple of generator degrees (a monomial in the
    generators, e.g. (1, 1, 3) for g1^2 g3) to its coefficient. The
    empty tuple is the constant term.
    """

    basis: str
    terms: tuple  # tuple of (degrees, Fraction), canonically sorted

    @staticmethod
    def make(basis: str, terms) -> "SymPoly":
        if basis not in _BASES:
            raise ValueError(f"unknown basis {basis!r}")
        acc: dict = {}
        for degs, coeff in dict(terms).items():
            key = tuple(sorted(degs))
            if any(d < 1 for d in key):
                raise ValueError("generator degrees must be >= 1")
            acc[key] = acc.get(key, Fraction(0)) + coeff
        pruned = tuple(sorted((k, c) for k, c in acc.items() if c))
        return SymPoly(basis, pruned)

    def term_dict(self) -> dict:
        return dict(self.terms)

    def add(self, other: "SymPoly") -> "SymPoly":
        if self.basis != other.basis:
            raise ValueError(f"addition: the bases {self.basis} and {other.basis} differ")
        acc = self.term_dict()
        for degs, coeff in other.terms:
            acc[degs] = acc.get(degs, Fraction(0)) + coeff
        return SymPoly.make(self.basis, acc)

    def mul(self, other: "SymPoly") -> "SymPoly":
        if self.basis != other.basis:
            raise ValueError(f"product: the bases {self.basis} and {other.basis} differ")
        acc: dict = {}
        for da, ca in self.terms:
            for db, cb in other.terms:
                key = tuple(sorted(da + db))
                acc[key] = acc.get(key, Fraction(0)) + ca * cb
        return SymPoly.make(self.basis, acc)

    def scaled(self, c) -> "SymPoly":
        return SymPoly.make(self.basis, {d: c * v for d, v in self.terms})

    def expand(self, n: int) -> PartitionPoly:
        """The symmetric polynomial in n variables, in the monomial
        symmetric basis: equal expansions mean equal polynomials.
        Products of generators have integer coordinates; each term's
        coefficient scales its product once, and terms that share a
        prefix of generator degrees share its product."""
        prods = {(): PartitionPoly(n, {(): 1})}
        out = PartitionPoly(n)
        for degs, coeff in self.terms:
            for i, d in enumerate(degs):
                if degs[: i + 1] not in prods:
                    gen = _generator(self.basis, d, n)
                    prods[degs[: i + 1]] = prods[degs[:i]].mul(gen)
            out = out.add(prods[degs].scaled(coeff))
        return out

    def is_zero(self) -> bool:
        return not self.terms


def sym_gen(basis: str, k: int) -> SymPoly:
    """The single generator of degree k (e_k, h_k, or p_k)."""
    if k < 1:
        raise ValueError("generators have degree >= 1")
    return SymPoly.make(basis, {(k,): Fraction(1)})


@lru_cache(maxsize=None)
def _p_in_e(k: int) -> SymPoly:
    # p_k = sum_{i=1..k-1} (-1)^(i-1) e_i p_{k-i} + (-1)^(k-1) k e_k
    out = sym_gen("e", k).scaled((-1) ** (k - 1) * k)
    for i in range(1, k):
        out = out.add(sym_gen("e", i).mul(_p_in_e(k - i)).scaled((-1) ** (i - 1)))
    return out


def compositions(k: int) -> list[tuple[int, ...]]:
    """All ordered tuples of positive integers summing to k
    (2^(k-1) of them)."""
    if k < 1:
        raise ValueError("compositions need k >= 1")
    out = [(k,)]
    for head in range(1, k):
        out.extend((head,) + rest for rest in compositions(k - head))
    return out


def newton_power_sum(k: int) -> SymPoly:
    """The k-th power sum written in the elementary basis through the
    alternating recurrence p_k = p_{k-1}e_1 - p_{k-2}e_2 + ...
    + (-1)^(k-1) k e_k."""
    if k < 1:
        raise ValueError("power sums need k >= 1")
    return _p_in_e(k)


def complete_from_compositions(k: int) -> SymPoly:
    """sum over compositions (i_1..i_l) of (-1)^(l+k) e_{i_1}...e_{i_l};
    equals h_k."""
    acc: dict = {}
    for comp in compositions(k):
        key = tuple(sorted(comp))
        acc[key] = acc.get(key, Fraction(0)) + (-1) ** (len(comp) + k)
    return SymPoly.make("e", acc)


def koszul_euler_identity(k: int, n: int) -> bool:
    """Does sum_{p=0}^{k-1} (-1)^(k-p+1) (k-p) h_p e_{k-p} expand to the
    power sum p_k in n variables? This is the K0-level shadow of the
    secondary Euler characteristic of the degree-k transform complex
    computing the k-th Adams operation."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    acc = PartitionPoly(n)
    for p in range(k):
        term = _generator("h", p, n).mul(_generator("e", k - p, n))
        acc = acc.add(term.scaled(_euler_coeff(k, p)))
    return acc == _generator("p", k, n)


def _euler_coeff(k: int, p: int) -> int:
    """The coefficient of h_p e_(k-p) in the secondary Euler sum."""
    return (-1) ** (k - p + 1) * (k - p)


# -- graded classes and the Chern character --------------------------------


class GradedElement:
    """Finitely supported map degree -> coefficient, each coefficient a
    MonoPoly in the symbolic roots."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        self.parts = {p: c for p, c in dict(parts).items() if not c.is_zero()}

    def degrees(self):
        return sorted(self.parts)

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(frozenset(self.parts.items()))

    def __repr__(self):
        return f"GradedElement(degrees={self.degrees()})"


def graded_adams(x: GradedElement, k: int) -> GradedElement:
    """Scale the degree-p part by k^p."""
    if k < 0:
        raise ValueError("graded operations need k >= 0")
    return GradedElement({p: c.scaled(Fraction(k) ** p) for p, c in x.parts.items()})


def graded_mul(x: GradedElement, y: GradedElement) -> GradedElement:
    """Degree-additive product."""
    acc: dict = {}
    for p, cx in x.parts.items():
        for q, cy in y.parts.items():
            prod = cx.mul(cy)
            acc[p + q] = acc[p + q].add(prod) if p + q in acc else prod
    return GradedElement(acc)


@dataclass(frozen=True)
class ChernRootBundle:
    """Formal roots s_i * x_i (x_i symbolic, s_i rational multipliers)
    with expansions truncated beyond degree truncation."""

    root_scales: tuple
    truncation: int

    def __post_init__(self):
        if self.truncation < 0 or self.truncation > 8:
            raise ValueError("truncation degree must be in 0..8")

    @property
    def nroots(self) -> int:
        return len(self.root_scales)

    def power_sum(self, m: int) -> MonoPoly:
        """p_m of the roots as a polynomial in the symbolic generators."""
        n = self.nroots
        terms: dict = {}
        for i, s in enumerate(self.root_scales):
            key = _expo(n, ((i, m),))
            terms[key] = terms.get(key, Fraction(0)) + Fraction(s) ** m
        return MonoPoly(n, terms)


def scale_roots(b: ChernRootBundle, k: int) -> ChernRootBundle:
    return ChernRootBundle(tuple(Fraction(k) * s for s in b.root_scales), b.truncation)


def formal_chern_character(b: ChernRootBundle) -> GradedElement:
    """sum_{m <= truncation} p_m(roots) / m! as a graded element."""
    fact = 1
    parts = {}
    for m in range(b.truncation + 1):
        if m:
            fact *= m
        parts[m] = b.power_sum(m).scaled(Fraction(1, fact))
    return GradedElement(parts)


def adams_chern_commute(b: ChernRootBundle, k: int) -> bool:
    """Scaling the degree-m part by k^m agrees with scaling every root
    by k: the graded operations commute with the Chern character."""
    return graded_adams(formal_chern_character(b), k) == formal_chern_character(
        scale_roots(b, k)
    )
