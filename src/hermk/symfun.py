"""Symmetric-function identities behind the graded Adams operations.

Polynomials in the elementary (e), complete homogeneous (h), and power
sum (p) generators (SymPoly). Equality in n underlying variables is
decided on the expansion in the monomial symmetric basis m_lam
(PartitionPoly): a symmetric polynomial is fixed by its coefficients at
the partitions lam, and products of generators keep integer coordinates
there. The Chern-character part carries non-symmetric root data and
stays on exponent vectors (MonoPoly). Newton's recurrence writes p_k in
the elementary basis; the alternating composition expansion writes h_k
in elementary terms; and the signed sum matching the secondary Euler
characteristic of the degree-k transform complex reproduces the k-th
power sum. Graded elements model classes that Adams operations scale by
k^p in degree p, and formal Chern characters over symbolic roots verify
that the operations commute with ch.

The three polynomial classes share one integer form, as a linalg Mat
is one: int numerators by key over one least common denominator, in
one ring (a variable count or a generator basis). Conversion, sum,
scaling, == and hash are those of the form; each class adds only its
key check and its product, so sums, products and expansions do their
arithmetic in integers and build no Fraction. Every coefficient,
scalar and root scale is an int or a Fraction; a float raises
TypeError, as it does for a linalg Mat, since Fraction(0.1) is a
binary approximation of 0.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from numbers import Rational
import operator
from types import MappingProxyType

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


class _IntForm:
    """A polynomial over Q as its integer form: nums maps each key to a
    nonzero int numerator, and denom > 0 is the least common
    denominator of the coefficients, so the polynomial is nums / denom,
    in the ring _ring. The form is unique, so == and hash compare
    forms. Calling the class, cls(ring, terms), is the one conversion
    from int or Fraction coefficients: a float raises TypeError, and
    every key passes the class's _keys check (keys that it makes equal
    add up). _form is the builder from integers; add and scaled work on
    forms and refuse a different ring. terms, the coefficients as
    Fractions, is a read-only view built on its first read and kept."""

    __slots__ = ("_ring", "nums", "denom", "_terms")
    _RING = ""  # the ring's attribute name, for repr
    _RINGS = ""  # how a refusal names two rings

    def __init__(self, ring, terms=()):
        terms = dict(terms)
        keys = self._keys(ring, terms)
        ratios = [_ratio(c) for c in terms.values()]
        denom = lcm(*{d for _, d in ratios})
        acc: dict = {}
        get = acc.get
        for key, (n, d) in zip(keys, ratios):
            acc[key] = get(key, 0) + n * (denom // d)
        self._ring = ring
        self.nums, self.denom = _least(acc, denom)
        self._terms = None

    @property
    def terms(self) -> MappingProxyType:
        """The coefficients as Fractions, by key, read-only."""
        if self._terms is None:
            d = self.denom
            self._terms = MappingProxyType({key: Fraction(c, d) for key, c in self.nums.items()})
        return self._terms

    def is_zero(self) -> bool:
        return not self.nums

    def add(self, other):
        return _sum((self, other))

    def scaled(self, c):
        """c times self, for an int or Fraction c (a float raises
        TypeError)."""
        n, d = _ratio(c)
        if n == d:
            return self
        nums = {key: v * n for key, v in self.nums.items()}
        return _form(type(self), self._ring, nums, self.denom * d)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._ring == other._ring and self.denom == other.denom and self.nums == other.nums

    def __hash__(self):
        return hash((self._ring, self.denom, frozenset(self.nums.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self._RING}={self._ring!r}, terms={len(self.nums)})"

    def __reduce__(self):  # the terms view does not pickle
        return _form, (type(self), self._ring, self.nums, self.denom)


_NO_FLOATS = "floats are not exact; pass Fraction or int"


def _ratio(x) -> tuple[int, int]:
    """An exact coefficient as (numerator, denominator > 0). Floats are
    refused: Fraction(0.1) is a binary approximation of 0.1."""
    if isinstance(x, float):
        raise TypeError(_NO_FLOATS)
    if isinstance(x, Rational):
        return x.numerator, x.denominator
    return Fraction(x).as_integer_ratio()


def _least(nums: dict, denom: int) -> tuple[dict, int]:
    """Int numerators over denom > 0 as (nums, denom) over the least
    common denominator: zero numerators dropped, and the rest and denom
    divided by their common factor. This is the integer form."""
    if 0 in nums.values():
        nums = {key: c for key, c in nums.items() if c}
    g = gcd(denom, *nums.values()) if denom != 1 else 1
    if g == 1:
        return nums, denom
    return {key: c // g for key, c in nums.items()}, denom // g


def _form(cls, ring, nums: dict, denom: int):
    """The cls polynomial nums / denom in ring, for int numerators over
    denom > 0, with the form _least(nums, denom). Its keys are not
    checked, and it builds no Fraction."""
    p = object.__new__(cls)
    p._ring = ring
    p.nums, p.denom = _least(nums, denom)
    p._terms = None
    return p


def _same_ring(a: _IntForm, b: _IntForm, what: str) -> None:
    if type(b) is not type(a):
        raise TypeError(f"{what}: a {type(a).__name__} and a {type(b).__name__}")
    if a._ring != b._ring:
        raise ValueError(f"{what}: the {a._RINGS} {a._ring} and {b._ring} differ")


def _sum(polys):
    """The sum of polynomials of one class and ring, added over the lcm
    of their denominators and reduced once."""
    first = polys[0]
    denom = lcm(*{p.denom for p in polys})
    acc: dict = {}
    get = acc.get
    for p in polys:
        _same_ring(first, p, "sum")
        f = denom // p.denom
        for key, c in p.nums.items():
            acc[key] = get(key, 0) + c * f
    return _form(type(first), first._ring, acc, denom)


class MonoPoly(_IntForm):
    """Polynomial over Q in nvars commuting variables, keyed by
    exponent tuples: the coefficients of the formal Chern character.
    MonoPoly(nvars, terms) refuses a key without nvars exponents; mul
    multiplies numerators over the product of the denominators and
    reduces once."""

    __slots__ = ()
    _RING, _RINGS = "nvars", "variable counts"
    nvars = property(operator.attrgetter("_ring"))

    @staticmethod
    def _keys(nvars: int, keys):
        if any(len(expo) != nvars for expo in keys):
            raise ValueError(f"every exponent tuple must have {nvars} entries")
        return keys

    @classmethod
    def unit(cls, nvars: int) -> "MonoPoly":
        return _form(cls, nvars, {(0,) * nvars: 1}, 1)

    def mul(self, other: "MonoPoly") -> "MonoPoly":
        _same_ring(self, other, "product")
        acc: dict = {}
        get, plus = acc.get, operator.add
        for ea, ca in self.nums.items():
            for eb, cb in other.nums.items():
                key = tuple(map(plus, ea, eb))
                acc[key] = get(key, 0) + ca * cb
        return _form(MonoPoly, self._ring, acc, self.denom * other.denom)


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


class PartitionPoly(_IntForm):
    """Symmetric polynomial in nvars variables, held by its coordinates
    in the monomial symmetric basis: the key lam (a descending tuple of
    positive parts, at most nvars of them) carries the coefficient of
    m_lam, which is the coefficient of every monomial whose exponents
    sort to lam. Equal coordinates mean equal polynomials (Macdonald,
    Symmetric Functions and Hall Polynomials, ch. I, section 2).
    PartitionPoly(nvars, coeffs) refuses a key that is no such
    partition; products and generators are built from integers without
    that check."""

    __slots__ = ()
    _RING, _RINGS = "nvars", "variable counts"
    nvars = property(operator.attrgetter("_ring"))

    @staticmethod
    def _keys(nvars: int, keys):
        for lam in keys:
            # descending, and down to a last part of at least 1
            if len(lam) > nvars or any(x < y for x, y in zip(lam, lam[1:] + (1,))):
                raise ValueError(f"{lam} is not a partition with at most {nvars} parts")
        return keys

    def mul(self, other: "PartitionPoly") -> "PartitionPoly":
        """(fg)[lam] = sum over exponent vectors alpha <= lam of
        f[sort(alpha)] g[sort(lam - alpha)], on the numerators over the
        product of the denominators."""
        _same_ring(self, other, "product")
        f, g = self.nums, other.nums
        degrees = {a + b for a in {sum(mu) for mu in f} for b in {sum(nu) for nu in g}}
        out = {}
        for d in degrees:
            for lam in _partitions(d, self._ring):
                c = 0
                for mu, nu, count in _splits(lam):
                    a = f.get(mu)
                    if a:
                        b = g.get(nu)
                        if b:
                            c += count * a * b
                out[lam] = c
        return _form(PartitionPoly, self._ring, out, self.denom * other.denom)


def _generator(basis: str, d: int, n: int) -> PartitionPoly:
    """e_d, h_d or p_d in n variables: e_d = m_(1^d), zero when d > n;
    h_d is the sum of every m_lam with lam a partition of d; p_d = m_(d)."""
    if basis == "e":
        lams = [(1,) * d] if d <= n else []
    elif basis == "h":
        lams = _partitions(d, n)
    else:
        lams = [(d,)]
    return _form(PartitionPoly, n, dict.fromkeys(lams, 1), 1)


_BASES = ("e", "h", "p")


class SymPoly(_IntForm):
    """Polynomial with rational coefficients in one generator family,
    the basis "e", "h" or "p". A key is a sorted tuple of generator
    degrees (a monomial in the generators, e.g. (1, 1, 3) for g1^2 g3);
    the empty tuple is the constant term. SymPoly(basis, terms) sorts
    each key, refuses a degree below 1 and refuses an unknown basis,
    with terms or without."""

    __slots__ = ()
    _RING, _RINGS = "basis", "bases"
    basis = property(operator.attrgetter("_ring"))

    @staticmethod
    def _keys(basis: str, keys):
        if basis not in _BASES:
            raise ValueError(f"unknown basis {basis!r}")
        keys = [tuple(sorted(degs)) for degs in keys]
        if any(d < 1 for degs in keys for d in degs):
            raise ValueError("generator degrees must be >= 1")
        return keys

    def mul(self, other: "SymPoly") -> "SymPoly":
        _same_ring(self, other, "product")
        acc: dict = {}
        get = acc.get
        for da, ca in self.nums.items():
            for db, cb in other.nums.items():
                key = tuple(sorted(da + db))
                acc[key] = get(key, 0) + ca * cb
        return _form(SymPoly, self._ring, acc, self.denom * other.denom)

    def expand(self, n: int) -> PartitionPoly:
        """The symmetric polynomial in n variables, in the monomial
        symmetric basis: equal expansions mean equal polynomials.
        Products of generators have integer coordinates (denominator
        1), so the expansion is the sum of each numerator times its
        product, over denom; terms that share a prefix of generator degrees share its
        product."""
        prods = {(): _form(PartitionPoly, n, {(): 1}, 1)}
        acc: dict = {}
        get = acc.get
        for degs, c in self.nums.items():
            for i, d in enumerate(degs):
                if degs[: i + 1] not in prods:
                    gen = _generator(self._ring, d, n)
                    prods[degs[: i + 1]] = prods[degs[:i]].mul(gen)
            for lam, v in prods[degs].nums.items():
                acc[lam] = get(lam, 0) + c * v
        return _form(PartitionPoly, n, acc, self.denom)


def sym_gen(basis: str, k: int) -> SymPoly:
    """The single generator of degree k (e_k, h_k, or p_k)."""
    return SymPoly(basis, {(k,): 1})


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
        acc[key] = acc.get(key, 0) + (-1) ** (len(comp) + k)
    return _form(SymPoly, "e", acc, 1)


def koszul_euler_identity(k: int, n: int) -> bool:
    """Does sum_{p=0}^{k-1} (-1)^(k-p+1) (k-p) h_p e_{k-p} expand to the
    power sum p_k in n variables? This is the K0-level shadow of the
    secondary Euler characteristic of the degree-k transform complex
    computing the k-th Adams operation."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    terms = [
        _generator("h", p, n).mul(_generator("e", k - p, n)).scaled(_euler_coeff(k, p))
        for p in range(k)
    ]
    return _sum(terms) == _generator("p", k, n)


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
    return GradedElement({p: c.scaled(k**p) for p, c in x.parts.items()})


def graded_mul(x: GradedElement, y: GradedElement) -> GradedElement:
    """Degree-additive product: the products that land in one degree
    are added over one common denominator and reduced once."""
    acc: dict = {}
    for p, cx in x.parts.items():
        for q, cy in y.parts.items():
            acc.setdefault(p + q, []).append(cx.mul(cy))
    return GradedElement({d: ps[0] if len(ps) == 1 else _sum(ps) for d, ps in acc.items()})


@dataclass(frozen=True)
class ChernRootBundle:
    """Formal roots s_i * x_i (x_i symbolic, s_i rational multipliers,
    int or Fraction; a float raises TypeError) with expansions
    truncated beyond degree truncation."""

    root_scales: tuple
    truncation: int

    def __post_init__(self):
        if self.truncation < 0 or self.truncation > 8:
            raise ValueError("truncation degree must be in 0..8")
        for s in self.root_scales:
            _ratio(s)

    @property
    def nroots(self) -> int:
        return len(self.root_scales)

    def power_sum(self, m: int) -> MonoPoly:
        """p_m of the roots as a polynomial in the symbolic generators."""
        n = self.nroots
        ratios = [_ratio(s) for s in self.root_scales]
        denom = lcm(*{d**m for _, d in ratios})
        nums: dict = {}
        for i, (a, d) in enumerate(ratios):
            key = _expo(n, ((i, m),))
            nums[key] = nums.get(key, 0) + a**m * (denom // d**m)
        return _form(MonoPoly, n, nums, denom)


def scale_roots(b: ChernRootBundle, k: int) -> ChernRootBundle:
    return ChernRootBundle(tuple(k * s for s in b.root_scales), b.truncation)


def formal_chern_character(b: ChernRootBundle) -> GradedElement:
    """sum_{m <= truncation} p_m(roots) / m! as a graded element."""
    fact = 1
    parts = {}
    for m in range(b.truncation + 1):
        if m:
            fact *= m
        p_m = b.power_sum(m)
        parts[m] = _form(MonoPoly, p_m.nvars, p_m.nums, p_m.denom * fact)
    return GradedElement(parts)


def adams_chern_commute(b: ChernRootBundle, k: int) -> bool:
    """Scaling the degree-m part by k^m agrees with scaling every root
    by k: the graded operations commute with the Chern character."""
    return graded_adams(formal_chern_character(b), k) == formal_chern_character(
        scale_roots(b, k)
    )
