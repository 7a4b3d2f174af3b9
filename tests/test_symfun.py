"""Symmetric-function identities and the graded operations they shadow.

The frozen left-hand sides (p2, p3 by Newton's recurrence and h2, h3
by compositions, both in the elementary basis) are the classical
expansions, cross-checked against a computer-algebra expansion before
freezing. Identity tests compare expansions in the
monomial symmetric basis (PartitionPoly), the module's equality test.

The oracle for those expansions is the full expansion over every
exponent vector of n variables (MonoPoly products of e_monomials,
h_monomials and p_monomials below, the module's former construction):
restricted to descending exponent vectors, it must give the same
coordinates for every generator product and identity side, n <= 5.

MonoPoly, PartitionPoly and SymPoly share one integer form, int
numerators over one least denominator. Each is checked against the
Fraction class it replaced (OracleMonoPoly, OraclePartitionPoly and
OracleSymPoly below) on seeded random routes: conversion, sums,
scalings, products, expansions, == and hash, with cancellation to zero
and non-unit denominators. A stub in place of symfun's Fraction shows
that sums, products and expansions build none.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

import pytest

from hermk import symfun
from hermk.symfun import (
    ChernRootBundle,
    GradedElement,
    MonoPoly,
    PartitionPoly,
    SymPoly,
    adams_chern_commute,
    complete_from_compositions,
    compositions,
    formal_chern_character,
    graded_adams,
    graded_mul,
    koszul_euler_identity,
    newton_power_sum,
    scale_roots,
    sym_gen,
)

F = Fraction


def _expo(n: int, letters) -> tuple:
    out = [0] * n
    for i in letters:
        out[i] += 1
    return tuple(out)


@lru_cache(maxsize=None)
def e_monomials(k: int, n: int) -> MonoPoly:
    """Elementary symmetric polynomial e_k in n variables."""
    if k == 0:
        return MonoPoly.unit(n)
    return MonoPoly(n, {_expo(n, sel): F(1) for sel in combinations(range(n), k)})


@lru_cache(maxsize=None)
def h_monomials(k: int, n: int) -> MonoPoly:
    """Complete homogeneous symmetric polynomial h_k in n variables."""
    if k == 0:
        return MonoPoly.unit(n)
    return MonoPoly(
        n, {_expo(n, sel): F(1) for sel in combinations_with_replacement(range(n), k)}
    )


@lru_cache(maxsize=None)
def p_monomials(k: int, n: int) -> MonoPoly:
    """Power sum p_k in n variables."""
    if k == 0:
        return MonoPoly(n, {(0,) * n: F(n)})
    return MonoPoly(n, {_expo(n, (i,) * k): F(1) for i in range(n)})


_MONOMIALS = {"e": e_monomials, "h": h_monomials, "p": p_monomials}


def monomial_expand(poly: SymPoly, n: int) -> MonoPoly:
    """Expansion over every exponent vector of n variables."""
    out = MonoPoly(n)
    for degs, coeff in poly.terms.items():
        prod = MonoPoly.unit(n)
        for d in degs:
            prod = prod.mul(_MONOMIALS[poly.basis](d, n))
        out = out.add(prod.scaled(coeff))
    return out


def monomial_euler_identity(k: int, n: int) -> bool:
    acc = MonoPoly(n)
    for p in range(k):
        term = h_monomials(p, n).mul(e_monomials(k - p, n))
        acc = acc.add(term.scaled((-1) ** (k - p + 1) * (k - p)))
    return acc == p_monomials(k, n)


def restricted(poly: MonoPoly) -> PartitionPoly:
    """The coefficients at descending exponent vectors, as partitions."""
    return PartitionPoly(
        poly.nvars,
        {
            tuple(x for x in e if x): c
            for e, c in poly.terms.items()
            if list(e) == sorted(e, reverse=True)
        },
    )


def product_mismatches(top_n: int, top_degree: int) -> list:
    """The pairs of e/h/p generators up to top_degree, in n <= top_n
    variables, whose partition product differs from the oracle's."""
    gens = [(basis, d) for basis in ("e", "h", "p") for d in range(1, top_degree + 1)]
    out = []
    for n in range(1, top_n + 1):
        for (ba, da), (bb, db) in combinations_with_replacement(gens, 2):
            fast = sym_gen(ba, da).expand(n).mul(sym_gen(bb, db).expand(n))
            slow = _MONOMIALS[ba](da, n).mul(_MONOMIALS[bb](db, n))
            if fast != restricted(slow):
                out.append((ba, da, bb, db, n))
    return out


def test_generator_monomials_in_two_variables():
    assert e_monomials(2, 2).terms == {(1, 1): 1}
    assert h_monomials(2, 2).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert p_monomials(2, 2).terms == {(2, 0): 1, (0, 2): 1}
    assert p_monomials(3, 2).terms == {(3, 0): 1, (0, 3): 1}
    assert e_monomials(3, 2).is_zero()  # e_k vanishes beyond nvars


def test_generator_coordinates_in_the_monomial_symmetric_basis():
    assert sym_gen("e", 2).expand(3).terms == {(1, 1): 1}
    assert sym_gen("h", 2).expand(2).terms == {(2,): 1, (1, 1): 1}
    assert sym_gen("h", 3).expand(2).terms == {(3,): 1, (2, 1): 1}
    assert sym_gen("p", 3).expand(2).terms == {(3,): 1}
    assert sym_gen("e", 3).expand(2) == PartitionPoly(2)
    assert SymPoly("p", {(): F(1)}).expand(4).terms == {(): 1}


def test_partition_keys_must_be_partitions_within_nvars():
    # a symmetric polynomial has no coordinate at x_2 alone, and none
    # at a monomial with more parts than variables
    for key in ((0, 1), (1, 2), (1, 0), (1, 1, 1), (1, -1)):
        with pytest.raises(ValueError):
            PartitionPoly(2, {key: 1})
    assert PartitionPoly(2, {(2, 1): 0}) == PartitionPoly(2)


def test_partition_products_match_monomial_oracle():
    assert product_mismatches(5, 5) == []


def test_identity_sides_match_monomial_oracle():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for side in (
                newton_power_sum(k),
                sym_gen("p", k),
                complete_from_compositions(k),
                sym_gen("h", k),
            ):
                assert side.expand(n) == restricted(monomial_expand(side, n))
            assert koszul_euler_identity(k, n) == monomial_euler_identity(k, n)


def _sorted_alpha_splits(lam):
    # the doctored product: only descending alpha <= lam, so each pair
    # of partitions counts once instead of once per placement
    acc = {}
    for alpha in product(*(range(x + 1) for x in lam)):
        if list(alpha) == sorted(alpha, reverse=True):
            rest = [x - a for x, a in zip(lam, alpha)]
            key = (symfun._partition_of(alpha), symfun._partition_of(rest))
            acc[key] = acc.get(key, 0) + 1
    return tuple((mu, nu, count) for (mu, nu), count in acc.items())


def test_sorted_alpha_product_is_caught_by_the_oracle(monkeypatch):
    monkeypatch.setattr(symfun, "_splits", _sorted_alpha_splits)
    assert product_mismatches(3, 3)
    assert not koszul_euler_identity(3, 3)


def test_newton_rewrites_are_frozen():
    assert newton_power_sum(2).terms == {(1, 1): F(1), (2,): F(-2)}
    assert newton_power_sum(3).terms == {
        (1, 1, 1): F(1),
        (1, 2): F(-3),
        (3,): F(3),
    }
    assert complete_from_compositions(2).terms == {(1, 1): F(1), (2,): F(-1)}
    assert complete_from_compositions(3).terms == {
        (1, 1, 1): F(1),
        (1, 2): F(-2),
        (3,): F(1),
    }


def test_sympoly_arithmetic_and_validation():
    a = sym_gen("e", 1)
    assert a.mul(a).terms == {(1, 1): F(1)}
    assert a.add(a.scaled(-1)).is_zero()
    assert SymPoly("e", {(): F(1)}).terms == {(): F(1)}
    with pytest.raises(ValueError):
        sym_gen("e", 0)
    with pytest.raises(ValueError):
        SymPoly("q", {})
    with pytest.raises(ValueError, match="bases e and h differ"):
        a.add(sym_gen("h", 1))
    with pytest.raises(ValueError, match="bases e and p differ"):
        a.mul(sym_gen("p", 1))


def test_compositions_enumeration():
    assert compositions(1) == [(1,)]
    assert compositions(3) == [(3,), (1, 2), (1, 1, 1), (2, 1)]
    for k in range(1, 9):
        comps = compositions(k)
        assert len(comps) == 2 ** (k - 1)
        assert len(set(comps)) == len(comps)
        assert all(sum(c) == k and min(c) >= 1 for c in comps)
    with pytest.raises(ValueError):
        compositions(0)


def test_newton_power_sum_matches_generator():
    for k in range(1, 7):
        n = max(k, 3)
        assert newton_power_sum(k).expand(n) == sym_gen("p", k).expand(n)
        assert newton_power_sum(k).basis == "e"


def test_complete_from_compositions_matches_generator():
    for k in range(1, 7):
        n = max(k, 3)
        assert complete_from_compositions(k).expand(n) == sym_gen("h", k).expand(n)


def test_koszul_euler_identity_holds_in_range():
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert koszul_euler_identity(k, n)
    with pytest.raises(ValueError):
        koszul_euler_identity(3, 2)


def _constant(c) -> MonoPoly:
    return MonoPoly(1, {(0,): F(c)})


def _graded(parts: dict) -> GradedElement:
    return GradedElement({p: _constant(c) for p, c in parts.items()})


def test_graded_adams_scales_by_degree_powers():
    x = _graded({0: 1, 1: 2, 3: F(1, 3)})
    y = graded_adams(x, 3)
    assert y == _graded({0: 1, 1: 6, 3: 9})
    assert graded_adams(x, 0) == _graded({0: 1})
    assert _graded({0: 1, 2: 0}).degrees() == [0]
    with pytest.raises(ValueError):
        graded_adams(x, -1)


def test_graded_adams_is_multiplicative():
    x = _graded({0: 1, 1: F(1, 2), 2: 3})
    y = _graded({1: 2, 2: -1})
    for k in range(5):
        lhs = graded_adams(graded_mul(x, y), k)
        rhs = graded_mul(graded_adams(x, k), graded_adams(y, k))
        assert lhs == rhs


def _plain_roots(n: int, truncation: int) -> ChernRootBundle:
    return ChernRootBundle((F(1),) * n, truncation)


def test_chern_character_of_one_plain_root():
    ch = formal_chern_character(_plain_roots(1, 3))
    assert ch.parts[0] == MonoPoly.unit(1)
    assert ch.parts[1].terms == {(1,): F(1)}
    assert ch.parts[2].terms == {(2,): F(1, 2)}
    assert ch.parts[3].terms == {(3,): F(1, 6)}


def test_adams_commutes_with_chern_character():
    for nroots in range(1, 5):
        for trunc in range(7):
            b = _plain_roots(nroots, trunc)
            for k in range(5):
                assert adams_chern_commute(b, k)


def test_adams_commutes_for_scaled_roots():
    b = ChernRootBundle((F(2), F(-1, 2), F(0), F(3, 2)), 5)
    for k in range(1, 5):
        assert adams_chern_commute(b, k)
        assert scale_roots(b, k).root_scales == tuple(k * s for s in b.root_scales)


def test_chern_character_multiplicativity_shadow():
    # ch respects the graded product degreewise, so adams distributes
    b = _plain_roots(2, 4)
    x = formal_chern_character(b)
    for k in range(4):
        assert graded_adams(graded_mul(x, x), k) == graded_mul(
            graded_adams(x, k), graded_adams(x, k)
        )


# -- the integer forms against the Fraction classes they replaced ----------


class OracleMonoPoly:
    """The former MonoPoly: a dict of Fraction coefficients, every sum
    and product through Fraction arithmetic. The oracle of MonoPoly."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=()):
        self.nvars = nvars
        acc: dict = {}
        for expo, coeff in dict(terms).items():
            if coeff:
                acc[expo] = acc.get(expo, Fraction(0)) + coeff
        self.terms = {e: c for e, c in acc.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "OracleMonoPoly") -> "OracleMonoPoly":
        acc = dict(self.terms)
        for expo, coeff in other.terms.items():
            acc[expo] = acc.get(expo, Fraction(0)) + coeff
        return OracleMonoPoly(self.nvars, acc)

    def mul(self, other: "OracleMonoPoly") -> "OracleMonoPoly":
        acc: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                acc[key] = acc.get(key, Fraction(0)) + ca * cb
        return OracleMonoPoly(self.nvars, acc)

    def scaled(self, c) -> "OracleMonoPoly":
        return OracleMonoPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, OracleMonoPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))


class OraclePartitionPoly:
    """The former PartitionPoly: a dict of int or Fraction coefficients
    by partition, every result built through the partition check. The
    oracle of PartitionPoly."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=()):
        self.nvars = nvars
        self.coeffs = {lam: c for lam, c in dict(coeffs).items() if c}
        for lam in self.coeffs:
            if len(lam) > nvars or any(x < y for x, y in zip(lam, lam[1:])) or 0 in lam:
                raise ValueError(f"{lam} is not a partition with at most {nvars} parts")

    def is_zero(self) -> bool:
        return not self.coeffs

    def add(self, other: "OraclePartitionPoly") -> "OraclePartitionPoly":
        acc = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            acc[lam] = acc.get(lam, 0) + c
        return OraclePartitionPoly(self.nvars, acc)

    def scaled(self, c) -> "OraclePartitionPoly":
        return OraclePartitionPoly(self.nvars, {lam: c * v for lam, v in self.coeffs.items()})

    def mul(self, other: "OraclePartitionPoly") -> "OraclePartitionPoly":
        f, g = self.coeffs, other.coeffs
        degrees = {a + b for a in {sum(mu) for mu in f} for b in {sum(nu) for nu in g}}
        out = {}
        for d in degrees:
            for lam in symfun._partitions(d, self.nvars):
                c = 0
                for mu, nu, count in symfun._splits(lam):
                    a = f.get(mu)
                    if a:
                        b = g.get(nu)
                        if b:
                            c += count * a * b
                out[lam] = c
        return OraclePartitionPoly(self.nvars, out)

    def __eq__(self, other):
        if not isinstance(other, OraclePartitionPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.coeffs == other.coeffs


def _oracle_generator(basis: str, d: int, n: int) -> OraclePartitionPoly:
    if basis == "e":
        lams = [(1,) * d] if d <= n else []
    elif basis == "h":
        lams = symfun._partitions(d, n)
    else:
        lams = [(d,)]
    return OraclePartitionPoly(n, dict.fromkeys(lams, 1))


@dataclass(frozen=True)
class OracleSymPoly:
    """The former SymPoly: a sorted tuple of (degrees, Fraction) pairs,
    every sum, product and expansion through Fraction arithmetic. The
    oracle of SymPoly."""

    basis: str
    terms: tuple

    @staticmethod
    def make(basis: str, terms=()) -> "OracleSymPoly":
        if basis not in ("e", "h", "p"):
            raise ValueError(f"unknown basis {basis!r}")
        acc: dict = {}
        for degs, coeff in dict(terms).items():
            key = tuple(sorted(degs))
            if any(d < 1 for d in key):
                raise ValueError("generator degrees must be >= 1")
            acc[key] = acc.get(key, Fraction(0)) + coeff
        return OracleSymPoly(basis, tuple(sorted((k, c) for k, c in acc.items() if c)))

    def term_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "OracleSymPoly") -> "OracleSymPoly":
        acc = self.term_dict()
        for degs, coeff in other.terms:
            acc[degs] = acc.get(degs, Fraction(0)) + coeff
        return OracleSymPoly.make(self.basis, acc)

    def mul(self, other: "OracleSymPoly") -> "OracleSymPoly":
        acc: dict = {}
        for da, ca in self.terms:
            for db, cb in other.terms:
                key = tuple(sorted(da + db))
                acc[key] = acc.get(key, Fraction(0)) + ca * cb
        return OracleSymPoly.make(self.basis, acc)

    def scaled(self, c) -> "OracleSymPoly":
        return OracleSymPoly.make(self.basis, {d: c * v for d, v in self.terms})

    def expand(self, n: int) -> OraclePartitionPoly:
        prods = {(): OraclePartitionPoly(n, {(): 1})}
        out = OraclePartitionPoly(n)
        for degs, coeff in self.terms:
            for i, d in enumerate(degs):
                if degs[: i + 1] not in prods:
                    gen = _oracle_generator(self.basis, d, n)
                    prods[degs[: i + 1]] = prods[degs[:i]].mul(gen)
            out = out.add(prods[degs].scaled(coeff))
        return out


# A ring draw gives (ring, key draw, the key of one variable, the key
# of the constants).


def _mono_ring(rng):
    n = rng.randrange(1, 4)
    return n, lambda r: tuple(r.randrange(3) for _ in range(n)), (1,) + (0,) * (n - 1), (0,) * n


def _partition_ring(rng):
    n = rng.randrange(1, 4)
    lams = [lam for d in range(5) for lam in symfun._partitions(d, n)]
    return n, lambda r: r.choice(lams), (1,), ()


def _sym_ring(rng):
    # unsorted degree tuples: conversion sorts them and adds up repeats
    basis = rng.choice("ehp")
    return basis, lambda r: tuple(r.randrange(1, 4) for _ in range(r.randrange(4))), (1,), ()


# class name -> (class, oracle builder, ring draw, (ring, terms) of a
# class instance, (ring, terms) of an oracle instance)
ORACLES = {
    "MonoPoly": (
        MonoPoly,
        OracleMonoPoly,
        _mono_ring,
        lambda p: (p.nvars, p.terms),
        lambda o: (o.nvars, o.terms),
    ),
    "PartitionPoly": (
        PartitionPoly,
        OraclePartitionPoly,
        _partition_ring,
        lambda p: (p.nvars, p.terms),
        lambda o: (o.nvars, o.coeffs),
    ),
    "SymPoly": (
        SymPoly,
        OracleSymPoly.make,
        _sym_ring,
        lambda p: (p.basis, p.terms),
        lambda o: (o.basis, o.term_dict()),
    ),
}


def _random_terms(rng, key) -> dict:
    """A few terms at keys drawn by key(rng); coefficients are ints, or
    Fractions built from negative and non-unit denominators, sometimes 0."""
    terms = {}
    for _ in range(rng.randrange(5)):
        k = key(rng)
        num = rng.randrange(-4, 5)
        terms[k] = num if rng.random() < 0.3 else F(num, rng.choice((1, -1, 2, -2, 3, 4, -6)))
    return terms


def _scalar(rng):
    return rng.choice((0, 1, -1, 2, F(1, 2), F(-3, 4), F(6, -9), F(5, 3)))


def _routes(rng, make, ring, key, x, one) -> list:
    """Polynomials built by make (a class or its oracle) along fixed
    routes from one random draw: the same draw gives the same routes
    for both classes, and several routes reach one polynomial. x is the
    key of one variable (generator, partition (1,)), one that of the
    constants."""
    a = make(ring, _random_terms(rng, key))
    b = make(ring, _random_terms(rng, key))
    c, half = _scalar(rng), F(1, 2)
    xp = make(ring, {x: 1})
    return [
        a,
        b,
        a.add(b),
        b.add(a),
        a.mul(b),
        b.mul(a),
        a.scaled(c),
        a.scaled(c).scaled(F(1) / c) if c else a.scaled(0),
        a.add(a.scaled(-1)),  # cancels to zero
        a.mul(b).add(a.mul(b.scaled(-1))),  # cancels to zero
        a.add(b).mul(a.add(b.scaled(-1))),  # (a + b)(a - b)
        a.mul(a).add(b.mul(b).scaled(-1)),  # a^2 - b^2, the same
        xp.scaled(half).scaled(2),  # (x/2) 2, equal to x
        xp.scaled(half).add(xp.scaled(half)),  # x/2 + x/2, equal to x
        xp,
        make(ring),
        make(ring, {one: F(3, 6)}).mul(make(ring, {one: 2})),
        make(ring, {one: 1}),
    ]


def _pair_mismatches(fast, slow, view, oracle_view, where, what) -> list:
    """(where, route, what) wherever fast and slow disagree on a route's
    ring and terms or zero test, or on == or hash between two routes
    (a route against itself too)."""
    out = []
    for i, (f, o) in enumerate(zip(fast, slow)):
        if view(f) != oracle_view(o) or f.is_zero() != o.is_zero():
            out.append((where, i, what))
        for j in range(i, len(fast)):
            if (f == fast[j]) != (o == slow[j]):
                out.append((where, (i, j), what + " =="))
            elif f == fast[j] and hash(f) != hash(fast[j]):
                out.append((where, (i, j), what + " hash"))
    return out


def oracle_mismatches(name: str, trials: int, seed: int = 20261021) -> list:
    """(trial, route, what) wherever the class name and its oracle
    disagree on the routes of a draw: what is "terms", "terms ==" or
    "terms hash", and for SymPoly "expand", "expand ==" or
    "expand hash" on the expansions in 1..3 variables."""
    cls, oracle, draw, view, oracle_view = ORACLES[name]
    part_view, part_oracle_view = ORACLES["PartitionPoly"][3:]
    rng = random.Random(seed)
    out = []
    for trial in range(trials):
        ring, *keys = draw(rng)
        state = rng.getstate()
        fast = _routes(rng, cls, ring, *keys)
        rng.setstate(state)
        slow = _routes(rng, oracle, ring, *keys)
        out += _pair_mismatches(fast, slow, view, oracle_view, trial, "terms")
        if cls is SymPoly:
            for n in (1, 2, 3):
                out += _pair_mismatches(
                    [f.expand(n) for f in fast],
                    [o.expand(n) for o in slow],
                    part_view,
                    part_oracle_view,
                    trial,
                    "expand",
                )
    return out


def test_monopoly_matches_the_fraction_dict_oracle():
    assert oracle_mismatches("MonoPoly", 300) == []


def test_partitionpoly_matches_the_former_class():
    assert oracle_mismatches("PartitionPoly", 300) == []


def test_sympoly_and_its_expansions_match_the_former_class():
    assert oracle_mismatches("SymPoly", 150) == []


def test_a_reduction_without_the_gcd_step_is_caught_by_the_oracle(monkeypatch):
    # the doctored form drops zeros but keeps the common factor, so
    # (x/2) 2 is 2x/2 while x is x/1: the terms agree, == does not
    def no_gcd(nums, denom):
        return {e: c for e, c in nums.items() if c}, denom

    monkeypatch.setattr(symfun, "_least", no_gcd)
    for name in ORACLES:
        found = {what for *_, what in oracle_mismatches(name, 30)}
        assert "terms ==" in found and not found & {"terms", "expand"}, name


def test_an_expansion_without_its_denominator_is_caught_by_the_oracle(monkeypatch):
    honest = SymPoly.expand
    monkeypatch.setattr(SymPoly, "expand", lambda self, n: honest(self, n).scaled(self.denom))
    found = {what for *_, what in oracle_mismatches("SymPoly", 30)}
    assert "expand" in found and "terms" not in found


def test_monopoly_holds_its_least_integer_form():
    x = MonoPoly(2, {(1, 0): F(1, 2), (0, 1): F(-3, 4), (1, 1): 0})
    assert (x.nums, x.denom) == ({(1, 0): 2, (0, 1): -3}, 4)
    assert x.terms == {(1, 0): F(1, 2), (0, 1): F(-3, 4)}
    assert x.terms is x.terms  # built once
    y = x.scaled(4)
    assert (y.nums, y.denom) == ({(1, 0): 2, (0, 1): -3}, 1)
    assert all(type(c) is int for c in y.nums.values())
    zero = x.add(x.scaled(-1))
    assert zero.is_zero() and (zero.nums, zero.denom) == ({}, 1) and zero == MonoPoly(2)
    assert hash(x.scaled(F(1, 3)).scaled(3)) == hash(x)
    assert MonoPoly(1, {(0,): F(2, -4)}).denom == 2  # a positive denominator
    assert MonoPoly.unit(2) == MonoPoly(2, {(0, 0): 1})


def test_monopoly_refuses_mixed_variable_counts():
    a, b = MonoPoly.unit(2), MonoPoly.unit(3)
    with pytest.raises(ValueError, match="product: the variable counts 2 and 3 differ"):
        a.mul(b)
    with pytest.raises(ValueError, match="sum: the variable counts 2 and 3 differ"):
        a.add(b)
    with pytest.raises(ValueError, match="every exponent tuple must have 2 entries"):
        MonoPoly(2, {(1, 0, 0): 1})
    x = formal_chern_character(_plain_roots(2, 3))
    with pytest.raises(ValueError, match="variable counts 2 and 3 differ"):
        graded_mul(x, formal_chern_character(_plain_roots(3, 3)))
    with pytest.raises(TypeError, match="sum: a MonoPoly and a PartitionPoly"):
        MonoPoly.unit(1).add(PartitionPoly(1, {(): 1}))


def test_partition_sum_refuses_mixed_variable_counts():
    # the sum once answered {(1,): 2} in 3 variables
    a, b = PartitionPoly(3, {(1,): 1}), PartitionPoly(2, {(1,): 1})
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="sum: the variable counts"):
            x.add(y)


def test_partition_product_refuses_mixed_variable_counts():
    # the product once answered in the first factor's variable count
    a, b = sym_gen("e", 1).expand(3), sym_gen("e", 1).expand(2)
    with pytest.raises(ValueError, match="product: the variable counts 3 and 2 differ"):
        a.mul(b)
    with pytest.raises(ValueError, match="product: the variable counts 2 and 3 differ"):
        b.mul(a)


class _NoFraction:
    """Stands in for symfun's Fraction: building one fails."""

    def __init__(self, *args):
        raise AssertionError("symfun built a Fraction")


def test_sums_products_and_expansions_build_no_fraction(monkeypatch):
    given = {(2, 1): F(1, 3), (3,): 2, (1, 1): F(-5, 4)}
    bundles = [ChernRootBundle((2, -1, 0), 4), ChernRootBundle((F(3, 2), F(-1, 2), 1), 4)]
    monkeypatch.setattr(symfun, "Fraction", _NoFraction)
    symfun._p_in_e.cache_clear()  # built again under the stub
    for k in range(1, 6):
        assert koszul_euler_identity(k, 5)
        assert newton_power_sum(k).expand(5) == sym_gen("p", k).expand(5)
        assert complete_from_compositions(k).expand(5) == sym_gen("h", k).expand(5)
    for b in bundles:  # a gs-commute instance: both of its checks
        x = formal_chern_character(b)
        for k in range(4):
            assert adams_chern_commute(b, k)
            lhs = graded_adams(graded_mul(x, x), k)
            assert lhs == graded_mul(graded_adams(x, k), graded_adams(x, k))
    p = SymPoly("e", given)
    assert p.mul(p).add(p.scaled(F(2, 3))).expand(4) == PartitionPoly(4).add(
        p.expand(4).mul(p.expand(4)).add(p.expand(4).scaled(F(2, 3)))
    )
    with pytest.raises(AssertionError, match="built a Fraction"):
        p.terms
    symfun._p_in_e.cache_clear()


@pytest.mark.parametrize(
    "build",
    [
        lambda: MonoPoly(1, {(0,): 0.5}),
        lambda: MonoPoly.unit(1).scaled(0.5),
        lambda: ChernRootBundle((F(1), 0.1), 2),
        lambda: graded_adams(formal_chern_character(_plain_roots(1, 2)), 2.0),
        lambda: PartitionPoly(2, {(1,): 0.5}),
        lambda: sym_gen("e", 2).expand(2).scaled(0.5),
        lambda: SymPoly("e", {(1,): 0.5}),
        lambda: sym_gen("e", 1).scaled(0.5),
    ],
    ids=[
        "MonoPoly",
        "MonoPoly.scaled",
        "ChernRootBundle",
        "graded_adams",
        "PartitionPoly",
        "PartitionPoly.scaled",
        "SymPoly",
        "SymPoly.scaled",
    ],
)
def test_floats_are_refused(build):
    # Fraction(0.1) would be the binary approximation 3602879701896397/2^55
    with pytest.raises(TypeError, match="floats are not exact"):
        build()


def test_truncation_window_is_validated():
    with pytest.raises(ValueError):
        ChernRootBundle((F(1),), 9)
    with pytest.raises(ValueError):
        ChernRootBundle((F(1),), -1)
    assert _plain_roots(2, 8).truncation == 8


def test_terms_is_a_read_only_view_built_once():
    cached = symfun._p_in_e(6)
    before = dict(cached.terms)
    polys = [
        MonoPoly(2, {(1, 0): F(1, 2), (0, 2): 3}),
        PartitionPoly(3, {(2, 1): F(2, 3)}),
        sym_gen("e", 2).mul(sym_gen("e", 1)).scaled(F(1, 3)),
        cached,
    ]
    for p in polys:
        view = p.terms
        assert view is p.terms and view
        key = next(iter(view))
        with pytest.raises(TypeError):
            view[key] = 0
        with pytest.raises(TypeError):
            del view[key]
        with pytest.raises(TypeError):
            view[()] = 1
        assert p.terms is view
        # a polynomial still pickles, though its view does not
        twin = pickle.loads(pickle.dumps(p))
        assert twin == p and twin.terms == view
    # so the lru_cache'd p_6 reads as it did, and equals a fresh build
    assert symfun._p_in_e(6) is cached and dict(cached.terms) == before
    assert cached == symfun._p_in_e.__wrapped__(6)
