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
MonoPoly, an integer form, is in turn checked against the Fraction-dict
class it replaced (OracleMonoPoly below).
"""

from __future__ import annotations

import random
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
    for degs, coeff in poly.terms:
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
    assert sym_gen("e", 2).expand(3).coeffs == {(1, 1): 1}
    assert sym_gen("h", 2).expand(2).coeffs == {(2,): 1, (1, 1): 1}
    assert sym_gen("h", 3).expand(2).coeffs == {(3,): 1, (2, 1): 1}
    assert sym_gen("p", 3).expand(2).coeffs == {(3,): 1}
    assert sym_gen("e", 3).expand(2) == PartitionPoly(2)
    assert SymPoly.make("p", {(): F(1)}).expand(4).coeffs == {(): 1}


def test_partition_keys_must_be_partitions_within_nvars():
    # a symmetric polynomial has no coordinate at x_2 alone, and none
    # at a monomial with more parts than variables
    for key in ((0, 1), (1, 2), (1, 0), (1, 1, 1)):
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
    assert newton_power_sum(2).term_dict() == {(1, 1): F(1), (2,): F(-2)}
    assert newton_power_sum(3).term_dict() == {
        (1, 1, 1): F(1),
        (1, 2): F(-3),
        (3,): F(3),
    }
    assert complete_from_compositions(2).term_dict() == {(1, 1): F(1), (2,): F(-1)}
    assert complete_from_compositions(3).term_dict() == {
        (1, 1, 1): F(1),
        (1, 2): F(-2),
        (3,): F(1),
    }


def test_sympoly_arithmetic_and_validation():
    a = sym_gen("e", 1)
    assert a.mul(a).term_dict() == {(1, 1): F(1)}
    assert a.add(a.scaled(-1)).is_zero()
    assert SymPoly.make("e", {(): F(1)}).term_dict() == {(): F(1)}
    with pytest.raises(ValueError):
        sym_gen("e", 0)
    with pytest.raises(ValueError):
        SymPoly.make("q", {})
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


# -- MonoPoly against the Fraction-dict class it replaced ------------------


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

    @classmethod
    def unit(cls, nvars: int) -> "OracleMonoPoly":
        return cls(nvars, {(0,) * nvars: Fraction(1)})

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


def _random_terms(rng, nvars: int) -> dict:
    """A few terms of low degree; coefficients are ints, or Fractions
    built from negative and non-unit denominators, sometimes 0."""
    terms = {}
    for _ in range(rng.randrange(5)):
        expo = tuple(rng.randrange(3) for _ in range(nvars))
        num = rng.randrange(-4, 5)
        terms[expo] = num if rng.random() < 0.3 else F(num, rng.choice((1, -1, 2, -2, 3, 4, -6)))
    return terms


def _scalar(rng):
    return rng.choice((0, 1, -1, 2, F(1, 2), F(-3, 4), F(6, -9), F(5, 3)))


def _routes(rng, nvars: int, make) -> list:
    """Polynomials built by make (MonoPoly or OracleMonoPoly) along
    fixed routes from one random draw: the same draw gives the same
    routes for both classes, and several routes reach one polynomial."""
    a = make(nvars, _random_terms(rng, nvars))
    b = make(nvars, _random_terms(rng, nvars))
    c, half = _scalar(rng), F(1, 2)
    x = make(nvars, {(1,) + (0,) * (nvars - 1): 1})
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
        x.scaled(half).scaled(2),  # (x/2) 2, equal to x
        x.scaled(half).add(x.scaled(half)),  # x/2 + x/2, equal to x
        x,
        make(nvars),
        make(nvars, {(0,) * nvars: F(3, 6)}).mul(make(nvars, {(0,) * nvars: 2})),
        make.unit(nvars),
    ]


def oracle_mismatches(trials: int, seed: int = 20261021) -> list:
    """(trial, route, what) wherever MonoPoly and the oracle disagree
    on a route's terms or zero test, or on == or hash between two
    routes (a route against itself too)."""
    rng = random.Random(seed)
    out = []
    for trial in range(trials):
        nvars = rng.randrange(1, 4)
        state = rng.getstate()
        fast = _routes(rng, nvars, MonoPoly)
        rng.setstate(state)
        slow = _routes(rng, nvars, OracleMonoPoly)
        for i, (f, o) in enumerate(zip(fast, slow)):
            if f.terms != o.terms or f.is_zero() != o.is_zero() or f.nvars != o.nvars:
                out.append((trial, i, "terms"))
            for j in range(i, len(fast)):
                if (f == fast[j]) != (o == slow[j]):
                    out.append((trial, (i, j), "=="))
                elif f == fast[j] and hash(f) != hash(fast[j]):
                    out.append((trial, (i, j), "hash"))
    return out


def test_monopoly_matches_the_fraction_dict_oracle():
    assert oracle_mismatches(300) == []


def test_a_reduction_without_the_gcd_step_is_caught_by_the_oracle(monkeypatch):
    # the doctored form drops zeros but keeps the common factor, so
    # (x/2) 2 is 2x/2 while x is x/1: the terms agree, == does not
    def no_gcd(nums, denom):
        return {e: c for e, c in nums.items() if c}, denom

    monkeypatch.setattr(symfun, "_least", no_gcd)
    found = oracle_mismatches(30)
    assert found and {what for *_, what in found} == {"=="}


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: MonoPoly(1, {(0,): 0.5}),
        lambda: MonoPoly.unit(1).scaled(0.5),
        lambda: ChernRootBundle((F(1), 0.1), 2),
        lambda: graded_adams(formal_chern_character(_plain_roots(1, 2)), 2.0),
        lambda: PartitionPoly(2, {(1,): 0.5}),
        lambda: sym_gen("e", 2).expand(2).scaled(0.5),
        lambda: SymPoly.make("e", {(1,): 0.5}),
        lambda: sym_gen("e", 1).scaled(0.5),
    ],
    ids=[
        "MonoPoly",
        "MonoPoly.scaled",
        "ChernRootBundle",
        "graded_adams",
        "PartitionPoly",
        "PartitionPoly.scaled",
        "SymPoly.make",
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
