"""Tensor, symmetric, and exterior powers with their induced metrics.

Fixed Grams are hand-computed permanents/determinants of the minor
matrices <e_i, e_j>; the skew metric [[1, 1/2], [1/2, 1]] exercises
off-diagonal terms. The power towers are compared exactly with the
Grams built one permanent or determinant per entry.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from hermk import linalg as la
from hermk.core import ZERO_SPACE, MetrizedSpace, standard_space
from hermk.instances import random_spd_gram
from hermk.multilinear import (
    ext_power,
    iota_map,
    j_map,
    pi_map,
    power_tower,
    rho_map,
    sym_power,
    tensor_of_maps,
    tensor_of_spaces,
    tensor_power,
    word_map,
)

F = Fraction

SKEW = MetrizedSpace(("x", "y"), la.mat([[1, F(1, 2)], [F(1, 2), 1]]))


def test_dimensions_match_counting():
    v = standard_space(3)
    for k in range(4):
        assert tensor_power(v, k).dim == 3**k
        assert sym_power(v, k).dim == math.comb(3 + k - 1, k)
        assert ext_power(v, k).dim == math.comb(3, k)


def test_standard_metric_grams():
    v = standard_space(2)
    assert tensor_power(v, 2).gram == la.identity(4)
    # basis e0e0, e0e1, e1e1: permanent minors give 2, 1, 2
    assert sym_power(v, 2).gram == la.mat([[2, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert ext_power(v, 2).gram == ((F(1),),)


def test_skew_metric_grams():
    s2 = sym_power(SKEW, 2)
    assert s2.gram == la.mat(
        [
            [2, 1, F(1, 2)],
            [1, F(5, 4), 1],
            [F(1, 2), 1, 2],
        ]
    )
    e2 = ext_power(SKEW, 2)
    assert e2.gram == ((F(3, 4),),)


def _minor_gram(g: la.Mat, words, minor) -> la.Mat:
    """The oracle: the Gram of a power space one minor at a time, entry
    (I, J) = minor(G[I, J]), with la.permanent for S^d and la.det for
    Lambda^d."""
    n = len(words)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = minor(la.submatrix(g, words[i], words[j]))
            rows[i][j] = val
            rows[j][i] = val
    return la.Mat(tuple(map(tuple, rows)), n)


KINDS = (
    ("sym", itertools.combinations_with_replacement, la.permanent, sym_power),
    ("ext", itertools.combinations, la.det, ext_power),
)


def test_towers_equal_the_minor_oracle():
    rng = random.Random(53)
    spaces = [standard_space(0), SKEW]
    for dim in (1, 2, 3, 4):
        labels = tuple(f"v{i}" for i in range(dim))
        spaces += [standard_space(dim), MetrizedSpace(labels, random_spd_gram(rng, dim))]
    for v in spaces:
        for kind, words_of, minor, single in KINDS:
            tower = power_tower(v, kind, 5)
            assert len(tower) == 6
            for d, p in enumerate(tower):
                words = list(words_of(range(v.dim), d))
                assert [w.indices for w in p.labels] == words
                assert all(w.kind == kind for w in p.labels)
                assert p.gram == _minor_gram(v.gram, words, minor)
                assert all(type(x) is Fraction for row in p.gram for x in row)
                assert p == single(v, d)
                if not words:
                    # Lambda^d for d > dim, S^d of the zero space for d > 0
                    assert p == ZERO_SPACE


def test_tower_degree_zero_and_bad_arguments():
    for kind, *_ in KINDS:
        (unit,) = power_tower(SKEW, kind, 0)
        assert unit.gram == la.identity(1)
        assert [w.indices for w in unit.labels] == [()]
        with pytest.raises(ValueError):
            power_tower(SKEW, kind, -1)
    with pytest.raises(ValueError):
        power_tower(SKEW, "tensor", 2)
    with pytest.raises(ValueError):
        sym_power(SKEW, -1)


def test_word_enumeration_orders():
    v = standard_space(2)
    assert [w.indices for w in tensor_power(v, 2).labels] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]
    assert [w.indices for w in sym_power(v, 2).labels] == [(0, 0), (0, 1), (1, 1)]
    assert [w.indices for w in ext_power(v, 3).labels] == []


def test_pi_iota_composite_is_factorial():
    for dim in (1, 2, 3):
        v = standard_space(dim)
        for p in (1, 2, 3):
            comp = pi_map(v, p).compose(iota_map(v, p))
            n = comp.domain.dim
            assert comp.matrix.entries == la.scale(
                la.identity(n), F(math.factorial(p))
            )


def test_rho_j_composite_is_factorial():
    for dim in (2, 3):
        v = standard_space(dim)
        for p in (1, 2):
            comp = rho_map(v, p).compose(j_map(v, p))
            n = comp.domain.dim
            assert comp.matrix.entries == la.scale(
                la.identity(n), F(math.factorial(p))
            )


def test_iota_explicit_small_case():
    v = standard_space(2)
    io = iota_map(v, 2)
    # e0 e1 goes to e0(x)e1 + e1(x)e0
    col = [row[1] for row in io.matrix.entries]
    assert col == [F(0), F(1), F(1), F(0)]


def test_j_explicit_small_case():
    v = standard_space(2)
    jm = j_map(v, 2)
    col = [row[0] for row in jm.matrix.entries]
    assert col == [F(0), F(1), F(-1), F(0)]


def test_rho_kills_repeats_and_signs_shuffles():
    v = standard_space(2)
    r = rho_map(v, 2)
    # columns ordered e0e0, e0e1, e1e0, e1e1 target basis e0^e1
    assert r.matrix.entries == ((F(0), F(1), F(-1), F(0)),)


def test_normalized_variants_are_isometric_embeddings():
    for space in (standard_space(2), SKEW):
        for p in (1, 2):
            assert iota_map(space, p, normalized=True).is_isometry_onto_image()
            assert j_map(space, p, normalized=True).is_isometry_onto_image()


def test_tensor_of_spaces_and_maps():
    a = standard_space(2, tag="a")
    b = MetrizedSpace((("b", 0),), ((F(4),),))
    t = tensor_of_spaces(a, b)
    assert t.dim == 2
    assert t.gram == la.mat([[4, 0], [0, 4]])
    f = tensor_of_maps(
        pi_map(a, 1),
        rho_map(b, 1),
    )
    assert f.matrix.entries == la.identity(2)


def test_word_map_adds_repeated_targets():
    a, b = standard_space(2, tag="a"), standard_space(3, tag="b")

    def images(label):
        yield ("b", 0), 2
        yield ("b", 0), 1
        yield ("b", label[1] + 1), -2

    # integer coefficients over the given denominator
    m = word_map(a, b, images, 2)
    assert m == ((F(3, 2), F(3, 2)), (-1, 0), (0, -1))
    assert m.ncols == 2
    assert all(type(x) is Fraction for row in m for x in row)
    assert (m.int_rows, m.den) == (((3, 3), (-2, 0), (0, -2)), 2)
    # the form is over the least denominator: 2 / 2 is 1 / 1
    assert word_map(a, b, lambda label: ((("b", label[1]), 2),), 2).den == 1


def test_word_map_keeps_the_shape_of_empty_spaces():
    b = standard_space(3, tag="b")
    into = word_map(ZERO_SPACE, b, lambda label: (), 1)
    assert (len(into), into.ncols) == (3, 0)
    out = word_map(b, ZERO_SPACE, lambda label: (), 1)
    assert (len(out), out.ncols) == (0, 3)


def test_word_map_rejects_targets_outside_the_codomain():
    a = standard_space(1, tag="a")
    with pytest.raises(KeyError):
        word_map(a, a, lambda label: ((("z", 0), 1),), 1)
