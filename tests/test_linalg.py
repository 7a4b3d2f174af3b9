"""Exact matrix utilities: fixed values cross-checked with sympy, plus
seeded structural properties.

Shape convention under test: every Mat knows its (nrows, ncols), also
when one of them is 0, and every constructor returns the exact shape of
its result; inconsistent shapes raise whatever the dimensions. mat()
coerces raw rows once and hands a Mat back as it is.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from hermk import linalg as la

F = Fraction

A = la.mat([[2, 4, 1, 3], [1, 2, 0, 1], [3, 6, 2, 5]])


def _canon_span(vectors, width) -> la.Mat:
    """Canonical (RREF) basis of the span of the given row vectors."""
    return la.rref(la.stack(vectors, width))[0]


def test_rref_fixed():
    rows, pivots = la.rref(A)
    assert rows == la.mat([[1, 2, 0, 1], [0, 0, 1, 1]])
    assert pivots == (0, 2)


def test_rank_and_det_fixed():
    assert la.rank(A) == 2
    b = la.mat(
        [
            [Fraction(1, 2), 1, 0],
            [0, Fraction(1, 3), 1],
            [1, 0, Fraction(1, 4)],
        ]
    )
    assert la.det(b) == Fraction(25, 24)
    assert la.permanent(la.mat([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) == 463


def test_nullspace_matches_sympy_span():
    null = la.nullspace(A)
    expected = (la.vec([-2, 1, 0, 0]), la.vec([-1, 0, -1, 1]))
    assert _canon_span(null, 4) == _canon_span(expected, 4)
    for v in null:
        assert not any(la.matvec(A, v))


def test_solve_matrix_fixed():
    a = la.mat([[1, 1], [1, 2]])
    b = la.mat([[3, 0], [5, 1]])
    x = la.solve(a, b)
    assert x == la.mat([[1, -1], [2, 1]])
    assert la.matmul(a, x) == b


def test_solve_detects_inconsistency():
    a = la.mat([[1, 1], [2, 2]])
    assert la.solve_vec(a, la.vec([1, 3])) is None
    assert la.solve_vec(a, la.vec([1, 2])) is not None


def test_canon_span_is_rref_and_span_stable():
    rng = random.Random(7)
    for _ in range(20):
        width = rng.randrange(1, 6)
        vecs = [
            la.vec([rng.randrange(-3, 4) for _ in range(width)])
            for _ in range(rng.randrange(0, 5))
        ]
        canon = _canon_span(tuple(vecs), width)
        assert la.EchelonBasis(vecs, width).rows == canon
        assert _canon_span(canon, width) == _canon_span(tuple(vecs), width)
        # canonical: re-canonicalizing shuffled scalar multiples is stable
        scaled = [la.scale_vec(v, Fraction(3, 2)) for v in reversed(vecs)]
        assert _canon_span(tuple(scaled), width) == canon


def test_in_span_and_span_le():
    basis = (la.vec([1, 0, 1]), la.vec([0, 1, 0]))
    assert la.in_span(basis, la.vec([2, 3, 2]))
    assert not la.in_span(basis, la.vec([1, 0, 0]))
    # containment of spans: every row of one is in the other's basis
    assert la.EchelonBasis(basis, 3).contains(la.vec([1, 1, 1]))
    line = la.EchelonBasis((la.vec([1, 1, 1]),), 3)
    assert not all(line.contains(v) for v in basis)


def _span_exact(*mats) -> bool:
    """The span oracle for la.is_exact: at every inner space the image of
    the incoming map equals the kernel of the outgoing one, compared by
    canonical spans."""
    return all(
        _canon_span(la.transpose(f), len(f)) == _canon_span(la.nullspace(g), len(f))
        for f, g in zip(mats, mats[1:])
    )


def _random_mat(rng, r, c):
    return la.Mat(tuple(tuple(F(rng.randrange(-2, 3)) for _ in range(c)) for _ in range(r)), c)


def test_is_exact_matches_the_span_oracle_on_random_pairs():
    rng = random.Random(19)
    outcomes = set()
    for _ in range(150):
        a, b, c = (rng.randrange(0, 5) for _ in range(3))
        g = _random_mat(rng, c, b)
        if rng.randrange(3):
            # f maps onto a random part of ker g, all of it or less:
            # g f = 0, exact or not
            null = la.transpose(la.nullspace(g))
            f = la.matmul(null, _random_mat(rng, null.ncols, a))
        else:
            f = _random_mat(rng, b, a)
        got = la.is_exact(f, g)
        assert got == _span_exact(f, g)
        outcomes.add((got, la.is_zero(la.matmul(g, f))))
    # exact pairs, pairs with g f = 0 that are not exact, and g f != 0
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_is_exact_hand_cases():
    e1 = la.mat([[1], [0]])
    e1t = la.mat([[1, 0]])
    # the ranks add up (1 + 1 = 2) but g f != 0
    assert not la.is_exact(e1, e1t) and not _span_exact(e1, e1t)
    # g f = 0 with a rank deficit (0 + 1 < 2)
    assert not la.is_exact(la.zeros(2, 1), e1t) and not _span_exact(la.zeros(2, 1), e1t)
    assert la.is_exact(la.mat([[0], [1]]), e1t)
    # zero-width ends: injectivity in front, surjectivity at the back
    assert la.is_exact(la.zeros(0, 0), la.zeros(0, 0))
    assert la.is_exact(la.zeros(1, 0), e1) and not la.is_exact(la.zeros(1, 0), la.zeros(2, 1))
    assert la.is_exact(e1t, la.zeros(0, 1)) and not la.is_exact(la.zeros(1, 2), la.zeros(0, 1))
    assert la.is_exact(la.zeros(2, 0), la.zeros(0, 2)) is False
    assert la.is_exact(la.zeros(1, 0), la.mat([[0], [1]]), e1t, la.zeros(0, 1))
    assert not la.is_exact(la.zeros(1, 0), e1, e1t, la.zeros(0, 1))
    # nothing between: no inner space to be exact at
    assert la.is_exact() and la.is_exact(e1)
    # exactness_defect names the first failing space and condition
    assert la.exactness_defect(e1, e1t) == (1, "product")
    assert la.exactness_defect(la.zeros(2, 1), e1t) == (1, "ranks")
    assert la.exactness_defect(la.zeros(1, 0), la.mat([[0], [1]]), e1t) is None
    assert la.exactness_defect(la.zeros(1, 0), la.zeros(2, 1), e1t) == (1, "ranks")
    assert la.exactness_defect(la.zeros(1, 0), e1, e1t) == (2, "product")
    assert la.exactness_defect(e1t, la.zeros(1, 1), la.zeros(0, 1)) == (2, "ranks")
    with pytest.raises(ValueError):
        la.is_exact(e1, la.zeros(1, 3))


def test_block_matrix_layout():
    m = la.block_matrix(
        (2, 1),
        (1, 2),
        {(0, 0): la.mat([[5], [6]]), (1, 1): la.mat([[7, 8]])},
    )
    assert m == la.mat([[5, 0, 0], [6, 0, 0], [0, 7, 8]])


def test_kron_fixed():
    got = la.kron(la.mat([[1, 2]]), la.mat([[3], [4]]))
    assert got == la.mat([[3, 6], [4, 8]])


def _ones(r, c):
    return la.mat([[1] * c for _ in range(r)]) if r else la.zeros(0, c)


DIMS = (0, 1, 2)
SHAPES = [(r, c) for r in DIMS for c in DIMS if 0 in (r, c)]


def test_degenerate_shapes():
    for r, c in SHAPES:
        z = la.zeros(r, c)
        assert la.shape(z) == (r, c)
        assert la.shape(la.transpose(z)) == (c, r)
        assert la.shape(la.transpose(la.transpose(z))) == (r, c)
        assert la.shape(la.scale(z, 2)) == (r, c)
        assert la.shape(la.add(z, z)) == (r, c)
        assert la.shape(la.submatrix(z, range(r), range(c))) == (r, c)
        assert la.shape(la.nullspace(z)) == (c, c)
        assert la.nullspace(z) == la.identity(c)
        rows, pivots = la.rref(z)
        assert la.shape(rows) == (0, c) and pivots == ()
        assert la.shape(la.solve(z, la.zeros(r, 3))) == (c, 3)
        assert la.shape(la.solve(z, la.zeros(r, 0))) == (c, 0)
        assert la.shape(la.hstack(z, _ones(r, 2))) == (r, c + 2)
        assert la.shape(la.vstack(z, _ones(2, c))) == (r + 2, c)
        assert la.shape(la.block_diag(z, _ones(2, 1), z)) == (2 * r + 2, 2 * c + 1)
        assert la.shape(la.block_matrix((r, 1), (c, 2), {(0, 0): z})) == (r + 1, c + 2)
        for r2, c2 in itertools.product(DIMS, DIMS):
            assert la.shape(la.kron(z, _ones(r2, c2))) == (r * r2, c * c2)
            assert la.shape(la.kron(_ones(r2, c2), z)) == (r2 * r, c2 * c)
    for r, k, c in itertools.product(DIMS, DIMS, DIMS):
        if 0 not in (r, k, c):
            continue
        prod = la.matmul(_ones(r, k), _ones(k, c))
        assert la.shape(prod) == (r, c) and prod == la.zeros(r, c)
    # a nonzero right-hand side has no solution with no unknowns
    assert la.solve(la.zeros(2, 0), _ones(2, 1)) is None
    assert la.matvec(la.zeros(0, 2), la.vec([1, 2])) == ()
    assert la.shape(la.mat(())) == (0, 0)


def test_shape_mismatch_raises_for_empty_operands():
    # the inner dimensions differ (0 against 3) although no entry
    # would be summed
    with pytest.raises(ValueError):
        la.matmul(la.zeros(2, 0), la.zeros(3, 4))
    with pytest.raises(ValueError):
        la.matmul(la.zeros(0, 2), la.zeros(3, 0))
    with pytest.raises(ValueError):
        la.matvec(la.zeros(0, 2), la.vec([1, 2, 3]))
    with pytest.raises(ValueError):
        la.vstack(la.zeros(0, 2), la.zeros(0, 3))
    with pytest.raises(ValueError):
        la.hstack(la.zeros(2, 0), la.zeros(3, 0))
    with pytest.raises(ValueError):
        la.block_matrix((1,), (2,), {(0, 0): la.zeros(0, 2)})
    with pytest.raises(ValueError):
        _canon_span(la.zeros(0, 2), 3)


def test_degenerate_products_and_solves_skip_the_kernels(monkeypatch):
    from hermk import _qkernels

    # a with no rows, or b with no columns: the kernel path's answers
    # first, then the same calls with the kernels refusing to run
    products = [
        (la.zeros(0, 3), _ones(3, 2)),
        (_ones(2, 3), la.Mat(((),) * 3, 0)),
        (la.zeros(0, 0), la.zeros(0, 4)),
    ]
    kernel = [la.Mat(tuple(map(tuple, _qkernels.matmul(a, b))), b.ncols) for a, b in products[:2]]
    # no right-hand side: rref(a | b) has its pivots inside a, so the
    # kernel path returned a's width of empty rows
    solves = [
        (_ones(3, 2), la.zeros(3, 0)),
        (la.mat([[1, 2], [3, 4]]), la.zeros(2, 0)),
        (la.zeros(0, 2), la.zeros(0, 0)),
    ]

    def refuse(*args):
        raise AssertionError("kernel called on a degenerate shape")

    monkeypatch.setattr(_qkernels, "matmul", refuse)
    monkeypatch.setattr(_qkernels, "rref", refuse)
    got = [la.matmul(a, b) for a, b in products]
    assert got[:2] == kernel and got[2] == la.zeros(0, 4)
    assert [la.shape(m) for m in got] == [(0, 2), (2, 0), (0, 4)]
    for a, b in solves:
        x = la.solve(a, b)
        assert x == la.Mat(((),) * a.ncols, 0) and la.shape(x) == (a.ncols, 0)
    # zero ends of an exactness test cost no arithmetic either
    assert la.is_exact(la.zeros(0, 0), la.zeros(0, 0))
    assert not la.is_exact(la.zeros(3, 0), la.zeros(0, 3))


def test_mat_coerces_raw_rows_once():
    m = la.mat([[1, "1/2"], [Fraction(2, 3), 0]])
    assert all(type(x) is Fraction for row in m for x in row)
    assert la.mat(m) is m
    z = la.zeros(0, 3)
    assert la.mat(z) is z and la.shape(la.mat(z)) == (0, 3)
    for built in (la.identity(2), la.transpose(m), la.matmul(m, m), la.rref(m)[0]):
        assert isinstance(built, la.Mat) and la.mat(built) is built
    with pytest.raises(TypeError):
        la.mat([[1, 0.5]])
    with pytest.raises(TypeError):
        la.mat(((Fraction(1), 2.0),))
    with pytest.raises(ValueError):
        la.mat([[1, 2], [3]])
    # stack knows the width of an empty list of vectors
    assert la.shape(la.stack((), 3)) == (0, 3) and la.stack(m, 2) is m
    assert la.stack([(1, 2)], 2) == la.mat([[1, 2]])
    with pytest.raises(ValueError):
        la.stack([(1, 2)], 3)
    with pytest.raises(ValueError):
        la.stack(z, 2)
    # a copy or a pickle keeps the shape
    for x in (m, z, la.zeros(2, 0)):
        for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert isinstance(y, la.Mat) and y == x and la.shape(y) == la.shape(x)


def test_bilinear_and_transpose():
    g = la.mat([[2, 1], [1, 3]])
    assert la.bilinear(g, la.vec([1, 1]), la.vec([1, 0])) == 3
    assert la.transpose(la.mat([[1, 2, 3]])) == la.mat([[1], [2], [3]])


def test_rref_idempotent_random():
    rng = random.Random(13)
    for _ in range(20):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        m = la.mat([[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)])
        rows, pivots = la.rref(m)
        if rows:
            again, pivots2 = la.rref(rows)
            assert again == rows and pivots2 == pivots
        assert len(rows) == la.rank(m) == len(pivots)


def test_nullspace_rank_nullity_random():
    rng = random.Random(17)
    for _ in range(20):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        m = la.mat([[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)])
        null = la.nullspace(m)
        assert len(null) == c - la.rank(m)
        for v in null:
            assert not any(la.matvec(m, v))
