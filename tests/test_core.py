"""Metrized spaces, scaled matrices, and short exact sequences.

All fixed expectations are hand-computed: complements and quotient
metrics follow from solving <b, v> = 0 and projecting off the kernel.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hermk import _qkernels, core
from hermk import linalg as la
from hermk.core import (
    ZERO_SPACE,
    MetrizedSpace,
    ScaledMatrix,
    ShortExactMetrized,
    SpaceMap,
    direct_sum_space,
    identity_map,
    induced_subspace_metric,
    is_hermitian_split,
    kernel_object,
    orthogonal_complement,
    quotient_metric,
    standard_space,
    subspace_object,
    zero_map,
)
from test_linalg import _canon_span

F = Fraction

SKEW = la.mat([[1, F(1, 2)], [F(1, 2), 1]])


def test_scaled_matrix_canonical_squarefree():
    # sqrt(8) = 2 sqrt(2)
    m = ScaledMatrix(((F(1),),), 8).canonical()
    assert m.entries == ((F(2),),)
    assert m.scale_sq == 2
    # sqrt(9/4) = 3/2 exactly
    m = ScaledMatrix(((F(1),),), F(9, 4)).canonical()
    assert m.entries == ((F(3, 2),),)
    assert m.scale_sq == 1
    # zero matrix forgets its scale
    z = ScaledMatrix(((F(0),),), 7).canonical()
    assert z.scale_sq == 1


def test_scaled_matrix_key_identifies_equal_maps():
    a = ScaledMatrix(((F(2),),), 2)
    b = ScaledMatrix(((F(1),),), 8)
    assert a.key() == b.key()
    assert ScaledMatrix(((F(1),),), 2).key() != a.key()


def test_scaled_matrix_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        ScaledMatrix(((F(1),),), 0)
    with pytest.raises(ValueError):
        ScaledMatrix(((F(1),),), -2)


def _fraction_pivot_pd(g) -> bool:
    """The oracle: Gaussian pivots in Fractions, without row exchange,
    all positive."""
    n = len(g)
    rows = [list(r) for r in g]
    for c in range(n):
        piv = rows[c][c]
        if piv <= 0:
            return False
        for i in range(c + 1, n):
            f = rows[i][c] / piv
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return True


def _random_symmetric(rng: random.Random, n: int, kind: str) -> la.Mat:
    """A symmetric n x n matrix with denominators up to 6: M^T D M for a
    random M and a diagonal D that is positive ("pd"), positive with
    one zero ("psd": singular), or has one negative entry ("indefinite",
    or negative definite when n is 1); "any" is a symmetric matrix with
    independent entries."""
    def entry():
        return F(rng.randrange(-6, 7), rng.randrange(1, 7))

    if kind == "any":
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = entry()
        return la.mat(rows)
    m = la.mat([[entry() for _ in range(n)] for _ in range(n)])
    d = [F(rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(n)]
    if kind == "psd":
        d[rng.randrange(n)] = F(0)
    elif kind == "indefinite":
        d[rng.randrange(n)] = -d[0]
    diag = la.mat([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return la.matmul(la.matmul(la.transpose(m), diag), m)


def test_integer_pd_test_agrees_with_the_fraction_pivot_oracle():
    rng = random.Random(20260)
    verdicts = {True: 0, False: 0}
    kinds = ("pd", "psd", "indefinite", "any")
    for t in range(240):
        kind = kinds[t % 4]
        g = _random_symmetric(rng, rng.randrange(1, 6), kind)
        got = la.is_positive_definite(g)
        assert got == _fraction_pivot_pd(g), (kind, g)
        if kind != "pd":
            # singular and indefinite Grams are never positive definite
            assert kind == "any" or not got
        verdicts[got] += 1
    assert verdicts[True] >= 40 and verdicts[False] >= 100


def test_integer_pd_test_edge_cases():
    pd = la.is_positive_definite
    assert pd(la.zeros(0, 0)) and _fraction_pivot_pd(la.zeros(0, 0))
    assert not pd(la.mat([[-1]])) and not pd(la.mat([[0]]))
    assert pd(la.mat([[F(1, 6)]]))
    # det = 1/6 - 1/9 > 0: positive definite, while the numerators
    # alone, [[1, 1], [1, 1]], are singular
    g = la.mat([[F(1, 6), F(1, 3)], [F(1, 3), 1]])
    assert pd(g) and _fraction_pivot_pd(g)
    assert not pd(la.mat([[1, 1], [1, 1]]))
    # a positive leading entry with a negative 2x2 minor
    assert not pd(la.mat([[1, 2], [2, 1]]))
    assert pd(SKEW)
    # a zero leading minor that a row exchange would get past, negative
    # pivots after positive ones, and a positive definite 3 x 3
    cases = [
        ([[0, 1], [1, 0]], False),
        ([[0, 0], [0, 1]], False),
        ([[1, 0, 0], [0, 0, 1], [0, 1, 0]], False),
        ([[1, 2, 0], [2, 1, 0], [0, 0, 1]], False),
        ([[2, 1, 1], [1, 2, 1], [1, 1, F(1, 2)]], False),
        ([[-1, 0], [0, -1]], False),
        ([[2, 1, 0], [1, 2, 1], [0, 1, F(5, 3)]], True),
    ]
    for rows, expected in cases:
        g = la.mat(rows)
        assert pd(g) is _fraction_pivot_pd(g) is expected, rows
    # with the exchange, [[0, 1], [1, 0]] reaches full rank with a
    # positive diagonal: only the exchange count refuses it
    rescued = [[0, 1], [1, 0]]
    r, _, swaps, _ = _qkernels._bareiss(rescued, False)
    assert (r, swaps) == (2, 1) and rescued[0][0] > 0 and rescued[1][1] > 0


def test_metrized_space_validation():
    with pytest.raises(ValueError):
        MetrizedSpace(("a", "a"), la.identity(2))
    with pytest.raises(ValueError):
        MetrizedSpace(("a", "b"), la.mat([[1, 2], [3, 4]]))
    with pytest.raises(ValueError):
        MetrizedSpace(("a", "b"), la.mat([[1, 2], [2, 1]]))
    s = MetrizedSpace(("a", "b"), SKEW)
    assert s.norm_sq(la.vec([1, 1])) == 3
    assert s.dim == 2


def test_space_map_isometry_and_rank():
    line = standard_space(1, tag="s")
    plane = standard_space(2, tag="t")
    f = SpaceMap(line, plane, ((F(3, 5),), (F(4, 5),)))
    # rectangular: isometric onto its image, not an isometry of spaces
    assert f.is_isometry_onto_image()
    assert not f.is_isometry()
    assert f.is_injective() and not f.is_surjective()
    assert f.rank() == 1
    g = SpaceMap(plane, line, ((F(1), F(0)),))
    assert g.compose(f).matrix.entries == ((F(3, 5),),)
    rot = SpaceMap(plane, plane, ((F(3, 5), F(-4, 5)), (F(4, 5), F(3, 5))))
    assert rot.is_isometry()


def test_scaled_isometry():
    # multiplication by sqrt(1/2) on a doubled metric is an isometry
    src = standard_space(1, tag="u")
    dst = MetrizedSpace((("w", 0),), ((F(2),),))
    f = SpaceMap(src, dst, ScaledMatrix(((F(1),),), F(1, 2)))
    assert f.is_isometry()


def test_compose_through_zero_space_keeps_shape():
    a = standard_space(2, tag="a")
    b = standard_space(2, tag="b")
    f = zero_map(a, ZERO_SPACE)
    g = zero_map(ZERO_SPACE, b)
    assert la.shape(f.matrix.entries) == (0, 2)
    assert la.shape(g.matrix.entries) == (2, 0)
    h = g.compose(f)
    assert la.shape(h.matrix.entries) == (2, 2)
    assert h.is_zero()
    # maps into and out of the zero space keep (codomain.dim, domain.dim)
    assert la.shape(f.compose(identity_map(a)).matrix.entries) == (0, 2)
    assert la.shape(identity_map(b).compose(g).matrix.entries) == (2, 0)
    assert la.shape(f.compose(zero_map(ZERO_SPACE, a)).matrix.entries) == (0, 0)
    # a matrix without rows still has to have the domain's width
    with pytest.raises(ValueError):
        SpaceMap(a, ZERO_SPACE, la.zeros(0, 3))


def test_orthogonal_complement_standard_and_skew():
    # nullspace parametrization: 1 at the free column
    plane = standard_space(2)
    comp = orthogonal_complement(plane, (la.vec([1, 1]),))
    assert comp == (la.vec([-1, 1]),)
    skew = MetrizedSpace(("x", "y"), SKEW)
    comp = orthogonal_complement(skew, (la.vec([1, 0]),))
    assert comp == (la.vec([F(-1, 2), 1]),)
    # empty basis: complement is everything
    assert orthogonal_complement(plane, ()) == tuple(la.identity(2))


def test_induced_subspace_labels_are_basis_vectors():
    plane = standard_space(2)
    sub = induced_subspace_metric(plane, (la.vec([1, 1]),))
    assert sub.labels == (la.vec([1, 1]),)
    assert sub.gram == ((F(2),),)
    # the labels are literal: callers wanting content addressing pass a
    # canonical basis, as the flag calculus does
    other = induced_subspace_metric(plane, (la.vec([2, 2]),))
    assert other.key() != sub.key()
    canon = induced_subspace_metric(plane, _canon_span((la.vec([2, 2]),), 2))
    assert canon.key() == sub.key()


def test_induced_subspace_takes_an_echelon_basis_as_it_is(monkeypatch):
    space = standard_space(3, la.mat([[2, 1, 0], [1, 2, 1], [0, 1, 2]]))
    u, v = la.vec([1, 2, 0]), la.vec([0, 1, 1])
    basis = la.EchelonBasis((u, v), 3)
    checked = induced_subspace_metric(space, basis.rows)
    # raw rows are still checked: dependent ones are refused
    with pytest.raises(ValueError, match="independent"):
        induced_subspace_metric(space, (u, v, la.add_vec(u, v)))
    calls = []
    honest = core._require_independent
    monkeypatch.setattr(
        core, "_require_independent", lambda *a: calls.append(a) or honest(*a)
    )
    fast = induced_subspace_metric(space, basis)
    assert calls == []
    assert fast == checked and fast.key() == checked.key()
    assert induced_subspace_metric(space, la.EchelonBasis((), 3)) is ZERO_SPACE
    with pytest.raises(ValueError):
        induced_subspace_metric(standard_space(2), basis)
    induced_subspace_metric(space, basis.rows)
    assert len(calls) == 1


def test_quotient_metric_skew():
    skew = MetrizedSpace(("x", "y"), SKEW)
    line = standard_space(1, tag="q")
    project = SpaceMap(skew, line, ((F(0), F(1)),))
    q = quotient_metric(project)
    # representative of y off span{x}: y - x/2, norm^2 = 3/4
    assert q.gram == ((F(3, 4),),)


def test_quotient_metric_orthogonal_case_is_plain_restriction():
    plane = standard_space(2)
    line = standard_space(1, tag="q")
    project = SpaceMap(plane, line, ((F(0), F(1)),))
    assert quotient_metric(project).gram == ((F(1),),)


def test_kernel_object_of_zero_map_is_the_domain():
    plane = standard_space(2)
    line = standard_space(1, tag="q")
    ker, incl = kernel_object(zero_map(plane, line))
    assert ker is plane
    assert incl.matrix.entries == la.identity(2)
    proj = SpaceMap(plane, line, ((F(1), F(0)),))
    ker, incl = kernel_object(proj)
    assert ker.dim == 1
    assert proj.compose(incl).is_zero()


def test_kernel_object_equals_the_checked_subspace_without_a_rank(monkeypatch):
    # kernel_object skips the independence rank because the nullspace
    # basis is the identity at its free columns
    rng = random.Random(29)
    cases = []
    for _ in range(40):
        r, c = rng.randrange(1, 5), rng.randrange(1, 7)
        rows = [[F(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.3:
            rows.append([sum(col) for col in zip(*rows)])
        m = la.mat(rows)
        if la.is_zero(m):
            continue  # the whole domain, with no nullspace
        basis, free = la.nullspace_free(m)
        assert la.submatrix(basis, range(len(basis)), free) == la.identity(len(free))
        space = standard_space(c, la.add(la.identity(c), la.identity(c)))
        cases.append((SpaceMap(space, standard_space(len(rows), tag="t"), m), basis))
    assert sum(bool(basis) for _, basis in cases) >= 20
    checked = [subspace_object(f.domain, basis) for f, basis in cases]
    monkeypatch.setattr(la, "rank", lambda a: pytest.fail("rank in kernel_object"))
    for (f, basis), (sub, incl) in zip(cases, checked):
        ker, kincl = kernel_object(f)
        assert ker == sub and ker.key() == sub.key() and kincl == incl
        assert kincl.matrix.entries.ncols == len(basis)


def test_direct_sum_space_layout():
    a = standard_space(1, tag="a")
    b = MetrizedSpace((("b", 0),), ((F(4),),))
    s = direct_sum_space([(0, a), (1, b)])
    assert s.labels == ((0, ("a", 0)), (1, ("b", 0)))
    assert s.gram == la.mat([[1, 0], [0, 4]])


def test_short_exact_validation_and_split():
    plane = standard_space(2, tag="t")
    sub = standard_space(1, tag="s")
    quo = standard_space(1, tag="q")
    inj = SpaceMap(sub, plane, ((F(1),), (F(0),)))
    prj = SpaceMap(plane, quo, ((F(0), F(1)),))
    ses = ShortExactMetrized(inj, prj)
    assert is_hermitian_split(ses)
    # each failure names the term and the test that fails there
    quo2 = standard_space(2, tag="q")
    cases = (
        (SpaceMap(sub, plane, ((F(0),), (F(0),))), prj, "at sub: the ranks"),
        (inj, SpaceMap(plane, quo, ((F(1), F(0)),)), "at total: the product"),
        (inj, SpaceMap(plane, quo, ((F(0), F(0)),)), "at total: the ranks"),
        (inj, SpaceMap(plane, quo2, ((F(0), F(1)), (F(0), F(0)))), "at quot: the ranks"),
    )
    for i, p, msg in cases:
        with pytest.raises(ValueError, match=msg):
            ShortExactMetrized(i, p)


def test_skew_extension_is_not_split():
    total = MetrizedSpace((("t", 0), ("t", 1)), SKEW)
    sub = standard_space(1, tag="s")
    quo = standard_space(1, tag="q")
    inj = SpaceMap(sub, total, ((F(1),), (F(0),)))
    prj = SpaceMap(total, quo, ((F(0), F(1)),))
    ses = ShortExactMetrized(inj, prj)
    assert not is_hermitian_split(ses)
    # same shape with the orthogonal metric and matching quotient splits
    total2 = MetrizedSpace((("t", 0), ("t", 1)), la.identity(2))
    ses2 = ShortExactMetrized(
        SpaceMap(sub, total2, ((F(1),), (F(0),))),
        SpaceMap(total2, quo, ((F(0), F(1)),)),
    )
    assert is_hermitian_split(ses2)


def test_hermitian_split_sees_quotient_metric():
    # orthogonal directions but a rescaled quotient metric break (b)
    total = standard_space(2, tag="t")
    sub = standard_space(1, tag="s")
    quo = MetrizedSpace((("q", 0),), ((F(4),),))
    ses = ShortExactMetrized(
        SpaceMap(sub, total, ((F(1),), (F(0),))),
        SpaceMap(total, quo, ((F(0), F(1)),)),
    )
    assert not is_hermitian_split(ses)


def test_subspace_object_inclusion_isometry():
    plane = standard_space(2)
    sub, incl = subspace_object(plane, (la.vec([1, 1]),))
    assert incl.is_isometry_onto_image()
    assert incl.codomain is plane
    assert sub.norm_sq(la.vec([1])) == 2


def test_identity_map_and_keys():
    plane = standard_space(2)
    assert identity_map(plane).is_isometry()
    assert plane.key() == standard_space(2).key()
    assert plane.key() != standard_space(2, tag="other").key()
