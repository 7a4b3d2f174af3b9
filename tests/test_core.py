"""Metrized spaces, scaled matrices, and short exact sequences.

All fixed expectations are hand-computed: complements and quotient
metrics follow from solving <b, v> = 0 and projecting off the kernel.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from hermk import linalg as la
from hermk.core import (
    ZERO_SPACE,
    MetrizedSpace,
    ScaledMatrix,
    ShortExactMetrized,
    SpaceMap,
    direct_sum_space,
    dsum_injection,
    dsum_projection,
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


def test_direct_sum_space_layout():
    a = standard_space(1, tag="a")
    b = MetrizedSpace((("b", 0),), ((F(4),),))
    s = direct_sum_space([(0, a), (1, b)])
    assert s.labels == ((0, ("a", 0)), (1, ("b", 0)))
    assert s.gram == la.mat([[1, 0], [0, 4]])
    inj = dsum_injection([(0, a), (1, b)], 1)
    prj = dsum_projection([(0, a), (1, b)], 0)
    assert inj.is_isometry_onto_image()
    assert prj.compose(inj).is_zero()


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
