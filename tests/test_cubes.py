"""Cubes of metrized spaces attached to flags of subspaces.

Frozen dimensions come from flags with fixed subspace dimensions, so
the quotient dimensions are determined even though the spanning
vectors are random. Sign conventions: the 1-cube differential is
-(sub) + (total) - (quot).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hermk import cubes
from hermk import linalg as la
from hermk.core import (
    MetrizedSpace,
    SpaceMap,
    ZERO_SPACE,
    standard_space,
    zero_map,
)
from hermk.cubes import (
    Cube,
    Flag,
    associated_sum_cube,
    canonical_kernel_rebuild,
    cub,
    cub_chain_property,
    cub_degeneracy_relations,
    cub_degenerate_differential,
    cub_face_relations,
    cube_differential,
    cube_swap,
    degeneracy,
    direct_sum_cube,
    face,
    homotopy_check,
    is_normalized,
    is_split_cube,
    is_structurally_degenerate,
    paired_faces_agree,
    ses_as_cube,
    tau_symmetric,
)
from hermk.instances import random_spd_gram, random_vector
from hermk.koszul import koszul_complex, lambda_rescale, mu_decompose

F = Fraction


def _flag(rng: random.Random, ambient: MetrizedSpace, dims) -> Flag:
    """Nested chain with exactly the given subspace dimensions."""
    chain = []
    space: list = []
    for d in dims:
        while len(space) < d:
            v = random_vector(rng, ambient.dim)
            cand = space + [v]
            if la.rank(la.mat(cand)) == len(cand):
                space = cand
        chain.append(tuple(space))
    return Flag(ambient, chain)


def _ambient(rng: random.Random, n: int) -> MetrizedSpace:
    return standard_space(n, random_spd_gram(rng, n))


def test_one_cube_of_a_two_flag():
    rng = random.Random(7)
    amb = _ambient(rng, 4)
    f = _flag(rng, amb, (1, 3))
    c = cub(f)
    assert c.n == 1
    assert c.vertex((0,)).dim == 1
    assert c.vertex((1,)).dim == 3
    assert c.vertex((2,)).dim == 2  # the quotient E2/E1
    assert face(c, 1, 1).vertex(()) == c.vertex((1,))
    assert face(c, 1, 2).vertex(()) == c.vertex((2,))


def test_one_cube_differential_signs():
    rng = random.Random(7)
    f = _flag(rng, _ambient(rng, 4), (1, 3))
    c = cub(f)
    d = cube_differential(c)
    assert d.coefficient(face(c, 1, 0)) == -1
    assert d.coefficient(face(c, 1, 1)) == 1
    assert d.coefficient(face(c, 1, 2)) == -1


def test_degeneracy_shapes_and_recovery():
    rng = random.Random(11)
    f = _flag(rng, _ambient(rng, 4), (1, 3))
    point = face(cub(f), 1, 1)
    low = degeneracy(point, 1, 0)
    high = degeneracy(point, 1, 1)
    assert low.vertex((0,)) == low.vertex((1,))
    assert low.vertex((2,)).dim == 0
    assert high.vertex((1,)) == high.vertex((2,))
    assert high.vertex((0,)).dim == 0
    assert face(low, 1, 0) == point
    assert face(high, 1, 2) == point
    assert is_structurally_degenerate(low)
    assert is_structurally_degenerate(high)
    assert not is_structurally_degenerate(cub(f))
    assert not is_normalized(low)


def test_three_flag_rows_have_quotient_dimensions():
    rng = random.Random(13)
    amb = _ambient(rng, 6)
    f = _flag(rng, amb, (1, 3, 5))
    c = cub(f)
    assert c.n == 2
    # row j1=2 presents E2/E1 -> E3/E1 -> E3/E2
    dims = tuple(c.vertex((2, j)).dim for j in range(3))
    assert dims == (2, 4, 2)
    assert face(c, 1, 1) == cub(f.face(1))
    assert face(c, 2, 1) == cub(f.face(2))


def test_face_relations_on_random_flags():
    rng = random.Random(17)
    amb = _ambient(rng, 6)
    for length in (2, 3, 4):
        for _ in range(2):
            dims = sorted(rng.sample(range(1, 7), length))
            assert cub_face_relations(_flag(rng, amb, dims))


def test_degenerate_flag_relations():
    rng = random.Random(19)
    amb = _ambient(rng, 6)
    for _ in range(3):
        dims = sorted(rng.sample(range(1, 7), 3))
        f = _flag(rng, amb, dims)
        assert cub_degeneracy_relations(f)
        for i in range(1, f.length):
            assert paired_faces_agree(f, i)


def test_flag_entries_must_be_nested():
    amb = standard_space(3)
    e1, e2, e3 = la.identity(3)
    f = Flag(amb, [(e1,), (e2, e1), (e1, e2)])
    assert f.chain == ((e1,), (e1, e2), (e1, e2))
    assert f == Flag(amb, [(la.scale_vec(e1, 2),), (e1, e2), (e2, la.add_vec(e1, e2))])
    with pytest.raises(ValueError):
        Flag(amb, [(e1, e2), (e3,)])
    with pytest.raises(ValueError):
        Flag(amb, [(e1,), (e2, e3)])


def test_generic_cube_is_not_tau_symmetric():
    rng = random.Random(13)
    f = _flag(rng, _ambient(rng, 6), (1, 3, 5))
    assert not tau_symmetric(cub(f), 1)
    assert cube_swap(cube_swap(cub(f), 1), 1) == cub(f)


def test_differential_squares_to_zero():
    rng = random.Random(23)
    f = _flag(rng, _ambient(rng, 6), (1, 2, 4, 5))
    c = cub(f)
    assert c.n == 3
    assert cube_differential(cube_differential(c)).is_zero()


def test_cubical_face_identity():
    rng = random.Random(23)
    f = _flag(rng, _ambient(rng, 6), (1, 2, 4, 5))
    c = cub(f)
    for i in range(1, 4):
        for j in range(i + 1, 4):
            for k in range(3):
                for m in range(3):
                    assert face(face(c, j, m), i, k) == face(
                        face(c, i, k), j - 1, m
                    )


def test_chain_property_of_cub():
    rng = random.Random(29)
    amb = _ambient(rng, 6)
    assert cub_chain_property(_flag(rng, amb, (3,)))
    for length in (2, 3):
        for _ in range(2):
            dims = sorted(rng.sample(range(1, 7), length))
            assert cub_chain_property(_flag(rng, amb, dims))


def test_degenerate_differential_and_homotopy():
    rng = random.Random(31)
    amb4 = _ambient(rng, 4)
    for _ in range(2):
        dims = sorted(rng.sample(range(1, 5), 2))
        f = _flag(rng, amb4, dims)
        assert cub_degenerate_differential(f, 1)
        assert homotopy_check(f, 1)
    amb6 = _ambient(rng, 6)
    for _ in range(2):
        dims = sorted(rng.sample(range(1, 7), 3))
        f = _flag(rng, amb6, dims)
        for i in (1, 2):
            assert cub_degenerate_differential(f, i)
            assert homotopy_check(f, i)
    with pytest.raises(ValueError):
        cub_degenerate_differential(_flag(rng, amb4, (1, 2)), 2)


def test_zero_flag_is_trivially_homotopic():
    amb = standard_space(4)
    assert homotopy_check(Flag(amb, ((), ())), 1)


def test_direct_sum_cubes_split():
    rng = random.Random(37)
    a = standard_space(2, random_spd_gram(rng, 2), tag="a")
    c = standard_space(1, random_spd_gram(rng, 1), tag="c")
    one = direct_sum_cube({(0,): a, (2,): c})
    assert one.vertex((0,)) == a and one.vertex((2,)) == c
    assert one.vertex((1,)).dim == 3
    assert is_split_cube(one)
    two = direct_sum_cube(
        {
            (0, 0): a,
            (0, 2): c,
            (2, 0): standard_space(1, None, tag="x"),
            (2, 2): ZERO_SPACE,
        }
    )
    assert is_split_cube(two)
    allzero = direct_sum_cube(
        {j: ZERO_SPACE for j in ((0, 0), (0, 2), (2, 0), (2, 2))}
    )
    assert allzero.is_zero()


def test_associated_sum_cube_of_any_cube_splits():
    rng = random.Random(13)
    f = _flag(rng, _ambient(rng, 6), (1, 3, 5))
    assert is_split_cube(associated_sum_cube(cub(f)))


def test_non_orthogonal_extension_is_not_split():
    skew = MetrizedSpace(
        (("t", 0), ("t", 1)), ((F(1), F(1, 2)), (F(1, 2), F(1)))
    )
    sub = standard_space(1, None, tag="s")
    quot = standard_space(1, None, tag="q")
    c = Cube(
        1,
        {(0,): sub, (1,): skew, (2,): quot},
        {
            ((0,), (1,)): SpaceMap(sub, skew, ((F(1),), (F(0),))),
            ((1,), (2,)): SpaceMap(skew, quot, ((F(0), F(1)),)),
        },
    )
    assert not is_split_cube(c)


def test_rescaled_koszul_kernel_cubes_split():
    v = standard_space(2)
    for k in (2, 3):
        rescaled = lambda_rescale(koszul_complex(v, k), k)
        for _, ses in mu_decompose(rescaled):
            assert is_split_cube(ses_as_cube(ses))


def test_normalized_detects_vanishing_faces():
    zero1 = Cube(
        1,
        {(0,): ZERO_SPACE, (1,): ZERO_SPACE, (2,): ZERO_SPACE},
        {
            ((0,), (1,)): zero_map(ZERO_SPACE, ZERO_SPACE),
            ((1,), (2,)): zero_map(ZERO_SPACE, ZERO_SPACE),
        },
    )
    assert is_normalized(zero1)
    rng = random.Random(41)
    assert not is_normalized(cub(_flag(rng, _ambient(rng, 4), (1, 3))))


def test_canonical_kernel_rebuild():
    rng = random.Random(43)
    f = _flag(rng, _ambient(rng, 6), (1, 3, 5))
    target = cub(f)
    rb, isos = canonical_kernel_rebuild(target)
    for (src, dst), old in target.arrows.items():
        assert rb.arrows[(src, dst)].compose(isos[src]) == isos[dst].compose(old)
    for (src, dst), m in rb.arrows.items():
        step = next(p for p in range(rb.n) if src[p] != dst[p])
        if src[step] == 0 and m.domain.dim and m.codomain.dim:
            # the arrow is the literal inclusion of nested label rows
            got = la.matmul(
                la.transpose(la.mat(rb.vertices[dst].labels)), m.matrix.entries
            )
            assert got == la.transpose(la.mat(rb.vertices[src].labels))
            assert m.matrix.scale_sq == 1
    Cube(rb.n, rb.vertices, rb.arrows)  # revalidates all triples


def _oracle_inclusion_map(sub, sup, sub_space, sup_space) -> SpaceMap:
    """The solve-based inclusion that cub used before it read
    coordinates at the pivots of the target's echelon basis."""
    cols = la.solve(la.transpose(sup.rows), la.transpose(sub.rows))
    return SpaceMap(sub_space, sup_space, cols)


def _seeded_flags(seed: int) -> list:
    """Flags of lengths 1-4 in a 5-dimensional ambient space, with zero,
    repeated and full entries among them."""
    rng = random.Random(seed)
    amb = _ambient(rng, 5)
    flags = []
    for length in (1, 2, 3, 4):
        for _ in range(4):
            flags.append(_flag(rng, amb, sorted(rng.choice(range(6)) for _ in range(length))))
        flags.append(_flag(rng, amb, (1, 3, 4)[: length - 1] + (5,)))
        flags.append(_flag(rng, amb, (0,) + (2,) * (length - 1)))
    return flags


def _cub_outcome(f):
    try:
        return cub(f).key()
    except ValueError as err:
        return ("raises", str(err))


def _inclusion_mismatches(monkeypatch, flags) -> list:
    """Indices of the flags whose cube differs when the inclusions are
    built by the solve oracle."""
    new = [_cub_outcome(f) for f in flags]
    with monkeypatch.context() as m:
        m.setattr(cubes, "_inclusion_map", _oracle_inclusion_map)
        old = [_cub_outcome(f) for f in flags]
    return [i for i, (x, y) in enumerate(zip(new, old)) if x != y]


def test_inclusions_match_the_solve_oracle(monkeypatch):
    flags = _seeded_flags(47)
    assert len(flags) >= 20
    dims = [tuple(len(rows) for rows in f.chain) for f in flags]
    assert {len(d) for d in dims} == {1, 2, 3, 4}
    assert any(0 in d for d in dims) and any(len(set(d)) < len(d) for d in dims)
    assert _inclusion_mismatches(monkeypatch, flags) == []


def test_inclusion_oracle_catches_doctored_coords(monkeypatch):
    flags = _seeded_flags(47)
    honest = la.EchelonBasis.coords
    monkeypatch.setattr(
        la.EchelonBasis, "coords", lambda self, v: tuple(2 * x for x in honest(self, v))
    )
    assert _inclusion_mismatches(monkeypatch, flags)
