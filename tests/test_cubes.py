"""Cubes of metrized spaces attached to flags of subspaces.

Frozen dimensions come from flags with fixed subspace dimensions, so
the quotient dimensions are determined even though the spanning
vectors are random. Sign conventions: the 1-cube differential is
-(sub) + (total) - (quot).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from hermk import cubes
from hermk import linalg as la
from hermk.core import (
    MetrizedSpace,
    ScaledMatrix,
    SpaceMap,
    ZERO_SPACE,
    direct_sum_space,
    identity_map,
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
from hermk.cli import _random_sum_parts
from hermk.instances import random_flag, random_spd_gram, random_vector
from hermk.koszul import koszul_complex, lambda_rescale, mu_decompose
from test_linalg import _same_mat

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


def _coefficients(total: cubes.CubeSum) -> dict:
    """cube -> coefficient of a formal sum."""
    return {cube: coeff for coeff, cube in total.summands()}


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
    coeffs = _coefficients(d)
    assert [coeffs.get(face(c, 1, i), 0) for i in range(3)] == [-1, 1, -1]


def test_equal_cubes_built_apart_merge_in_a_sum():
    rng = random.Random(7)
    f = _flag(rng, _ambient(rng, 4), (1, 3))
    c = cub(f)
    again = Cube(c.n, dict(c.vertices), dict(c.arrows))
    assert again is not c and again == c and hash(again) == hash(c)
    total = cubes.CubeSum(1, ((2, c), (3, again)))
    assert len(total.summands()) == 1
    assert _coefficients(total) == {c: 5}
    assert cubes.CubeSum(1, ((1, c), (-1, again))).is_zero()


def test_cubes_differing_in_one_arrow_entry_stay_apart():
    rng = random.Random(7)
    f = _flag(rng, _ambient(rng, 4), (1, 3))
    c = cub(f)
    pair = ((0,), (1,))
    m = c.arrows[pair]
    rows = [list(row) for row in m.matrix.entries]
    rows[0][0] += 1
    arrows = dict(c.arrows)
    arrows[pair] = SpaceMap(m.domain, m.codomain, ScaledMatrix(la.mat(rows), m.matrix.scale_sq))
    other = Cube(c.n, dict(c.vertices), arrows, check=False)
    # same shape, so the same hash, but not the same cube
    assert hash(other) == hash(c) and other != c
    total = cubes.CubeSum(1, ((1, c), (1, other)))
    assert len(total.summands()) == 2
    assert _coefficients(total) == {c: 1, other: 1}


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


def test_random_flag_draws_as_the_rank_test_did():
    # random_flag decides independence by EchelonBasis.add; the rank of
    # each candidate list (_flag) must give the same flags from the same
    # draws. Low dimensions make dependent draws common.
    for seed in range(30):
        for dim in (1, 2, 3, 4):
            amb = standard_space(dim)
            for length in range(1, dim + 2):
                mine, theirs = random.Random(seed), random.Random(seed)
                got = random_flag(mine, amb, length)
                dims = sorted(theirs.sample(range(dim + 1), length))
                want = _flag(theirs, amb, dims)
                assert got.chain == want.chain
                assert [len(b.rows) for b in got.bases] == dims
                assert mine.getstate() == theirs.getstate()


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


def _entrywise_direct_sum_cube(parts) -> Cube:
    """direct_sum_cube with each arrow's entries set one by one: 1 where
    a row and a column stand for the same coordinate of the same
    summand, 0 elsewhere."""
    n = len(next(iter(parts)))

    def summands(j):
        ones = [k for k, v in enumerate(j) if v == 1]
        out = []
        for m in product((0, 2), repeat=len(ones)):
            tag = list(j)
            for k, v in zip(ones, m):
                tag[k] = v
            out.append((tuple(tag), parts[tuple(tag)]))
        return out

    sums = {j: summands(j) for j in product((0, 1, 2), repeat=n)}
    spaces = {j: ss[0][1] if len(ss) == 1 else direct_sum_space(ss) for j, ss in sums.items()}
    arrows = {}
    for j, ss in sums.items():
        for i in range(n):
            if j[i] < 2:
                d = j[:i] + (j[i] + 1,) + j[i + 1 :]
                cols = [(tag, r) for tag, p in ss for r in range(p.dim)]
                rows = [(tag, r) for tag, p in sums[d] for r in range(p.dim)]
                entries = la.stack([[int(x == y) for x in cols] for y in rows], len(cols))
                arrows[(j, d)] = SpaceMap(spaces[j], spaces[d], entries)
    return Cube(n, spaces, arrows)


def test_direct_sum_cubes_match_the_entrywise_construction():
    rng = random.Random(263)
    for trial in range(12):
        parts = _random_sum_parts(rng, 1 + trial % 3)
        got = direct_sum_cube(parts)
        want = _entrywise_direct_sum_cube(parts)
        assert got == want
        for key, arrow in got.arrows.items():
            assert _same_mat(arrow.matrix.entries, want.arrows[key].matrix.entries)


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
        return cub(f)
    except ValueError as err:
        return ("raises", str(err))


def _outcome_key(x):
    return x.key() if isinstance(x, Cube) else x


def _inclusion_mismatches(monkeypatch, seed: int) -> list:
    """Indices of the flags whose cube differs when the inclusions are
    built by the solve oracle. Each route draws its own flags, so it
    starts from empty family tables and reads nothing the other built."""
    new = [_cub_outcome(f) for f in _seeded_flags(seed)]
    with monkeypatch.context() as m:
        m.setattr(cubes, "_inclusion_map", _oracle_inclusion_map)
        old = [_cub_outcome(f) for f in _seeded_flags(seed)]
    assert not any(x is y for x, y in zip(new, old) if isinstance(x, Cube))
    return [
        i for i, (x, y) in enumerate(zip(new, old)) if _outcome_key(x) != _outcome_key(y)
    ]


def test_inclusions_match_the_solve_oracle(monkeypatch):
    flags = _seeded_flags(47)
    assert len(flags) >= 20
    dims = [tuple(len(rows) for rows in f.chain) for f in flags]
    assert {len(d) for d in dims} == {1, 2, 3, 4}
    assert any(0 in d for d in dims) and any(len(set(d)) < len(d) for d in dims)
    assert _inclusion_mismatches(monkeypatch, 47) == []


def _doctor_coords(m):
    honest = la.EchelonBasis.coords
    m.setattr(la.EchelonBasis, "coords", lambda self, vectors: la.scale(honest(self, vectors), 2))


def test_inclusion_oracle_catches_doctored_coords(monkeypatch):
    _doctor_coords(monkeypatch)
    assert _inclusion_mismatches(monkeypatch, 47)


def _relatives_checked(f) -> bool:
    """Every relation of the cube calculus on f; homotopy for n <= 3, as
    in the acceptance criterion."""
    ok = cub_face_relations(f) and cub_degeneracy_relations(f) and cub_chain_property(f)
    for i in range(1, f.length):
        ok = ok and cub_degenerate_differential(f, i) and paired_faces_agree(f, i)
        if f.length <= 3:
            ok = ok and homotopy_check(f, i)
    return ok


def test_family_table_matches_fresh_builds(monkeypatch):
    """Every flag the relations reach gets from its family's table the
    cube that a fresh flag with an empty table builds."""
    honest = cubes.cub
    reached = []

    def recording(g):
        c = honest(g)
        reached.append((g, c))
        return c

    flags = _seeded_flags(53)
    dims = [tuple(len(rows) for rows in f.chain) for f in flags]
    assert {len(d) for d in dims} == {1, 2, 3, 4}
    assert any(0 in d for d in dims) and any(len(set(d)) < len(d) for d in dims)
    assert any(5 in d for d in dims)
    with monkeypatch.context() as m:
        m.setattr(cubes, "cub", recording)
        assert all(_relatives_checked(f) for f in flags)
    fresh: dict = {}
    for g, c in reached:
        if g.key() not in fresh:
            fresh[g.key()] = cub(Flag(g.ambient, g.chain)).key()
        assert c.key() == fresh[g.key()]
    # the relations revisit flags: most cubes came from the tables
    assert len(fresh) < len(reached) / 2


def test_cub_is_built_once_per_chain_in_a_homotopy_check(monkeypatch):
    rng = random.Random(59)
    f = _flag(rng, _ambient(rng, 6), (1, 3, 5))
    asked, built = [], []
    honest_cub, honest_build = cubes.cub, cubes._build_cub

    def asking(g):
        asked.append(g.chain)
        return honest_cub(g)

    def building(g):
        built.append(g.chain)
        return honest_build(g)

    monkeypatch.setattr(cubes, "cub", asking)
    monkeypatch.setattr(cubes, "_build_cub", building)
    assert homotopy_check(f, 1) and homotopy_check(f, 2)
    assert len(built) == len(set(built)) == len(set(asked)) < len(asked)
    assert set(built) == set(asked)


class _WatchedTable(dict):
    """A family table that logs the keys entered into it and the
    certificate names a validation finds there already."""

    def __init__(self):
        super().__init__()
        self.entered: list = []
        self.found: list = []

    def __setitem__(self, key, value):
        self.entered.append(key)
        super().__setitem__(key, value)

    def __contains__(self, key):
        hit = super().__contains__(key)
        if hit:
            self.found.append(key)
        return hit


def _certificates(keys) -> list:
    return [k for k in keys if k[0] in ("triple", "square")]


def _watched_flag(rng, ambient, dims) -> Flag:
    f = _flag(rng, ambient, dims)
    f._cubes = _WatchedTable()
    return f


def test_failed_cub_leaves_nothing_behind(monkeypatch):
    rng = random.Random(61)
    f = _watched_flag(rng, _ambient(rng, 5), (1, 3, 5))
    cub(f.face(0))  # honest entries made before the failure stay
    before = dict(f._cubes)
    assert _certificates(before)
    mark = len(f._cubes.entered)
    with monkeypatch.context() as m:
        _doctor_coords(m)
        with pytest.raises(ValueError, match="does not commute"):
            cub(f)
    # the failed build certified triples and squares before it failed,
    # and none of them stayed
    assert _certificates(f._cubes.entered[mark:])
    assert list(f._cubes) == list(before)
    assert all(f._cubes[k] is v for k, v in before.items())
    assert cub(f).key() == cub(Flag(f.ambient, f.chain)).key()


def _cubs_made(monkeypatch, run) -> list:
    """Every cube cub hands out while run() executes."""
    honest = cubes.cub
    made = []

    def recording(g):
        c = honest(g)
        made.append(c)
        return c

    with monkeypatch.context() as m:
        m.setattr(cubes, "cub", recording)
        assert run()
    return made


def _checks_of(c: Cube) -> int:
    """The number of direction triples and squares of a cube."""
    squares = sum(
        1
        for j in product(range(3), repeat=c.n)
        for i1 in range(c.n)
        for i2 in range(i1 + 1, c.n)
        if j[i1] < 2 and j[i2] < 2
    )
    return c.n * 3 ** (c.n - 1) + squares


def test_cubes_certified_once_per_family_pass_full_validation(monkeypatch):
    """Full validation stays the oracle: every cube that cub hands out
    in a homotopy check and a face-relation check, rebuilt with
    check=True, is valid, though each family checked every distinct
    triple and square only once."""
    rng = random.Random(67)
    amb = _ambient(rng, 6)
    f = _watched_flag(rng, amb, (1, 3, 5))
    g = _watched_flag(rng, amb, (1, 2, 4, 5))
    made = _cubs_made(monkeypatch, lambda: homotopy_check(f, 1) and homotopy_check(f, 2))
    made += _cubs_made(monkeypatch, lambda: cub_face_relations(g))
    distinct = {id(c): c for c in made}.values()
    assert len(distinct) > 20 and max(c.n for c in distinct) >= 3
    for c in distinct:
        again = Cube(c.n, c.vertices, c.arrows, check=True)
        assert again == c
    certified = len(_certificates(f._cubes)) + len(_certificates(g._cubes))
    assert certified < sum(_checks_of(c) for c in distinct) / 2
    # each family met some names again and skipped their checks
    assert _certificates(f._cubes.found) and _certificates(g._cubes.found)


def _checked_values(c: Cube):
    """The vertex spaces and arrow matrices of each direction triple and
    then each square of c, in the order _validate checks them."""

    def value(*js):
        spaces = tuple(c.vertices[j].key() for j in js)
        maps = tuple(c.arrows[p].matrix.key() for p in zip(js, js[1:]))
        return spaces, maps

    for i in range(c.n):
        for bj in product(range(3), repeat=c.n - 1):
            yield value(*(bj[:i] + (v,) + bj[i:] for v in range(3)))
    for j in product(range(3), repeat=c.n):
        for i1 in range(c.n):
            for i2 in range(i1 + 1, c.n):
                if j[i1] < 2 and j[i2] < 2:
                    a = j[:i1] + (j[i1] + 1,) + j[i1 + 1 :]
                    b = j[:i2] + (j[i2] + 1,) + j[i2 + 1 :]
                    ab = a[:i2] + (a[i2] + 1,) + a[i2 + 1 :]
                    yield value(j, a, ab), value(j, b, ab)


class _NamesInOrder(dict):
    """A table that holds no certificate and lists the names entered."""

    def __init__(self):
        super().__init__()
        self.names: list = []

    def __contains__(self, key):
        return False

    def __setitem__(self, key, value):
        self.names.append(key)


def test_a_certificate_name_fixes_what_it_certifies(monkeypatch):
    """Triples or squares that cub names alike in one family have equal
    vertex spaces and arrows, so a certificate holds for every cube that
    meets its name: the argument next to the names in _build_cub. Each
    cube is validated once more against a table that skips nothing, to
    learn the name of every check."""
    honest = Cube._validate
    first: dict = {}
    tables = []

    def watching(self, certified=None, vertex_key=None):
        if certified is not None:
            tables.append(certified)
            every = _NamesInOrder()
            honest(self, every, vertex_key)
            values = list(_checked_values(self))
            assert len(every.names) == len(values)
            for name, value in zip(every.names, values):
                assert first.setdefault((id(certified), name), value) == value, name
        return honest(self, certified, vertex_key)

    monkeypatch.setattr(Cube, "_validate", watching)
    flags = _seeded_flags(79)
    assert all(_relatives_checked(f) for f in flags)
    assert len(first) > 1000
    # zero vertices, of every origin, share one name
    assert any(None in name[1:] for _, name in first)


def _doctor_projection(m):
    """_orthoprojection_map with its (0, 0) entry raised by 1."""
    honest = cubes._orthoprojection_map

    def doctored(src, dst, src_space, dst_space, gram):
        p = honest(src, dst, src_space, dst_space, gram)
        if not p.matrix.entries:
            return p
        return SpaceMap(p.domain, p.codomain, _raised(p.matrix.entries))

    m.setattr(cubes, "_orthoprojection_map", doctored)


def _raised(entries) -> la.Mat:
    rows = [list(row) for row in entries]
    rows[0][0] += 1
    return la.Mat(tuple(map(tuple, rows)), entries.ncols)


@pytest.mark.parametrize("doctor", [_doctor_coords, _doctor_projection])
def test_a_doctored_arrow_raises_in_fresh_and_certified_families(monkeypatch, doctor):
    rng = random.Random(71)
    amb = _ambient(rng, 6)
    f = _watched_flag(rng, amb, (1, 3, 5))
    fresh = Flag(f.ambient, f.chain)
    with monkeypatch.context() as m:
        doctor(m)
        with pytest.raises(ValueError):
            cub(fresh)
    assert not fresh._cubes
    # an honest sibling fills the family's table with certificates, some
    # of which the doctored build of f meets again; it also shares the
    # inclusion E2 -> E3 with f, so doubling all of f's other inclusions
    # does not give a consistently rescaled, and so valid, cube
    cub(f.face(1))
    assert _certificates(f._cubes)
    before = dict(f._cubes)
    with monkeypatch.context() as m:
        doctor(m)
        with pytest.raises(ValueError):
            cub(f)
    assert list(f._cubes) == list(before)
    # the honest build of f skips checks the sibling certified
    f._cubes.found.clear()
    cub(f)
    assert set(_certificates(f._cubes.found)) & set(_certificates(before))


def _relatives(f: Flag) -> list:
    """f's faces, then f, its degeneracies and their faces: every flag
    of length at least 1 among them."""
    out = [f.face(i) for i in range(f.length + 1)]
    for g in [f] + [f.degeneracy(i) for i in range(f.length + 1)]:
        out += [g] + [g.face(i) for i in range(g.length + 1)]
    return [g for g in out if g.length]


@pytest.mark.parametrize("doctor", [_doctor_coords, _doctor_projection])
def test_cub_hands_out_only_valid_cubes_under_a_doctored_arrow(monkeypatch, doctor):
    """With one kind of arrow doctored after honest relatives have filled
    the family's certificates, every cube cub still hands out passes
    full validation: a certificate never covers a check it did not make."""
    handed, raised = [], 0
    for f in _seeded_flags(83):
        relatives = _relatives(f)
        for g in relatives[: len(relatives) // 2]:
            cub(g)
        with monkeypatch.context() as m:
            doctor(m)
            for g in relatives[len(relatives) // 2 :]:
                try:
                    handed.append(cub(g))
                except ValueError:
                    raised += 1
    for c in handed:
        Cube(c.n, c.vertices, c.arrows, check=True)
    assert raised > 10 and len(handed) > 10


def test_cube_equality_agrees_with_the_full_key():
    rng = random.Random(73)
    amb = _ambient(rng, 5)
    f = _flag(rng, amb, (1, 3, 4))
    c = cub(f)
    pairs = [(c, c), (c, cub(Flag(f.ambient, f.chain)))]
    # one arrow entry changed
    pair = next(p for p, m in c.arrows.items() if m.matrix.entries and m.matrix.entries[0])
    m = c.arrows[pair]
    arrows = dict(c.arrows)
    arrows[pair] = SpaceMap(m.domain, m.codomain, _raised(m.matrix.entries))
    pairs.append((c, Cube(c.n, c.vertices, arrows, check=False)))
    # one Gram entry changed, with the arrows at that vertex rewired
    j = next(j for j, s in c.vertices.items() if s.dim)
    old = c.vertices[j]
    new = MetrizedSpace(old.labels, _raised(old.gram), check=False)
    vertices = dict(c.vertices)
    vertices[j] = new
    arrows = {
        (s, d): SpaceMap(
            new if s == j else a.domain, new if d == j else a.codomain, a.matrix
        )
        for (s, d), a in c.arrows.items()
    }
    pairs.append((c, Cube(c.n, vertices, arrows, check=False)))
    # a 0-cube has no arrows: only its vertex tells
    pairs.append((Cube(0, {(): old}, {}), Cube(0, {(): new}, {})))
    # equal vertex spaces everywhere, different n
    zero = {1: None, 2: None}
    for n in zero:
        zero[n] = Cube(
            n,
            {j: ZERO_SPACE for j in product(range(3), repeat=n)},
            {p: zero_map(ZERO_SPACE, ZERO_SPACE) for p in cubes._shape(n)[1]},
        )
    pairs.append((zero[1], zero[2]))
    # the pairs that is_structurally_degenerate and tau_symmetric compare
    for g in (f, f.degeneracy(0), f.degeneracy(1), f.degeneracy(3), f.degeneracy(1).degeneracy(1)):
        x = cub(g)
        for i in range(1, x.n + 1):
            pairs.append((x, degeneracy(face(x, i, 0), i, 0)))
            pairs.append((x, degeneracy(face(x, i, 1), i, 1)))
        for i in range(1, x.n):
            pairs.append((cube_swap(x, i), x))
    verdicts = [(a == b) for a, b in pairs]
    assert verdicts == [(a.key() == b.key()) for a, b in pairs]
    assert verdicts[:2] == [True, True] and verdicts[2:6] == [False] * 4
    assert verdicts.count(True) > 4 and verdicts.count(False) > 10


def test_empty_flag_has_no_faces():
    empty = Flag(standard_space(3), [])
    for i in (0, 1):
        with pytest.raises(ValueError):
            empty.face(i)
    assert empty.degeneracy(0).chain == ((),)


# The dict-building face, degeneracy and swap that the one construction
# rule (cubes._assemble) replaced, kept as oracles: each decides in its
# own code which arrow is copied, which is an identity and which a zero
# map, and builds a fresh identity or zero map for every arrow.


def _oracle_adjacent(n: int):
    for j in product(range(3), repeat=n):
        for i in range(n):
            if j[i] < 2:
                yield j, j[:i] + (j[i] + 1,) + j[i + 1 :]


def _oracle_face(c: Cube, i: int, k: int) -> Cube:
    pos = i - 1

    def ins(j):
        return j[:pos] + (k,) + j[pos:]

    verts = {bj: c.vertices[ins(bj)] for bj in product(range(3), repeat=c.n - 1)}
    arrows = {(s, d): c.arrows[(ins(s), ins(d))] for s, d in _oracle_adjacent(c.n - 1)}
    return Cube(c.n - 1, verts, arrows, check=False)


def _oracle_degeneracy(c: Cube, i: int, kind: int) -> Cube:
    pos = i - 1
    live = (0, 1) if kind == 0 else (1, 2)
    verts = {}
    for j in product(range(3), repeat=c.n + 1):
        rest = j[:pos] + j[pos + 1 :]
        verts[j] = c.vertices[rest] if j[pos] in live else ZERO_SPACE
    arrows = {}
    for src, dst in _oracle_adjacent(c.n + 1):
        vs, vd = src[pos], dst[pos]
        rs = src[:pos] + src[pos + 1 :]
        rd = dst[:pos] + dst[pos + 1 :]
        if vs == vd:
            if vs in live:
                arrows[(src, dst)] = c.arrows[(rs, rd)]
            else:
                arrows[(src, dst)] = zero_map(ZERO_SPACE, ZERO_SPACE)
        elif vs in live and vd in live:
            arrows[(src, dst)] = identity_map(c.vertices[rs])
        else:
            arrows[(src, dst)] = zero_map(verts[src], verts[dst])
    return Cube(c.n + 1, verts, arrows, check=False)


def _oracle_swap(c: Cube, i: int) -> Cube:
    pos = i - 1

    def sw(j):
        return j[:pos] + (j[pos + 1], j[pos]) + j[pos + 2 :]

    verts = {j: c.vertices[sw(j)] for j in product(range(3), repeat=c.n)}
    arrows = {(s, d): c.arrows[(sw(s), sw(d))] for s, d in _oracle_adjacent(c.n)}
    return Cube(c.n, verts, arrows, check=False)


def _reindexings(c: Cube):
    """Every face, degeneracy and adjacent swap of c, each with the
    oracle's cube for it."""
    for i in range(1, c.n + 1):
        for k in range(3):
            yield face(c, i, k), _oracle_face(c, i, k)
    for i in range(1, c.n + 2):
        for kind in (0, 1):
            yield degeneracy(c, i, kind), _oracle_degeneracy(c, i, kind)
    for i in range(1, c.n):
        yield cube_swap(c, i), _oracle_swap(c, i)


def test_reindexings_match_the_dict_building_oracles():
    rng = random.Random(89)
    cubes_seen = []
    for length in range(1, 6):
        f = random_flag(rng, _ambient(rng, length), length)
        # every degeneracy up to length 4; at length 5, whose degenerate
        # cubes reindex to 6-cubes, a leading, an inner and a trailing one
        kept = range(length + 1) if length < 5 else (0, 3, 5)
        for g in [f] + [f.degeneracy(i) for i in kept]:
            cubes_seen.append(cub(g))
    point = MetrizedSpace(("p",), ((F(3),),))
    cubes_seen += [Cube(0, {(): point}, {}), Cube(0, {(): ZERO_SPACE}, {})]
    assert {c.n for c in cubes_seen} == {0, 1, 2, 3, 4, 5}
    compared = 0
    for c in cubes_seen:
        for new, old in _reindexings(c):
            assert new == old and new.key() == old.key()
            assert list(new.vertices) == list(old.vertices)
            assert list(new.arrows) == list(old.arrows)
            compared += 1
    assert compared > 400


def test_the_oracles_tell_a_wrong_reindexing():
    """The oracle comparison fails a degeneracy of the other kind and a
    face at the wrong value, so it is not vacuous."""
    rng = random.Random(97)
    c = cub(_flag(rng, _ambient(rng, 5), (1, 3, 4)))
    assert degeneracy(c, 1, 1) != _oracle_degeneracy(c, 1, 0)
    assert face(c, 2, 0).key() != _oracle_face(c, 2, 2).key()


def test_cube_constructor_refuses_wrong_index_sets():
    rng = random.Random(101)
    c = cub(_flag(rng, _ambient(rng, 5), (1, 3, 4)))
    j = (1, 1)
    pair = ((0, 1), (1, 1))
    missing_vertex = {k: v for k, v in c.vertices.items() if k != j}
    extra_vertex = {**c.vertices, (3, 0): ZERO_SPACE}
    missing_arrow = {p: m for p, m in c.arrows.items() if p != pair}
    extra_arrow = {**c.arrows, ((0, 0), (1, 1)): zero_map(ZERO_SPACE, ZERO_SPACE)}
    for check in (True, False):
        for verts in (missing_vertex, extra_vertex):
            with pytest.raises(ValueError, match="vertex index set"):
                Cube(c.n, verts, c.arrows, check=check)
        for arrows in (missing_arrow, extra_arrow):
            with pytest.raises(ValueError, match="adjacent pairs"):
                Cube(c.n, c.vertices, arrows, check=check)
        with pytest.raises(ValueError, match="vertex index set"):
            Cube(c.n + 1, c.vertices, c.arrows, check=check)
    assert Cube(c.n, c.vertices, c.arrows) == c


def test_cube_constructor_refuses_an_arrow_off_its_source_vertex():
    rng = random.Random(103)
    c = cub(_flag(rng, _ambient(rng, 5), (1, 3, 4)))
    pair = next(p for p, m in c.arrows.items() if m.domain.dim)
    m = c.arrows[pair]
    other = MetrizedSpace(m.domain.labels, la.scale(m.domain.gram, 2))
    arrows = {**c.arrows, pair: SpaceMap(other, m.codomain, m.matrix)}
    with pytest.raises(ValueError, match="does not match its endpoints"):
        Cube(c.n, c.vertices, arrows)


def test_a_span_reached_as_two_complements_is_one_basis_object():
    """W(2,3), the complement of E2 in E3, is also the complement of
    W(1,2) in W(1,3): the second face(0) of the flag. The family holds
    one basis object for it, whichever way it meets it first, so cub of
    either one-entry flag is one cube."""
    rng = random.Random(107)
    amb = _ambient(rng, 6)
    chain = _flag(rng, amb, (1, 3, 5)).chain
    for w23_first in (True, False):
        f = Flag(amb, chain)
        if w23_first:
            w23 = cubes._ortho_in(f, f.bases[1], f.bases[2])
            twice = f.face(0).face(0)
        else:
            twice = f.face(0).face(0)
            w23 = cubes._ortho_in(f, f.bases[1], f.bases[2])
        assert twice.bases[0] is w23
        assert f.face(1).face(0).bases[0] is w23
        assert cub(twice) is cub(f.face(1).face(0))
        assert twice.bases[0] is not f.face(0).bases[0]
    # a zero entry is the family's zero basis, so the zero that
    # degeneracy(0) prepends is that entry, and flags equal by value
    # are one flag and have one cube
    h = Flag(amb, ((), chain[0]))
    assert h.degeneracy(0).bases == h.degeneracy(1).bases
    assert cub(h.degeneracy(0)) is cub(h.degeneracy(1))
    assert h.face(1).degeneracy(0).bases == h.bases
    assert cub(h.face(1).degeneracy(0).degeneracy(1)) is cub(h.degeneracy(1))
