"""Chain complexes, mapping cones, and modified homology groups.

The frozen cone values are hand-computed: for the line inclusion
Q -> Q^2 the cone differential in degree 0 is the inclusion matrix
itself, so H_0 vanishes and H_{-1} is the one-dimensional cokernel.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from hermk import homology as hom
from hermk import linalg as la
from hermk.homology import (
    ChainComplex,
    ChainMap,
    cone,
    cone_les_check,
    compose_chain_maps,
    direct_sum_complex,
    dsum_complex_projection,
    forms_modulo_exact,
    homology,
    identity_chain_map,
    induced_modified_map,
    is_quasi_iso,
    modified_homology,
    modified_homology_via_cone,
    modified_maps,
    quotient_presentation,
    truncate_above,
    truncated_map,
    truncated_cone_cases,
    verify_modified_sequences,
    zero_chain_map,
)
from hermk.instances import random_chain_map, random_complex, random_quasi_iso
from test_linalg import _span_exact

LINE = ChainComplex({0: 1}, {})
PLANE = ChainComplex({0: 2}, {})
INCLUDE = ChainMap(LINE, PLANE, {0: ((1,), (0,))})


def _all_degrees(*complexes):
    degs = set()
    for c in complexes:
        degs.update(c.dims)
    if not degs:
        return [0]
    return list(range(min(degs) - 1, max(degs) + 2))


def test_chain_complex_validation():
    with pytest.raises(ValueError):
        ChainComplex({0: 1, 1: 1}, {1: ((1,), (1,))})  # wrong shape
    with pytest.raises(ValueError):
        # d.d != 0: degree 2 -> 1 -> 0 both identities
        ChainComplex({0: 1, 1: 1, 2: 1}, {1: ((1,),), 2: ((1,),)})
    c = ChainComplex({0: 0, 1: 0}, {})
    assert c.is_zero() and c.support() == []


def test_raw_matrices_are_coerced_at_construction():
    c = ChainComplex({0: 1, 1: 1}, {1: ((1,),)})
    assert isinstance(c.diffs[1], la.Mat)
    assert all(type(x) is Fraction for row in c.diffs[1] for x in row)
    assert all(type(x) is Fraction for row in INCLUDE.maps[0] for x in row)
    built = la.identity(1)
    assert ChainComplex({0: 1, 1: 1}, {1: built}).diffs[1] is built
    with pytest.raises(TypeError):
        ChainComplex({0: 1, 1: 1}, {1: ((0.5,),)})


def test_chain_map_validation():
    with pytest.raises(ValueError):
        ChainMap(LINE, PLANE, {0: ((1,),)})  # wrong shape
    shifted = ChainComplex({0: 1, 1: 1}, {1: ((1,),)})
    with pytest.raises(ValueError):
        # identity at degree 1 only cannot commute with d
        ChainMap(shifted, shifted, {1: ((1,),), 0: ((0,),)})


def test_presented_quotient_normal_forms():
    q = quotient_presentation(la.identity(2), (((1, 0)),), 2)
    assert q.dim == 1
    assert q.normal_form((1, 1)) == (0, 1)
    assert q.same_class((1, 1), (0, 1))
    assert q.coords((3, 2)) == (2,)
    narrow = quotient_presentation(((1, 0),), (), 2)
    with pytest.raises(ValueError):
        narrow.normal_form((0, 1))  # not a cycle
    with pytest.raises(ValueError):
        quotient_presentation(((1, 0),), ((0, 1),), 2)  # boundary outside


def test_homology_of_small_complexes():
    interval = ChainComplex({0: 1, 1: 1}, {1: ((1,),)})
    assert homology(interval, 0).dim == 0
    assert homology(interval, 1).dim == 0
    loop = ChainComplex({0: 1, 1: 1}, {})
    assert homology(loop, 0).dim == 1
    assert homology(loop, 1).dim == 1
    assert forms_modulo_exact(interval, 0).dim == 0
    assert forms_modulo_exact(loop, 0).dim == 1


def test_cone_of_line_inclusion_is_frozen():
    c = cone(INCLUDE)
    assert c.dims == {0: 1, -1: 2}
    assert c.diff(0) == ((1,), (0,))
    assert homology(c, 0).dim == 0
    assert homology(c, -1).dim == 1
    assert cone_les_check(INCLUDE)


def test_modified_homology_of_line_inclusion():
    # no B_1 part: classes are cycles of A_0 with no relations
    hat = modified_homology(INCLUDE, 0)
    assert hat.dim == 1 and hat.reps == ((1,),)
    mm = modified_maps(INCLUDE, 0)
    assert mm.forms.dim == 0
    assert mm.to_cycle_class == ((1,),)
    assert mm.to_form_cycle == ((1,), (0,))
    assert all(ok for _, ok in verify_modified_sequences(INCLUDE))


def test_two_routes_agree_on_random_instances():
    rng = random.Random(53)
    for _ in range(40):
        a = random_complex(rng, 5, 5)
        b = random_complex(rng, 5, 5)
        f = random_chain_map(rng, a, b)
        for n in _all_degrees(a, b):
            direct = modified_homology(f, n)
            via = modified_homology_via_cone(f, n)
            assert direct.dim == via.dim
            assert direct.cycles.rows == via.cycles.rows
            assert direct.boundaries.rows == via.boundaries.rows


def test_sequences_exact_on_random_instances():
    rng = random.Random(59)
    for _ in range(25):
        a = random_complex(rng, 5, 5)
        b = random_complex(rng, 5, 5)
        f = random_chain_map(rng, a, b)
        assert all(ok for _, ok in verify_modified_sequences(f))
        assert cone_les_check(f)
        for n in _all_degrees(a, b):
            assert truncated_cone_cases(f, n)


def test_corner_zero_map_splits_off_forms():
    rng = random.Random(61)
    for _ in range(10):
        a = random_complex(rng, 4, 4)
        b = random_complex(rng, 4, 4)
        z = zero_chain_map(a, b)
        for n in _all_degrees(a, b):
            expected = homology(a, n).dim + forms_modulo_exact(b, n + 1).dim
            assert modified_homology(z, n).dim == expected
        assert all(ok for _, ok in verify_modified_sequences(z))


def test_corner_zero_source_leaves_forms():
    rng = random.Random(67)
    empty = ChainComplex({}, {})
    for _ in range(10):
        b = random_complex(rng, 4, 4)
        z = zero_chain_map(empty, b)
        for n in _all_degrees(b):
            assert modified_homology(z, n).dim == forms_modulo_exact(b, n + 1).dim
        assert all(ok for _, ok in verify_modified_sequences(z))


def test_corner_identity_gives_cycles():
    rng = random.Random(71)
    for _ in range(10):
        a = random_complex(rng, 4, 4)
        ida = identity_chain_map(a)
        for n in _all_degrees(a):
            zdim = len(la.nullspace(a.diff(n)))
            assert modified_homology(ida, n).dim == zdim
        assert all(ok for _, ok in verify_modified_sequences(ida))


def test_source_quasi_iso_preserves_modified_homology():
    rng = random.Random(73)
    hits = 0
    for _ in range(30):
        a = random_complex(rng, 5, 5)
        b = random_complex(rng, 5, 5)
        rho = random_chain_map(rng, a, b)
        idb = identity_chain_map(b)
        u = random_quasi_iso(rng, a)
        x = random_complex(rng, 4, 4)
        killer = dsum_complex_projection(a, cone(identity_chain_map(x)))
        for f1 in (u, killer):
            assert is_quasi_iso(f1)
            rho2 = compose_chain_maps(rho, f1)
            for n in _all_degrees(a, b):
                h1 = modified_homology(rho2, n)
                h2 = modified_homology(rho, n)
                assert h1.dim == h2.dim
                m = induced_modified_map(f1, idb, rho2, rho, n, h1, h2)
                assert la.rank(m) == h1.dim
                hits += h1.dim
    assert hits > 0  # the loop saw nonzero groups


def test_induced_map_rejects_noncommuting_square():
    rho = INCLUDE
    bad_f2 = ChainMap(PLANE, PLANE, {0: ((0, 1), (1, 0))})
    hat = modified_homology(rho, 0)
    with pytest.raises(ValueError):
        induced_modified_map(identity_chain_map(LINE), bad_f2, rho, rho, 0, hat, hat)


def test_compose_and_direct_sum_helpers():
    rng = random.Random(79)
    a = random_complex(rng, 4, 4)
    b = random_complex(rng, 4, 4)
    s = direct_sum_complex(a, b)
    for n in set(a.dims) | set(b.dims):
        assert s.dim(n) == a.dim(n) + b.dim(n)
    proj = dsum_complex_projection(a, cone(identity_chain_map(b)))
    assert is_quasi_iso(proj)
    f = random_chain_map(rng, a, b)
    g = random_chain_map(rng, b, b)
    gf = compose_chain_maps(g, f)
    for n in set(a.dims) | set(b.dims):
        assert gf.map_at(n) == la.matmul(g.map_at(n), f.map_at(n))
    with pytest.raises(ValueError):
        compose_chain_maps(f, f)  # middle complexes differ


def test_truncation_kills_low_degrees():
    rng = random.Random(83)
    a = random_complex(rng, 5, 4)
    b = random_complex(rng, 5, 4)
    f = random_chain_map(rng, a, b)
    n = min(a.dims, default=0)
    ta = truncate_above(a, n)
    assert all(m > n for m in ta.dims)
    assert all(ta.dim(m) == a.dim(m) for m in ta.dims)
    tf = truncated_map(f, n)
    assert all(m > n for m in tf.maps)
    assert tf.target.dims == truncate_above(b, n).dims


def test_quasi_iso_detection():
    rng = random.Random(89)
    for _ in range(10):
        a = random_complex(rng, 4, 4)
        assert is_quasi_iso(random_quasi_iso(rng, a))
    # collapsing a loop to nothing is not a quasi-isomorphism
    loop = ChainComplex({0: 1}, {})
    assert not is_quasi_iso(zero_chain_map(loop, ChainComplex({}, {})))


def test_induced_map_must_send_relations_into_relations():
    # Q^2 modulo the first axis, mapped by the identity onto Q^2 with no
    # relations: the relation e1 would have to become zero
    src = quotient_presentation(la.identity(2), ((1, 0),), 2)
    dst = quotient_presentation(la.identity(2), (), 2)
    assert hom.induced_on_quotients(la.identity(2), dst, src) == ((0, 1),)
    with pytest.raises(ValueError):
        hom.induced_on_quotients(la.identity(2), src, dst)


def test_induced_map_checks_presentation_widths():
    rho = INCLUDE
    ida, idb = identity_chain_map(LINE), identity_chain_map(PLANE)
    hat = modified_homology(rho, 0)
    assert la.rank(induced_modified_map(ida, idb, rho, rho, 0, hat, hat)) == hat.dim
    # the degree -1 group lives on A_-1 (+) B_0 = Q^2, not A_0 (+) B_1 = Q
    wrong = modified_homology(rho, -1)
    with pytest.raises(ValueError):
        induced_modified_map(ida, idb, rho, rho, 0, wrong, hat)
    with pytest.raises(ValueError):
        induced_modified_map(ida, idb, rho, rho, 0, hat, wrong)


def _bump(m: la.Mat, i: int, j: int) -> la.Mat:
    """m with 1 added to the entry (i, j)."""
    rows = [list(row) for row in m]
    rows[i][j] += 1
    return la.Mat(tuple(map(tuple, rows)), m.ncols)


def _instances(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        a = random_complex(rng, 4, 4)
        b = random_complex(rng, 4, 4)
        yield random_chain_map(rng, a, b)


def test_exactness_decisions_agree_with_the_span_oracle(monkeypatch):
    honest = la.is_exact
    seen = []

    def spy(*mats):
        got = honest(*mats)
        assert got == _span_exact(*mats)
        seen.append(got)
        return got

    monkeypatch.setattr(la, "is_exact", spy)
    for f in _instances(101, 10):
        verify_modified_sequences(f)
        cone_les_check(f)
    assert seen and all(seen)


def _per_node_oracle(f) -> list[tuple[str, bool]]:
    """The seven per-node checks that verify_modified_sequences made
    before each sequence became one is_exact call: injectivity and
    surjectivity by ranks, exactness at each inner node by a separate
    two-map is_exact, and the kernel description of the cone by a
    nullspace."""
    a, b = f.source, f.target
    degrees = sorted(set(a.dims) | set(b.dims))
    if not degrees:
        return [("empty", True)]
    cn = cone(f)
    out = []
    for n in range(degrees[0] - 1, degrees[-1] + 2):
        ha_n, ha_next = homology(a, n), homology(a, n + 1)
        mm = hom._modified_maps(f, n, ha_n)
        hat, forms = mm.hat, mm.forms
        hcone_n, hcone_prev = homology(cn, n), homology(cn, n - 1)
        m1 = hom._cols_to_mat([hat.coords(rep) for rep in hcone_n.reps], hat.dim)
        m3 = hom._cols_to_mat(
            [hcone_prev.coords((0,) * a.dim(n - 1) + tuple(z)) for z in mm.cycles_b],
            hcone_prev.dim,
        )
        out.append((f"a-inject n={n}", la.rank(m1) == hcone_n.dim))
        out.append((f"a-exact-hat n={n}", la.is_exact(m1, mm.to_form_cycle)))
        out.append((f"a-exact-forms n={n}", la.is_exact(mm.to_form_cycle, m3)))
        fm_next = f.map_at(n + 1)
        m1b = hom._cols_to_mat(
            [forms.coords(la.matvec(fm_next, rep)) for rep in ha_next.reps], forms.dim
        )
        out.append((f"b-exact-forms n={n}", la.is_exact(m1b, mm.from_form)))
        out.append((f"b-exact-hat n={n}", la.is_exact(mm.from_form, mm.to_cycle_class)))
        out.append((f"b-surject n={n}", la.rank(mm.to_cycle_class) == ha_n.dim))
        out.append(
            (
                f"kernel-iso n={n}",
                hcone_n.dim == len(la.nullspace(mm.to_form_cycle))
                and la.rank(m1) == hcone_n.dim,
            )
        )
    return out


def _verdicts_agree(f) -> bool:
    new = verify_modified_sequences(f)
    old = _per_node_oracle(f)
    return all(ok for _, ok in new) == all(ok for _, ok in old)


def test_sequence_verdict_matches_the_per_node_oracle():
    maps = list(_instances(109, 12))
    rng = random.Random(113)
    a = random_complex(rng, 4, 4)
    maps += [zero_chain_map(a, random_complex(rng, 4, 4)), identity_chain_map(a), INCLUDE]
    for f in maps:
        assert all(ok for _, ok in verify_modified_sequences(f))
        assert _verdicts_agree(f)


def _corrupted_cycle_class(seed: int):
    """A seeded map and a degree at which to_cycle_class can be corrupted
    in one entry so that it no longer kills the image of from_form: the
    column is one where from_form has a nonzero row."""
    for f in _instances(seed, 20):
        for n in _all_degrees(f.source, f.target):
            mm = modified_maps(f, n)
            rows = [j for j, row in enumerate(mm.from_form) if any(row)]
            if rows and mm.to_cycle_class:
                return f, n, rows[0]
    raise AssertionError("no seeded instance has the entry")


def test_one_entry_corruption_breaks_the_modified_sequences(monkeypatch):
    f, n, j = _corrupted_cycle_class(103)
    assert all(ok for _, ok in verify_modified_sequences(f))
    honest = hom._modified_maps

    def doctored(g, m, ha):
        mm = honest(g, m, ha)
        if m != n:
            return mm
        return dataclasses.replace(mm, to_cycle_class=_bump(mm.to_cycle_class, 0, j))

    monkeypatch.setattr(hom, "_modified_maps", doctored)
    failing = {name for name, ok in verify_modified_sequences(f) if not ok}
    assert f"b-exact-hat n={n}" in failing
    assert _verdicts_agree(f)


def _corrupted_form_cycle(seed: int):
    """A seeded map, a degree and a column of to_form_cycle at which m1,
    the map H_n(s(f)) -> hat H_n, has a nonzero row, so that bumping one
    entry of that column makes to_form_cycle miss the kernel."""
    for f in _instances(seed, 20):
        cn = cone(f)
        for n in _all_degrees(f.source, f.target):
            mm = modified_maps(f, n)
            hcone = homology(cn, n)
            m1 = hom._cols_to_mat([mm.hat.coords(r) for r in hcone.reps], mm.hat.dim)
            rows = [j for j, row in enumerate(m1) if any(row)]
            if rows and mm.to_form_cycle:
                return f, n, rows[0]
    raise AssertionError("no seeded instance has the entry")


def test_one_entry_corruption_breaks_sequence_a(monkeypatch):
    f, n, j = _corrupted_form_cycle(103)
    assert all(ok for _, ok in verify_modified_sequences(f))
    honest = hom._modified_maps

    def doctored(g, m, ha):
        mm = honest(g, m, ha)
        if m != n:
            return mm
        return dataclasses.replace(mm, to_form_cycle=_bump(mm.to_form_cycle, 0, j))

    monkeypatch.setattr(hom, "_modified_maps", doctored)
    failing = {name for name, ok in verify_modified_sequences(f) if not ok}
    assert f"a-exact-hat n={n}" in failing
    assert _verdicts_agree(f)


def test_one_entry_corruption_breaks_the_cone_sequence(monkeypatch):
    # the first seeded map with a degree where both homologies are nonzero
    f, n = next(
        (f, n)
        for f in _instances(107, 20)
        for n in sorted(f.maps)
        if homology(f.source, n).dim and homology(f.target, n).dim
    )
    assert cone_les_check(f)
    honest = hom.induced_on_quotients

    def doctored(m, src, dst):
        out = honest(m, src, dst)
        # random_chain_map draws null-homotopic maps, so the honest
        # H_n(f) is zero and one nonzero entry makes it miss the image
        # of the cone
        return _bump(out, 0, 0) if m is f.maps[n] else out

    monkeypatch.setattr(hom, "induced_on_quotients", doctored)
    assert not cone_les_check(f)
