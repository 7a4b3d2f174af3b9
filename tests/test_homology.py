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

from hermk import _qkernels, cli
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
from test_linalg import _block_diag, _span_exact

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
    assert c.is_zero() and sorted(c.dims) == []


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
    assert q.normal_form([(1, 1)]) == ((0, 1),)
    # (1, 1) and (0, 1) differ by a boundary, (1, 1) and (1, 0) do not
    nf = q.normal_form([(1, 1), (0, 1), (1, 0)])
    assert nf[0] == nf[1] and nf[0] != nf[2]
    assert q.coords([(3, 2), (0, 1), (5, 0)]) == ((2, 1, 0),)
    narrow = quotient_presentation(((1, 0),), (), 2)
    with pytest.raises(ValueError):
        narrow.normal_form([(0, 1)])  # not a cycle
    with pytest.raises(ValueError):
        quotient_presentation(((1, 0),), ((0, 1),), 2)  # boundary outside


def test_the_zero_group_answers_without_a_boundary_reduction(monkeypatch):
    # cycles and boundaries both span (1, 1, 0): a presentation with no pivots
    q = quotient_presentation([(1, 1, 0)], [(2, 2, 0)], 3)
    rows = la.mat([(1, 1, 0), (-3, -3, 0)])
    assert q.dim == 0 and q.boundaries.reduce(rows) == la.zeros(2, 3)

    def refuse(self, vectors):
        raise AssertionError("the zero group reduced by its boundaries")

    monkeypatch.setattr(la.EchelonBasis, "reduce", refuse)
    assert q.normal_form(rows) is la.zeros(2, 3)
    assert q.coords(rows) is la.zeros(0, 2)
    assert q.coords(la.zeros(0, 3)) is la.zeros(0, 0)
    # control: the cycle test still runs
    with pytest.raises(ValueError, match="not a cycle"):
        q.coords([(1, 1, 0), (1, 0, 0)])
    with pytest.raises(ValueError, match="not a cycle"):
        q.normal_form([(0, 0, 1)])


def test_a_degree_without_a_stored_matrix_reads_the_shared_zeros():
    c = ChainComplex({0: 2, 1: 3}, {})
    assert c.diff(1) is la.zeros(2, 3) and c.diff(5) is la.zeros(0, 0)
    f = zero_chain_map(c, c)
    assert f.map_at(1) is la.zeros(3, 3) and f.map_at(2) is la.zeros(0, 0)


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
                m = induced_modified_map(f1, idb, rho2, rho, n)
                assert la.rank(m) == h1.dim
                hits += h1.dim
    assert hits > 0  # the loop saw nonzero groups


def test_induced_map_rejects_noncommuting_square():
    rho = INCLUDE
    bad_f2 = ChainMap(PLANE, PLANE, {0: ((0, 1), (1, 0))})
    with pytest.raises(ValueError, match="does not commute"):
        induced_modified_map(identity_chain_map(LINE), bad_f2, rho, rho, 0)


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


def _cols_to_mat(cols, height: int) -> la.Mat:
    """The oracle for the coordinate matrices of hermk.homology: the
    matrix with the given Fraction columns, coordinate vectors of
    length height."""
    return la.transpose(la.Mat(tuple(cols), height))


def _coords(q, v):
    """The coordinates of the class of the one vector v in q, as a
    tuple: the one column of q.coords([v])."""
    return tuple(row[0] for row in q.coords([v]))


def fraction_induced_on_quotients(m, src, dst):
    """induced_on_quotients as it was before its products of Mats: each
    boundary row and each Fraction representative pushed through
    la.matvec, then boundary membership and coords, one vector at a
    time."""
    for row in src.boundaries.rows:
        if not dst.boundaries.contains([la.matvec(m, row)]):
            raise ValueError("relations do not map into relations")
    cols = [_coords(dst, la.matvec(m, rep)) for rep in src.reps]
    return _cols_to_mat(cols, dst.dim)


def fraction_modified_maps(f, n):
    """(from_form, to_cycle_class, to_form_cycle) of modified_maps as
    they were before the integer products: coords of the Fraction
    representatives, and f(a) - d(b) through la.matvec for each
    representative (a, b) of hat H_n."""
    a, b = f.source, f.target
    wa = a.dim(n)
    hat, forms, ha = modified_homology(f, n), forms_modulo_exact(b, n + 1), homology(a, n)
    zb = homology(b, n).cycles
    from_form = [_coords(hat, (0,) * wa + tuple(-x for x in t)) for t in forms.reps]
    zeta = [_coords(ha, rep[:wa]) for rep in hat.reps]
    rho = []
    for rep in hat.reps:
        val = la.add_vec(
            la.matvec(f.map_at(n), rep[:wa]),
            la.scale_vec(la.matvec(b.diff(n + 1), rep[wa:]), -1),
        )
        try:
            rho.append(tuple(row[0] for row in zb.coords([val])))
        except ValueError:
            raise AssertionError("structure map must land in the cycle space") from None
    return (
        _cols_to_mat(from_form, hat.dim),
        _cols_to_mat(zeta, ha.dim),
        _cols_to_mat(rho, len(zb.pivots)),
    )


def _result(fn, *args):
    """("ok", value) or ("raises", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except (ValueError, AssertionError) as e:
        return ("raises", type(e), str(e))


def test_integer_pushes_equal_the_fraction_oracles(monkeypatch):
    chains, exact = [], []
    honest_verdict, honest_exact = hom._sequence_verdict, la.is_exact

    def verdict_spy(seq, n, *mats):
        chains.append((seq, n, mats))
        return honest_verdict(seq, n, *mats)

    def exact_spy(*mats):
        exact.append(mats)
        return honest_exact(*mats)

    monkeypatch.setattr(hom, "_sequence_verdict", verdict_spy)
    rng = random.Random(179)
    nonzero = 0
    for f in _instances(179, 12):
        a, b = f.source, f.target
        cn = cone(f)
        chains.clear()
        verify_modified_sequences(f)
        for seq, n, mats in chains:
            m1, m3, m1b = _fraction_sequence_maps(f, n, cn)
            assert ((mats[1], mats[3]) if seq == "a" else (mats[0],)) == (
                (m1, m3) if seq == "a" else (m1b,)
            )
        exact.clear()
        with monkeypatch.context() as m:
            m.setattr(la, "is_exact", exact_spy)
            assert cone_les_check(f)
        degrees = _all_degrees(a, b)
        assert len(exact) == len(degrees)
        for n, (m_f_next, m_in, m_proj, m_f_n) in zip(degrees, exact):
            hc, ha_n, hb_next = homology(cn, n), homology(a, n), homology(b, n + 1)
            wa = a.dim(n)
            proj = la.block_matrix([wa], [wa, b.dim(n + 1)], {(0, 0): la.identity(wa)})
            assert m_proj == fraction_induced_on_quotients(proj, hc, ha_n)
            cols = [_coords(hc, (0,) * wa + tuple(rep)) for rep in hb_next.reps]
            assert m_in == _cols_to_mat(cols, hc.dim)
        for n in degrees:
            ha, hb = homology(a, n), homology(b, n)
            got = hom.induced_on_quotients(f.map_at(n), ha, hb)
            assert got == fraction_induced_on_quotients(f.map_at(n), ha, hb)
            mm = modified_maps(f, n)
            assert (mm.from_form, mm.to_cycle_class, mm.to_form_cycle) == fraction_modified_maps(
                f, n
            )
            # the quasi-isomorphism square of the modified-homology suite
            u = random_quasi_iso(rng, a)
            rho2 = compose_chain_maps(f, u)
            hat1, hat2 = modified_homology(rho2, n), modified_homology(f, n)
            got = induced_modified_map(u, identity_chain_map(b), rho2, f, n)
            blk = _block_diag(u.map_at(n), la.identity(b.dim(n + 1)))
            assert got == fraction_induced_on_quotients(blk, hat1, hat2)
            nonzero += not la.is_zero(got) and not la.is_zero(mm.to_form_cycle)
    assert nonzero >= 10


def test_integer_pushes_raise_where_the_fraction_oracles_do():
    raised = set()
    for f in _instances(181, 10):
        b = f.target
        for n in _all_degrees(b):
            w = b.dim(n)
            ident = la.identity(w)
            forms, hb = forms_modulo_exact(b, n), homology(b, n)
            free = quotient_presentation(ident, (), w)
            for src, dst in ((forms, free), (forms, hb), (hb, free), (free, forms)):
                got = _result(hom.induced_on_quotients, ident, src, dst)
                assert got == _result(fraction_induced_on_quotients, ident, src, dst)
                raised.add("ok" if got[0] == "ok" else got[1:])
    assert raised == {
        "ok",
        (ValueError, "relations do not map into relations"),
        (ValueError, "vector is not a cycle of this presentation"),
    }


def test_structure_map_off_the_cycles_raises_as_the_oracle_does():
    # B_0 -> B_-1 is the identity, so f_0 = 1 is no chain map and sends
    # the cycle of A_0 to a vector that is not a cycle of B_0
    b = ChainComplex({0: 1, -1: 1}, {0: ((1,),)})
    bad = ChainMap(LINE, b, {0: ((1,),)}, check=False)
    for fn in (modified_maps, fraction_modified_maps):
        with pytest.raises(AssertionError, match="structure map must land in the cycle space"):
            fn(bad, 0)
    # one bumped entry of a seeded map, where the oracle says either
    outcomes = set()
    for f in _instances(191, 12):
        for n in sorted(f.maps):
            g = ChainMap(f.source, f.target, {**f.maps, n: _bump(f.maps[n], 0, 0)}, check=False)
            got = _result(lambda: modified_maps(g, n).to_form_cycle)
            assert got == _result(lambda: fraction_modified_maps(g, n)[2])
            outcomes.add(got[0])
    assert outcomes == {"ok", "raises"}


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
        ha_n = homology(a, n)
        mm = hom.modified_maps(f, n)
        hcone_n = homology(cn, n)
        m1, m3, m1b = _fraction_sequence_maps(f, n, cn)
        out.append((f"a-inject n={n}", la.rank(m1) == hcone_n.dim))
        out.append((f"a-exact-hat n={n}", la.is_exact(m1, mm.to_form_cycle)))
        out.append((f"a-exact-forms n={n}", la.is_exact(mm.to_form_cycle, m3)))
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


def _fraction_sequence_maps(f, n, cn):
    """The maps H_n(s(f)) -> hat H_n, Z(B_n) -> H_{n-1}(s(f)) and
    H_{n+1}(A) -> B_{n+1} / im d of the two sequences, from the Fraction
    representatives through coords and la.matvec, as
    verify_modified_sequences built them before its integer products;
    cn is the cone of f."""
    a, b = f.source, f.target
    hat, forms = modified_homology(f, n), forms_modulo_exact(b, n + 1)
    hcone_n, hcone_prev = homology(cn, n), homology(cn, n - 1)
    m1 = _cols_to_mat([_coords(hat, rep) for rep in hcone_n.reps], hat.dim)
    m3 = _cols_to_mat(
        [_coords(hcone_prev, (0,) * a.dim(n - 1) + tuple(z)) for z in homology(b, n).cycles.rows],
        hcone_prev.dim,
    )
    fm_next = f.map_at(n + 1)
    m1b = _cols_to_mat(
        [_coords(forms, la.matvec(fm_next, rep)) for rep in homology(a, n + 1).reps], forms.dim
    )
    return m1, m3, m1b


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
    honest = hom.modified_maps

    def doctored(g, m):
        mm = honest(g, m)
        if m != n:
            return mm
        return dataclasses.replace(mm, to_cycle_class=_bump(mm.to_cycle_class, 0, j))

    monkeypatch.setattr(hom, "modified_maps", doctored)
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
            m1 = _cols_to_mat([_coords(mm.hat, r) for r in hcone.reps], mm.hat.dim)
            rows = [j for j, row in enumerate(m1) if any(row)]
            if rows and mm.to_form_cycle:
                return f, n, rows[0]
    raise AssertionError("no seeded instance has the entry")


def test_one_entry_corruption_breaks_sequence_a(monkeypatch):
    f, n, j = _corrupted_form_cycle(103)
    assert all(ok for _, ok in verify_modified_sequences(f))
    honest = hom.modified_maps

    def doctored(g, m):
        mm = honest(g, m)
        if m != n:
            return mm
        return dataclasses.replace(mm, to_form_cycle=_bump(mm.to_form_cycle, 0, j))

    monkeypatch.setattr(hom, "modified_maps", doctored)
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


def _same_quotient(p, q) -> bool:
    return (
        p.cycles.rows == q.cycles.rows
        and p.boundaries.rows == q.boundaries.rows
        and p.reps == q.reps
    )


def _same_complex(c, d) -> bool:
    return c.dims == d.dims and c.diffs == d.diffs


def _filled_tables(seed: int, count: int):
    """Seeded maps after every check of the suite has filled their
    tables and those of the complexes they reach."""
    rng = random.Random(seed)
    for _ in range(count):
        a = random_complex(rng, 4, 4)
        b = random_complex(rng, 4, 4)
        f = random_chain_map(rng, a, b)
        verify_modified_sequences(f)
        cone_les_check(f)
        for n in _all_degrees(a, b):
            truncated_cone_cases(f, n)
            modified_homology_via_cone(f, n)
        yield f


def _complexes_of(f):
    yield f.source
    yield f.target
    if f._cone is not None:
        yield f._cone
    for t in f._truncated.values():
        yield t.target
        if t._cone is not None:
            yield t._cone


def test_table_entries_equal_fresh_builds():
    entries = 0
    for f in _filled_tables(131, 12):
        assert _same_complex(f._cone, cone(f))
        for n, t in f._truncated.items():
            fresh = truncated_map(f, n)
            assert t.source is f.source
            assert _same_complex(t.target, fresh.target) and t.maps == fresh.maps
            assert _same_complex(t._cone, cone(fresh))
        for n, hat in f._modified.items():
            assert _same_quotient(hat, modified_homology(f, n))
            entries += 1
        for c in _complexes_of(f):
            for n, h in c._homology.items():
                assert _same_quotient(h, homology(c, n))
                entries += 1
            for n, forms in c._forms.items():
                assert _same_quotient(forms, forms_modulo_exact(c, n))
                entries += 1
    assert entries > 100


def test_tables_hand_back_the_object_they_built():
    f = next(_filled_tables(137, 1))
    n = min(f.source.dims, default=0)
    assert f.cone() is f.cone()
    assert f.truncated_map(n) is f.truncated_map(n)
    assert f.modified_homology(n) is f.modified_homology(n)
    assert f.source.homology(n) is f.source.homology(n)
    assert f.target.forms_modulo_exact(n) is f.target.forms_modulo_exact(n)
    # so do the zero blocks of degrees without a stored matrix
    top = max(f.source.dims, default=0) + 1
    assert f.source.diff(top) is f.source.diff(top)
    assert f.map_at(top) is f.map_at(top)


def test_each_presentation_is_built_once_per_object(monkeypatch):
    # the modified-homology suite builds H_n of one complex object once
    built, kept = [], []
    honest = hom.homology

    def counting(c, n):
        kept.append(c)  # keeps ids from being reused
        built.append((id(c), n))
        return honest(c, n)

    monkeypatch.setattr(hom, "homology", counting)
    assert cli.run_suite(cli.SuiteConfig("modified-homology", seed=1)).failed == 0
    assert built and len(set(built)) == len(built)


def test_two_route_claims_compare_distinct_objects(monkeypatch):
    routes, squares = [], []
    honest_same = cli._same_presentation
    honest_induced = cli.induced_modified_map

    def same_spy(direct, via):
        routes.append((direct, via))
        return honest_same(direct, via)

    def induced_spy(f1, f2, rho, rho2, n):
        squares.append((rho, rho2, rho.modified_homology(n), rho2.modified_homology(n)))
        return honest_induced(f1, f2, rho, rho2, n)

    monkeypatch.setattr(cli, "_same_presentation", same_spy)
    monkeypatch.setattr(cli, "induced_modified_map", induced_spy)
    assert cli.run_suite(cli.SuiteConfig("modified-homology", seed=1)).failed == 0
    assert routes and squares
    for direct, via in routes:
        assert direct is not via
        assert direct.cycles is not via.cycles
        assert direct.boundaries is not via.boundaries
    for rho, rho2, hat1, hat2 in squares:
        assert rho is not rho2 and hat1 is not hat2
        assert hat1.cycles is not hat2.cycles


def _zero_degrees(seed: int, count: int):
    """(map, complex, degree) for the degrees at which a complex of a
    seeded map, its cone or the target is zero, within one step of the
    supports."""
    for f in _instances(seed, count):
        for c in (f.source, f.target, cone(f)):
            for n in _all_degrees(c):
                if not c.dim(n):
                    yield f, c, n


def test_zero_degrees_present_the_zero_group_without_elimination(monkeypatch):
    cases = list(_zero_degrees(139, 8))
    assert len(cases) >= 20
    # from scratch: the echelon bases of the empty cycle and boundary spans
    scratch = [
        (
            la.EchelonBasis(la.nullspace(c.diff(n)), 0),
            la.EchelonBasis(la.transpose(c.diff(n + 1)), 0),
        )
        for _, c, n in cases
    ]
    built = []
    with monkeypatch.context() as m:

        def refuse(*args):
            raise AssertionError("elimination at a zero degree")

        # every elimination runs this one loop
        m.setattr(_qkernels, "_bareiss", refuse)
        # so a degree with a nonzero differential trips the guard
        c = next(c for _, c, _ in cases if c.diffs)
        with pytest.raises(AssertionError, match="elimination at a zero degree"):
            homology(c, min(c.diffs))
        for f, c, n in cases:
            built.append(homology(c, n))
            built.append(forms_modulo_exact(c, n))
            if not f.source.dim(n) and not f.target.dim(n + 1):
                built.append(modified_homology(f, n))
    assert len(built) > 2 * len(cases)
    cyc, bnd = scratch[0]
    assert all(x.rows == cyc.rows and y.rows == bnd.rows for x, y in scratch)
    for p in built:
        assert p.width == p.cycles.rows.ncols == p.boundaries.rows.ncols == 0
        assert p.cycles.rows == cyc.rows and p.cycles.rows.ncols == 0
        assert p.boundaries.rows == bnd.rows and p.boundaries.rows.ncols == 0
        assert p.cycles.pivots == cyc.pivots == p.boundaries.pivots == ()
        assert p.reps == () and p.dim == 0
        assert p.cycles is not p.boundaries
        assert p.normal_form([()]) == ((),) and la.shape(p.coords([()])) == (0, 1)
    # the cycles and boundaries of distinct presentations are never shared
    assert len({id(p.cycles) for p in built}) == len(built)
    with pytest.raises(ValueError):
        hom.quotient_presentation([(Fraction(1),)], [], 0)
    with pytest.raises(ValueError):
        hom.quotient_presentation([], [(Fraction(0),)], 0)

