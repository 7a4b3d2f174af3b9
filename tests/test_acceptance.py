"""Acceptance gate: nine exact criteria at their full bounds.

One test per criterion; `pytest -v` prints one pass/fail line for
each. Everything is rational arithmetic, so each check is an exact
equality, never a tolerance. The per-criterion PASS prints make the
summary visible under `pytest -rA` or `-s` as well.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

from hermk import linalg as la
from hermk.core import (
    ShortExactMetrized,
    is_hermitian_split,
    standard_space,
)
from hermk.cubes import (
    cub,
    cub_chain_property,
    cub_degeneracy_relations,
    cub_degenerate_differential,
    cub_face_relations,
    cube_differential,
    homotopy_check,
    paired_faces_agree,
)
from hermk.homology import (
    ChainComplex,
    cone,
    compose_chain_maps,
    dsum_complex_projection,
    forms_modulo_exact,
    homology,
    identity_chain_map,
    induced_modified_map,
    is_quasi_iso,
    modified_homology,
    verify_modified_sequences,
    zero_chain_map,
)
from hermk.instances import (
    random_chain_map,
    random_complex,
    random_quasi_iso,
    random_spd_gram,
    random_vector,
)
from hermk.koszul import (
    koszul_complex,
    koszul_section,
    koszul_sum_isometry,
    lambda_rescale,
    mu_decompose,
    norm_ratio_all,
    psicomp_tree,
)
from hermk.symfun import (
    ChernRootBundle,
    adams_chern_commute,
    complete_from_compositions,
    formal_chern_character,
    graded_adams,
    graded_mul,
    koszul_euler_identity,
    newton_power_sum,
    sym_gen,
)
from test_linalg import _canon_span

F = Fraction


def _exact(c) -> bool:
    if not c.maps[0].is_injective():
        return False
    if not c.maps[-1].is_surjective():
        return False
    for p in range(len(c.maps) - 1):
        im = c.maps[p].image_basis()
        ker = c.maps[p + 1].kernel_basis()
        width = c.objects[p + 1].dim
        if _canon_span(im, width) != _canon_span(ker, width):
            return False
    return True


def test_criterion_1_koszul_exactness_and_section():
    for dim in range(1, 5):
        v = standard_space(dim)
        for k in range(1, 5):
            c = koszul_complex(v, k)
            assert _exact(c)
            for p in range(k):
                phi = c.maps[p]
                psi = koszul_section(c, p)
                assert phi.compose(psi).compose(phi).matrix == phi.matrix
    print("criterion 1: PASS (koszul exactness + section, dim<=4, k<=4)")


def test_criterion_2_norm_ratio_closed_forms():
    checked = 0
    for dim in range(1, 5):
        v = standard_space(dim)
        for k in range(1, 5):
            c = koszul_complex(v, k)
            for p in range(k):
                # zero-dimensional degrees (dim < k) have no vectors
                rows = norm_ratio_all(v, k, p)
                checked += len(rows)
                for idx, i_sq, q_sq in rows:
                    sym_word, ext_word = c.objects[p].labels[idx]
                    mult = Counter(sym_word.indices)
                    base = math.prod(
                        math.factorial(m) for m in mult.values()
                    )
                    shifted = k - p + sum(mult[j] for j in ext_word.indices)
                    assert i_sq == base * shifted
                    assert q_sq == F(base * shifted, k)
                    assert i_sq / q_sq == k
    assert checked > 300  # the bounds produce a dense sample
    print("criterion 2: PASS (norm ratio k + closed forms, dim<=4, k<=4)")


def test_criterion_3_rescaled_splitting_with_negative_control():
    for dim in range(1, 4):
        v = standard_space(dim)
        for k in range(1, 5):
            c = koszul_complex(v, k)
            rescaled = mu_decompose(lambda_rescale(c, k))
            assert all(is_hermitian_split(s) for _, s in rescaled)
            if k >= 2:
                plain = mu_decompose(c)
                assert any(not is_hermitian_split(s) for _, s in plain)
    print("criterion 3: PASS (rescaled splitting + unrescaled control)")


def test_criterion_4_direct_sum_isometry():
    rng = random.Random(20260816)
    for dv in (1, 2):
        for dw in (1, 2):
            for k in (1, 2, 3):
                v = standard_space(dv, tag="v")
                w = standard_space(dw, tag="w")
                assert koszul_sum_isometry(v, w, k)
                rv = standard_space(dv, random_spd_gram(rng, dv), tag="v")
                rw = standard_space(dw, random_spd_gram(rng, dw), tag="w")
                assert koszul_sum_isometry(rv, rw, k)
    print("criterion 4: PASS (direct-sum isometry, dims<=2, k<=3, random Grams)")


def test_criterion_5_symmetric_function_identities():
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert newton_power_sum(k).expand(n) == sym_gen("p", k).expand(n)
            assert (
                complete_from_compositions(k).expand(n)
                == sym_gen("h", k).expand(n)
            )
            assert koszul_euler_identity(k, n)
    print("criterion 5: PASS (symmetric-function identities, 1<=k<=n<=10)")


def _plain_roots(n: int, truncation: int) -> ChernRootBundle:
    return ChernRootBundle((F(1),) * n, truncation)


def test_criterion_6_graded_adams_and_chern_character():
    rng = random.Random(20260816)
    for nroots in range(1, 5):
        for trunc in range(7):
            for k in range(5):
                assert adams_chern_commute(_plain_roots(nroots, trunc), k)
    scaled = ChernRootBundle(
        tuple(F(rng.randrange(-2, 3), rng.choice((1, 2))) for _ in range(4)), 6
    )
    for k in range(5):
        assert adams_chern_commute(scaled, k)
    # one root count, different scales (a product of characters in
    # different root counts is refused)
    x = formal_chern_character(_plain_roots(3, 5))
    y = formal_chern_character(ChernRootBundle((F(2), F(-1, 2), F(3)), 5))
    for k in range(5):
        assert graded_adams(graded_mul(x, y), k) == graded_mul(
            graded_adams(x, k), graded_adams(y, k)
        )
    print("criterion 6: PASS (graded ops commute with the Chern character)")


def test_criterion_7_modified_homology_sequences():
    rng = random.Random(20260816)
    for _ in range(200):
        a = random_complex(rng, 6, 6)
        b = random_complex(rng, 6, 6)
        f = random_chain_map(rng, a, b)
        assert all(ok for _, ok in verify_modified_sequences(f))

    a = random_complex(rng, 5, 5)
    b = random_complex(rng, 5, 5)
    empty = ChainComplex({}, {})
    for corner in (
        zero_chain_map(a, b),
        zero_chain_map(empty, b),
        identity_chain_map(a),
    ):
        assert all(ok for _, ok in verify_modified_sequences(corner))
    # replacing the source by a quasi-isomorphic complex leaves every
    # modified group isomorphic through the induced map
    seen = 0
    for _ in range(25):
        a = random_complex(rng, 5, 5)
        b = random_complex(rng, 5, 5)
        rho = random_chain_map(rng, a, b)
        idb = identity_chain_map(b)
        x = random_complex(rng, 4, 4)
        for f1 in (
            random_quasi_iso(rng, a),
            dsum_complex_projection(a, cone(identity_chain_map(x))),
        ):
            assert is_quasi_iso(f1)
            rho2 = compose_chain_maps(rho, f1)
            degrees = sorted(set(a.dims) | set(b.dims) | {0})
            for n in range(degrees[0] - 1, degrees[-1] + 2):
                h1 = modified_homology(rho2, n)
                h2 = modified_homology(rho, n)
                assert h1.dim == h2.dim
                m = induced_modified_map(f1, idb, rho2, rho, n)
                assert la.rank(m) == h1.dim
                seen += h1.dim
    assert seen > 0
    print("criterion 7: PASS (modified homology, 200+ instances + corners)")


def _flag_with_dims(rng, ambient, dims):
    from hermk.cubes import Flag

    chain = []
    space: list = []
    for d in dims:
        while len(space) < d:
            vec = random_vector(rng, ambient.dim)
            cand = space + [vec]
            if la.rank(la.mat(cand)) == len(cand):
                space = cand
        chain.append(tuple(space))
    return Flag(ambient, chain)


def test_criterion_8_cube_calculus():
    rng = random.Random(20260816)
    amb = standard_space(6, random_spd_gram(rng, 6))
    for n in (2, 3, 4):
        for _ in range(2):
            dims = sorted(rng.sample(range(1, 7), n))
            f = _flag_with_dims(rng, amb, dims)
            c = cub(f)
            if c.n >= 2:
                assert cube_differential(cube_differential(c)).is_zero()
            assert cub_face_relations(f)
            assert cub_degeneracy_relations(f)
            assert cub_chain_property(f)
            for i in range(1, n):
                assert paired_faces_agree(f, i)
                assert cub_degenerate_differential(f, i)
                if n <= 3:
                    assert homotopy_check(f, i)
    print("criterion 8: PASS (cube calculus in Q^6, n<=4, homotopy n<=3)")


def test_criterion_9_recursion_witnesses():
    for k in (1, 2, 3):
        for node in psicomp_tree(k):
            if node.kind == "iso":
                assert node.iso is not None and node.iso.is_isometry()
            else:
                assert node.ses is not None
                # revalidation: the pair must still form a short exact
                # metrized sequence
                ShortExactMetrized(node.ses.inject, node.ses.project)
    # the K0-level shadow of the same rewriting is criterion 5's
    # secondary Euler identity, asserted there at full range
    assert all(koszul_euler_identity(k, 3) for k in (1, 2, 3))
    print("criterion 9: PASS (recursion witnesses exact/isometric, k<=3)")
