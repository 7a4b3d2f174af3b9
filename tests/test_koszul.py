"""Transform complexes: exactness, sections, norms, and splitting data.

Frozen matrices are hand-derived from the generating rules
e_a ^ e_b -> e_a (x) e_b - e_b (x) e_a (antisymmetrization into the
tensor factor) and e_a (x) e_b -> e_a e_b (multiplication into the
symmetric factor); norms cross-check the product-of-factorials closed
form against the Gram computation. The maps phi_p and psi_p, built from
their rules on basis words, are compared exactly with their defining
composites through the tensor power T^k.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from hermk import core, cubes, koszul
from hermk import linalg as la
from hermk.cli import SuiteConfig, run_suite
from hermk.core import (
    MetrizedSpace,
    ScaledMatrix,
    ShortExactMetrized,
    SpaceMap,
    ZERO_SPACE,
    identity_map,
    is_hermitian_split,
    kernel_object,
    orthogonal_complement,
    standard_space,
    zero_map,
)
from hermk.instances import instance_rng, random_space, random_spd_gram
from hermk.koszul import (
    FormalObjectSum,
    HermitianComplex,
    alternating_object_sum,
    koszul_complex,
    koszul_iterated,
    koszul_norms,
    koszul_section,
    koszul_sum_isometry,
    koszul_sum_rhs,
    lambda_rescale,
    mu_decompose,
    norm_ratio,
    norm_ratio_all,
    psicomp_tree,
    secondary_euler,
    secondary_euler_pair_identity,
    ses_boundary,
    total_complex,
    transposed_koszul,
)
from hermk.multilinear import (
    ext_power,
    iota_map,
    j_map,
    pi_map,
    rho_map,
    sym_power,
    tensor_of_spaces,
)

F = Fraction

SKEW = MetrizedSpace(("x", "y"), la.mat([[1, F(1, 2)], [F(1, 2), 1]]))


def _random_space(rng: random.Random, dim: int) -> MetrizedSpace:
    labels = tuple(f"v{i}" for i in range(dim))
    return MetrizedSpace(labels, random_spd_gram(rng, dim))


def _koszul_object(v: MetrizedSpace, k: int, p: int) -> MetrizedSpace:
    """S^p V (x) Lambda^(k-p) V with the induced metric, built apart
    from koszul_complex for the oracles."""
    return tensor_of_spaces(sym_power(v, p), ext_power(v, k - p))


def test_line_complex_is_frozen():
    c = koszul_complex(standard_space(1), 2)
    assert [o.dim for o in c.objects] == [0, 1, 1]
    # the only degree-1 map sends e0 (x) e0 to e0 e0 with coefficient 1
    assert c.maps[0].matrix.entries == ((),)
    assert c.maps[1].matrix.entries == ((1,),)
    assert c.maps[1].matrix.scale_sq == 1


def test_plane_complex_is_frozen():
    c = koszul_complex(standard_space(2), 2)
    assert [o.dim for o in c.objects] == [1, 4, 3]
    # e0 ^ e1 -> e0 (x) e1 - e1 (x) e0 in the basis
    # (e0 (x) e0, e0 (x) e1, e1 (x) e0, e1 (x) e1)
    assert c.maps[0].matrix.entries == ((0,), (1,), (-1,), (0,))
    assert c.maps[0].matrix.scale_sq == 1
    # e_a (x) e_b -> e_a e_b in the basis (e0 e0, e0 e1, e1 e1)
    assert c.maps[1].matrix.entries == (
        (1, 0, 0, 0),
        (0, 1, 1, 0),
        (0, 0, 0, 1),
    )
    assert c.maps[1].matrix.scale_sq == 1


def test_object_dimensions_count_words():
    for dim in (1, 2, 3):
        v = standard_space(dim)
        for k in (1, 2, 3):
            c = koszul_complex(v, k)
            for p, obj in enumerate(c.objects):
                expected = math.comb(dim + p - 1, p) * math.comb(dim, k - p)
                assert obj.dim == expected


def test_complexes_are_exact_for_any_metric():
    # construction re-validates exactness when acyclic=True is passed
    rng = random.Random(31)
    for dim in (1, 2, 3):
        spaces = [standard_space(dim), _random_space(rng, dim)]
        for v in spaces:
            for k in (1, 2, 3):
                assert koszul_complex(v, k).acyclic
    assert koszul_complex(SKEW, 3).acyclic


def test_acyclic_flag_is_checked_by_exactness():
    line, plane, end = (standard_space(d, tag=t) for d, t in ((1, "a"), (2, "b"), (1, "c")))
    f = SpaceMap(line, plane, ((F(1),), (F(0),)))
    g = SpaceMap(plane, end, ((F(0), F(1)),))
    assert HermitianComplex([line, plane, end], [f, g], acyclic=True).acyclic
    # the ranks add up (1 + 1 = 2) but the maps do not compose to zero
    bad_g = SpaceMap(plane, end, ((F(1), F(0)),))
    for acyclic in (True, False):
        with pytest.raises(ValueError, match="maps 0, 1 do not compose to zero"):
            HermitianComplex([line, plane, end], [f, bad_g], acyclic=acyclic)
    # a complex, but with a rank deficit in the middle and at the front
    zero_f = SpaceMap(line, plane, ((F(0),), (F(0),)))
    assert not HermitianComplex([line, plane, end], [zero_f, g]).acyclic
    with pytest.raises(ValueError, match="not exact at degree 0"):
        HermitianComplex([line, plane, end], [zero_f, g], acyclic=True)
    # exact at degree 0 but not at the end
    zero_g = SpaceMap(plane, end, ((F(0), F(0)),))
    with pytest.raises(ValueError, match="not exact at degree 1"):
        HermitianComplex([line, plane, end], [f, zero_g], acyclic=True)
    # one object is exact exactly when it is zero
    assert HermitianComplex([ZERO_SPACE], [], acyclic=True).acyclic
    with pytest.raises(ValueError, match="not exact at degree 0"):
        HermitianComplex([line], [], acyclic=True)


def test_section_identity():
    # on the complex and on its rescaling, whose sections scale by k
    rng = random.Random(37)
    for dim in (1, 2, 3):
        for v in (standard_space(dim), _random_space(rng, dim)):
            for k in (1, 2, 3):
                plain = koszul_complex(v, k)
                for c in (plain, lambda_rescale(plain, k)):
                    for p in range(k):
                        phi, psi = c.maps[p], koszul_section(c, p)
                        assert psi.domain == c.objects[p + 1]
                        assert psi.codomain == c.objects[p]
                        assert psi.matrix.scale_sq == 1 / phi.matrix.scale_sq
                        assert phi.compose(psi).compose(phi).matrix == phi.matrix


def _through_tensor_power(v, k, q, r) -> la.Mat:
    """(pi_q (x) rho_{k-q}) . (iota_r (x) j_{k-r}), regrouped on T^k."""
    left = la.kron(pi_map(v, q).matrix.entries, rho_map(v, k - q).matrix.entries)
    right = la.kron(iota_map(v, r).matrix.entries, j_map(v, k - r).matrix.entries)
    return la.matmul(left, right)


def _oracle_phi(v, k, p) -> SpaceMap:
    """phi_p by its defining composite through T^k."""
    entries = _through_tensor_power(v, k, p + 1, p)
    scale = F(1, math.factorial(p) * math.factorial(k - p - 1))
    return SpaceMap(_koszul_object(v, k, p), _koszul_object(v, k, p + 1), la.scale(entries, scale))


def _oracle_psi(v, k, p) -> SpaceMap:
    """psi_p by its defining composite through T^k."""
    entries = _through_tensor_power(v, k, p, p + 1)
    scale = F(1, k * math.factorial(p) * math.factorial(k - p - 1))
    return SpaceMap(_koszul_object(v, k, p + 1), _koszul_object(v, k, p), la.scale(entries, scale))


def _differences(got: SpaceMap, want: SpaceMap) -> list[str]:
    out = []
    if (got.domain, got.codomain) != (want.domain, want.codomain):
        out.append("spaces")
    if got.matrix.entries.ncols != want.matrix.entries.ncols:
        out.append("ncols")
    if got.matrix.scale_sq != want.matrix.scale_sq:
        out.append("scale_sq")
    if got.matrix.entries != want.matrix.entries:
        out.append("entries")
    if any(type(x) is not Fraction for row in got.matrix.entries for x in row):
        out.append("entry types")
    return out


def _oracle_mismatches(spaces, degrees) -> list[tuple]:
    """(map, dim, k, p, what) wherever koszul_complex or koszul_section
    differs from the tensor-power composite."""
    out = []
    for v in spaces:
        for k in degrees:
            c = koszul_complex(v, k)
            for p in range(k):
                for name, got, want in (
                    ("phi", c.maps[p], _oracle_phi(v, k, p)),
                    ("psi", koszul_section(c, p), _oracle_psi(v, k, p)),
                ):
                    out += [(name, v.dim, k, p, d) for d in _differences(got, want)]
    return out


def test_maps_equal_their_tensor_power_composites():
    rng = random.Random(47)
    spaces = [standard_space(0)]
    for dim in (1, 2, 3, 4):
        spaces += [standard_space(dim), _random_space(rng, dim)]
    assert _oracle_mismatches(spaces, (1, 2, 3, 4)) == []


def test_oracle_comparison_catches_doctored_rules(monkeypatch):
    v = standard_space(3)
    phi_rule, psi_rule = koszul._phi_images, koszul._psi_images
    # phi negated alone: phi psi + psi phi = -id, so construction refuses it
    monkeypatch.setattr(koszul, "_phi_images", lambda lab: ((t, -c) for t, c in phi_rule(lab)))
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="not the identity at degree 0"):
            koszul_complex(v, k)
    # phi and psi both negated: still certified, so only the oracle can tell
    monkeypatch.setattr(koszul, "_psi_images", lambda lab: ((t, -c) for t, c in psi_rule(lab)))
    assert koszul_complex(v, 3).acyclic
    bad = _oracle_mismatches([v], (1, 2, 3))
    assert {(m, k, p) for m, _, k, p, _ in bad} == {
        (m, k, p) for m in ("phi", "psi") for k in (1, 2, 3) for p in range(k)
    }
    assert {d for *_, d in bad} == {"entries"}
    # the sign dropped from phi: maps no longer compose to zero
    monkeypatch.setattr(koszul, "_psi_images", psi_rule)
    monkeypatch.setattr(koszul, "_phi_images", lambda lab: ((t, abs(c)) for t, c in phi_rule(lab)))
    with pytest.raises(ValueError, match="maps 0, 1 do not compose to zero"):
        koszul_complex(v, 2)
    # the sign dropped from psi: it only shows from two letters on, where
    # the certificate refuses it
    monkeypatch.setattr(koszul, "_phi_images", phi_rule)

    def unsigned(lab):
        return ((t, abs(c)) for t, c in psi_rule(lab))

    monkeypatch.setattr(koszul, "_psi_images", unsigned)
    assert koszul_complex(v, 1).acyclic
    for k in (2, 3):
        with pytest.raises(ValueError, match="not the identity"):
            koszul_complex(v, k)
    # sections swapped in behind the certificate: koszul_section reads
    # them as they are, and the oracle catches them there
    monkeypatch.setattr(koszul, "_psi_images", psi_rule)
    bad = []
    for k in (1, 2, 3):
        c = koszul_complex(v, k)
        psis = [{lab: tuple(unsigned(lab)) for lab in b.labels} for b in c.objects[1:]]
        c._sections = koszul._Sections(c.objects, psis, k)
        for p in range(k):
            bad += [(k, p, d) for d in _differences(koszul_section(c, p), _oracle_psi(v, k, p))]
    assert bad and {d for *_, d in bad} == {"entries"}
    assert {k for k, _, _ in bad} == {2, 3}


def test_rank_check_accepts_every_certified_complex():
    # koszul_complex certifies itself on words and skips the rank test;
    # the rank test, rerun on its output, must agree
    rng = random.Random(59)
    spaces = [standard_space(0), SKEW]
    for dim in (1, 2, 3, 4):
        spaces += [standard_space(dim), _random_space(rng, dim)]
    for v in spaces:
        for k in range(1, 6):
            c = koszul_complex(v, k)
            assert HermitianComplex(c.objects, c.maps, acyclic=True).acyclic


def test_dim4_degree5_is_exact_with_sections():
    # too large for the tensor-power composites (1024 x 1024 on T^5)
    v = standard_space(4)
    c = koszul_complex(v, 5)  # the constructor checks exactness
    assert c.acyclic
    assert [o.dim for o in c.objects] == [0, 4, 40, 120, 140, 56]
    for p in range(5):
        phi = c.maps[p]
        assert phi.compose(koszul_section(c, p)).compose(phi).matrix == phi.matrix


def test_section_degree_bounds():
    c = koszul_complex(standard_space(2), 2)
    with pytest.raises(ValueError, match="top-1"):
        koszul_section(c, 2)
    with pytest.raises(ValueError, match="top-1"):
        koszul_section(c, -1)


def test_section_needs_a_complex_that_keeps_sections():
    v = standard_space(2)
    transposed, _ = transposed_koszul(v, 2)
    plain = koszul_complex(v, 2)
    rebuilt = HermitianComplex(plain.objects, plain.maps, acyclic=True)
    for c in (transposed, rebuilt, lambda_rescale(transposed, 2)):
        with pytest.raises(ValueError, match="keeps no sections"):
            koszul_section(c, 0)


def _closed_form_norm(label, k: int, p: int) -> Fraction:
    """Product of the symmetric-word factorials times the shifted degree
    count k - p + sum of multiplicities wedged in."""
    sym_word, ext_word = label
    mult = Counter(sym_word.indices)
    base = math.prod(math.factorial(c) for c in mult.values())
    return F(base * (k - p + sum(mult[j] for j in ext_word.indices)))


def test_norms_match_closed_form_and_ratio_is_degree():
    for dim in (1, 2, 3):
        v = standard_space(dim)
        for k in (1, 2, 3):
            c = koszul_complex(v, k)
            for p in range(k):
                seen = set()
                for idx, i_sq, q_sq in norm_ratio_all(v, k, p):
                    seen.add(idx)
                    assert i_sq / q_sq == k
                    expected = _closed_form_norm(c.objects[p].labels[idx], k, p)
                    assert i_sq == expected
                    assert q_sq == expected / k
                nonzero_cols = {
                    idx
                    for idx in range(c.objects[p].dim)
                    if any(row[idx] for row in c.maps[p].matrix.entries)
                }
                assert seen == nonzero_cols


def test_norm_helpers_frozen_plane_values():
    v = standard_space(2)
    assert norm_ratio_all(v, 2, 0) == [(0, F(2), F(1))]
    assert norm_ratio_all(v, 2, 1) == [
        (0, F(2), F(1)),
        (1, F(1), F(1, 2)),
        (2, F(1), F(1, 2)),
        (3, F(2), F(1)),
    ]
    assert norm_ratio(v, 2, 1, (1, 0, 0, 0)) == 2
    with pytest.raises(ValueError):
        norm_ratio(v, 2, 1, (0, 1, -1, 0))  # kernel vector


def test_mu_structure_of_plane_complex():
    c = lambda_rescale(koszul_complex(standard_space(2), 2), 2)
    parts = mu_decompose(c)
    dims = [
        (sign, (s.sub.dim, s.total.dim, s.quot.dim)) for sign, s in parts
    ]
    assert dims == [(-1, (0, 1, 1)), (1, (1, 4, 3))]


def test_rescaled_mu_splits_and_unrescaled_does_not():
    rng = random.Random(41)
    for dim in (1, 2):
        for v in (standard_space(dim), _random_space(rng, dim)):
            for k in (2, 3):
                c = koszul_complex(v, k)
                rescaled = mu_decompose(lambda_rescale(c, k))
                assert all(is_hermitian_split(s) for _, s in rescaled)
                assert any(not is_hermitian_split(s) for _, s in mu_decompose(c))


def test_mu_of_zero_complex_is_empty():
    zero = SpaceMap(ZERO_SPACE, ZERO_SPACE, la.zeros(0, 0))
    c = HermitianComplex((ZERO_SPACE, ZERO_SPACE), (zero,), acyclic=True)
    assert mu_decompose(c) == [] == _mu_from_scratch(c)


def _mu_from_scratch(c: HermitianComplex):
    """mu_decompose as built before the shared table, the oracle: every
    kernel afresh, coordinates by la.solve, every sequence checked."""
    if c.is_zero():
        return []
    kernels = [kernel_object(f) for f in c.maps]
    kernels.append((c.objects[-1], identity_map(c.objects[-1])))
    out = []
    for j, f in enumerate(c.maps):
        _, inject = kernels[j]
        knext, kincl = kernels[j + 1]
        coords = la.solve(kincl.matrix.entries, f.matrix.entries)
        assert coords is not None
        project = SpaceMap(c.objects[j], knext, ScaledMatrix(coords, f.matrix.scale_sq))
        out.append((-1 if j % 2 == 0 else 1, ShortExactMetrized(inject, project)))
    return out


def _acyclic_complexes():
    """Fresh acyclic complexes, each with a rescale degree: Koszul
    complexes over standard and random metrics (k = 1 included, where
    lambda_rescale hands back the complex itself), a transposed one, a
    total complex and one with a zero map."""
    rng = random.Random(47)
    for dim in (1, 2, 3):
        for v in (standard_space(dim), _random_space(rng, dim)):
            for k in (1, 2, 3):
                yield koszul_complex(v, k), k
    yield transposed_koszul(SKEW, 3)[0], 3
    b = koszul_iterated(standard_space(1, tag="v"), standard_space(2, tag="w"), 1, 3)
    yield total_complex(b), 2
    line, end = standard_space(1, tag="a"), standard_space(1, tag="b")
    maps = [SpaceMap(line, end, ((F(2),),)), zero_map(end, ZERO_SPACE)]
    yield HermitianComplex([line, end, ZERO_SPACE], maps, acyclic=True), 5


def _keys(parts):
    return [(sign, ses.key(), ses.project.matrix.scale_sq) for sign, ses in parts]


@pytest.mark.parametrize("rescaled_first", [True, False])
def test_shared_sequences_match_the_from_scratch_oracle(rescaled_first):
    for plain, k in _acyclic_complexes():
        scaled = lambda_rescale(plain, k)
        assert scaled._sequences is plain._sequences
        for c in (scaled, plain) if rescaled_first else (plain, scaled):
            got = mu_decompose(c)
            assert _keys(got) == _keys(_mu_from_scratch(c))
            assert mu_decompose(c) == got
            for _, ses in got:
                # a derived sequence passes the full check as well
                assert ShortExactMetrized(ses.inject, ses.project) == ses


def _split_oracle(ses: ShortExactMetrized) -> bool:
    """is_hermitian_split as it was before its scale-free parts were
    kept with the sequence, the oracle: every product afresh, the
    complement with its independence rank, scales and comparisons on
    Fraction entries."""

    def scaled(m, s):
        return tuple(tuple(s * x for x in row) for row in m)

    inject = ses.inject.matrix
    pulled = la.matmul(la.matmul(la.transpose(inject.entries), ses.total.gram), inject.entries)
    if scaled(pulled, inject.scale_sq) != tuple(ses.sub.gram):
        return False
    image = la.transpose(inject.entries)
    cols = la.transpose(orthogonal_complement(ses.total, image))
    assert cols.ncols == ses.quot.dim
    pc = la.matmul(ses.project.matrix.entries, cols)
    lhs = scaled(la.matmul(la.matmul(la.transpose(pc), ses.quot.gram), pc), ses.project.matrix.scale_sq)
    rhs = la.matmul(la.matmul(la.transpose(cols), ses.total.gram), cols)
    return lhs == tuple(rhs)


@pytest.mark.parametrize("rescaled_first", [True, False])
def test_split_test_matches_the_oracle_on_koszul_sequences(rescaled_first):
    # the first complex decomposed computes the scale-free parts that
    # the other one's sequences then share
    rng = random.Random(53)
    verdicts = Counter()
    for dim in (1, 2, 3):
        for v in (standard_space(dim), _random_space(rng, dim)):
            for k in (1, 2, 3, 4):
                plain = koszul_complex(v, k)
                scaled = lambda_rescale(plain, k)
                for c in (scaled, plain) if rescaled_first else (plain, scaled):
                    for _, ses in mu_decompose(c):
                        got = is_hermitian_split(ses)
                        assert got == _split_oracle(ses)
                        verdicts[got] += 1
    assert verdicts[True] and verdicts[False]


def test_split_test_matches_the_oracle_on_split_cube_triples(monkeypatch):
    verdicts = Counter()

    def compared(ses):
        got = is_hermitian_split(ses)
        assert got == _split_oracle(ses)
        verdicts[got] += 1
        return got

    monkeypatch.setattr(cubes, "is_hermitian_split", compared)
    cfg = SuiteConfig("split-cubes", max_dim=3, max_k=3, max_n=2, trials=2)
    assert run_suite(cfg).failed == 0
    assert verdicts[True] and verdicts[False]


def test_split_test_matches_the_oracle_on_a_non_isometric_inject():
    sub, plane, quo = (standard_space(d, tag=t) for d, t in ((1, "s"), (2, "t"), (1, "q")))
    project = SpaceMap(plane, quo, ((F(0), F(1)),))
    # e0 sent to 2 e1: an isometry onto its image at scale 1/4 only
    for scale_sq, splits in ((1, False), (F(1, 4), True)):
        inject = SpaceMap(sub, plane, ScaledMatrix(((F(2),), (F(0),)), scale_sq))
        ses = ShortExactMetrized(inject, project)
        assert is_hermitian_split(ses) is splits is _split_oracle(ses)


def _nullspace_split_parts(ses: ShortExactMetrized):
    """_split_parts as it was before the complement came from the
    section, the oracle: None when test (a) fails, else (P N)^T H (P N)
    and N^T G N for N the nullspace of K G (as columns), before the
    scale."""
    m = ses.inject.matrix
    kg = la.matmul(la.transpose(m.entries), ses.total.gram)
    if la.scale(la.matmul(kg, m.entries), m.scale_sq) != ses.sub.gram:
        return None
    comp = la.nullspace(kg)
    assert len(comp) == ses.quot.dim
    cols = la.transpose(comp)
    pc = la.matmul(ses.project.matrix.entries, cols)
    return (
        la.matmul(la.matmul(la.transpose(pc), ses.quot.gram), pc),
        la.matmul(la.matmul(comp, ses.total.gram), cols),
    )


def _split_instances():
    """(dim, k, metric, complex) for every dim <= 4 and k <= 4, each
    metric standard and random, plain and rescaled."""
    for dim in range(1, 5):
        for k in range(1, 5):
            for metric in ("standard", "random"):
                v = standard_space(dim) if metric == "standard" else random_space(instance_rng(dim, k), dim)
                plain = koszul_complex(v, k)
                yield dim, k, metric, plain
                yield dim, k, f"{metric} rescaled", lambda_rescale(plain, k)


def test_section_complement_matches_the_nullspace_oracle():
    # the section's complement is the nullspace complement brought to
    # P C = I, so the oracle's two parts, moved to that basis by
    # X = (P N)^-1, are H and the new C^T G C, and the verdicts agree
    verdicts = Counter()
    for dim, k, metric, c in _split_instances():
        for j, (_, ses) in enumerate(mu_decompose(c)):
            where = (dim, k, metric, j)
            assert ses._complement is not None, where
            got = core._split_parts(ses)
            oracle = _nullspace_split_parts(ses)
            assert (got is None) == (oracle is None), where
            if oracle is None:
                continue
            pgp, cgc = oracle
            n = la.transpose(la.nullspace(la.matmul(la.transpose(ses.inject.matrix.entries), ses.total.gram)))
            x = la.solve(la.matmul(ses.project.matrix.entries, n), la.identity(ses.quot.dim))
            assert ses._complement() == la.matmul(n, x), where
            assert la.matmul(la.matmul(la.transpose(x), pgp), x) == ses.quot.gram, where
            assert la.matmul(la.matmul(la.transpose(x), cgc), x) == got, where
            splits = is_hermitian_split(ses)
            assert splits == (la.scale(pgp, ses.project.matrix.scale_sq) == cgc), where
            verdicts[splits] += 1
    assert verdicts[True] and verdicts[False]


def _kernel_vector_added(c: la.Mat, kernel: la.Mat, col: int = 0) -> la.Mat:
    """c with the first column of kernel added to its column col."""
    rows = [list(row) for row in c]
    for row, kv in zip(rows, kernel, strict=True):
        row[col] += kv[0]
    return la.mat(rows)


def _column_scaled(c: la.Mat, kernel: la.Mat, col: int = 0) -> la.Mat:
    """c with its column col doubled."""
    rows = [list(row) for row in c]
    for row in rows:
        row[col] *= 2
    return la.mat(rows)


@pytest.mark.parametrize(
    "doctor, message",
    [(_kernel_vector_added, "not orthogonal"), (_column_scaled, "not a section")],
)
def test_a_doctored_complement_candidate_is_an_error(doctor, message):
    c = koszul_complex(random_space(instance_rng(1, 0), 3), 3)
    scaled = lambda_rescale(c, 3)
    doctored = 0
    for (_, ses), (_, twin) in zip(mu_decompose(c), mu_decompose(scaled)):
        if not (ses.sub.dim and ses.quot.dim):
            continue
        bad = doctor(ses._complement(), ses.inject.matrix.entries)
        for s in (ses, twin):
            fresh = ShortExactMetrized(s.inject, s.project, lambda: bad)
            with pytest.raises(AssertionError, match=message):
                is_hermitian_split(fresh)
        doctored += 1
    assert doctored


@pytest.mark.parametrize(
    "doctor, message",
    [(_kernel_vector_added, "not orthogonal"), (_column_scaled, "not a section")],
)
def test_doctored_sections_fail_the_norm_certificate(monkeypatch, doctor, message):
    v = standard_space(3)
    honest = koszul._Sections.__missing__

    def doctored(self, p):
        # a kernel vector of phi_p is a column of phi_{p-1}; the column
        # doctored is one that the image of phi_p reaches
        c = koszul_complex(v, self.k)
        col = next(i for i, row in enumerate(c.maps[p].matrix.entries) if any(row))
        m = self[p] = doctor(honest(self, p), c.maps[p - 1].matrix.entries, col)
        return m

    assert norm_ratio_all(v, 3, 1)
    monkeypatch.setattr(koszul._Sections, "__missing__", doctored)
    with pytest.raises(AssertionError, match=message):
        norm_ratio_all(v, 3, 1)
    with pytest.raises(AssertionError, match=message):
        norm_ratio(v, 3, 1, (1,) + (0,) * (_koszul_object(v, 3, 1).dim - 1))


def test_the_split_test_of_a_transform_complex_takes_no_nullspace(monkeypatch):
    calls = Counter()
    honest = la.nullspace

    def counted(a):
        calls["nullspace"] += 1
        return honest(a)

    monkeypatch.setattr(la, "nullspace", counted)
    v = random_space(instance_rng(1, 0), 3)
    c = koszul_complex(v, 4)
    scaled = lambda_rescale(c, 4)
    parts = mu_decompose(c) + mu_decompose(scaled)
    # the candidates are built only when the split test asks for them
    assert not c._sections
    assert [is_hermitian_split(s) for _, s in parts].count(False)
    assert len(c._sections) == len(c.maps)
    assert calls["nullspace"] == 0
    # the control: the same complex without its sections falls back to
    # one nullspace per sequence
    bare = koszul_complex(v, 4)
    bare._sections = None
    assert [is_hermitian_split(s) for _, s in mu_decompose(bare)]
    assert calls["nullspace"] == len(bare.maps)


def _norms_oracle(v: MetrizedSpace, k: int, p: int):
    """norm_ratio_all as it was before it read the section, the oracle:
    the orthogonal complement of ker phi_p by a nullspace, and the
    preimages by la.solve."""
    c = koszul_complex(v, k)
    f = c.maps[p]
    m = f.matrix.entries
    cols = la.transpose(orthogonal_complement(c.objects[p], f.kernel_basis()))
    u = la.matmul(cols, la.solve(la.matmul(m, cols), m))
    out = []
    for idx in range(c.objects[p].dim):
        w = tuple(row[idx] for row in m)
        if any(w):
            uvec = tuple(row[idx] for row in u)
            out.append((idx, c.objects[p + 1].norm_sq(w), c.objects[p].norm_sq(uvec)))
    return out


def test_norms_match_the_complement_oracle_on_random_metrics():
    rng = random.Random(61)
    for dim in (1, 2, 3):
        for v in (standard_space(dim), _random_space(rng, dim), SKEW):
            for k in (1, 2, 3):
                for p in range(k):
                    rows = norm_ratio_all(v, k, p)
                    assert rows == _norms_oracle(v, k, p)
                    for idx, i_sq, q_sq in rows:
                        e = tuple(int(i == idx) for i in range(_koszul_object(v, k, p).dim))
                        assert koszul_norms(v, k, p, e) == (i_sq, q_sq)
                        assert i_sq == k * q_sq


def test_an_image_outside_the_next_kernel_is_refused():
    # flagged acyclic unchecked: g f is not zero, so the image of f
    # misses ker g, and the coordinates read at its free column fail
    # the product check
    line, plane, end = (standard_space(d, tag=t) for d, t in ((1, "a"), (2, "b"), (1, "c")))
    f = SpaceMap(line, plane, ((F(1),), (F(0),)))
    g = SpaceMap(plane, end, ((F(1), F(0)),))
    c = HermitianComplex([line, plane, end], [f, g], acyclic=True, check=False)
    with pytest.raises(AssertionError, match="image must land in the next kernel"):
        mu_decompose(c)


def test_sum_isometry():
    rng = random.Random(43)
    pairs = [
        (standard_space(1), standard_space(1)),
        (standard_space(1), standard_space(2)),
        (standard_space(2), standard_space(1)),
        (SKEW, standard_space(1)),
        (_random_space(rng, 2), _random_space(rng, 1)),
    ]
    for v, w in pairs:
        for k in (1, 2, 3):
            assert koszul_sum_isometry(v, w, k)


def test_sum_isometry_rejects_doctored_candidate():
    v, w = standard_space(1), standard_space(2)
    # swapping the summands permutes labels the matching cannot find
    assert not koszul_sum_isometry(v, w, 2, rhs=koszul_sum_rhs(w, v, 2))


def _with_map(c: HermitianComplex, p: int, matrix: ScaledMatrix) -> HermitianComplex:
    """c with the matrix of map p replaced, unchecked."""
    maps = list(c.maps)
    maps[p] = SpaceMap(maps[p].domain, maps[p].codomain, matrix)
    return HermitianComplex(c.objects, maps, acyclic=c.acyclic, check=False)


def test_sum_isometry_rejects_a_negated_entry_and_a_changed_scale():
    # candidates that carry the matching labels, so the comparisons of
    # the maps decide
    rng = random.Random(59)
    v, w = standard_space(1), _random_space(rng, 2)
    for k in (2, 3):
        honest = koszul_sum_rhs(v, w, k)
        assert koszul_sum_isometry(v, w, k, rhs=honest)
        for p, f in enumerate(honest.maps):
            m = f.matrix
            rows = [list(row) for row in m.entries]
            r, c = next((r, c) for r, row in enumerate(rows) for c, x in enumerate(row) if x)
            rows[r][c] = -rows[r][c]
            negated = _with_map(honest, p, ScaledMatrix(la.mat(rows), m.scale_sq))
            assert not koszul_sum_isometry(v, w, k, rhs=negated)
            rescaled = _with_map(honest, p, ScaledMatrix(m.entries, 2 * m.scale_sq))
            assert not koszul_sum_isometry(v, w, k, rhs=rescaled)


def test_secondary_euler_rank_is_dimension():
    for dim in (1, 2, 3):
        v = standard_space(dim)
        for k in (1, 2, 3):
            s = secondary_euler(koszul_complex(v, k))
            assert s.rank() == dim
            for coeff, obj in s.items():
                assert isinstance(coeff, int)
                assert obj.dim > 0


def test_alternating_sums_vanish_on_exact_data():
    v = standard_space(2)
    c = koszul_complex(v, 3)
    assert alternating_object_sum(c).rank() == 0
    for _, ses in mu_decompose(lambda_rescale(c, 3)):
        assert ses_boundary(ses).rank() == 0


def test_formal_sum_drops_zero_terms_and_adds():
    v = standard_space(2)
    s = secondary_euler(koszul_complex(v, 2))
    assert (s - s).is_zero()
    assert s.scaled(3).rank() == 3 * s.rank()
    assert s + FormalObjectSum([(1, ZERO_SPACE)]) == s


def test_iterated_pair_identity():
    for va, wb in ((1, 1), (2, 1), (1, 2)):
        v, w = standard_space(va), standard_space(wb)
        for k in (2, 3):
            for i in range(1, k):
                b = koszul_iterated(v, w, i, k)
                assert secondary_euler_pair_identity(b, i, k)


def test_transposed_complex_is_exact_with_isometric_swaps():
    for dim in (1, 2):
        for k in (1, 2, 3):
            c, swaps = transposed_koszul(standard_space(dim), k)
            assert c.acyclic
            assert len(swaps) == k + 1
            assert all(s.is_isometry() for s in swaps)


def test_transposed_maps_conjugate_phi_by_the_swaps():
    rng = random.Random(59)
    for v in (standard_space(3), _random_space(rng, 2)):
        for k in (1, 2, 3):
            c, swaps = transposed_koszul(v, k)
            phi = koszul_complex(v, k).maps
            for p, f in enumerate(c.maps):
                # swap matrices are permutations: inverse = transpose
                inv = la.transpose(swaps[p].matrix.entries)
                want = la.matmul(la.matmul(swaps[p + 1].matrix.entries, phi[p].matrix.entries), inv)
                assert f.matrix.entries == want
                assert f.matrix.scale_sq == phi[p].matrix.scale_sq


def test_recursion_trace_witnesses():
    nodes = psicomp_tree(2)
    assert Counter(n.kind for n in nodes) == {"iso": 4, "ses": 2}
    assert {n.stage for n in nodes} == {"expand-sym m=2", "peel p=1"}
    for n in nodes:
        assert n.sign in (-1, 1)
        if n.kind == "iso":
            assert n.iso is not None and n.iso.is_isometry()
        else:
            assert isinstance(n.ses, ShortExactMetrized)


def test_recursion_trace_scales_to_higher_degree():
    nodes = psicomp_tree(3)
    kinds = Counter(n.kind for n in nodes)
    assert kinds["iso"] > 0 and kinds["ses"] > 0
    assert any(n.stage == "expand-sym m=3" for n in nodes)
    assert all(n.iso.is_isometry() for n in nodes if n.kind == "iso")


def test_recursion_trace_rejects_degree_zero():
    with pytest.raises(ValueError):
        psicomp_tree(0)
