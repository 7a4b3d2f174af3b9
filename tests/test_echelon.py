"""EchelonBasis and the presentations built on it, against the
solve-based constructions they replaced.

The oracles below are the previous implementations, kept verbatim in
spirit: span membership by solving a linear system, presentation
representatives by re-testing membership on a growing spanning list,
normal forms by scanning for each boundary pivot, and class
coordinates by one solve per vector. Every comparison is exact
equality, including which calls raise.
"""

from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hermk import linalg as la
from hermk.homology import (
    PresentedQuotient,
    homology,
    modified_homology,
    modified_maps,
    quotient_presentation,
)
from hermk.instances import random_chain_map, random_complex, random_vector
from test_linalg import _canon_span

# -- oracles -------------------------------------------------------------


def oracle_in_span(vectors, v) -> bool:
    if not any(v):
        return True
    if not vectors:
        return False
    return la.solve_vec(la.transpose(la.mat(vectors)), v) is not None


def _rows_view(q):
    """q with its two echelon bases replaced by their rows, the form the
    oracles below read."""
    return SimpleNamespace(
        width=q.width, cycles=q.cycles.rows, boundaries=q.boundaries.rows, reps=q.reps
    )


def oracle_normal_form(q, v):
    if not oracle_in_span(q.cycles, v):
        raise ValueError("vector is not a cycle of this presentation")
    out = list(v)
    for row in q.boundaries:
        pivot = next(i for i, x in enumerate(row) if x)
        c = out[pivot]
        if c:
            for i in range(q.width):
                out[i] -= c * row[i]
    return tuple(out)


def oracle_coords(q, v):
    nf = oracle_normal_form(q, v)
    if not q.reps:
        if any(nf):
            raise ValueError("nonzero class in a zero quotient")
        return ()
    rows = la.mat([oracle_normal_form(q, r) for r in q.reps])
    out = la.solve_vec(la.transpose(rows), nf)
    if out is None:
        raise ValueError("class does not lie in the quotient")
    return out


def oracle_reps(cycle_rows, boundary_rows, width):
    cycles = _canon_span(cycle_rows, width)
    boundaries = _canon_span(boundary_rows, width)
    for row in boundaries:
        if not oracle_in_span(cycles, row):
            raise ValueError("boundaries must lie inside cycles")
    spanning = list(boundaries)
    picked = []
    for row in cycles:
        if not oracle_in_span(spanning, row):
            spanning.append(row)
            picked.append(row)
    q = SimpleNamespace(width=width, cycles=cycles, boundaries=boundaries)
    return tuple(oracle_normal_form(q, r) for r in picked)


def oracle_coords_over(basis_rows, v):
    """Coefficients of v over independent rows, or None."""
    if not basis_rows:
        return () if not any(v) else None
    return la.solve_vec(la.transpose(la.mat(basis_rows)), v)


# -- helpers -------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ValueError:
        return ("raises", None)


def _random_vectors(rng, width, count):
    """count vectors of the given width; some zero, some combinations
    of earlier ones, so that both membership outcomes are common."""
    out = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15 or width == 0:
            out.append(tuple(Fraction(0) for _ in range(width)))
        elif kind < 0.4 and out:
            out.append(_combination(rng, out, width))
        else:
            out.append(random_vector(rng, width))
    return out


def _combination(rng, rows, width):
    v = [Fraction(0)] * width
    for row in rows:
        c = rng.randrange(-2, 3)
        if c:
            v = [x + c * y for x, y in zip(v, row)]
    return tuple(v)


def _probes(rng, rows, width):
    """Vectors to test against span(rows): zero, members, random."""
    probes = [tuple(Fraction(0) for _ in range(width))]
    probes += [_combination(rng, rows, width) for _ in range(2)]
    probes += [random_vector(rng, width) for _ in range(2)]
    return probes


def _span_mismatches(seed: int, trials: int) -> list:
    """Every disagreement between the span functions and the oracles on
    seeded random inputs (widths 0-5, 0-5 vectors, zero rows included)."""
    rng = random.Random(seed)
    bad = []
    for t in range(trials):
        width = rng.randrange(0, 6)
        vecs = _random_vectors(rng, width, rng.randrange(0, 6))
        basis = la.EchelonBasis(vecs, width)
        for v in _probes(rng, vecs, width):
            want = oracle_in_span(vecs, v)
            if la.in_span(vecs, v) != want or basis.contains(v) != want:
                bad.append((t, "contains", vecs, v))
            coords = oracle_coords_over(basis.rows, v)
            want_coords = ("raises", None) if coords is None else ("ok", coords)
            if _outcome(basis.coords, v) != want_coords:
                bad.append((t, "coords", vecs, v))
        u = _random_vectors(rng, width, rng.randrange(0, 4)) + [_combination(rng, vecs, width)]
        if all(basis.contains(x) for x in u) != all(oracle_in_span(vecs, x) for x in u):
            bad.append((t, "containment", u, vecs))
        grown = la.EchelonBasis((), width)
        for i, v in enumerate(vecs):
            before = (grown.rows, grown.pivots)
            grew = grown.add(v)
            if grew != (not oracle_in_span(vecs[:i], v)):
                bad.append((t, "add", vecs, i))
            if not grew and (grown.rows, grown.pivots) != before:
                bad.append((t, "add changed rows", vecs, i))
            if (grown.rows, grown.pivots) != la.rref(la.mat(vecs[: i + 1])):
                bad.append((t, "add rows", vecs, i))
    return bad


def _presentation_mismatches(q, rng) -> list:
    """Disagreements of one presentation with the oracles: its reps,
    and normal_form/coords on cycles and on random vectors."""
    bad = []
    rows = _rows_view(q)
    if q.reps != oracle_reps(rows.cycles, rows.boundaries, q.width):
        bad.append(("reps", q))
    cyc = [_combination(rng, rows.cycles, q.width) for _ in range(3)]
    probes = cyc + [random_vector(rng, q.width) for _ in range(2)]
    probes += [tuple(Fraction(0) for _ in range(q.width))]
    probes += list(q.reps) + list(rows.boundaries)
    for v in probes:
        if _outcome(q.normal_form, v) != _outcome(oracle_normal_form, rows, v):
            bad.append(("normal_form", q, v))
        if _outcome(q.coords, v) != _outcome(oracle_coords, rows, v):
            bad.append(("coords", q, v))
    return bad


def _homology_mismatches(seed: int, trials: int) -> list:
    """Disagreements on the presentations of random complexes and chain
    maps: homology, modified homology, and the coordinates over the
    cycles of the target that modified_maps finds."""
    rng = random.Random(seed)
    bad = []
    for _ in range(trials):
        a = random_complex(rng, 4, 4)
        b = random_complex(rng, 4, 4)
        f = random_chain_map(rng, a, b)
        degrees = sorted(set(a.dims) | set(b.dims)) or [0]
        for n in range(degrees[0] - 1, degrees[-1] + 2):
            bad += _presentation_mismatches(homology(a, n), rng)
            bad += _presentation_mismatches(modified_homology(f, n), rng)
            mm = modified_maps(f, n)
            wa = a.dim(n)
            for j, rep in enumerate(mm.hat.reps):
                val = la.add_vec(
                    la.matvec(f.map_at(n), rep[:wa]),
                    la.scale_vec(la.matvec(b.diff(n + 1), rep[wa:]), -1),
                )
                col = tuple(row[j] for row in mm.to_form_cycle)
                if col != oracle_coords_over(mm.cycles_b, val):
                    bad.append(("modified_maps", n, j))
    return bad


# -- oracle comparisons --------------------------------------------------


def test_span_functions_match_solve_oracle():
    assert _span_mismatches(seed=71, trials=150) == []


def test_presentations_match_oracle_on_random_complexes():
    assert _homology_mismatches(seed=73, trials=12) == []


def test_degenerate_inputs_match_oracle():
    # width 0, empty bases, zero vectors and all-zero input rows
    empty = la.EchelonBasis((), 0)
    assert empty.rows == () and empty.pivots == ()
    assert empty.contains(()) and empty.coords(()) == ()
    assert not empty.add(())
    assert la.EchelonBasis([(), ()], 0).rows == ()
    zeros = [la.vec([0, 0, 0])] * 2
    b = la.EchelonBasis(zeros, 3)
    assert b.rows == () and b.contains(la.vec([0, 0, 0]))
    assert b.contains(la.vec([0, 1, 0])) is oracle_in_span(zeros, la.vec([0, 1, 0])) is False
    assert la.in_span((), la.vec([0, 0])) is oracle_in_span((), la.vec([0, 0])) is True
    assert la.in_span((), la.vec([1, 0])) is oracle_in_span((), la.vec([1, 0])) is False
    # containment in the zero span
    assert all(la.EchelonBasis((), 3).contains(v) for v in zeros)
    assert not la.EchelonBasis((), 3).contains(la.vec([0, 0, 1]))
    q = quotient_presentation((), (), 0)
    assert q.dim == 0 and q.coords(()) == oracle_coords(_rows_view(q), ()) == ()
    q = quotient_presentation(zeros, zeros, 3)
    assert q.reps == oracle_reps(zeros, zeros, 3) == ()
    assert q.normal_form(la.vec([0, 0, 0])) == (0, 0, 0)


# -- negative controls ---------------------------------------------------


def test_non_cycles_raise():
    q = quotient_presentation(((1, 0, 0), (0, 1, 1)), ((0, 1, 1),), 3)
    assert q.dim == 1
    assert q.coords((2, 3, 3)) == (2,)
    for v in ((0, 0, 1), (1, 1, 0)):
        with pytest.raises(ValueError):
            q.normal_form(v)
        with pytest.raises(ValueError):
            q.coords(v)
    with pytest.raises(ValueError):
        la.EchelonBasis([(1, 0)], 2).coords((0, 1))
    # a cycle outside the span of the reps can only come from a
    # presentation built by hand; coords still refuses it
    short = PresentedQuotient(
        la.EchelonBasis(la.identity(2), 2), la.EchelonBasis((), 2), ((1, 0),)
    )
    assert _outcome(short.coords, (0, 1)) == _outcome(oracle_coords, _rows_view(short), (0, 1))
    with pytest.raises(ValueError):
        short.coords((0, 1))


def test_add_of_member_changes_nothing():
    b = la.EchelonBasis([(1, 2, 0), (0, 1, 1)], 3)
    rows, pivots = b.rows, b.pivots
    assert not b.add((2, 5, 1))
    assert b.rows is rows and b.pivots is pivots
    assert b.add((0, 0, 5))
    assert b.rows == la.identity(3) and b.pivots == (0, 1, 2)


def test_boundary_outside_cycles_raises():
    rng = random.Random(79)
    for _ in range(10):
        width = rng.randrange(2, 6)
        cycles = [random_vector(rng, width) for _ in range(width - 1)]
        outside = random_vector(rng, width)
        if oracle_in_span(cycles, outside):
            continue
        with pytest.raises(ValueError):
            quotient_presentation(cycles, [outside], width)


def test_oracle_comparison_catches_an_always_yes_checker(monkeypatch):
    monkeypatch.setattr(la.EchelonBasis, "contains", lambda self, v: True)
    assert _span_mismatches(seed=71, trials=40)
    assert _homology_mismatches(seed=73, trials=3)
