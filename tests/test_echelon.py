"""EchelonBasis and the presentations built on it, against the
constructions they replaced.

Three generations of oracles are kept. The solve-based ones: span
membership by solving a linear system, presentation representatives
re-tested for being a basis of the quotient on a growing spanning list,
normal forms by scanning for each boundary pivot, and class coordinates
by one solve per vector. The Fraction EchelonBasis and
quotient_presentation, which held and reduced their rows in Fractions
before both moved to integer rows over a common denominator, and whose
coordinates come from an elimination of [reps | I]. Both pick as
representatives the cycle echelon rows whose pivots are not boundary
pivots. And the per-vector integer loops the two ran before their
methods took the vectors as the rows of a Mat. Every comparison is
exact equality, including which calls raise.

The methods under test take a Mat of row vectors; _one reads one
vector's answer back in the per-vector shape the older oracles give.
"""

from __future__ import annotations

import bisect
import functools
import random
from math import gcd
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hermk import _qkernels
from hermk import homology as hom
from hermk import linalg as la
from hermk.cli import SuiteConfig, run_suite
from hermk.homology import (
    cone,
    forms_modulo_exact,
    homology,
    modified_homology,
    modified_maps,
    quotient_presentation,
)
from hermk.instances import random_chain_map, random_complex, random_vector
from test_linalg import _block_diag, _canon_span

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


def _pivot(row):
    return next(i for i, x in enumerate(row) if x)


def oracle_reps(cycle_rows, boundary_rows, width):
    """The cycle RREF rows at the pivots that are not boundary pivots,
    reduced over the boundaries, after checking on a growing spanning
    list that they extend the boundaries to a basis of the cycles."""
    cycles = _canon_span(cycle_rows, width)
    boundaries = _canon_span(boundary_rows, width)
    for row in boundaries:
        if not oracle_in_span(cycles, row):
            raise ValueError("boundaries must lie inside cycles")
    bound = {_pivot(row) for row in boundaries}
    picked = [row for row in cycles if _pivot(row) not in bound]
    spanning = list(boundaries)
    for row in picked:
        assert not oracle_in_span(spanning, row), "representatives are dependent"
        spanning.append(row)
    assert all(oracle_in_span(spanning, row) for row in cycles), "representatives miss a class"
    q = SimpleNamespace(width=width, cycles=cycles, boundaries=boundaries)
    return tuple(oracle_normal_form(q, r) for r in picked)


class FractionEchelonBasis:
    """The EchelonBasis before integer rows: RREF rows of Fractions,
    reduced, grown and read in Fraction arithmetic."""

    def __init__(self, vectors, width):
        self.width = width
        self.rows, self.pivots = la.rref(la.stack(vectors, width))

    def reduce(self, v):
        if len(v) != self.width:
            raise ValueError("vector of the wrong length")
        out = list(v)
        for row, p in zip(self.rows, self.pivots):
            c = out[p]
            if c:
                for i in range(p, self.width):
                    if row[i]:
                        out[i] -= c * row[i]
        return tuple(out)

    def contains(self, v):
        return not any(self.reduce(v))

    def coords(self, v):
        if not self.contains(v):
            raise ValueError("vector is not in the span")
        return tuple(Fraction(v[p]) for p in self.pivots)

    def add(self, v):
        r = self.reduce(v)
        p = next((i for i, x in enumerate(r) if x), None)
        if p is None:
            return False
        inv = 1 / Fraction(r[p])
        new = tuple(x * inv for x in r)
        rows = []
        for row in self.rows:
            c = row[p]
            rows.append(tuple(x - c * y for x, y in zip(row, new)) if c else row)
        k = bisect.bisect(self.pivots, p)
        rows.insert(k, new)
        self.rows = tuple(rows)
        self.pivots = self.pivots[:k] + (p,) + self.pivots[k:]
        return True


class FractionPresentation:
    """PresentedQuotient before integer rows, on FractionEchelonBasis."""

    def __init__(self, cycles, boundaries, reps):
        self.cycles, self.boundaries, self.reps = cycles, boundaries, reps
        self.width, self.dim = cycles.width, len(reps)

    @functools.cached_property
    def _rep_transform(self):
        ident = la.identity(self.dim)
        return FractionEchelonBasis(
            [tuple(r) + e for r, e in zip(self.reps, ident)], self.width + self.dim
        )

    def normal_form(self, v):
        if not self.cycles.contains(v):
            raise ValueError("vector is not a cycle of this presentation")
        return self.boundaries.reduce(v)

    def coords(self, v):
        nf = self.normal_form(v)
        out = self._rep_transform.reduce(nf + (Fraction(0),) * self.dim)
        if any(out[: self.width]):
            raise ValueError("class does not lie in the quotient")
        return tuple(-x for x in out[self.width:])


def fraction_quotient_presentation(cycle_rows, boundary_rows, width):
    """quotient_presentation before integer rows: the boundary check by
    membership, the representatives picked at the cycle pivots that are
    not boundary pivots, and one reduction per representative, all in
    Fractions."""
    cycle_basis = FractionEchelonBasis(cycle_rows, width)
    boundary_basis = FractionEchelonBasis(boundary_rows, width)
    if not all(cycle_basis.contains(row) for row in boundary_basis.rows):
        raise ValueError("boundaries must lie inside cycles")
    bound = set(boundary_basis.pivots)
    reps = [r for r, p in zip(cycle_basis.rows, cycle_basis.pivots) if p not in bound]
    reduced = tuple(boundary_basis.reduce(r) for r in reps)
    return FractionPresentation(cycle_basis, boundary_basis, reduced)


def int_residue(basis, w):
    """den * w - sum_i w[pivots[i]] * R_i, for an integer vector w and R
    over den the integer form of basis.rows: the numerators of the
    reduction of w / d over den * d, whatever d is. The per-vector
    integer loop of EchelonBasis before its methods took Mats."""
    den = basis.rows.den
    out = [den * x for x in w]
    for row, p in zip(basis.rows.int_rows, basis.pivots):
        c = w[p]
        if c:
            out = [x - c * y for x, y in zip(out, row)]
    return out


def int_coords(basis, w):
    """The numerators of the coordinates of w / d over basis.rows, over
    d: w at the pivots; ValueError off the span."""
    if any(int_residue(basis, w)):
        raise ValueError("vector is not in the span")
    return [w[p] for p in basis.pivots]


def int_normal(q, w):
    """The numerators of the normal form of w / d in q over
    q.boundaries.rows.den * d; ValueError off the cycles."""
    if any(int_residue(q.cycles, w)):
        raise ValueError("vector is not a cycle of this presentation")
    return int_residue(q.boundaries, w)


def int_oracle(obj, name, vectors, width):
    """obj.name(vectors) assembled from the per-vector integer loops, one
    vector at a time, each cleared to its own least denominator: a bool
    for contains, the rows of reduce and normal_form, and the columns
    of coords."""
    rows = []
    for v in vectors:
        form = la.stack([v], width)
        w, d = form.int_rows[0], form.den
        if name == "contains":
            rows.append(not any(int_residue(obj, w)))
        elif name == "reduce":
            rows.append([Fraction(x, obj.rows.den * d) for x in int_residue(obj, w)])
        elif name == "normal_form":
            rows.append([Fraction(x, obj.boundaries.rows.den * d) for x in int_normal(obj, w)])
        elif name == "coords" and isinstance(obj, la.EchelonBasis):
            rows.append([Fraction(x, d) for x in int_coords(obj, w)])
        else:
            nf = int_normal(obj, w)
            rows.append([Fraction(nf[p], obj.boundaries.rows.den * d) for p in obj.pivots])
    if name == "contains":
        return all(rows)
    if name == "coords":
        height = len(obj.pivots)
        return la.transpose(la.Mat(tuple(map(tuple, rows)), height))
    return la.Mat(tuple(map(tuple, rows)), width)


def _one(obj, name, v):
    """obj.name([v]), read back in the per-vector shape: a bool, the one
    row of a reduction or normal form, or the one column of
    coordinates."""
    out = getattr(obj, name)([v])
    if name == "contains":
        return out
    if name == "coords":
        return tuple(row[0] for row in out)
    return out[0]


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


def _rational(rng):
    """An entry with denominator 1-7, either sign and a numerator up to
    10^6 in size; zero one time in eight."""
    if rng.random() < 0.125:
        return Fraction(0)
    return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 7))


def _rational_vectors(rng, width, count):
    """count rational vectors; some zero, some rational combinations of
    earlier ones."""
    out = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:
            out.append((Fraction(0),) * width)
        elif kind < 0.4 and out:
            out.append(_rational_combination(rng, out, width))
        else:
            out.append(tuple(_rational(rng) for _ in range(width)))
    return out


def _rational_combination(rng, rows, width):
    v = [Fraction(0)] * width
    for row in rows:
        c = _rational(rng)
        v = [x + c * y for x, y in zip(v, row)]
    return tuple(v)


def _integer_form_faults(b) -> list:
    """How the integer form of b's rows breaks its contract: over a
    positive den, primitive, den in every pivot, and the form Mat
    computes from the rows' Fractions."""
    bad = []
    rows = b.rows
    flat = [x for row in rows.int_rows for x in row]
    if type(rows.den) is not int or rows.den <= 0 or any(type(x) is not int for x in flat):
        bad.append("types")
    if gcd(rows.den, *flat) != 1:
        bad.append("not primitive")
    if any(row[p] != rows.den for row, p in zip(rows.int_rows, b.pivots)):
        bad.append("pivot")
    fresh = la.Mat(tuple(rows), rows.ncols)
    if (fresh.int_rows, fresh.den, fresh.ncols) != (rows.int_rows, rows.den, rows.ncols):
        bad.append("rows")
    return bad


def _rational_mismatches(seed: int, trials: int) -> list:
    """Every disagreement between EchelonBasis, quotient_presentation
    and their Fraction oracles on seeded random rational input (widths
    1-6), plus every broken integer form, including after each add."""
    rng = random.Random(seed)
    bad = []
    for t in range(trials):
        width = rng.randrange(1, 7)
        vecs = _rational_vectors(rng, width, rng.randrange(0, width + 2))
        basis, oracle = la.EchelonBasis(vecs, width), FractionEchelonBasis(vecs, width)
        if (basis.rows, basis.pivots) != (oracle.rows, oracle.pivots):
            bad.append((t, "rows", vecs))
        bad += [(t, fault, vecs) for fault in _integer_form_faults(basis)]
        probes = [_rational_combination(rng, vecs, width) for _ in range(2)]
        probes += _rational_vectors(rng, width, 2) + [(Fraction(0),) * width]
        for v in probes:
            for name in ("reduce", "contains", "coords"):
                got = _outcome(_one, basis, name, v)
                if got != _outcome(getattr(oracle, name), v):
                    bad.append((t, name, vecs, v))
        grown, ograwn = la.EchelonBasis.zero(width), FractionEchelonBasis((), width)
        for i, v in enumerate(vecs + probes):
            if grown.add(v) != ograwn.add(v):
                bad.append((t, "add", vecs, i))
            if (grown.rows, grown.pivots) != (ograwn.rows, ograwn.pivots):
                bad.append((t, "add rows", vecs, i))
            if (grown.rows, grown.pivots) != la.rref(la.mat((vecs + probes)[: i + 1])):
                bad.append((t, "add rref", vecs, i))
            bad += [(t, "add " + fault, vecs, i) for fault in _integer_form_faults(grown)]
        # a presentation: boundaries drawn from the cycles' span, now
        # and then one from outside it
        cycles = _rational_vectors(rng, width, rng.randrange(0, width + 2))
        bounds = [_rational_combination(rng, cycles, width) for _ in range(rng.randrange(0, 3))]
        if rng.random() < 0.15:
            bounds.append(tuple(_rational(rng) for _ in range(width)))
        got = _outcome(quotient_presentation, cycles, bounds, width)
        want = _outcome(fraction_quotient_presentation, cycles, bounds, width)
        if got[0] != want[0]:
            bad.append((t, "presentation raises", cycles, bounds))
            continue
        if got[0] == "raises":
            continue
        q, oq = got[1], want[1]
        for mine, theirs in ((q.cycles, oq.cycles), (q.boundaries, oq.boundaries)):
            if (mine.rows, mine.pivots) != (theirs.rows, theirs.pivots):
                bad.append((t, "presentation bases", cycles, bounds))
        if q.reps != oq.reps:
            bad.append((t, "reps", cycles, bounds))
        probes = [_rational_combination(rng, cycles, width) for _ in range(2)]
        probes += _rational_vectors(rng, width, 2) + list(q.reps) + bounds
        for v in probes:
            for name in ("normal_form", "coords"):
                if _outcome(_one, q, name, v) != _outcome(getattr(oq, name), v):
                    bad.append((t, name, cycles, bounds, v))
    return bad


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
            if la.in_span(vecs, v) != want or _one(basis, "contains", v) != want:
                bad.append((t, "contains", vecs, v))
            coords = oracle_coords_over(basis.rows, v)
            want_coords = ("raises", None) if coords is None else ("ok", coords)
            if _outcome(_one, basis, "coords", v) != want_coords:
                bad.append((t, "coords", vecs, v))
        u = _random_vectors(rng, width, rng.randrange(0, 4)) + [_combination(rng, vecs, width)]
        if basis.contains(u) != all(oracle_in_span(vecs, x) for x in u):
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


def _shaped_outcome(fn, *args):
    """_outcome, with the shape of a Mat answer: Mats without rows are
    equal whatever their widths."""
    got = _outcome(fn, *args)
    return got + (la.shape(got[1]),) if isinstance(got[1], la.Mat) else got


def _mat_method_mismatches(seed: int, trials: int, tally: dict | None = None) -> list:
    """Every disagreement between the Mat-taking contains, reduce and
    coords of EchelonBasis, and normal_form and coords of
    PresentedQuotient, and int_oracle, on seeded random spans and
    presentations of widths 0-5. Each call takes a block of 0-4
    rational vectors: members only, members and one random vector, and
    none. tally, when given, counts the widths, block sizes and
    outcomes seen (for contains, its answers)."""
    rng = random.Random(seed)
    tally = {} if tally is None else tally
    bad = []

    def compare(obj, names, block, width):
        for name in names:
            got = _shaped_outcome(getattr(obj, name), block)
            if got != _shaped_outcome(int_oracle, obj, name, block, width):
                bad.append((t, name, width, block))
            seen = got[1] if name == "contains" else got[0]
            for key in (("width", width), ("rows", len(block)), (name, seen)):
                tally[key] = tally.get(key, 0) + 1

    for t in range(trials):
        width = rng.randrange(0, 6)
        vecs = _rational_vectors(rng, width, rng.randrange(0, width + 2))
        basis = la.EchelonBasis(vecs, width)
        members = [_rational_combination(rng, vecs, width) for _ in range(rng.randrange(0, 4))]
        for block in (members, members + _rational_vectors(rng, width, 1), []):
            compare(basis, ("contains", "reduce", "coords"), block, width)
        bounds = [_rational_combination(rng, vecs, width) for _ in range(rng.randrange(0, 3))]
        made, q = _outcome(quotient_presentation, vecs, bounds, width)
        if made != "ok":
            bad.append((t, "presentation", width, vecs, bounds))
            continue
        cyc = [_rational_combination(rng, vecs, width) for _ in range(rng.randrange(0, 4))]
        for block in (cyc + bounds, cyc + _rational_vectors(rng, width, 1), []):
            compare(q, ("normal_form", "coords"), block, width)
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
        if _outcome(_one, q, "normal_form", v) != _outcome(oracle_normal_form, rows, v):
            bad.append(("normal_form", q, v))
        if _outcome(_one, q, "coords", v) != _outcome(oracle_coords, rows, v):
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


def test_integer_echelon_matches_fraction_oracle_on_rational_entries():
    assert _rational_mismatches(seed=83, trials=120) == []


def test_mat_methods_match_the_per_vector_integer_loops():
    tally = {}
    assert _mat_method_mismatches(seed=89, trials=150, tally=tally) == []
    # width 0, blocks without rows, and rows off the span, which coords
    # and normal_form refuse and contains and reduce answer
    assert tally[("width", 0)] >= 50 and tally[("rows", 0)] >= 300
    for name in ("coords", "normal_form"):
        assert tally[(name, "ok")] >= 100 and tally[(name, "raises")] >= 20, name
    assert tally[("contains", True)] >= 200 and tally[("contains", False)] >= 50
    assert tally[("reduce", "ok")] >= 300 and ("reduce", "raises") not in tally


def test_presentations_match_oracle_on_random_complexes():
    assert _homology_mismatches(seed=73, trials=12) == []


def test_degenerate_inputs_match_oracle():
    # width 0, empty bases, zero vectors and all-zero input rows
    empty = la.EchelonBasis((), 0)
    assert empty.rows == () and empty.pivots == ()
    assert empty.contains([()]) and _one(empty, "coords", ()) == ()
    assert la.shape(empty.coords([(), ()])) == (0, 2)
    assert not empty.add(())
    assert la.EchelonBasis([(), ()], 0).rows == ()
    zeros = [la.vec([0, 0, 0])] * 2
    b = la.EchelonBasis(zeros, 3)
    assert b.rows == () and b.contains([la.vec([0, 0, 0])])
    assert b.contains([la.vec([0, 1, 0])]) is oracle_in_span(zeros, la.vec([0, 1, 0])) is False
    assert la.in_span((), la.vec([0, 0])) is oracle_in_span((), la.vec([0, 0])) is True
    assert la.in_span((), la.vec([1, 0])) is oracle_in_span((), la.vec([1, 0])) is False
    # containment in the zero span
    assert la.EchelonBasis((), 3).contains(zeros)
    assert not la.EchelonBasis((), 3).contains([la.vec([0, 0, 1])])
    q = quotient_presentation((), (), 0)
    assert q.dim == 0 and _one(q, "coords", ()) == oracle_coords(_rows_view(q), ()) == ()
    q = quotient_presentation(zeros, zeros, 3)
    assert q.reps == oracle_reps(zeros, zeros, 3) == ()
    assert q.normal_form([la.vec([0, 0, 0])]) == ((0, 0, 0),)


def test_zero_and_repeated_residues_match_oracle():
    """The representatives are the cycle echelon rows at the pivots that
    are not boundary pivots, whatever the residues of the cycle rows
    over the boundaries: zero, repeated, or another vector of the class
    (which a pick over the residues would have taken)."""
    f = Fraction
    cases = [
        # e0 reduces to -e1 and e1 to itself: the rep is e1, not -e1
        (la.identity(2), [(1, 1)], 2, ((0, 1),)),
        # e0 and e1 both reduce to e1, e2 to zero and e3 to itself
        (la.identity(4), [(1, -1, 0, 0), (0, 0, 1, 0)], 4, ((0, 1, 0, 0), (0, 0, 0, 1))),
        # rational boundaries: e0 reduces to (0, 0, -4/15), the rep is e2
        (la.identity(3), [(f(1, 2), f(-1, 3), 0), (0, 1, f(2, 5))], 3, ((0, 0, 1),)),
        # rational cycles: the rep is the second cycle echelon row
        ([(2, 1, f(1, 3)), (0, 3, 1)], [(2, 4, f(4, 3))], 3, ((0, 1, f(1, 3)),)),
        ([(1, 1, 0), (0, 0, 1)], [(0, 0, f(3, 7))], 3, ((1, 1, 0),)),
        # B = 0: every cycle echelon row
        ([(1, 2, 0), (0, 3, 3)], [], 3, ((1, 0, -2), (0, 1, 1))),
        # B = Z: every residue zero
        (la.identity(2), [(1, 0), (0, 1)], 2, ()),
        ([(1, 1, 0), (0, 0, 1)], [(1, 1, 1), (0, 0, 2)], 3, ()),
    ]
    for cycles, boundaries, width, want in cases:
        q = quotient_presentation(cycles, boundaries, width)
        oracle = fraction_quotient_presentation(cycles, boundaries, width)
        assert q.reps == oracle.reps == oracle_reps(cycles, boundaries, width), cycles
        assert q.reps == tuple(map(la.vec, want)), (cycles, boundaries)
        assert q.dim == len(want)
        for v in list(q.cycles.rows) + list(q.boundaries.rows) + list(q.reps):
            assert _one(q, "coords", v) == oracle.coords(v) == oracle_coords(_rows_view(q), v)


# -- negative controls ---------------------------------------------------


def test_non_cycles_raise():
    q = quotient_presentation(((1, 0, 0), (0, 1, 1)), ((0, 1, 1),), 3)
    assert q.dim == 1
    assert q.coords([(2, 3, 3)]) == ((2,),)
    for v in ((0, 0, 1), (1, 1, 0)):
        # alone, and after a cycle: one row off the cycles fails the call
        for rows in ([v], [(2, 3, 3), v]):
            with pytest.raises(ValueError):
                q.normal_form(rows)
            with pytest.raises(ValueError):
                q.coords(rows)
    with pytest.raises(ValueError):
        la.EchelonBasis([(1, 0)], 2).coords([(0, 1)])


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
    monkeypatch.setattr(la.EchelonBasis, "contains", lambda self, vectors: True)
    assert _span_mismatches(seed=71, trials=40)
    # presentations test membership through contains as well
    assert _homology_mismatches(seed=73, trials=3)


def _doctored_residue(scale_by_den: bool, den_sign: int):
    """EchelonBasis._residues with one fault: the vectors left unscaled
    by the basis denominator, or that denominator's sign flipped."""

    def residues(self, m):
        den = den_sign * self.rows.den
        out = []
        for w in m.int_rows:
            r = [den * x for x in w] if scale_by_den else list(w)
            for row, p in zip(self.rows.int_rows, self.pivots):
                c = w[p]
                if c:
                    r = [x - c * y for x, y in zip(r, row)]
            out.append(r)
        return out

    return residues


@pytest.mark.parametrize(
    "scale_by_den, den_sign", [(False, 1), (True, -1)], ids=["unscaled", "sign-flipped"]
)
def test_oracle_comparison_catches_a_doctored_integer_reduce(monkeypatch, scale_by_den, den_sign):
    monkeypatch.setattr(la.EchelonBasis, "_residues", _doctored_residue(scale_by_den, den_sign))
    assert _rational_mismatches(seed=83, trials=40)
    assert _mat_method_mismatches(seed=89, trials=40)


def test_doctored_residue_is_honest_when_undoctored(monkeypatch):
    # the doctoring above differs from the real _residues in its fault only
    monkeypatch.setattr(la.EchelonBasis, "_residues", _doctored_residue(True, 1))
    assert _rational_mismatches(seed=83, trials=40) == []
    assert _mat_method_mismatches(seed=89, trials=40) == []


def test_oracle_comparison_catches_a_kept_boundary_pivot(monkeypatch):
    honest = hom.quotient_presentation

    def doctored(cycle_rows, boundary_rows, width):
        # one boundary pivot kept among the presentation's pivots: its
        # cycle row joins the reps, though its class is a combination
        # of theirs
        q = honest(cycle_rows, boundary_rows, width)
        if q.boundaries.pivots:
            q.__dict__["pivots"] = tuple(sorted(q.pivots + q.boundaries.pivots[:1]))
        return q

    monkeypatch.setattr(hom, "quotient_presentation", doctored)
    assert _homology_mismatches(seed=73, trials=3)
    report = run_suite(SuiteConfig("modified-homology", seed=1))
    assert any(not c.ok for c in report.checks)


# -- kernels from one elimination ------------------------------------------


def _same_basis(p, q) -> bool:
    a, b = p.rows, q.rows
    return (a.ncols, a.int_rows, a.den, p.pivots) == (b.ncols, b.int_rows, b.den, q.pivots)


def _kernel_faults(a) -> list:
    """How EchelonBasis.kernel(a) differs from the echelon basis of the
    canonical nullspace, plus how its integer form breaks its contract."""
    got = la.EchelonBasis.kernel(a)
    bad = [(a, f) for f in _integer_form_faults(got)]
    if not _same_basis(got, la.EchelonBasis(la.nullspace(a), a.ncols)):
        bad.append((a, "kernel"))
    return bad


def _rational_matrices(seed: int, count: int):
    """Seeded rational matrices of 0-5 rows and width 0-6: one in ten
    all zero, the others rows from _rational_vectors (zero rows and
    combinations of earlier rows among them)."""
    rng = random.Random(seed)
    for _ in range(count):
        width, height = rng.randrange(0, 7), rng.randrange(0, 6)
        if rng.random() < 0.1:
            rows = [(Fraction(0),) * width] * height
        else:
            rows = _rational_vectors(rng, width, height)
        yield la.stack(rows, width)


def test_kernel_basis_matches_the_nullspace_oracle_on_rational_matrices():
    mats = list(_rational_matrices(163, 320))
    # the degenerate shapes are all there
    assert sum(not a for a in mats) >= 10
    assert sum(not a.ncols for a in mats) >= 10
    assert sum(bool(a) and a.ncols and la.is_zero(a) for a in mats) >= 10
    assert sum(any(not any(row) for row in a) and not la.is_zero(a) for a in mats) >= 10
    assert sum(0 < la.rank(a) < a.ncols for a in mats) >= 100
    bad = [x for a in mats for x in _kernel_faults(a)]
    assert bad == []


def _rref_nullspace(a: la.Mat) -> la.Mat:
    """The canonical nullspace read off the Fraction RREF: for each free
    column f, 1 there and minus the RREF rows' entries at f at their
    pivots."""
    rows, pivots = la.rref(a)
    out = []
    for f in (f for f in range(a.ncols) if f not in pivots):
        v = [Fraction(0)] * a.ncols
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        out.append(tuple(v))
    return la.Mat(tuple(out), a.ncols)


def test_nullspace_is_the_rref_basis_and_both_kernels_share_one_loop(monkeypatch):
    mats = list(_rational_matrices(191, 200))
    for a in mats:
        got = la.nullspace(a)
        assert got == _rref_nullspace(a) and la.shape(got) == (a.ncols - la.rank(a), a.ncols)
    calls = []
    loop = la._kernel_int

    def spy(a, reverse):
        calls.append(reverse)
        return loop(a, reverse)

    monkeypatch.setattr(la, "_kernel_int", spy)
    a = mats[0]
    la.nullspace_free(a)
    la.EchelonBasis.kernel(a)
    assert calls == [False, True]


def test_kernel_basis_matches_the_nullspace_oracle_on_complexes():
    rng = random.Random(167)
    count = 0
    for _ in range(16):
        a = random_complex(rng, 4, 4)
        b = random_complex(rng, 4, 4)
        for c in (a, b, cone(random_chain_map(rng, a, b))):
            degrees = sorted(c.dims) or [0]
            for n in range(degrees[0] - 1, degrees[-1] + 2):
                assert _kernel_faults(c.diff(n)) == []
                count += 1
    assert count > 200


def test_presentation_cycles_equal_their_nullspace_oracles():
    rng = random.Random(173)
    seen = 0
    for _ in range(30):
        a = random_complex(rng, 4, 4)
        b = random_complex(rng, 4, 4)
        f = random_chain_map(rng, a, b)
        degrees = sorted(set(a.dims) | set(b.dims)) or [0]
        for n in range(degrees[0] - 1, degrees[-1] + 2):
            wa, wb = a.dim(n), b.dim(n + 1)
            # the cycles of the modified presentation: block_diag(nullspace, I)
            oracle = _block_diag(la.nullspace(a.diff(n)), la.identity(wb))
            want = la.EchelonBasis(oracle, wa + wb)
            assert _same_basis(modified_homology(f, n).cycles, want)
            # and of C_n / im d: all of C_n
            want = la.EchelonBasis(la.identity(b.dim(n)), b.dim(n))
            assert _same_basis(forms_modulo_exact(b, n).cycles, want)
            if wa and wb:
                seen += 1
    assert seen > 10


def test_kernel_basis_of_a_zero_matrix_needs_no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("elimination of a zero matrix")

    monkeypatch.setattr(_qkernels, "_bareiss", refuse)
    for r, c in ((0, 0), (0, 3), (2, 0), (2, 3)):
        k = la.EchelonBasis.kernel(la.zeros(r, c))
        assert k.rows == la.identity(c) and k.rows.ncols == c
        assert k.rows.den == 1 and k.pivots == tuple(range(c))
    with pytest.raises(AssertionError):
        la.EchelonBasis.kernel(la.mat([[1, 2]]))


def test_quotient_presentation_takes_a_ready_cycle_basis():
    cycles = la.EchelonBasis([(1, 0, 0), (0, 1, 1)], 3)
    q = quotient_presentation(cycles, [(1, 1, 1)], 3)
    assert q.cycles is cycles
    p = quotient_presentation(cycles.rows, [(1, 1, 1)], 3)
    assert _same_basis(q.cycles, p.cycles) and _same_basis(q.boundaries, p.boundaries)
    with pytest.raises(ValueError):
        quotient_presentation(cycles, (), 4)
    with pytest.raises(ValueError):
        quotient_presentation(cycles, [(0, 0, 1)], 3)


def test_float_entries_raise_type_error():
    b = la.EchelonBasis([(1, 2, 0), (0, 1, 1)], 3)
    rows = b.rows
    for method in (b.reduce, b.contains, b.coords):
        with pytest.raises(TypeError):
            method([(1, 2, 0), (0.5, 1, 0)])
    with pytest.raises(TypeError):
        b.add((0.5, 1, 0))
    assert b.rows is rows
    for v in ((0.5, 0), (0.0, 0)):
        with pytest.raises(TypeError):
            la.in_span([(1, 0)], v)
    q = quotient_presentation([(1, 0), (0, 1)], [(1, 0)], 2)
    for method in (q.normal_form, q.coords):
        with pytest.raises(TypeError):
            method([(0.5, 0.25)])
    # Mat itself refuses them, as mat, stack and vec do
    for rows in ([[0.5, 1]], [[1, 2], [3, 0.0]]):
        with pytest.raises(TypeError):
            la.Mat(rows, 2)
        with pytest.raises(TypeError):
            la.stack(rows, 2)
    # exact entries of every accepted kind still work
    assert q.coords([(Fraction(1, 2), 3)]) == ((3,),)
    assert b.coords([(1, Fraction(5, 2), Fraction(1, 2))]) == ((1,), (Fraction(5, 2),))
    assert la.Mat([[Fraction(1, 2), 1]], 2) == ((Fraction(1, 2), 1),)
