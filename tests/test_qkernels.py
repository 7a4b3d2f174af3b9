"""The fraction-free kernels against fixed values and a Fraction oracle.

Fixed expected values below are hand-computed (cofactor and Ryser
expansions) and cross-checked with sympy. The oracle is plain Fraction
Gaussian elimination, the reference the fraction-free kernels replaced.
The kernels take integer rows (here a matrix's rows over the lcm of
its denominators, oracle_form) and hand back integers: matmul's rows
over the product of the factors' dens, and rref's rows over its
positive int den, must equal the oracle exactly; det and permanent are
ints, the oracle's value times den^n, and the rank kernel must agree
with the oracle's pivot count. The Fractions and Mats hermk.linalg
builds from those integers must equal the oracle, entry types
included. Then comes the integer form a Mat is: every Mat linalg hands
out holds the oracle's form, and no Fraction is built before an entry
is read. Last come the one elimination loop, _bareiss (its pivot
columns against an in-order prefix-rank oracle, and which of its forms
each caller runs), and the boundary that keeps linalg the kernels'
only caller and the only writer of a Mat's form.
"""

from __future__ import annotations

import ast
import copy
import pathlib
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest

from hermk import _qkernels, koszul
from hermk import linalg as la
from hermk.core import MetrizedSpace
from hermk.homology import PresentedQuotient, quotient_presentation
from hermk.multilinear import power_tower

INT_M = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
FRAC_M = [
    [Fraction(1, 2), Fraction(1, 3)],
    [Fraction(1, 4), Fraction(1, 5)],
]


def test_det_fixed():
    assert _qkernels.det(INT_M) == -3
    # FRAC_M is [[30, 20], [15, 12]] over 60: det 60 = 1/60 * 60^2
    assert _qkernels.det(oracle_form(FRAC_M)[0]) == 60
    assert la.det(la.mat(FRAC_M)) == Fraction(1, 60)
    f = Fraction
    odd = [[0, 2, 0], [3, 0, 0], [0, 0, 1]]
    even = [[0, 2, 0], [0, 0, f(1, 2)], [3, 0, 0]]
    # exchanges before a zero column in the middle, full rank after it
    zero_col = [[0, 1, 0, 2], [1, 0, 0, 3], [4, 5, 0, 6], [7, 8, 0, f(9, 7)]]
    assert (_swaps(odd), _swaps(even)) == (1, 2) and _swaps(zero_col) >= 1
    assert _qkernels.rank(oracle_form(zero_col)[0]) == 3
    for m, value in ((odd, -6), (even, 3), (zero_col, 0), ([[1, 0, 2], [3, 0, 4], [5, 0, 6]], 0)):
        rows, den = oracle_form(m)
        assert _qkernels.det(rows) == value * den ** len(m)
        assert _same(la.det(la.mat(m)), oracle_det(m)) and la.det(la.mat(m)) == value


def _swaps(m) -> int:
    """The number of row exchanges of the forward elimination of m."""
    return _qkernels._bareiss(list(oracle_form(m)[0]), False)[2]


def test_permanent_fixed():
    assert _qkernels.permanent(INT_M) == 463
    # over 60: 30 * 12 + 20 * 15 = 660 = 11/60 * 60^2
    assert _qkernels.permanent(oracle_form(FRAC_M)[0]) == 660
    assert la.permanent(la.mat(FRAC_M)) == Fraction(11, 60)


def _over(rows, den):
    """Integer rows over den as lists of Fractions."""
    return [[Fraction(x, den) for x in row] for row in rows]


def test_rref_fixed():
    rows, den, pivots = _qkernels.rref([[2, 4, 1, 3], [1, 2, 0, 1], [3, 6, 2, 5]])
    assert _over(rows, den) == [
        [1, 2, 0, 1],
        [0, 0, 1, 1],
    ]
    assert list(pivots) == [0, 2]
    # the Mat linalg builds from them, over the least denominator
    m, mpivots = la.rref(la.mat([[2, 4, 1, 3], [1, 2, 0, 1], [3, 6, 2, 5]]))
    assert m == ((1, 2, 0, 1), (0, 0, 1, 1)) and mpivots == (0, 2)
    assert form_of(m) == (((1, 2, 0, 1), (0, 0, 1, 1)), 1)


def test_rref_int_fixed():
    assert _qkernels.rref([[2, 4, 1, 3], [1, 2, 0, 1], [3, 6, 2, 5]]) == (
        [[1, 2, 0, 1], [0, 0, 1, 1]],
        1,
        [0, 2],
    )
    # a negative last pivot (-3, then -2) is made positive with its rows
    assert _qkernels.rref([[0, -3]]) == ([[0, 3]], 3, [1])
    assert _qkernels.rref([[1, 1], [1, -1]]) == ([[2, 0], [0, 2]], 2, [0, 1])
    assert _qkernels.rref([[0, 0], [0, 0]]) == ([], 1, [])


def test_matmul_fixed():
    assert _qkernels.matmul([[1, 2], [3, 4], [5, 6]], [[1, 0, 2], [0, 1, 3]]) == [
        [1, 2, 8],
        [3, 4, 18],
        [5, 6, 28],
    ]
    # 1/2 * 2/3 + 1/6 * 1 = 9 / 18: the integer rows (3, 1) over 6 and
    # (2, 3) over 3 give 9 over the product of the dens, and the Mat's
    # form is over the least denominator, 2
    a, b = [[Fraction(1, 2), Fraction(1, 6)]], [[Fraction(2, 3)], [1]]
    assert (oracle_form(a), oracle_form(b)) == ((((3, 1),), 6), (((2,), (3,)), 3))
    assert _qkernels.matmul(oracle_form(a)[0], oracle_form(b)[0]) == [[9]]
    m = la.matmul(la.mat(a), la.mat(b))
    assert m == ((Fraction(1, 2),),) and form_of(m) == (((1,),), 2)


# -- oracle: plain Fraction Gaussian elimination ----------------------


def oracle_matmul(a, b):
    m = len(b)
    if len(a[0]) != m:
        raise ValueError("matmul shape mismatch")
    cols = range(len(b[0]))
    out = []
    for row in a:
        acc = [Fraction(0)] * len(b[0])
        for k in range(m):
            x = row[k]
            if x:
                brow = b[k]
                for j in cols:
                    if brow[j]:
                        acc[j] += x * brow[j]
        out.append(acc)
    return out


def oracle_rref(a):
    rows = [[Fraction(x) for x in row] for row in a]
    nr, nc = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(nc):
        p = next((i for i in range(r, nr) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                piv = rows[r]
                rows[i] = [x - f * y for x, y in zip(rows[i], piv)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows[:r], pivots


def oracle_det(a):
    n = len(a)
    rows = [[Fraction(x) for x in row] for row in a]
    sign = 1
    d = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            sign = -sign
        piv = rows[c][c]
        d *= piv
        inv = 1 / piv
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d if sign > 0 else -d


def oracle_form(a):
    """a's integer rows over the lcm of its entry denominators."""
    den = lcm(*(Fraction(x).denominator for row in a for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in a), den


def form_of(m):
    """The integer form a Mat holds."""
    return m.int_rows, m.den


def oracle_permanent(a):
    n = len(a)
    total = Fraction(0)
    sums = [Fraction(0)] * n
    prev = 0
    npar = n & 1
    for g in range(1, 1 << n):
        gray = g ^ (g >> 1)
        bit = gray ^ prev
        j = bit.bit_length() - 1
        if gray & bit:
            for i in range(n):
                sums[i] += a[i][j]
        else:
            for i in range(n):
                sums[i] -= a[i][j]
        prev = gray
        prod = Fraction(1)
        for s in sums:
            if not s:
                prod = Fraction(0)
                break
            prod *= s
        if prod:
            if (gray.bit_count() & 1) == npar:
                total += prod
            else:
                total -= prod
    return total


# -- seeded cases ------------------------------------------------------

INT_ONLY = (1,)
MIXED = (1, 1, 2, 3, 4, 7)
# 0, a sign, and scalars whose denominators can cancel against MIXED's
SCALARS = (Fraction(0), Fraction(-1), Fraction(3, 2), Fraction(-2, 7))


def _entry(rng, dens):
    x = rng.randrange(-6, 7)
    return x if dens == INT_ONLY else Fraction(x, rng.choice(dens))


def _matrix(rng, r, c, dens):
    return [[_entry(rng, dens) for _ in range(c)] for _ in range(r)]


def _degrade(rng, m):
    """Zero a row half the time; with three or more rows, also replace
    one row by a combination of two others."""
    rows = [list(row) for row in m]
    if len(rows) > 1 and rng.random() < 0.5:
        rows[rng.randrange(len(rows))] = [0] * len(rows[0])
    if len(rows) > 2:
        i, j, k = rng.sample(range(len(rows)), 3)
        s = rng.randrange(-3, 4)
        rows[k] = [x + s * y for x, y in zip(rows[i], rows[j])]
    return rows


def _low_rank(rng, r, c, dens):
    k = rng.randrange(1, min(r, c) + 1)
    return oracle_matmul(_matrix(rng, r, k, dens), _matrix(rng, k, c, dens))


def _sparse(rng, r, c, dens):
    """Half the entries zero, so eliminations meet zero pivots and swap."""
    return [[_entry(rng, dens) if rng.random() < 0.5 else 0 for _ in range(c)] for _ in range(r)]


def _cases(seed=20260816, count=160):
    """(a, b, square) triples: shapes 1-7, int-only and mixed entries,
    with zero rows, rank-deficient rectangles, singular squares and
    sparse matrices."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        dens = INT_ONLY if t % 2 else MIXED
        r, c, c2 = (rng.randrange(1, 8) for _ in range(3))
        kind = t // 2 % 4
        if kind == 0:
            a, sq = _matrix(rng, r, c, dens), _matrix(rng, r, r, dens)
        elif kind == 1:
            a, sq = _degrade(rng, _matrix(rng, r, c, dens)), _degrade(rng, _matrix(rng, r, r, dens))
        elif kind == 2:
            a, sq = _low_rank(rng, r, c, dens), _low_rank(rng, r, r, dens)
        else:
            a, sq = _sparse(rng, r, c, dens), _sparse(rng, r, r, dens)
        out.append((a, _matrix(rng, c, c2, dens), sq))
    return out


def _same(x, y) -> bool:
    return type(x) is type(y) is Fraction and x == y


def _same_rows(xs, ys) -> bool:
    return len(xs) == len(ys) and all(
        len(rx) == len(ry) and all(map(_same, rx, ry)) for rx, ry in zip(xs, ys)
    )


def _int_result(rows, den) -> bool:
    """Are rows sequences of ints over a positive int den?"""
    return type(den) is int and den > 0 and all(type(x) is int for row in rows for x in row)


def mismatches(cases) -> list[tuple[str, int]]:
    """(kernel, case index) for every result that differs from the
    oracle: the kernels' integers, on the cases' integer forms, over
    the dens they imply, and the Fractions and Mats linalg builds from
    them, Fraction entries and least-denominator form included."""
    bad = []
    for n, (a, b, sq) in enumerate(cases):
        (ai, da), (bi, db), (si, ds) = oracle_form(a), oracle_form(b), oracle_form(sq)
        rows = _qkernels.matmul(ai, bi)
        product = oracle_matmul(a, b)
        if not _int_result(rows, da * db) or _over(rows, da * db) != product:
            bad.append(("matmul", n))
        m = la.matmul(la.mat(a), la.mat(b))
        if not _same_rows(m, product) or form_of(m) != oracle_form(product):
            bad.append(("la.matmul", n))
        rows, den, pivots = _qkernels.rref(ai)
        orows, opivots = oracle_rref(a)
        if pivots != opivots or not _int_result(rows, den) or _over(rows, den) != orows:
            bad.append(("rref", n))
        m, mpivots = la.rref(la.mat(a))
        if list(mpivots) != opivots or not _same_rows(m, orows) or form_of(m) != oracle_form(orows):
            bad.append(("la.rref", n))
        scale = ds ** len(sq)
        got = _qkernels.det(si)
        if type(got) is not int or got != oracle_det(sq) * scale:
            bad.append(("det", n))
        if not _same(la.det(la.mat(sq)), oracle_det(sq)):
            bad.append(("la.det", n))
        got = _qkernels.permanent(si)
        if type(got) is not int or got != oracle_permanent(sq) * scale:
            bad.append(("permanent", n))
        if not _same(la.permanent(la.mat(sq)), oracle_permanent(sq)):
            bad.append(("la.permanent", n))
        for m, mi in ((a, ai), (sq, si)):
            got = _qkernels.rank(mi)
            if type(got) is not int or got != len(oracle_rref(m)[1]):
                bad.append(("rank", n))
            if la.rank(la.mat(m)) != len(oracle_rref(m)[1]):
                bad.append(("la.rank", n))
    return bad


def test_cases_cover_the_hard_shapes():
    cases = _cases()
    shapes = {(len(a), len(a[0])) for a, _, _ in cases}
    assert {r for r, _ in shapes} == set(range(1, 8))
    assert {c for _, c in shapes} == set(range(1, 8))
    assert any(all(isinstance(x, int) for row in a for x in row) for a, _, _ in cases)
    assert any(isinstance(x, Fraction) and x.denominator > 1 for a, _, _ in cases for row in a for x in row)
    assert any(not any(row) for a, _, _ in cases for row in a)
    assert any(len(sq) > 1 and oracle_det(sq) == 0 for _, _, sq in cases)
    assert any(sq[0][0] == 0 and oracle_det(sq) != 0 for _, _, sq in cases)
    assert any(len(oracle_rref(a)[1]) < min(len(a), len(a[0])) for a, _, _ in cases)


def test_kernels_match_the_oracle():
    assert mismatches(_cases()) == []


def test_inputs_are_not_mutated():
    for a, b, sq in _cases(count=12):
        # integer rows as lists, which a careless kernel could write into
        a, b, sq = ([list(row) for row in oracle_form(m)[0]] for m in (a, b, sq))
        before = copy.deepcopy((a, b, sq))
        _qkernels.matmul(a, b)
        _qkernels.rref(a)
        _qkernels.rank(a)
        _qkernels.rank(sq)
        _qkernels.det(sq)
        _qkernels.permanent(sq)
        _qkernels.positive_definite(sq)
        assert (a, b, sq) == before


def test_oracle_comparison_catches_a_dropped_denominator(monkeypatch):
    honest = la.Mat.__init__

    def drop_denominator(self, rows, ncols):
        honest(self, rows, ncols)
        self.den = 1

    monkeypatch.setattr(la.Mat, "__init__", drop_denominator)
    bad = {kernel for kernel, _ in mismatches(_cases())}
    # rref and rank ignore the common scale, and the kernels are handed
    # the oracle's forms, so only linalg's products, det and permanent
    # must break
    assert {"la.matmul", "la.det", "la.permanent"} <= bad
    assert not bad & {"matmul", "rref", "det", "permanent", "rank", "la.rref", "la.rank"}


# -- the int/Fraction boundary ----------------------------------------


def test_clear_gives_the_least_denominator_and_exact_integers():
    f = Fraction
    cases = [
        # int-only
        ([[1, -2], [0, 3]], [[1, -2], [0, 3]], 1),
        # Fractions with denominator 1
        ([[f(4), f(0)], [f(-5), f(6)]], [[4, 0], [-5, 6]], 1),
        # mixed: lcm(2, 3, 4) = 12, not the product 24
        ([[f(1, 2), 3], [f(-2, 3), f(5, 4)]], [[6, 36], [-8, 15]], 12),
        # one 1/7 among ints
        ([[0, 1, 2], [3, f(1, 7), 0]], [[0, 7, 14], [21, 1, 0]], 7),
    ]
    for a, rows, den in cases:
        m = la.mat(a)
        got_rows, got_den = form = form_of(m)
        assert ([list(row) for row in got_rows], got_den) == (rows, den)
        assert form == oracle_form(a)
        # tuples of row tuples, so no caller can write into a form
        assert type(got_rows) is tuple and all(type(row) is tuple for row in got_rows)
        assert all(type(x) is int for row in got_rows for x in row)
        # reading the entries leaves the form as it was, and converting
        # them again gives it back
        assert tuple(m) == tuple(tuple(Fraction(x) for x in row) for row in a)
        assert form_of(m) == form == form_of(la.Mat(tuple(m), m.ncols))


def test_every_result_entry_is_a_fraction():
    # int-only input whose product, echelon rows, det and permanent hold zeros
    ints = [[1, 0, 2], [0, 0, 0], [3, 0, 6]]
    b = [[0, 1], [0, 0], [2, 0]]
    assert la.matmul(la.mat(ints), la.mat(b))[1] == (0, 0)
    assert la.rref(la.mat(ints))[0] == ((1, 0, 2),)
    assert la.det(la.mat(ints)) == la.permanent(la.mat(ints)) == 0
    for a, b, sq in [(ints, b, ints)] + _cases(count=24):
        a, b, sq = la.mat(a), la.mat(b), la.mat(sq)
        mats = [la.matmul(a, b), la.rref(a)[0], la.nullspace(a), la.EchelonBasis(a, a.ncols).rows]
        entries = [x for m in mats for row in m for x in row]
        entries += [la.det(sq), la.permanent(sq)]
        assert all(type(x) is Fraction for x in entries)
        # the kernels hand out ints and build no Fraction
        ai, bi, si = a.int_rows, b.int_rows, sq.int_rows
        assert _int_result(_qkernels.matmul(ai, bi), 1)
        assert _int_result(*_qkernels.rref(ai)[:2])
        assert type(_qkernels.det(si)) is type(_qkernels.permanent(si)) is int


def test_oracle_comparison_catches_a_result_built_without_its_denominator(monkeypatch):
    fractions = la._Fractions

    def ignore_denominator(den):
        return fractions(1)

    monkeypatch.setattr(la, "_Fractions", ignore_denominator)
    bad = {kernel for kernel, _ in mismatches(_cases())}
    # det and permanent divide by den^n themselves: only the Mats linalg
    # builds must break
    assert bad == {"la.matmul", "la.rref"}


# -- the integer form a Mat is ---------------------------------------------


def _fresh(m):
    """A Mat converted from m's Fractions."""
    return la.Mat(tuple(m), m.ncols)


def _produced(seed):
    """(producer, Mat) for the Mats linalg hands out, and for one
    converted from Fractions, on random Fraction matrices with zero rows
    and rank defects; also the number of products whose least
    denominator is below the product of their factors' denominators."""
    rng = random.Random(seed)
    out, reduced = [], 0
    for _ in range(60):
        r, m, c = (rng.randrange(1, 6) for _ in range(3))
        a = la.mat(_degrade(rng, _matrix(rng, r, m, MIXED)))
        b = la.mat(_matrix(rng, m, c, MIXED))
        cleared = la.mat(_matrix(rng, r, c, MIXED))
        p = la.matmul(a, b)
        t = la.transpose(p)
        keep = sorted(rng.sample(range(m), rng.randrange(0, m + 1)))
        out += [
            ("cleared", cleared),
            ("matmul", p),
            ("transpose", t),
            ("transpose of a transpose", la.transpose(t)),
            ("rref", la.rref(a)[0]),
            ("nullspace", la.nullspace(a)),
            ("identity", la.identity(r)),
            ("zeros", la.zeros(r, c)),
            ("EchelonBasis.rows", la.EchelonBasis(a, m).rows),
            ("EchelonBasis.kernel", la.EchelonBasis.kernel(a).rows),
            ("scale", la.scale(a, rng.choice(SCALARS[1:]))),
            ("add", la.add(p, cleared)),
            ("kron", la.kron(a, b)),
            ("submatrix", la.submatrix(a, range(r - 1, -1, -1), keep)),
            ("columns", la.columns(a, keep)),
            ("EchelonBasis.reduce", la.EchelonBasis(la.transpose(b), m).reduce(a)),
            ("EchelonBasis.coords", la.EchelonBasis(la.transpose(b), m).coords(la.transpose(b))),
            ("block_matrix", la.block_matrix((r, m), (m, c), {(0, 0): a, (0, 1): p, (1, 1): b})),
            ("solve", la.solve(a, p)),
        ]
        reduced += p.den < a.den * b.den
    for dim in (1, 2, 3):
        out += _koszul_produced(_fraction_space(rng, dim))
    return out, reduced


def _fraction_space(rng, dim) -> MetrizedSpace:
    """A space whose Gram m^T m + 1 has Fraction entries."""
    m = la.mat(_matrix(rng, dim, dim, MIXED))
    gram = la.add(la.matmul(la.transpose(m), m), la.identity(dim))
    return MetrizedSpace(tuple(range(dim)), la.Mat(tuple(gram), dim))


def _koszul_produced(v):
    """(producer, Mat) for the Mats hermk.multilinear and hermk.koszul
    build from integers: the power Grams, phi, k psi over k, the factor
    swaps, the transposed maps and the mu_decompose coordinates."""
    out = []
    for kind in ("sym", "ext"):
        out += [("power_tower", p.gram) for p in power_tower(v, kind, 3)]
    for k in (1, 2, 3):
        c = koszul.koszul_complex(v, k)
        out += [("phi", f.matrix.entries) for f in c.maps]
        out += [("psi", koszul.koszul_section(c, p).matrix.entries) for p in range(k)]
        t, swaps = koszul.transposed_koszul(v, k)
        out += [("swap", s.matrix.entries) for s in swaps]
        out += [("transposed phi", f.matrix.entries) for f in t.maps]
        out += [("mu_decompose", ses.project.matrix.entries) for _, ses in koszul.mu_decompose(c)]
    return out


def form_mismatches(seed=20261019) -> set:
    """The producers whose Mat holds another form than Mat(rows, ncols)
    computes from its entries, or than the oracle's."""
    bad = set()
    for name, m in _produced(seed)[0]:
        got, want = form_of(m), form_of(_fresh(m))
        if got != want or want != oracle_form(m):
            bad.add(name)
    return bad


def test_remembered_forms_equal_a_fresh_clear():
    produced, reduced = _produced(20261019)
    assert {name for name, m in produced if m} == {
        "cleared",
        "matmul",
        "transpose",
        "transpose of a transpose",
        "rref",
        "nullspace",
        "identity",
        "zeros",
        "EchelonBasis.rows",
        "EchelonBasis.kernel",
        "scale",
        "add",
        "kron",
        "submatrix",
        "columns",
        "EchelonBasis.reduce",
        "EchelonBasis.coords",
        "block_matrix",
        "solve",
        "power_tower",
        "phi",
        "psi",
        "swap",
        "transposed phi",
        "mu_decompose",
    }
    # the products' common factors are divided out, not only carried
    assert reduced >= 5
    # psi over k and the Grams over powers of their space's den, divided
    # down; phi has integer entries, and so do the coordinates read off it
    dens = {"psi": set(), "power_tower": set()}
    for name, m in produced:
        if name in dens and m:
            dens[name].add(m.den)
    assert dens["psi"] == {1, 2, 3} and len(dens["power_tower"]) > 3
    assert form_mismatches() == set()


def test_form_comparison_catches_a_form_over_a_larger_denominator(monkeypatch):
    monkeypatch.setattr(la, "_least", lambda rows, den: (tuple(map(tuple, rows)), den))
    assert {"matmul", "transpose", "rref", "scale", "kron", "psi", "power_tower"} <= form_mismatches()


def test_reading_the_rows_moves_neither_equality_nor_hash():
    for name, m in _produced(20261023)[0]:
        # a copy carries the form alone, with no rows read; one without
        # rows or columns comes back as the shared zeros of its shape
        twin = pickle.loads(pickle.dumps(m))
        r, c = la.shape(m)
        assert twin == m and (twin is la.zeros(r, c) if not (r and c) else twin is not m), name
        rows = tuple(twin)
        assert form_of(twin) == form_of(m) == oracle_form(rows), name
        assert twin == m and m == rows and twin == rows, name
        assert hash(twin) == hash(m) == hash(rows), name
        assert all(type(x) is Fraction for row in rows for x in row), name


def test_builders_build_no_fraction_until_an_entry_is_read(monkeypatch):
    rng = random.Random(20261025)
    a = la.mat(_matrix(rng, 3, 4, MIXED))
    b = la.mat(_matrix(rng, 4, 2, MIXED))
    built = []

    class Counting(la._Fractions):
        def __missing__(self, v):
            built.append(v)
            return super().__missing__(v)

    monkeypatch.setattr(la, "_Fractions", Counting)
    results = {
        "matmul": la.matmul(a, b),
        "kron": la.kron(a, b),
        "block_matrix": la.block_matrix((3, 4), (4, 2), {(0, 0): a, (1, 1): b}),
        "add": la.add(a, la.scale(a, 2)),
        "transpose": la.transpose(a),
        "solve": la.solve(a, la.matmul(a, b)),
        "rref": la.rref(a)[0],
    }
    assert built == []
    # control: the first read of an entry builds the view's Fractions,
    # and later reads build none
    for name, m in results.items():
        built.clear()
        assert type(m[0][0]) is Fraction and built, name
        count = len(built)
        assert tuple(m) == tuple(m) and len(built) == count, name


def test_scale_equals_the_entrywise_products():
    rng = random.Random(20261021)
    shapes = [(0, 0), (0, 3), (3, 0)] + [(rng.randrange(1, 6), rng.randrange(1, 6)) for _ in range(40)]
    for r, c in shapes:
        a = la.mat(_degrade(rng, _matrix(rng, r, c, MIXED))) if r and c else la.zeros(r, c)
        for fresh in (True, False):
            x = _fresh(a) if fresh else a
            for s in SCALARS + (1, 3, "-5/4"):
                got = la.scale(x, s)
                want = tuple(tuple(Fraction(s) * y for y in row) for row in a)
                assert tuple(got) == want and la.shape(got) == (r, c)
                assert all(type(y) is Fraction for row in got for y in row)
    with pytest.raises(TypeError):
        la.scale(la.identity(2), 0.5)


def _equality_pool(rng, r, c):
    """Mats of one size, converted from Fractions or built from
    integers, with their rows read or not, some of equal entries, their
    transposes, plain tuples of them, and Mats without rows or columns
    of other widths."""
    a = la.mat(_matrix(rng, r, c, MIXED))
    b = la.mat(_matrix(rng, c, c, MIXED))
    p = la.matmul(a, b)
    cleared = _fresh(p)
    tuple(cleared)
    pool = [a, _fresh(a), p, _fresh(p), cleared, la.mat(_matrix(rng, r, c, MIXED))]
    pool += [la.transpose(m) for m in pool[:5]]
    pool += [la.scale(p, -1), la.scale(_fresh(p), Fraction(1, 3))]
    pool += [tuple(p), tuple(la.transpose(p))]
    for w in (0, 1, 3):
        pool += [la.zeros(0, w), la.zeros(w, 0), la.scale(la.zeros(0, w), 2), la.scale(la.zeros(w, 0), 2)]
    return pool


def equality_mismatches(seed=20261021) -> list:
    """Pairs (x, y) from _equality_pool where == or != disagree with the
    comparison of plain tuples, or that compare equal with unequal
    hashes."""
    rng = random.Random(seed)
    bad = []
    for _ in range(30):
        pool = _equality_pool(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        for x in pool:
            for y in pool:
                want = tuple(x) == tuple(y)
                if (x == y) is not want or (x != y) is want or (want and hash(x) != hash(y)):
                    bad.append((x, y))
    return bad


def test_mat_equality_is_tuple_equality():
    assert equality_mismatches() == []


def test_equality_comparison_catches_forms_over_a_larger_denominator(monkeypatch):
    # a product's form left over the product of its factors' dens no
    # longer matches the form cleared from the same entries
    monkeypatch.setattr(la, "_least", lambda rows, den: (tuple(map(tuple, rows)), den))
    assert equality_mismatches()


def test_a_remembered_form_is_never_written_into():
    rng = random.Random(20261020)
    for _ in range(60):
        r, m = rng.randrange(1, 6), rng.randrange(1, 6)
        a = la.mat(_degrade(rng, _matrix(rng, r, m, MIXED)))
        for x in (la.matmul(a, la.transpose(a)), la.transpose(la.matmul(a, la.identity(m)))):
            rows = x.int_rows
            before = copy.deepcopy(form_of(x))
            runs = [
                (
                    _qkernels.rref(rows),
                    _qkernels.rank(rows),
                    _qkernels.matmul(rows, list(zip(*rows))),
                    _qkernels._bareiss(list(rows), False),
                    _qkernels._bareiss(list(rows), True),
                )
                for _ in range(2)
            ]
            if len(x) == x.ncols:
                runs.append((_qkernels.det(rows), _qkernels.positive_definite(rows)))
            assert runs[0] == runs[1]
            assert runs[0][0] == _qkernels.rref(_fresh(x).int_rows)
            assert form_of(x) == before
            # and the kernels read the forms to the Fraction oracles' values
            rows, pivots = la.rref(x)
            orows, opivots = oracle_rref(x)
            assert list(pivots) == opivots and _same_rows(rows, orows)
            assert la.rank(x) == len(opivots)
            if len(x) == x.ncols:
                assert _same(la.det(x), oracle_det(x))


def test_a_transpose_without_rows_gets_its_rows_back():
    z = la.zeros(0, 3)
    assert form_of(z) == ((), 1)
    # a form with no rows has no columns to transpose into t's rows
    t = la.transpose(z)
    assert form_of(t) == (((), (), ()), 1) and la.shape(t) == (3, 0)
    assert form_of(la.transpose(t)) == ((), 1)
    assert la.shape(la.kron(la.transpose(z), la.identity(2))) == (6, 0)


# -- the one elimination loop ---------------------------------------------


def _prefix_rank_picks(vectors) -> list[int]:
    """The oracle: i is picked when the first i + 1 vectors have higher
    rank (Fraction elimination) than the first i."""
    picks, rank = [], 0
    for i in range(len(vectors)):
        r = len(oracle_rref(vectors[: i + 1])[1])
        if r > rank:
            picks.append(i)
            rank = r
    return picks


def test_pivot_columns_pick_the_vectors_independent_of_the_ones_before():
    rng = random.Random(20261019)
    skipped = {"zero": 0, "repeat": 0, "combination": 0}
    for _ in range(120):
        width = rng.randrange(1, 6)
        vectors, kinds = [], []
        for _ in range(rng.randrange(1, 8)):
            kind = rng.choice(("zero", "repeat", "combination", "random", "random"))
            if kind == "zero":
                v = [0] * width
            elif kind == "repeat" and vectors:
                v = list(rng.choice(vectors))
            elif kind == "combination" and vectors:
                s, t = (_entry(rng, MIXED) for _ in range(2))
                u, w = rng.choice(vectors), rng.choice(vectors)
                v = [s * x + t * y for x, y in zip(u, w)]
            else:
                kind, v = "random", [_entry(rng, MIXED) for _ in range(width)]
            vectors.append(v)
            kinds.append(kind)
        columns, _ = oracle_form([list(c) for c in zip(*vectors)])
        _, pivots, _, _ = _qkernels._bareiss(list(columns), False)
        expected = _prefix_rank_picks(vectors)
        assert pivots == expected, vectors
        for i, kind in enumerate(kinds):
            if kind in skipped and i not in expected:
                skipped[kind] += 1
    # zero, repeated and dependent vectors all occur and are passed over
    assert min(skipped.values()) >= 10


def test_every_elimination_runs_through_the_one_bareiss_loop(monkeypatch):
    honest = _qkernels._bareiss
    calls = []

    def counting(rows, full):
        calls.append(full)
        return honest(rows, full)

    monkeypatch.setattr(_qkernels, "_bareiss", counting)
    g = la.mat([[2, 1], [1, 2]])
    runs = {
        "rank": (lambda: la.rank(g), 2, [False]),
        "det": (lambda: la.det(g), 3, [False]),
        "pd": (lambda: la.is_positive_definite(g), True, [False]),
        "rref": (lambda: la.rref(g)[1], (0, 1), [True]),
        # the cycle and boundary bases, and nothing else
        "presentation": (
            lambda: quotient_presentation(la.identity(3), [(1, 1, 0)], 3).dim,
            2,
            [True, True],
        ),
        "coords": (
            lambda: quotient_presentation(la.identity(3), [(1, 1, 0)], 3).coords([(1, 2, 3)]),
            ((1,), (3,)),
            [True, True],
        ),
    }
    for name, (run, value, forms) in runs.items():
        calls.clear()
        assert run() == value, name
        assert calls == forms, name


# -- linalg, the kernels' only caller -------------------------------------

SRC = pathlib.Path(la.__file__).parent


def _imported(tree) -> set[str]:
    """Every module name an import in tree names, relative ones with
    their leading dots: `from . import x` names "." and ".x"."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            out.add(base)
            sep = "" if base.endswith(".") else "."
            out.update(base + sep + alias.name for alias in node.names)
    return out


# a Mat's form, its width and its view of Fractions
MAT_SLOTS = {"int_rows", "den", "ncols", "_rows"}


def _assigned_slot(node) -> str | None:
    """The Mat slot name node assigns, directly or through setattr or
    __setattr__, if any."""
    if isinstance(node, ast.Attribute) and node.attr in MAT_SLOTS and isinstance(node.ctx, ast.Store):
        return node.attr
    if isinstance(node, ast.Call):
        func = node.func
        if getattr(func, "id", None) == "setattr" or getattr(func, "attr", None) == "__setattr__":
            # setattr(m, name, v), object.__setattr__(m, name, v) and
            # m.__setattr__(name, v)
            for x in node.args[:2]:
                if isinstance(x, ast.Constant) and x.value in MAT_SLOTS:
                    return x.value
    return None


def _form_writes(tree) -> set[tuple[str, str]]:
    """(function, slot) for every assignment in tree of an attribute
    named like a Mat slot, with the dotted name of the function or class
    that makes it ("" at module level)."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            slot = _assigned_slot(child)
            if slot:
                out.add((scope, slot))
            visit(child, scope)

    visit(tree, "")
    return out


def _writes_form(tree) -> bool:
    """Does tree assign an attribute named like a Mat slot?"""
    return bool(_form_writes(tree))


# The functions of linalg that may assign those slots, and which. A
# shared zeros Mat written once would be corrupted for every caller.
LINALG_FORM_WRITERS = {
    "Mat.__init__": MAT_SLOTS,
    "_int_mat": MAT_SLOTS,
    "zeros": MAT_SLOTS,
    # the view is built from the form on the first read, the same for
    # every reader
    "Mat._view": {"_rows"},
    # a _Fractions table's own den, not a Mat's
    "_Fractions.__init__": {"den"},
}


def stray_form_writes(text: str) -> set[tuple[str, str]]:
    """(function, slot) for the assignments in the linalg source text
    that LINALG_FORM_WRITERS does not allow."""
    return {(fn, slot) for fn, slot in _form_writes(ast.parse(text)) if slot not in LINALG_FORM_WRITERS.get(fn, ())}


def test_only_the_builders_write_a_mat():
    text = (SRC / "linalg.py").read_text()
    assert stray_form_writes(text) == set()
    # every allowed writer is seen writing
    assert {fn for fn, _ in _form_writes(ast.parse(text))} == set(LINALG_FORM_WRITERS)
    # controls: one doctored function each
    doctored = {
        ("transpose", "_rows"): ("def transpose(a: Mat) -> Mat:\n", "    a._rows = None\n"),
        ("EchelonBasis.add", "den"): ("        self.pivots = self.pivots[:k]", "        self.rows.den = 1\n"),
        ("block_matrix", "int_rows"): ("    total_r, total_c = sum(", "    setattr(blocks[0, 0], 'int_rows', ())\n"),
        ("Mat._view", "ncols"): ("        rows = self._rows\n", "        self.ncols = 0\n"),
        ("identity", "ncols"): ("    m = _IDENTITIES.get(n)\n", "    _ZEROS[0, 0].__setattr__('ncols', n)\n"),
    }
    for breach, (anchor, line) in doctored.items():
        assert text.count(anchor) == 1, anchor
        assert stray_form_writes(text.replace(anchor, anchor + line if anchor.endswith("\n") else line + anchor)) == {breach}


# the private members of the span and presentation types
SPAN_PRIVATE = {
    n
    for cls in (la.EchelonBasis, PresentedQuotient)
    for n in vars(cls)
    if n.startswith("_") and not n.startswith("__")
}


def _private_linalg_names(tree) -> bool:
    """Does tree name a private member of hermk.linalg: import one from
    it, or read one off a name linalg is bound to?"""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            home = (node.module or "").split(".")
            for alias in node.names:
                if home[-1:] == ["linalg"] and alias.name.startswith("_"):
                    return True
                if alias.name == "linalg":
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name.endswith(".linalg") and a.asname)
    return any(
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
        and node.attr.startswith("_")
        for node in ast.walk(tree)
    )


def _private_span_names(tree) -> bool:
    """Does tree name a private member of EchelonBasis or
    PresentedQuotient?"""
    return any(isinstance(node, ast.Attribute) and node.attr in SPAN_PRIVATE for node in ast.walk(tree))


def kernel_boundary_breaches(sources: dict) -> set:
    """(module, breach) for module name -> source text: a module other
    than linalg that imports _qkernels, assigns a Mat's form or names a
    private member of EchelonBasis or PresentedQuotient; a module other
    than linalg and multilinear (which builds its power Grams and word
    maps through la._int_mat) that names a private linalg member; and a
    _qkernels that imports fractions or any hermk module."""
    bad = set()
    for name, text in sources.items():
        tree = ast.parse(text)
        names = _imported(tree)
        if name != "linalg":
            if any("_qkernels" in n.split(".") for n in names):
                bad.add((name, "imports _qkernels"))
            if _writes_form(tree):
                bad.add((name, "assigns a form"))
            if _private_span_names(tree):
                bad.add((name, "names a private span member"))
            if name != "multilinear" and _private_linalg_names(tree):
                bad.add((name, "names a private linalg member"))
        if name == "_qkernels":
            if any(n.split(".")[0] == "fractions" for n in names):
                bad.add((name, "imports fractions"))
            if any(n.startswith(".") or n.split(".")[0] == "hermk" for n in names):
                bad.add((name, "imports hermk"))
    return bad


def test_only_linalg_calls_the_kernels():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert {"linalg", "_qkernels", "homology", "koszul"} <= set(sources)
    assert kernel_boundary_breaches(sources) == set()
    # linalg does both, so the checks can see them
    assert _writes_form(ast.parse(sources["linalg"]))
    assert any("_qkernels" in n.split(".") for n in _imported(ast.parse(sources["linalg"])))
    # and so are the private names: linalg's own, and multilinear's one
    assert SPAN_PRIVATE and _private_span_names(ast.parse(sources["linalg"]))
    assert _private_linalg_names(ast.parse(sources["multilinear"]))
    # controls: one doctored module each
    doctored = {
        ("homology", "imports _qkernels"): ("homology", "from . import _qkernels\n"),
        ("cubes", "imports _qkernels"): ("cubes", "from hermk._qkernels import rref\n"),
        ("koszul", "assigns a form"): ("koszul", "m.den = 1\n"),
        ("core", "assigns a form"): ("core", "setattr(m, 'int_rows', ())\n"),
        ("cubes", "assigns a form"): ("cubes", "object.__setattr__(m, '_rows', None)\n"),
        ("multilinear", "assigns a form"): ("multilinear", "m.int_rows, m.den = (), 1\n"),
        ("homology", "names a private linalg member"): ("homology", "la._int_mat((), 1, 0)\n"),
        ("homology", "names a private span member"): ("homology", "q.cycles._residues(m)\n"),
        ("cubes", "names a private linalg member"): ("cubes", "la._least(rows, den)\n"),
        ("cubes", "names a private span member"): ("cubes", "sup._residues(sub.rows)\n"),
        ("cli", "names a private linalg member"): ("cli", "from .linalg import _Fractions\n"),
        ("koszul", "names a private linalg member"): ("koszul", "import hermk.linalg as hl\nhl._kernel_int\n"),
        ("multilinear", "names a private span member"): ("multilinear", "b._residues(m)\n"),
        ("_qkernels", "imports fractions"): ("_qkernels", "from fractions import Fraction\n"),
        ("_qkernels", "imports hermk"): ("_qkernels", "from . import linalg\n"),
    }
    for breach, (name, line) in doctored.items():
        assert kernel_boundary_breaches({**sources, name: sources[name] + line}) == {breach}
