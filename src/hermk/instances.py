"""Seeded random instance generators shared by the tests and the
batch verifier.

Every generator takes an explicit random.Random so callers control
reproducibility. sub_seed splits one 64-bit seed into independent
per-instance streams by counter, which keeps suites deterministic no
matter how the individual checks are ordered or parallelized.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg as la
from .core import MetrizedSpace, standard_space
from .cubes import Flag
from .homology import ChainComplex, ChainMap

__all__ = [
    "sub_seed",
    "instance_rng",
    "random_entry",
    "random_vector",
    "random_spd_gram",
    "random_space",
    "random_flag",
    "random_complex",
    "random_chain_map",
    "random_quasi_iso",
]

# LCG multiplier/increment pair; any odd constants work, these are the
# conventional ones
_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


def sub_seed(seed: int, idx: int) -> int:
    """Derive the idx-th instance seed from a suite seed."""
    return (seed * _MULT + idx * _INC) & _MASK


def instance_rng(seed: int, idx: int) -> random.Random:
    """Independent stream for the idx-th instance of a suite."""
    return random.Random(sub_seed(seed, idx))


def random_entry(rng: random.Random, lo: int = -2, hi: int = 2) -> Fraction:
    return Fraction(rng.randrange(lo, hi + 1))


def random_vector(rng: random.Random, dim: int) -> la.Vec:
    return tuple(random_entry(rng) for _ in range(dim))


def random_spd_gram(rng: random.Random, dim: int) -> la.Mat:
    """M^T M + I with small integer M: symmetric positive definite."""
    m = la.Mat(tuple(random_vector(rng, dim) for _ in range(dim)), dim)
    return la.add(la.matmul(la.transpose(m), m), la.identity(dim))


def random_space(rng: random.Random, dim: int, tag: str = "e") -> MetrizedSpace:
    return standard_space(dim, random_spd_gram(rng, dim), tag=tag)


def random_flag(rng: random.Random, ambient: MetrizedSpace, length: int) -> Flag:
    """Nested chain of `length` subspaces with distinct dimensions."""
    if length > ambient.dim + 1:
        raise ValueError("flag longer than the ambient dimension allows")
    dims = sorted(rng.sample(range(ambient.dim + 1), length))
    chain = []
    space: list[la.Vec] = []
    span = la.EchelonBasis.zero(ambient.dim)
    for d in dims:
        while len(space) < d:
            v = random_vector(rng, ambient.dim)
            if span.add(v):  # grows exactly when v is independent of space
                space.append(v)
        chain.append(tuple(space))
    return Flag(ambient, chain)


def random_complex(
    rng: random.Random, max_len: int = 6, max_dim: int = 6
) -> ChainComplex:
    """Random bounded complex; each differential lands in the kernel of
    the previous one, so d^2 = 0 by construction."""
    lo = rng.randrange(-2, 2)
    length = rng.randrange(1, max_len + 1)
    dims = {}
    for n in range(lo, lo + length):
        d = rng.randrange(0, max_dim + 1)
        if d:
            dims[n] = d
    diffs = {}
    degrees = sorted(dims)
    for i, n in enumerate(degrees):
        if i == 0 or degrees[i - 1] != n - 1:
            continue
        prev, cur = dims[n - 1], dims[n]
        if n - 1 in diffs:
            basis = la.nullspace(diffs[n - 1])
        else:
            basis = la.identity(prev)
        cols = []
        for _ in range(cur):
            v = [Fraction(0)] * prev
            for b in basis:
                c = random_entry(rng)
                if c:
                    v = [x + c * y for x, y in zip(v, b)]
            cols.append(tuple(v))
        diffs[n] = la.transpose(la.Mat(tuple(cols), prev))
    return ChainComplex(dims, diffs)


def _homotopy_built_map(
    rng: random.Random, a: ChainComplex, b: ChainComplex, ident: Fraction
) -> ChainMap:
    # d h + h d + ident * id commutes with d whatever h is
    degrees = sorted(set(a.dims) | set(b.dims))
    h = {
        n: la.Mat(
            tuple(random_vector(rng, a.dim(n)) for _ in range(b.dim(n + 1))), a.dim(n)
        )
        for n in degrees
    }
    maps = {}
    for n in degrees:
        t = la.matmul(b.diff(n + 1), h[n])
        if n - 1 in h:
            t = la.add(t, la.matmul(h[n - 1], a.diff(n)))
        if ident:
            t = la.add(t, la.scale(la.identity(a.dim(n)), ident))
        maps[n] = t
    return ChainMap(a, b, maps)


def random_chain_map(rng: random.Random, a: ChainComplex, b: ChainComplex) -> ChainMap:
    """Random chain map a -> b, built as d h + h d for random h (plus,
    half the time when a is b, a random multiple of the identity)."""
    ident = Fraction(0)
    if a is b and rng.random() < 0.5:
        ident = random_entry(rng)
    return _homotopy_built_map(rng, a, b, ident)


def random_quasi_iso(rng: random.Random, a: ChainComplex) -> ChainMap:
    """Chain self-map c*id + d h + h d with c != 0: induces c*id on
    homology, hence a quasi-isomorphism."""
    c = Fraction(0)
    while not c:
        c = random_entry(rng)
    return _homotopy_built_map(rng, a, a, c)
