"""The benchmark's workloads: fixed lists of `verify` requests.

A request is one `hermk.cli.SuiteConfig`, written here as a plain dict
(suite, the four bounds, seed) so that run.py itself never imports
hermk. The workload seed only derives the per-request suite seeds;
suites and bounds are fixed per workload. Every bound is spelled out
so the check-count guard never depends on hermk's defaults.

The suites draw instance sizes (complex lengths and dimensions, flag
lengths and subspace dimensions) from their seeded streams, so one
instance's cost varies several-fold from seed to seed. A workload
therefore runs many small instances rather than a few large ones: the
cost of a pass then varies by only a few percent between workload
seeds, and a change in speed is not drowned by a change in inputs.

Why each workload exists, and what it should and should not move, is
in README.md next to this file.
"""

from __future__ import annotations

import random

# name -> ((suite, max_dim, max_k, max_n, trials, copies), ...); each
# copy is a separate request with its own derived seed
WORKLOADS = {
    # Koszul complexes built through kron over T^k, up to 256 x 256
    # (dim 4, k 4): few but large kernel calls, permanents and krons.
    # Sizes are fixed by the bounds; the seed only draws random Grams.
    "koszul-build": (
        ("koszul-split", 4, 4, 3, 8, 1),
        ("koszul-section", 3, 4, 3, 8, 1),
        ("koszul-sum", 2, 3, 3, 8, 1),
    ),
    # Random complexes of up to 4 degrees and dimension 4, 128 chain
    # maps: many tiny eliminations through in_span/solve and la.mat
    # coercions, and no multilinear, koszul, cubes or permanent call.
    "homology-spans": (("modified-homology", 1, 1, 1, 16, 8),),
    # Pure Fraction polynomial arithmetic with no linalg call: the
    # control workload for every linalg, kernel or core change.
    "symfun-expand": (
        ("symfun", 3, 7, 3, 8, 1),
        ("gs-commute", 4, 4, 5, 8, 1),
    ),
    # Two-step flags in Q^6 (max_n 2 fixes the flag length at 2) and
    # their cubes: small matmuls through SpaceMap.compose, induced
    # metrics, and cub rebuilt for every check.
    "flag-cubes": (
        ("cub-relations", 3, 3, 2, 15, 4),
        ("cubsdeg", 3, 3, 2, 20, 4),
        ("homotopy", 3, 3, 2, 15, 4),
        ("split-cubes", 3, 3, 2, 16, 2),
    ),
}

BOUND_NAMES = ("max_dim", "max_k", "max_n", "trials")


def requests(workload: str, seed: int) -> list[dict]:
    """The workload's requests; the same seed gives the same list."""
    rng = random.Random(seed)
    out = []
    for suite, *bounds, copies in WORKLOADS[workload]:
        for _ in range(copies):
            req = {"suite": suite, **dict(zip(BOUND_NAMES, bounds))}
            req["seed"] = rng.getrandbits(64)
            out.append(req)
    return out
