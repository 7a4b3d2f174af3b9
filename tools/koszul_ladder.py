"""The Koszul build ladder: transform complexes of growing size.

    python3 tools/koszul_ladder.py                      # the default rungs
    python3 tools/koszul_ladder.py --rungs 6x6 --save out.json

Run from the repository root; hermk is imported from src/. A rung is a
(dim, k) pair. It builds koszul_complex(standard_space(dim), k), the
degree-k transform complex of the orthonormal Q^dim: its power Grams,
its maps phi and the certificate of its exactness on basis words. The
Gram and map of every degree are stored dense, so memory is this
ladder's wall: (7, 7) took 3.3 GB when last measured and is left out
of the default rungs.

Each rung runs REPEATS times, each time in a fresh process, and prints
one JSON line: the median process CPU seconds of the build over the
runs (user + system, the interpreter start left out) with their min and
max, the largest peak resident set, the seed stream (none: nothing is
drawn), the cap, and the dimensions of the objects. A rung is correct
when the complex is flagged acyclic and object p has dimension
C(dim + p - 1, p) C(dim, k - p), in every run.
Spawn, repeats, cap and record are those of tools/split_ladder.py: a
run that overruns its CAP_S seconds is killed and the rung recorded as
timed out, a run whose process exits non-zero (a certificate that
fails raises) ends the rung as incorrect with the tail of its stderr,
and the exit status is 1 when any rung is incorrect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import split_ladder as ladder  # noqa: E402

DEFAULT_RUNGS = ("6x6", "6x7", "7x6")


def run_rung(dim: int, k: int) -> dict:
    """The rung in this process: its verdict and CPU seconds."""
    sys.path.insert(0, os.path.join(ladder.ROOT, "src"))
    from hermk.core import standard_space
    from hermk.koszul import koszul_complex

    start = ladder.cpu_s()
    c = koszul_complex(standard_space(dim), k)
    dims = [obj.dim for obj in c.objects]
    words = [math.comb(dim + p - 1, p) * math.comb(dim, k - p) for p in range(k + 1)]
    return {**ladder.cost(start), "dims": dims, "correct": c.acyclic and dims == words}


def spawn_rung(dim: int, k: int, cap: float) -> dict:
    """The rung in REPEATS fresh processes, each killed after cap
    seconds."""
    out = {"dim": dim, "k": k, "metric": "standard", "seed_stream": None, "cap_s": cap}
    return ladder.spawn(__file__, [f"{dim}x{k}"], out, cap)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rungs", nargs="+", type=ladder.parse_pair,
                    default=[ladder.parse_pair(r) for r in DEFAULT_RUNGS],
                    help="(dim)x(k) pairs, e.g. 6x6 6x7")
    ap.add_argument("--save", help="also write the rung records to this JSON file")
    ap.add_argument("--one", metavar="DIMxK", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(run_rung(*ladder.parse_pair(args.one))))
        return 0
    return ladder.run_ladder(args.rungs, lambda rung: spawn_rung(*rung, ladder.CAP_S), args.save)


if __name__ == "__main__":
    sys.exit(main())
