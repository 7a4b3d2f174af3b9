"""The complex-size ladder: the modified-homology checks on growing complexes.

    python3 tools/complex_ladder.py                      # the default rungs
    python3 tools/complex_ladder.py --rungs 14x28 --save out.json

Run from the repository root; hermk is imported from src/. A rung is an
(L, D) pair. It draws random_complex(rng, L, D) twice and then
random_chain_map between the two, with rng = instance_rng(1, L), and
runs the five checks of the modified-homology suite of `verify`
(cli._modified_checks) on that map. Larger rungs draw longer complexes
of larger dimensions, and the coefficients of each differential grow
along the complex, so the boundary eliminations dominate.

Each rung runs in a fresh process and prints one JSON line: the process
CPU seconds of the draw and the checks (user + system, the interpreter
start left out), the peak resident set of that process, the seed
stream, the cap, the dimensions drawn and the verdict of every check. A
rung is correct when all five checks pass. Spawn, cap and record are
those of tools/split_ladder.py: a rung that overruns its CAP_S seconds
is killed and recorded as timed out, a rung whose process exits
non-zero as incorrect with the tail of its stderr, and the exit status
is 1 when any rung is incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import split_ladder as ladder  # noqa: E402

DEFAULT_RUNGS = ("14x28", "16x40", "18x60", "20x80")


def run_rung(length: int, dim: int) -> dict:
    """The rung in this process: its verdicts and CPU seconds."""
    sys.path.insert(0, os.path.join(ladder.ROOT, "src"))
    from hermk import cli
    from hermk import instances as inst

    start = ladder.cpu_s()
    rng = inst.instance_rng(1, length)
    a = inst.random_complex(rng, length, dim)
    b = inst.random_complex(rng, length, dim)
    f = inst.random_chain_map(rng, a, b)
    run = cli._SuiteRun(cli.SuiteConfig("modified-homology", seed=1))
    cli._modified_checks(run, "ladder", f, rng)
    return {
        **ladder.cost(start),
        "dims": [sum(a.dims.values()), sum(b.dims.values())],
        "checks": {c.claim_ref: c.ok for c in run.checks},
        "correct": len(run.checks) == 5 and all(c.ok for c in run.checks),
    }


def spawn_rung(length: int, dim: int, cap: float) -> dict:
    """The rung in a fresh process, killed after cap seconds."""
    out = {"L": length, "D": dim, "seed_stream": f"instance_rng(1, {length})", "cap_s": cap}
    return ladder.spawn(__file__, [f"{length}x{dim}"], out, cap)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rungs", nargs="+", type=ladder.parse_pair,
                    default=[ladder.parse_pair(r) for r in DEFAULT_RUNGS],
                    help="(L)x(D) pairs, e.g. 14x28 16x40")
    ap.add_argument("--save", help="also write the rung records to this JSON file")
    ap.add_argument("--one", metavar="LxD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(run_rung(*ladder.parse_pair(args.one))))
        return 0
    return ladder.run_ladder(args.rungs, lambda rung: spawn_rung(*rung, ladder.CAP_S), args.save)


if __name__ == "__main__":
    sys.exit(main())
