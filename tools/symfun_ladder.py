"""The variable-count ladder: the symmetric-function claims at growing size.

    python3 tools/symfun_ladder.py                      # the default rungs
    python3 tools/symfun_ladder.py --rungs 12 --save out.json

Run from the repository root; hermk is imported from src/. A rung is
either a variable count n, written "12", or a root bundle, written
"8x8" for 8 roots at truncation 8.

- A variable-count rung runs the three identities of the symfun suite
  of `verify` (Newton's power sum, h_k by compositions and the
  secondary Euler sum) for every k <= n, in n variables
  (cli._suite_symfun with max_k = n).
- A root-bundle rung runs the two checks of the gs-commute suite
  (cli._gs_checks: the Adams operations commute with the Chern
  character, and are multiplicative over graded_mul) for every
  k <= the number of roots, on bundles drawn from instance_rng(1, k).

Each rung runs REPEATS times, each time in a fresh process, and prints
one JSON line: the median process CPU seconds of the checks over the
runs (user + system, the interpreter start left out) with their min and
max, the largest peak resident set, the seed stream, the cap, the
number of checks and the number that failed. A rung is correct when it
made checks and every one passed, in every run. Spawn, repeats, cap
and record are those of tools/split_ladder.py: a run that overruns its
CAP_S seconds is killed and the rung recorded as timed out, a run whose
process exits non-zero ends the rung as incorrect with the tail of its
stderr, and the exit status is 1 when any rung is incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import split_ladder as ladder  # noqa: E402

DEFAULT_RUNGS = ("12", "14", "16", "8x8")


def parse_rung(text: str) -> tuple[int, ...]:
    """"12" as (12,), a variable-count rung; "8x8" as (8, 8), a
    root-bundle rung."""
    return ladder.parse_pair(text) if "x" in text else (int(text),)


def run_rung(*rung: int) -> dict:
    """The rung in this process: its verdicts and CPU seconds."""
    sys.path.insert(0, os.path.join(ladder.ROOT, "src"))
    from hermk import cli
    from hermk import instances as inst

    start = ladder.cpu_s()
    if len(rung) == 1:
        run = cli._SuiteRun(cli.SuiteConfig("symfun", max_k=rung[0], seed=1))
        cli._suite_symfun(run)
    else:
        roots, truncation = rung
        run = cli._SuiteRun(cli.SuiteConfig("gs-commute", seed=1))
        for k in range(1, roots + 1):
            cli._gs_checks(run, inst.instance_rng(1, k), k, roots, truncation)
    failed = sum(not c.ok for c in run.checks)
    return {
        **ladder.cost(start),
        "checks": len(run.checks),
        "failed": failed,
        "correct": bool(run.checks) and not failed,
    }


def spawn_rung(rung: tuple[int, ...], cap: float) -> dict:
    """The rung in REPEATS fresh processes, each killed after cap
    seconds."""
    if len(rung) == 1:
        out = {"nvars": rung[0], "seed_stream": None}
    else:
        out = {"roots": rung[0], "truncation": rung[1], "seed_stream": "instance_rng(1, k)"}
    out["cap_s"] = cap
    return ladder.spawn(__file__, ["x".join(map(str, rung))], out, cap)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rungs", nargs="+", type=parse_rung,
                    default=[parse_rung(r) for r in DEFAULT_RUNGS],
                    help="variable counts n and (roots)x(truncation) pairs, e.g. 12 8x8")
    ap.add_argument("--save", help="also write the rung records to this JSON file")
    ap.add_argument("--one", metavar="RUNG", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(run_rung(*parse_rung(args.one))))
        return 0
    return ladder.run_ladder(args.rungs, lambda rung: spawn_rung(rung, ladder.CAP_S), args.save)


if __name__ == "__main__":
    sys.exit(main())
