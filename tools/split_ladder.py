"""The Koszul split ladder: the koszul-split claim at growing size.

    python3 tools/split_ladder.py                      # the default rungs
    python3 tools/split_ladder.py --rungs 4x4 --save out.json

Run from the repository root; hermk is imported from src/. A rung is a
(dim, k) pair and a metric on V = Q^dim: "standard" (orthonormal) or
"random", the Gram of random_space(instance_rng(1, 0), dim). It runs
koszul_complex(V, k), then lambda_rescale, then is_hermitian_split on
every sequence of mu_decompose of the plain and of the rescaled
complex, as the koszul-split suite of `verify` does for one instance.
Every rung runs under both metrics.

Each rung runs REPEATS times, each time in a fresh process, and prints
one JSON line: the median process CPU seconds of the work over the runs
(user + system, the interpreter start left out) with their min and max,
the largest peak resident set of those processes, the seed stream, the
cap, and the verdicts. A rung is correct when every rescaled sequence
splits and, for k >= 2, some plain one does not, in every run. A run
that overruns the cap of CAP_S seconds is killed and the rung recorded
as timed out; a run whose process exits non-zero (a complement
candidate that fails its certificate raises) ends the rung as incorrect
with the tail of its stderr. Either way the rung's later runs are not
made. The exit status is 1 when any rung is incorrect. The spawn, the
cost record and the ladder loop here serve tools/complex_ladder.py,
tools/symfun_ladder.py and tools/koszul_ladder.py too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_RUNGS = ("4x4", "5x4", "5x5", "6x5")
METRICS = ("standard", "random")
CAP_S = 120.0
# runs per rung: one process's CPU seconds on a shared machine spread by
# a third between rounds, so a rung records the median and the spread
REPEATS = 3
SEED_STREAM = {"standard": None, "random": "random_space(instance_rng(1, 0), dim)"}


def cpu_s() -> float:
    """User plus system CPU seconds of this process so far."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_rung(dim: int, k: int, metric: str) -> dict:
    """The rung in this process: its verdicts and CPU seconds."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hermk.core import is_hermitian_split, standard_space
    from hermk.instances import instance_rng, random_space
    from hermk.koszul import koszul_complex, lambda_rescale, mu_decompose

    start = cpu_s()
    v = standard_space(dim) if metric == "standard" else random_space(instance_rng(1, 0), dim)
    plain = koszul_complex(v, k)
    scaled = lambda_rescale(plain, k)
    rescaled_split = all(is_hermitian_split(s) for _, s in mu_decompose(scaled))
    plain_split = all(is_hermitian_split(s) for _, s in mu_decompose(plain))
    return {
        **cost(start),
        "rescaled_split": rescaled_split,
        "plain_split": plain_split,
        "correct": rescaled_split and (k < 2 or not plain_split),
    }


def spawn_rung(dim: int, k: int, metric: str, cap: float) -> dict:
    """The rung in REPEATS fresh processes, each killed after cap
    seconds."""
    out = {"dim": dim, "k": k, "metric": metric, "seed_stream": SEED_STREAM[metric], "cap_s": cap}
    return spawn(__file__, [f"{dim}x{k}", metric], out, cap)


def spawn(script: str, args: list[str], out: dict, cap: float) -> dict:
    """out, updated with the JSON records that `script --one *args`
    prints as its last line in REPEATS fresh processes, each killed
    after cap seconds; the spawn and cap of every ladder in tools/. The
    record is the first run's, with cpu_s the median over the runs,
    cpu_s_min and cpu_s_max, peak_rss_mb the largest, and correct only
    when every run is.

    A timeout or a non-zero exit ends the rung: it is a record with
    correct False, never an exception, so the rungs after it still run
    and are saved.
    """
    cmd = [sys.executable, os.path.abspath(script), "--one", *args]
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=cap, check=True)
        except subprocess.TimeoutExpired:
            out.update(timed_out=True, correct=False, wall_s=round(time.perf_counter() - start, 1))
            return out
        except subprocess.CalledProcessError as err:
            out.update(timed_out=False, correct=False, returncode=err.returncode,
                       stderr_tail=err.stderr.strip().splitlines()[-5:])
            return out
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    cpu = [r["cpu_s"] for r in runs]
    out.update(runs[0], timed_out=False, runs=REPEATS, cpu_s=statistics.median(cpu),
               cpu_s_min=min(cpu), cpu_s_max=max(cpu),
               peak_rss_mb=max(r["peak_rss_mb"] for r in runs),
               correct=all(r["correct"] for r in runs))
    return out


def cost(start_cpu_s: float) -> dict:
    """The CPU seconds of this process since start_cpu_s and its peak
    resident set, as a rung records them."""
    return {
        "cpu_s": round(cpu_s() - start_cpu_s, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def run_ladder(rungs, spawn_one, save: str | None) -> int:
    """The record spawn_one(rung) of each rung, printed as one JSON line
    as it lands and, with save, written to that file as a JSON list.
    The exit status is 1 when any record is incorrect."""
    records = []
    for rung in rungs:
        rec = spawn_one(rung)
        print(json.dumps(rec), flush=True)
        records.append(rec)
    if save:
        with open(save, "w") as fh:
            json.dump(records, fh, indent=1)
    return 0 if all(r["correct"] for r in records) else 1


def parse_pair(text: str) -> tuple[int, int]:
    """The pair "4x5" as (4, 5)."""
    a, b = text.split("x")
    return int(a), int(b)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rungs", nargs="+", type=parse_pair, default=[parse_pair(r) for r in DEFAULT_RUNGS],
                    help="(dim)x(k) pairs, e.g. 4x4 5x5")
    ap.add_argument("--save", help="also write the rung records to this JSON file")
    ap.add_argument("--one", nargs=2, metavar=("DIMxK", "METRIC"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(run_rung(*parse_pair(args.one[0]), args.one[1])))
        return 0
    rungs = [(dim, k, metric) for dim, k in args.rungs for metric in METRICS]
    return run_ladder(rungs, lambda rung: spawn_rung(*rung, CAP_S), args.save)


if __name__ == "__main__":
    sys.exit(main())
