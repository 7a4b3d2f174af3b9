"""One benchmark pass in a fresh process, as a `verify` user runs it.

    python3 verifybench/worker.py --workload W --seed S --spawned T
                                  [--setup-only | --micro | --trace --spans PATH --tag K]

Imports hermk from the checkout's src/, generates the workload's
requests, and runs each through hermk.cli.run_suite and emit_report.
T is the parent's time.monotonic() just before it started this
process, so the set-up time covers interpreter start, importing hermk
and generating the request list. Prints one JSON object as its last
line of output; the parent checks the reports.

--setup-only stops after set-up. --micro instead times the four
isolated kernel cases through hermk.linalg. --trace runs the pass under
the tracer and appends the spans to PATH, tagged K. A pass also
reports refs, the time of a reference computation sampled before each
request and after the last (--setup-only and --micro: one sample,
right after set-up).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# benchmarks/bench_backends.py's default seed, so every workload and
# seed times the kernels on the same matrices as that script
MICRO_SEED = 20260816


def reference() -> float:
    """Seconds taken by a fixed computation that shares no code with
    hermk: a Fraction elimination and tuple-keyed dict updates, the
    operations hermk spends its time in. Sampled next to the requests,
    it measures how fast the shared machine runs at that moment."""
    return _reference_once() + _reference_once()


def _reference_once() -> float:
    t0 = time.perf_counter()
    rng = random.Random(20091)
    n = 18
    rows = [[Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    acc: dict = {}
    for i in range(20000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i
    return time.perf_counter() - t0


def _micro() -> dict:
    """The four kernel cases of benchmarks/bench_backends.py, on its
    default seed, through the public hermk.linalg on whatever backend
    is loaded; median of 3."""
    from hermk import linalg as la

    def rand(rng, rows, cols, dens):
        return la.mat(
            [[Fraction(rng.randrange(-9, 10), rng.choice(dens)) for _ in range(cols)] for _ in range(rows)]
        )

    cases = {
        "matmul": (la.matmul, ((40, 40), (40, 40)), (1, 1, 2, 3)),
        "rref": (la.rref, ((40, 60),), (1, 1, 2, 3)),
        "det": (la.det, ((30, 30),), (1, 1, 2, 3)),
        "permanent": (la.permanent, ((11, 11),), (1,)),
    }
    out = {}
    for name, (fn, shapes, dens) in cases.items():
        # as in bench_backends.py, each case draws from a freshly seeded rng
        rng = random.Random(MICRO_SEED)
        args = tuple(rand(rng, r, c, dens) for r, c in shapes)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        out[f"_qkernels.{name}.micro_s"] = statistics.median(times)
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--micro", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans")
    p.add_argument("--tag", default="0")
    args = p.parse_args()

    sys.path.insert(0, SRC)
    import hermk
    from hermk import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(hermk.__file__))) != SRC:
        print(f"hermk was imported from {hermk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import requests

    configs = [cli.SuiteConfig(format="json", **r) for r in requests(args.workload, args.seed)]
    out = {"ready_s": time.monotonic() - args.spawned, "backend": hermk.linalg.BACKEND}
    if args.micro:
        out["micro"] = _micro()
    if args.setup_only or args.micro:
        out["refs"] = [reference()]
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    times, reports, errors, refs = [], [], [], []
    for i, cfg in enumerate(configs):
        refs.append(reference())
        if tracer is not None:
            tracer.begin_request(i)
        t0 = time.perf_counter()
        try:
            # looked up per call, so the tracer's wrappers are used
            text = cli.emit_report(cli.run_suite(cfg), "json")
        except Exception as e:  # a failed request is a result, not a crash
            traceback.print_exc()
            text = None
            errors.append(f"request {i} ({cfg.suite}): {e!r}")
        times.append(time.perf_counter() - t0)
        reports.append(text)
    refs.append(reference())
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        if args.spans:
            tracer.dump(args.spans, args.tag)

    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(times=times, reports=reports, errors=errors, refs=refs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
