"""Benchmark: time to a full set of exact `verify` verdicts.

    python3 verifybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. A single client runs the workload's
requests one after another (closed loop, one request in flight). Each
pass over the requests is a fresh process (worker.py), as a `verify`
user starts one, so no in-process cache survives from one pass into
the next; passes repeat until the next one would overrun S seconds.
Every report is checked against its known answer (checker.py), and
every pass's reports must equal the first pass's apart from
elapsed_ms.

--trace 0 reports the end-to-end metrics, medians over the passes:
wall_s (one pass over the requests), setup_s (fresh process to first
request, at least 5 set-ups), peak_rss_mb (peak resident set of a
pass). The two times are rescaled to a reference speed (REF_S below);
the unscaled medians are printed as wall_raw_s and setup_raw_s.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics (tracer.py), medians over the traced passes, with
the kernel micro-cases and trace.overhead_frac; its traced reports
must equal the untraced ones. Spans go to .bench_out/. A metric of
BENCHMARK.json that the run did not measure is an error, not a 0.

The metric names and units come from BENCHMARK.json. The last line of
output is one JSON object: correct, attempted, failed (requests that
raised, failed a check or the check-count guard, or changed between
passes) and metrics. The line before it stamps the backend, Python
version and core count; compare.py refuses to compare across backends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from checker import check_report
from workloads import WORKLOADS, requests

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 170
MIN_SETUPS = 5
# Nominal seconds of worker.reference(), about its median on a 2-core
# 2.1 GHz VM under Python 3.11. That machine is shared and its speed
# drifts by up to +-25% over tens of seconds, alike for every process;
# so each time metric is rescaled to this reference speed: a request's
# time by REF_S over the mean of the reference samples taken just
# before and after it, a set-up by REF_S over the sample right after
# it. A change to hermk moves the rescaled times, a drift does not.
REF_S = 0.08


class BenchError(Exception):
    pass


def _worker(limit: float, workload: str, seed: int, *flags: str) -> tuple[dict, float]:
    """Run one worker process to completion, killing it at time.monotonic()
    limit; its output and wall time."""
    start = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    cmd += ["--spawned", repr(start), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(limit - start, 1))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {flags} ran past the {RUN_LIMIT_S} s limit") from e
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {flags} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1]), time.monotonic() - start


def _strip(text: str | None):
    if text is None:
        return None
    rep = json.loads(text)
    rep.pop("elapsed_ms")
    return rep


def _failed_requests(reqs: list, out: dict, first: list | None) -> int:
    """Requests of one pass that raised, failed the checker, or whose
    report differs from the first pass's apart from elapsed_ms."""
    for err in out["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    failed = 0
    for i, (req, text) in enumerate(zip(reqs, out["reports"])):
        if text is None:
            failed += 1
            continue
        problems = check_report(req, text)
        if first is not None and _strip(text) != first[i]:
            problems.append("report differs from the first pass's")
        for p in problems:
            print(f"FAILED request {i} ({req['suite']}): {p}", file=sys.stderr)
        failed += bool(problems)
    return failed


def _scaled_pass(out: dict) -> float:
    """Pass seconds at the reference speed: each request's time scaled
    by the reference samples taken just before and just after it."""
    refs = out["refs"]
    return sum(t * 2 * REF_S / (refs[i] + refs[i + 1]) for i, t in enumerate(out["times"]))


def _metric_name(key: str) -> str:
    return "qkernels" + key[len("_qkernels"):] if key.startswith("_qkernels.") else key


def measure(spec: dict, workload: str, seed: int, seconds: int, trace: bool):
    """Run the passes; the result object, the stamp, and the raw
    (unscaled) wall and set-up seconds."""
    reqs = requests(workload, seed)
    start = time.monotonic()
    deadline, limit = start + seconds, start + RUN_LIMIT_S
    passes, traced, setups, backends = [], [], [], set()
    attempted = failed = 0
    first = None
    micro = {}
    spans = os.path.join(ROOT, ".bench_out", f"spans-{workload}-s{seed}.tsv.gz")
    if trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        if os.path.exists(spans):
            os.remove(spans)
        out, _ = _worker(limit, workload, seed, "--micro")
        micro = out["micro"]
        backends.add(out["backend"])
    while True:
        tracing = trace and len(passes) > len(traced)
        flags = ("--trace", "--spans", spans, "--tag", str(len(traced))) if tracing else ()
        out, wall = _worker(limit, workload, seed, *flags)
        backends.add(out["backend"])
        setups.append(out)
        attempted += len(reqs)
        failed += _failed_requests(reqs, out, first)
        if first is None:
            first = [_strip(t) for t in out["reports"]]
        (traced if tracing else passes).append(out)
        done = not trace or traced
        if done and time.monotonic() + wall > deadline:
            break
    while not trace and len(setups) < MIN_SETUPS:
        out, _ = _worker(limit, workload, seed, "--setup-only")
        backends.add(out["backend"])
        setups.append(out)
    if len(backends) != 1:
        raise BenchError(f"passes ran on different backends: {sorted(backends)}")

    wall = statistics.median(_scaled_pass(p) for p in passes)
    setup = statistics.median(o["ready_s"] * REF_S / o["refs"][0] for o in setups)
    raw = {
        "wall_raw_s": statistics.median(sum(p["times"]) for p in passes),
        "setup_raw_s": statistics.median(o["ready_s"] for o in setups),
    }
    if trace:
        values = {key: statistics.median(t["layers"][key] for t in traced) for key in traced[0]["layers"]}
        values.update(micro)
        values["cli.checks"] = sum(len(r["checks"]) for r in first if r is not None)
        values["trace.overhead_frac"] = statistics.median(map(_scaled_pass, traced)) / wall - 1
        values = {_metric_name(k): v for k, v in values.items()}
    else:
        values = {
            "wall_s": wall,
            "setup_s": setup,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    stamp = {
        "backend": backends.pop(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(passes) + len(traced),
    }
    return result, stamp, raw


def main() -> int:
    p = argparse.ArgumentParser(description="Time the verify suites end to end.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "hermk", "__init__.py")):
        print(f"no hermk sources under {ROOT}/src; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        result, stamp, raw = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"{name} {value:.6g} s")
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} 1")
    print("stamp " + json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
