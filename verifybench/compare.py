"""Run every workload end to end and print the metrics, optionally
against a saved baseline.

    python3 verifybench/compare.py [--runs N] [--seed S] [--save FILE] [--base FILE]

Run from the repository root. Makes N runs of run.py (seeds S, S+1,
...) on every workload of BENCHMARK.json, each of its run_seconds,
interleaving the workloads so that slow phases of the machine spread
over all of them, and prints for each workload and end-to-end metric
the median, the quartile spread as a share of the median, and
failed_frac (failed / attempted requests). --save writes the runs and
their stamp to FILE; --base compares against such a file
and refuses (exit 2) when it was measured on another kernel backend,
since pure and compiled kernels differ by 2-36x.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited with code {proc.returncode}")
    stamp = json.loads(lines[-2].removeprefix("stamp "))
    result = json.loads(lines[-1])
    # the unscaled times run.py prints next to the metrics
    result["raw"] = {
        name: float(value)
        for name, value, *_ in (line.split() for line in lines[:-2])
        if name.endswith("_raw_s")
    }
    return result, stamp


def incomparable(stamps: list, base_stamp: dict | None) -> str | None:
    """Why these runs cannot be compared with each other or the base."""
    backends = {s["backend"] for s in stamps}
    if base_stamp is not None:
        backends.add(base_stamp["backend"])
    if len(backends) > 1:
        return f"results from different kernel backends: {sorted(backends)}"
    return None


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs: dict, base: dict | None, bounds: dict) -> None:
    for workload, results in runs.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, correct={correct}, failed_frac={failed / attempted:.4g}")
        names = [(k, m["unit"]) for k, m in results[0]["metrics"].items()]
        for name, unit in names + [(k, "s") for k in results[0]["raw"]]:
            values = [r["metrics"][name]["value"] if name in r["metrics"] else r["raw"][name] for r in results]
            med = statistics.median(values)
            line = f"  {name:12} {med:10.4f} {unit:3} spread {spread(values):.3f} (bound {bounds.get(name, '-')})"
            if base is not None and workload in base and name in bounds:
                old = statistics.median(r["metrics"][name]["value"] for r in base[workload])
                line += f"  base {old:10.4f}  change {med / old - 1:+.3f}"
            print(line)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--save")
    p.add_argument("--base")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    base = base_stamp = None
    if args.base:
        with open(args.base, encoding="utf-8") as fh:
            saved = json.load(fh)
        base, base_stamp = saved["runs"], saved["stamp"]
    runs: dict[str, list] = {w: [] for w in names}
    stamps = []
    for i in range(args.runs):
        for w in names:
            result, stamp = run_once(w, args.seed + i, seconds)
            runs[w].append(result)
            stamps.append(stamp)
            why = incomparable(stamps, base_stamp)
            if why:
                print(f"refusing to compare: {why}", file=sys.stderr)
                return 2
    stamp = {k: stamps[0][k] for k in ("backend", "python", "nproc")}
    print("stamp " + json.dumps(stamp))
    summarize(runs, base, bounds)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"stamp": stamp, "seconds": seconds, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
