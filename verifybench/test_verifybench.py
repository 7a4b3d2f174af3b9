"""Tests of the benchmark's own machinery: the checker with its negative
controls and check-count guard, request generation, and the tracer.

    python3 -m pytest -q verifybench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from hermk import cli  # noqa: E402

import checker  # noqa: E402
from compare import incomparable  # noqa: E402
from run import ROOT, _metric_name  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import _micro  # noqa: E402
from workloads import BOUND_NAMES, WORKLOADS, requests  # noqa: E402

# every suite at bounds small enough to run in a few seconds in total
SMALL = [
    {"suite": "koszul-split", "max_dim": 2, "max_k": 2, "max_n": 3, "trials": 1},
    {"suite": "koszul-section", "max_dim": 2, "max_k": 2, "max_n": 3, "trials": 1},
    {"suite": "koszul-sum", "max_dim": 1, "max_k": 2, "max_n": 3, "trials": 1},
    {"suite": "symfun", "max_dim": 1, "max_k": 3, "max_n": 1, "trials": 1},
    {"suite": "gs-commute", "max_dim": 2, "max_k": 2, "max_n": 2, "trials": 1},
    {"suite": "modified-homology", "max_dim": 1, "max_k": 1, "max_n": 1, "trials": 1},
    {"suite": "cub-relations", "max_dim": 1, "max_k": 1, "max_n": 2, "trials": 1},
    {"suite": "cubsdeg", "max_dim": 1, "max_k": 1, "max_n": 4, "trials": 3},
    {"suite": "homotopy", "max_dim": 1, "max_k": 1, "max_n": 3, "trials": 2},
    {"suite": "split-cubes", "max_dim": 1, "max_k": 2, "max_n": 2, "trials": 1},
]


def _report(req: dict) -> str:
    return cli.emit_report(cli.run_suite(cli.SuiteConfig(format="json", **req)), "json")


@pytest.fixture(scope="module")
def reports():
    reqs = [dict(r, seed=7) for r in SMALL]
    return [(r, _report(r)) for r in reqs]


def test_small_bounds_cover_every_suite():
    assert {r["suite"] for r in SMALL} == set(cli.SUITE_NAMES)


def test_checker_accepts_every_real_report(reports):
    for req, text in reports:
        assert checker.check_report(req, text) == [], req["suite"]


def test_negative_controls_are_rejected(reports):
    # an always-accepting checker fails here
    for req, text in reports:
        for label, bad in checker.doctored(text).items():
            assert checker.check_report(req, bad), (req["suite"], label)


def test_guard_catches_a_check_dropped_mid_trial(reports):
    req, text = next((r, t) for r, t in reports if r["suite"] == "cubsdeg")
    rep = json.loads(text)
    del rep["checks"][1]
    for i, c in enumerate(rep["checks"]):
        c["id"] = f"cubsdeg-{i:03d}"
    rep["passed"] -= 1
    problems = checker.check_report(req, json.dumps(rep))
    assert any("check counts" in p for p in problems)


def test_guard_catches_a_dropped_trial(reports):
    req, text = next((r, t) for r, t in reports if r["suite"] == "homotopy")
    rep = json.loads(text)
    keep = [c for c in rep["checks"] if not c["instance"].startswith("trial=1 ")]
    for i, c in enumerate(keep):
        c["id"] = f"homotopy-{i:03d}"
    rep["passed"] = len(keep)
    rep["checks"] = keep
    assert any("trial 1" in p for p in checker.check_report(req, json.dumps(rep)))


def test_report_for_another_request_is_rejected(reports):
    req, text = reports[0]
    assert checker.check_report(dict(req, seed=8), text)


def test_requests_follow_the_seed():
    for w in WORKLOADS:
        assert requests(w, 3) == requests(w, 3)
        assert requests(w, 3) != requests(w, 4)
        for r in requests(w, 3):
            assert set(r) == {"suite", "seed", *BOUND_NAMES}
            cli.SuiteConfig(**r)


def test_traced_reports_equal_untraced_and_layers_are_separated():
    reqs = [dict(r, seed=5) for r in SMALL if r["suite"] in ("symfun", "cubsdeg")]
    plain = [json.loads(_report(r)) for r in reqs]
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for i, r in enumerate(reqs):
            tracer.begin_request(i)
            traced.append(json.loads(_report(r)))
    finally:
        tracer.uninstall()
    for a, b in zip(plain, traced):
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
        assert a == b
    m = tracer.metrics()
    assert m["cli.run_suite.calls"] == 2
    assert m["symfun.calls"] > 0 and m["cubes.calls"] > 0
    assert m["_qkernels.rref.calls"] > 0 and m["_qkernels.rref.cells"] > 0
    assert m["linalg.self_s"] > 0
    # uninstall restores the original bindings
    assert cli.run_suite.__module__ == "hermk.cli"
    assert cli.run_suite.__name__ == "run_suite"


def test_symfun_makes_no_linalg_call():
    req = next(dict(r, seed=1) for r in SMALL if r["suite"] == "symfun")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_request(0)
        _report(req)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["linalg.calls"] == 0
    assert m["_qkernels.calls"] == 0
    assert m["_qkernels.rref.cells"] == 0
    assert m["symfun.calls"] > 0


def test_traced_run_yields_every_per_layer_metric():
    # run.py adds the kernel micro-cases and these two to the tracer's
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = {m["name"] for m in json.load(fh)["per_layer"]}
    tracer = Tracer()
    tracer.install()
    try:
        for i, r in enumerate(SMALL):
            tracer.begin_request(i)
            _report(dict(r, seed=3))
    finally:
        tracer.uninstall()
    measured = {_metric_name(k) for k in [*tracer.metrics(), *_micro()]}
    assert wanted - measured == {"cli.checks", "trace.overhead_frac"}


def test_results_from_different_backends_are_not_compared():
    pure = {"backend": "pure", "python": "3.11.7", "nproc": 2}
    fast = dict(pure, backend="fast")
    assert incomparable([pure, pure], None) is None
    assert incomparable([pure], dict(pure, nproc=8)) is None
    assert incomparable([pure, fast], None)
    assert incomparable([pure], fast)
