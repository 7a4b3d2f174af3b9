"""The variable-count ladder runner (tools/symfun_ladder.py)."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from hermk import cli, symfun

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "symfun_ladder.py"


def _ladder():
    spec = importlib.util.spec_from_file_location("symfun_ladder", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_each_symfun_rung_runs_in_a_fresh_process_and_records_its_cost(tmp_path, capsys):
    out = tmp_path / "ladder.json"
    assert _ladder().main(["--rungs", "3", "4", "3x2", "--save", str(out)]) == 0
    records = json.loads(out.read_text())
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert printed == records
    assert [r.get("nvars") for r in records] == [3, 4, None]
    assert (records[2]["roots"], records[2]["truncation"]) == (3, 2)
    # three identities for every k <= n; two gs-commute checks for every k <= roots
    assert [r["checks"] for r in records] == [9, 12, 6]
    for r in records:
        assert r["correct"] and r["failed"] == 0
        assert not r["timed_out"] and r["cap_s"] == 120
        assert r["cpu_s"] >= 0 and r["peak_rss_mb"] > 0
    assert records[0]["seed_stream"] is None
    assert records[2]["seed_stream"] == "instance_rng(1, k)"


def test_the_symfun_ladder_spawns_through_the_split_ladder():
    ladder = _ladder()
    assert pathlib.Path(ladder.ladder.__file__).resolve() == TOOL.parent / "split_ladder.py"
    assert ladder.DEFAULT_RUNGS == ("12", "14", "16", "8x8")
    assert ladder.parse_rung("12") == (12,) and ladder.parse_rung("8x8") == (8, 8)


def _wrong_degree_two(x, k):
    # degree 2 scaled by k^3 instead of k^2
    parts = dict(symfun.graded_adams(x, k).parts)
    if 2 in parts:
        parts[2] = parts[2].scaled(k)
    return symfun.GradedElement(parts)


@pytest.mark.parametrize(
    "rung, name, doctored",
    [
        ((3,), "koszul_euler_identity", lambda *args: False),
        ((3, 2), "adams_chern_commute", lambda *args: False),
        ((3, 2), "graded_adams", _wrong_degree_two),
    ],
)
def test_a_failing_check_makes_a_symfun_rung_incorrect(monkeypatch, rung, name, doctored):
    ladder = _ladder()
    assert ladder.run_rung(*rung)["correct"]
    monkeypatch.setattr(cli, name, doctored)
    rec = ladder.run_rung(*rung)
    assert not rec["correct"] and rec["failed"] > 0


def test_a_symfun_rung_over_its_cap_or_crashing_fails_the_run(monkeypatch, capsys):
    ladder = _ladder()
    rec = ladder.spawn_rung((3,), 0.001)
    assert rec["timed_out"] and not rec["correct"]
    # truncation 9 is outside the window, so the draw raises in the child
    rec = ladder.spawn_rung((2, 9), 60)
    assert not rec["correct"] and not rec["timed_out"] and rec["returncode"] != 0
    assert "truncation degree must be in 0..8" in rec["stderr_tail"][-1]
    monkeypatch.setattr(ladder.ladder, "CAP_S", 0.001)
    assert ladder.main(["--rungs", "3"]) == 1
