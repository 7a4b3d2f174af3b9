"""The Koszul build ladder runner (tools/koszul_ladder.py)."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from hermk import koszul

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "koszul_ladder.py"


def _ladder():
    spec = importlib.util.spec_from_file_location("koszul_ladder", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_each_koszul_rung_runs_in_a_fresh_process_and_records_its_cost(tmp_path, capsys):
    out = tmp_path / "ladder.json"
    assert _ladder().main(["--rungs", "2x2", "3x3", "--save", str(out)]) == 0
    records = json.loads(out.read_text())
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert printed == records
    assert [(r["dim"], r["k"], r["metric"]) for r in records] == [(2, 2, "standard"), (3, 3, "standard")]
    assert [r["dims"] for r in records] == [[1, 4, 3], [1, 9, 18, 10]]
    for r in records:
        assert r["correct"] and not r["timed_out"] and r["cap_s"] == 120
        assert r["seed_stream"] is None
        assert r["runs"] == 3
        assert 0 <= r["cpu_s_min"] <= r["cpu_s"] <= r["cpu_s_max"] and r["peak_rss_mb"] > 0


def test_the_koszul_ladder_spawns_through_the_split_ladder():
    ladder = _ladder()
    assert pathlib.Path(ladder.ladder.__file__).resolve() == TOOL.parent / "split_ladder.py"
    # (7, 7) took 3.3 GB, so it is no default rung
    assert ladder.DEFAULT_RUNGS == ("6x6", "6x7", "7x6")


_honest = koszul.koszul_complex


def _one_degree_short(v, k):
    # the object dimensions do not match the rung
    return _honest(v, k - 1)


def _not_flagged_acyclic(v, k):
    c = _honest(v, k)
    return koszul.HermitianComplex(c.objects, c.maps)


@pytest.mark.parametrize("doctored", [_one_degree_short, _not_flagged_acyclic])
def test_a_wrong_complex_makes_a_koszul_rung_incorrect(monkeypatch, doctored):
    ladder = _ladder()
    assert ladder.run_rung(2, 3)["correct"]
    monkeypatch.setattr(koszul, "koszul_complex", doctored)
    assert not ladder.run_rung(2, 3)["correct"]


def test_a_failing_certificate_raises_in_the_rung(monkeypatch):
    # the sign dropped from the rule psi is built from: the certificate
    # of koszul_complex refuses the complex
    rule = koszul._psi_images
    monkeypatch.setattr(koszul, "_psi_images", lambda lab: ((t, abs(c)) for t, c in rule(lab)))
    with pytest.raises(ValueError, match="not the identity"):
        _ladder().run_rung(2, 3)


def test_a_koszul_rung_over_its_cap_or_crashing_fails_the_run(monkeypatch, capsys):
    ladder = _ladder()
    rec = ladder.spawn_rung(2, 2, 0.001)
    assert rec["timed_out"] and not rec["correct"]
    # a negative degree makes the build raise in the child
    rec = ladder.spawn_rung(2, -1, 60)
    assert not rec["correct"] and not rec["timed_out"] and rec["returncode"] != 0
    assert "degree must be >= 0" in rec["stderr_tail"][-1]
    monkeypatch.setattr(ladder.ladder, "CAP_S", 0.001)
    assert ladder.main(["--rungs", "2x2"]) == 1
