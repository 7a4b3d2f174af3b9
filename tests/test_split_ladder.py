"""The Koszul split ladder runner (tools/split_ladder.py)."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from hermk import core

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "split_ladder.py"


def _ladder(path=TOOL):
    spec = importlib.util.spec_from_file_location("split_ladder", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_each_rung_runs_in_a_fresh_process_and_records_its_cost(tmp_path, capsys):
    out = tmp_path / "ladder.json"
    assert _ladder().main(["--rungs", "2x2", "3x2", "--save", str(out)]) == 0
    records = json.loads(out.read_text())
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert printed == records
    assert [(r["dim"], r["k"], r["metric"]) for r in records] == [
        (2, 2, "standard"), (2, 2, "random"), (3, 2, "standard"), (3, 2, "random")
    ]
    for r in records:
        assert r["correct"] and r["rescaled_split"] and not r["plain_split"]
        assert not r["timed_out"] and r["cap_s"] == 120
        assert r["cpu_s"] >= 0 and r["peak_rss_mb"] > 0
    assert records[0]["seed_stream"] is None
    assert records[1]["seed_stream"] == "random_space(instance_rng(1, 0), dim)"


@pytest.mark.parametrize("verdict", [True, False])
def test_a_constant_split_test_makes_a_rung_incorrect(monkeypatch, verdict):
    ladder = _ladder()
    assert ladder.run_rung(2, 2, "random")["correct"]
    monkeypatch.setattr(core, "is_hermitian_split", lambda ses: verdict)
    assert not ladder.run_rung(2, 2, "random")["correct"]


def test_a_rung_over_its_cap_is_killed_and_fails_the_run(monkeypatch, capsys):
    ladder = _ladder()
    rec = ladder.spawn_rung(2, 2, "standard", 0.001)
    assert rec["timed_out"] and not rec["correct"]
    monkeypatch.setattr(ladder, "CAP_S", 0.001)
    assert ladder.main(["--rungs", "2x2"]) == 1


def test_a_rung_whose_certificate_raises_is_recorded_and_fails_the_run(tmp_path, capsys):
    # A copy of the tool whose child doubles every section candidate, so
    # that P C = 2 I and certify_complement raises in the child process.
    src = TOOL.read_text()
    root_line = "ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))\n"
    imports = "    from hermk.koszul import koszul_complex, lambda_rescale, mu_decompose\n"
    assert src.count(root_line) == 1 and src.count(imports) == 1
    doctored = tmp_path / "split_ladder.py"
    doctored.write_text(
        src.replace(root_line, f"ROOT = {str(TOOL.parent.parent)!r}\n").replace(
            imports,
            imports
            + "    import hermk.koszul as hk, hermk.linalg as la\n"
            + "    hk._section_complement = lambda s, j, m: la.scale(la.matmul(s[j], m), 2)\n",
        )
    )
    ladder = _ladder(doctored)
    rec = ladder.spawn_rung(2, 2, "random", 60)
    assert not rec["correct"] and not rec["timed_out"] and rec["returncode"] != 0
    assert "not a section of the projection" in rec["stderr_tail"][-1]
    out = tmp_path / "ladder.json"
    assert ladder.main(["--rungs", "2x2", "3x2", "--save", str(out)]) == 1
    records = json.loads(out.read_text())
    assert len(records) == 4 and not any(r["correct"] for r in records)


# -- the complex-size ladder (tools/complex_ladder.py) ---------------------

COMPLEX_TOOL = TOOL.parent / "complex_ladder.py"
FIVE_CHECKS = {
    "modified-sequences-exact",
    "modified-homology-two-routes",
    "cone-long-exact",
    "truncated-cone-three-regimes",
    "modified-quasi-iso-invariance",
}


def test_each_complex_rung_runs_in_a_fresh_process_and_records_its_cost(tmp_path, capsys):
    out = tmp_path / "ladder.json"
    assert _ladder(COMPLEX_TOOL).main(["--rungs", "4x4", "6x6", "--save", str(out)]) == 0
    records = json.loads(out.read_text())
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert printed == records
    assert [(r["L"], r["D"]) for r in records] == [(4, 4), (6, 6)]
    for r in records:
        assert r["correct"] and set(r["checks"]) == FIVE_CHECKS and all(r["checks"].values())
        assert not r["timed_out"] and r["cap_s"] == 120
        assert r["cpu_s"] >= 0 and r["peak_rss_mb"] > 0
        assert r["seed_stream"] == f"instance_rng(1, {r['L']})"
    # the rungs draw different complexes
    assert records[0]["dims"] != records[1]["dims"]


def test_the_complex_ladder_spawns_through_the_split_ladder():
    complex_ladder = _ladder(COMPLEX_TOOL)
    assert pathlib.Path(complex_ladder.ladder.__file__).resolve() == TOOL
    assert complex_ladder.ladder.CAP_S == 120


@pytest.mark.parametrize("check", ["verify_modified_sequences", "cone_les_check", "truncated_cone_cases"])
def test_a_failing_check_makes_a_complex_rung_incorrect(monkeypatch, check):
    from hermk import cli

    complex_ladder = _ladder(COMPLEX_TOOL)
    assert complex_ladder.run_rung(6, 6)["correct"]
    monkeypatch.setattr(cli, check, lambda *args: [("doctored", False)] if check.startswith("verify") else False)
    rec = complex_ladder.run_rung(6, 6)
    assert not rec["correct"] and list(rec["checks"].values()).count(False) == 1


def test_a_complex_rung_over_its_cap_or_crashing_fails_the_run(monkeypatch, capsys):
    complex_ladder = _ladder(COMPLEX_TOOL)
    rec = complex_ladder.spawn_rung(4, 4, 0.001)
    assert rec["timed_out"] and not rec["correct"]
    # a negative dimension bound makes the draw raise in the child
    rec = complex_ladder.spawn_rung(4, -1, 60)
    assert not rec["correct"] and not rec["timed_out"] and rec["returncode"] != 0
    assert rec["stderr_tail"] and "Error" in rec["stderr_tail"][-1]
    monkeypatch.setattr(complex_ladder.ladder, "CAP_S", 0.001)
    assert complex_ladder.main(["--rungs", "4x4"]) == 1
