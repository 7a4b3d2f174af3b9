"""The Koszul split ladder runner (tools/split_ladder.py)."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess

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
        _assert_repeated_cost(r)
    assert records[0]["seed_stream"] is None
    assert records[1]["seed_stream"] == "random_space(instance_rng(1, 0), dim)"


def _assert_repeated_cost(r):
    """A rung's record carries the median CPU seconds of its runs with
    their min and max, and the largest peak resident set."""
    assert r["runs"] == 3
    assert 0 <= r["cpu_s_min"] <= r["cpu_s"] <= r["cpu_s_max"] and r["peak_rss_mb"] > 0


def test_a_rung_runs_three_times_and_records_the_median(monkeypatch):
    ladder = _ladder()
    assert ladder.REPEATS == 3
    runs = iter([
        {"cpu_s": 0.5, "peak_rss_mb": 30.0, "correct": True, "order": 1},
        {"cpu_s": 0.2, "peak_rss_mb": 32.5, "correct": True, "order": 2},
        {"cpu_s": 0.9, "peak_rss_mb": 31.0, "correct": True, "order": 3},
    ])
    cmds = []

    def fake_run(cmd, **kwargs):
        cmds.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout="noise\n" + json.dumps(next(runs)) + "\n")

    monkeypatch.setattr(ladder.subprocess, "run", fake_run)
    rec = ladder.spawn(str(TOOL), ["2x2", "standard"], {"dim": 2}, 60)
    assert len(cmds) == 3 and cmds[0] == cmds[1] == cmds[2]
    assert rec == {
        "dim": 2, "order": 1, "timed_out": False, "runs": 3, "cpu_s": 0.5,
        "cpu_s_min": 0.2, "cpu_s_max": 0.9, "peak_rss_mb": 32.5, "correct": True,
    }


@pytest.mark.parametrize("fault", ["incorrect", "timeout", "crash"])
def test_one_bad_run_spoils_the_rung(monkeypatch, fault):
    # an incorrect run makes the rung incorrect; a killed or failed run
    # ends it there, with no further runs
    ladder = _ladder()
    cmds = []

    def fake_run(cmd, **kwargs):
        cmds.append(cmd)
        if len(cmds) == 2:
            if fault == "timeout":
                raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])
            if fault == "crash":
                raise subprocess.CalledProcessError(1, cmd, stderr="Traceback\nValueError: boom\n")
        ok = not (fault == "incorrect" and len(cmds) == 2)
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps({"cpu_s": 0.1, "peak_rss_mb": 1.0, "correct": ok}))

    monkeypatch.setattr(ladder.subprocess, "run", fake_run)
    rec = ladder.spawn(str(TOOL), ["2x2", "standard"], {}, 60)
    assert not rec["correct"]
    assert len(cmds) == (3 if fault == "incorrect" else 2)
    assert rec["timed_out"] == (fault == "timeout")
    if fault == "crash":
        assert rec["returncode"] == 1 and rec["stderr_tail"] == ["Traceback", "ValueError: boom"]


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
        _assert_repeated_cost(r)
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
