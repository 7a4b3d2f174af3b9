"""The verify command: suites, report formats, config resolution.

Suite runs here use shrunken bounds; the acceptance tests exercise the
full published bounds. Reproducibility is byte-level apart from the
elapsed_ms line, which is the only wall-clock field.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from hermk import cli, cubes, koszul, symfun
from hermk.cli import (
    Report,
    SUITE_NAMES,
    SuiteConfig,
    UsageError,
    emit_report,
    main,
    run_suite,
)

SMALL = dict(max_dim=2, max_k=2, max_n=2, trials=2, seed=1)


def _small(suite: str, **over) -> SuiteConfig:
    return SuiteConfig(suite=suite, **{**SMALL, **over})


def _strip_elapsed(text: str) -> str:
    return re.sub(r'"?elapsed_ms"?: \d+,?', "", text)


def test_every_suite_passes_at_small_bounds():
    for suite in SUITE_NAMES:
        report = run_suite(_small(suite))
        assert report.checks, suite
        assert report.failed == 0, suite
        assert report.passed == len(report.checks)
        ids = [c.id for c in report.checks]
        assert len(set(ids)) == len(ids)
        assert all(i.startswith(f"{suite}-") for i in ids)


def test_reports_match_recorded_digests():
    # a change that alters a report on purpose shows as a diff to this file
    recorded = json.loads((Path(__file__).parent / "data" / "report_digests.json").read_text())
    assert set(recorded["digests"]) == set(SUITE_NAMES)
    differ = []
    for suite, want in recorded["digests"].items():
        text = emit_report(run_suite(SuiteConfig(suite, seed=recorded["seed"])), "json")
        kept = "".join(l for l in text.splitlines(keepends=True) if '"elapsed_ms"' not in l)
        if hashlib.sha256(kept.encode()).hexdigest() != want:
            differ.append(suite)
    assert differ == []


def test_suite_and_bound_validation():
    with pytest.raises(UsageError):
        run_suite(SuiteConfig(suite="nope"))
    with pytest.raises(UsageError):
        run_suite(_small("symfun", trials=0))
    with pytest.raises(UsageError):
        run_suite(_small("symfun", seed=1 << 64))


def test_runs_are_reproducible():
    first = run_suite(_small("modified-homology"))
    second = run_suite(_small("modified-homology"))
    assert first.checks == second.checks
    assert _strip_elapsed(emit_report(first, "json")) == _strip_elapsed(
        emit_report(second, "json")
    )


def test_json_report_schema():
    report = run_suite(_small("koszul-section"))
    text = emit_report(report, "json")
    obj = json.loads(text)
    assert list(obj) == [
        "suite",
        "seed",
        "bounds",
        "checks",
        "passed",
        "failed",
        "elapsed_ms",
    ]
    assert obj["suite"] == "koszul-section"
    assert obj["seed"] == 1
    assert obj["bounds"] == {"max_dim": 2, "max_k": 2, "max_n": 2, "trials": 2}
    assert obj["passed"] + obj["failed"] == len(obj["checks"])
    for check in obj["checks"]:
        assert list(check) == ["id", "instance", "claim_ref", "pass"]


def test_text_report_lists_each_claim_once():
    report = run_suite(_small("koszul-split"))
    lines = emit_report(report, "text").splitlines()
    assert lines[0] == "suite: koszul-split"
    assert lines[1] == "seed: 1"
    assert lines[2].startswith("bounds: max_dim=2")
    claim_lines = [l for l in lines if l.startswith("claim ")]
    refs = {c.claim_ref for c in report.checks}
    assert len(claim_lines) == len(refs)
    counted = sum(int(l.rsplit("/", 1)[1]) for l in claim_lines)
    assert counted == len(report.checks)
    assert lines[-3:] == [
        f"passed: {report.passed}",
        "failed: 0",
        f"elapsed_ms: {report.elapsed_ms}",
    ]


def test_text_report_names_failing_checks():
    report = Report("demo", 0, {"trials": 1})
    report.checks = [
        cli.Check("demo-000", "trial=0", "claim-a", True),
        cli.Check("demo-001", "trial=1", "claim-a", False),
    ]
    text = emit_report(report, "text")
    assert "claim claim-a: 1/2" in text
    assert "failing:" in text and "demo-001: trial=1" in text


def test_emit_report_rejects_unknown_format():
    with pytest.raises(UsageError):
        emit_report(run_suite(_small("symfun")), "yaml")


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(
        "# comment\n\nmax-dim = 2\nmax_k=2\ntrials = 3\nseed=9\n"
    )
    assert cli._parse_config_file(str(cfg)) == {
        "max_dim": "2",
        "max_k": "2",
        "trials": "3",
        "seed": "9",
    }
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown = 1\n")
    with pytest.raises(UsageError):
        cli._parse_config_file(str(bad))
    bad.write_text("no equals sign\n")
    with pytest.raises(UsageError):
        cli._parse_config_file(str(bad))
    with pytest.raises(UsageError):
        cli._parse_config_file(str(tmp_path / "missing.cfg"))


def _resolve(argv):
    return cli._resolve_config(cli._build_parser().parse_args(argv))


def test_seed_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("HERMK_SEED", "11")
    assert _resolve(["symfun"]).seed == 11
    cfg = tmp_path / "v.cfg"
    cfg.write_text("seed = 22\n")
    assert _resolve(["symfun", "--config", str(cfg)]).seed == 22
    assert (
        _resolve(["symfun", "--config", str(cfg), "--seed", "33"]).seed == 33
    )
    monkeypatch.setenv("HERMK_SEED", "not-a-number")
    with pytest.raises(UsageError):
        _resolve(["symfun"])


def test_config_values_are_validated(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("trials = soon\n")
    with pytest.raises(UsageError):
        _resolve(["symfun", "--config", str(cfg)])
    cfg.write_text("format = yaml\n")
    with pytest.raises(UsageError):
        _resolve(["symfun", "--config", str(cfg)])


def test_main_success_and_stdout(capsys):
    code = main(["symfun", "--trials", "1", "--max-k", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("suite: symfun")


def test_main_writes_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["symfun", "--trials", "1", "--max-k", "2", "--format", "json",
         "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    obj = json.loads(out.read_text())
    assert obj["suite"] == "symfun" and obj["failed"] == 0


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["no-such-suite"]) == 2  # argparse rejects the choice
    assert main(["symfun", "--format", "yaml"]) == 2
    bad_out = tmp_path / "no" / "dir" / "r.txt"
    assert main(["symfun", "--trials", "1", "--out", str(bad_out)]) == 2
    capsys.readouterr()
    monkeypatch.setenv("HERMK_SEED", "zzz")
    assert main(["symfun", "--trials", "1"]) == 2
    assert "HERMK_SEED" in capsys.readouterr().err


def test_main_reports_failures_with_exit_one(monkeypatch, capsys):
    def broken(run):
        run.add("claim-broken", "instance-0", False)

    monkeypatch.setitem(cli._SUITES, "symfun", broken)
    assert main(["symfun"]) == 1
    out = capsys.readouterr().out
    assert "claim claim-broken: 0/1" in out


def test_env_seed_reaches_report(tmp_path, monkeypatch):
    monkeypatch.setenv("HERMK_SEED", "777")
    out = tmp_path / "r.json"
    assert (
        main(["symfun", "--trials", "1", "--format", "json", "--out", str(out)])
        == 0
    )
    assert json.loads(out.read_text())["seed"] == 777


def _symfun_failures() -> set:
    report = run_suite(SuiteConfig("symfun", max_dim=1, max_k=6, max_n=1, trials=1))
    return {(c.claim_ref, c.instance) for c in report.checks if not c.ok}


def test_symfun_catches_a_doctored_newton_coefficient(monkeypatch):
    honest = symfun._p_in_e

    def doctored(k):
        # only the run's top degree: no lower degree the recurrence
        # caches is then built from the doctored one
        terms = honest(k).term_dict()
        if k == 6:
            terms[(6,)] += 1
        return symfun.SymPoly.make("e", terms)

    monkeypatch.setattr(symfun, "_p_in_e", doctored)
    assert _symfun_failures() == {("newton-power-sum-identity", "k=6 nvars=6")}


def test_symfun_catches_a_flipped_composition_sign(monkeypatch):
    honest = cli.complete_from_compositions

    def doctored(k):
        terms = honest(k).term_dict()
        if k == 5:
            terms[(1, 4)] = -terms[(1, 4)]
        return symfun.SymPoly.make("e", terms)

    monkeypatch.setattr(cli, "complete_from_compositions", doctored)
    assert _symfun_failures() == {("complete-by-compositions-identity", "k=5 nvars=6")}


def test_symfun_catches_a_doctored_euler_coefficient(monkeypatch):
    honest = symfun._euler_coeff
    monkeypatch.setattr(
        symfun, "_euler_coeff", lambda k, p: honest(k, p) + ((k, p) == (4, 1))
    )
    assert _symfun_failures() == {("secondary-euler-symfun-identity", "k=4 nvars=6")}


def test_koszul_exactness_claim_catches_a_doctored_section(monkeypatch):
    cfg = SuiteConfig("koszul-section", max_dim=2, max_k=2, max_n=1, trials=1)
    assert run_suite(cfg).failed == 0
    honest = koszul._psi_images
    monkeypatch.setattr(
        koszul, "_psi_images", lambda lab, k: ((t, abs(c)) for t, c in honest(lab, k))
    )
    failing = {(c.claim_ref, c.instance) for c in run_suite(cfg).checks if not c.ok}
    # the sign only shows from two letters in degree 2 on; phi is
    # untouched, so a check by ranks and spans alone would still pass
    assert failing == {
        (ref, f"dim=2 k=2 metric={metric}")
        for ref in ("koszul-complex-exact", "koszul-section-identity")
        for metric in ("standard", "random")
    }


def test_squares_zero_claim_catches_a_dropped_direction_sign(monkeypatch):
    def unsigned(x):
        # cube_differential with every direction weighted +1
        if isinstance(x, cubes.Cube):
            x = cubes.CubeSum.single(x)
        out = cubes.CubeSum(x.n - 1)
        for coeff, cube in x.summands():
            for i in range(1, cube.n + 1):
                for k, s in ((0, 1), (1, -1), (2, 1)):
                    out._add(coeff * s, cubes.face(cube, i, k))
        return out

    cfg = SuiteConfig("cub-relations", seed=1)
    assert run_suite(cfg).failed == 0
    monkeypatch.setattr(cli, "cube_differential", unsigned)
    monkeypatch.setattr(cubes, "cube_differential", unsigned)
    checks = run_suite(cfg).checks
    failing = {(c.claim_ref, c.instance) for c in checks if not c.ok}
    # a 1-cube (flag length 2) has no dd to check
    length3 = {c.instance for c in checks if c.instance.endswith("n=3")}
    assert length3
    squares = {i for ref, i in failing if ref == "cube-differential-squares-zero"}
    assert squares == length3
    assert {ref for ref, _ in failing} == {
        "cube-differential-squares-zero",
        "cub-chain-property",
    }
