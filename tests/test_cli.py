"""The verify command: suites, report formats, config resolution.

Suite runs here use shrunken bounds; the acceptance tests exercise the
full published bounds. Reproducibility is byte-level apart from the
elapsed_ms line, which is the only wall-clock field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from hermk import cli, cubes, koszul, symfun
from hermk import homology as hom
from hermk import instances as inst
from hermk import linalg as la
from hermk.core import MetrizedSpace, SpaceMap
from hermk.cli import (
    Report,
    SUITE_NAMES,
    SuiteConfig,
    UsageError,
    emit_report,
    main,
    run_suite,
)
from test_homology import _bump

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


def test_unreadable_config_files_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe max_dim=2\n")
    nul = tmp_path / "nul.cfg"
    nul.write_bytes(b"max_dim=2\0\n")
    for path in (bad, tmp_path, nul):
        assert main(["symfun", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("verify: ")
        # a NUL byte reads, and its value is refused
        assert ("cannot read config file" in err) == (path != nul)


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
        terms = dict(honest(k).terms)
        if k == 6:
            terms[(6,)] += 1
        return symfun.SymPoly("e", terms)

    monkeypatch.setattr(symfun, "_p_in_e", doctored)
    assert _symfun_failures() == {("newton-power-sum-identity", "k=6 nvars=6")}


def test_symfun_catches_a_flipped_composition_sign(monkeypatch):
    honest = cli.complete_from_compositions

    def doctored(k):
        terms = dict(honest(k).terms)
        if k == 5:
            terms[(1, 4)] = -terms[(1, 4)]
        return symfun.SymPoly("e", terms)

    monkeypatch.setattr(cli, "complete_from_compositions", doctored)
    assert _symfun_failures() == {("complete-by-compositions-identity", "k=5 nvars=6")}


def test_symfun_catches_a_doctored_euler_coefficient(monkeypatch):
    honest = symfun._euler_coeff
    monkeypatch.setattr(
        symfun, "_euler_coeff", lambda k, p: honest(k, p) + ((k, p) == (4, 1))
    )
    assert _symfun_failures() == {("secondary-euler-symfun-identity", "k=4 nvars=6")}


def test_gs_commute_claims_catch_a_wrong_degree_two_power(monkeypatch):
    honest = symfun.graded_adams

    def doctored(x, k):
        # degree 2 scaled by k^3 instead of k^2
        parts = dict(honest(x, k).parts)
        if 2 in parts:
            c = parts[2]
            parts[2] = c.scaled(Fraction(k))
        return symfun.GradedElement(parts)

    monkeypatch.setattr(symfun, "graded_adams", doctored)
    monkeypatch.setattr(cli, "graded_adams", doctored)
    report = run_suite(SuiteConfig("gs-commute", seed=0))
    failing = {(c.claim_ref, c.instance) for c in report.checks if not c.ok}
    desc = "k={} roots={} truncation=6"
    # k = 1 is untouched; at k = 3 with one or two roots the second
    # bundle draws only zero roots, and a product with a degree-0
    # element is multiplicative under any degreewise scaling fixing
    # degree 0
    assert failing == (
        {("chern-character-adams-commute", desc.format(k, r)) for k in (2, 3) for r in (1, 2, 3)}
        | {("graded-adams-multiplicative", desc.format(2, r)) for r in (1, 2, 3)}
        | {("graded-adams-multiplicative", desc.format(3, 3))}
    )


def test_koszul_exactness_claim_catches_a_doctored_section(monkeypatch):
    cfg = SuiteConfig("koszul-section", max_dim=2, max_k=2, max_n=1, trials=1)
    assert run_suite(cfg).failed == 0
    honest = cli.koszul_section

    def unsigned(c, p):
        s = honest(c, p)
        rows = tuple(tuple(abs(x) for x in row) for row in s.matrix.entries)
        return SpaceMap(s.domain, s.codomain, la.Mat(rows, s.matrix.entries.ncols))

    monkeypatch.setattr(cli, "koszul_section", unsigned)
    failing = {(c.claim_ref, c.instance) for c in run_suite(cfg).checks if not c.ok}
    # the sign only shows from two letters in degree 2 on; phi is
    # untouched, so a check by ranks and spans alone would still pass
    assert failing == {
        (ref, f"dim=2 k=2 metric={metric}")
        for ref in ("koszul-complex-exact", "koszul-section-identity")
        for metric in ("standard", "random")
    }
    # the same sign dropped from the rule psi is built from: koszul_complex
    # certifies itself with that rule, so the suite stops at construction
    monkeypatch.setattr(cli, "koszul_section", honest)
    rule = koszul._psi_images
    monkeypatch.setattr(koszul, "_psi_images", lambda lab: ((t, abs(c)) for t, c in rule(lab)))
    with pytest.raises(ValueError, match="not the identity"):
        run_suite(cfg)


@pytest.mark.parametrize(
    "verdict, claim",
    [(True, "unrescaled-koszul-not-split"), (False, "rescaled-koszul-splits-orthogonally")],
)
def test_split_claims_catch_a_constant_splitting_test(monkeypatch, verdict, claim):
    cfg = SuiteConfig("koszul-split", max_dim=2, max_k=3, max_n=1, trials=1)
    honest = run_suite(cfg)
    assert honest.failed == 0
    monkeypatch.setattr(cli, "is_hermitian_split", lambda ses: verdict)
    failing = {(c.claim_ref, c.instance) for c in run_suite(cfg).checks if not c.ok}
    assert failing == {(c.claim_ref, c.instance) for c in honest.checks if c.claim_ref == claim}
    assert failing


@pytest.mark.parametrize(
    "verdict, claims",
    [
        (True, {"non-orthogonal-control"}),
        (False, {"direct-sum-cube-splits", "associated-sum-cube-splits", "rescaled-koszul-cube-splits"}),
    ],
)
def test_split_cube_claims_catch_a_constant_splitting_test(monkeypatch, verdict, claims):
    cfg = SuiteConfig("split-cubes", max_dim=3, max_k=3, max_n=2, trials=2)
    honest = run_suite(cfg)
    assert honest.failed == 0
    monkeypatch.setattr(cubes, "is_hermitian_split", lambda ses: verdict)
    failing = {(c.claim_ref, c.instance) for c in run_suite(cfg).checks if not c.ok}
    assert failing == {(c.claim_ref, c.instance) for c in honest.checks if c.claim_ref in claims}
    assert {ref for ref, _ in failing} == claims


def test_split_suite_builds_each_kernel_sequence_once(monkeypatch):
    # a complex and its rescaling share one kernel per map and one
    # exactness check per sequence, and no coordinate is solved for
    calls = dict.fromkeys(("kernel_object", "is_exact", "solve"), 0)

    def count(owner, name):
        honest = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return honest(*args)

        monkeypatch.setattr(owner, name, counted)

    count(koszul, "kernel_object")
    count(la, "is_exact")
    count(la, "solve")
    cfg = SuiteConfig("koszul-split", max_dim=2, max_k=3, max_n=1, trials=1)
    assert run_suite(cfg).failed == 0
    # two metrics per dimension, k maps in the degree-k complex
    maps = 2 * cfg.max_dim * sum(range(1, cfg.max_k + 1))
    assert calls == {"kernel_object": maps, "is_exact": maps, "solve": 0}


def test_sum_isometry_claim_catches_a_perturbed_gram(monkeypatch):
    cfg = SuiteConfig("koszul-sum", max_dim=2, max_k=2, max_n=1, trials=1)
    honest_report = run_suite(cfg)
    assert honest_report.failed == 0
    honest = koszul.koszul_sum_rhs

    def perturbed(v, w, k):
        # the split side built from w with the norm of its second basis
        # vector doubled, which keeps the Gram positive definite
        if w.dim < 2:
            return honest(v, w, k)
        rows = [list(row) for row in w.gram]
        rows[1][1] *= 2
        return honest(v, MetrizedSpace(w.labels, la.mat(rows)), k)

    monkeypatch.setattr(koszul, "koszul_sum_rhs", perturbed)
    report = run_suite(cfg)
    failing = {(c.claim_ref, c.instance) for c in report.checks if not c.ok}
    assert failing == {
        ("koszul-sum-isometry", c.instance)
        for c in honest_report.checks
        if "dim_w=2" in c.instance
    }
    assert len(failing) == 8


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


def test_face_and_degeneracy_claims_catch_swapped_degeneracy_kinds(monkeypatch):
    cfg = SuiteConfig("cub-relations", seed=1)
    honest_checks = run_suite(cfg).checks
    assert all(c.ok for c in honest_checks)
    honest = cubes.degeneracy
    monkeypatch.setattr(cubes, "degeneracy", lambda c, i, kind: honest(c, i, 1 - kind))
    checks = run_suite(cfg).checks
    failing = {(c.claim_ref, c.instance) for c in checks if not c.ok}
    every = {c.instance for c in honest_checks}
    length3 = {i for i in every if i.endswith("n=3")}
    assert length3 and length3 != every
    # every degeneracy relation compares against a degenerate cube; the
    # face relations of a 1-cube (flag length 2) need no degeneracy; the
    # chain property reads the same function when it tests residues for
    # degeneracy, and a length-3 flag leaves residues to test
    assert failing == (
        {("cub-degeneracy-relations", i) for i in every}
        | {("cub-face-relations", i) for i in length3}
        | {("cub-chain-property", i) for i in length3}
    )


def test_degeneracy_claims_catch_a_flag_degeneracy_off_by_one(monkeypatch):
    honest = cubes.Flag.degeneracy

    def off_by_one(flag, i):
        # repeats entry i + 1 where the flag has one, instead of entry i
        if 1 <= i < flag.length:
            return flag._derive(flag.bases[:i] + (flag.bases[i],) + flag.bases[i:])
        return honest(flag, i)

    monkeypatch.setattr(cubes.Flag, "degeneracy", off_by_one)
    failing, every = {}, {}
    for suite in ("cubsdeg", "homotopy", "cub-relations"):
        checks = run_suite(SuiteConfig(suite, seed=1)).checks
        every[suite] = {c.instance for c in checks}
        failing[suite] = {(c.claim_ref, c.instance) for c in checks if not c.ok}
    # the residue and the homotopy identity are wrong only at i = 1 of
    # a three-step flag; every paired-faces and degeneracy relation is
    first3 = {i for i in every["cubsdeg"] if i.endswith("n=3 i=1")}
    assert failing["cubsdeg"] == (
        {("degenerate-cube-differential-residue", i) for i in first3}
        | {("paired-faces-agree", i) for i in every["cubsdeg"]}
    )
    assert len(first3) == 4 and len(every["cubsdeg"]) == 12
    first3 = {i for i in every["homotopy"] if i.endswith("n=3 i=1")}
    assert failing["homotopy"] == {("filtration-homotopy-identity", i) for i in first3}
    assert len(first3) == 4 and len(every["homotopy"]) == 12
    assert failing["cub-relations"] == {
        ("cub-degeneracy-relations", i) for i in every["cub-relations"]
    }
    assert len(every["cub-relations"]) == 8


# The modified-homology claims: each doctored input below must fail
# exactly its own claim, so that presentations shared through the
# per-object tables cannot make a checker vacuous.
MODIFIED = SuiteConfig("modified-homology", seed=1)


def _modified_failures() -> set:
    return {c.claim_ref for c in run_suite(MODIFIED).checks if not c.ok}


def test_sequences_claim_catches_a_zeroed_cycle_class_map(monkeypatch):
    honest = hom.modified_maps

    def doctored(f, n):
        # hat H_n -> H_n(A) sent to zero: sequence (b) is then not onto
        # wherever H_n(A) is nonzero
        mm = honest(f, n)
        return dataclasses.replace(mm, to_cycle_class=la.zeros(*la.shape(mm.to_cycle_class)))

    monkeypatch.setattr(hom, "modified_maps", doctored)
    assert _modified_failures() == {"modified-sequences-exact"}


def test_two_routes_claim_catches_a_flipped_cone_sign(monkeypatch):
    def via_flipped_cone(f, n):
        # H_n of the cone with d(a, b) = (d a, -f(a) - d b): the same
        # dimension as the honest group, but other boundaries on
        # A_n (+) B_{n+1}, so only a comparison of spans sees it
        t = hom.truncated_map(f, n)
        neg = hom.ChainMap(t.source, t.target, {r: la.scale(m, -1) for r, m in t.maps.items()})
        return hom.homology(hom.cone(neg), n)

    dims_agree = []
    honest_same = cli._same_presentation

    def spy(direct, via):
        dims_agree.append(direct.dim == via.dim)
        return honest_same(direct, via)

    monkeypatch.setattr(cli, "modified_homology_via_cone", via_flipped_cone)
    monkeypatch.setattr(cli, "_same_presentation", spy)
    assert _modified_failures() == {"modified-homology-two-routes"}
    assert all(dims_agree)


def test_cone_sequence_claim_catches_a_doctored_induced_map(monkeypatch):
    trial_maps = []
    honest_checks = cli._modified_checks

    def recording(run, desc, f, rng):
        trial_maps.append(f)
        honest_checks(run, desc, f, rng)

    honest = hom.induced_on_quotients

    def doctored(m, src, dst):
        # only cone_les_check induces a trial map's own components on
        # homology; random trial maps are null-homotopic, so one nonzero
        # entry makes H_n(f) miss the image of the cone
        out = honest(m, src, dst)
        own = any(m is c for f in trial_maps for c in f.maps.values())
        return _bump(out, 0, 0) if own and out and out[0] else out

    monkeypatch.setattr(cli, "_modified_checks", recording)
    monkeypatch.setattr(hom, "induced_on_quotients", doctored)
    assert _modified_failures() == {"cone-long-exact"}


class _TruncatedOneLow(hom.ChainMap):
    """A chain map whose truncation above n keeps degree n."""

    __slots__ = ()

    def truncated_map(self, n):
        return super().truncated_map(n - 1)


def test_truncated_cone_claim_catches_an_off_by_one_truncation(monkeypatch):
    honest = cli.truncated_cone_cases

    def doctored(f, n):
        return honest(_TruncatedOneLow(f.source, f.target, f.maps, check=False), n)

    monkeypatch.setattr(cli, "truncated_cone_cases", doctored)
    assert _modified_failures() == {"truncated-cone-three-regimes"}


def test_quasi_iso_claim_catches_a_map_that_kills_homology(monkeypatch):
    # d h + h d with no identity part induces zero on homology, so it is
    # no quasi-isomorphism wherever the source has homology
    monkeypatch.setattr(
        inst, "random_quasi_iso", lambda rng, a: inst._homotopy_built_map(rng, a, a, Fraction(0))
    )
    assert _modified_failures() == {"modified-quasi-iso-invariance"}


# claim -> the test above whose doctored input makes verify fail it
CONTROLS = {
    "newton-power-sum-identity": "test_symfun_catches_a_doctored_newton_coefficient",
    "complete-by-compositions-identity": "test_symfun_catches_a_flipped_composition_sign",
    "secondary-euler-symfun-identity": "test_symfun_catches_a_doctored_euler_coefficient",
    "chern-character-adams-commute": "test_gs_commute_claims_catch_a_wrong_degree_two_power",
    "graded-adams-multiplicative": "test_gs_commute_claims_catch_a_wrong_degree_two_power",
    "koszul-complex-exact": "test_koszul_exactness_claim_catches_a_doctored_section",
    "koszul-section-identity": "test_koszul_exactness_claim_catches_a_doctored_section",
    "rescaled-koszul-splits-orthogonally": "test_split_claims_catch_a_constant_splitting_test",
    "unrescaled-koszul-not-split": "test_split_claims_catch_a_constant_splitting_test",
    "direct-sum-cube-splits": "test_split_cube_claims_catch_a_constant_splitting_test",
    "associated-sum-cube-splits": "test_split_cube_claims_catch_a_constant_splitting_test",
    "rescaled-koszul-cube-splits": "test_split_cube_claims_catch_a_constant_splitting_test",
    "non-orthogonal-control": "test_split_cube_claims_catch_a_constant_splitting_test",
    "koszul-sum-isometry": "test_sum_isometry_claim_catches_a_perturbed_gram",
    "cube-differential-squares-zero": "test_squares_zero_claim_catches_a_dropped_direction_sign",
    "cub-chain-property": "test_squares_zero_claim_catches_a_dropped_direction_sign",
    "cub-face-relations": "test_face_and_degeneracy_claims_catch_swapped_degeneracy_kinds",
    "cub-degeneracy-relations": "test_face_and_degeneracy_claims_catch_swapped_degeneracy_kinds",
    "modified-sequences-exact": "test_sequences_claim_catches_a_zeroed_cycle_class_map",
    "modified-homology-two-routes": "test_two_routes_claim_catches_a_flipped_cone_sign",
    "cone-long-exact": "test_cone_sequence_claim_catches_a_doctored_induced_map",
    "truncated-cone-three-regimes": "test_truncated_cone_claim_catches_an_off_by_one_truncation",
    "modified-quasi-iso-invariance": "test_quasi_iso_claim_catches_a_map_that_kills_homology",
    "degenerate-cube-differential-residue": "test_degeneracy_claims_catch_a_flag_degeneracy_off_by_one",
    "paired-faces-agree": "test_degeneracy_claims_catch_a_flag_degeneracy_off_by_one",
    "filtration-homotopy-identity": "test_degeneracy_claims_catch_a_flag_degeneracy_off_by_one",
}
# claims that no doctored input in this file fails yet
WITHOUT_CONTROL = set()


def test_every_claim_has_a_control_or_is_listed_without_one():
    # a new claim fails here until a control names it or it joins
    # WITHOUT_CONTROL
    claims = {c.claim_ref for suite in SUITE_NAMES for c in run_suite(_small(suite)).checks}
    assert not set(CONTROLS) & WITHOUT_CONTROL
    assert claims == set(CONTROLS) | WITHOUT_CONTROL
    for claim, name in CONTROLS.items():
        test = globals()[name]
        # the control asserts which claims fail, so it names this one
        assert claim in inspect.getsource(test), (claim, name)
