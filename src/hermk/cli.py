"""Batch verification harness.

    verify <suite> [--max-dim N] [--max-k N] [--max-n N] [--trials N]
                   [--seed U64] [--format text|json] [--out PATH]
                   [--config PATH]

Settings resolve in precedence order: command line over config file
over the HERMK_SEED environment variable (seed only) over built-in
defaults. The config file is line-based key=value with the long flag
names (hyphens or underscores). Every random instance draws from its
own counter-derived stream, so a report is byte-identical across runs
and check orderings, the elapsed_ms field aside. Exit status: 0 all
checks pass, 1 at least one fails, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import instances as inst
from . import linalg as la
from .core import (
    ZERO_SPACE,
    MetrizedSpace,
    SpaceMap,
    is_hermitian_split,
    standard_space,
)
from .cubes import (
    Cube,
    associated_sum_cube,
    cub,
    cub_chain_property,
    cub_degenerate_differential,
    cub_degeneracy_relations,
    cub_face_relations,
    cube_differential,
    direct_sum_cube,
    homotopy_check,
    is_split_cube,
    paired_faces_agree,
    ses_as_cube,
)
from .homology import (
    ChainComplex,
    ChainMap,
    PresentedQuotient,
    compose_chain_maps,
    cone,
    cone_les_check,
    dsum_complex_projection,
    identity_chain_map,
    induced_modified_map,
    is_quasi_iso,
    modified_homology_via_cone,
    truncated_cone_cases,
    verify_modified_sequences,
    zero_chain_map,
)
from .koszul import (
    koszul_complex,
    koszul_section,
    koszul_sum_isometry,
    lambda_rescale,
    mu_decompose,
)
from .symfun import (
    ChernRootBundle,
    adams_chern_commute,
    complete_from_compositions,
    formal_chern_character,
    graded_adams,
    graded_mul,
    koszul_euler_identity,
    newton_power_sum,
    sym_gen,
)

__all__ = [
    "SuiteConfig",
    "Check",
    "Report",
    "SUITE_NAMES",
    "run_suite",
    "emit_report",
    "main",
]

_DEFAULTS = {
    "max_dim": 3,
    "max_k": 3,
    "max_n": 3,
    "trials": 8,
    "seed": 0,
    "format": "text",
    "out": None,
}

_U64 = (1 << 64) - 1


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    max_dim: int = _DEFAULTS["max_dim"]
    max_k: int = _DEFAULTS["max_k"]
    max_n: int = _DEFAULTS["max_n"]
    trials: int = _DEFAULTS["trials"]
    seed: int = _DEFAULTS["seed"]
    format: str = _DEFAULTS["format"]
    out: str | None = None

    def bounds(self) -> dict:
        return {
            "max_dim": self.max_dim,
            "max_k": self.max_k,
            "max_n": self.max_n,
            "trials": self.trials,
        }


@dataclass(frozen=True)
class Check:
    id: str
    instance: str
    claim_ref: str
    ok: bool


@dataclass
class Report:
    suite: str
    seed: int
    bounds: dict
    checks: list = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.ok)


class _SuiteRun:
    """Check accumulator handing out one seeded stream per instance."""

    def __init__(self, cfg: SuiteConfig):
        self.cfg = cfg
        self.checks: list[Check] = []
        self._draws = 0

    def rng(self):
        r = inst.instance_rng(self.cfg.seed, self._draws)
        self._draws += 1
        return r

    def add(self, claim_ref: str, instance: str, ok: bool) -> None:
        cid = f"{self.cfg.suite}-{len(self.checks):03d}"
        self.checks.append(Check(cid, instance, claim_ref, bool(ok)))


def _spaces_for(run: _SuiteRun, dim: int, tag: str = "e"):
    """One orthonormal and one random-metric model of Q^dim."""
    yield "standard", standard_space(dim, tag=tag)
    yield "random", inst.random_space(run.rng(), dim, tag=tag)


def _suite_koszul_split(run: _SuiteRun) -> None:
    cfg = run.cfg
    for dim in range(1, cfg.max_dim + 1):
        for k in range(1, cfg.max_k + 1):
            for metric, v in _spaces_for(run, dim):
                desc = f"dim={dim} k={k} metric={metric}"
                plain = koszul_complex(v, k)
                scaled = lambda_rescale(plain, k)
                ok = all(is_hermitian_split(s) for _, s in mu_decompose(scaled))
                run.add("rescaled-koszul-splits-orthogonally", desc, ok)
                if k >= 2:
                    bad = all(is_hermitian_split(s) for _, s in mu_decompose(plain))
                    run.add("unrescaled-koszul-not-split", desc, not bad)


def _contracted(c, sections) -> bool:
    """The homotopy certificate of exactness: phi_{p-1} psi_{p-1} +
    psi_p phi_p = id on every object A^p, with zero maps outside
    0..top. Every cycle z is then the boundary phi(psi z)."""
    d0, dk = c.objects[0].dim, c.objects[-1].dim
    # phis[p] is phi_{p-1} and psis[p] is psi_{p-1}, zero-width at the ends
    phis = (la.zeros(d0, 0), *(f.matrix.entries for f in c.maps), la.zeros(0, dk))
    psis = (la.zeros(0, d0), *(s.matrix.entries for s in sections), la.zeros(dk, 0))
    return all(
        la.add(la.matmul(phis[p], psis[p]), la.matmul(psis[p + 1], phis[p + 1]))
        == la.identity(obj.dim)
        for p, obj in enumerate(c.objects)
    )


def _suite_koszul_section(run: _SuiteRun) -> None:
    cfg = run.cfg
    for dim in range(1, cfg.max_dim + 1):
        for k in range(1, cfg.max_k + 1):
            for metric, v in _spaces_for(run, dim):
                desc = f"dim={dim} k={k} metric={metric}"
                c = koszul_complex(v, k)
                psis = [koszul_section(c, p) for p in range(k)]
                run.add("koszul-complex-exact", desc, _contracted(c, psis))
                ok = all(
                    phi.compose(psi).compose(phi).matrix == phi.matrix
                    for phi, psi in zip(c.maps, psis)
                )
                run.add("koszul-section-identity", desc, ok)


def _suite_koszul_sum(run: _SuiteRun) -> None:
    cfg = run.cfg
    for dv in range(1, cfg.max_dim + 1):
        for dw in range(1, cfg.max_dim + 1):
            for k in range(1, cfg.max_k + 1):
                for metric in ("standard", "random"):
                    if metric == "standard":
                        v = standard_space(dv, tag="v")
                        w = standard_space(dw, tag="w")
                    else:
                        r = run.rng()
                        v = inst.random_space(r, dv, tag="v")
                        w = inst.random_space(r, dw, tag="w")
                    desc = f"dim_v={dv} dim_w={dw} k={k} metric={metric}"
                    run.add(
                        "koszul-sum-isometry", desc, koszul_sum_isometry(v, w, k)
                    )


def _suite_symfun(run: _SuiteRun) -> None:
    nvars = run.cfg.max_k
    for k in range(1, run.cfg.max_k + 1):
        desc = f"k={k} nvars={nvars}"
        lhs = newton_power_sum(k).expand(nvars)
        run.add(
            "newton-power-sum-identity", desc, lhs == sym_gen("p", k).expand(nvars)
        )
        lhs = complete_from_compositions(k).expand(nvars)
        run.add(
            "complete-by-compositions-identity",
            desc,
            lhs == sym_gen("h", k).expand(nvars),
        )
        run.add(
            "secondary-euler-symfun-identity", desc, koszul_euler_identity(k, nvars)
        )


def _random_root_bundle(rng, roots: int, truncation: int) -> ChernRootBundle:
    scales = tuple(
        Fraction(rng.randrange(-2, 3), rng.choice((1, 1, 2))) for _ in range(roots)
    )
    return ChernRootBundle(scales, truncation)


def _suite_gs_commute(run: _SuiteRun) -> None:
    cfg = run.cfg
    truncation = min(cfg.max_n + 3, 8)
    for k in range(1, cfg.max_k + 1):
        for roots in range(1, cfg.max_dim + 1):
            _gs_checks(run, run.rng(), k, roots, truncation)


def _gs_checks(run: _SuiteRun, rng, k: int, roots: int, truncation: int) -> None:
    """The two gs-commute checks on two root bundles drawn from rng."""
    b = _random_root_bundle(rng, roots, truncation)
    desc = f"k={k} roots={roots} truncation={truncation}"
    run.add("chern-character-adams-commute", desc, adams_chern_commute(b, k))
    b2 = _random_root_bundle(rng, roots, truncation)
    x, y = formal_chern_character(b), formal_chern_character(b2)
    lhs = graded_adams(graded_mul(x, y), k)
    rhs = graded_mul(graded_adams(x, k), graded_adams(y, k))
    run.add("graded-adams-multiplicative", desc, lhs == rhs)


def _sampled_degrees(f: ChainMap, rng) -> list[int]:
    degrees = sorted(set(f.source.dims) | set(f.target.dims))
    if not degrees:
        return [0]
    return sorted({rng.choice(degrees), degrees[0], degrees[-1]})


def _quasi_iso_invariance(f: ChainMap, rng, n: int) -> bool:
    a, b = f.source, f.target
    idb = identity_chain_map(b)
    u = inst.random_quasi_iso(rng, a)
    x = inst.random_complex(rng, 4, 4)
    proj = dsum_complex_projection(a, cone(identity_chain_map(x)))
    h2 = f.modified_homology(n)
    for f1 in (u, proj):
        if not is_quasi_iso(f1):
            return False
        rho2 = compose_chain_maps(f, f1)
        h1 = rho2.modified_homology(n)
        m = induced_modified_map(f1, idb, rho2, f, n)
        if h1.dim != h2.dim or la.rank(m) != h1.dim:
            return False
    return True


def _same_presentation(direct: PresentedQuotient, via: PresentedQuotient) -> bool:
    """Both routes present the group on A_n (+) B_{n+1}: equal cycle and
    boundary spans make the identity induce the isomorphism. The spans
    are compared by their RREF Mats, which are unique."""
    return direct.cycles.rows == via.cycles.rows and direct.boundaries.rows == via.boundaries.rows


def _modified_checks(run: _SuiteRun, desc: str, f: ChainMap, rng) -> None:
    results = verify_modified_sequences(f)
    run.add("modified-sequences-exact", desc, all(ok for _, ok in results))
    two_routes = [
        _same_presentation(f.modified_homology(n), modified_homology_via_cone(f, n))
        for n in _sampled_degrees(f, rng)
    ]
    run.add("modified-homology-two-routes", desc, all(two_routes))
    run.add("cone-long-exact", desc, cone_les_check(f))
    n = _sampled_degrees(f, rng)[0]
    run.add(
        "truncated-cone-three-regimes", desc, truncated_cone_cases(f, n)
    )
    run.add(
        "modified-quasi-iso-invariance", desc, _quasi_iso_invariance(f, rng, n)
    )


def _suite_modified_homology(run: _SuiteRun) -> None:
    cfg = run.cfg
    for trial in range(cfg.trials):
        rng = run.rng()
        a = inst.random_complex(rng, cfg.max_n + 3, cfg.max_dim + 3)
        b = inst.random_complex(rng, cfg.max_n + 3, cfg.max_dim + 3)
        f = inst.random_chain_map(rng, a, b)
        _modified_checks(run, f"trial={trial}", f, rng)
    rng = run.rng()
    a = inst.random_complex(rng, 4, 4)
    b = inst.random_complex(rng, 4, 4)
    _modified_checks(run, "corner=zero-map", zero_chain_map(a, b), rng)
    empty = ChainComplex({}, {})
    _modified_checks(run, "corner=zero-source", zero_chain_map(empty, b), rng)
    _modified_checks(run, "corner=identity", identity_chain_map(a), rng)


def _flag_for(run: _SuiteRun, rng, length: int):
    ambient = inst.random_space(rng, 6, tag="a")
    return inst.random_flag(rng, ambient, length)


def _suite_cub_relations(run: _SuiteRun) -> None:
    cfg = run.cfg
    for trial in range(cfg.trials):
        rng = run.rng()
        n = rng.randrange(2, max(cfg.max_n, 2) + 1)
        f = _flag_for(run, rng, n)
        desc = f"trial={trial} n={n}"
        run.add("cub-face-relations", desc, cub_face_relations(f))
        run.add("cub-degeneracy-relations", desc, cub_degeneracy_relations(f))
        c = cub(f)
        dd = cube_differential(cube_differential(c)) if c.n >= 2 else None
        run.add(
            "cube-differential-squares-zero",
            desc,
            dd.is_zero() if dd is not None else True,
        )
        run.add("cub-chain-property", desc, cub_chain_property(f))


def _suite_cubsdeg(run: _SuiteRun) -> None:
    cfg = run.cfg
    for trial in range(cfg.trials):
        rng = run.rng()
        n = rng.randrange(2, max(cfg.max_n, 2) + 1)
        f = _flag_for(run, rng, n)
        for i in range(1, n):
            desc = f"trial={trial} n={n} i={i}"
            run.add(
                "degenerate-cube-differential-residue",
                desc,
                cub_degenerate_differential(f, i),
            )
            run.add("paired-faces-agree", desc, paired_faces_agree(f, i))


def _suite_homotopy(run: _SuiteRun) -> None:
    cfg = run.cfg
    top = max(2, min(cfg.max_n, 3))
    for trial in range(cfg.trials):
        rng = run.rng()
        n = rng.randrange(2, top + 1)
        f = _flag_for(run, rng, n)
        for i in range(1, n):
            desc = f"trial={trial} n={n} i={i}"
            run.add("filtration-homotopy-identity", desc, homotopy_check(f, i))


def _random_sum_parts(rng, m: int) -> dict:
    parts = {}
    for j in product((0, 2), repeat=m):
        d = rng.randrange(0, 3)
        parts[j] = (
            ZERO_SPACE if d == 0 else inst.random_space(rng, d, tag=f"p{j}")
        )
    return parts


_SKEW_GRAM = ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)))


def _non_orthogonal_cube() -> Cube:
    total = MetrizedSpace((("t", 0), ("t", 1)), _SKEW_GRAM)
    sub = standard_space(1, tag="s")
    quot = standard_space(1, tag="q")
    inj = SpaceMap(sub, total, ((Fraction(1),), (Fraction(0),)))
    prj = SpaceMap(total, quot, ((Fraction(0), Fraction(1)),))
    return Cube(
        1,
        {(0,): sub, (1,): total, (2,): quot},
        {((0,), (1,)): inj, ((1,), (2,)): prj},
    )


def _suite_split_cubes(run: _SuiteRun) -> None:
    cfg = run.cfg
    for trial in range(cfg.trials):
        rng = run.rng()
        m = rng.randrange(1, max(2, min(cfg.max_n, 2)) + 1)
        parts = _random_sum_parts(rng, m)
        desc = f"trial={trial} directions={m}"
        run.add("direct-sum-cube-splits", desc, is_split_cube(direct_sum_cube(parts)))
        f = inst.random_flag(rng, inst.random_space(rng, 5, tag="a"), 2)
        c = cub(f)
        run.add(
            "associated-sum-cube-splits", desc, is_split_cube(associated_sum_cube(c))
        )
    for k in range(2, cfg.max_k + 1):
        v = standard_space(2, tag="v")
        scaled = lambda_rescale(koszul_complex(v, k), k)
        ok = all(is_split_cube(ses_as_cube(s)) for _, s in mu_decompose(scaled))
        run.add("rescaled-koszul-cube-splits", f"dim=2 k={k}", ok)
    run.add(
        "non-orthogonal-control",
        "skew extension of Q by Q",
        not is_split_cube(_non_orthogonal_cube()),
    )


_SUITES = {
    "koszul-split": _suite_koszul_split,
    "koszul-section": _suite_koszul_section,
    "koszul-sum": _suite_koszul_sum,
    "symfun": _suite_symfun,
    "gs-commute": _suite_gs_commute,
    "modified-homology": _suite_modified_homology,
    "cub-relations": _suite_cub_relations,
    "cubsdeg": _suite_cubsdeg,
    "homotopy": _suite_homotopy,
    "split-cubes": _suite_split_cubes,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(cfg: SuiteConfig) -> Report:
    if cfg.suite not in _SUITES:
        raise UsageError(f"unknown suite {cfg.suite!r}")
    for name, value in cfg.bounds().items():
        if value < 1:
            raise UsageError(f"{name} must be positive")
    if not 0 <= cfg.seed <= _U64:
        raise UsageError("seed must fit in 64 unsigned bits")
    start = time.monotonic()
    run = _SuiteRun(cfg)
    _SUITES[cfg.suite](run)
    report = Report(cfg.suite, cfg.seed, cfg.bounds(), run.checks)
    report.elapsed_ms = int(round((time.monotonic() - start) * 1000))
    return report


def emit_report(report: Report, format: str = "text") -> str:
    if format == "json":
        obj = {
            "suite": report.suite,
            "seed": report.seed,
            "bounds": report.bounds,
            "checks": [
                {
                    "id": c.id,
                    "instance": c.instance,
                    "claim_ref": c.claim_ref,
                    "pass": c.ok,
                }
                for c in report.checks
            ],
            "passed": report.passed,
            "failed": report.failed,
            "elapsed_ms": report.elapsed_ms,
        }
        return json.dumps(obj, indent=2) + "\n"
    if format != "text":
        raise UsageError(f"unknown format {format!r}")
    lines = [f"suite: {report.suite}", f"seed: {report.seed}"]
    lines.append(
        "bounds: " + " ".join(f"{k}={v}" for k, v in report.bounds.items())
    )
    order: list[str] = []
    totals: dict[str, list[int]] = {}
    for c in report.checks:
        if c.claim_ref not in totals:
            order.append(c.claim_ref)
            totals[c.claim_ref] = [0, 0]
        totals[c.claim_ref][c.ok] += 1
    for ref in order:
        bad, good = totals[ref]
        lines.append(f"claim {ref}: {good}/{good + bad}")
    failing = [c for c in report.checks if not c.ok]
    if failing:
        lines.append("failing:")
        lines.extend(f"  {c.id}: {c.instance}" for c in failing)
    lines.append(f"passed: {report.passed}")
    lines.append(f"failed: {report.failed}")
    lines.append(f"elapsed_ms: {report.elapsed_ms}")
    return "\n".join(lines) + "\n"


def _parse_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read config file: {e}") from e
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _DEFAULTS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        settings[key] = value
    return settings


def _as_int(name: str, value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be an integer, got {value!r}") from None


def _resolve_config(args: argparse.Namespace) -> SuiteConfig:
    settings = dict(_DEFAULTS)
    env_seed = os.environ.get("HERMK_SEED")
    if env_seed is not None:
        settings["seed"] = _as_int("HERMK_SEED", env_seed)
    if args.config is not None:
        settings.update(_parse_config_file(args.config))
    for key in ("max_dim", "max_k", "max_n", "trials", "seed"):
        cli_value = getattr(args, key)
        if cli_value is not None:
            settings[key] = cli_value
        else:
            settings[key] = _as_int(key, settings[key])
    if args.format is not None:
        settings["format"] = args.format
    if args.out is not None:
        settings["out"] = args.out
    if settings["format"] not in ("text", "json"):
        raise UsageError(f"unknown format {settings['format']!r}")
    return SuiteConfig(suite=args.suite, **settings)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run one exact verification suite and report per-check results.",
    )
    parser.add_argument("suite", choices=SUITE_NAMES, metavar="suite")
    parser.add_argument("--max-dim", dest="max_dim", type=int, default=None)
    parser.add_argument("--max-k", dest="max_k", type=int, default=None)
    parser.add_argument("--max-n", dest="max_n", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--format", choices=("text", "json"), default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--config", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        cfg = _resolve_config(args)
        report = run_suite(cfg)
        text = emit_report(report, cfg.format)
        if cfg.out is not None:
            try:
                with open(cfg.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as e:
                raise UsageError(f"cannot write report: {e}") from e
        else:
            sys.stdout.write(text)
    except UsageError as e:
        print(f"verify: {e}", file=sys.stderr)
        return 2
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
