"""Known-answer checker for `verify` JSON reports.

Every claim the verifier reports is a theorem and every negative
control is phrased to pass, so the known answer of every check is
"pass". A report is accepted only if it answers the request it was
made for, every check passes, its totals agree with its checks, and
each claim has exactly as many checks as the request's bounds imply
(the check-count guard): a run that silently drops checks is a
failure, not a faster run.
"""

from __future__ import annotations

import copy
import json
import re
from collections import Counter

from workloads import BOUND_NAMES

_TRIAL_N = re.compile(r"trial=(\d+) n=(\d+) i=\d+")


def _per_trial_steps(trials: int, top: int, checks: list, problems: list) -> int:
    """Sum of (n - 1) over trials, each trial's flag length n read from
    its checks' instance strings; the guard for cubsdeg and homotopy."""
    lengths: dict[int, set] = {}
    for c in checks:
        m = _TRIAL_N.fullmatch(c["instance"])
        if m is None:
            problems.append(f"{c['id']}: unexpected instance {c['instance']!r}")
            continue
        lengths.setdefault(int(m.group(1)), set()).add(int(m.group(2)))
    total = 0
    for t in range(trials):
        ns = lengths.get(t, set())
        if len(ns) != 1 or not 2 <= min(ns) <= top:
            problems.append(f"trial {t}: flag lengths {sorted(ns)}, need one in 2..{top}")
            continue
        total += min(ns) - 1
    return total


def expected_counts(req: dict, checks: list, problems: list) -> Counter:
    """Checks per claim that the request's bounds imply."""
    d, k, n, t = (req[b] for b in BOUND_NAMES)
    suite = req["suite"]
    if suite == "koszul-split":
        want = {
            "rescaled-koszul-splits-orthogonally": 2 * d * k,
            "unrescaled-koszul-not-split": 2 * d * (k - 1),
        }
    elif suite == "koszul-section":
        want = {"koszul-complex-exact": 2 * d * k, "koszul-section-identity": 2 * d * k}
    elif suite == "koszul-sum":
        want = {"koszul-sum-isometry": 2 * d * d * k}
    elif suite == "symfun":
        want = dict.fromkeys(
            (
                "newton-power-sum-identity",
                "complete-by-compositions-identity",
                "secondary-euler-symfun-identity",
            ),
            k,
        )
    elif suite == "gs-commute":
        want = dict.fromkeys(
            ("chern-character-adams-commute", "graded-adams-multiplicative"), k * d
        )
    elif suite == "modified-homology":
        want = dict.fromkeys(
            (
                "modified-sequences-exact",
                "modified-homology-two-routes",
                "cone-long-exact",
                "truncated-cone-three-regimes",
                "modified-quasi-iso-invariance",
            ),
            t + 3,
        )
    elif suite == "cub-relations":
        want = dict.fromkeys(
            (
                "cub-face-relations",
                "cub-degeneracy-relations",
                "cube-differential-squares-zero",
                "cub-chain-property",
            ),
            t,
        )
    elif suite == "cubsdeg":
        steps = _per_trial_steps(t, max(n, 2), checks, problems)
        want = dict.fromkeys(
            ("degenerate-cube-differential-residue", "paired-faces-agree"), steps
        )
    elif suite == "homotopy":
        steps = _per_trial_steps(t, max(2, min(n, 3)), checks, problems)
        want = {"filtration-homotopy-identity": steps}
    elif suite == "split-cubes":
        want = {
            "direct-sum-cube-splits": t,
            "associated-sum-cube-splits": t,
            "rescaled-koszul-cube-splits": k - 1,
            "non-orthogonal-control": 1,
        }
    else:
        raise ValueError(f"no check-count rule for suite {suite!r}")
    return Counter(want)


def check_report(req: dict, text: str) -> list[str]:
    """Problems with one JSON report; an empty list accepts it."""
    try:
        rep = json.loads(text)
        checks = rep["checks"]
        head = (rep["suite"], rep["seed"], rep["bounds"])
        totals = (rep["passed"], rep["failed"])
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable report: {e!r}"]
    problems = []
    want_head = (req["suite"], req["seed"], {b: req[b] for b in BOUND_NAMES})
    if head != want_head:
        problems.append(f"report is for {head}, request was {want_head}")
    for i, c in enumerate(checks):
        if c["id"] != f"{req['suite']}-{i:03d}":
            problems.append(f"check {i} has id {c['id']!r}")
        if c["pass"] is not True:
            problems.append(f"{c['id']} ({c['claim_ref']}, {c['instance']}) failed")
    npass = sum(c["pass"] is True for c in checks)
    if totals != (npass, len(checks) - npass):
        problems.append(f"totals {totals} disagree with the checks")
    want = expected_counts(req, checks, problems)
    got = Counter(c["claim_ref"] for c in checks)
    if got != want:
        problems.append(f"check counts {dict(got)}, bounds imply {dict(want)}")
    return problems


def doctored(text: str) -> dict[str, str]:
    """Negative controls: a report with one verdict flipped to fail,
    and one with its last check dropped (totals kept consistent)."""
    rep = json.loads(text)
    flipped = copy.deepcopy(rep)
    flipped["checks"][0]["pass"] = False
    flipped["passed"] -= 1
    flipped["failed"] += 1
    dropped = copy.deepcopy(rep)
    dropped["checks"].pop()
    dropped["passed"] -= 1
    return {"flipped-pass": json.dumps(flipped), "dropped-check": json.dumps(dropped)}
