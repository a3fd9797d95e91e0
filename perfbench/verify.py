"""Correctness of a run's decisions, from the reports the worker wrote.

Each record's digest entry covers its exit code, sign, every spec's sort_key
with its N+/N'/N- strings, and the failure-reason codes. It is built from the
parsed report, not the report bytes, so an added report key leaves it
unchanged. The workload digest for the default seed is stored in
digests.json; every seed is also checked by independent routes:

  - the oracle re-derives the same specs from the report's profile, when its
    subset search stays within ORACLE_CANDIDATES;
  - the exit code matches feasibility, and theorem-1 consistency holds
    unless drop-B4 widening is on;
  - the real places are disjoint ascending intervals, no wider than the
    requested precision, each bracketing a sign change of the defining
    polynomial.
"""

import hashlib
import json
from fractions import Fraction

from tracer import oracle_candidates

ORACLE_CANDIDATES = 20_000


def digest(entries) -> str:
    h = hashlib.sha256()
    for entry in entries:
        h.update(json.dumps(entry, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def failure_entry(code, error: str):
    lines = [line for line in (error or "").splitlines() if line.strip()]
    return [code, lines[-1] if lines else ""]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _eval(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def examine(code, report_text, config, engine):
    """(digest entry, problems, exact inert prime count) for one decided
    record (exit code 0 or 2)."""
    report = engine.parse_report(report_text)
    specs = report.gartner_options + report.greenberg_options
    entry = [code, report.sign,
             [[s.sort_key, str(s.n_plus), str(s.n_prime), str(s.n_minus)]
              for s in specs],
             [r.code.value for r in report.failure_reasons]]

    problems = []
    if (code == 0) != report.feasible:
        problems.append(f"exit code {code} but feasible={report.feasible}")
    options = config.get("options", {})
    # widened (drop-B4) mode may admit specs at sign +1 by design
    if not report.theorem1_consistent and not options.get("allow_drop_b4"):
        problems.append("theorem-1 consistency flag is false")
    field = report.profile.extension.base
    width = Fraction(1, 2 ** options.get("precision_bits", 32))
    places = [v for v, _ in report.profile.real_classes]
    if len(places) != field.degree:
        problems.append(f"{len(places)} real places for degree {field.degree}")
    for k, v in enumerate(places):
        if v.hi - v.lo > width:
            problems.append(f"place {v.index} wider than the precision")
        f_lo, f_hi = _eval(field.defining_poly, v.lo), _eval(field.defining_poly, v.hi)
        if (f_lo != 0) if v.lo == v.hi else (_sign(f_lo) * _sign(f_hi) >= 0):
            problems.append(f"place {v.index} does not isolate a root")
        if k and v.lo <= places[k - 1].hi:
            problems.append("real places not disjoint and ascending")
    if oracle_candidates(report.profile) <= ORACLE_CANDIDATES:
        enumerated = engine.enumerate_admissible(
            report.profile, allow_drop_b4=options.get("allow_drop_b4", False))
        if tuple(sorted(specs, key=lambda s: s.sort_key)) != enumerated:
            problems.append("oracle disagrees with the selectors")
    exact_inert = sum(1 for _, e in report.profile.inert_finite if e == 1)
    return entry, problems, exact_inert
