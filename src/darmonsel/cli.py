"""Command-line front end: single configs, batch corpora, traces, reports.

Exit codes: 0 at least one admissible spec, 2 infeasible, 1 input or
validation error (including an oracle mismatch under --oracle). The machine
report goes to --out (or stdout), the human trace to stderr unless --no-trace.
"""

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .errors import DarmonselError, OracleMismatch
from .feasibility import FeasibilityReport, feasibility_report
from .fields import _poly_str
from .oracle import enumerate_admissible
from .quadratic import PlaceType
from .serialize import (
    MAX_PRECISION_BITS,
    InputConfig,
    Options,
    config_from_doc,
    emit_report,
    parse_config,
    realize_config,
)


def _fmt_spec(spec) -> str:
    reals = ", ".join(f"tau_{v.index}" for v in spec.ramified_real) or "none"
    primes = ", ".join(str(P) for P in spec.ramified_finite) or "none"
    return (f"N+ = {spec.n_plus}, N' = {spec.n_prime}, N- = {spec.n_minus}; "
            f"ramified reals: {reals}; ramified primes: {primes}")


def _trace_header(lines, report):
    prof = report.profile
    F = prof.extension.base
    lines.append(f"base field F: Q[x]/({_poly_str(F.defining_poly)}), "
                 f"degree {F.degree}, polynomial discriminant {F.poly_disc}")
    delta = ", ".join(str(c) for c in prof.extension.delta)
    lines.append(f"K = F(sqrt(delta)), delta coefficients in theta: [{delta}]")
    cert = prof.extension.certificate
    lines.append("delta non-squareness: "
                 + (f"certified non-residue at {cert}" if cert
                    else "certified by sign or exact reconstruction"))
    lines.append(f"conductor N = {prof.conductor} (norm {prof.conductor.norm()})")
    lines.append("real places of F:")
    for v, t in prof.real_classes:
        lines.append(f"  tau_{v.index}: theta in [{v.lo}, {v.hi}] -> {t.value}"
                     + (" (delta < 0)" if t is PlaceType.INERT else " (delta > 0)"))
    if not prof.real_classes:
        lines.append("  (none)")
    lines.append("primes dividing N:")
    for P, e, t in prof.finite_classes:
        lines.append(f"  {P} exponent {e}: {t.value}")
    if not prof.finite_classes:
        lines.append("  (none)")
    if not prof.disc_coprime:
        lines.append("WARNING: N meets the relative discriminant of K/F "
                     "(a ramified prime divides N)")
    lines.append(
        f"sign of the functional equation = "
        f"(-1)^(inert reals + inert primes dividing N) = "
        f"(-1)^({prof.inert_real_count} + {len(prof.inert_finite)}) = "
        f"{'+1' if report.sign == 1 else '-1'}")


_SECTIONS = (
    ("gartner", "gartner candidates (one split inert real place, N' = (1)):"),
    ("greenberg", "greenberg candidates (all inert reals ramified, N' = (p)):"),
)


def format_trace(report: FeasibilityReport) -> str:
    """The human trace: a rendering of the report alone, one line per
    recorded check, grouped by construction and subject."""
    lines: list[str] = []
    _trace_header(lines, report)
    specs = {f"{s.kind.value}[{i}]": s
             for options in (report.gartner_options, report.greenberg_options)
             for i, s in enumerate(options)}
    for kind, title in _SECTIONS:
        lines.append(title)
        subject = kind
        for c in report.checks:
            if not c.subject.startswith(kind):
                continue
            if c.subject != subject:
                subject = c.subject
                lines.append(f"  {subject} -> {_fmt_spec(specs[subject])}"
                             if subject in specs else f"  {subject}:")
            lines.append(f"    {c.label} {'ok' if c.ok else 'FAIL'}: {c.detail}")
    lines.append("assumed without computation: B2 (Jacquet-Langlands "
                 "correspondence); global halves of B3/C4 beyond the local "
                 "criterion")
    if report.failure_reasons:
        lines.append("failure reasons: "
                     + "; ".join(f"{r.code.value} ({r.detail})"
                                 for r in report.failure_reasons))
    n_g = len(report.gartner_options)
    n_h = len(report.greenberg_options)
    verdict = "FEASIBLE" if report.feasible else "INFEASIBLE"
    lines.append(f"verdict: {verdict} ({n_g} gartner, {n_h} greenberg), "
                 f"sign {'+1' if report.sign == 1 else '-1'}, "
                 f"theorem-1 consistency {report.theorem1_consistent}")
    return "\n".join(lines)


def _decide(config: InputConfig):
    """(report, None), or (None, error text) on a DarmonselError."""
    try:
        K, N, order = realize_config(config)
        report = feasibility_report(
            K, N,
            order_conductor=order,
            allow_drop_b4=config.options.allow_drop_b4,
            precision=Fraction(1, 2 ** config.options.precision_bits),
        )
        if config.options.oracle_check:
            selected = tuple(sorted(report.gartner_options + report.greenberg_options,
                                    key=lambda s: s.sort_key))
            enumerated = enumerate_admissible(
                report.profile, allow_drop_b4=config.options.allow_drop_b4)
            if selected != enumerated:
                raise OracleMismatch(
                    f"selectors found {len(selected)} specs, oracle found "
                    f"{len(enumerated)}")
    except DarmonselError as e:
        return None, f"error: {type(e).__name__}: {e}"
    return report, None


def run_single(config: InputConfig):
    """(exit_code, machine_report_json or None, trace_text)."""
    report, error = _decide(config)
    if report is None:
        return 1, None, error
    return (0 if report.feasible else 2), emit_report(report), format_trace(report)


def _record_id(doc, position: int) -> str:
    rid = doc.get("id") if isinstance(doc, dict) else None
    return rid if isinstance(rid, str) and rid else f"record-{position:03d}"


def _safe_name(rid: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", rid) or "record"


def run_batch(corpus_path: str, output_dir: str,
              override: Options | None = None):
    """(exit_code, summary_doc). Writes per-record reports and summary.json.

    A record that fails, with any exception, gets an ERROR row naming the
    exception's class (plus the traceback when it is not a DarmonselError),
    and the exit code is 1.

    override carries the command-line flags: its booleans switch a record's
    options on, and its precision_bits replaces each record's unless None."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        corpus = json.loads(Path(corpus_path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        return 1, {"schema_version": 1, "kind": "batch_summary",
                   "error": f"cannot read corpus: {e}", "rows": []}
    records = corpus.get("records") if isinstance(corpus, dict) else corpus
    if not isinstance(records, list):
        return 1, {"schema_version": 1, "kind": "batch_summary",
                   "error": "corpus must be a list of configs or "
                            "{schema_version, records: [...]}", "rows": []}
    rows = []
    any_error = False
    for k, doc in enumerate(records, start=1):
        rid = _record_id(doc, k)
        row = {"id": rid, "sign": None, "gartner": None, "greenberg": None,
               "verdict": "ERROR"}
        try:
            config = config_from_doc(doc)
            if override is not None:
                config = _with_options(config, override)
            report, error = _decide(config)
            if report is None:
                row["error"] = error
                any_error = True
            else:
                row.update(sign=report.sign,
                           gartner=len(report.gartner_options),
                           greenberg=len(report.greenberg_options),
                           verdict="feasible" if report.feasible else "infeasible")
                (out / f"{_safe_name(rid)}.json").write_text(emit_report(report))
        except Exception as e:
            # any failure is this record's ERROR row and the rest of the
            # corpus still runs; an untyped one is an engine fault, so its
            # row keeps the traceback
            row["error"] = f"{type(e).__name__}: {e}"
            if not isinstance(e, DarmonselError):
                import traceback
                row["traceback"] = traceback.format_exc()
            any_error = True
        rows.append(row)
    rows.sort(key=lambda r: r["id"])
    summary = {"schema_version": 1, "kind": "batch_summary", "rows": rows}
    (out / "summary.json").write_text(json.dumps(summary, indent=2,
                                                 sort_keys=True))
    return (1 if any_error else 0), summary


def _with_options(config: InputConfig, override: Options) -> InputConfig:
    # command-line flags strengthen per-record options, never weaken them; a
    # given precision replaces the record's, None keeps it
    base = config.options
    options = Options(
        allow_drop_b4=base.allow_drop_b4 or override.allow_drop_b4,
        oracle_check=base.oracle_check or override.oracle_check,
        precision_bits=(base.precision_bits if override.precision_bits is None
                        else override.precision_bits),
    )
    return InputConfig(config.field_poly, config.delta, config.conductor,
                       config.order_conductor, options, config.config_id)


def _build_parser():
    import argparse  # only the command line needs it
    parser = argparse.ArgumentParser(
        prog="darmonsel",
        description="Decide which modular point construction applies for a "
                    "conductor N over a totally real field F and a quadratic "
                    "extension K, and enumerate the admissible quaternion "
                    "algebra data.")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--input", help="path to a single JSON config")
    target.add_argument("--batch", help="path to a JSON corpus of configs")
    parser.add_argument("--out", help="output file (single) or directory "
                                      "(batch) for machine reports")
    parser.add_argument("--oracle", action="store_true",
                        help="re-derive every answer with the brute-force "
                             "enumerator and fail on any mismatch")
    parser.add_argument("--allow-drop-b4", action="store_true",
                        help="widen the gartner selector: inert primes may "
                             "stay unramified in B, subject to parity")
    parser.add_argument("--precision-bits", type=int, default=None,
                        help="width bound 2^-bits for real-place intervals, "
                             f"1 to {MAX_PRECISION_BITS}; replaces each "
                             "record's precision_bits (default: the "
                             "record's, else 32)")
    parser.add_argument("--trace", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="print the human-readable decision trace to "
                             "stderr (default on)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        override = Options(allow_drop_b4=args.allow_drop_b4,
                           oracle_check=args.oracle,
                           precision_bits=args.precision_bits)
    except DarmonselError as e:
        print(f"error: --precision-bits: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    if args.batch:
        if not args.out:
            print("error: --batch requires --out OUTPUT_DIR", file=sys.stderr)
            return 1
        code, summary = run_batch(args.batch, args.out, override=override)
        print(json.dumps(summary, indent=2, sort_keys=True))
        if args.trace:
            for row in summary["rows"]:
                mark = row["verdict"]
                extra = (f" sign {row['sign']:+d}, {row['gartner']} gartner, "
                         f"{row['greenberg']} greenberg"
                         if row["verdict"] != "ERROR"
                         else f" {row.get('error', '')}")
                print(f"{row['id']}: {mark}{extra}", file=sys.stderr)
        return code
    try:
        text = Path(args.input).read_text()
    except OSError as e:
        print(f"error: cannot read {args.input}: {e}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
    except DarmonselError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    config = _with_options(config, override)
    code, report_json, trace = run_single(config)
    if code == 1:
        print(trace, file=sys.stderr)
        return 1
    if args.trace:
        print(trace, file=sys.stderr)
    if args.out:
        Path(args.out).write_text(report_json)
    else:
        print(report_json)
    return code


if __name__ == "__main__":
    sys.exit(main())
