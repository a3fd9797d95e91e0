"""JSON schemas for input configs and feasibility reports.

Both documents carry schema_version = 1. Polynomial coefficient lists are
ascending degree throughout. Interval endpoints and precisions are exact
rational strings ("-3/2"), never floats, so parse(emit(report)) == report
holds field for field.
"""

import json
from fractions import Fraction

from .errors import InputError, InternalInvariant
from .feasibility import (
    Check,
    ConductorProfile,
    FeasibilityReport,
    Kind,
    QuaternionAlgebraSpec,
)
from .fields import (
    IdealFactorization,
    NumberField,
    PrimeIdeal,
    RealPlace,
    factor_ideal,
    parse_field,
)
from .quadratic import PlaceType, QuadraticExtension, make_extension
from .record import Record, set_field

SCHEMA_VERSION = 1
# refinement work grows with the bits, and past about 14k bits the reported
# endpoints overflow CPython's int-to-str digit limit
MAX_PRECISION_BITS = 4096


def _require(cond: bool, message: str):
    if not cond:
        raise InputError(message)


class Options(Record):
    """Per-decision options. precision_bits None means "not given": only a
    command-line override leaves it so, to keep each record's own value; a
    config's options always carry a number."""

    def __init__(self, allow_drop_b4: bool = False, oracle_check: bool = False,
                 precision_bits: int | None = 32):
        _require(precision_bits is None or (
                     type(precision_bits) is int
                     and 1 <= precision_bits <= MAX_PRECISION_BITS),
                 f"precision_bits must be an integer from 1 to {MAX_PRECISION_BITS}")
        set_field(self, "allow_drop_b4", allow_drop_b4)
        set_field(self, "oracle_check", oracle_check)
        set_field(self, "precision_bits", precision_bits)
        set_field(self, "_key", (allow_drop_b4, oracle_check, precision_bits))


class InputConfig(Record):
    """One decision problem: a field, a delta, a conductor, options."""

    def __init__(self, field_poly: tuple[int, ...], delta: tuple[int, ...],
                 conductor: dict, order_conductor: dict | None = None,
                 options: Options = Options(), config_id: str = ""):
        _require(options.precision_bits is not None,
                 "a config's precision_bits must be given")
        _require(isinstance(conductor, dict), "conductor must be a mapping")
        keys = set(conductor)
        _require(keys == {"generator"} or keys == {"factors"},
                 "conductor needs exactly one of generator/factors, got "
                 + (", ".join(sorted(keys)) or "nothing"))
        if order_conductor is not None:
            okeys = set(order_conductor)
            _require(okeys == {"generator"} or okeys == {"factors"},
                     "order_conductor needs exactly one of generator/factors")
        set_field(self, "field_poly", field_poly)
        set_field(self, "delta", delta)
        set_field(self, "conductor", conductor)
        set_field(self, "order_conductor", order_conductor)
        set_field(self, "options", options)
        set_field(self, "config_id", config_id)
        set_field(self, "_key", (field_poly, delta, conductor, order_conductor,
                                 options, config_id))


def _int_list(value, what: str) -> tuple[int, ...]:
    _require(isinstance(value, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in value),
        f"{what} must be a list of integers")
    return tuple(value)


def parse_config(text: str) -> InputConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"config is not valid JSON: {e}") from None
    return config_from_doc(doc)


def config_from_doc(doc) -> InputConfig:
    _require(isinstance(doc, dict), "config must be a JSON object")
    _require(doc.get("schema_version") == SCHEMA_VERSION,
             f"schema_version must be {SCHEMA_VERSION}")
    for key in doc:
        _require(key in {"schema_version", "id", "field_poly", "delta",
                         "conductor", "order_conductor", "options"},
                 f"unknown config key {key!r}")
    _require("field_poly" in doc, "missing field_poly")
    _require("delta" in doc, "missing delta")
    _require("conductor" in doc, "missing conductor")
    opts = doc.get("options", {})
    _require(isinstance(opts, dict), "options must be a mapping")
    for key in opts:
        _require(key in {"allow_drop_b4", "oracle_check", "precision_bits"},
                 f"unknown option {key!r}")
    _require(isinstance(opts.get("allow_drop_b4", False), bool),
             "allow_drop_b4 must be a boolean")
    _require(isinstance(opts.get("oracle_check", False), bool),
             "oracle_check must be a boolean")
    config_id = doc.get("id", "")
    _require(isinstance(config_id, str), "id must be a string")
    conductor = doc["conductor"]
    _require(isinstance(conductor, dict), "conductor must be a mapping")
    order = doc.get("order_conductor")
    return InputConfig(
        field_poly=_int_list(doc["field_poly"], "field_poly"),
        delta=_int_list(doc["delta"], "delta"),
        conductor=conductor,
        order_conductor=order,
        options=Options(allow_drop_b4=opts.get("allow_drop_b4", False),
                        oracle_check=opts.get("oracle_check", False),
                        precision_bits=opts.get("precision_bits", 32)),
        config_id=config_id,
    )


def _ideal_from_doc(F: NumberField, doc: dict, what: str) -> IdealFactorization:
    if "generator" in doc:
        return factor_ideal(F, generator=_int_list(doc["generator"],
                                                   f"{what}.generator"))
    factors = doc["factors"]
    _require(isinstance(factors, list), f"{what}.factors must be a list")
    pairs = []
    for entry in factors:
        _require(isinstance(entry, dict)
                 and set(entry) == {"p", "local_factor", "e", "f", "exponent"},
                 f"each {what} factor needs keys p, local_factor, e, f, exponent")
        pairs.append((_prime_from(entry), _exponent_from(entry)))
    return factor_ideal(F, factors=pairs)


def realize_config(config: InputConfig):
    """(K, N, order_conductor or None) with every validation applied."""
    F = parse_field(list(config.field_poly))
    K = make_extension(F, list(config.delta))
    N = _ideal_from_doc(F, config.conductor, "conductor")
    order = None
    if config.order_conductor is not None:
        order = _ideal_from_doc(F, config.order_conductor, "order_conductor")
    return K, N, order


def emit_config(config: InputConfig) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "field_poly": list(config.field_poly),
        "delta": list(config.delta),
        "conductor": config.conductor,
        "options": {
            "allow_drop_b4": config.options.allow_drop_b4,
            "oracle_check": config.options.oracle_check,
            "precision_bits": config.options.precision_bits,
        },
    }
    if config.config_id:
        doc["id"] = config.config_id
    if config.order_conductor is not None:
        doc["order_conductor"] = config.order_conductor
    return json.dumps(doc, indent=2, sort_keys=True)


# report serialization


def _frac(x) -> str | int:
    # ints stay ints in the JSON; true fractions become exact strings
    return x if isinstance(x, int) else str(x)


def _parse_frac(s):
    return s if isinstance(s, int) else Fraction(s)


def _prime_doc(P: PrimeIdeal) -> dict:
    return {"p": P.p, "local_factor": list(P.local_factor), "e": P.e, "f": P.f}


def _prime_from(doc: dict) -> PrimeIdeal:
    _require(all(type(doc[key]) is int for key in ("p", "e", "f")),
             "prime ideal p, e and f must be integers")
    local_factor = _int_list(doc["local_factor"], "local_factor")
    return PrimeIdeal(p=doc["p"], local_factor=local_factor, e=doc["e"], f=doc["f"])


def _exponent_from(doc: dict) -> int:
    _require(type(doc["exponent"]) is int and doc["exponent"] >= 1,
             "exponent must be an integer >= 1")
    return doc["exponent"]


def _ideal_doc(I: IdealFactorization) -> list:
    return [dict(_prime_doc(P), exponent=e) for P, e in I.factors]


def _ideal_from(doc: list) -> IdealFactorization:
    return IdealFactorization.from_pairs(
        (_prime_from(entry), _exponent_from(entry)) for entry in doc)


def _place_doc(v: RealPlace) -> dict:
    return {"index": v.index, "lo": _frac(v.lo), "hi": _frac(v.hi),
            "precision": _frac(v.precision)}


def _place_from(doc: dict) -> RealPlace:
    return RealPlace(index=doc["index"], lo=_parse_frac(doc["lo"]),
                     hi=_parse_frac(doc["hi"]),
                     precision=_parse_frac(doc["precision"]))


def _field_doc(F: NumberField) -> dict:
    return {
        "degree": F.degree,
        "defining_poly": list(F.defining_poly),
        "poly_disc": F.poly_disc,
        "index_warning_primes": sorted(F.index_warning_primes),
        "explicit_primes": [[p, [_prime_doc(P) for P in primes]]
                            for p, primes in F.explicit_primes],
    }


def _field_from(doc: dict) -> NumberField:
    return NumberField(
        degree=doc["degree"],
        defining_poly=tuple(doc["defining_poly"]),
        poly_disc=doc["poly_disc"],
        index_warning_primes=frozenset(doc["index_warning_primes"]),
        explicit_primes=tuple(
            (p, tuple(_prime_from(d) for d in primes))
            for p, primes in doc["explicit_primes"]),
    )


def _spec_doc(spec: QuaternionAlgebraSpec) -> dict:
    if isinstance(spec.distinguished, RealPlace):
        distinguished = {"real_place": spec.distinguished.index}
    else:
        distinguished = {"prime": _prime_doc(spec.distinguished)}
    return {
        "kind": spec.kind.value,
        "distinguished": distinguished,
        "ramified_real": [v.index for v in spec.ramified_real],
        "ramified_finite": [_prime_doc(P) for P in spec.ramified_finite],
        "n_plus": _ideal_doc(spec.n_plus),
        "n_prime": _ideal_doc(spec.n_prime),
        "n_minus": _ideal_doc(spec.n_minus),
    }


def _spec_from(doc: dict, places_by_index: dict) -> QuaternionAlgebraSpec:
    if "real_place" in doc["distinguished"]:
        distinguished = places_by_index[doc["distinguished"]["real_place"]]
    else:
        distinguished = _prime_from(doc["distinguished"]["prime"])
    return QuaternionAlgebraSpec(
        kind=Kind(doc["kind"]),
        distinguished=distinguished,
        ramified_real=tuple(places_by_index[i] for i in doc["ramified_real"]),
        ramified_finite=tuple(_prime_from(d) for d in doc["ramified_finite"]),
        n_plus=_ideal_from(doc["n_plus"]),
        n_prime=_ideal_from(doc["n_prime"]),
        n_minus=_ideal_from(doc["n_minus"]),
    )


def report_to_doc(report: FeasibilityReport) -> dict:
    prof = report.profile
    K = prof.extension
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "feasibility_report",
        "field": _field_doc(K.base),
        "delta": [_frac(c) for c in K.delta],
        "delta_nonsquare_certificate":
            _prime_doc(K.certificate) if K.certificate else None,
        "conductor": _ideal_doc(prof.conductor),
        "real_classes": [dict(_place_doc(v), type=t.value)
                         for v, t in prof.real_classes],
        "finite_classes": [dict(_prime_doc(P), exponent=e, type=t.value)
                           for P, e, t in prof.finite_classes],
        "inert_real_count": prof.inert_real_count,
        "inert_part_squarefree": prof.inert_part_squarefree,
        "disc_coprime": prof.disc_coprime,
        "sign": report.sign,
        "gartner_options": [_spec_doc(s) for s in report.gartner_options],
        "greenberg_options": [_spec_doc(s) for s in report.greenberg_options],
        "checks": [{"label": c.label, "subject": c.subject, "ok": c.ok,
                    "detail": c.detail} for c in report.checks],
        "failure_reasons": _reasons_doc(report),
        "theorem1_consistent": report.theorem1_consistent,
        "assumed": list(report.assumed),
        "order_conductor": (_ideal_doc(report.order_conductor)
                            if report.order_conductor is not None else None),
    }
    return doc


def emit_report(report: FeasibilityReport) -> str:
    return json.dumps(report_to_doc(report), indent=2, sort_keys=True)


def _reasons_doc(report: FeasibilityReport) -> list:
    return [{"code": r.code.value, "detail": r.detail} for r in report.failure_reasons]


_CHECK_TYPES = {"label": str, "subject": str, "ok": bool, "detail": str}


def _check_from(doc) -> Check:
    _require(isinstance(doc, dict) and set(doc) == set(_CHECK_TYPES)
             and all(type(doc[k]) is t for k, t in _CHECK_TYPES.items()),
             "each check needs string label, subject and detail and boolean ok")
    return Check(**doc)


def parse_report(text: str) -> FeasibilityReport:
    """Read a report document back. Anything malformed, including a derived
    key (profile counts, failure_reasons) that contradicts the data it is
    derived from, raises InputError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"report is not valid JSON: {e}") from None
    _require(isinstance(doc, dict), "report must be a JSON object")
    _require(doc.get("schema_version") == SCHEMA_VERSION,
             f"schema_version must be {SCHEMA_VERSION}")
    _require(doc.get("kind") == "feasibility_report", "not a feasibility report")
    _require("checks" in doc, "report has no checks: it was written before "
             "reports carried the check log; regenerate it")
    try:
        return _report_from(doc)
    except (InternalInvariant, KeyError, TypeError, ValueError,
            ZeroDivisionError) as e:
        # a missing key, a wrong type or an unknown enum value somewhere in
        # the document; the record constructors check shapes with
        # InternalInvariant
        raise InputError(f"malformed report: {type(e).__name__}: {e}") from None


def _report_from(doc: dict) -> FeasibilityReport:
    base = _field_from(doc["field"])
    cert_doc = doc["delta_nonsquare_certificate"]
    K = QuadraticExtension(
        base=base,
        delta=tuple(_parse_frac(c) for c in doc["delta"]),
        certificate=_prime_from(cert_doc) if cert_doc is not None else None,
    )
    real_classes = tuple(
        (_place_from(entry), PlaceType(entry["type"]))
        for entry in doc["real_classes"])
    finite_classes = tuple(
        (_prime_from(entry), entry["exponent"], PlaceType(entry["type"]))
        for entry in doc["finite_classes"])
    profile = ConductorProfile(
        extension=K,
        conductor=_ideal_from(doc["conductor"]),
        real_classes=real_classes,
        finite_classes=finite_classes,
    )
    for key in ("inert_real_count", "inert_part_squarefree", "disc_coprime"):
        derived = getattr(profile, key)
        _require(type(doc[key]) is type(derived) and doc[key] == derived,
                 f"{key} contradicts the classified places")
    _require(type(doc["sign"]) is int and doc["sign"] in (1, -1),
             "sign must be 1 or -1")
    _require(type(doc["theorem1_consistent"]) is bool,
             "theorem1_consistent must be a boolean")
    _require(isinstance(doc["assumed"], list)
             and all(isinstance(a, str) for a in doc["assumed"]),
             "assumed must be a list of strings")
    _require(isinstance(doc["checks"], list), "checks must be a list")
    places_by_index = {v.index: v for v, _ in real_classes}
    order = doc["order_conductor"]
    report = FeasibilityReport(
        profile=profile,
        sign=doc["sign"],
        gartner_options=tuple(_spec_from(d, places_by_index)
                              for d in doc["gartner_options"]),
        greenberg_options=tuple(_spec_from(d, places_by_index)
                                for d in doc["greenberg_options"]),
        checks=tuple(_check_from(c) for c in doc["checks"]),
        theorem1_consistent=doc["theorem1_consistent"],
        order_conductor=_ideal_from(order) if order is not None else None,
        assumed=tuple(doc["assumed"]),
    )
    _require(doc["failure_reasons"] == _reasons_doc(report),
             "failure_reasons do not match the failing checks")
    return report
