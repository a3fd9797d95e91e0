"""The engine's value records, their invariants, and the engine's cold start.

The records replaced frozen dataclasses, so each is checked against a
dataclass built with the former field names: the same repr, the same hash
(which fixes set and dict orders, and so the report bytes) and the same
equality.
"""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from darmonsel import (
    Check,
    ConductorProfile,
    FeasibilityReport,
    IdealFactorization,
    InputConfig,
    NumberField,
    Options,
    PrimeIdeal,
    QuadraticExtension,
    QuaternionAlgebraSpec,
    RealPlace,
    Reason,
    ReasonCode,
    factor_ideal,
    feasibility_report,
    parse_field,
)
from darmonsel.intmath import primes_below
from darmonsel.quadratic import FIRST_SIEVE, _odd_unwarned_primes
from darmonsel.serialize import config_from_doc

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "corpus" / "golden.json"

# each record's fields in declaration order, as the dataclasses declared them
FIELDS = {
    PrimeIdeal: ("p", "local_factor", "e", "f"),
    RealPlace: ("index", "lo", "hi", "precision"),
    NumberField: ("degree", "defining_poly", "poly_disc", "index_warning_primes",
                  "explicit_primes"),
    IdealFactorization: ("factors",),
    QuadraticExtension: ("base", "delta", "certificate"),
    Reason: ("code", "detail"),
    Check: ("label", "subject", "ok", "detail"),
    ConductorProfile: ("extension", "conductor", "real_classes", "finite_classes"),
    QuaternionAlgebraSpec: ("kind", "distinguished", "ramified_real",
                            "ramified_finite", "n_plus", "n_prime", "n_minus"),
    FeasibilityReport: ("profile", "sign", "gartner_options", "greenberg_options",
                        "checks", "theorem1_consistent", "order_conductor",
                        "assumed"),
    Options: ("allow_drop_b4", "oracle_check", "precision_bits"),
    InputConfig: ("field_poly", "delta", "conductor", "order_conductor",
                  "options", "config_id"),
}


@pytest.fixture(scope="module")
def samples(F_rat, F_sqrt2_full, K_sqrt5):
    """One instance of every record class, taken from real decisions."""
    report = feasibility_report(K_sqrt5, factor_ideal(F_rat, generator=[22]))
    (spec,) = report.greenberg_options
    prof = report.profile
    infeasible = feasibility_report(K_sqrt5, factor_ideal(F_rat, generator=[6]))
    config = config_from_doc(json.loads(GOLDEN.read_text())["records"][0])
    return {
        PrimeIdeal: spec.distinguished,
        RealPlace: prof.real_classes[0][0],
        NumberField: F_sqrt2_full,
        IdealFactorization: prof.conductor,
        QuadraticExtension: prof.extension,
        Reason: infeasible.failure_reasons[0],
        Check: report.checks[0],
        ConductorProfile: prof,
        QuaternionAlgebraSpec: spec,
        FeasibilityReport: report,
        Options: Options(oracle_check=True, precision_bits=64),
        InputConfig: config,
    }


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_record_matches_the_former_dataclass(cls, samples):
    x = samples[cls]
    names = FIELDS[cls]
    values = tuple(getattr(x, name) for name in names)
    former = dataclasses.make_dataclass(cls.__name__, names, frozen=True)(*values)
    assert repr(x) == repr(former)
    if cls is InputConfig:
        # the conductor is a dict, so neither the record nor its tuple hashes
        with pytest.raises(TypeError):
            hash(x)
        with pytest.raises(TypeError):
            hash(values)
    else:
        assert hash(x) == hash(values) == hash(former)
    # positional and keyword construction give equal records
    positional = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    assert positional == x and keyword == x and not positional != x
    # another class never compares equal, not even with the same fields
    assert x.__eq__(former) is NotImplemented
    assert x != former and x != values
    other = samples[PrimeIdeal if cls is not PrimeIdeal else RealPlace]
    assert x.__eq__(other) is NotImplemented and x != other
    for name in names + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, names[0])
    assert getattr(x, names[0]) is values[0]


def test_record_reprs_and_defaults(F_rat, K_sqrt5):
    P = PrimeIdeal(7, (0, 1), 1, 1)
    assert repr(P) == "PrimeIdeal(p=7, local_factor=(0, 1), e=1, f=1)"
    assert repr(Options()) == ("Options(allow_drop_b4=False, oracle_check=False, "
                               "precision_bits=32)")
    assert repr(Reason(ReasonCode.SIGN_PLUS_ONE)) == (
        "Reason(code=<ReasonCode.SIGN_PLUS_ONE: 'SignPlusOne'>, detail='')")
    assert repr(IdealFactorization.from_pairs([(P, 2)])) == (
        "IdealFactorization(factors=((PrimeIdeal(p=7, local_factor=(0, 1), "
        "e=1, f=1), 2),))")
    assert repr(RealPlace(1, Fraction(1, 2), Fraction(1), Fraction(1))) == (
        "RealPlace(index=1, lo=Fraction(1, 2), hi=Fraction(1, 1), "
        "precision=Fraction(1, 1))")
    assert hash(IdealFactorization.unit()) == hash(((),))
    # defaults
    assert Options() == Options(False, False, 32)
    config = InputConfig((0, 1), (5,), {"generator": [22]})
    assert config.options == Options() and config.order_conductor is None
    assert config.config_id == ""
    assert NumberField(1, (0, 1), 1, frozenset()).explicit_primes == ()
    assert QuadraticExtension(F_rat, (5,)).certificate is None
    report = FeasibilityReport(None, -1, (), (), (), True)
    assert report.assumed == ("B2",) and report.order_conductor is None
    # a cached property lives beside the fields and stays out of the repr
    assert K_sqrt5.real_signs == (1,)
    assert "real_signs" in vars(K_sqrt5) and "real_signs" not in repr(K_sqrt5)


def test_records_refuse_assignment_with_the_field_name():
    with pytest.raises(AttributeError, match="cannot assign to field 'p'"):
        PrimeIdeal(7, (0, 1), 1, 1).p = 11


def test_record_invariants_raise_under_optimize(run_optimized):
    # the record checks must not depend on assert, which python -O strips
    out = run_optimized("""
        from darmonsel import (IdealFactorization, InternalInvariant, Kind,
                               PrimeIdeal, QuaternionAlgebraSpec, factor_ideal,
                               parse_field)
        assert False, "asserts must be stripped"
        F = parse_field([0, 1])
        (P2, _), (P11, _) = factor_ideal(F, generator=[22]).factors
        attempts = {
            # N- = (11) but no finite ramified place
            "spec": lambda: QuaternionAlgebraSpec(
                kind=Kind.GREENBERG, distinguished=P2, ramified_real=(),
                ramified_finite=(), n_plus=IdealFactorization.unit(),
                n_prime=IdealFactorization.from_pairs([(P2, 1)]),
                n_minus=IdealFactorization.from_pairs([(P11, 1)])),
            "unsorted": lambda: IdealFactorization(((P11, 1), (P2, 1))),
            "repeated": lambda: IdealFactorization(((P2, 1), (P2, 1))),
            "zero-exponent": lambda: IdealFactorization(((P2, 0),)),
            "negative": lambda: IdealFactorization.from_pairs([(P2, -1)]),
        }
        for name, attempt in attempts.items():
            try:
                attempt()
                print(name, "accepted")
            except InternalInvariant:
                print(name, "InternalInvariant")
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [
        "spec", "InternalInvariant", "unsorted", "InternalInvariant",
        "repeated", "InternalInvariant", "zero-exponent", "InternalInvariant",
        "negative", "InternalInvariant"]


def test_primes_walk_the_small_sieve_first():
    # disc = 4 * 3 * 1033: warned primes on both sides of the first sieve,
    # and 1031, the first prime past it, is not one of them
    F = parse_field([-3 * 1033, 0, 1])
    assert F.index_warning_primes == {2, 3, 1033} and 1031 > FIRST_SIEVE
    walked = list(_odd_unwarned_primes(F))
    assert walked == [p for p in primes_below(10**5)
                      if p != 2 and p not in F.index_warning_primes]


def test_cold_start_imports_only_what_a_decision_needs(tmp_path):
    # a fresh interpreter without site: importing the engine and the CLI
    # module and deciding one record must not load the dataclasses machinery
    # or argparse, nor sieve to 10^5; main() loads argparse when it runs
    doc = json.loads(GOLDEN.read_text())["records"][0]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    script = f"""
import sys
sys.path.insert(0, {str(ROOT / 'src')!r})
import darmonsel, darmonsel.cli
from darmonsel import cli, intmath, serialize
code, report, trace = cli.run_single(serialize.config_from_doc({doc!r}))
print(code, sorted(m for m in ("dataclasses", "inspect", "argparse")
                   if m in sys.modules), intmath.primes_below.cache_info().currsize)
print(cli.main(["--input", {str(config)!r}, "--oracle", "--no-trace",
                "--out", {str(tmp_path / 'report.json')!r}]),
      "argparse" in sys.modules)
"""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["0 [] 1", "0 True"]
    assert json.loads((tmp_path / "report.json").read_text())["sign"] == -1
