"""The check log is the single record of every structural check: the failure
reasons, the human trace and the machine report are all read from it."""

import functools
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from darmonsel.cli import format_trace
from darmonsel.errors import IsSquare, NoRealPlace, ZeroDelta
from darmonsel.feasibility import ReasonCode, feasibility_report
from darmonsel.fields import IdealFactorization, parse_field, primes_above
from darmonsel.quadratic import PlaceType, classify_finite_prime, make_extension
from darmonsel.serialize import (
    config_from_doc,
    emit_report,
    parse_report,
    realize_config,
)

RAT_POLY = (0, 1)
SQRT2_POLY = (-2, 0, 1)
CUBIC_POLY = (-1, -2, 1, 1)
CORPUS = Path(__file__).resolve().parents[1] / "corpus" / "golden.json"

# written out here, independently of the engine's own table
REASON_OF_FAILED_CHECK = {
    "B1": ReasonCode.NO_INERT_REAL_PLACE,
    "B4": ReasonCode.INERT_PART_NOT_SQUAREFREE,
    "C2": ReasonCode.NO_EXACT_INERT_PRIME,
    "C3": ReasonCode.INERT_PART_NOT_SQUAREFREE,
    "(vii)": ReasonCode.PARITY_OBSTRUCTION,
}


def report_level_codes(rep):
    prof = rep.profile
    codes = set()
    if not prof.disc_coprime or (rep.order_conductor is not None
                                 and not rep.order_conductor.coprime_to(prof.conductor)):
        codes.add(ReasonCode.DISC_NOT_COPRIME)
    if rep.sign == 1:
        codes.add(ReasonCode.SIGN_PLUS_ONE)
    if not prof.inert_part_squarefree:
        codes.add(ReasonCode.INERT_PART_NOT_SQUAREFREE)
    return codes


def assert_single_log(rep):
    # the trace is a pure function of the report
    assert format_trace(parse_report(emit_report(rep))) == format_trace(rep)
    # the failure reasons are the failing checks plus the report-level ones
    failing = {REASON_OF_FAILED_CHECK[c.label] for c in rep.checks
               if not c.ok and c.label in REASON_OF_FAILED_CHECK}
    assert {r.code for r in rep.failure_reasons} == failing | report_level_codes(rep)
    # every emitted spec carries its own checks, named by kind and position
    options = {"gartner": rep.gartner_options, "greenberg": rep.greenberg_options}
    for kind, specs in options.items():
        for i, spec in enumerate(specs):
            own = [c for c in rep.checks if c.subject == f"{kind}[{i}]"]
            assert [c.label for c in own][-4:] == [
                "A", "(iv)", "(viii)", "B3" if kind == "gartner" else "C4"]
            # records name their spec; they do not repeat its level strings
            levels = [str(I) for I in (spec.n_plus, spec.n_prime, spec.n_minus)
                      if not I.is_unit]
            assert not any(level in c.detail for c in own for level in levels)


def golden_records():
    return json.loads(CORPUS.read_text())["records"]


@pytest.mark.parametrize("drop_b4", [False, True])
@pytest.mark.parametrize("doc", golden_records(), ids=lambda d: d["id"])
def test_golden_records_read_one_log(doc, drop_b4):
    K, N, order = realize_config(config_from_doc(doc))
    assert_single_log(feasibility_report(K, N, order_conductor=order,
                                         allow_drop_b4=drop_b4))


@functools.cache
def base_field(poly):
    F = parse_field(list(poly))
    return F, [P for p in (3, 5, 11, 13, 17, 19, 23) if p not in F.index_warning_primes
               for P in primes_above(F, p)]


@given(poly=st.sampled_from([RAT_POLY, SQRT2_POLY, CUBIC_POLY]),
       data=st.data(), drop_b4=st.booleans())
@settings(max_examples=120, deadline=None)
def test_random_decisions_read_one_log(poly, data, drop_b4):
    F, primes = base_field(poly)
    delta = data.draw(st.lists(st.integers(-9, 9), min_size=F.degree,
                               max_size=F.degree))
    try:
        K = make_extension(F, delta)
    except (ZeroDelta, IsSquare, NoRealPlace):
        assume(False)
    chosen = data.draw(st.dictionaries(st.sampled_from(primes), st.integers(1, 2),
                                       max_size=5))
    N = IdealFactorization.from_pairs(chosen.items())
    assert_single_log(feasibility_report(K, N, allow_drop_b4=drop_b4))


def test_widened_log_records_each_obstruction_once():
    # K = F(sqrt(3 sqrt2)) over Q(sqrt2): tau_1 is inert, (3) ramifies. With
    # five inert primes in N the widened selector walks 32 subsets, and every
    # even one fails (viii) on the ramified prime left in N+.
    F = parse_field(list(SQRT2_POLY))
    K = make_extension(F, [0, 3])
    (P3,) = primes_above(F, 3)
    inert = [P for p in (5, 7, 13, 23, 29) for P in primes_above(F, p)
             if classify_finite_prime(K, P) is PlaceType.INERT]
    assert len(inert) == 5
    N = IdealFactorization.from_pairs([(P3, 1)] + [(P, 1) for P in inert])
    rep = feasibility_report(K, N, allow_drop_b4=True)
    assert not rep.gartner_options
    gartner = Counter((c.label, c.ok) for c in rep.checks
                      if c.subject == "gartner tau_1")
    # one record per odd subset size, one for all the failing even subsets
    assert gartner == {("B1", True): 1, ("(vii)", False): 3, ("(viii)", False): 1}
    assert_single_log(rep)
