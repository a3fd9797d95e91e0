import pytest
from hypothesis import given, settings, strategies as st

from darmonsel import oracle
from darmonsel.errors import DiscNotCoprime, SearchSpaceTooLarge
from darmonsel.feasibility import (
    SUBSET_BOUND,
    Kind,
    QuaternionAlgebraSpec,
    ReasonCode,
    build_profile,
    check_optimal_embedding_local,
    feasibility_report,
    select_gartner,
    select_greenberg,
    sign_functional_equation,
    validate_spec,
)
from darmonsel.fields import IdealFactorization, factor_ideal, parse_field, primes_above
from darmonsel.intmath import is_prime
from darmonsel.quadratic import PlaceType, classify_finite_prime, make_extension


@pytest.fixture(scope="module")
def cubic_setup():
    F = parse_field([-1, -2, 1, 1])
    K = make_extension(F, [0, 1])
    # smallest rational prime with a degree-1 factor inert in K is 13
    inert = [P for P in primes_above(F, 13)
             if classify_finite_prime(K, P) is PlaceType.INERT]
    return F, K, inert[0]


def test_build_profile_golden_22(K_sqrt5, rational_ideal):
    prof = build_profile(K_sqrt5, rational_ideal(22))
    assert prof.inert_real_count == 0
    assert [(P.p, e) for P, e in prof.inert_finite] == [(2, 1)]
    assert prof.inert_part_squarefree and prof.disc_coprime
    assert sign_functional_equation(prof) == -1


def test_build_profile_golden_atr(K_atr):
    prof = build_profile(K_atr, IdealFactorization.unit())
    assert prof.inert_real_count == 1
    assert prof.inert_finite == ()
    assert sign_functional_equation(prof) == -1


def test_build_profile_strict_raises(K_sqrt5, rational_ideal):
    with pytest.raises(DiscNotCoprime):
        build_profile(K_sqrt5, rational_ideal(15))
    prof = build_profile(K_sqrt5, rational_ideal(15), strict=False)
    assert not prof.disc_coprime


def test_sign_examples(K_sqrt5, K_atr, rational_ideal):
    assert sign_functional_equation(build_profile(K_sqrt5, rational_ideal(6))) == 1
    assert sign_functional_equation(build_profile(K_sqrt5, rational_ideal(22))) == -1
    assert sign_functional_equation(build_profile(K_atr, IdealFactorization.unit())) == -1
    # sign counts distinct inert primes, not multiplicity
    assert sign_functional_equation(build_profile(K_sqrt5, rational_ideal(4))) == -1
    assert sign_functional_equation(build_profile(K_sqrt5, rational_ideal(8))) == -1


def test_select_greenberg_golden_22(K_sqrt5, rational_ideal):
    prof = build_profile(K_sqrt5, rational_ideal(22))
    specs = select_greenberg(prof)
    assert len(specs) == 1
    s = specs[0]
    assert s.kind is Kind.GREENBERG
    assert s.distinguished.p == 2
    assert [(P.p, e) for P, e in s.n_plus.factors] == [(11, 1)]
    assert [(P.p, e) for P, e in s.n_prime.factors] == [(2, 1)]
    assert s.n_minus.is_unit
    assert s.ramified_real == () and s.ramified_finite == ()
    assert select_gartner(prof) == ()
    validate_spec(s, prof)


def test_select_gartner_golden_atr(K_atr):
    prof = build_profile(K_atr, IdealFactorization.unit())
    specs = select_gartner(prof)
    assert len(specs) == 1
    s = specs[0]
    assert s.kind is Kind.GARTNER
    assert s.distinguished.index == 1
    assert s.ramified_real == () and s.ramified_finite == ()
    assert s.n_plus.is_unit and s.n_prime.is_unit and s.n_minus.is_unit
    assert select_greenberg(prof) == ()
    validate_spec(s, prof)


def test_greenberg_parity_rejection_66(K_sqrt5, rational_ideal):
    # two inert primes: each single-prime level choice leaves an odd set
    prof = build_profile(K_sqrt5, rational_ideal(66))
    assert select_greenberg(prof) == ()
    assert sign_functional_equation(prof) == 1


def test_greenberg_exponent_rejection_4(K_sqrt5, rational_ideal):
    prof = build_profile(K_sqrt5, rational_ideal(4))
    assert select_greenberg(prof) == ()
    rep = feasibility_report(K_sqrt5, rational_ideal(4))
    codes = {r.code for r in rep.failure_reasons}
    assert ReasonCode.NO_EXACT_INERT_PRIME in codes
    assert ReasonCode.INERT_PART_NOT_SQUAREFREE in codes
    assert rep.theorem1_consistent


def test_cubic_both_constructions(cubic_setup):
    F, K, P = cubic_setup
    N = IdealFactorization.from_pairs([(P, 1)])
    rep = feasibility_report(K, N)
    assert rep.sign == -1
    assert len(rep.gartner_options) == 2
    assert len(rep.greenberg_options) == 1
    assert rep.both_feasible and rep.theorem1_consistent
    for s in rep.gartner_options:
        assert len(s.ramified_real) == 1 and s.ramified_finite == (P,)
        assert s.n_minus.factors == ((P, 1),)
        assert s.n_plus.is_unit and s.n_prime.is_unit
    (h,) = rep.greenberg_options
    assert len(h.ramified_real) == 2 and h.ramified_finite == ()
    assert h.n_prime.factors == ((P, 1),)
    # the two gartner specs differ exactly in the distinguished place
    d1, d2 = (s.distinguished.index for s in rep.gartner_options)
    assert {d1, d2} == {1, 2}


def test_cubic_unit_conductor_parity_block(cubic_setup):
    F, K, _ = cubic_setup
    rep = feasibility_report(K, IdealFactorization.unit())
    assert rep.sign == 1 and not rep.feasible
    assert ReasonCode.PARITY_OBSTRUCTION in {r.code for r in rep.failure_reasons}
    assert rep.theorem1_consistent


def test_report_reason_codes_golden_6(K_sqrt5, rational_ideal):
    rep = feasibility_report(K_sqrt5, rational_ideal(6))
    assert rep.sign == 1 and not rep.feasible and rep.theorem1_consistent
    codes = {r.code for r in rep.failure_reasons}
    assert ReasonCode.SIGN_PLUS_ONE in codes
    assert ReasonCode.NO_INERT_REAL_PLACE in codes
    assert ReasonCode.PARITY_OBSTRUCTION in codes


def test_report_disc_not_coprime(K_sqrt5, rational_ideal):
    rep = feasibility_report(K_sqrt5, rational_ideal(15))
    assert not rep.feasible
    assert ReasonCode.DISC_NOT_COPRIME in {r.code for r in rep.failure_reasons}
    assert rep.theorem1_consistent


def test_report_order_conductor(K_sqrt5, rational_ideal):
    rep = feasibility_report(K_sqrt5, rational_ideal(22),
                             order_conductor=rational_ideal(3))
    assert rep.feasible
    assert ReasonCode.DISC_NOT_COPRIME not in {r.code for r in rep.failure_reasons}
    clash = feasibility_report(K_sqrt5, rational_ideal(22),
                               order_conductor=rational_ideal(2))
    assert ReasonCode.DISC_NOT_COPRIME in {r.code for r in clash.failure_reasons}
    assert clash.order_conductor == rational_ideal(2)


def test_embedding_check_rejects_bad_spec(K_sqrt5, rational_ideal):
    # hand-built violation: put the inert prime (2) into N+ and the split
    # prime (11) into N', shapes legal but locally inadmissible
    prof = build_profile(K_sqrt5, rational_ideal(22))
    (P2, _), (P11, _) = prof.conductor.factors
    bad = QuaternionAlgebraSpec(
        kind=Kind.GREENBERG,
        distinguished=P11,
        ramified_real=(),
        ramified_finite=(),
        n_plus=IdealFactorization.from_pairs([(P2, 1)]),
        n_prime=IdealFactorization.from_pairs([(P11, 1)]),
        n_minus=IdealFactorization.unit(),
    )
    assert not check_optimal_embedding_local(bad, prof)
    good = select_greenberg(prof)[0]
    assert check_optimal_embedding_local(good, prof)


def test_assumed_flags(K_sqrt5, rational_ideal):
    rep = feasibility_report(K_sqrt5, rational_ideal(22))
    assert rep.assumed == ("B2",)


def test_drop_b4_widening(cubic_setup):
    F, K, P = cubic_setup
    # N = P^2: default gartner blocked (not squarefree at P); widening moves
    # P^2 into N+ but the empty ramified subset has odd parity with one real
    N = IdealFactorization.from_pairs([(P, 2)])
    prof = build_profile(K, N)
    assert select_gartner(prof) == ()
    assert select_gartner(prof, allow_drop_b4=True) == ()
    # N = P: widening adds no new spec beyond the default candidate
    N1 = IdealFactorization.from_pairs([(P, 1)])
    prof1 = build_profile(K, N1)
    assert select_gartner(prof1, allow_drop_b4=True) == select_gartner(prof1)


def test_drop_b4_creates_new_options():
    # the ATR field has one inert real place; with two inert primes in N the
    # widened selector may leave both unramified (subset of size 0, parity 0)
    F = parse_field([-2, 0, 1])
    K = make_extension(F, [0, 1])
    inert = []
    for p in (3, 5, 7, 11, 13):
        for P in primes_above(F, p):
            if classify_finite_prime(K, P) is PlaceType.INERT:
                inert.append(P)
        if len(inert) >= 2:
            break
    P1, P2 = inert[:2]
    N = IdealFactorization.from_pairs([(P1, 1), (P2, 1)])
    prof = build_profile(K, N)
    default = select_gartner(prof)
    widened = select_gartner(prof, allow_drop_b4=True)
    # default: both inert primes must ramify; 0 reals + 2 primes even, allowed
    assert len(default) == 1
    # widened adds the empty subset (0 + 0 even) with both primes in N+
    assert len(widened) == 2
    assert set(default) <= set(widened)
    extra = next(s for s in widened if s not in default)
    assert extra.ramified_finite == ()
    assert extra.n_plus == N
    for s in widened:
        validate_spec(s, prof, allow_drop_b4=True)


@given(st.integers(2, 500))
@settings(max_examples=100, deadline=None)
def test_theorem_properties_random_rational(m):
    F = parse_field([0, 1])
    K = make_extension(F, [5])
    N = factor_ideal(F, generator=[m])
    rep = feasibility_report(K, N)
    prof = rep.profile
    if rep.feasible:
        assert rep.sign == -1
    if (rep.sign == -1 and prof.inert_part_squarefree and prof.disc_coprime):
        assert rep.feasible
        if prof.inert_finite:
            assert rep.greenberg_options
        if prof.inert_real_count:
            assert rep.gartner_options
    assert rep.theorem1_consistent
    for s in rep.gartner_options + rep.greenberg_options:
        validate_spec(s, prof)


def test_embedding_check_widened_mode(K_sqrt5, rational_ideal):
    # N = 2 * 3 * 11: (2) and (3) inert, (11) split. A greenberg spec with
    # (3) in N+ is locally admissible only when N+ may hold inert primes.
    prof = build_profile(K_sqrt5, rational_ideal(66))
    (P2, _), (P3, _), (P11, _) = prof.conductor.factors
    spec = QuaternionAlgebraSpec(
        kind=Kind.GREENBERG,
        distinguished=P2,
        ramified_real=(),
        ramified_finite=(),
        n_plus=IdealFactorization.from_pairs([(P3, 1), (P11, 1)]),
        n_prime=IdealFactorization.from_pairs([(P2, 1)]),
        n_minus=IdealFactorization.unit(),
    )
    assert not check_optimal_embedding_local(spec, prof)
    assert check_optimal_embedding_local(spec, prof, allow_drop_b4=True)


def test_validate_spec_returns_named_checks(K_sqrt5, rational_ideal):
    prof = build_profile(K_sqrt5, rational_ideal(22))
    (spec,) = select_greenberg(prof)
    checks = validate_spec(spec, prof, position=0)
    assert [(c.label, c.subject, c.ok) for c in checks] == [
        ("A", "greenberg[0]", True), ("(iv)", "greenberg[0]", True),
        ("(viii)", "greenberg[0]", True), ("C4", "greenberg[0]", True)]


def test_validate_spec_raises_internal_invariant_under_optimize(run_optimized):
    # N+ holds the inert prime (3) with drop-B4 off: the spec satisfies its
    # own constructor but not the local embedding criterion. The check must
    # not depend on assert, which python -O strips.
    out = run_optimized("""
        import sys
        from darmonsel import (IdealFactorization, InternalInvariant, Kind,
                               QuaternionAlgebraSpec, build_profile,
                               factor_ideal, make_extension, parse_field)
        from darmonsel.feasibility import validate_spec
        assert False, "asserts must be stripped"
        F = parse_field([0, 1])
        prof = build_profile(make_extension(F, [5]), factor_ideal(F, generator=[66]))
        (P2, _), (P3, _), (P11, _) = prof.conductor.factors
        spec = QuaternionAlgebraSpec(
            kind=Kind.GREENBERG, distinguished=P2, ramified_real=(),
            ramified_finite=(),
            n_plus=IdealFactorization.from_pairs([(P3, 1), (P11, 1)]),
            n_prime=IdealFactorization.from_pairs([(P2, 1)]),
            n_minus=IdealFactorization.unit())
        try:
            validate_spec(spec, prof)
        except InternalInvariant as e:
            print("InternalInvariant:", e)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("InternalInvariant: greenberg[0] fails (viii), C4")


def test_widened_selector_refuses_past_the_subset_bound(K_atr):
    # 21 exact inert primes: the widened selector would walk 2^21 subsets, one
    # doubling past the bound it shares with the oracle, so it raises
    assert oracle.SUBSET_BOUND is SUBSET_BOUND == 20
    F = K_atr.base
    inert = []
    p = 2
    while len(inert) < SUBSET_BOUND + 1:
        p += 1
        if p in F.index_warning_primes or not is_prime(p):
            continue
        inert += [P for P in primes_above(F, p)
                  if classify_finite_prime(K_atr, P) is PlaceType.INERT]
    N = IdealFactorization.from_pairs((P, 1) for P in inert[:SUBSET_BOUND + 1])
    prof = build_profile(K_atr, N)
    assert len(prof.inert_finite) == SUBSET_BOUND + 1
    with pytest.raises(SearchSpaceTooLarge, match="subset bound"):
        select_gartner(prof, allow_drop_b4=True)
    with pytest.raises(SearchSpaceTooLarge):
        feasibility_report(K_atr, N, allow_drop_b4=True)
    # the default selector walks one subset per inert real place: all 21
    # primes ramify, an odd count, so it answers (empty) instead of raising
    assert select_gartner(prof) == ()
    reasons = feasibility_report(K_atr, N).failure_reasons
    assert ReasonCode.PARITY_OBSTRUCTION in {r.code for r in reasons}
