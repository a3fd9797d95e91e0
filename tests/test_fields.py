import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from darmonsel import polyarith, polymod
from darmonsel.errors import (
    DegreeUnsupported,
    IndexObstruction,
    InputError,
    LocalDataInsufficient,
    NormTooLarge,
    NotIrreducible,
    NotMonic,
    NotTotallyReal,
    PrimalityUnproven,
)
from darmonsel.fields import (
    IdealFactorization,
    PrimeIdeal,
    factor_ideal,
    parse_field,
    prime_power,
    primes_above,
    real_embeddings,
)


def test_parse_field_rejections():
    with pytest.raises(NotMonic):
        parse_field([1, 2])
    with pytest.raises(DegreeUnsupported):
        parse_field([])
    with pytest.raises(DegreeUnsupported):
        parse_field([3])
    with pytest.raises(NotIrreducible):
        parse_field([-4, 0, 1])
    with pytest.raises(NotTotallyReal):
        parse_field([1, 0, 1])
    with pytest.raises(DegreeUnsupported):
        parse_field([-2, 0, 0, 0, 0, 1])


def test_parse_field_goldens(F_rat, F_sqrt2, F_cubic):
    assert F_rat.degree == 1 and F_rat.poly_disc == 1
    assert F_sqrt2.degree == 2 and F_sqrt2.poly_disc == 8
    assert F_sqrt2.index_warning_primes == frozenset({2})
    assert F_cubic.degree == 3 and F_cubic.poly_disc == 49
    assert F_cubic.index_warning_primes == frozenset({7})
    F5 = parse_field([-5, 0, 1])
    assert F5.poly_disc == 20
    assert F5.index_warning_primes == frozenset({2, 5})


def test_real_embeddings_ordering(F_cubic):
    places = real_embeddings(F_cubic)
    assert [v.index for v in places] == [1, 2, 3]
    mids = [(v.lo + v.hi) / 2 for v in places]
    assert mids == sorted(mids)
    assert all(v.width <= Fraction(1, 2**32) for v in places)


def test_refine_place(F_sqrt2, F_cubic):
    # refining walks the same midpoints from the field's isolating intervals,
    # so a finer request nests inside a coarser one, place by place
    for F in (F_sqrt2, F_cubic):
        coarse = real_embeddings(F, Fraction(1, 2**32))
        fine = real_embeddings(F, Fraction(1, 2**64))
        for v, w in zip(coarse, fine, strict=True):
            assert w.width <= Fraction(1, 2**64) < v.width
            assert v.lo <= w.lo <= w.hi <= v.hi
            assert w.index == v.index
        for v, (lo, hi) in zip(coarse, F.root_intervals, strict=True):
            assert lo <= v.lo <= v.hi <= hi


def test_real_embeddings_separate_touching_cells():
    # at width 1/2, neighbouring isolation cells can share an endpoint (16 of
    # these cubics, e.g. x^3 - 6x^2 - 6x - 1); the places must stay disjoint
    fields = []
    for c0, c1, c2 in itertools.product(range(-6, 7), repeat=3):
        try:
            fields.append(parse_field([c0, c1, c2, 1]))
        except (NotIrreducible, NotTotallyReal):
            pass
    assert len(fields) == 484
    for F in fields:
        places = real_embeddings(F, Fraction(1, 2))
        for a, b in zip(places, places[1:]):
            assert a.hi < b.lo, F
        for v in places:
            assert v.width <= Fraction(1, 2)
            assert (polyarith.eval_at(F.defining_poly, v.lo)
                    * polyarith.eval_at(F.defining_poly, v.hi) < 0)


def test_primes_above_split_inert(F_sqrt2):
    split = primes_above(F_sqrt2, 7)
    assert len(split) == 2
    assert {P.local_factor for P in split} == {(3, 1), (4, 1)}
    assert all(P.e == 1 and P.f == 1 and P.norm == 7 for P in split)
    inert = primes_above(F_sqrt2, 5)
    assert len(inert) == 1 and inert[0].f == 2 and inert[0].norm == 25


def test_primes_above_warned_and_explicit(F_sqrt2, F_sqrt2_full):
    with pytest.raises(IndexObstruction):
        primes_above(F_sqrt2, 2)
    (P,) = primes_above(F_sqrt2_full, 2)
    assert P.e == 2 and P.f == 1 and P.local_factor == (0, 1)


def test_with_explicit_primes_validation(F_sqrt2):
    with pytest.raises(InputError):
        # 3 is not a warned prime
        F_sqrt2.with_explicit_primes(3, [PrimeIdeal(3, (0, 1), 1, 1)])
    with pytest.raises(InputError):
        # sum e*f != degree
        F_sqrt2.with_explicit_primes(2, [PrimeIdeal(2, (0, 1), 1, 1)])


def test_factor_ideal_generator(F_rat, F_sqrt2_full):
    N = factor_ideal(F_rat, generator=[22])
    assert [(P.p, e) for P, e in N.factors] == [(2, 1), (11, 1)]
    assert N.norm() == 22
    # (2) over Q(sqrt2) is the square of the prime above 2
    N2 = factor_ideal(F_sqrt2_full, generator=[2])
    assert [(P.p, P.e, e) for P, e in N2.factors] == [(2, 2, 2)]
    # theta itself generates that prime to the first power
    Nt = factor_ideal(F_sqrt2_full, generator=[0, 1])
    assert [(P.p, e) for P, e in Nt.factors] == [(2, 1)]


def test_factor_ideal_units_and_errors(F_rat, F_sqrt2):
    assert factor_ideal(F_rat, generator=[1]).is_unit
    assert factor_ideal(F_rat, generator=[-1]).is_unit
    # 1 + theta is a fundamental unit of Z[sqrt2] up to sign
    assert factor_ideal(F_sqrt2, generator=[1, 1]).is_unit
    with pytest.raises(InputError):
        factor_ideal(F_rat, generator=[0])
    with pytest.raises(InputError):
        factor_ideal(F_rat)
    with pytest.raises(InputError):
        factor_ideal(F_rat, generator=[2], factors=[])
    with pytest.raises(NormTooLarge):
        # norm is a 40+ digit semiprime with no small factors
        factor_ideal(F_rat, generator=[(10**21 + 117) * (10**22 + 7)])
    with pytest.raises(PrimalityUnproven):
        # the cofactor psi_12 passes every Miller-Rabin base, beyond their proof
        factor_ideal(F_rat, generator=[2 * 318665857834031151167461])


def exponents(N):
    return [(P.p, P.local_factor, e) for P, e in N.factors]


def test_factor_ideal_splits_valuations_between_primes(F_sqrt2, F_sqrt2_full,
                                                       F_cubic):
    # both primes above 7 divide the rational integer 7; each gets its own
    # valuation from the completion at that prime
    P1, P2 = (3, 1), (4, 1)  # (7, x + 3) contains 3 + theta
    assert exponents(factor_ideal(F_sqrt2, generator=[7])) == [
        (7, P1, 1), (7, P2, 1)]
    assert exponents(factor_ideal(F_sqrt2, generator=[49])) == [
        (7, P1, 2), (7, P2, 2)]
    assert exponents(factor_ideal(F_sqrt2, generator=[21, 7])) == [
        (7, P1, 2), (7, P2, 1)]
    # 3 + theta has norm 7 and generates one factor
    assert exponents(factor_ideal(F_sqrt2, generator=[3, 1])) == [(7, P1, 1)]
    # the ramified prime (theta) above 2 takes what the norm leaves
    assert exponents(factor_ideal(F_sqrt2_full, generator=[14])) == [
        (2, (0, 1), 2), (7, P1, 1), (7, P2, 1)]
    N13 = factor_ideal(F_cubic, generator=[13])
    assert N13.factors == tuple((P, 1) for P in primes_above(F_cubic, 13))
    assert len(N13.factors) == 3


def test_factor_ideal_two_ramified_primes_share_the_norm():
    # Q(sqrt2, sqrt7) = Q(sqrt2 + sqrt7): (7) = P1^2 P2^2, and the norm of 7
    # cannot say how its valuation 4 splits between the two ramified primes
    F = parse_field([25, 0, -18, 0, 1])
    F = F.with_explicit_primes(7, [PrimeIdeal(7, (3, 1), 2, 1),
                                   PrimeIdeal(7, (4, 1), 2, 1)])
    with pytest.raises(LocalDataInsufficient):
        factor_ideal(F, generator=[7])


def test_prime_ideal_shape_checks_survive_optimize(run_optimized):
    out = run_optimized("""
        from darmonsel.errors import InputError
        from darmonsel.fields import PrimeIdeal
        assert False, "asserts must be stripped"
        for args in ((7, (3, 2), 1, 1), (7, (3, 1), 1, 2), (7, (3, 1), 0, 1),
                     (7, (), 1, -1)):
            try:
                PrimeIdeal(*args)
            except InputError:
                print("InputError")
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["InputError"] * 4


def test_factor_ideal_factored_form(F_sqrt2):
    P1, P2 = primes_above(F_sqrt2, 7)
    N = factor_ideal(F_sqrt2, factors=[(P1, 2), (P2, 1)])
    assert N.exponent_of(P1) == 2 and N.exponent_of(P2) == 1
    assert N.norm() == 7**3
    with pytest.raises(InputError):
        factor_ideal(F_sqrt2, factors=[(P1, 1), (P1, 1)])
    with pytest.raises(InputError):
        factor_ideal(F_sqrt2, factors=[(P1, 0)])
    wrong_field_prime = PrimeIdeal(7, (1, 1), 1, 1)  # x+1 does not divide x^2-2 mod 7
    with pytest.raises(InputError):
        factor_ideal(F_sqrt2, factors=[(wrong_field_prime, 1)])


def test_ideal_algebra(F_rat):
    N6 = factor_ideal(F_rat, generator=[6])
    N10 = factor_ideal(F_rat, generator=[10])
    N60 = N6.mul(N10)
    assert N60.norm() == 60
    assert N60.div_exact(N6) == N10
    assert not N6.coprime_to(N10)
    assert N6.coprime_to(factor_ideal(F_rat, generator=[35]))
    with pytest.raises(InputError):
        N6.div_exact(factor_ideal(F_rat, generator=[4]))
    P2 = N6.factors[0][0]
    assert prime_power(P2, 3).norm() == 8
    assert N6.all_exponents_one()
    assert not N60.all_exponents_one()


element = st.lists(st.integers(-30, 30), min_size=3, max_size=3)


@given(st.integers(2, 5000), st.integers(2, 5000), element, element)
@settings(max_examples=80)
def test_factor_ideal_multiplicative(F_sqrt2_full, F_cubic_full, a, b, x, y):
    F = parse_field([0, 1])
    Na, Nb = factor_ideal(F, generator=[a]), factor_ideal(F, generator=[b])
    assert Na.mul(Nb) == factor_ideal(F, generator=[a * b])
    assert Na.norm() == a
    for F in (F_sqrt2_full, F_cubic_full):
        f = F.defining_poly
        u, w = polyarith.reduce_mod_poly(x, f), polyarith.reduce_mod_poly(y, f)
        if not u or not w:
            continue
        uw = polyarith.reduce_mod_poly(polyarith.mul(u, w), f)
        Nu, Nw = factor_ideal(F, generator=u), factor_ideal(F, generator=w)
        assert Nu.mul(Nw) == factor_ideal(F, generator=uw)
        assert Nu.norm() == abs(polyarith.resultant(f, u))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_efsum_equals_degree(F_sqrt2, F_cubic, p):
    for F in (F_sqrt2, F_cubic):
        if p in F.index_warning_primes:
            continue
        primes = primes_above(F, p)
        assert sum(P.e * P.f for P in primes) == F.degree
        assert len({P.local_factor for P in primes}) == len(primes)


def test_prime_str_forms(F_rat, F_sqrt2):
    (P,) = primes_above(F_rat, 11)
    assert str(P) == "(11)"
    inert = primes_above(F_sqrt2, 5)[0]
    assert "e=1, f=2" in str(inert)


def test_valuations_match_sympy(F_sqrt2_full, F_cubic_full):
    # an independent prime decomposition: (e, f) and v_P of seeded elements.
    # Z[theta] is maximal in both fields, so sympy's basis is the power basis
    # and its prime (p, alpha) has alpha = the lift of the local factor, or
    # alpha = 0 when p is inert.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.numberfields.basis import round_two
    from sympy.polys.numberfields.primes import prime_decomp
    from sympy.polys.polyerrors import CoercionFailed

    rng = random.Random(0)
    compared = refused = 0
    for F in (F_sqrt2_full, F_cubic_full):
        T = sympy.Poly(list(reversed(F.defining_poly)), sympy.Symbol("x"))
        ZK, dK = round_two(T)
        assert ZK.matrix == DomainMatrix.eye(F.degree, ZZ) and ZK.denom == 1
        local_factors = {}
        for _ in range(50):
            a = [rng.randint(-12, 12) for _ in range(F.degree)]
            if not any(a):
                continue
            N = factor_ideal(F, generator=a)
            ideal = ZK * ZK.parent(DomainMatrix([[ZZ(c)] for c in a],
                                                (F.degree, 1), ZZ))
            for p in sorted({P.p for P in N.primes()}):
                if p not in local_factors:
                    local_factors[p] = {
                        polymod.trim(c % p for c in S.alpha.coeffs)
                        or polymod.reduce_mod(F.defining_poly, p): S
                        for S in prime_decomp(p, ZK=ZK, dK=dK)}
                assert set(local_factors[p]) == {
                    P.local_factor for P in primes_above(F, p)}
                for P in primes_above(F, p):
                    S = local_factors[p][P.local_factor]
                    assert (S.e, S.f) == (P.e, P.f)
                    try:
                        v = S.valuation(ideal)
                    except CoercionFailed:
                        refused += 1
                        continue
                    assert v == N.exponent_of(P), (F, a, P)
                    compared += 1
    # sympy 1.14 refuses 9 of these principal ideals (CoercionFailed in
    # valuation, e.g. 3 + theta at (13, x + 3) in the cubic)
    assert compared + refused == 299 and compared >= 290


def test_factor_ideal_refuses_non_integer_generator(F_rat, F_sqrt2):
    # int() would truncate 6.9 to 6, giving (2) * (3)
    for generator in ([6.9], [Fraction(13, 2)], [1, 0.5], ["6"], [None]):
        with pytest.raises(InputError, match="generator coefficients"):
            factor_ideal(F_rat if len(generator) == 1 else F_sqrt2,
                         generator=generator)
    # integral values of other numeric types are still integers
    assert factor_ideal(F_rat, generator=[6.0]) == factor_ideal(F_rat, generator=[6])
