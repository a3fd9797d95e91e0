import pytest
from hypothesis import given, settings, strategies as st

from darmonsel.errors import (
    InputError,
    IsSquare,
    LocalDataInsufficient,
    NoRealPlace,
    ZeroDelta,
)
from darmonsel.feasibility import build_profile
from darmonsel.fields import (
    IdealFactorization,
    PrimeIdeal,
    parse_field,
    primes_above,
)
from darmonsel.quadratic import (
    PlaceType,
    classify_conductor,
    classify_finite_prime,
    make_extension,
)


def legendre_by_enumeration(a: int, p: int) -> int:
    """Quadratic residue symbol via the full residue table. 0 when p | a."""
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


def rational_class(delta: int, p: int) -> PlaceType:
    """Expected class of an odd prime p in Q(sqrt(delta)), via valuations and
    the enumerated symbol only."""
    v = 0
    d = delta
    while d % p == 0:
        d //= p
        v += 1
    if v % 2:
        return PlaceType.RAMIFIED
    return PlaceType.SPLIT if legendre_by_enumeration(d, p) == 1 else PlaceType.INERT


# squares whose roots have coordinates outside Z on the power basis: no
# residue character certifies a square, so the exact reconstruction decides
SQUARES_OFF_THE_POWER_BASIS = (
    ([-8, 0, 1], [2]),   # 2 = (theta/2)^2 with theta^2 = 8
    ([-12, 0, 1], [3]),  # 3 = (theta/2)^2 with theta^2 = 12
)


def test_make_extension_rejections(F_rat, F_sqrt2):
    with pytest.raises(ZeroDelta):
        make_extension(F_rat, [0])
    with pytest.raises(NoRealPlace):
        make_extension(F_rat, [-3])
    with pytest.raises(IsSquare):
        make_extension(F_rat, [49])
    with pytest.raises(IsSquare):
        # 3 + 2*theta = (1 + theta)^2 in Q(sqrt2)
        make_extension(F_sqrt2, [3, 2])
    for f, delta in SQUARES_OFF_THE_POWER_BASIS:
        with pytest.raises(IsSquare, match="1/2"):
            make_extension(parse_field(f), delta)
    with pytest.raises(InputError):
        make_extension(F_rat, ["x"])


def test_square_off_the_power_basis_survives_optimize(run_optimized):
    out = run_optimized(f"""
        from darmonsel.errors import IsSquare
        from darmonsel.fields import parse_field
        from darmonsel.quadratic import make_extension
        assert False, "asserts must be stripped"
        for f, delta in {SQUARES_OFF_THE_POWER_BASIS!r}:
            try:
                make_extension(parse_field(f), delta)
            except IsSquare:
                print("IsSquare")
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["IsSquare"] * 2


def test_make_extension_refuses_non_integer_delta(F_rat, F_sqrt2):
    # int() would truncate 5.5 to 5 and build Q(sqrt5)
    for field, delta in ((F_rat, [5.5]), (F_rat, ["5"]), (F_sqrt2, [0, 1.25])):
        with pytest.raises(InputError, match="delta coefficients"):
            make_extension(field, delta)
    assert make_extension(F_rat, [5.0]).delta == (5,)


def test_certificate_prime(K_sqrt5):
    # 5 is a non-residue mod 3, the first odd prime checked
    assert K_sqrt5.certificate is not None
    assert K_sqrt5.certificate.p == 3


def test_classify_rational_goldens(K_sqrt5, F_rat):
    def cls(p):
        (P,) = primes_above(F_rat, p)
        return classify_finite_prime(K_sqrt5, P)

    assert cls(11) is PlaceType.SPLIT
    assert cls(2) is PlaceType.INERT
    assert cls(5) is PlaceType.RAMIFIED
    assert cls(3) is PlaceType.INERT
    assert cls(19) is PlaceType.SPLIT


def test_classify_real_places_atr(K_atr):
    # theta < 0 at the first embedding, positive at the second
    assert K_atr.real_signs == (-1, 1)
    profile = build_profile(K_atr, IdealFactorization.unit())
    assert [(v.index, t) for v, t in profile.real_classes] == [
        (1, PlaceType.INERT), (2, PlaceType.SPLIT)]


def test_classify_real_places_cubic(K_cubic):
    assert K_cubic.real_signs == (-1, -1, 1)
    profile = build_profile(K_cubic, IdealFactorization.unit())
    assert [t for _, t in profile.real_classes] == [
        PlaceType.INERT, PlaceType.INERT, PlaceType.SPLIT]


def test_rational_legendre_slice(F_rat):
    # acceptance criterion 6 runs the full sweep; keep a fast slice here
    for delta in (2, 3, 5, 12, 18, 45, 50):
        K = make_extension(F_rat, [delta])
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            (P,) = primes_above(F_rat, p)
            assert classify_finite_prime(K, P) is rational_class(delta, p), \
                (delta, p)


def test_higher_valuation_unit_parts(F_rat):
    # deltas with v_p >= 1 exercise the unit-part extraction: 45 = 3^2 * 5,
    # 50 = 5^2 * 2, 12 = 2^2 * 3, 20 = 2^2 * 5, 48 = 2^4 * 3, 18 = 2 * 3^2
    for delta, p in [(45, 3), (50, 5), (12, 3), (20, 5), (48, 3), (18, 3),
                     (18, 2), (45, 5), (50, 2)]:
        K = make_extension(F_rat, [delta])
        (P,) = primes_above(F_rat, p)
        if p == 2:
            continue  # covered by the trichotomy table below
        assert classify_finite_prime(K, P) is rational_class(delta, p), (delta, p)


def test_two_adic_trichotomy(F_rat):
    # discriminant table for Q(sqrt delta) at p = 2:
    # delta = 1 mod 8 -> split, 5 mod 8 -> inert, else 2 ramifies
    (P2,) = primes_above(F_rat, 2)
    table = [
        (17, PlaceType.SPLIT),
        (33, PlaceType.SPLIT),
        (5, PlaceType.INERT),
        (13, PlaceType.INERT),
        (21, PlaceType.INERT),
        (3, PlaceType.RAMIFIED),
        (7, PlaceType.RAMIFIED),
        (15, PlaceType.RAMIFIED),
        (2, PlaceType.RAMIFIED),
        (6, PlaceType.RAMIFIED),
        (8, PlaceType.RAMIFIED),   # v = 3, odd
        (12, PlaceType.RAMIFIED),  # unit 3 mod 8 after v = 2
        (20, PlaceType.INERT),     # unit 5 mod 8 after v = 2
        (68, PlaceType.SPLIT),     # unit 17 = 1 mod 8 after v = 2
    ]
    for delta, expected in table:
        K = make_extension(F_rat, [delta])
        assert classify_finite_prime(K, P2) is expected, delta


def test_two_adic_over_real_quadratic(F_sqrt2_full):
    # delta = 3 + theta has norm 7; at the ramified prime (theta) above 2 the
    # local data has e = 2, outside the certified range
    K = make_extension(F_sqrt2_full, [3, 1])
    (P2,) = primes_above(F_sqrt2_full, 2)
    with pytest.raises(LocalDataInsufficient):
        classify_finite_prime(K, P2)


def test_odd_ramified_prime_fast_path():
    # base F = Q(sqrt5): (5) = (theta)^2 with theta = sqrt5, index 2 warned
    F5 = parse_field([-5, 0, 1])
    F5 = F5.with_explicit_primes(5, [PrimeIdeal(5, (0, 1), 2, 1)])
    (P5,) = primes_above(F5, 5)
    # delta = 2: nonzero residue at P5, so the residue character decides even
    # though e = 2; 2 is a non-square mod 5
    K = make_extension(F5, [2])
    assert classify_finite_prime(K, P5) is PlaceType.INERT
    # delta = theta: residue 0 at an e = 2 prime is out of certified range
    Kt = make_extension(F5, [0, 1])
    with pytest.raises(LocalDataInsufficient):
        classify_finite_prime(Kt, P5)


def test_atr_finite_classifications(K_atr, F_sqrt2):
    # delta = theta = sqrt2. At the prime (7, x + 3) the residue of theta is
    # -3 = 4 = 2^2, a square; at (7, x + 4) it is -4 = 3, a non-square.
    P1, P2 = sorted(primes_above(F_sqrt2, 7), key=lambda P: P.sort_key)
    assert P1.local_factor == (3, 1) and P2.local_factor == (4, 1)
    assert classify_finite_prime(K_atr, P1) is PlaceType.SPLIT
    assert classify_finite_prime(K_atr, P2) is PlaceType.INERT
    # at the inert prime (5), residue field F_25: theta^12 = 2^6 = -1 mod 5
    (P5,) = primes_above(F_sqrt2, 5)
    assert classify_finite_prime(K_atr, P5) is PlaceType.INERT


@given(st.integers(2, 400), st.sampled_from([3, 5, 7, 11, 13, 17]),
       st.integers(1, 40))
@settings(max_examples=120)
def test_class_invariant_under_square_scaling(delta, p, u):
    # K = Q(sqrt(delta)) and Q(sqrt(delta * u^2)) are the same field
    F = parse_field([0, 1])
    try:
        K1 = make_extension(F, [delta])
        K2 = make_extension(F, [delta * u * u])
    except IsSquare:
        return
    (P,) = primes_above(F, p)
    assert classify_finite_prime(K1, P) is classify_finite_prime(K2, P)


def test_classify_conductor_and_disc(K_sqrt5, F_rat, rational_ideal):
    N = rational_ideal(22)
    classes = classify_conductor(K_sqrt5, N)
    assert [(P.p, e, t) for P, e, t in classes] == [
        (2, 1, PlaceType.INERT), (11, 1, PlaceType.SPLIT)]
    assert build_profile(K_sqrt5, N, strict=False).disc_coprime
    assert not build_profile(K_sqrt5, rational_ideal(15), strict=False).disc_coprime
    assert build_profile(K_sqrt5, IdealFactorization.unit(), strict=False).disc_coprime
