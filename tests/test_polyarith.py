from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from darmonsel import polyarith
from darmonsel.errors import PrecisionExhausted
from darmonsel.polyarith import (
    cauchy_bound,
    derivative,
    discriminant,
    divmod_exact,
    eval_at,
    integer_roots,
    is_irreducible_monic_int,
    isolate_real_roots,
    mul,
    reduce_mod_poly,
    refine_sign_change,
    resultant,
    sign_at_root,
    sturm_chain,
    trim,
)

COEFFS = st.lists(st.integers(-9, 9), min_size=1, max_size=5)


def test_discriminant_goldens():
    assert discriminant((-5, 0, 1)) == 20
    assert discriminant((-2, 0, 1)) == 8
    assert discriminant((1, 0, 1)) == -4
    assert discriminant((-1, -2, 1, 1)) == 49
    # x^3 - x: disc = 4 (roots -1, 0, 1)
    assert discriminant((0, -1, 0, 1)) == 4


def test_resultant_goldens():
    # res(x^2 - 2, x) = value of x^2 - 2 at 0, up to sign convention: -2
    assert abs(resultant((-2, 0, 1), (0, 1))) == 2
    # res(x^2 - 2, x^2 - 3) = product of (a - b) over root pairs = 1
    assert resultant((-2, 0, 1), (-3, 0, 1)) == 1
    # Sylvester determinant convention: res(x+1, x-1) = -2
    assert resultant((1, 1), (-1, 1)) == -2


@given(COEFFS, COEFFS)
def test_resultant_vanishes_on_common_factor(fc, gc):
    f, g = trim(tuple(fc)), trim(tuple(gc))
    if len(f) < 2 or len(g) < 2:
        return
    common = (1, 1)  # share the root -1
    assert resultant(mul(f, common), mul(g, common)) == 0


@given(COEFFS, st.integers(-9, 9))
def test_resultant_with_linear_is_evaluation(fc, a):
    # res(f, x - a) = +-f(a)
    f = trim(tuple(fc))
    if len(f) < 2:
        return
    assert abs(resultant(f, (-a, 1))) == abs(eval_at(f, Fraction(a)))


def test_isolate_real_roots_counts():
    for poly, count in [
        ((1, 0, 1), 0),
        ((-2, 0, 1), 2),
        ((-1, -2, 1, 1), 3),
        (mul((1, 0, 1), (2, 0, 1)), 0),
        (mul((-2, 0, 1), (-3, 0, 1)), 4),  # (x^2-2)(x^2-3)
    ]:
        roots = isolate_real_roots(poly)
        assert len(roots) == count, poly
        assert roots == sorted(roots)
        for lo, hi in roots:
            assert eval_at(poly, lo) * eval_at(poly, hi) < 0


def test_isolate_real_roots_sqrt2():
    roots = isolate_real_roots((-2, 0, 1))
    assert len(roots) == 2
    (a1, b1), (a2, b2) = roots
    assert b1 <= a2  # ordered, at most an endpoint shared
    assert a1 < -1 < 0 <= a2 and Fraction(15, 10) < b2
    for lo, hi in roots:
        assert eval_at((-2, 0, 1), lo) * eval_at((-2, 0, 1), hi) < 0
        lo, hi = refine_sign_change((-2, 0, 1), lo, hi, Fraction(1, 2**20))
        assert eval_at((-2, 0, 1), lo) * eval_at((-2, 0, 1), hi) < 0
        assert hi - lo <= Fraction(1, 2**20)


def test_isolate_cubic_matches_float_roots():
    roots = [refine_sign_change((-1, -2, 1, 1), lo, hi, Fraction(1, 2**30))
             for lo, hi in isolate_real_roots((-1, -2, 1, 1))]
    approx = [float((lo + hi) / 2) for lo, hi in roots]
    expected = [-1.8019377358048383, -0.44504186791262906, 1.2469796037174672]
    assert all(abs(a - e) < 1e-8 for a, e in zip(approx, expected))


def test_sign_at_root():
    # sign of theta at each root of the cubic: -, -, +
    roots = isolate_real_roots((-1, -2, 1, 1))
    signs = [sign_at_root((0, 1), (-1, -2, 1, 1), lo, hi)[0] for lo, hi in roots]
    assert signs == [-1, -1, 1]
    # sign of theta^2 - 2 at the roots of x^2 - 5: both positive
    roots5 = isolate_real_roots((-5, 0, 1))
    signs5 = [sign_at_root((-2, 0, 1), (-5, 0, 1), lo, hi)[0] for lo, hi in roots5]
    assert signs5 == [1, 1]


def test_sign_at_root_of_zero_polynomial_is_impossible():
    # g = f means g vanishes at the root; the certified sign search must not
    # loop forever, it must raise once the width floor is reached
    roots = isolate_real_roots((-2, 0, 1))
    with pytest.raises(PrecisionExhausted):
        sign_at_root((-2, 0, 1), (-2, 0, 1), *roots[0])


@given(COEFFS, COEFFS)
def test_divmod_exact_reassembles(fc, gc):
    f = tuple(Fraction(c) for c in fc)
    g = trim(tuple(Fraction(c) for c in gc))
    if not g:
        return
    q, r = divmod_exact(f, g)
    assert len(trim(r)) < len(g)
    recon = polyarith.add(mul(q, g), r)
    assert trim(recon) == trim(f)


def test_reduce_mod_poly_keeps_integers():
    out = reduce_mod_poly((0, 0, 1), (-2, 0, 1))  # theta^2 -> 2
    assert out == (2,)
    assert all(isinstance(c, int) for c in out)
    assert reduce_mod_poly((1, 2, 3, 4), (-1, -2, 1, 1)) != ()


def test_integer_roots():
    assert integer_roots((-6, 1, 1)) == [-3, 2]  # x^2 + x - 6
    assert integer_roots((0, 0, 1)) == [0]
    assert integer_roots((1, 0, 1)) == []


@pytest.mark.parametrize("poly,expected", [
    ((-2, 0, 1), True),
    ((-4, 0, 1), False),
    ((1, 0, 1), True),
    ((-1, -2, 1, 1), True),
    ((1, 0, 0, 0, 1), True),          # x^4 + 1
    ((4, 0, 0, 0, 1), False),          # x^4 + 4 = (x^2-2x+2)(x^2+2x+2)
    ((6, 0, -5, 0, 1), False),         # (x^2-2)(x^2-3)
    ((-1, 0, 0, 0, 1), False),         # x^4 - 1
    ((2, 3, 1), False),                # (x+1)(x+2)
    ((1, 1, 0, 0, 1), True),           # x^4 + x + 1: no rational root, no
                                       # integer quadratic split
    ((1, 1, 1, 1, 1), True),           # cyclotomic Phi_5
])
def test_is_irreducible_monic_int(poly, expected):
    assert is_irreducible_monic_int(poly) == expected


def test_cauchy_bound_contains_roots():
    b = cauchy_bound((-1, -2, 1, 1))
    roots = isolate_real_roots((-1, -2, 1, 1))
    for lo, hi in roots:
        assert -b <= lo and hi <= b


def test_sturm_chain_endpoints():
    chain = sturm_chain((-2, 0, 1))
    assert chain[0] == (-2, 0, 1)
    assert trim(derivative((-2, 0, 1))) == chain[1]
