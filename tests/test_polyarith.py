import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from darmonsel import polyarith
from darmonsel.errors import PrecisionExhausted
from darmonsel.fields import DEFAULT_PRECISION, parse_field, real_embeddings
from darmonsel.polyarith import (
    cauchy_bound,
    derivative,
    discriminant,
    eval_at,
    is_irreducible_monic_int,
    isolate_real_roots,
    mul,
    neg,
    reduce_mod_poly,
    refine_sign_change,
    resultant,
    sign_at_root,
    sturm_chain,
    sturm_count_halfopen,
    trim,
)
from darmonsel.polymod import deg

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


NONZERO = st.integers(-9, 9).filter(bool)
POLY_0_5 = st.builds(lambda low, lead: tuple(low) + (lead,),
                     st.lists(st.integers(-9, 9), max_size=5), NONZERO)


def _sympy_poly(c):
    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(c)), x) if c else sympy.Poly(0, x)


def _sympy_resultant(a, b):
    """The Sylvester determinant of (a, b) by sympy. sympy.resultant differs
    from it by (-1)^(deg a * deg b) when deg a < deg b, so the arguments go in
    by descending degree and the swap's sign is applied here."""
    if deg(a) >= deg(b):
        return sympy.resultant(_sympy_poly(a), _sympy_poly(b))
    sign = -1 if deg(a) * deg(b) % 2 else 1
    return sign * sympy.resultant(_sympy_poly(b), _sympy_poly(a))


@given(POLY_0_5, POLY_0_5, st.one_of(st.just((1,)), POLY_0_5))
def test_resultant_matches_sympy(f, g, common):
    # non-monic inputs of degree 0-5, times an optional common factor
    f, g = mul(f, common), mul(g, common)
    for a, b in ((f, g), (g, f), (f, ())):
        res = resultant(a, b)
        assert type(res) is int
        assert res == _sympy_resultant(a, b), (a, b)


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=4))
def test_discriminant_matches_sympy(low):
    f = tuple(low) + (1,)
    assert discriminant(f) == sympy.discriminant(_sympy_poly(f))


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


def test_reduce_mod_poly_keeps_integers():
    out = reduce_mod_poly((0, 0, 1), (-2, 0, 1))  # theta^2 -> 2
    assert out == (2,)
    assert all(isinstance(c, int) for c in out)
    assert reduce_mod_poly((1, 2, 3, 4), (-1, -2, 1, 1)) != ()


@given(POLY_0_5, POLY_0_5.filter(lambda f: deg(f) >= 1))
def test_reduce_mod_poly_is_sympy_prem_up_to_sign(a, f):
    # sympy.prem scales by lc(f)^(deg a - deg f + 1); reduce_mod_poly by its
    # absolute value, so every remainder keeps its sign
    e = max(deg(a) - deg(f) + 1, 0)
    sign = -1 if f[-1] < 0 and e % 2 else 1
    expected = sympy.prem(_sympy_poly(a), _sympy_poly(f)) * sign
    got = reduce_mod_poly(a, f)
    assert all(type(c) is int for c in got)
    assert _sympy_poly(got) == expected, (a, f)


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
    # biquadratic fields: irreducible over Q, reducible mod every prime
    ((1, 0, -10, 0, 1), True),
    ((1, 0, -4, 0, 1), True),
    ((9, 0, -10, 0, 1), False),        # (x^2 - 1)(x^2 - 9)
    ((4, 0, -4, 0, 1), False),         # (x^2 - 2)^2: discriminant 0
    ((-32589158477190044730, 0, 1), True),  # x^2 - (first 16 primes)
])
def test_is_irreducible_monic_int(poly, expected):
    assert is_irreducible_monic_int(poly, discriminant(poly)) == expected


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def monic_quartics_or_less(draw):
    """Monic integer polynomials of degree 1-4: plain draws, products of two
    monic factors, and constant terms with many small prime factors, where
    a search over the divisors of f(0) would have the most to try."""
    kind = draw(st.sampled_from(("plain", "product", "smooth")))
    if kind == "product":
        left = tuple(draw(st.lists(st.integers(-12, 12), min_size=1, max_size=2)))
        right = tuple(draw(st.lists(st.integers(-12, 12), min_size=1, max_size=2)))
        return mul(left + (1,), right + (1,))
    low = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=4))
    if kind == "smooth":
        exponents = draw(st.lists(st.integers(0, 3), min_size=len(SMALL_PRIMES),
                                  max_size=len(SMALL_PRIMES)))
        low[0] = draw(st.sampled_from((-1, 1))) * math.prod(
            q**e for q, e in zip(SMALL_PRIMES, exponents))
    return tuple(low) + (1,)


@given(monic_quartics_or_less())
@settings(max_examples=400, deadline=None)
def test_is_irreducible_monic_int_matches_sympy(f):
    assert is_irreducible_monic_int(f, discriminant(f)) == \
        _sympy_poly(f).is_irreducible, f


def test_cauchy_bound_contains_roots():
    b = cauchy_bound((-1, -2, 1, 1))
    roots = isolate_real_roots((-1, -2, 1, 1))
    for lo, hi in roots:
        assert -b <= lo and hi <= b


def test_sturm_chain_endpoints():
    chain = sturm_chain((-2, 0, 1))
    assert chain[0] == (-2, 0, 1)
    assert trim(derivative((-2, 0, 1))) == chain[1]


def fraction_sturm_chain(f):
    """The Sturm chain by remainders over Q, each member after f' scaled by
    the positive lcm of its denominators: the reference for sturm_chain's
    integer pseudo-remainders."""
    def remainder(a, b):
        a = [Fraction(c) for c in a]
        while len(a) >= len(b):
            coef = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] -= coef * y
            a.pop()
        return trim(a)

    chain = [tuple(f), derivative(f)]
    while True:
        r = remainder(chain[-2], chain[-1])
        if not r:
            return chain
        scale = math.lcm(*(c.denominator for c in r))
        chain.append(tuple(int(c * scale) for c in neg(r)))


@given(POLY_0_5.filter(lambda f: deg(f) >= 1),
       st.lists(st.tuples(st.integers(-2**12, 2**12), st.integers(0, 2**12),
                          st.integers(0, 8)), min_size=1, max_size=8))
@settings(deadline=None)
def test_sturm_chain_matches_the_fraction_chain(f, cells):
    chain, reference = sturm_chain(f), fraction_sturm_chain(f)
    assert len(chain) == len(reference)
    for u, v in zip(chain, reference):
        # positive rational multiples of each other
        assert len(u) == len(v) and u[-1] * v[-1] > 0
        assert all(u[-1] * y == v[-1] * x for x, y in zip(u, v))
    for a, span, k in cells:
        assert (sturm_count_halfopen(chain, a, a + span, k)
                == sturm_count_halfopen(reference, a, a + span, k))


# ---- the real-root kernel against Fraction bisection ----

def fraction_bisection_cells(f, lo, hi, width):
    """Every cell plain Fraction bisection visits on [lo, hi] until its width
    is <= width, from [lo, hi] itself on: the reference for
    refine_sign_change, written independently of the kernel."""
    def sign(x):
        # sign of d^deg * f(n/d), d > 0
        n, d = x.numerator, x.denominator
        value, power = 0, 1
        for c in reversed(f):
            value, power = value * n + c * power, power * d
        return (value > 0) - (value < 0)
    lo, hi = Fraction(lo), Fraction(hi)
    at_lo = sign(lo)
    cells = [(lo, hi)]
    while hi - lo > width:
        mid = (lo + hi) / 2
        at_mid = sign(mid)
        assert at_mid != 0
        if at_mid == at_lo:
            lo = mid
        else:
            hi = mid
        cells.append((lo, hi))
    return cells


def first_cell_within(cells, width):
    return next(c for c in cells if c[1] - c[0] <= width)


@st.composite
def totally_real_polys(draw):
    """(x - a_1)...(x - a_d) +- 1 with integer a_i at least 3 apart: |g| >= 2
    at each a_i + 1, so the sign still alternates there and all d roots are
    real; it has no rational root, and assume() drops a rare quartic that
    splits into quadratics."""
    degree = draw(st.integers(2, 4))
    roots = [draw(st.integers(-20, 20))]
    for _ in range(degree - 1):
        roots.append(roots[-1] + draw(st.integers(3, 12)))
    f = (1,)
    for r in roots:
        f = mul(f, (-r, 1))
    f = (f[0] + draw(st.sampled_from((-1, 1))),) + f[1:]
    assume(is_irreducible_monic_int(f, discriminant(f)))
    return f


@given(totally_real_polys(), st.integers(0, 3), st.integers(1, 4096),
       st.lists(st.tuples(st.integers(0, 4096),
                          st.integers(1, 2**63).map(lambda n: 2 * n + 1)), max_size=3))
@settings(max_examples=30, deadline=None)
def test_refinement_lands_in_the_bisection_cell(f, which, bits, skewed):
    roots = isolate_real_roots(f)
    assert len(roots) == deg(f)
    lo, hi = roots[which % len(roots)]
    finest = Fraction(1, 2**bits)
    cells = fraction_bisection_cells(f, lo, hi, finest)
    # non-dyadic widths (q+1)/q * 2^-b, q odd, all inside the walk
    widths = [finest] + [Fraction(q + 1, q) / 2**min(b, bits) for b, q in skewed]
    for width in widths:
        assert refine_sign_change(f, lo, hi, width) == first_cell_within(cells, width)


KERNEL_FIELDS = [(-2, 0, 1), (-5, 0, 1), (-1, -2, 1, 1), (1, 0, -4, 0, 1),
                 (2, 0, -4, 0, 1), (-1, -6, -6, 1), (5, 0, -5, 0, 1)]


@pytest.mark.parametrize("f", KERNEL_FIELDS)
def test_refined_cells_hold_the_matching_root_sympy(f):
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(f)), x)
    F = parse_field(f)
    for bits in (1, 32, 255, 1024, 4096):
        places = real_embeddings(F, Fraction(1, 2**bits))
        assert len(places) == len(poly.real_roots())
        for i, v in enumerate(places):
            lo = sympy.Rational(v.lo.numerator, v.lo.denominator)
            hi = sympy.Rational(v.hi.numerator, v.hi.denominator)
            # exactly one root in the cell, and i roots below it
            assert poly.count_roots(lo, hi) == 1, (f, bits, i)
            assert poly.count_roots(-sympy.oo, lo) == i, (f, bits, i)


def test_refinement_work_grows_with_log_bits(monkeypatch):
    # plain bisection makes one sign evaluation per bit: about 4100 per root
    calls = []
    original = polyarith._scaled_value

    def counted(*args):
        calls.append(args)
        return original(*args)

    f = (1, 0, -4, 0, 1)  # x^4 - 4x^2 + 1, roots +-(sqrt6 +- sqrt2)/2
    roots = isolate_real_roots(f)
    monkeypatch.setattr(polyarith, "_scaled_value", counted)
    for lo, hi in roots:
        refine_sign_change(f, lo, hi, Fraction(1, 2**4096))
    assert len(calls) <= 300
    calls.clear()
    for lo, hi in roots:
        refine_sign_change(f, lo, hi, DEFAULT_PRECISION)
    assert len(calls) <= 100


def test_refine_sign_change_keeps_a_narrow_bracket():
    lo, hi = Fraction(1), Fraction(3, 2)
    assert refine_sign_change((-2, 0, 1), lo, hi, Fraction(1, 2)) == (lo, hi)
    assert refine_sign_change((-2, 0, 1), lo, hi, Fraction(1)) == (lo, hi)


def test_kernel_invariants_survive_optimize(run_optimized):
    out = run_optimized("""
        from fractions import Fraction
        from darmonsel.errors import InternalInvariant
        from darmonsel.fields import RealPlace
        from darmonsel.intmath import factor_within_bound, factorize
        from darmonsel.polyarith import (discriminant, isolate_real_roots,
                                         refine_sign_change, sign_at_root)
        from darmonsel.polymod import fq_quadratic_character
        assert False, "asserts must be stripped"
        cases = [
            # x^3 - 2x: the first midpoint of (-4, 4] is the root 0
            lambda: isolate_real_roots((0, -2, 0, 1)),
            # (x^2 - 2)^2: one distinct root in a cell, and no sign change
            lambda: isolate_real_roots((4, 0, -4, 0, 1)),
            # x^2 - 2 is negative at both ends of [0, 1]
            lambda: refine_sign_change((-2, 0, 1), 0, 1, Fraction(1, 8)),
            # 4x^2 - 1 vanishes at the grid point 1/2 of [0, 1]
            lambda: refine_sign_change((-1, 0, 4), 0, 1, Fraction(1, 4)),
            lambda: refine_sign_change((-2, 0, 1), 1, 2, 0),
            # g = x - 1 vanishes at the rational root of f = x - 1
            lambda: sign_at_root((-1, 1), (-1, 1), Fraction(1), Fraction(1)),
            lambda: RealPlace(1, Fraction(1), Fraction(0), Fraction(1)),
            lambda: RealPlace(1, Fraction(0), Fraction(1), Fraction(1, 2)),
            lambda: discriminant((5,)),
            # zero residues of F_7, as a zero polynomial and as 7 = 0 mod 7
            lambda: fq_quadratic_character((), (0, 1), 7),
            lambda: fq_quadratic_character((7,), (0, 1), 7),
            lambda: fq_quadratic_character((1,), (0, 1), 2),
            lambda: factorize(0),
            lambda: factor_within_bound(0, 10),
        ]
        for case in cases:
            try:
                case()
                print("no error")
            except InternalInvariant:
                print("InternalInvariant")
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["InternalInvariant"] * 14
