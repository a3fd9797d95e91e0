"""Quadratic extensions K = F(sqrt(delta)) and place classification.

delta is an integer polynomial in theta, reduced mod the defining polynomial.
Real places are classified by the certified sign of delta on each of the
field's isolating intervals, computed once per extension; finite primes by
valuation parity plus the residue character of the unit part (odd p), or by
exhaustive square testing at the precision where 2-adic squares stabilize
(p = 2). Everything is exact.
"""

import itertools
import math
from enum import Enum
from fractions import Fraction
from functools import cached_property

from . import polyarith, polymod
from .errors import (
    IsSquare,
    NoRealPlace,
    PrecisionExhausted,
    ZeroDelta,
)
from .fields import (
    IdealFactorization,
    NumberField,
    PrimeIdeal,
    local_expansion,
    primes_above,
    real_embeddings,
    _integer_coefficients,
)
from .intmath import primes_below
from .record import Record, set_field


class PlaceType(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


class QuadraticExtension(Record):
    """K = F(sqrt(delta)). certificate, when present, is a prime at which
    delta is a certified non-residue; None means non-squareness was proven by
    the reconstruction fallback instead."""

    def __init__(self, base: NumberField, delta: tuple[int, ...],
                 certificate: PrimeIdeal | None = None):
        set_field(self, "base", base)
        set_field(self, "delta", delta)
        set_field(self, "certificate", certificate)
        set_field(self, "_key", (base, delta, certificate))

    @cached_property
    def real_signs(self) -> tuple[int, ...]:
        """Certified sign of delta at each real place of the base, in place
        order; a place splits in K iff the sign is +1 (real places never
        ramify in a quadratic extension generated by a nonzero element)."""
        f = self.base.defining_poly
        return tuple(polyarith.sign_at_root(self.delta, f, lo, hi)[0]
                     for lo, hi in self.base.root_intervals)

    def __str__(self):
        return f"{self.base}(sqrt({self.delta}))"


RESIDUE_TESTS = 20
CERTIFICATE_PRIME_CAP = 1000
FIRST_SIEVE = 1024


def make_extension(F: NumberField, delta_coeffs) -> QuadraticExtension:
    """Certify K = F(sqrt(delta)): delta nonzero, not a square, and positive
    at some real place (K must have at least one real place).

    Raises ZeroDelta, NoRealPlace, IsSquare, and InputError for a
    coefficient that is not an integer.
    """
    coeffs = _integer_coefficients(delta_coeffs, "delta coefficients")
    delta = polyarith.reduce_mod_poly(coeffs, F.defining_poly)
    if not delta:
        raise ZeroDelta("delta = 0 in Z[theta]")
    # built before its certificate is known, and returned itself (never a
    # copy, which would drop the cached signs) so build_profile reuses them
    K = QuadraticExtension(base=F, delta=delta)
    if all(s < 0 for s in K.real_signs):
        raise NoRealPlace("delta is negative at every real embedding")

    certificate = None
    passes = 0
    squareness_settled = any(s < 0 for s in K.real_signs)  # a negative embedding bars squares
    for p in _odd_unwarned_primes(F):
        usable = False
        for P in primes_above(F, p):
            residue = P.residue_of(delta)
            if not residue:
                continue
            usable = True
            if polymod.fq_quadratic_character(residue, P.local_factor, P.p) == -1:
                certificate = P
                break
        if certificate is not None:
            break
        if usable:
            passes += 1
        if passes == RESIDUE_TESTS and not squareness_settled:
            root = _exact_square_root(F, delta)
            if root is not None:
                raise IsSquare(f"delta = ({_coeff_str(root)})^2 in F")
            squareness_settled = True
        if passes >= CERTIFICATE_PRIME_CAP:
            break
    if certificate is None and not squareness_settled:
        # fewer than RESIDUE_TESTS usable primes never happens with the cap at
        # 1000, but stay honest if it ever does
        root = _exact_square_root(F, delta)
        if root is not None:
            raise IsSquare(f"delta = ({_coeff_str(root)})^2 in F")
    # set in place, in the field and in the key that equality and hashing read
    object.__setattr__(K, "certificate", certificate)
    object.__setattr__(K, "_key", (F, delta, certificate))
    return K


def _coeff_str(coeffs) -> str:
    return "[" + ", ".join(str(c) for c in coeffs) + "] on the power basis"


def _odd_unwarned_primes(F: NumberField):
    for p in _primes_in_stages():
        if p == 2 or p in F.index_warning_primes:
            continue
        yield p


def _primes_in_stages():
    # a decision settles within a few dozen primes, so the sieve to 10^5 runs
    # only for one that walks past the primes below FIRST_SIEVE
    small = primes_below(FIRST_SIEVE)
    yield from small
    yield from itertools.islice(primes_below(10**5), len(small), None)


# ---- exact square root reconstruction ----

def _interval_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _interval_div(a, b):
    assert b[0] > 0 or b[1] < 0, "division by an interval containing 0"
    qs = (a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])
    return (min(qs), max(qs))


def _interval_det(m):
    if len(m) == 1:
        return m[0][0]
    acc = (Fraction(0), Fraction(0))
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = polyarith.interval_mul(m[0][j], _interval_det(minor))
        if j % 2:
            term = (-term[1], -term[0])
        acc = _interval_add(acc, term)
    return acc


def _sqrt_interval(lo: Fraction, hi: Fraction, bits: int):
    """Rational enclosure of sqrt on a positive interval."""
    assert lo > 0
    def lower(q):
        n, d = q.numerator << (2 * bits), q.denominator
        return Fraction(math.isqrt(n * d), d << bits)
    def upper(q):
        n, d = q.numerator << (2 * bits), q.denominator
        return Fraction(math.isqrt(n * d) + 1, d << bits)
    return lower(lo), upper(hi)


def _exact_square_root(F: NumberField, delta):
    """gamma in F with gamma^2 = delta, or None (proven).

    Any square root lies in O_F, whose coordinates on the power basis have
    denominators dividing disc(defining_poly); so certified enclosures of
    disc * coordinate narrower than 1 make the test finite and exact.
    """
    d = F.degree
    denom = abs(F.poly_disc)
    width = Fraction(1, 2**64)
    while True:
        roots = [(v.lo, v.hi) for v in real_embeddings(F, width)]
        value_ivs = []
        ok = True
        for lo, hi in roots:
            vlo, vhi = polyarith.interval_eval(delta, lo, hi)
            if vlo <= 0:
                ok = False  # needs refinement (delta > 0 at every root here)
                break
            value_ivs.append(_sqrt_interval(vlo, vhi, 128))
        if ok:
            result = _sqrt_candidates(F, delta, roots, value_ivs, denom, d)
            if result is not None:
                return result[0] if result[1] else None
        if width <= polyarith.MIN_WIDTH:
            raise PrecisionExhausted("square-root reconstruction did not separate")
        width = width * width  # square the precision each pass


def _sqrt_candidates(F, delta, roots, value_ivs, denom, d):
    """Try every sign pattern; returns (root, True) on success, ((), False)
    if every pattern is certifiably ruled out, None if precision was short."""
    powers = []
    for lo, hi in roots:
        row = [(Fraction(1), Fraction(1))]
        for _ in range(d - 1):
            row.append(polyarith.interval_mul(row[-1], (lo, hi)))
        powers.append(row)
    det = _interval_det([row[:] for row in powers]) if d > 1 else powers[0][0]
    if det[0] <= 0 <= det[1]:
        return None
    for pattern in itertools.product((1, -1), repeat=d - 1):
        signs = (1,) + pattern
        target = []
        for s, (slo, shi) in zip(signs, value_ivs):
            target.append((slo, shi) if s > 0 else (-shi, -slo))
        coords = []
        shortfall = False
        for i in range(d):
            cols = [[powers[r][j] if j != i else target[r] for j in range(d)]
                    for r in range(d)]
            ci = _interval_div(_interval_det(cols), det)
            scaled = (ci[0] * denom, ci[1] * denom)
            if scaled[1] - scaled[0] >= 1:
                shortfall = True
                break
            lo_int = -(-scaled[0].numerator // scaled[0].denominator)  # ceil
            if lo_int > scaled[1]:
                coords = None  # no integer in the enclosure: pattern ruled out
                break
            coords.append(lo_int)
        if shortfall:
            return None
        if coords is None:
            continue
        # (coords / denom)^2 = delta, tested on integers: the defining
        # polynomial is monic, so reduction by it stays exact
        square = polyarith.reduce_mod_poly(polyarith.mul(coords, coords), F.defining_poly)
        if square == polymod.trim(denom * denom * c for c in delta):
            return tuple(Fraction(c, denom) for c in coords), True
    return (), False


# ---- place classification ----

def classify_finite_prime(K: QuadraticExtension, P: PrimeIdeal) -> PlaceType:
    """Behavior of P in K/F by the local criterion.

    Odd p: Ramified iff v_P(delta) is odd, otherwise the residue quadratic
    character of the unit part decides Split vs Inert. p = 2: the unit part is
    tested against the stable square classes mod P^(2*v_P(2)+1); nonsquares
    split into the unramified class (Inert) and the rest (Ramified).
    """
    F = K.base
    delta = K.delta
    assert delta, "classification needs a certified extension"
    if P.p % 2 == 1:
        unit = P.residue_of(delta)
        if not unit:
            v, unit, _, _ = local_expansion(F, P, delta)
            if v % 2 == 1:
                return PlaceType.RAMIFIED
        chi = polymod.fq_quadratic_character(unit, P.local_factor, P.p)
        return PlaceType.SPLIT if chi == 1 else PlaceType.INERT
    # p = 2
    v, unit, level, G = local_expansion(F, P, delta, extra_level=4)
    if v % 2 == 1:
        return PlaceType.RAMIFIED
    assert level >= 3
    return _two_adic_unit_class(unit, G, P)


def _two_adic_unit_class(unit, G, P: PrimeIdeal) -> PlaceType:
    """Split/Inert/Ramified for a 2-adic unit in the unramified completion
    Z_2[x]/(G), by exhaustive testing mod P^3 = (8, G).

    Units square to classes that stabilize mod 8; the unramified quadratic
    extension is generated by 1 + 4w with x^2 + x + w irreducible over the
    residue field, so u is Inert exactly when u*(1+4t) lands in the square set
    for some residue t without u itself being a square.
    """
    f = P.f
    G8 = polymod.reduce_mod(G, 8)
    u8 = polymod.divmod_poly(polymod.reduce_mod(unit, 8), G8, 8)[1]
    squares = set()
    for coeffs in itertools.product(range(4), repeat=f):
        y = polymod.trim(coeffs)
        if not polymod.reduce_mod(y, 2):
            continue  # not a unit
        squares.add(polymod.divmod_poly(polymod.mul(y, y, 8), G8, 8)[1])
    if u8 in squares:
        return PlaceType.SPLIT
    for tcoeffs in itertools.product(range(2), repeat=f):
        t = polymod.trim(tcoeffs)
        shift = polymod.add((1,), polymod.scal(4, t, 8), 8)
        cand = polymod.divmod_poly(polymod.mul(u8, shift, 8), G8, 8)[1]
        if cand in squares:
            return PlaceType.INERT
    return PlaceType.RAMIFIED


def classify_conductor(K: QuadraticExtension, N: IdealFactorization):
    """[(P, exponent, PlaceType)] for every prime dividing N, canonical order."""
    return tuple((P, e, classify_finite_prime(K, P)) for P, e in N.factors)
