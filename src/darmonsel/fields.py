"""Totally real base fields at desk scale.

A field is presented as Q[x]/(f) with f monic, integer, irreducible, totally
real, of degree at most 4. Real places are certified root intervals with
rational endpoints: the field isolates its roots once, and real_embeddings
narrows those intervals to a requested width. Finite primes are
Kummer-Dedekind data (p, local factor, e, f). Primes over p dividing disc(f)
are not certified by mod-p factorization and must be registered explicitly
by the caller.
"""

from fractions import Fraction
from functools import cached_property

from . import polyarith, polymod
from .errors import (
    DegreeUnsupported,
    IndexObstruction,
    InputError,
    InternalInvariant,
    LocalDataInsufficient,
    NormTooLarge,
    NotIrreducible,
    NotMonic,
    NotTotallyReal,
)
from .intmath import factor_within_bound, factorize, is_prime
from .record import Record, set_field

DEFAULT_PRECISION = Fraction(1, 2**32)
DEFAULT_TRIAL_BOUND = 10**6


class PrimeIdeal(Record):
    """Prime of O_F in Kummer-Dedekind form.

    local_factor is monic over F_p (little-endian, entries in [0,p)), f is its
    degree, e the ramification index. Residue field F_(p^f).
    """

    def __init__(self, p: int, local_factor: tuple[int, ...], e: int, f: int):
        if not local_factor or local_factor[-1] != 1:
            raise InputError("local_factor must be monic")
        if f != len(local_factor) - 1:
            raise InputError("prime ideal f must be the degree of local_factor")
        if e < 1:
            raise InputError("prime ideal e must be at least 1")
        set_field(self, "p", p)
        set_field(self, "local_factor", local_factor)
        set_field(self, "e", e)
        set_field(self, "f", f)
        set_field(self, "_key", (p, local_factor, e, f))

    @property
    def norm(self) -> int:
        return self.p**self.f

    @property
    def sort_key(self):
        return (self.p, self.f, self.e, self.local_factor)

    def residue_of(self, coeffs) -> tuple[int, ...]:
        """Image of an integer polynomial in theta inside O/P = F_p[x]/(local_factor)."""
        reduced = polymod.reduce_mod(coeffs, self.p)
        return polymod.divmod_poly(reduced, self.local_factor, self.p)[1]

    def __str__(self):
        if self.local_factor == (0, 1) and self.e == 1 and self.f == 1:
            return f"({self.p})"
        return f"({self.p}, {_poly_str(self.local_factor)}, e={self.e}, f={self.f})"


def _poly_str(c) -> str:
    terms = []
    for i, a in enumerate(c):
        if a == 0:
            continue
        if i == 0:
            terms.append(str(a))
        elif i == 1:
            terms.append(f"{a}*x" if a != 1 else "x")
        else:
            terms.append(f"{a}*x^{i}" if a != 1 else f"x^{i}")
    return " + ".join(reversed(terms)) if terms else "0"


class RealPlace(Record):
    """Embedding F -> R, certified by an isolating interval for its root.

    lo == hi is allowed (rational root, degree 1 only) and means the embedding
    is exact. precision is the width bound the interval was refined to.
    """

    def __init__(self, index: int, lo: Fraction, hi: Fraction, precision: Fraction):
        if not lo <= hi:
            raise InternalInvariant(f"real place interval [{lo}, {hi}] is reversed")
        if hi - lo > precision:
            raise InternalInvariant(f"real place interval wider than {precision}")
        set_field(self, "index", index)
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "precision", precision)
        set_field(self, "_key", (index, lo, hi, precision))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self):
        return f"v{self.index}[{float(self.lo):.6f}, {float(self.hi):.6f}]"


class NumberField(Record):
    def __init__(self, degree: int, defining_poly: tuple[int, ...], poly_disc: int,
                 index_warning_primes: frozenset[int],
                 explicit_primes: tuple[tuple[int, tuple[PrimeIdeal, ...]], ...] = ()):
        # explicit_primes: Kummer-Dedekind data registered for warned primes
        set_field(self, "degree", degree)
        set_field(self, "defining_poly", defining_poly)
        set_field(self, "poly_disc", poly_disc)
        set_field(self, "index_warning_primes", index_warning_primes)
        set_field(self, "explicit_primes", explicit_primes)
        set_field(self, "_key", (degree, defining_poly, poly_disc,
                                 index_warning_primes, explicit_primes))

    @cached_property
    def root_intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Isolating interval of each real root, ascending: one per real place."""
        return tuple(polyarith.isolate_real_roots(self.defining_poly))

    def explicit_for(self, p: int):
        for q, primes in self.explicit_primes:
            if q == p:
                return primes
        return None

    def with_explicit_primes(self, p: int, primes) -> "NumberField":
        """Register caller-certified primes above a warned p; returns a new field."""
        primes = tuple(sorted(primes, key=lambda pr: pr.sort_key))
        if p not in self.index_warning_primes:
            raise InputError(f"p={p} is not an index-warning prime; use primes_above")
        for pr in primes:
            _validate_prime_shape(self, pr)
        if sum(pr.e * pr.f for pr in primes) != self.degree:
            raise InputError("explicit data must satisfy sum(e*f) = degree")
        if len({pr.local_factor for pr in primes}) != len(primes):
            raise InputError("explicit primes must have distinct local factors")
        table = tuple(t for t in self.explicit_primes if t[0] != p) + ((p, primes),)
        return NumberField(self.degree, self.defining_poly, self.poly_disc,
                           self.index_warning_primes, tuple(sorted(table)))

    def __str__(self):
        return f"Q[x]/({_poly_str(self.defining_poly)})"


def _validate_prime_shape(F: NumberField, P: PrimeIdeal):
    """Kummer-Dedekind shape: local_factor irreducible mod p and local_factor^e
    exactly dividing the defining polynomial mod p, also at a warned p. An
    e = 1 factor is then coprime to its cofactor, so it Hensel-lifts."""
    if not is_prime(P.p):
        raise InputError(f"{P.p} is not prime")
    if tuple(c % P.p for c in P.local_factor) != P.local_factor:
        raise InputError("local_factor coefficients must be reduced mod p")
    if not polymod.is_irreducible_fp(P.local_factor, P.p):
        raise InputError(f"local_factor {P.local_factor} reducible mod {P.p}")
    if P.e * P.f > F.degree:
        raise InputError("e*f exceeds the field degree")
    fp = polymod.reduce_mod(F.defining_poly, P.p)
    power = (1,)
    for _ in range(P.e):
        power = polymod.mul(power, P.local_factor, P.p)
    q, r = polymod.divmod_poly(fp, power, P.p)
    if r:
        raise InputError("local_factor^e does not divide the defining poly mod p")
    if not polymod.divmod_poly(q, P.local_factor, P.p)[1]:
        raise InputError("division by local_factor^e is not exact")


def _integer_coefficients(coeffs, what: str, error=InputError) -> tuple[int, ...]:
    """coeffs as a tuple of ints. Raises error unless every coefficient
    equals its int(), so 6.9 or "6" is refused rather than truncated or
    parsed."""
    try:
        coeffs = list(coeffs)
        out = tuple(int(c) for c in coeffs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must be integers: {coeffs!r}") from exc
    if list(out) != coeffs:
        raise error(f"{what} must be integers: {coeffs!r}")
    return out


def parse_field(coeffs) -> NumberField:
    """Build and certify a NumberField from little-endian integer coefficients.

    Raises NotMonic, DegreeUnsupported, NotIrreducible, NotTotallyReal.
    """
    poly = polyarith.trim(_integer_coefficients(coeffs, "coefficients", NotMonic))
    d = polyarith.deg(poly)
    if d < 1 or not poly:
        raise DegreeUnsupported("degree must be between 1 and 4")
    if poly[-1] != 1:
        raise NotMonic(f"leading coefficient {poly[-1]} != 1")
    if d > 4:
        raise DegreeUnsupported(f"degree {d} > 4: exact kernels are capped at quartics")
    disc = polyarith.discriminant(poly)
    if disc == 0:
        raise NotIrreducible(f"{_poly_str(poly)} has a repeated factor")
    if not polyarith.is_irreducible_monic_int(poly, disc):
        raise NotIrreducible(f"{_poly_str(poly)} factors over Q")
    warned = frozenset(factorize(abs(disc)))
    F = NumberField(degree=d, defining_poly=poly, poly_disc=disc,
                    index_warning_primes=warned)
    if len(F.root_intervals) != d:
        raise NotTotallyReal(f"{_poly_str(poly)} has non-real roots")
    return F


def real_embeddings(F: NumberField, precision: Fraction = DEFAULT_PRECISION):
    """All real places, one per root, intervals sorted ascending, index 1..d:
    the field's isolating intervals bisected down to width <= precision."""
    f = F.defining_poly
    cells = [polyarith.refine_sign_change(f, lo, hi, precision) if lo != hi
             else (lo, hi) for lo, hi in F.root_intervals]
    for i in range(len(cells) - 1):
        # neighbouring bisection cells can share an endpoint; the roots are
        # irrational, so halving both cells separates them
        while cells[i][1] >= cells[i + 1][0]:
            cells[i], cells[i + 1] = (
                polyarith.refine_sign_change(f, lo, hi, (hi - lo) / 2)
                for lo, hi in cells[i:i + 2])
    return tuple(RealPlace(index=index, lo=lo, hi=hi, precision=precision)
                 for index, (lo, hi) in enumerate(cells, start=1))


def primes_above(F: NumberField, p: int):
    """Primes of O_F over p, by Kummer-Dedekind. Requires p prime.

    Raises IndexObstruction for p dividing disc(defining_poly) unless explicit
    data was registered with with_explicit_primes.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    explicit = F.explicit_for(p)
    if explicit is not None:
        return explicit
    if p in F.index_warning_primes:
        raise IndexObstruction(
            f"p={p} divides disc = {F.poly_disc}; mod-p factorization is not "
            "certified, register explicit prime data")
    fp_factors = polymod.factor_squarefree_monic_fp(F.defining_poly, p)
    primes = tuple(sorted(
        (PrimeIdeal(p=p, local_factor=g, e=1, f=polymod.deg(g)) for g in fp_factors),
        key=lambda pr: pr.sort_key))
    if sum(pr.e * pr.f for pr in primes) != F.degree:
        raise InternalInvariant(f"the primes above {p} miss sum(e*f) = degree")
    return primes


class IdealFactorization(Record):
    """Integral ideal in factored form; the empty product is the unit ideal."""

    def __init__(self, factors: tuple[tuple[PrimeIdeal, int], ...]):
        keys = [P.sort_key for P, _ in factors]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise InternalInvariant("ideal factors must be distinct and sorted")
        if not all(e >= 1 for _, e in factors):
            raise InternalInvariant("ideal exponents must be at least 1")
        set_field(self, "factors", factors)
        set_field(self, "_key", (factors,))

    @classmethod
    def unit(cls) -> "IdealFactorization":
        return cls(factors=())

    @classmethod
    def from_pairs(cls, pairs) -> "IdealFactorization":
        merged: dict[PrimeIdeal, int] = {}
        for P, e in pairs:
            merged[P] = merged.get(P, 0) + e
        kept = tuple(sorted(((P, e) for P, e in merged.items() if e != 0),
                            key=lambda t: t[0].sort_key))
        return cls(factors=kept)  # a negative exponent fails its check

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def primes(self):
        return tuple(P for P, _ in self.factors)

    def exponent_of(self, P: PrimeIdeal) -> int:
        for Q, e in self.factors:
            if Q == P:
                return e
        return 0

    def all_exponents_one(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def mul(self, other: "IdealFactorization") -> "IdealFactorization":
        return IdealFactorization.from_pairs(self.factors + other.factors)

    def div_exact(self, other: "IdealFactorization") -> "IdealFactorization":
        counts = {P: e for P, e in self.factors}
        for P, e in other.factors:
            have = counts.get(P, 0)
            if have < e:
                raise InputError(f"division not exact at {P}")
            counts[P] = have - e
        return IdealFactorization.from_pairs(counts.items())

    def coprime_to(self, other: "IdealFactorization") -> bool:
        mine = {P for P, _ in self.factors}
        return not any(P in mine for P, _ in other.factors)

    def norm(self) -> int:
        out = 1
        for P, e in self.factors:
            out *= P.norm**e
        return out

    def __str__(self):
        if self.is_unit:
            return "(1)"
        return " * ".join(f"{P}^{e}" if e > 1 else f"{P}" for P, e in self.factors)


def prime_power(P: PrimeIdeal, e: int = 1) -> IdealFactorization:
    return IdealFactorization.from_pairs([(P, e)])


def factor_ideal(F: NumberField, *, generator=None, factors=None,
                 trial_bound: int = DEFAULT_TRIAL_BOUND) -> IdealFactorization:
    """Factor an integral ideal given either way.

    generator: little-endian integer coefficients of an element of Z[theta]
    (principal ideal; its norm must factor by trial division within
    trial_bound, every prime dividing the norm must be certifiable, and the
    valuation the unramified primes above p leave must fall to at most one
    ramified prime, else LocalDataInsufficient).
    factors: iterable of (PrimeIdeal, exponent) pairs, validated and returned
    verbatim.
    """
    if (generator is None) == (factors is None):
        raise InputError("give exactly one of generator= or factors=")
    if factors is not None:
        pairs = list(factors)
        for P, e in pairs:
            if not isinstance(P, PrimeIdeal):
                raise InputError("factored form needs PrimeIdeal keys")
            if e < 1:
                raise InputError(f"exponent {e} < 1 at {P}")
            _validate_prime_shape(F, P)
        by_p: dict[int, int] = {}
        for P, _ in pairs:
            by_p[P.p] = by_p.get(P.p, 0) + P.e * P.f
        for p, total in by_p.items():
            if total > F.degree:
                raise InputError(f"primes over {p} exceed sum(e*f) = degree")
        if len({P for P, _ in pairs}) != len(pairs):
            raise InputError("duplicate prime in factored input")
        return IdealFactorization.from_pairs(pairs)

    gen_coeffs = _integer_coefficients(generator, "generator coefficients")
    gen = polyarith.reduce_mod_poly(gen_coeffs, F.defining_poly)
    norm = polyarith.resultant(F.defining_poly, gen)
    if norm == 0:
        raise InputError("zero generator does not define an integral ideal")
    if abs(norm) == 1:
        return IdealFactorization.unit()
    try:
        norm_factors = factor_within_bound(abs(norm), trial_bound)
    except ValueError as exc:
        raise NormTooLarge(f"|N(gen)| = {abs(norm)}: {exc}") from exc
    pairs = []
    for p, rest in sorted(norm_factors.items()):
        primes = primes_above(F, p)  # IndexObstruction propagates
        for P in primes:
            if P.e == 1:
                v = local_expansion(F, P, gen)[0]
                pairs.append((P, v))
                rest -= P.f * v
        if not rest:
            continue
        ramified = [P for P in primes if P.e > 1]
        if len(ramified) > 1:
            raise LocalDataInsufficient(
                f"{len(ramified)} ramified primes above {p} share the norm "
                f"valuation {rest} left by the unramified ones")
        (P,) = ramified
        v, rem = divmod(rest, P.f)
        if rem:
            raise InputError(
                f"norm valuation {rest} left at p={p} is not a multiple of f={P.f}")
        pairs.append((P, v))
    return IdealFactorization.from_pairs(pairs)


def local_expansion(F: NumberField, P: PrimeIdeal, a, extra_level: int = 3):
    """(v, unit, level, G): a = p^v * unit in the completion Z_p[x]/(G) of F
    at an unramified P, where G is the Hensel lift of the local factor and the
    unit is known mod (p^level, G). v is v_P(a) for nonzero a in Z[theta].

    Raises LocalDataInsufficient for e >= 2: Kummer-Dedekind data does not
    determine the completion there.
    """
    if P.e != 1:
        raise LocalDataInsufficient(
            f"v_{P} needs the completion at a ramified prime: Kummer-Dedekind "
            "data does not determine it")
    p = P.p
    norm = polyarith.resultant(F.defining_poly, a)
    if norm == 0:
        raise InputError("a zero element has no valuation")
    bound = _p_val(norm, p)
    m = bound + extra_level
    G, _ = polymod.hensel_lift_pair(F.defining_poly, P.local_factor, p, m)
    modulus = p**m
    r = polymod.divmod_poly(polymod.reduce_mod(a, modulus), G, modulus)[1]
    # r = 0 would put v_P(a) at m or more, past the norm's valuation
    v = min((_p_val(c, p) for c in r if c), default=bound + 1)
    if v * P.f > bound:
        raise InternalInvariant(f"v_P(a) * f = {v * P.f} exceeds v_p(N(a)) = {bound}")
    unit = tuple(c // p**v for c in r)
    return v, polymod.reduce_mod(unit, p ** (m - v)), m - v, G


def _p_val(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
