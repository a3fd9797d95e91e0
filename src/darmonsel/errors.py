"""Exception hierarchy.

Every error that a caller is expected to catch has its own class; the CLI maps
DarmonselError uniformly to exit code 1 except where noted in cli.py.
"""


class DarmonselError(Exception):
    """Base class for all package errors."""


# ---- field construction ----

class NotMonic(DarmonselError):
    """Defining polynomial is not monic with integer coefficients."""


class NotIrreducible(DarmonselError):
    """Defining polynomial factors over Q."""


class NotTotallyReal(DarmonselError):
    """Defining polynomial has a non-real complex root."""


class DegreeUnsupported(DarmonselError):
    """Degree outside the supported range 1..4."""


# ---- integer layer ----

class PrimalityUnproven(DarmonselError):
    """A probable prime beyond the bound below which the Miller-Rabin bases
    prove primality."""


# ---- ideal arithmetic ----

class IndexObstruction(DarmonselError):
    """p divides disc(defining_poly): the order Z[theta] may not be maximal at
    p, so mod-p factorization does not certify the primes above p. Caller must
    register explicit prime data."""


class NormTooLarge(DarmonselError):
    """A norm or the polynomial discriminant does not factor within the bound
    (trial division for norms, a Pollard rho step budget for discriminants)."""


class LocalDataInsufficient(DarmonselError):
    """Kummer-Dedekind data for a ramified prime (e >= 2) does not determine
    the completion arithmetic this computation needs."""


# ---- quadratic extension ----

class ZeroDelta(DarmonselError):
    """delta reduced to 0, so F(sqrt(delta)) is not an extension."""


class IsSquare(DarmonselError):
    """delta is a square in F: the 'extension' would be the split algebra."""


class NoRealPlace(DarmonselError):
    """delta is negative at every real place; K would be totally complex."""


class PrecisionExhausted(DarmonselError):
    """Interval refinement hit the depth limit without certifying a sign."""


class DiscNotCoprime(DarmonselError):
    """A prime dividing the conductor ramifies in K/F."""


# ---- oracle / cli ----

class SearchSpaceTooLarge(DarmonselError):
    """Brute-force enumeration bound exceeded."""


class OracleMismatch(DarmonselError):
    """Selector output and brute-force enumeration disagree."""


class InputError(DarmonselError):
    """Malformed config, corpus record, or report document."""


class InternalInvariant(DarmonselError):
    """An emitted result fails a structural check the engine guarantees.
    Raised by code, not by assert, so it also holds under python -O."""
