"""Integer utilities: primality, factorization, prime sieves.

Everything here is deterministic. Miller-Rabin on the first 12 prime bases is
proven complete only below psi_12 = 318665857834031151167461 (Sorenson and
Webster, 2015), far beyond desk scale; is_prime refuses to call a number at or
above that bound prime.
"""

import functools
import math

from .errors import InternalInvariant, NormTooLarge, PrimalityUnproven

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# least odd composite that is a strong pseudoprime to every base in _MR_BASES
PSI_12 = 318665857834031151167461

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Pollard rho iterations per call, over all its polynomials: a prime factor p
# takes about sqrt(p), so this finds factors to about 2^32 in bounded time
RHO_STEPS = 1 << 17


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PSI_12:
        raise PrimalityUnproven(f"{n} passes Miller-Rabin on the first 12 prime "
                                f"bases, which proves primality only below {PSI_12}")
    return True


def _pollard_rho(n: int) -> int:
    # n odd composite, not a prime power of a small prime
    if n % 2 == 0:
        return 2
    steps = 0
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1 and steps < RHO_STEPS:
            steps += 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if 1 < d < n:
            return d
    raise NormTooLarge(f"{n} has no factor found within {RHO_STEPS} Pollard "
                       "rho steps")


def factorize(n: int) -> dict[int, int]:
    """Full factorization of n >= 1 into {prime: exponent}; NormTooLarge if
    Pollard rho splits no composite part within RHO_STEPS."""
    if n < 1:
        raise InternalInvariant(f"factorize needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend([root, root])
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


def factor_within_bound(n: int, bound: int) -> dict[int, int]:
    """Factor n >= 1 by trial division with primes <= bound.

    A leftover cofactor <= bound**2 is provably prime and accepted; a larger
    one that is_prime proves prime is accepted too, one that passes every
    Miller-Rabin base at or above PSI_12 raises PrimalityUnproven, and any
    other raises ValueError (caller converts to its own error type).
    """
    if n < 1:
        raise InternalInvariant(f"factor_within_bound needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d <= bound and d * d <= n:
        for q in (d, d + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        d += 6
    if n > 1:
        if n <= bound * bound or is_prime(n):
            # trial division up to bound certifies primality up to bound^2;
            # beyond that fall back to the deterministic MR test
            out[n] = out.get(n, 0) + 1
        else:
            raise ValueError(f"cofactor {n} not factored within bound {bound}")
    return out


@functools.lru_cache(maxsize=8)
def primes_below(limit: int) -> list[int]:
    """Eratosthenes. Cached; callers must not mutate."""
    if limit <= 2:
        return []
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(limit) if sieve[i]]
