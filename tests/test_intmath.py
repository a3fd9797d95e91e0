import pytest
from hypothesis import given, strategies as st

from darmonsel.errors import PrimalityUnproven
from darmonsel.intmath import (
    PSI_12,
    factor_within_bound,
    factorize,
    is_prime,
    primes_below,
)

KNOWN_PRIMES = [2, 3, 5, 7, 11, 101, 7919, 2**31 - 1, 10**18 + 9]
KNOWN_COMPOSITES = [1, 0, -7, 4, 9, 91, 561, 2**32 + 1, 10**18 + 7]


@pytest.mark.parametrize("n", KNOWN_PRIMES)
def test_is_prime_on_primes(n):
    assert is_prime(n)


@pytest.mark.parametrize("n", KNOWN_COMPOSITES)
def test_is_prime_on_composites(n):
    assert not is_prime(n)


def test_is_prime_refuses_beyond_the_proven_bound():
    # psi_12 and psi_13 are strong pseudoprimes to the 12 bases 2..37
    assert PSI_12 == 399165290221 * 798330580441
    assert is_prime(399165290221) and is_prime(798330580441)
    psi_13 = 3317044064679887385961981
    assert psi_13 == 1287836182261 * 2575672364521
    for n in (PSI_12, psi_13):
        with pytest.raises(PrimalityUnproven):
            is_prime(n)
    # a witnessed composite above the bound is still refuted and factored
    q = 10**18 + 9
    assert q * 1000003 > PSI_12
    assert not is_prime(q * 1000003)
    assert factorize(q * 1000003) == {1000003: 1, q: 1}


def test_factorize_golden():
    assert factorize(1800) == {2: 3, 3: 2, 5: 2}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}


@given(st.integers(min_value=2, max_value=10**9))
def test_factorize_reassembles(n):
    factors = factorize(n)
    prod = 1
    for p, e in factors.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_factor_within_bound_accepts_large_prime_cofactor():
    n = 6 * (10**18 + 9)
    assert factor_within_bound(n, 10**6) == {2: 1, 3: 1, 10**18 + 9: 1}


def test_factor_within_bound_rejects_opaque_cofactor():
    # product of two primes above the bound is not certifiable by trial division
    n = (10**9 + 7) * (10**9 + 9)
    with pytest.raises(ValueError):
        factor_within_bound(n, 10**6)


def test_primes_below():
    assert primes_below(2) == []
    assert primes_below(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_below(10**5)) == 9592
