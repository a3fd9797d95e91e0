import itertools
import random

from hypothesis import given, settings, strategies as st

from darmonsel import polymod
from darmonsel.polymod import (
    add,
    bezout_fp,
    deg,
    derivative_mod,
    divmod_poly,
    eval_mod,
    factor_squarefree_monic_fp,
    fq_quadratic_character,
    gcd_fp,
    hensel_lift_pair,
    is_irreducible_fp,
    mul,
    powmod,
    reduce_mod,
    trim,
)

PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])
COEFFS = st.lists(st.integers(-30, 30), min_size=0, max_size=6)


def fp_poly(p, coeffs):
    return reduce_mod(tuple(coeffs), p)


@given(PRIMES, COEFFS, COEFFS)
def test_divmod_reassembles(p, fc, gc):
    f, g = fp_poly(p, fc), fp_poly(p, gc)
    if not g:
        return
    q, r = divmod_poly(f, g, p)
    assert deg(r) < deg(g)
    assert trim(reduce_mod(add(mul(q, g, p), r, p), p)) == f


@given(PRIMES, COEFFS, COEFFS)
def test_gcd_divides_both(p, fc, gc):
    f, g = fp_poly(p, fc), fp_poly(p, gc)
    d = gcd_fp(f, g, p)
    if not d:
        assert not f and not g
        return
    assert not divmod_poly(f, d, p)[1]
    assert not divmod_poly(g, d, p)[1]


@given(PRIMES, COEFFS, COEFFS)
def test_bezout_identity(p, fc, gc):
    f, g = fp_poly(p, fc), fp_poly(p, gc)
    if not f or not g:
        return
    d = gcd_fp(f, g, p)
    u, v = bezout_fp(f, g, p)
    combo = reduce_mod(add(mul(u, f, p), mul(v, g, p), p), p)
    assert trim(combo) == d


def test_derivative():
    # d/dx (x^3 + 2x + 5) = 3x^2 + 2
    assert derivative_mod((5, 2, 0, 1), 7) == (2, 0, 3)
    assert derivative_mod((4,), 7) == ()
    # p kills the x^p term
    assert derivative_mod((0, 0, 0, 1), 3) == ()


@given(PRIMES, COEFFS, st.integers(-20, 20))
def test_eval_is_ring_hom(p, fc, x):
    f = fp_poly(p, fc)
    g = (3 % p, 1)
    assert eval_mod(mul(f, g, p), x, p) == (eval_mod(f, x, p) * eval_mod(g, x, p)) % p


def test_is_irreducible_fp_knowns():
    assert is_irreducible_fp((1, 1, 1), 2)
    assert is_irreducible_fp((1, 1, 0, 1), 2)
    assert is_irreducible_fp((1, 0, 1), 3)
    assert not is_irreducible_fp((1, 0, 0, 1), 7)
    assert not is_irreducible_fp((0, 1, 1), 5)
    assert not is_irreducible_fp((6, 0, 1), 5)  # x^2 + 6 = x^2 + 1 = (x+2)(x+3)
    assert is_irreducible_fp((3, 1), 5)


@given(PRIMES, COEFFS)
@settings(max_examples=150)
def test_factor_squarefree_reassembles(p, fc):
    f = fp_poly(p, fc)
    if deg(f) < 1 or f[-1] != 1 or deg(f) > 4:
        return
    if deg(gcd_fp(f, derivative_mod(f, p), p)) > 0:
        return  # not squarefree, out of contract
    factors = factor_squarefree_monic_fp(f, p)
    prod = (1,)
    for g in factors:
        assert is_irreducible_fp(g, p)
        prod = mul(prod, g, p)
    assert trim(reduce_mod(prod, p)) == f


def test_hensel_lift_pair_quadratic():
    # x^2 - 5 = (x - 1)(x + 1) mod 2... no: mod 11, 5 = 4^2, split
    f = (-5, 0, 1)
    g = (7, 1)  # x - 4 mod 11
    G, H = hensel_lift_pair(f, g, 11, 4)
    m = 11**4
    prod = tuple(c % m for c in polymod.mul(G, H, m))
    assert prod == tuple(c % m for c in f)
    assert tuple(c % 11 for c in G) == g
    # the lifted root squares to 5 mod 11^4
    root = (m - G[0]) % m
    assert root * root % m == 5 % m


def test_hensel_lift_pair_inert_factor_is_whole_poly():
    f = (-5, 0, 1)
    g = reduce_mod(f, 3)  # inert at 3: the factor is f itself, cofactor 1
    G, H = hensel_lift_pair(f, g, 3, 5)
    assert H == (1,)
    assert G == tuple(c % 3**5 for c in f)


def test_quadratic_character_fp():
    # squares mod 7: 1, 2, 4
    for a, expect in [(1, 1), (2, 1), (4, 1), (3, -1), (5, -1), (6, -1)]:
        assert fq_quadratic_character((a,), (0, 1), 7) == expect


def test_quadratic_character_fp2():
    # F_9 = F_3[x]/(x^2+1); x has multiplicative order 4, so x is a square
    # iff 4 | (9-1)/gcd... order of squares subgroup is 4; x^4 = 1 means x is
    # a square exactly when x = y^2 has a solution: the squares are the
    # elements of order dividing 4. x has order 4, and (x+1)^2 = 2x, so
    # x = 2 * (x+1)^2 * inverse(2)... verify by brute force instead.
    g = (1, 0, 1)
    p = 3
    squares = set()
    for a in range(p):
        for b in range(p):
            y = (a, b)
            squares.add(trim(reduce_mod(polymod.divmod_poly(
                polymod.mul(y, y, p), g, p)[1], p)))
    squares.discard(())
    for a in range(p):
        for b in range(p):
            u = trim((a, b))
            if not u:
                continue
            expect = 1 if u in squares else -1
            assert fq_quadratic_character(u, g, p) == expect


def euler_character(a, g, p):
    """Independent reference: Euler's criterion a^((q-1)/2) computed in F_q."""
    q = p ** deg(g)
    chi = powmod(a, (q - 1) // 2, g, p)
    if chi == (1,):
        return 1
    assert chi == (p - 1,), "character of a unit must be +-1"
    return -1


def test_quadratic_character_matches_euler_over_whole_fields():
    # every nonzero a of F_q, two seeded irreducible g per (p, deg g), odd
    # p <= 31, q < 2000
    rng = random.Random(19)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for k in range(1, 5):
            if p**k >= 2000:
                continue
            moduli = set()
            while len(moduli) < 2:
                g = tuple(rng.randrange(p) for _ in range(k)) + (1,)
                if is_irreducible_fp(g, p):
                    moduli.add(g)
            for g in moduli:
                for a in itertools.product(range(p), repeat=k):
                    a = trim(a)
                    if a:
                        assert fq_quadratic_character(a, g, p) == \
                            euler_character(a, g, p), (a, g, p)


def test_fp_invariants_survive_optimize(run_optimized):
    out = run_optimized("""
        import random
        from darmonsel.errors import InternalInvariant
        from darmonsel.polyarith import is_irreducible_monic_int
        from darmonsel.polymod import (_split_quadratic_pair, divmod_poly,
                                       factor_squarefree_monic_fp,
                                       hensel_lift_pair)
        assert False, "asserts must be stripped"
        cases = [
            lambda: divmod_poly((1, 2, 3), (), 5),
            # (x + 1)^2: not squarefree mod 5
            lambda: factor_squarefree_monic_fp((1, 2, 1), 5),
            # 2x^2 + 1: not monic mod 5
            lambda: factor_squarefree_monic_fp((1, 0, 2), 5),
            # x^5 - x + 1 is irreducible mod 5, past the quartic cap
            lambda: factor_squarefree_monic_fp((1, 4, 0, 0, 0, 1), 5),
            # x + 2 does not divide x^2 - 2 mod 7
            lambda: hensel_lift_pair((-2, 0, 1), (2, 1), 7, 3),
            # (x + 1)^2 * (x + 2): the pair x + 1, (x + 1)(x + 2) shares x + 1
            lambda: hensel_lift_pair((2, 5, 4, 1), (1, 1), 7, 3),
            # x^4 + x + 1 is irreducible mod 2: it has no quadratic factor
            lambda: _split_quadratic_pair((1, 1, 0, 0, 1), 2, random.Random(0)),
            lambda: is_irreducible_monic_int((1, 0, 0, 0, 0, 1), 3125),
            lambda: is_irreducible_monic_int((1, 2), 1),
        ]
        for case in cases:
            try:
                case()
                print("no error")
            except InternalInvariant:
                print("InternalInvariant")
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["InternalInvariant"] * 9
