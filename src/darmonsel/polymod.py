"""Dense polynomial arithmetic over Z/m, with the factorization and Hensel
lifting needed by the ideal layer.

Coefficient convention: little-endian tuples, entries reduced into [0, m).
Degrees never exceed 4 here, so the point is exactness, not asymptotics. The
quadratic character of F_q is read off the norm, polyarith's resultant.
"""

import random

from .errors import InternalInvariant

Poly = tuple[int, ...]


def trim(c) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def reduce_mod(c, m: int) -> Poly:
    return trim(x % m for x in c)


def deg(c: Poly) -> int:
    return len(c) - 1  # deg(0) == -1 by this convention


def add(a: Poly, b: Poly, m: int) -> Poly:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return trim((x + y) % m for x, y in zip(a, b))


def sub(a: Poly, b: Poly, m: int) -> Poly:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return trim((x - y) % m for x, y in zip(a, b))


def mul(a: Poly, b: Poly, m: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % m
    return trim(out)


def scal(k: int, a: Poly, m: int) -> Poly:
    return trim(k * x % m for x in a)


def divmod_poly(a: Poly, b: Poly, m: int) -> tuple[Poly, Poly]:
    """Division with remainder; lc(b) must be invertible mod m."""
    if not b:
        raise InternalInvariant("division by the zero polynomial")
    inv = pow(b[-1], -1, m)
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        coef = a[-1] * inv % m
        q[shift] = coef
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * y) % m
        a.pop()
    return trim(q), trim(a)


def derivative_mod(c: Poly, m: int) -> Poly:
    return trim((i * c[i]) % m for i in range(1, len(c)))


def eval_mod(c: Poly, x: int, m: int) -> int:
    acc = 0
    for coef in reversed(c):
        acc = (acc * x + coef) % m
    return acc


def monic_fp(a: Poly, p: int) -> Poly:
    if not a:
        return a
    return scal(pow(a[-1], -1, p), a, p)


def gcd_fp(a: Poly, b: Poly, p: int) -> Poly:
    while b:
        _, r = divmod_poly(a, b, p)
        a, b = b, r
    return monic_fp(a, p)


def bezout_fp(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    """(s, t) with s*a + t*b = gcd(a,b), gcd normalized monic."""
    r0, r1 = a, b
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if r0:
        inv = pow(r0[-1], -1, p)
        s0, t0 = scal(inv, s0, p), scal(inv, t0, p)
    return s0, t0


def powmod(base: Poly, e: int, mod: Poly, m: int) -> Poly:
    _, base = divmod_poly(base, mod, m)
    out: Poly = (1,)
    while e:
        if e & 1:
            out = divmod_poly(mul(out, base, m), mod, m)[1]
        base = divmod_poly(mul(base, base, m), mod, m)[1]
        e >>= 1
    return out


def frobenius_powers(mod: Poly, p: int, k: int) -> list[Poly]:
    """[x^(p^1), ..., x^(p^k)] reduced mod (mod, p)."""
    out = []
    t: Poly = (0, 1)
    for _ in range(k):
        t = powmod(t, p, mod, p)
        out.append(t)
    return out


def is_irreducible_fp(g: Poly, p: int) -> bool:
    """Rabin test; deg(g) <= 4 in this package but the code is general."""
    g = monic_fp(g, p)
    k = deg(g)
    if k <= 0:
        return False
    if k == 1:
        return True
    frob = frobenius_powers(g, p, k)
    x: Poly = (0, 1)
    if sub(frob[k - 1], x, p):
        return False
    for t in {q for q in (2, 3) if k % q == 0}:
        if deg(gcd_fp(sub(frob[k // t - 1], x, p), g, p)) > 0:
            return False
    return True


def _roots_of_split_product(l: Poly, p: int, rng: random.Random) -> list[int]:
    """Roots of a monic product of distinct linear factors over F_p."""
    if deg(l) <= 0:
        return []
    if deg(l) == 1:
        return [(-l[0]) % p]
    if p <= 13:
        return [a for a in range(p) if eval_mod(l, a, p) == 0]
    # Cantor-Zassenhaus splitting
    while True:
        a = rng.randrange(p)
        probe = powmod((a, 1), (p - 1) // 2, l, p)
        g = gcd_fp(sub(probe, (1,), p), l, p)
        if 0 < deg(g) < deg(l):
            q, r = divmod_poly(l, g, p)
            if r:
                raise InternalInvariant("a gcd factor does not divide its product")
            return _roots_of_split_product(g, p, rng) + _roots_of_split_product(q, p, rng)


SPLIT_TRIES = 64  # each try splits a true pair with probability about 1/2


def _split_quadratic_pair(h: Poly, p: int, rng: random.Random) -> list[Poly]:
    """h monic quartic known to be a product of two distinct monic irreducible
    quadratics over F_p; return the pair, by Cantor-Zassenhaus."""
    for _ in range(SPLIT_TRIES):
        r_poly = tuple(rng.randrange(p) for _ in range(4))
        if deg(trim(r_poly)) < 1:
            continue
        probe = powmod(trim(r_poly), (p * p - 1) // 2, h, p)
        g = gcd_fp(sub(probe, (1,), p), h, p)
        if deg(g) == 2:
            quo, rem = divmod_poly(h, g, p)
            if rem:
                raise InternalInvariant("a gcd factor does not divide its product")
            return [monic_fp(g, p), monic_fp(quo, p)]
    raise InternalInvariant(f"{h} did not split mod {p} in {SPLIT_TRIES} tries")


def factor_squarefree_monic_fp(f: Poly, p: int) -> list[Poly]:
    """Distinct monic irreducible factors of a monic squarefree f over F_p.

    deg(f) <= 4. Raises InternalInvariant if f is not monic or not squarefree
    mod p: callers take p prime to disc(f).
    """
    f = reduce_mod(f, p)
    if not f or f[-1] != 1:
        raise InternalInvariant(f"factor input {f} is not monic mod {p}")
    if deg(gcd_fp(f, derivative_mod(f, p), p)) != 0:
        raise InternalInvariant(f"{f} has a repeated factor mod {p}")
    rng = random.Random(hash((f, p)) & 0xFFFFFFFF)
    x: Poly = (0, 1)
    xp = powmod(x, p, f, p)
    lin = gcd_fp(sub(xp, x, p), f, p)
    factors: list[Poly] = []
    for root in sorted(_roots_of_split_product(lin, p, rng)):
        factors.append(((-root) % p, 1))
    h, r = divmod_poly(f, lin, p) if deg(lin) > 0 else (f, ())
    if r:
        raise InternalInvariant("the linear part does not divide f mod p")
    if deg(h) <= 0:
        return factors
    if deg(h) in (2, 3):
        factors.append(h)
        return factors
    if deg(h) != 4:
        raise InternalInvariant(f"factor input {f} has degree above 4")
    xp2 = powmod(xp, p, h, p)  # x^(p^2) mod h
    if sub(xp2, x, p):
        factors.append(h)
    else:
        factors.extend(sorted(_split_quadratic_pair(h, p, rng)))
    return factors


def hensel_lift_pair(f: Poly, g: Poly, p: int, prec: int) -> tuple[Poly, Poly]:
    """Lift the factorization f = g*h (mod p) to modulus p^prec.

    f monic over Z, g a monic factor of f mod p with gcd(g, f/g) = 1 mod p.
    Returns (G, H) monic with G*H = f (mod p^prec), G = g (mod p).
    """
    fp = reduce_mod(f, p)
    g = reduce_mod(g, p)
    h, r = divmod_poly(fp, g, p)
    if r:
        raise InternalInvariant(f"{g} does not divide {f} mod {p}")
    if deg(h) == 0:
        # g is the whole of f mod p; the lift is f itself
        return reduce_mod(f, p**prec), (1,)
    s, t = bezout_fp(g, h, p)
    if add(mul(s, g, p), mul(t, h, p), p) != (1,):
        raise InternalInvariant(f"factor pair {g}, {h} not coprime mod {p}")
    G, H = g, h
    pk = p
    while pk < p**prec:
        m = pk * p
        diff = sub(reduce_mod(f, m), mul(G, H, m), m)
        delta = trim(c // pk for c in diff)  # exact by the induction invariant
        u_q, u = divmod_poly(mul(delta, t, p), g, p)
        v = add(mul(delta, s, p), mul(u_q, h, p), p)
        if deg(v) >= deg(h):
            raise InternalInvariant("Hensel correction not reduced mod h")
        G = add(G, scal(pk, u, m), m)
        H = add(H, scal(pk, v, m), m)
        pk = m
    return G, H


def fq_quadratic_character(a: Poly, g: Poly, p: int) -> int:
    """+1 (square) or -1 of a nonzero residue of F_q = F_p[x]/(g), given by any
    integer lift a; odd p, g monic and irreducible mod p. Euler's criterion on
    the norm: a^((q-1)/2) = N(a)^((p-1)/2), and N(a) = res(g, a) mod p."""
    from .polyarith import resultant  # polyarith imports this module
    if p % 2 == 0:
        raise InternalInvariant(f"quadratic character needs odd p, got {p}")
    chi = pow(resultant(g, a), (p - 1) // 2, p)
    if chi not in (1, p - 1):
        raise InternalInvariant(f"{a} is zero mod ({g}, {p}), or p is not prime")
    return 1 if chi == 1 else -1
