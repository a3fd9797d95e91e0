"""Exact univariate polynomial arithmetic over Z and Q.

Little-endian coefficient tuples, same as polymod. Everything runs on ints and
fractions.Fraction; no floating point anywhere. Degree is capped at 4 by the
callers, which keeps the quartic factor search and the Sylvester determinants
trivial.
"""

from fractions import Fraction

from .errors import PrecisionExhausted
from .intmath import factorize, is_perfect_square
from .polymod import deg, trim
import math

# depth limit for all certified bisection loops
MIN_WIDTH = Fraction(1, 2**256)


def add(a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return trim(x + y for x, y in zip(a, b))


def neg(a):
    return tuple(-x for x in a)


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def derivative(a):
    return trim(i * x for i, x in enumerate(a) if i > 0)


def eval_at(c, x):
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def divmod_exact(a, b):
    """Division with remainder over Q."""
    assert b, "division by zero polynomial"
    a = [Fraction(x) for x in a]
    lead = Fraction(b[-1])
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        coef = a[-1] / lead
        q[shift] = coef
        for i, y in enumerate(b):
            a[shift + i] -= coef * y
        a.pop()
    return trim(q), trim(a)


def reduce_mod_poly(a, f):
    """a mod f, for monic integer f; keeps integer coefficients integer."""
    a = list(a)
    while len(a) >= len(f):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(f)
        coef = a[-1]
        for i, y in enumerate(f):
            a[shift + i] -= coef * y
        a.pop()
    return trim(a)


# ---- resultants ----

def resultant(f, g):
    """res(f, g) by exact Gaussian elimination on the Sylvester matrix."""
    n, m = deg(f), deg(g)
    assert n >= 0 and m >= 0
    if n == 0:
        return Fraction(f[0]) ** m
    if m == 0:
        return Fraction(g[0]) ** n
    size = n + m
    rows = []
    rf = list(reversed(f))
    rg = list(reversed(g))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in rf] + [Fraction(0)] * (m - 1 - i))
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in rg] + [Fraction(0)] * (n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] == 0:
                continue
            factor = rows[r][col] / inv
            for c in range(col, size):
                rows[r][c] -= factor * rows[col][c]
    return det


def discriminant(f) -> int:
    """Discriminant of f; integer for integer f. deg(f) >= 1."""
    n = deg(f)
    assert n >= 1
    if n == 1:
        return 1
    res = resultant(f, derivative(f))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    d = sign * res / Fraction(f[-1])
    assert d.denominator == 1
    return int(d)


# ---- Sturm machinery ----

def sturm_chain(f):
    chain = [tuple(Fraction(c) for c in f)]
    d = derivative(chain[0])
    if d:
        chain.append(d)
        while True:
            _, r = divmod_exact(chain[-2], chain[-1])
            if not r:
                break
            chain.append(neg(r))
    return chain


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def sturm_count_halfopen(chain, a, b) -> int:
    """Number of distinct real roots in (a, b]."""
    va = _variations([_sign(eval_at(p, a)) for p in chain])
    vb = _variations([_sign(eval_at(p, b)) for p in chain])
    return va - vb


def cauchy_bound(f) -> int:
    """Integer M with all real roots of f inside (-M, M)."""
    lead = abs(f[-1])
    top = max(abs(c) for c in f[:-1]) if len(f) > 1 else 0
    return 1 + math.ceil(Fraction(top, lead)) + 1


def isolate_real_roots(f):
    """Isolating intervals for every real root of f, sorted ascending.

    f must be squarefree with no rational roots unless deg(f) == 1 (the only
    callers are irreducible polynomials). Each interval (lo, hi) is a bisection
    cell of (-M, M] holding exactly one root, with f(lo)*f(hi) < 0; a linear f
    yields the degenerate exact interval (r, r). refine_sign_change narrows
    them.
    """
    if deg(f) == 1:
        r = Fraction(-f[0], f[1])
        return [(r, r)]
    chain = sturm_chain(f)
    bound = cauchy_bound(f)
    total = sturm_count_halfopen(chain, Fraction(-bound), Fraction(bound))
    done = []
    stack = [(Fraction(-bound), Fraction(bound), total)]
    while stack:
        lo, hi, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            done.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        assert eval_at(f, mid) != 0, "rational root hit during isolation"
        left = sturm_count_halfopen(chain, lo, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, k - left))
    done.sort()
    for lo, hi in done:
        # a single simple root inside forces opposite endpoint signs
        assert _sign(eval_at(f, lo)) * _sign(eval_at(f, hi)) < 0
    return done


def refine_sign_change(f, lo: Fraction, hi: Fraction, width: Fraction):
    """Bisect a sign-changing bracket until hi - lo <= width."""
    slo = _sign(eval_at(f, lo))
    assert slo != 0 and slo * _sign(eval_at(f, hi)) < 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        smid = _sign(eval_at(f, mid))
        assert smid != 0, "rational root hit during refinement"
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


# ---- interval arithmetic ----

def interval_mul(a, b):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products), max(products)


def interval_eval(c, lo: Fraction, hi: Fraction):
    """Enclosure of {c(x) : x in [lo, hi]} by interval Horner."""
    acc = (Fraction(0), Fraction(0))
    for coef in reversed(c):
        acc = interval_mul(acc, (lo, hi))
        acc = (acc[0] + coef, acc[1] + coef)
    return acc


def sign_at_root(g, f, lo: Fraction, hi: Fraction):
    """Certified sign of g at the unique root of f in [lo, hi].

    Returns (sign, (lo, hi)) where the returned interval is the refinement that
    witnessed the sign. g must be nonzero at the root; for g of degree less
    than deg(f) with f irreducible this is automatic. Degenerate intervals
    (rational root) evaluate exactly.
    """
    if lo == hi:
        s = _sign(eval_at(g, lo))
        assert s != 0, "g vanishes at the rational root"
        return s, (lo, hi)
    while True:
        elo, ehi = interval_eval(g, lo, hi)
        if elo > 0:
            return 1, (lo, hi)
        if ehi < 0:
            return -1, (lo, hi)
        if hi - lo <= MIN_WIDTH:
            raise PrecisionExhausted(
                f"sign of {g} not separated from 0 at interval width {hi - lo}")
        lo, hi = refine_sign_change(f, lo, hi, (hi - lo) / 4)


# ---- irreducibility over Q, monic integer input, degree <= 4 ----

def _divisors(n: int):
    fac = factorize(n)
    out = [1]
    for p, e in fac.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def integer_roots(f):
    """All integer roots of a monic integer polynomial."""
    if not f:
        return []
    if f[0] == 0:
        inner = integer_roots(trim(f[1:]))
        return sorted(set([0] + inner))
    roots = []
    for d in _divisors(abs(f[0])):
        for r in (d, -d):
            if eval_at(f, r) == 0:
                roots.append(r)
    return sorted(set(roots))


def is_irreducible_monic_int(f) -> bool:
    """Exact irreducibility over Q for monic integer f, 1 <= deg(f) <= 4.

    Gauss: a monic integer polynomial factors over Q iff it factors into monic
    integer polynomials, so a rational-root test plus (for quartics) a search
    for conjugate quadratic factors with integer coefficients is complete.
    """
    d = deg(f)
    assert 1 <= d <= 4
    if d == 1:
        return True
    if f[0] == 0:
        return False
    if integer_roots(f):
        return False
    if d in (2, 3):
        return True
    # quartic with no linear factor: look for (x^2+ax+b)(x^2+cx+e)
    c3, c2, c1, c0 = f[3], f[2], f[1], f[0]
    for b in _divisors(abs(c0)):
        for bb in (b, -b):
            e, rem = divmod(c0, bb)
            assert rem == 0
            disc = c3 * c3 - 4 * (c2 - bb - e)
            if disc < 0 or not is_perfect_square(disc):
                continue
            s = math.isqrt(disc)
            for a2 in (c3 + s, c3 - s):
                if a2 % 2:
                    continue
                a = a2 // 2
                c = c3 - a
                if a * e + bb * c == c1:
                    return False
    return True
