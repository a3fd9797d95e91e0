"""Exact univariate polynomial arithmetic over Z and Q.

Little-endian coefficient tuples, same as polymod; no floating point anywhere.
Resultants, and with them discriminants and norms, are Sylvester determinants
by fraction-free Bareiss elimination on ints. The real-root kernel (Sturm
isolation, refinement, signs at a root) runs its loops on ints: each
polynomial is scaled to integer coefficients and evaluated at dyadic points
n/2^k by one homogeneous Horner evaluator, and refinement takes quadratic
interval refinement steps on the bisection grid, so it returns the very cell
bisection would. fractions.Fraction is left in Sturm's polynomial division and
at the interfaces. Degree is capped at 4 by the callers.
"""

from fractions import Fraction

from .errors import InternalInvariant, PrecisionExhausted
from .intmath import factorize, is_perfect_square
from .polymod import deg, trim
import math

# narrowest interval sign_at_root and the square-root reconstruction try
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

def resultant(f, g) -> int:
    """res(f, g) of integer f and g (0 if either is zero): the Sylvester
    determinant by fraction-free Bareiss elimination, every division checked."""
    n, m = deg(f), deg(g)
    if n < 0 or m < 0:
        return 0
    if n == 0 or m == 0:
        return f[0] ** m if n == 0 else g[0] ** n
    size = n + m
    rows = ([[0] * i + list(f[::-1]) + [0] * (m - 1 - i) for i in range(m)]
            + [[0] * i + list(g[::-1]) + [0] * (n - 1 - i) for i in range(n)])
    prev = 1
    for k in range(size - 1):
        if not rows[k][k]:
            swap = next((r for r in range(k + 1, size) if rows[r][k]), None)
            if swap is None:
                return 0
            # a swap with one row negated keeps the determinant
            rows[k], rows[swap] = rows[swap], [-c for c in rows[k]]
        pivot_row = rows[k]
        for row in rows[k + 1:]:
            for j in range(k + 1, size):
                q, r = divmod(row[j] * pivot_row[k] - row[k] * pivot_row[j], prev)
                if r:
                    raise InternalInvariant("inexact Bareiss division")
                row[j] = q
        prev = pivot_row[k]
    return rows[-1][-1]


def discriminant(f) -> int:
    """Discriminant of integer f, deg(f) >= 1: (-1)^(d(d-1)/2) res(f, f')/lc(f)."""
    n = deg(f)
    if n < 1:
        raise InternalInvariant(f"discriminant needs degree >= 1, got {n}")
    d, r = divmod(resultant(f, derivative(f)), f[-1])
    if r:
        raise InternalInvariant("res(f, f') not divisible by lc(f)")
    return -d if (n * (n - 1) // 2) % 2 else d


# ---- real roots, on integer dyadics ----
#
# Every sign the real-root kernel tests comes from _scaled_value: an integer
# polynomial at a dyadic point n/2^k, evaluated exactly on ints. Brackets and
# cells are integer numerators at a level k, so the loops do no Fraction
# arithmetic; Fractions appear only where a cell is handed back.

def _scaled_value(f, n: int, k: int) -> int:
    """2^(k*deg f) * f(n/2^k) for integer f, by homogeneous Horner with shifts
    and multiplies only; it has the sign of f(n/2^k)."""
    acc = 0
    shift = 0
    for c in reversed(f):
        acc = acc * n + (c << shift)
        shift += k
    return acc


def _nonzero_value(f, n: int, k: int, where: str) -> int:
    value = _scaled_value(f, n, k)
    if value == 0:
        raise InternalInvariant(f"rational root hit during {where}")
    return value


def _integral(f):
    """f times the positive lcm of its denominators: integer coefficients and
    the sign of f at every point."""
    scale = math.lcm(*(c.denominator for c in f))
    return tuple(int(c * scale) for c in f)


def sturm_chain(f):
    """Sturm chain of f, each member scaled by a positive factor to integer
    coefficients, which leaves every count of sign variations unchanged."""
    chain = [_integral(f)]
    d = derivative(chain[0])
    if d:
        chain.append(d)
        while True:
            _, r = divmod_exact(chain[-2], chain[-1])
            if not r:
                break
            chain.append(_integral(neg(r)))
    return chain


def _variations(chain, n: int, k: int) -> int:
    signs = [s for s in (_sign(_scaled_value(p, n, k)) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def sturm_count_halfopen(chain, a: int, b: int, k: int) -> int:
    """Number of distinct real roots in (a/2^k, b/2^k] for integers a, b and
    a chain from sturm_chain."""
    return _variations(chain, a, k) - _variations(chain, b, k)


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
    f = chain[0]
    bound = cauchy_bound(f)
    done = []
    # a cell (lo, hi, k) is the interval [lo/2^k, hi/2^k] holding count roots
    stack = [(-bound, bound, 0, sturm_count_halfopen(chain, -bound, bound, 0))]
    while stack:
        lo, hi, k, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            # a single simple root inside forces opposite endpoint signs
            if _sign(_scaled_value(f, lo, k)) * _sign(_scaled_value(f, hi, k)) >= 0:
                raise InternalInvariant("isolating cell without a sign change")
            done.append((Fraction(lo, 1 << k), Fraction(hi, 1 << k)))
            continue
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        _nonzero_value(f, mid, k, "isolation")
        left = sturm_count_halfopen(chain, lo, mid, k)
        stack.append((lo, mid, k, left))
        stack.append((mid, hi, k, count - left))
    return sorted(done)


def _halvings(span: Fraction, width: Fraction) -> int:
    """Least s >= 0 with span / 2^s <= width, for width > 0."""
    if span <= width:
        return 0
    ratio = span / width
    s = max(ratio.numerator.bit_length() - ratio.denominator.bit_length(), 0)
    return s + (ratio.denominator << s < ratio.numerator)


def _on_unit_interval(f, lo: Fraction, hi: Fraction):
    """Integer h(t), a positive multiple of f(lo + t*(hi - lo))."""
    q = math.lcm(lo.denominator, hi.denominator)
    start = lo.numerator * (q // lo.denominator)
    span = hi.numerator * (q // hi.denominator) - start
    h = []
    for i, c in enumerate(reversed(_integral(f))):
        # Horner step h <- h * (start + span*t) + c * q^i
        nxt = [x * start for x in h] + [0]
        for j, x in enumerate(h):
            nxt[j + 1] += x * span
        nxt[0] += c * q**i
        h = nxt
    return tuple(h)


def _locate(h, s: int, a: int = 0, k: int = 0) -> int:
    """Index j of the cell [j/2^s, (j+1)/2^s] that holds the one root of h in
    the cell [a/2^k, (a+1)/2^k] (k <= s), at whose ends h has opposite signs.

    Abbott's quadratic interval refinement (J. Abbott, "Quadratic Interval
    Refinement for Real Roots", 2006) on the dyadic grid: the secant through
    the current cell's ends, rounded to the grid `jump` levels finer, names a
    point m, and the neighbouring cell of m towards the root is accepted only
    when h has opposite nonzero signs at both of its ends. Success doubles
    jump (squares the number of subcells), failure halves it, and a jump of 1
    is a bisection step. Near the root the accepted jumps keep doubling, so
    about log2(s) steps reach level s.
    """
    va, vb = _scaled_value(h, a, k), _scaled_value(h, a + 1, k)
    if va == 0 or vb == 0 or (va > 0) == (vb > 0):
        raise InternalInvariant("refinement needs a sign change on the bracket")
    d = len(h) - 1
    jump = 2
    while k < s:
        step = min(jump, s - k)
        if step == 1:
            a, k = 2 * a, k + 1
            mid = _nonzero_value(h, a + 1, k, "refinement")
            if (mid > 0) == (va > 0):
                a, va, vb = a + 1, mid, vb << d
            else:
                va, vb = va << d, mid
            jump = 2
            continue
        num, den = va << step, va - vb
        if den < 0:
            num, den = -num, -den
        m = (a << step) + (2 * num + den) // (2 * den)
        vm = _nonzero_value(h, m, k + step, "refinement")
        n = m + 1 if (vm > 0) == (va > 0) else m - 1
        vn = _nonzero_value(h, n, k + step, "refinement")
        if (vn > 0) == (vm > 0):
            jump //= 2
            continue
        # h changes sign on the cell between m and n: the root is there
        a, k = min(m, n), k + step
        va, vb = (vm, vn) if m < n else (vn, vm)
        jump *= 2
    return a


def refine_sign_change(f, lo: Fraction, hi: Fraction, width: Fraction):
    """The cell of width <= width that bisecting [lo, hi] ends in.

    [lo, hi] must hold exactly one root of f, a simple one, with f of opposite
    signs at lo and hi (an isolating interval). Bisection halves it s times,
    s the least count with (hi - lo)/2^s <= width, and ends in the cell
    [lo + j*w, lo + (j+1)*w], w = (hi - lo)/2^s, that holds the root; _locate
    finds the same j in about log2(s) certified steps.
    """
    lo, hi, width = Fraction(lo), Fraction(hi), Fraction(width)
    if width <= 0:
        raise InternalInvariant("refinement width must be positive")
    s = _halvings(hi - lo, width)
    j = _locate(_on_unit_interval(f, lo, hi), s)
    w = (hi - lo) / (1 << s)
    return lo + j * w, lo + (j + 1) * w


def _enclosure(g, a: int, k: int):
    """Integers bounding 2^(k*deg g) * g(t) over the cell [a/2^k, (a+1)/2^k],
    by interval Horner."""
    lo = hi = 0
    shift = 0
    for c in reversed(g):
        products = (lo * a, lo * (a + 1), hi * a, hi * (a + 1))
        lo, hi = min(products) + (c << shift), max(products) + (c << shift)
        shift += k
    return lo, hi


def sign_at_root(g, f, lo: Fraction, hi: Fraction):
    """Certified sign of g at the unique root of f in [lo, hi].

    Returns (sign, (lo, hi)) where the returned interval is the bisection cell
    of [lo, hi] whose interval Horner enclosure of g witnessed the sign; the
    cells are refined to levels 0, 2, 4, 8, ... down to MIN_WIDTH. g must be
    nonzero at the root; for g of degree less than deg(f) with f irreducible
    this is automatic. Degenerate intervals (rational root) evaluate exactly.
    """
    if lo == hi:
        s = _sign(eval_at(g, lo))
        if s == 0:
            raise InternalInvariant("g vanishes at the rational root")
        return s, (lo, hi)
    lo, hi = Fraction(lo), Fraction(hi)
    h, gt = _on_unit_interval(f, lo, hi), _on_unit_interval(g, lo, hi)
    floor = _halvings(hi - lo, MIN_WIDTH)
    a = k = 0
    while True:
        elo, ehi = _enclosure(gt, a, k)
        if elo > 0 or ehi < 0:
            w = (hi - lo) / (1 << k)
            return (1 if elo > 0 else -1), (lo + a * w, lo + (a + 1) * w)
        if k == floor:
            raise PrecisionExhausted(f"sign of {g} not separated from 0 at "
                                     f"interval width {(hi - lo) / (1 << k)}")
        level = min(max(2 * k, 2), floor)
        a, k = _locate(h, level, a, k), level


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
