"""Exact univariate polynomial arithmetic over Z and Q.

Little-endian coefficient tuples, same as polymod; no floating point anywhere.
Resultants, and with them discriminants and norms, are Sylvester determinants
by fraction-free Bareiss elimination on ints. The real-root kernel (Sturm
chains of pseudo-remainders, isolation, refinement, signs at a root) runs on
ints: each polynomial is evaluated at dyadic points n/2^k by one homogeneous
Horner evaluator, and refinement takes quadratic interval refinement steps on
the bisection grid, so it returns the very cell bisection would. Fractions
appear only at the interfaces. Irreducibility over Q is Zassenhaus' test on
polymod's factoring and Hensel lifting. Degree is capped at 4 by the callers.
"""

from fractions import Fraction

from .errors import InternalInvariant, PrecisionExhausted
from .intmath import primes_below
from .polymod import deg, factor_squarefree_monic_fp, hensel_lift_pair, trim
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


def reduce_mod_poly(a, f):
    """|lc(f)|^(deg a - deg f + 1) * a mod f over Z, for integer a and nonzero
    f, by pseudo-division with every division checked: a mod f itself for
    monic f, and a positive multiple of it otherwise."""
    scale = abs(f[-1]) ** max(len(a) - len(f) + 1, 0)
    a = [c * scale for c in a]
    while len(a) >= len(f):
        if a[-1] == 0:
            a.pop()
            continue
        coef, r = divmod(a[-1], f[-1])
        if r:
            raise InternalInvariant("inexact pseudo-division")
        shift = len(a) - len(f)
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


def sturm_chain(f):
    """Sturm chain of integer f, deg(f) >= 1: after f', primitive parts of
    negated pseudo-remainders, positive multiples of the negated remainders
    over Q, which leaves every count of sign variations unchanged."""
    chain = [tuple(f), derivative(f)]
    while r := reduce_mod_poly(chain[-2], chain[-1]):
        content = math.gcd(*r)
        chain.append(tuple(-c // content for c in r))
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
    top = max((abs(c) for c in f[:-1]), default=0)
    return 2 - (-top // abs(f[-1]))  # 2 + ceil(top / |lc(f)|)


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
    """Integer h(t), a positive multiple of f(lo + t*(hi - lo)), for
    integer f."""
    q = math.lcm(lo.denominator, hi.denominator)
    start = lo.numerator * (q // lo.denominator)
    span = hi.numerator * (q // hi.denominator) - start
    h = []
    for i, c in enumerate(reversed(f)):
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

def is_irreducible_monic_int(f, disc: int) -> bool:
    """Irreducibility over Q of monic integer f, 1 <= deg(f) <= 4, by
    Zassenhaus (Cohen, GTM 138, Alg. 3.5.7); disc is discriminant(f). A
    monic integer factor g with 2*deg(g) <= deg(f) is, mod the least prime p
    not dividing disc, a product of f's distinct factors mod p, and the
    symmetric residue of its lift mod p^k once p^k exceeds twice the
    Landau-Mignotte bound binomial(m, m//2) * ||f||_2, m = deg(f)//2, on g's
    coefficients (Cohen, Thm. 3.5.1)."""
    d = deg(f)
    if not 1 <= d <= 4 or f[-1] != 1:
        raise InternalInvariant(f"irreducibility needs a monic quartic or less: {f}")
    if d == 1:
        return True
    if disc == 0:
        return False  # a repeated factor
    # the primes below L >= 41 have a product above 2^L (Rosser and Schoenfeld)
    limit = 1 << max(10, (disc.bit_length() + 64).bit_length())
    p = next((q for q in primes_below(limit) if disc % q), None)
    if p is None:
        raise InternalInvariant(f"every prime below {limit} divides {disc}")
    factors = factor_squarefree_monic_fp(f, p)
    if len(factors) == 1:
        return True
    k, pk = 1, p
    while pk * pk <= 4 * math.comb(d // 2, d // 4) ** 2 * sum(c * c for c in f):
        k, pk = k + 1, pk * p
    lifts = {}  # of single factors, as needed: their products lift products
    for mask in range(1, 1 << len(factors)):
        chosen = [i for i in range(len(factors)) if mask >> i & 1]
        size = 2 * sum(deg(factors[i]) for i in chosen)
        # at size == d, either g or f/g holds factors[0]
        if size < d or size == d and mask & 1:
            g = (1,)
            for i in chosen:
                if i not in lifts:
                    lifts[i] = hensel_lift_pair(f, factors[i], p, k)[0]
                g = tuple(c % pk for c in mul(g, lifts[i]))
            if not reduce_mod_poly(f, [c - pk if 2 * c > pk else c for c in g]):
                return False
    return True
