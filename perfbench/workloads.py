"""Seeded input generators for the four benchmark workloads.

Every generator returns config documents in the corpus schema
(corpus/golden.json) and nothing else; the engine sees only those documents.
The arithmetic needed to build valid inputs (real roots, factoring the
defining polynomial mod p, quadratic characters) is done here with a few
lines of independent code, so the inputs for a seed never depend on the code
under test.

Records are built in strata (field, precision, inert-prime count) of fixed
sizes, so every seed has the same mix, and interleaved round-robin. Stratum
sizes put the median and the 90th percentile of decision time inside a
stratum rather than on the step between two, where a small change in the
inputs would move them a long way.
"""

import itertools
import math
import random

# The fixed base fields. Z[theta] is the maximal order of each, so every
# integral square root of delta has integer coordinates on the power basis.
FIELDS = {
    "Q": (0, 1),
    "Q(sqrt2)": (-2, 0, 1),
    "cubic49": (-1, -2, 1, 1),
    "quartic": (1, 0, -4, 0, 1),
}
# primes dividing the polynomial discriminant (1, 8, 49, 2304): the engine
# needs explicitly registered prime data there, so conductors avoid them
INDEX_PRIMES = {"Q": (), "Q(sqrt2)": (2,), "cubic49": (7,), "quartic": (2, 3)}
REAL_ROOTS = {
    "Q": (0.0,),
    "Q(sqrt2)": (-math.sqrt(2), math.sqrt(2)),
    "cubic49": tuple(2 * math.cos(2 * math.pi * k / 7) for k in (1, 2, 3)),
    "quartic": tuple(s * math.sqrt(2 + t * math.sqrt(3))
                     for s in (1, -1) for t in (1, -1)),
}
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

WORKLOADS = ("survey", "scan", "widened", "precise")
DEFAULT_SEED = 0

# Records per stratum; one pass of each workload takes 2-8 s on a 2-vCPU
# Xeon VM. survey and precise hold at least 100 records, so at least ten
# lie beyond the 90th percentile. In precise the strata sort by time in the
# order listed (256 bits: 20, 32, 60 ms at degree 2, 3, 4; 1024 bits: 80,
# 170, 350 ms), which puts the median in the degree-4 256-bit stratum and
# the 90th percentile in the degree-3 1024-bit one.
SURVEY_MIX = {"Q": 24, "Q(sqrt2)": 72, "cubic49": 72, "quartic": 72}
PRECISE_MIX = {("Q(sqrt2)", 256): 20, ("cubic49", 256): 20, ("quartic", 256): 28,
               ("Q(sqrt2)", 1024): 16, ("cubic49", 1024): 12, ("quartic", 1024): 4}
WIDENED_MIX = {6: 10, 7: 8, 8: 6, 9: 4, 10: 2, 11: 1}
WIDENED_FIELDS = ("Q(sqrt2)", "cubic49")
WIDENED_POOL = 14
WIDENED_SPLIT = 2
SCAN_EXTENSIONS = (("Q", (2,)), ("Q", (3,)), ("Q", (5,)), ("Q", (7,)),
                   ("Q", (13,)), ("Q(sqrt2)", (0, 1)), ("cubic49", (0, 1)))
SCAN_PER_EXTENSION = 144
SCAN_CHUNK = 8


# ---- small exact helpers, independent of the engine ----

def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _eval_mod(c, x, p):
    acc = 0
    for a in reversed(c):
        acc = (acc * x + a) % p
    return acc


def _divmod_mod(a, g, p):
    """a mod g over F_p for monic g; returns (quotient, remainder)."""
    a = [x % p for x in a]
    q = [0] * max(len(a) - len(g) + 1, 0)
    while len(a) >= len(g):
        coef = a[-1]
        shift = len(a) - len(g)
        q[shift] = coef
        for i, y in enumerate(g):
            a[shift + i] = (a[shift + i] - coef * y) % p
        a.pop()
    return _trim(q), _trim(a)


def _mulmod(a, b, g, p):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _divmod_mod(out, g, p)[1]


def factor_mod(f, p):
    """Monic irreducible factors of f over F_p, for squarefree f of degree
    at most 3, or of degree 4 when p is small enough to search quadratics."""
    f = _trim(x % p for x in f)
    factors = []
    for r in range(p):
        if _eval_mod(f, r, p) == 0:
            lin = ((-r) % p, 1)
            factors.append(lin)
            f = _divmod_mod(f, lin, p)[0]
    if len(f) - 1 == 4:
        for a, b in itertools.product(range(p), repeat=2):
            quo, rem = _divmod_mod(f, (b, a, 1), p)
            if not rem:
                factors.extend([(b, a, 1), quo])
                break
        else:
            factors.append(f)
    elif len(f) - 1 >= 1:
        factors.append(f)
    return sorted(factors, key=lambda g: (len(g), g))


def residue_character(delta, g, p):
    """+1 or -1: whether delta is a square in F_p[x]/(g); 0 if g | delta."""
    a = _divmod_mod(delta, g, p)[1]
    if not a:
        return 0
    e = (p ** (len(g) - 1) - 1) // 2
    acc, base = (1,), a
    while e:
        if e & 1:
            acc = _mulmod(acc, base, g, p)
        base = _mulmod(base, base, g, p)
        e >>= 1
    return 1 if acc == (1,) else -1


def _is_square_in_field(field, delta) -> bool:
    """Exact test, valid because Z[theta] is maximal for every field used:
    a square root would have integer coordinates, which rounding recovers."""
    poly = FIELDS[field]
    roots = REAL_ROOTS[field]
    values = [sum(c * r**i for i, c in enumerate(delta)) for r in roots]
    if any(v < 0 for v in values):
        return False
    d = len(roots)
    sqrt_values = [math.sqrt(v) for v in values]
    for signs in itertools.product((1, -1), repeat=d - 1):
        target = [s * v for s, v in zip((1,) + signs, sqrt_values)]
        coords = [round(c) for c in _solve_vandermonde(roots, target)]
        square = [0] * (2 * d - 1)
        for i, x in enumerate(coords):
            for j, y in enumerate(coords):
                square[i + j] += x * y
        if _reduce_int(square, poly) == _trim(delta):
            return True
    return False


def _solve_vandermonde(roots, values):
    d = len(roots)
    m = [[r**j for j in range(d)] + [v] for r, v in zip(roots, values)]
    for col in range(d):
        piv = max(range(col, d), key=lambda r: abs(m[r][col]))
        m[col], m[piv] = m[piv], m[col]
        for r in range(d):
            if r != col:
                k = m[r][col] / m[col][col]
                m[r] = [x - k * y for x, y in zip(m[r], m[col])]
    return [m[i][d] / m[i][i] for i in range(d)]


def _reduce_int(a, f):
    a = list(a)
    while len(a) >= len(f):
        coef = a[-1]
        shift = len(a) - len(f)
        for i, y in enumerate(f):
            a[shift + i] -= coef * y
        a.pop()
    return _trim(a)


def _primes(limit):
    return [n for n in range(2, limit) if all(n % q for q in range(2, math.isqrt(n) + 1))]


def _prime_doc(p, g, exponent):
    return {"p": p, "local_factor": list(g), "e": 1, "f": len(g) - 1,
            "exponent": exponent}


# ---- documents ----

def _config(rid, field, delta, conductor, **options):
    return {"schema_version": 1, "id": rid, "field_poly": list(FIELDS[field]),
            "delta": list(delta), "conductor": conductor, "options": options}


def _random_delta(rng, field):
    d = len(FIELDS[field]) - 1
    while True:
        delta = [rng.randint(-9, 9) for _ in range(d)]
        if not any(delta):
            continue
        values = [sum(c * r**i for i, c in enumerate(delta))
                  for r in REAL_ROOTS[field]]
        if all(v < 0 for v in values) or _is_square_in_field(field, delta):
            continue
        return delta


def _random_factored_conductor(rng, field):
    chosen = {}
    usable = [p for p in SMALL_PRIMES if p not in INDEX_PRIMES[field]]
    for _ in range(rng.randint(0, 3)):
        p = rng.choice(usable)
        g = rng.choice(factor_mod(FIELDS[field], p))
        chosen.setdefault((p, g), rng.randint(1, 3))
    return {"factors": [_prime_doc(p, g, e) for (p, g), e in sorted(chosen.items())]}


def warmup():
    """The decision every benchmark process makes before it is timed. Its
    field, Q(sqrt3), is in no workload, so it warms the interpreter and the
    engine's lazy prime sieve but no cache keyed on a field or extension."""
    return {"schema_version": 1, "id": "warmup", "field_poly": [-3, 0, 1],
            "delta": [1, 1], "conductor": {"factors": []}, "options": {}}


def _interleave(strata):
    """Round-robin over strata, in the order given."""
    out = []
    for group in itertools.zip_longest(*strata):
        out.extend(x for x in group if x is not None)
    return out


def survey(seed):
    rng = random.Random(f"survey:{seed}")
    strata = []
    for field, count in SURVEY_MIX.items():
        strata.append([(field, _random_delta(rng, field),
                        _random_factored_conductor(rng, field))
                       for _ in range(count)])
    return [_config(f"survey-{k:04d}", field, delta, conductor)
            for k, (field, delta, conductor) in enumerate(_interleave(strata))]


def precise(seed):
    rng = random.Random(f"precise:{seed}")
    strata = []
    for (field, bits), count in PRECISE_MIX.items():
        strata.append([(field, bits, _random_delta(rng, field),
                        _random_factored_conductor(rng, field))
                       for _ in range(count)])
    return [_config(f"precise-{k:04d}", field, delta, conductor,
                    precision_bits=bits)
            for k, (field, bits, delta, conductor)
            in enumerate(_interleave(strata))]


def _classified_primes(field, delta, limit):
    """(inert, split) primes above odd unindexed p < limit, in order of p."""
    inert, split = [], []
    for p in _primes(limit):
        if p == 2 or p in INDEX_PRIMES[field]:
            continue
        for g in factor_mod(FIELDS[field], p):
            chi = residue_character(delta, g, p)
            if chi == -1:
                inert.append((p, g))
            elif chi == 1:
                split.append((p, g))
    return inert, split


def widened(seed):
    """Drop-B4 decisions with k exact inert primes and two split primes.

    delta = theta is negative at 1 of the 2 places of Q(sqrt2) and at 2 of
    the 3 places of the cubic, so every record has an inert real place and
    the selector walks 2^k subsets per inert real place.
    """
    rng = random.Random(f"widened:{seed}")
    pools = {field: _classified_primes(field, (0, 1), 128)
             for field in WIDENED_FIELDS}
    strata = []
    for k, count in WIDENED_MIX.items():
        stratum = []
        for j in range(count):
            field = WIDENED_FIELDS[j % len(WIDENED_FIELDS)]
            inert, split = pools[field]
            # small pools keep the report size, and so the cost, of each
            # stratum nearly the same from seed to seed
            primes = (rng.sample(inert[:WIDENED_POOL], k)
                      + rng.sample(split[:WIDENED_POOL], WIDENED_SPLIT))
            conductor = {"factors": [_prime_doc(p, g, 1)
                                     for p, g in sorted(primes)]}
            stratum.append((field, conductor))
        strata.append(stratum)
    return [_config(f"widened-{n:04d}", field, (0, 1), conductor,
                    allow_drop_b4=True)
            for n, (field, conductor) in enumerate(_interleave(strata))]


def _squarefree_ideals(field, count):
    """The first `count` squarefree ideals in (norm, primes) order, as
    factor lists [(p, g)]."""
    bound = 64
    while True:
        primes = [(p ** (len(g) - 1), p, g)
                  for p in _primes(bound + 1) if p not in INDEX_PRIMES[field]
                  for g in factor_mod(FIELDS[field], p)]
        primes = sorted(x for x in primes if x[0] <= bound)
        ideals = []

        def extend(start, norm, chosen):
            ideals.append((norm, tuple(chosen)))
            for i in range(start, len(primes)):
                n, p, g = primes[i]
                if norm * n > bound:
                    break
                extend(i + 1, norm * n, chosen + [(p, g)])

        extend(0, 1, [])
        if len(ideals) >= count:
            ideals.sort()
            return [factors for _, factors in ideals[:count]]
        bound *= 2


def scan(seed):
    """A seeded half of the squarefree conductors up to a norm bound, per
    fixed extension, in norm order.

    Each extension takes SCAN_PER_EXTENSION of its first 2 * SCAN_PER_EXTENSION
    squarefree conductors, so every seed covers the same norm range. Over Q
    conductors are generators; over larger fields they are factored, since a
    generator of a split prime's norm is ambiguous there. Chunks hold
    consecutive conductors of one extension, and chunk order interleaves the
    extensions.
    """
    rng = random.Random(f"scan:{seed}")
    strata = []
    for field, delta in SCAN_EXTENSIONS:
        ideals = _squarefree_ideals(field, 2 * SCAN_PER_EXTENSION)
        picked = sorted(rng.sample(range(len(ideals)), SCAN_PER_EXTENSION))
        records = []
        for factors in (ideals[i] for i in picked):
            if field == "Q":
                conductor = {"generator": [math.prod(p for p, _ in factors)]}
            else:
                conductor = {"factors": [_prime_doc(p, g, 1) for p, g in factors]}
            records.append((field, delta, conductor))
        strata.append([records[i:i + SCAN_CHUNK]
                       for i in range(0, len(records), SCAN_CHUNK)])
    rng.shuffle(strata)
    docs = []
    for chunk in _interleave(strata):
        docs.append([_config(f"scan-{len(docs) * SCAN_CHUNK + j:04d}", field,
                             delta, conductor, oracle_check=True)
                     for j, (field, delta, conductor) in enumerate(chunk)])
    return docs


def generate(workload, seed):
    """The workload's documents: a list of configs, or for scan a list of
    batch corpora (each a list of configs)."""
    return {"survey": survey, "scan": scan, "widened": widened,
            "precise": precise}[workload](seed)
