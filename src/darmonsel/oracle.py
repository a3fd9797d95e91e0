"""Brute-force certification of the selectors.

enumerate_admissible walks every subset of the inert real places and of the
inert primes dividing N, every level extension N' in {(1)} union the exact
inert divisors, and keeps the combinations that pass the admissibility
predicates spelled out one by one below. It shares the result type with the
selectors but none of the selection logic, so agreement between the two is
evidence rather than tautology.

Predicates, checked literally per candidate:
  A     every ramified place of B is inert in K
  (vii) the ramification set of B has even cardinality
  (iv)  N = N+ * N' * N- with the three factors pairwise coprime
  (viii) primes of N- inert, primes of N+ split (local embedding criterion)
  B1    exactly one inert real place is left split in B        (gartner)
  B4    the finite ramified primes are all inert divisors of N (gartner)
  C1    every inert real place ramifies in B                   (greenberg)
  C2    N' is one inert prime exactly dividing N               (greenberg)
  C3    finite ramified primes are the other inert divisors    (greenberg)
"""

import itertools

from .errors import SearchSpaceTooLarge
from .fields import IdealFactorization, PrimeIdeal
from .feasibility import SUBSET_BOUND, ConductorProfile, Kind, QuaternionAlgebraSpec
from .quadratic import PlaceType


def _splitting(conductor: IdealFactorization, s_f, n_prime_prime):
    """N+, N', N- for ramified primes s_f and level-extension prime (or None).

    Returns None when the three parts cannot multiply back to N with the
    demanded shapes (predicate (iv) fails structurally)."""
    minus_pairs = [(P, 1) for P in s_f]
    prime_pairs = [(n_prime_prime, 1)] if n_prime_prime is not None else []
    used: dict[PrimeIdeal, int] = {}
    for P, e in minus_pairs + prime_pairs:
        used[P] = used.get(P, 0) + e
    plus_pairs = []
    for P, e in conductor.factors:
        rest = e - used.pop(P, 0)
        if rest < 0:
            return None
        if rest:
            plus_pairs.append((P, rest))
    if used:
        return None  # a ramified or level prime does not divide N at all
    return (IdealFactorization.from_pairs(plus_pairs),
            IdealFactorization.from_pairs(prime_pairs),
            IdealFactorization.from_pairs(minus_pairs))


def enumerate_admissible(profile: ConductorProfile, kind_filter: Kind | None = None,
                         allow_drop_b4: bool = False):
    """All admissible specs by exhaustive subset search.

    Independent of the selectors: every assumption is re-stated here as a
    standalone predicate. Raises SearchSpaceTooLarge past 2^20 subsets.
    """
    inert_reals = tuple(v for v, t in profile.real_classes if t is PlaceType.INERT)
    inert_primes = tuple(P for P, _ in profile.inert_finite)
    exact_inert = tuple(P for P, e in profile.inert_finite if e == 1)
    if len(inert_reals) + len(inert_primes) > SUBSET_BOUND:
        raise SearchSpaceTooLarge(
            f"{len(inert_reals)} inert real places + {len(inert_primes)} "
            f"inert primes exceeds the 2^{SUBSET_BOUND} subset bound")
    type_of = {P: t for P, _, t in profile.finite_classes}

    survivors = []
    real_subsets = [tuple(c) for r in range(len(inert_reals) + 1)
                    for c in itertools.combinations(inert_reals, r)]
    prime_subsets = [tuple(c) for r in range(len(inert_primes) + 1)
                     for c in itertools.combinations(inert_primes, r)]
    level_choices: list[PrimeIdeal | None] = [None] + list(exact_inert)

    for s_inf in real_subsets:
        for s_f in prime_subsets:
            # (vii): even ramification set
            if (len(s_inf) + len(s_f)) % 2:
                continue
            # A: ramified places inert (true by the enumeration domain, but
            # stated as a predicate so the oracle stands on its own)
            if any(type_of[P] is not PlaceType.INERT for P in s_f):
                continue
            for p0 in level_choices:
                split = _splitting(profile.conductor, s_f, p0)
                if split is None:
                    continue
                n_plus, n_prime, n_minus = split
                # (iv): pairwise coprime, product already = N by construction
                if not (n_plus.coprime_to(n_prime) and n_plus.coprime_to(n_minus)
                        and n_prime.coprime_to(n_minus)):
                    continue
                # (viii): local embedding criterion
                if any(type_of[P] is not PlaceType.INERT
                       for P in n_minus.primes()):
                    continue
                if allow_drop_b4:
                    if any(type_of[P] is PlaceType.RAMIFIED
                           for P in n_plus.primes()):
                        continue
                else:
                    if any(type_of[P] is not PlaceType.SPLIT
                           for P in n_plus.primes()):
                        continue
                if p0 is None:
                    # gartner shape. B1: exactly one inert real left split.
                    left_split = [v for v in inert_reals if v not in s_inf]
                    if len(left_split) != 1:
                        continue
                    # B4: all inert divisors ramify (unless widening is on)
                    if not allow_drop_b4 and set(s_f) != set(inert_primes):
                        continue
                    kind, distinguished = Kind.GARTNER, left_split[0]
                else:
                    # greenberg shape. C1: all inert reals ramify.
                    if set(s_inf) != set(inert_reals):
                        continue
                    # C2: p0 exactly divides N, is inert, and is not ramified
                    if profile.conductor.exponent_of(p0) != 1:
                        continue
                    if type_of[p0] is not PlaceType.INERT or p0 in s_f:
                        continue
                    # C3: the other inert divisors all ramify
                    if set(s_f) != set(inert_primes) - {p0}:
                        continue
                    kind, distinguished = Kind.GREENBERG, p0
                if kind_filter is not None and kind is not kind_filter:
                    continue
                survivors.append(QuaternionAlgebraSpec(
                    kind=kind,
                    distinguished=distinguished,
                    ramified_real=tuple(sorted(s_inf, key=lambda v: v.index)),
                    ramified_finite=tuple(sorted(s_f, key=lambda P: P.sort_key)),
                    n_plus=n_plus,
                    n_prime=n_prime,
                    n_minus=n_minus,
                ))
    return tuple(sorted(survivors, key=lambda s: s.sort_key))
