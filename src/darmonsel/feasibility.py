"""Admissible quaternion data for the two point constructions.

Given K = F(sqrt(delta)) and a conductor ideal N, classify every place, take
the functional-equation sign from the parity count, and enumerate the
quaternion algebras B (by ramification set) plus Eichler level splittings
N = N+ * N' * N- that make one of the two constructions applicable:

  gartner:   one distinguished inert real place stays split in B (r_K = 1),
             every other inert real place and every inert prime dividing N
             ramifies in B; N' = (1).
  greenberg: every inert real place ramifies in B (r_K = 0); one inert prime
             exactly dividing N is the level extension N'; the remaining inert
             primes dividing N ramify in B.

Infeasibility is data, not an error: selectors return empty lists and the
report records structured reasons. Every structural check is evaluated here
once and recorded as a Check; the failure reasons, the human trace and the
machine report all read that one log.
"""

import itertools
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import DiscNotCoprime, InternalInvariant, SearchSpaceTooLarge
from .fields import (DEFAULT_PRECISION, IdealFactorization, PrimeIdeal,
                     RealPlace, real_embeddings)
from .quadratic import PlaceType, QuadraticExtension, classify_conductor
from .record import Record, set_field


class Kind(Enum):
    GARTNER = "gartner"
    GREENBERG = "greenberg"


class ReasonCode(Enum):
    NO_INERT_REAL_PLACE = "NoInertRealPlace"
    NO_EXACT_INERT_PRIME = "NoExactInertPrime"
    INERT_PART_NOT_SQUAREFREE = "InertPartNotSquarefree"
    SIGN_PLUS_ONE = "SignPlusOne"
    DISC_NOT_COPRIME = "DiscNotCoprime"
    PARITY_OBSTRUCTION = "ParityObstruction"


class Reason(Record):
    def __init__(self, code: ReasonCode, detail: str = ""):
        set_field(self, "code", code)
        set_field(self, "detail", detail)
        set_field(self, "_key", (code, detail))


class Check(Record):
    """One evaluated structural check.

    label names the assumption (B1, B3, B4, C1..C4, A, (iv), (vii), (viii)).
    subject is what it was evaluated on: a construction ("gartner"), one of
    its candidates ("gartner tau_1", "greenberg (2)"), or an emitted spec by
    kind and position ("greenberg[0]"). A failing check of a label in
    REASON_OF_LABEL carries the failure reason's text as its detail.
    """

    def __init__(self, label: str, subject: str, ok: bool, detail: str):
        set_field(self, "label", label)
        set_field(self, "subject", subject)
        set_field(self, "ok", ok)
        set_field(self, "detail", detail)
        set_field(self, "_key", (label, subject, ok, detail))


# log2 of the most subsets a search may walk: the widened (drop-B4) selector
# and the oracle both refuse beyond it
SUBSET_BOUND = 20

REASON_OF_LABEL = {
    "B1": ReasonCode.NO_INERT_REAL_PLACE,
    "B4": ReasonCode.INERT_PART_NOT_SQUAREFREE,
    "C2": ReasonCode.NO_EXACT_INERT_PRIME,
    "C3": ReasonCode.INERT_PART_NOT_SQUAREFREE,
    "(vii)": ReasonCode.PARITY_OBSTRUCTION,
}


class ConductorProfile(Record):
    """Everything the selectors need, classified once."""

    def __init__(self, extension: QuadraticExtension, conductor: IdealFactorization,
                 real_classes: tuple[tuple[RealPlace, PlaceType], ...],
                 finite_classes: tuple[tuple[PrimeIdeal, int, PlaceType], ...]):
        set_field(self, "extension", extension)
        set_field(self, "conductor", conductor)
        set_field(self, "real_classes", real_classes)
        set_field(self, "finite_classes", finite_classes)
        set_field(self, "_key",
                  (extension, conductor, real_classes, finite_classes))

    @cached_property
    def inert_real_places(self) -> tuple[RealPlace, ...]:
        return tuple(v for v, t in self.real_classes if t is PlaceType.INERT)

    @cached_property
    def inert_real_count(self) -> int:
        return len(self.inert_real_places)

    @cached_property
    def inert_finite(self) -> tuple[tuple[PrimeIdeal, int], ...]:
        return tuple((P, e) for P, e, t in self.finite_classes if t is PlaceType.INERT)

    @cached_property
    def inert_part_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.inert_finite)

    @cached_property
    def disc_coprime(self) -> bool:
        return all(t is not PlaceType.RAMIFIED for _, _, t in self.finite_classes)


class QuaternionAlgebraSpec(Record):
    """One admissible quaternion algebra plus Eichler level splitting.

    ramified_real and ramified_finite are the ramification set of B (always an
    even number of places in total, all inert in K). distinguished is the
    split-in-B inert real place (gartner) or the level-extension prime
    (greenberg).
    """

    def __init__(self, kind: Kind, distinguished: RealPlace | PrimeIdeal,
                 ramified_real: tuple[RealPlace, ...],
                 ramified_finite: tuple[PrimeIdeal, ...],
                 n_plus: IdealFactorization, n_prime: IdealFactorization,
                 n_minus: IdealFactorization):
        if kind is Kind.GARTNER:
            shape = (isinstance(distinguished, RealPlace) and n_prime.is_unit
                     and distinguished not in ramified_real)
        else:
            shape = (isinstance(distinguished, PrimeIdeal)
                     and n_prime.factors == ((distinguished, 1),))
        if not (shape and (len(ramified_real) + len(ramified_finite)) % 2 == 0
                and ramified_real == tuple(sorted(ramified_real, key=lambda v: v.index))
                and ramified_finite == tuple(sorted(ramified_finite,
                                                    key=lambda P: P.sort_key))
                and n_minus.all_exponents_one()
                and n_minus.primes() == ramified_finite):
            raise InternalInvariant(f"malformed {kind.value} spec: N- = {n_minus}, "
                                    f"ramified primes {ramified_finite}")
        set_field(self, "kind", kind)
        set_field(self, "distinguished", distinguished)
        set_field(self, "ramified_real", ramified_real)
        set_field(self, "ramified_finite", ramified_finite)
        set_field(self, "n_plus", n_plus)
        set_field(self, "n_prime", n_prime)
        set_field(self, "n_minus", n_minus)
        set_field(self, "_key", (kind, distinguished, ramified_real,
                                 ramified_finite, n_plus, n_prime, n_minus))

    @property
    def sort_key(self):
        dkey = ((0, self.distinguished.index) if isinstance(self.distinguished, RealPlace)
                else (1,) + self.distinguished.sort_key)
        return (self.kind.value, dkey,
                tuple(v.index for v in self.ramified_real),
                tuple(P.sort_key for P in self.ramified_finite))


class FeasibilityReport(Record):
    def __init__(self, profile: ConductorProfile, sign: int,
                 gartner_options: tuple[QuaternionAlgebraSpec, ...],
                 greenberg_options: tuple[QuaternionAlgebraSpec, ...],
                 checks: tuple[Check, ...], theorem1_consistent: bool,
                 order_conductor: IdealFactorization | None = None,
                 assumed: tuple[str, ...] = ("B2",)):
        set_field(self, "profile", profile)
        set_field(self, "sign", sign)
        set_field(self, "gartner_options", gartner_options)
        set_field(self, "greenberg_options", greenberg_options)
        set_field(self, "checks", checks)
        set_field(self, "theorem1_consistent", theorem1_consistent)
        set_field(self, "order_conductor", order_conductor)
        set_field(self, "assumed", assumed)
        set_field(self, "_key", (profile, sign, gartner_options, greenberg_options,
                                 checks, theorem1_consistent, order_conductor,
                                 assumed))

    @property
    def feasible(self) -> bool:
        return bool(self.gartner_options or self.greenberg_options)

    @property
    def both_feasible(self) -> bool:
        return bool(self.gartner_options) and bool(self.greenberg_options)

    @cached_property
    def failure_reasons(self) -> tuple[Reason, ...]:
        """The reasons of the failing checks, after the report-level ones
        (ramified primes in N, sign +1) and before the squarefree fallback
        and the order-conductor clash; duplicates dropped, first kept."""
        prof = self.profile
        reasons: list[Reason] = []
        ramified = [str(P) for P, _, t in prof.finite_classes
                    if t is PlaceType.RAMIFIED]
        if ramified:
            reasons.append(Reason(
                ReasonCode.DISC_NOT_COPRIME,
                "conductor meets the relative discriminant at " + ", ".join(ramified)))
        if self.sign == 1:
            reasons.append(Reason(ReasonCode.SIGN_PLUS_ONE,
                                  "functional-equation sign is +1"))
        reasons.extend(Reason(REASON_OF_LABEL[c.label], c.detail)
                       for c in self.checks
                       if not c.ok and c.label in REASON_OF_LABEL)
        if not prof.inert_part_squarefree and not any(
                r.code is ReasonCode.INERT_PART_NOT_SQUAREFREE for r in reasons):
            reasons.append(Reason(ReasonCode.INERT_PART_NOT_SQUAREFREE,
                                  "an inert prime divides N with exponent >= 2"))
        order = self.order_conductor
        if order is not None and not order.coprime_to(prof.conductor):
            shared = [str(P) for P in order.primes()
                      if prof.conductor.exponent_of(P) > 0]
            reasons.append(Reason(
                ReasonCode.DISC_NOT_COPRIME,
                "order conductor shares " + ", ".join(shared) + " with N"))
        return tuple(dict.fromkeys(reasons))


def build_profile(K: QuadraticExtension, N: IdealFactorization,
                  strict: bool = True,
                  precision: Fraction = DEFAULT_PRECISION) -> ConductorProfile:
    """Classify every real place and every prime of N.

    strict (the default) raises DiscNotCoprime as soon as a prime of N
    ramifies in K; strict=False records the ramification in the profile
    instead, for report assembly. precision bounds the reported root
    interval widths; the classes read the extension's signs of delta.
    """
    real_classes = tuple(
        (v, PlaceType.SPLIT if s > 0 else PlaceType.INERT)
        for v, s in zip(real_embeddings(K.base, precision), K.real_signs))
    finite_classes = classify_conductor(K, N)
    ramified = [P for P, _, t in finite_classes if t is PlaceType.RAMIFIED]
    if ramified and strict:
        raise DiscNotCoprime(
            "conductor meets the relative discriminant at "
            + ", ".join(str(P) for P in ramified))
    return ConductorProfile(extension=K, conductor=N, real_classes=real_classes,
                            finite_classes=finite_classes)


def sign_functional_equation(profile: ConductorProfile) -> int:
    """(-1) to the number of inert real places plus inert primes dividing N."""
    return -1 if (profile.inert_real_count + len(profile.inert_finite)) % 2 else 1


def check_optimal_embedding_local(spec: QuaternionAlgebraSpec,
                                  profile: ConductorProfile,
                                  allow_drop_b4: bool = False) -> bool:
    """Local optimal-embedding criterion for O_K into the Eichler order:
    every prime dividing N- must be inert in K, every prime dividing N+
    split. In widened mode (allow_drop_b4) N+ may also hold inert primes,
    never ramified ones. Selectors enforce this as a post-filter, never by
    assumption."""
    types = {P: t for P, _, t in profile.finite_classes}
    plus = ((PlaceType.SPLIT, PlaceType.INERT) if allow_drop_b4
            else (PlaceType.SPLIT,))
    return (all(types.get(P) is PlaceType.INERT for P in spec.n_minus.primes())
            and all(types.get(P) in plus for P in spec.n_plus.primes()))


def _check(log: dict, label: str, subject: str, ok: bool, detail: str) -> bool:
    # the log is an insertion-ordered set, so a check repeated on many
    # subsets of one candidate is recorded once
    log[Check(label, subject, ok, detail)] = None
    return ok


def _parity(log: dict, subject: str, candidate: str, real: int, finite: int) -> bool:
    total = real + finite
    return _check(log, "(vii)", subject, total % 2 == 0,
                  f"|ramified| = {real} + {finite} = {total}, even" if total % 2 == 0
                  else f"candidate with {candidate} needs {real} + {finite} "
                       "ramified places, odd")


def select_gartner(profile: ConductorProfile,
                   allow_drop_b4: bool = False) -> tuple[QuaternionAlgebraSpec, ...]:
    """Admissible specs for the construction with one split inert real place.

    Every inert prime dividing N must ramify in B, so N must be squarefree at
    the inert primes and N' = (1). With allow_drop_b4 the inert primes may
    instead be left split in B (subject to parity), which moves them into N+;
    that walks every subset of the exact inert primes and raises
    SearchSpaceTooLarge past 2^SUBSET_BOUND of them.
    Infeasibility is the empty tuple; the report records the reasons.
    """
    return _select_gartner(profile, allow_drop_b4, {})


def _select_gartner(profile: ConductorProfile, allow_drop_b4: bool, log: dict):
    inert_reals = profile.inert_real_places
    if not inert_reals:
        _check(log, "B1", "gartner", False, "no real place of F is inert in K")
        return ()
    inert_primes = tuple(P for P, _ in profile.inert_finite)
    exact_primes = tuple(P for P, e in profile.inert_finite if e == 1)
    if allow_drop_b4 and len(exact_primes) > SUBSET_BOUND:
        raise SearchSpaceTooLarge(
            f"{len(exact_primes)} exact inert primes exceed the "
            f"2^{SUBSET_BOUND} subset bound of the widened selector")
    specs = []
    for tau in inert_reals:
        subject = f"gartner tau_{tau.index}"
        _check(log, "B1", subject, True,
               f"tau_{tau.index} inert in K, split in B; r_K = 1")
        ram_real = tuple(v for v in inert_reals if v != tau)
        if allow_drop_b4:
            pool, sizes = exact_primes, range(len(exact_primes) + 1)
        else:
            squarefree = profile.inert_part_squarefree
            if not _check(log, "B4", subject, squarefree,
                          "every inert prime of N ramifies in B" if squarefree
                          else "an inert prime divides N with exponent >= 2, so it "
                               "cannot ramify in B with N- squarefree"):
                continue
            pool, sizes = inert_primes, (len(inert_primes),)
        for size in sizes:
            # parity depends on the subset size alone; widened mode records
            # only the odd sizes, since every even one shows up in its specs
            even = (len(ram_real) + size) % 2 == 0
            if not (even and allow_drop_b4) and not _parity(
                    log, subject, f"distinguished {tau}", len(ram_real), size):
                continue
            for ram_fin in itertools.combinations(pool, size):
                n_minus = IdealFactorization.from_pairs((P, 1) for P in ram_fin)
                spec = QuaternionAlgebraSpec(
                    kind=Kind.GARTNER,
                    distinguished=tau,
                    ramified_real=ram_real,
                    ramified_finite=ram_fin,
                    n_plus=profile.conductor.div_exact(n_minus),
                    n_prime=IdealFactorization.unit(),
                    n_minus=n_minus,
                )
                if check_optimal_embedding_local(spec, profile, allow_drop_b4):
                    specs.append(spec)
                else:
                    _check(log, "(viii)", subject, False,
                           "a prime of N+ is " + ("ramified" if allow_drop_b4
                                                  else "not split") + " in K")
    return tuple(sorted(specs, key=lambda s: s.sort_key))


def select_greenberg(profile: ConductorProfile) -> tuple[QuaternionAlgebraSpec, ...]:
    """Admissible specs for the construction with no split inert real place:
    one inert prime exactly dividing N carries the level extension N'.
    Infeasibility is the empty tuple; the report records the reasons."""
    return _select_greenberg(profile, {})


def _select_greenberg(profile: ConductorProfile, log: dict):
    exact = [P for P, e in profile.inert_finite if e == 1]
    if not exact:
        _check(log, "C2", "greenberg", False,
               "no inert prime divides N with exponent exactly 1")
        return ()
    inert_reals = profile.inert_real_places
    specs = []
    for p0 in exact:
        subject = f"greenberg {p0}"
        _check(log, "C2", subject, True, "inert in K, exactly divides N")
        others = tuple((P, e) for P, e in profile.inert_finite if P != p0)
        squarefree = all(e == 1 for _, e in others)
        if not _check(log, "C3", subject, squarefree,
                      "remaining inert primes each have exponent 1" if squarefree
                      else f"with N' = {p0} some remaining inert prime has "
                           "exponent >= 2"):
            continue
        reals = ", ".join(f"tau_{v.index}" for v in inert_reals)
        _check(log, "C1", subject, True,
               f"ramified reals = all inert real places {{{reals}}}; r_K = 0")
        ram_fin = tuple(P for P, _ in others)
        if not _parity(log, subject, f"N' = {p0}", len(inert_reals), len(ram_fin)):
            continue
        n_prime = IdealFactorization.from_pairs([(p0, 1)])
        n_minus = IdealFactorization.from_pairs((P, 1) for P in ram_fin)
        spec = QuaternionAlgebraSpec(
            kind=Kind.GREENBERG,
            distinguished=p0,
            ramified_real=inert_reals,
            ramified_finite=ram_fin,
            n_plus=profile.conductor.div_exact(n_minus.mul(n_prime)),
            n_prime=n_prime,
            n_minus=n_minus,
        )
        if check_optimal_embedding_local(spec, profile):
            specs.append(spec)
        else:
            _check(log, "(viii)", subject, False, "a prime of N+ is not split in K")
    return tuple(sorted(specs, key=lambda s: s.sort_key))


def validate_spec(spec: QuaternionAlgebraSpec, profile: ConductorProfile,
                  allow_drop_b4: bool = False,
                  position: int = 0) -> tuple[Check, ...]:
    """Evaluate every structural requirement of an emitted spec: A, (iv),
    (viii) and B3/C4, plus the B4 waiver in widened mode. Returns the checks,
    whose subject names the spec by kind and position; raises
    InternalInvariant if any fails."""
    subject = f"{spec.kind.value}[{position}]"
    inert_reals = set(profile.inert_real_places)
    inert_primes = {P for P, _ in profile.inert_finite}
    # the algebra exists (even ramification set) and K embeds in it
    a_ok = ((len(spec.ramified_real) + len(spec.ramified_finite)) % 2 == 0
            and inert_reals.issuperset(spec.ramified_real)
            and inert_primes.issuperset(spec.ramified_finite))
    # Eichler level: N = N+ N' N- pairwise coprime, N- = disc(B) squarefree
    iv_ok = (spec.n_plus.mul(spec.n_prime).mul(spec.n_minus) == profile.conductor
             and spec.n_plus.coprime_to(spec.n_prime)
             and spec.n_plus.coprime_to(spec.n_minus)
             and spec.n_prime.coprime_to(spec.n_minus)
             and spec.n_minus.all_exponents_one()
             and spec.n_minus.primes() == spec.ramified_finite)
    viii_ok = check_optimal_embedding_local(spec, profile, allow_drop_b4)
    d = spec.distinguished
    if spec.kind is Kind.GARTNER:
        shape = (isinstance(d, RealPlace) and d in inert_reals
                 and set(spec.ramified_real) == inert_reals - {d}
                 and spec.n_prime.is_unit
                 and (allow_drop_b4 or set(spec.ramified_finite) == inert_primes))
    else:
        shape = (isinstance(d, PrimeIdeal) and d in inert_primes
                 and spec.n_prime.factors == ((d, 1),)
                 and profile.conductor.exponent_of(d) == 1
                 and set(spec.ramified_real) == inert_reals
                 and set(spec.ramified_finite) == inert_primes - {d})
    checks = []
    if allow_drop_b4 and spec.kind is Kind.GARTNER:
        checks.append(Check("B4", subject, True, "dropped"))
    checks += [
        Check("A", subject, a_ok, "even, all inert in K"),
        Check("(iv)", subject, iv_ok, "N = N+ N' N-, coprime"),
        Check("(viii)", subject, viii_ok,
              "N- inert, N+ " + ("unramified" if allow_drop_b4 else "split")),
        Check("B3" if spec.kind is Kind.GARTNER else "C4", subject,
              shape and a_ok and viii_ok, "optimal embedding"),
    ]
    failed = [c.label for c in checks if not c.ok]
    if failed:
        raise InternalInvariant(f"{subject} fails {', '.join(failed)}")
    return tuple(checks)


def feasibility_report(K: QuadraticExtension, N: IdealFactorization, *,
                       order_conductor: IdealFactorization | None = None,
                       allow_drop_b4: bool = False,
                       precision: Fraction = DEFAULT_PRECISION) -> FeasibilityReport:
    """Full decision: profile, sign, both selectors, the check log and the
    consistency flag.

    Never raises on infeasible input; obstructions land in failure_reasons.
    """
    profile = build_profile(K, N, strict=False, precision=precision)
    sign = sign_functional_equation(profile)
    log: dict[Check, None] = {}
    gartner = _select_gartner(profile, allow_drop_b4, log)
    greenberg = _select_greenberg(profile, log)
    checks = list(log)
    for specs in (gartner, greenberg):
        for position, spec in enumerate(specs):
            checks.extend(validate_spec(spec, profile, allow_drop_b4, position))
    options = gartner + greenberg
    consistent = ((not options or sign == -1)
                  and (not (sign == -1 and profile.inert_part_squarefree
                            and profile.disc_coprime) or bool(options)))
    return FeasibilityReport(
        profile=profile,
        sign=sign,
        gartner_options=gartner,
        greenberg_options=greenberg,
        checks=tuple(checks),
        theorem1_consistent=consistent,
        order_conductor=order_conductor,
    )
