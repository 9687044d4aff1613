"""Anti-concentration functions A(y) = inf over the family parameters of
P(|X - mu| >= y * sigma).

Four families have a strictly positive closed form (uniform, exponential,
Gaussian, Student's t); the other nine have A(y) = 0, certified here by
constructing explicit parameters whose standardized tail falls below any
requested epsilon.

The Student's t curve needs its CDF in hypergeometric form,
    F_n(x) = 1/2 + x * G(n) * 2F1(1/2, (n+1)/2; 3/2; -x^2/n),
    G(n) = Gamma((n+1)/2) / (sqrt(n*pi) * Gamma(n/2)),
and a finite cutoff on the degrees-of-freedom scan: past cutoff_dof(y)
the central mass P(|X_n| < y*sqrt(n/(n-2))) is provably decreasing, so
the infimum over all n >= 3 reduces to a maximum over a short range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

from .distributions import (
    FamilyId,
    ParamSet,
    _as_family,
    beta_family,
    binomial,
    gamma_family,
    hypergeometric,
    log_normal,
    neg_binomial,
    pareto,
    poisson,
    tail_probability,
    weibull,
)
from .errors import DomainError, InternalError, SearchError
from .specfun import (
    DEFAULT_SERIES,
    SeriesConfig,
    clamp_probability,
    gauss_2f1,
    log_gamma,
)

__all__ = [
    "Classification",
    "AValue",
    "StudentTDetail",
    "Witness",
    "ANTI_CONCENTRATED_FAMILIES",
    "ZERO_INFIMUM_FAMILIES",
    "STUDENT_T_Y_MAX",
    "classify",
    "a_uniform",
    "a_exponential",
    "a_gaussian",
    "a_student_t",
    "cutoff_ratio",
    "cutoff_dof",
    "student_t_cdf",
    "inner_probability",
    "witness_parameter",
    "witness_ray_description",
]

SQRT3 = math.sqrt(3.0)
#: Upper edge of the proven Student's-t range; a_student_t refuses y past it.
STUDENT_T_Y_MAX = math.sqrt(6.0) / 2.0

class Classification(str, Enum):
    ANTI_CONCENTRATED = "anti-concentrated"
    ZERO_INFIMUM = "zero-infimum"


def classify(family: Union[FamilyId, str]) -> Classification:
    """Whether the family's anti-concentration function is positive or zero."""
    family = _as_family(family)
    if family in ANTI_CONCENTRATED_FAMILIES:
        return Classification.ANTI_CONCENTRATED
    return Classification.ZERO_INFIMUM


@dataclass(frozen=True)
class StudentTDetail:
    """Scan bookkeeping for the Student's t curve (wire keys n0/argmax_n)."""

    n0: int
    argmax_n: int


@dataclass(frozen=True)
class AValue:
    y: float
    value: float
    family: FamilyId
    detail: Optional[StudentTDetail] = None

    def to_json_dict(self) -> dict:
        detail = None
        if self.detail is not None:
            detail = {"n0": self.detail.n0, "argmax_n": self.detail.argmax_n}
        return {"family": self.family.value, "y": self.y, "value": self.value,
                "detail": detail}


@dataclass(frozen=True)
class Witness:
    """Parameters certified to push the standardized tail below epsilon."""

    family: FamilyId
    y: float
    epsilon: float
    params: ParamSet
    achieved_tail: float

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.value,
            "y": self.y,
            "epsilon": self.epsilon,
            "params": self.params.to_json_dict(),
            "achieved_tail": self.achieved_tail,
        }


def _check_y(y: float) -> float:
    if not (isinstance(y, (int, float)) and math.isfinite(y) and y > 0.0):
        raise DomainError(f"y must be a positive real, got {y!r}")
    return float(y)


def a_uniform(y: float) -> AValue:
    """A(y) over uniform laws: 1 - y/sqrt(3) below sqrt(3), then zero."""
    y = _check_y(y)
    value = 0.0 if y >= SQRT3 else 1.0 - y / SQRT3
    return AValue(y=y, value=value, family=FamilyId.UNIFORM)


def a_exponential(y: float) -> AValue:
    """A(y) over exponential laws.

    1 - e^-(1-y) + e^-(1+y) for y < 1, and e^-(1+y) for y >= 1; the rate
    cancels out, so the infimum equals the tail of the unit-rate law.
    """
    y = _check_y(y)
    if y < 1.0:
        value = 1.0 - math.exp(-(1.0 - y)) + math.exp(-(1.0 + y))
    else:
        value = math.exp(-(1.0 + y))
    return AValue(y=y, value=value, family=FamilyId.EXPONENTIAL)


def a_gaussian(y: float) -> AValue:
    """A(y) over Gaussian laws: 2*Phi(-y), identical for every (mu, sigma)."""
    y = _check_y(y)
    value = math.erfc(y / math.sqrt(2.0))
    return AValue(y=y, value=value, family=FamilyId.GAUSSIAN)


def cutoff_ratio(n: int) -> float:
    """The rational sequence (3n^2 - 14n + 16) / (2n^2 - 6n + 3).

    Strictly increasing for n >= 3 with limit 3/2; y^2 below it is the
    condition under which the central-mass sequence starts decreasing.
    """
    nf = float(n)
    return (3.0 * nf * nf - 14.0 * nf + 16.0) / (2.0 * nf * nf - 6.0 * nf + 3.0)


_CUTOFF_SCAN_CAP = 10**6


def cutoff_dof(y: float) -> int:
    """Smallest n >= 3 with y^2 < cutoff_ratio(n); defined for 0 < y < sqrt(6)/2."""
    y = _check_y(y)
    if y >= STUDENT_T_Y_MAX:
        raise DomainError(
            f"cutoff_dof requires y < sqrt(6)/2 = {STUDENT_T_Y_MAX!r}, got {y}")
    y2 = y * y
    n = 3
    while not (y2 < cutoff_ratio(n)):
        n += 1
        if n > _CUTOFF_SCAN_CAP:
            # unreachable for valid y: the sequence increases to 3/2 > y^2
            raise InternalError("cutoff_dof scan exceeded its cap")
    return n


def student_t_cdf(n: int, x: float, config: SeriesConfig = DEFAULT_SERIES) -> float:
    """Student's t CDF with n degrees of freedom, in hypergeometric form.

    Valid for every real x: the 2F1 evaluation routes -x^2/n of any size
    through the Pfaff transformation.  The result is clamped to [0, 1]
    (the formula's rounding can stray an ulp outside near the far tails).
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"student_t_cdf requires an integer n >= 1, got {n!r}")
    if not math.isfinite(x):
        raise DomainError(f"student_t_cdf requires finite x, got {x!r}")
    if x == 0.0:
        return 0.5
    coeff = math.exp(log_gamma((n + 1) / 2.0) - log_gamma(n / 2.0)
                     - 0.5 * math.log(n * math.pi))
    hyp = gauss_2f1(0.5, (n + 1) / 2.0, 1.5, -x * x / n, config)
    return clamp_probability(0.5 + x * coeff * hyp, context="student_t_cdf")


def inner_probability(n: int, y: float, config: SeriesConfig = DEFAULT_SERIES) -> float:
    """Central mass P(|X_n| < y * sqrt(n/(n-2))) for a t variable, n >= 3."""
    if not (isinstance(n, int) and n >= 3):
        raise DomainError(f"inner_probability requires an integer n >= 3, got {n!r}")
    y = _check_y(y)
    x = y * math.sqrt(n / (n - 2.0))
    return clamp_probability(2.0 * student_t_cdf(n, x, config) - 1.0,
                             context="inner_probability")


def a_student_t(y: float, config: SeriesConfig = DEFAULT_SERIES) -> AValue:
    """A(y) over Student's t laws with n >= 3 degrees of freedom.

    Equals 2 - 2 * max over n in {3, ..., cutoff_dof(y) + 1} of
    F_n(y * sqrt(n/(n-2))).  Only proven for 0 < y < sqrt(6)/2; outside
    that range this raises rather than extrapolate.
    """
    y = _check_y(y)
    if y >= STUDENT_T_Y_MAX:
        raise DomainError(
            f"a_student_t is only defined for y < sqrt(6)/2 = {STUDENT_T_Y_MAX!r}; "
            f"got y = {y} (use a numeric grid search for larger y)")
    m = cutoff_dof(y)
    best_cdf = -math.inf
    best_n = -1
    for n in range(3, m + 2):
        fn = student_t_cdf(n, y * math.sqrt(n / (n - 2.0)), config)
        if fn > best_cdf:
            best_cdf, best_n = fn, n
    value = clamp_probability(2.0 - 2.0 * best_cdf, context="a_student_t")
    return AValue(y=y, value=value, family=FamilyId.STUDENT_T,
                  detail=StudentTDetail(n0=m, argmax_n=best_n))


#: A(y) of each family with a positive closed form; the others have A(y) = 0
_CLOSED_FORMS: dict[FamilyId, Callable[..., AValue]] = {
    FamilyId.UNIFORM: a_uniform,
    FamilyId.EXPONENTIAL: a_exponential,
    FamilyId.GAUSSIAN: a_gaussian,
    FamilyId.STUDENT_T: a_student_t,
}

ANTI_CONCENTRATED_FAMILIES = frozenset(_CLOSED_FORMS)

ZERO_INFIMUM_FAMILIES = frozenset(FamilyId) - ANTI_CONCENTRATED_FAMILIES


# --- epsilon-witness construction for the nine zero-infimum families ------

@dataclass(frozen=True)
class _Ray:
    """One-dimensional path to the family's degenerate limit, indexed by
    t > 0 shrinking to 0."""

    build: Callable[[float], ParamSet]
    t_start: float
    description: str


_RAYS: dict[FamilyId, _Ray] = {
    FamilyId.BINOMIAL: _Ray(lambda t: binomial(1, t), 0.5, "n = 1, p -> 0"),
    FamilyId.POISSON: _Ray(lambda t: poisson(t), 0.5, "lambda -> 0"),
    FamilyId.NEG_BINOMIAL: _Ray(lambda t: neg_binomial(1.0, 1.0 - t), 0.5,
                                "r = 1, p -> 1"),
    FamilyId.GAMMA: _Ray(lambda t: gamma_family(t, 1.0), 1.0,
                         "beta = 1, alpha -> 0"),
    FamilyId.PARETO: _Ray(lambda t: pareto(2.0 + t, 1.0), 1.0,
                          "A = 1, r -> 2"),
    FamilyId.WEIBULL: _Ray(lambda t: weibull(t, 1.0), 1.0,
                           "lambda = 1, alpha -> 0"),
    FamilyId.LOG_NORMAL: _Ray(lambda t: log_normal(0.0, 1.0 / t), 1.0,
                              "alpha = 0, sigma -> infinity"),
    FamilyId.BETA: _Ray(lambda t: beta_family(1.0, t), 1.0,
                        "p = 1, q -> 0"),
}

_HYPERGEOM_DESCRIPTION = "M = N - 1, n = 1, N -> infinity"


def witness_ray_description(family: Union[FamilyId, str]) -> str:
    """Human-readable description of the limiting construction used."""
    family = _as_family(family)
    if family is FamilyId.HYPERGEOMETRIC:
        return _HYPERGEOM_DESCRIPTION
    if family in _RAYS:
        return _RAYS[family].description
    raise DomainError(f"{family.value} is anti-concentrated; it has no witness ray")


def _witness_hypergeometric(y: float, epsilon: float, max_steps: int) -> Witness:
    def tail_at(N: int) -> float:
        return tail_probability(hypergeometric(N - 1, N, 1), y).probability

    steps = 0
    N = 2
    tail = tail_at(N)
    while tail > epsilon:
        N *= 2
        steps += 1
        if steps > max_steps:
            raise SearchError(
                f"hypergeometric witness search exceeded {max_steps} doublings")
        tail = tail_at(N)
    if N > 2:
        # smallest N that works: the tail is nonincreasing in N here
        bad, good, good_tail = N // 2, N, tail
        while good - bad > 1:
            steps += 1
            if steps > max_steps:
                raise SearchError(
                    f"hypergeometric witness search exceeded {max_steps} steps")
            mid = (bad + good) // 2
            t_mid = tail_at(mid)
            if t_mid <= epsilon:
                good, good_tail = mid, t_mid
            else:
                bad = mid
        N, tail = good, good_tail
    return Witness(FamilyId.HYPERGEOMETRIC, y, epsilon,
                   hypergeometric(N - 1, N, 1), tail)


def witness_parameter(family: Union[FamilyId, str], y: float, epsilon: float,
                      max_steps: int = 200) -> Witness:
    """Concrete parameters with standardized tail at most epsilon.

    Walks the family's limiting ray geometrically (factor 2 toward the
    degenerate end) until the exact tail drops below epsilon, then
    bisects back toward the boundary so the certificate is not wastefully
    deep; integer families bisect to the exact boundary.  The achieved
    tail always comes from the exact tail engine.
    """
    family = _as_family(family)
    y = _check_y(y)
    if not (isinstance(epsilon, (int, float)) and 0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if family in ANTI_CONCENTRATED_FAMILIES:
        raise DomainError(
            f"{family.value} is anti-concentrated: its tail infimum is positive, "
            "so no epsilon-witness exists")
    if family is FamilyId.HYPERGEOMETRIC:
        return _witness_hypergeometric(y, float(epsilon), max_steps)

    ray = _RAYS[family]

    def tail_at(t: float) -> float:
        return tail_probability(ray.build(t), y).probability

    steps = 0
    t = ray.t_start
    tail = tail_at(t)
    while tail > epsilon:
        t /= 2.0
        steps += 1
        if steps > max_steps:
            raise SearchError(
                f"{family.value} witness search exceeded {max_steps} halvings "
                f"(y={y}, epsilon={epsilon})")
        tail = tail_at(t)
    t_ok, tail_ok = t, tail
    if t_ok < ray.t_start:
        t_bad = 2.0 * t_ok
        while (t_bad - t_ok) > 0.1 * t_ok:
            steps += 1
            if steps > max_steps:
                raise SearchError(
                    f"{family.value} witness bisection exceeded {max_steps} steps")
            mid = 0.5 * (t_ok + t_bad)
            t_mid = tail_at(mid)
            if t_mid <= epsilon:
                t_ok, tail_ok = mid, t_mid
            else:
                t_bad = mid
    return Witness(family, y, float(epsilon), ray.build(t_ok), tail_ok)
