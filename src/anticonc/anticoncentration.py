"""Anti-concentration functions A(y) = inf over the family parameters of
P(|X - mu| >= y * sigma).

Four families have a strictly positive closed form (uniform, exponential,
Gaussian, Student's t); the other nine have A(y) = 0, certified here by
constructing explicit parameters whose standardized tail falls below any
requested epsilon.  Each of the nine has one ray in `_RAYS`, and one
search walks and bisects every ray.

The Student's t curve takes its CDF (hypergeometric form) from
`distributions`, and a finite cutoff on the degrees-of-freedom scan:
past cutoff_dof(y) the central mass P(|X_n| < y*sqrt(n/(n-2))) is
provably decreasing, so the infimum over all n >= 3 reduces to a
maximum over a short range.  The cutoff is the larger root of a
quadratic in n.
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
    student_t_cdf,
    tail_probability,
    weibull,
)
from .errors import DomainError, SearchError
from .specfun import DEFAULT_SERIES, SeriesConfig, clamp_probability

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


def cutoff_dof(y: float) -> int:
    """Smallest n >= 3 with y^2 < cutoff_ratio(n); defined for 0 < y < sqrt(6)/2.

    For n >= 3 the test is (3 - 2y^2) n^2 + (6y^2 - 14) n + (16 - 3y^2) > 0.
    The parabola opens upward (y^2 < 3/2) and its discriminant
    12y^4 - 4y^2 + 4 is positive, so the test holds past its larger root.
    The root is taken in floating point, and the boundary integer is then
    settled with the float test itself, galloping out from the root and
    bisecting.  Near y = sqrt(6)/2 the float ratio stalls on plateaus of
    up to ~1e14 equal values, so stepping one n at a time would not end.
    """
    y = _check_y(y)
    if y >= STUDENT_T_Y_MAX:
        raise DomainError(
            f"cutoff_dof requires y < sqrt(6)/2 = {STUDENT_T_Y_MAX!r}, got {y}")
    y2 = y * y
    a, b, c = 3.0 - 2.0 * y2, 6.0 * y2 - 14.0, 16.0 - 3.0 * y2
    n = max(3, math.floor((-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)) + 1)
    # bracket the boundary: y2 < cutoff_ratio(hi) holds, at lo it fails (or lo = 2)
    lo, hi, step = n - 1, n, 1
    while not (y2 < cutoff_ratio(hi)):
        lo, hi, step = hi, hi + step, 2 * step
    while lo > 2 and y2 < cutoff_ratio(lo):
        lo, hi, step = max(2, lo - step), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if y2 < cutoff_ratio(mid):
            hi = mid
        else:
            lo = mid
    return hi


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


# --- epsilon-witness construction for the nine zero-infimum families ------

def _halve(t: float) -> float:
    return t / 2.0


def _split_float(ok: float, bad: float) -> Optional[float]:
    """Midpoint of the bracket, until it is within 10% of ok."""
    return 0.5 * (ok + bad) if (bad - ok) > 0.1 * ok else None


def _split_int(ok: int, bad: int) -> Optional[int]:
    """Integer midpoint of the bracket, until its ends are adjacent."""
    return (ok + bad) // 2 if ok - bad > 1 else None


@dataclass(frozen=True)
class _Ray:
    """One-dimensional path to the family's degenerate limit.

    From `start`, `step` moves toward the limit, where the tail falls
    (t halves on the float rays, N doubles on the integer one);
    `split(ok, bad)` is the next point to try between a certified point
    and a refused one, or None once the bracket is tight enough.
    """

    build: Callable[..., ParamSet]
    start: Union[float, int]
    description: str
    step: Callable = _halve
    split: Callable = _split_float


# keyed by the family each ray builds
_RAYS: dict[FamilyId, _Ray] = {ray.build(ray.start).family: ray for ray in (
    _Ray(lambda t: binomial(1, t), 0.5, "n = 1, p -> 0"),
    _Ray(lambda t: poisson(t), 0.5, "lambda -> 0"),
    _Ray(lambda t: neg_binomial(1.0, 1.0 - t), 0.5, "r = 1, p -> 1"),
    _Ray(lambda N: hypergeometric(N - 1, N, 1), 2, "M = N - 1, n = 1, N -> infinity",
         step=lambda N: 2 * N, split=_split_int),
    _Ray(lambda t: gamma_family(t, 1.0), 1.0, "beta = 1, alpha -> 0"),
    _Ray(lambda t: pareto(2.0 + t, 1.0), 1.0, "A = 1, r -> 2"),
    _Ray(lambda t: weibull(t, 1.0), 1.0, "lambda = 1, alpha -> 0"),
    _Ray(lambda t: log_normal(0.0, 1.0 / t), 1.0, "alpha = 0, sigma -> infinity"),
    _Ray(lambda t: beta_family(1.0, t), 1.0, "p = 1, q -> 0"),
)}

ZERO_INFIMUM_FAMILIES = frozenset(_RAYS)


def _ray(family: Union[FamilyId, str]) -> _Ray:
    family = _as_family(family)
    if family not in _RAYS:
        raise DomainError(f"family {family.value} is anti-concentrated: its tail "
                          "infimum is positive, so no epsilon-witness exists")
    return _RAYS[family]


def witness_ray_description(family: Union[FamilyId, str]) -> str:
    """Human-readable description of the limiting construction used."""
    return _ray(family).description


def witness_parameter(family: Union[FamilyId, str], y: float, epsilon: float,
                      max_steps: int = 200) -> Witness:
    """Concrete parameters with standardized tail at most epsilon.

    Walks the family's limiting ray (halving t, or doubling N for the
    hypergeometric) until the exact tail drops below epsilon, then
    bisects back toward the boundary so the certificate is not wastefully
    deep; the integer ray bisects to the exact boundary.  Each walk and
    bisection step counts against max_steps.  The achieved tail always
    comes from the exact tail engine.
    """
    family = _as_family(family)
    ray = _ray(family)
    y = _check_y(y)
    if not (isinstance(epsilon, (int, float)) and 0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    epsilon = float(epsilon)

    steps = 0
    t, ok, bad = ray.start, None, None
    while True:
        tail = tail_probability(ray.build(t), y).probability
        if tail <= epsilon:
            ok, ok_tail = t, tail
        else:
            bad = t
        if ok is None:
            t = ray.step(t)  # still walking toward the degenerate end
        else:
            # bisect back toward the boundary; a certified start needs none
            t = None if bad is None else ray.split(ok, bad)
            if t is None:
                return Witness(family, y, epsilon, ray.build(ok), ok_tail)
        steps += 1
        if steps > max_steps:
            raise SearchError(f"{family.value} witness search exceeded {max_steps} steps "
                              f"(y={y}, epsilon={epsilon})")
