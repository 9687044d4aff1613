"""Anti-concentration functions A(y) = inf over the family parameters of
P(|X - mu| >= y * sigma).

Four families have a strictly positive closed form (uniform, exponential,
Gaussian, Student's t); the other nine have A(y) = 0, certified here by
constructing explicit parameters whose standardized tail falls below any
requested epsilon.  Which verdict a family gets follows from its
`Family` record: each of the nine carries its witness ray there, and one
search walks every ray in log t and interpolates back to its boundary.
`_CLOSED_FORMS` holds the A(y) of the other four.

The Student's t curve takes its CDF (hypergeometric form) from
`distributions`, and a finite cutoff on the degrees-of-freedom scan:
past cutoff_dof(y) the central mass P(|X_n| < y*sqrt(n/(n-2))) is
provably decreasing, so the infimum over all n >= 3 reduces to a
maximum over a short range.  The cutoff is the first integer past the
larger root of a quadratic in n, found with exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

from .distributions import (
    FamilyId,
    ParamSet,
    _FAMILIES,
    _Ray,
    _as_family,
    _check_dof,
    _check_y,
    _is_number,
    student_t_cdf,
    tail_probability,
)
from .errors import DomainError, SearchError
from .specfun import clamp_probability

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

#: Upper edge of the proven Student's-t range; a_student_t refuses y past it.
STUDENT_T_Y_MAX = math.sqrt(6.0) / 2.0

class Classification(str, Enum):
    ANTI_CONCENTRATED = "anti-concentrated"
    ZERO_INFIMUM = "zero-infimum"


def classify(family: Union[FamilyId, str]) -> Classification:
    """Whether the family's anti-concentration function is positive or zero."""
    if _FAMILIES[_as_family(family)].ray is None:
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


def _scale_free_tail(family: FamilyId, y: float) -> AValue:
    """A(y) of a family whose standardized tail no parameter moves: that tail."""
    y = _check_y(y)
    return AValue(y=y, value=_FAMILIES[family].std_tail(y), family=family)


def a_uniform(y: float) -> AValue:
    """A(y) over uniform laws: 1 - y/sqrt(3) below sqrt(3), then zero."""
    return _scale_free_tail(FamilyId.UNIFORM, y)


def a_exponential(y: float) -> AValue:
    """A(y) over exponential laws.

    1 - e^-(1-y) + e^-(1+y) for y < 1, and e^-(1+y) for y >= 1; the rate
    cancels out, so the infimum equals the tail of the unit-rate law.
    """
    return _scale_free_tail(FamilyId.EXPONENTIAL, y)


def a_gaussian(y: float) -> AValue:
    """A(y) over Gaussian laws: 2*Phi(-y), identical for every (mu, sigma)."""
    return _scale_free_tail(FamilyId.GAUSSIAN, y)


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
    A double y has y^2 = m/d exactly, with integers m and d; d times the
    quadratic has integer coefficients, so root and test are exact.
    """
    y = _check_y(y)
    if y >= STUDENT_T_Y_MAX:
        raise DomainError(
            f"cutoff_dof requires y < sqrt(6)/2 = {STUDENT_T_Y_MAX!r}, got {y} "
            "(use a numeric grid search for larger y)")
    p, q = y.as_integer_ratio()
    m, d = p * p, q * q
    a, b, c = 3 * d - 2 * m, 6 * m - 14 * d, 16 * d - 3 * m
    # isqrt is below the root of the discriminant by less than 1 and a >= 1, so
    # n starts below the larger root by less than 3/2: at most two steps remain
    n = max(3, (-b + math.isqrt(b * b - 4 * a * c)) // (2 * a))
    while a * n * n + b * n + c <= 0:
        n += 1
    return n


def inner_probability(n: int, y: float) -> float:
    """Central mass P(|X_n| < y * sqrt(n/(n-2))) for a t variable, n >= 3."""
    n = _check_dof(n, 3)
    y = _check_y(y)
    x = y * math.sqrt(n / (n - 2.0))
    return clamp_probability(2.0 * student_t_cdf(n, x) - 1.0,
                             context="inner_probability")


def a_student_t(y: float) -> AValue:
    """A(y) over Student's t laws with n >= 3 degrees of freedom.

    Equals 2 - 2 * max over n in {3, ..., cutoff_dof(y) + 1} of
    F_n(y * sqrt(n/(n-2))).  Only proven for 0 < y < sqrt(6)/2; outside
    that range cutoff_dof raises rather than extrapolate.
    """
    m = cutoff_dof(y)
    y = float(y)
    best_cdf = -math.inf
    best_n = -1
    for n in range(3, m + 2):
        fn = student_t_cdf(n, y * math.sqrt(n / (n - 2.0)))
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

ANTI_CONCENTRATED_FAMILIES = frozenset(f for f, law in _FAMILIES.items() if law.ray is None)
ZERO_INFIMUM_FAMILIES = frozenset(f for f, law in _FAMILIES.items() if law.ray is not None)


# --- epsilon-witness construction for the nine zero-infimum families ------

def _ray(family: Union[FamilyId, str]) -> _Ray:
    family = _as_family(family)
    ray = _FAMILIES[family].ray
    if ray is None:
        raise DomainError(f"family {family.value} is anti-concentrated: its tail "
                          "infimum is positive, so no epsilon-witness exists")
    return ray


def witness_ray_description(family: Union[FamilyId, str]) -> str:
    """Human-readable description of the limiting construction used."""
    return _ray(family).description


# walk and interpolation steps a witness search may take before it gives up
_MAX_WITNESS_STEPS = 200

# the longest walk step in u = log t: a factor of 2^16
_MAX_STRIDE = 16.0 * math.log(2.0)

# a float ray certifies a computed tail at most epsilon / 1.05, so that the
# rounding of a tail near its floor (1 - inner keeps half an ulp of 1) cannot
# pass a point whose true tail is above epsilon
_FLOAT_MARGIN = 1.05

# a float ray's search starts this far inside its lead, so that a lead a
# little short of the boundary still certifies
_LEAD_PULL = 0.98


def _log_log(p: float) -> float:
    """log(-log p): +inf at p = 0, -inf at p = 1."""
    if p <= 0.0:
        return math.inf
    return -math.inf if p >= 1.0 else math.log(-math.log(p))


def _u(t: Union[float, int]) -> float:
    """Where t lies on its ray, falling toward the limit: log t, or -log N."""
    return -math.log(t) if isinstance(t, int) else math.log(t)


def _step(t: Union[float, int]) -> Union[float, int]:
    """The next walk point toward the limit: t halved, or N doubled."""
    return 2 * t if isinstance(t, int) else t / 2.0


def _tight(ok: Union[float, int], bad: Union[float, int]) -> bool:
    """Whether a certified and a refused point bracket the boundary closely
    enough: adjacent integers, or doubles within 10% or adjacent."""
    if isinstance(ok, int):
        return ok - bad <= 1
    return bad - ok <= 0.1 * ok or math.nextafter(ok, bad) == bad


def _moved(t: Union[float, int], du: float) -> Union[float, int]:
    """The ray point du away from t in u, rounded exactly on the integer ray."""
    if not isinstance(t, int):
        return t * math.exp(du)
    num, den = math.exp(-du).as_integer_ratio()
    return (t * num + den // 2) // den


def _search(aim: float, t: Union[float, int],
            tail_at: Callable) -> tuple[Union[float, int], float]:
    """A certified ray point and its tail, from the first point t on: a
    certified t is returned at once, and a refused one walks toward the
    limit until a point certifies, after which the Illinois rule narrows
    the bracket until `_tight` holds (see witness_parameter)."""
    tail = tail_at(t)
    if tail <= aim:
        return t, tail
    # walk until a point certifies; every later point lies past t
    last = None  # (u, log tail) of the refused point before
    while tail > aim:
        u, log_tail = _u(t), math.log(tail)
        bad, bad_tail, t = t, tail, _step(t)
        if last is not None and log_tail < last[1]:
            du = (math.log(aim) - log_tail) * (u - last[0]) / (log_tail - last[1])
            du = max(du, -_MAX_STRIDE)
            if u + du < _u(t):
                t = _moved(bad, du)
        last = (u, log_tail)
        tail = tail_at(t)

    # Illinois rule between the certified and the refused end: an end kept
    # twice in a row has its gap halved
    ok, ok_tail = t, tail
    g_ok, g_bad = _log_log(ok_tail) - _log_log(aim), _log_log(bad_tail) - _log_log(aim)
    last_ok = True
    while not _tight(ok, bad):
        u_ok, u_bad = _u(ok), _u(bad)
        if math.isfinite(g_ok) and math.isfinite(g_bad):
            t = _moved(ok, (u_bad - u_ok) * g_ok / (g_ok - g_bad))
        else:
            t = _moved(ok, 0.5 * (u_bad - u_ok))
        if isinstance(t, int):
            t = min(max(t, bad + 1), ok - 1)
        elif not ok < t < bad:
            t = _moved(ok, 0.5 * (u_bad - u_ok))
        tail = tail_at(t)
        g = _log_log(tail) - _log_log(aim)
        if tail <= aim:
            if last_ok:
                g_bad *= 0.5
            ok, ok_tail, g_ok = t, tail, g
        else:
            if not last_ok:
                g_ok *= 0.5
            bad, g_bad = t, g
        last_ok = tail <= aim
    return ok, ok_tail


def witness_parameter(family: Union[FamilyId, str], y: float, epsilon: float) -> Witness:
    """Concrete parameters with standardized tail at most epsilon.

    Works in u = log t (u = -log N on the hypergeometric ray), which falls
    toward the family's degenerate limit.  The search starts at the ray's
    lead, the inverse at the target of the ray's exact tail next to its
    limit (`_Ray.form`): the integer ray's lead as it is, a float ray's
    pulled in by a factor of 0.98, or `ray.start` where the ray has no lead.
    A first point that certifies is returned at once.  On the integer ray
    that keeps every certificate on the stretch at N >= ceil(1/epsilon),
    where the exact tail 1/N is at most epsilon: the search never tries an
    N short of its lead, whose 1 - inner could round 1/N > epsilon down to
    epsilon.  While no point certifies, it walks along the secant of
    log(tail) through its last two points, each step at least `_step`
    (t halved, N doubled) and at most a factor of 2^16.  Once it holds a
    certified point and a refused one, it interpolates between them in
    (u, log(-log tail)) by the Illinois rule (Dowell & Jarratt, BIT 11,
    1971), taking the geometric midpoint where a tail is 0 or 1, until
    `_tight` finds the bracket tight: within 10% or adjacent doubles on a
    float ray (the smallest subnormals are never within 10%), N and N - 1 on
    the integer one.  A float ray certifies a tail at most epsilon / 1.05,
    the integer ray a tail at most epsilon.  Each step after the first
    point counts against _MAX_WITNESS_STEPS.  The achieved tail always
    comes from the exact tail engine.  A search from the lead that leaves
    the range of a double falls back on `ray.start`, which certifies a tail
    of 0 where y puts both sides of its law out of the event (the
    binomial, hypergeometric and beta at y = 2); where the start does not
    certify, the DomainError naming the ray and the point past a double
    stands.
    """
    family = _as_family(family)
    ray = _ray(family)
    y = _check_y(y)
    if not (_is_number(epsilon) and 0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    epsilon = float(epsilon)
    integer = isinstance(ray.start, int)
    aim = epsilon if integer else epsilon / _FLOAT_MARGIN
    calls = 0

    def tail_at(t):
        # every call after the first is a step
        nonlocal calls
        if calls > _MAX_WITNESS_STEPS:
            raise SearchError(f"{family.value} witness search exceeded "
                              f"{_MAX_WITNESS_STEPS} steps (y={y}, epsilon={epsilon})")
        calls += 1
        try:
            return tail_probability(ray.build(t), y).probability
        except DomainError as exc:
            raise DomainError(f"the {family.value} witness ray ({ray.description}) "
                              f"leaves the range of a double at t = {t!r}: {exc}") from None

    lead = ray.lead(y, aim)
    if lead is None:
        t, tail = _search(aim, ray.start, tail_at)
    else:
        try:
            t, tail = _search(aim, lead if integer else _LEAD_PULL * lead, tail_at)
        except DomainError:
            t, tail = ray.start, tail_at(ray.start)
            if tail > aim:
                raise
    return Witness(family, y, epsilon, ray.build(t), tail)
