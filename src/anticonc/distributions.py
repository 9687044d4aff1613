"""Registry of the thirteen distribution families.

Parameter validation, exact moments, CDFs, standardized-tail
probabilities P(|X - mu| >= y * sigma), and seeded samplers.  Each
family's law is one `Family` record in `_FAMILIES`; the public functions
look the record up and hold no per-family code, so adding a family means
adding its `FamilyId` member, constructor and record.  Continuous tails
come from closed-form CDF/survival pairs (special functions where
needed; the Student's t CDF, in hypergeometric form, sits beside its
record); discrete tails are exact complements of an interior pmf sum
evaluated in log space.

The |X - mu| >= y*sigma event is inclusive: an integer lattice point at
exactly y standard deviations from the mean belongs to the tail.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .errors import DomainError, InternalError
from .specfun import (
    DEFAULT_SERIES,
    SeriesConfig,
    clamp_probability,
    gauss_2f1,
    log_gamma,
    reg_inc_beta,
    reg_inc_gamma_lower,
    std_normal_cdf,
)

__all__ = [
    "FamilyId",
    "ParamSet",
    "Moments",
    "TailResult",
    "validate",
    "moments",
    "cdf",
    "tail_probability",
    "sample",
    "student_t_cdf",
    "uniform",
    "exponential",
    "gaussian",
    "student_t",
    "binomial",
    "poisson",
    "neg_binomial",
    "hypergeometric",
    "gamma_family",
    "pareto",
    "weibull",
    "log_normal",
    "beta_family",
]


class FamilyId(str, Enum):
    """Closed enumeration of the supported families (kebab-case on the wire)."""

    UNIFORM = "uniform"
    EXPONENTIAL = "exponential"
    GAUSSIAN = "gaussian"
    STUDENT_T = "student-t"
    BINOMIAL = "binomial"
    POISSON = "poisson"
    NEG_BINOMIAL = "neg-binomial"
    HYPERGEOMETRIC = "hypergeometric"
    GAMMA = "gamma"
    PARETO = "pareto"
    WEIBULL = "weibull"
    LOG_NORMAL = "log-normal"
    BETA = "beta"


def _as_family(family: Union[FamilyId, str]) -> FamilyId:
    if isinstance(family, FamilyId):
        return family
    try:
        return FamilyId(family)
    except ValueError:
        known = ", ".join(f.value for f in FamilyId)
        raise DomainError(f"unknown family {family!r}; expected one of: {known}") from None


@dataclass(frozen=True)
class ParamSet:
    """A family tag plus its parameter record.

    Wire format: {"family": "<kebab-case>", "params": {...}} with the
    family's field names ("lambda", "alpha", ... spelled out).
    """

    family: FamilyId
    params: Mapping[str, float]

    def __post_init__(self):
        # a kebab-case string tag is accepted and stored as its FamilyId
        object.__setattr__(self, "family", _as_family(self.family))

    def __getitem__(self, key: str) -> float:
        return self.params[key]

    def to_json_dict(self) -> dict:
        return {"family": self.family.value, "params": dict(self.params)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ParamSet":
        if not isinstance(data, Mapping) or "family" not in data or "params" not in data:
            raise DomainError('parameter JSON must look like {"family": ..., "params": {...}}')
        family = _as_family(data["family"])
        params = data["params"]
        if not isinstance(params, Mapping):
            raise DomainError('"params" must be a JSON object')
        return cls(family=family, params=dict(params))

    @classmethod
    def from_json(cls, text: str) -> "ParamSet":
        return cls.from_json_dict(json.loads(text))


# convenience constructors (lambda is a keyword, hence `lam`)

def uniform(a: float, b: float) -> ParamSet:
    return ParamSet(FamilyId.UNIFORM, {"a": a, "b": b})


def exponential(lam: float) -> ParamSet:
    return ParamSet(FamilyId.EXPONENTIAL, {"lambda": lam})


def gaussian(mu: float, sigma: float) -> ParamSet:
    return ParamSet(FamilyId.GAUSSIAN, {"mu": mu, "sigma": sigma})


def student_t(n: int) -> ParamSet:
    return ParamSet(FamilyId.STUDENT_T, {"n": n})


def binomial(n: int, p: float) -> ParamSet:
    return ParamSet(FamilyId.BINOMIAL, {"n": n, "p": p})


def poisson(lam: float) -> ParamSet:
    return ParamSet(FamilyId.POISSON, {"lambda": lam})


def neg_binomial(r: float, p: float) -> ParamSet:
    return ParamSet(FamilyId.NEG_BINOMIAL, {"r": r, "p": p})


def hypergeometric(M: int, N: int, n: int) -> ParamSet:
    return ParamSet(FamilyId.HYPERGEOMETRIC, {"M": M, "N": N, "n": n})


def gamma_family(alpha: float, beta: float) -> ParamSet:
    return ParamSet(FamilyId.GAMMA, {"alpha": alpha, "beta": beta})


def pareto(r: float, A: float) -> ParamSet:
    return ParamSet(FamilyId.PARETO, {"r": r, "A": A})


def weibull(alpha: float, lam: float) -> ParamSet:
    return ParamSet(FamilyId.WEIBULL, {"alpha": alpha, "lambda": lam})


def log_normal(alpha: float, sigma: float) -> ParamSet:
    return ParamSet(FamilyId.LOG_NORMAL, {"alpha": alpha, "sigma": sigma})


def beta_family(p: float, q: float) -> ParamSet:
    return ParamSet(FamilyId.BETA, {"p": p, "q": q})


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float


@dataclass(frozen=True)
class TailResult:
    """P(|X - mu| >= y*sigma) plus how it was computed."""

    probability: float
    method: str  # closed-form | special-function | pmf-sum | quadrature | monte-carlo
    abs_error_bound: float

    def to_json_dict(self) -> dict:
        return {
            "probability": self.probability,
            "method": self.method,
            "abs_error_bound": self.abs_error_bound,
        }


# --- one record per family ----------------------------------------------------

_Params = Mapping[str, float]


@dataclass(frozen=True)
class Family:
    """Everything the public functions below know about one family's law.

    Each family gives its fields, constraint check, moments, sampler, and
    the method and error bound of its tails.  A continuous family adds
    P(X <= x) and P(X >= x).  Weibull and log-normal moments overflow a
    double far along their witness rays, so those two give log-moments
    and both tails at e^u instead of the survival function.  A discrete
    family gives its integer support and log-pmf, plus, when the support
    is unbounded above, a bound on the pmf ratio that ends the sum.
    """

    fields: tuple[str, ...]
    check: Callable[[_Params], list[str]]  # violations, for well-formed params
    moments: Callable[[_Params], Moments]
    method: str
    abs_error_bound: float
    sample: Callable  # (params, rng, size) -> variates
    integer_fields: tuple[str, ...] = ()
    cdf: Optional[Callable[[_Params, float], float]] = None  # P(X <= x)
    survival: Optional[Callable[[_Params, float], float]] = None  # P(X >= x)
    log_moments: Optional[Callable[[_Params], tuple[float, float]]] = None  # log mu, log sigma
    cdf_at_log: Optional[Callable[[_Params, float], float]] = None  # P(X <= e^u)
    survival_at_log: Optional[Callable[[_Params, float], float]] = None  # P(X >= e^u)
    support: Optional[Callable[[_Params], tuple[int, Optional[int]]]] = None  # kmax None: no end
    log_pmf: Optional[Callable[[_Params, int], float]] = None
    ratio_bound: Optional[Callable[[_Params, int], float]] = None  # >= pmf(j+1)/pmf(j), j >= k


def _require(*rules):
    """A constraint check from (holds, message) rules, reported in order."""
    return lambda p: [message for holds, message in rules if not holds(p)]


def _positive(*names: str):
    return _require(*((lambda p, name=name: p[name] > 0, f"{name} must be positive")
                      for name in names))


def _log_expm1(d: float) -> float:
    """log(expm1(d)) for d > 0 without overflow."""
    if d < 30.0:
        return math.log(math.expm1(d))
    return d + math.log1p(-math.exp(-d))


def _exp_moments(log_moments):
    """Moments from (log mean, log sd); infinite where a double overflows."""
    def moments_(p: _Params) -> Moments:
        log_mean, log_sd = log_moments(p)
        mean = math.exp(log_mean) if log_mean < 709.0 else math.inf
        var = math.exp(2.0 * log_sd) if 2.0 * log_sd < 709.0 else math.inf
        return Moments(mean, var)
    return moments_


def _log_binom_coeff(n: int, k: int) -> float:
    # exact big-int comb keeps lattice pmfs at 1-ulp accuracy; log_gamma
    # handles sizes where the integer route would be wasteful
    if n <= 10**6:
        return math.log(math.comb(n, k))
    return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0)


# the parts of the records below too long for a lambda, in table order

def _uniform_cdf(p: _Params, x: float) -> float:
    a, b = p["a"], p["b"]
    if x <= a:
        return 0.0
    if x >= b:
        return 1.0
    return (x - a) / (b - a)


def _uniform_survival(p: _Params, x: float) -> float:
    a, b = p["a"], p["b"]
    if x <= a:
        return 1.0
    if x >= b:
        return 0.0
    return (b - x) / (b - a)


def _t_moments(p: _Params) -> Moments:
    n = float(p["n"])
    return Moments(0.0, n / (n - 2.0))


def student_t_cdf(n: int, x: float, config: SeriesConfig = DEFAULT_SERIES) -> float:
    """Student's t CDF with n degrees of freedom, in hypergeometric form,
        F_n(x) = 1/2 + x * G(n) * 2F1(1/2, (n+1)/2; 3/2; -x^2/n),
        G(n) = Gamma((n+1)/2) / (sqrt(n*pi) * Gamma(n/2)).

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


def _t_sample(p: _Params, rng: np.random.Generator, size):
    n = int(p["n"])
    z = rng.standard_normal(size)
    v = rng.chisquare(n, size)
    return z / np.sqrt(v / n)


def _binomial_moments(p: _Params) -> Moments:
    n, pr = float(p["n"]), p["p"]
    return Moments(n * pr, n * pr * (1.0 - pr))


def _binomial_log_pmf(p: _Params, k: int) -> float:
    n, pr = int(p["n"]), p["p"]
    return (_log_binom_coeff(n, k) + k * math.log(pr)
            + (n - k) * math.log1p(-pr))


def _neg_binomial_moments(p: _Params) -> Moments:
    r, pr = p["r"], p["p"]
    q = 1.0 - pr
    return Moments(r * q / pr, r * q / (pr * pr))


def _neg_binomial_log_pmf(p: _Params, k: int) -> float:
    # pmf(l) = C(r+l-1, l) p^r q^l with real r > 0
    r, pr = p["r"], p["p"]
    q = 1.0 - pr
    if k == 0:
        return r * math.log(pr)
    return (log_gamma(r + k) - log_gamma(r) - log_gamma(k + 1.0)
            + r * math.log(pr) + k * math.log(q))


def _neg_binomial_ratio_bound(p: _Params, k: int) -> float:
    q = 1.0 - p["p"]
    return max(q * (p["r"] + k) / (k + 1.0), q)


def _check_hypergeometric(p: _Params) -> list[str]:
    M, N, n = p["M"], p["N"], p["n"]
    if M < 1 or N < 1 or n < 1:
        return ["M, N, n must be positive integers"]
    problems = []
    if M > N:
        problems.append("M must be <= N")
    if n > N:
        problems.append("n must be <= N")
    if M == N or n == N:
        problems.append("M = N or n = N makes the variance zero")
    return problems


def _hypergeometric_moments(p: _Params) -> Moments:
    M, N, n = float(p["M"]), float(p["N"]), float(p["n"])
    mean = n * M / N
    var = n * (M / N) * (1.0 - M / N) * (N - n) / (N - 1.0)
    return Moments(mean, var)


def _hypergeometric_support(p: _Params) -> tuple[int, int]:
    M, N, n = int(p["M"]), int(p["N"]), int(p["n"])
    return max(0, n - (N - M)), min(M, n)


def _hypergeometric_log_pmf(p: _Params, k: int) -> float:
    M, N, n = int(p["M"]), int(p["N"]), int(p["n"])
    return (_log_binom_coeff(M, k) + _log_binom_coeff(N - M, n - k)
            - _log_binom_coeff(N, n))


def _pareto_moments(p: _Params) -> Moments:
    r, A = p["r"], p["A"]
    return Moments(r * A / (r - 1.0), r * A * A / ((r - 2.0) * (r - 1.0) ** 2))


def _weibull_log_moments(p: _Params) -> tuple[float, float]:
    """(log mean, log sd) of the Weibull, computed entirely in log space."""
    alpha, lam = p["alpha"], p["lambda"]
    lg1 = log_gamma(1.0 + 1.0 / alpha)
    lg2 = log_gamma(1.0 + 2.0 / alpha)
    log_mean = -math.log(lam) / alpha + lg1
    delta = lg2 - 2.0 * lg1
    log_sd = -math.log(lam) / alpha + lg1 + 0.5 * _log_expm1(delta)
    return log_mean, log_sd


def _weibull_cdf_at_log(p: _Params, u: float) -> float:
    e = p["alpha"] * u
    return -math.expm1(-p["lambda"] * math.exp(e)) if e < 709.0 else 1.0


def _weibull_survival_at_log(p: _Params, u: float) -> float:
    e = p["alpha"] * u
    return math.exp(-p["lambda"] * math.exp(e)) if e < 709.0 else 0.0


def _lognormal_log_moments(p: _Params) -> tuple[float, float]:
    s2 = p["sigma"] * p["sigma"]
    log_mean = p["alpha"] + 0.5 * s2
    log_sd = p["alpha"] + 0.5 * s2 + 0.5 * _log_expm1(s2)
    return log_mean, log_sd


def _lognormal_cdf_at_log(p: _Params, u: float) -> float:
    return std_normal_cdf((u - p["alpha"]) / p["sigma"])


def _beta_moments(p: _Params) -> Moments:
    pp, qq = p["p"], p["q"]
    s = pp + qq
    return Moments(pp / s, pp * qq / (s * s * (s + 1.0)))


def _beta_cdf(p: _Params, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return reg_inc_beta(x, p["p"], p["q"])


def _beta_survival(p: _Params, x: float) -> float:
    if x <= 0.0:
        return 1.0
    if x >= 1.0:
        return 0.0
    return reg_inc_beta(1.0 - x, p["q"], p["p"])


_FAMILIES: dict[FamilyId, Family] = {
    FamilyId.UNIFORM: Family(
        fields=("a", "b"),
        check=_require((lambda p: p["a"] < p["b"], "a must be < b")),
        moments=lambda p: Moments((p["a"] + p["b"]) / 2.0, (p["b"] - p["a"]) ** 2 / 12.0),
        method="closed-form", abs_error_bound=1e-14,
        sample=lambda p, rng, size: p["a"] + (p["b"] - p["a"]) * rng.random(size),
        cdf=_uniform_cdf, survival=_uniform_survival),
    FamilyId.EXPONENTIAL: Family(
        fields=("lambda",), check=_positive("lambda"),
        moments=lambda p: Moments(1.0 / p["lambda"], 1.0 / (p["lambda"] * p["lambda"])),
        method="closed-form", abs_error_bound=1e-14,
        sample=lambda p, rng, size: -np.log1p(-rng.random(size)) / p["lambda"],
        cdf=lambda p, x: -math.expm1(-p["lambda"] * x) if x > 0.0 else 0.0,
        survival=lambda p, x: math.exp(-p["lambda"] * x) if x > 0.0 else 1.0),
    FamilyId.GAUSSIAN: Family(
        fields=("mu", "sigma"), check=_positive("sigma"),
        moments=lambda p: Moments(p["mu"], p["sigma"] ** 2),
        method="special-function", abs_error_bound=1e-13,
        sample=lambda p, rng, size: p["mu"] + p["sigma"] * rng.standard_normal(size),
        cdf=lambda p, x: std_normal_cdf((x - p["mu"]) / p["sigma"]),
        survival=lambda p, x: std_normal_cdf((p["mu"] - x) / p["sigma"])),
    FamilyId.STUDENT_T: Family(
        fields=("n",), integer_fields=("n",),
        check=_require((lambda p: p["n"] >= 3, "n must be >= 3 (variance requires n >= 3)")),
        moments=_t_moments, method="special-function", abs_error_bound=1e-12,
        sample=_t_sample, cdf=lambda p, x: student_t_cdf(int(p["n"]), x),
        survival=lambda p, x: student_t_cdf(int(p["n"]), -x)),
    FamilyId.BINOMIAL: Family(
        fields=("n", "p"), integer_fields=("n",),
        # p = 1 would make the variance zero, which the standardized tail cannot use
        check=_require((lambda p: p["n"] >= 1, "n must be >= 1"),
                       (lambda p: 0 < p["p"] < 1, "p must lie in (0, 1)")),
        moments=_binomial_moments, method="pmf-sum", abs_error_bound=1e-13,
        sample=lambda p, rng, size: rng.binomial(int(p["n"]), p["p"], size),
        support=lambda p: (0, int(p["n"])), log_pmf=_binomial_log_pmf),
    FamilyId.POISSON: Family(
        fields=("lambda",), check=_positive("lambda"),
        moments=lambda p: Moments(p["lambda"], p["lambda"]),
        method="pmf-sum", abs_error_bound=1e-13,
        sample=lambda p, rng, size: rng.poisson(p["lambda"], size),
        support=lambda p: (0, None),
        log_pmf=lambda p, k: k * math.log(p["lambda"]) - p["lambda"] - log_gamma(k + 1.0),
        ratio_bound=lambda p, k: p["lambda"] / (k + 1.0)),
    FamilyId.NEG_BINOMIAL: Family(
        fields=("r", "p"),
        check=_require((lambda p: p["r"] > 0, "r must be positive"),
                       (lambda p: 0 < p["p"] < 1,
                        "p must lie in (0, 1); p = 1 is degenerate (zero variance)")),
        moments=_neg_binomial_moments, method="pmf-sum", abs_error_bound=1e-13,
        sample=lambda p, rng, size: rng.negative_binomial(p["r"], p["p"], size),
        support=lambda p: (0, None), log_pmf=_neg_binomial_log_pmf,
        ratio_bound=_neg_binomial_ratio_bound),
    FamilyId.HYPERGEOMETRIC: Family(
        fields=("M", "N", "n"), integer_fields=("M", "N", "n"),
        check=_check_hypergeometric,
        moments=_hypergeometric_moments, method="pmf-sum", abs_error_bound=1e-13,
        sample=lambda p, rng, size: rng.hypergeometric(
            int(p["M"]), int(p["N"]) - int(p["M"]), int(p["n"]), size),
        support=_hypergeometric_support, log_pmf=_hypergeometric_log_pmf),
    FamilyId.GAMMA: Family(
        fields=("alpha", "beta"), check=_positive("alpha", "beta"),
        moments=lambda p: Moments(p["alpha"] * p["beta"], p["alpha"] * p["beta"] * p["beta"]),
        method="special-function", abs_error_bound=1e-12,
        sample=lambda p, rng, size: rng.gamma(p["alpha"], p["beta"], size),
        cdf=lambda p, x: 0.0 if x <= 0.0 else reg_inc_gamma_lower(p["alpha"], x / p["beta"]),
        survival=lambda p, x: (1.0 if x <= 0.0
                               else 1.0 - reg_inc_gamma_lower(p["alpha"], x / p["beta"]))),
    FamilyId.PARETO: Family(
        fields=("r", "A"),
        check=_require((lambda p: p["r"] > 2, "r must exceed 2 for finite variance"),
                       (lambda p: p["A"] > 0, "A must be positive")),
        moments=_pareto_moments, method="closed-form", abs_error_bound=1e-14,
        sample=lambda p, rng, size: p["A"] * (1.0 - rng.random(size)) ** (-1.0 / p["r"]),
        cdf=lambda p, x: 0.0 if x <= p["A"] else -math.expm1(p["r"] * math.log(p["A"] / x)),
        survival=lambda p, x: 1.0 if x <= p["A"] else math.exp(p["r"] * math.log(p["A"] / x))),
    FamilyId.WEIBULL: Family(
        fields=("alpha", "lambda"), check=_positive("alpha", "lambda"),
        moments=_exp_moments(_weibull_log_moments), method="closed-form", abs_error_bound=1e-13,
        sample=lambda p, rng, size: ((-np.log1p(-rng.random(size)) / p["lambda"])
                                     ** (1.0 / p["alpha"])),
        cdf=lambda p, x: 0.0 if x <= 0.0 else -math.expm1(-p["lambda"] * x ** p["alpha"]),
        log_moments=_weibull_log_moments, cdf_at_log=_weibull_cdf_at_log,
        survival_at_log=_weibull_survival_at_log),
    FamilyId.LOG_NORMAL: Family(
        fields=("alpha", "sigma"), check=_positive("sigma"),
        moments=_exp_moments(_lognormal_log_moments),
        method="special-function", abs_error_bound=1e-13,
        sample=lambda p, rng, size: np.exp(p["alpha"] + p["sigma"] * rng.standard_normal(size)),
        cdf=lambda p, x: 0.0 if x <= 0.0 else _lognormal_cdf_at_log(p, math.log(x)),
        log_moments=_lognormal_log_moments, cdf_at_log=_lognormal_cdf_at_log,
        survival_at_log=lambda p, u: std_normal_cdf((p["alpha"] - u) / p["sigma"])),
    FamilyId.BETA: Family(
        fields=("p", "q"), check=_positive("p", "q"),
        moments=_beta_moments, method="special-function", abs_error_bound=1e-12,
        sample=lambda p, rng, size: rng.beta(p["p"], p["q"], size),
        cdf=_beta_cdf, survival=_beta_survival),
}


# --- the public operations, generic over the table ------------------------------

def validate(ps: ParamSet) -> list[str]:
    """Check every parameter invariant; the violations are the return value.

    An empty list means the ParamSet is valid.  Structural problems
    (wrong field names, non-numeric values) are reported the same way.
    """
    law = _FAMILIES[ps.family]
    problems: list[str] = []
    got = set(ps.params)
    expected = set(law.fields)
    for name in sorted(expected - got):
        problems.append(f"missing parameter {name!r}")
    for name in sorted(got - expected):
        problems.append(f"unexpected parameter {name!r}")
    for name in law.fields:
        if name not in ps.params:
            continue
        value = ps.params[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"parameter {name!r} must be a finite number, got {value!r}")
    if problems:
        return problems

    for name in law.integer_fields:
        if float(ps.params[name]) != math.floor(ps.params[name]):
            problems.append(f"{name} must be an integer")
    if problems:
        return problems
    return law.check(ps.params)


def require_valid(ps: ParamSet) -> None:
    problems = validate(ps)
    if problems:
        raise DomainError(f"invalid {ps.family.value} parameters: " + "; ".join(problems))


def _valid_law(ps: ParamSet) -> Family:
    """The record of ps's family, once ps has passed validation."""
    require_valid(ps)
    return _FAMILIES[ps.family]


def moments(ps: ParamSet) -> Moments:
    """Exact mean and variance; always positive variance for valid parameters."""
    return _valid_law(ps).moments(ps.params)


_DISCRETE_LOOP_CAP = 10**7
_MASS_TRUNCATION = 1e-16


def _discrete_sum(law: Family, p: _Params, kmin: int, kmax: Optional[int], upper: float,
                  mean: float, keep) -> float:
    """Sum pmf(k) for integer k in [kmin, min(kmax, floor(upper))] with keep(k).

    Unbounded sums stop once a geometric bound shows the remaining mass is
    below the 1e-15 truncation budget.
    """
    k_end = math.floor(upper)
    if kmax is not None:
        k_end = min(k_end, kmax)
    total = 0.0
    k = kmin
    steps = 0
    while k <= k_end:
        lp = law.log_pmf(p, k)
        val = math.exp(lp) if lp > -745.0 else 0.0
        if keep is None or keep(k):
            total += val
        if kmax is None and k > mean and 0.0 < val:
            rho = law.ratio_bound(p, k)
            if rho < 1.0 and val * rho / (1.0 - rho) < _MASS_TRUNCATION:
                break
        k += 1
        steps += 1
        if steps > _DISCRETE_LOOP_CAP:
            raise InternalError(f"discrete summation exceeded {_DISCRETE_LOOP_CAP} terms")
    return total


def _require_finite_x(x: float) -> None:
    if not math.isfinite(x):
        raise DomainError(f"cdf requires finite x, got {x!r}")


def cdf(ps: ParamSet, x: float) -> float:
    """P(X <= x); right-continuous with the atom at x for discrete families."""
    law = _valid_law(ps)
    _require_finite_x(x)
    p = ps.params
    if law.log_pmf is None:
        return law.cdf(p, x)
    kmin, kmax = law.support(p)
    if x < kmin:
        return 0.0
    total = _discrete_sum(law, p, kmin, kmax, x, law.moments(p).mean, keep=None)
    return clamp_probability(total, context="discrete cdf")


def _log_add_exp(a: float, b: float) -> float:
    hi, lo = (a, b) if a >= b else (b, a)
    if hi == -math.inf:
        return -math.inf
    return hi + math.log1p(math.exp(lo - hi))


def _tail_from_log_scale(law: Family, p: _Params, y: float) -> float:
    """Tail for positive-support families whose moments may overflow a double.

    Works with log(mu), log(sigma) so Weibull/log-normal tails stay exact
    arbitrarily far along their witness rays.
    """
    log_mean, log_sd = law.log_moments(p)
    s = math.log(y) + log_sd  # log(y * sigma)
    upper = law.survival_at_log(p, _log_add_exp(s, log_mean))
    if log_mean <= s:
        lower = 0.0  # mu - y*sigma <= 0: nothing below on positive support
    else:
        lower = law.cdf_at_log(p, log_mean + math.log1p(-math.exp(s - log_mean)))
    return clamp_probability(lower + upper, context="log-scale tail")


def tail_probability(ps: ParamSet, y: float) -> TailResult:
    """Exact P(|X - mu| >= y * sigma) with mu, sigma^2 from moments().

    Continuous families: cdf(mu - y*sigma) + P(X >= mu + y*sigma); the
    boundary has measure zero.  Discrete families: one minus the pmf sum
    over integers strictly inside (mu - y*sigma, mu + y*sigma), so lattice
    points at exactly y standard deviations count toward the tail.
    """
    law = _valid_law(ps)
    if not (isinstance(y, (int, float)) and math.isfinite(y) and y > 0.0):
        raise DomainError(f"tail_probability requires y > 0, got {y!r}")
    p = ps.params
    if law.log_moments is not None:
        prob = _tail_from_log_scale(law, p, y)
        return TailResult(prob, law.method, law.abs_error_bound)

    m = law.moments(p)
    sd = math.sqrt(m.variance)
    lo = m.mean - y * sd
    hi = m.mean + y * sd

    if law.log_pmf is not None:
        kmin, kmax = law.support(p)
        k0 = max(kmin, math.ceil(lo))
        inner = _discrete_sum(law, p, k0, kmax, hi, m.mean,
                              keep=lambda k: abs(k - m.mean) < y * sd)
        prob = clamp_probability(1.0 - inner, context="discrete tail")
    else:
        _require_finite_x(lo)  # moments that overflow a double leave no finite edge
        prob = clamp_probability(law.cdf(p, lo) + law.survival(p, hi),
                                 context="continuous tail")
    return TailResult(prob, law.method, law.abs_error_bound)


def sample(ps: ParamSet, rng: np.random.Generator, size=None):
    """Draw variates with the family's law from a caller-owned generator.

    Returns a float (or int for discrete families) when size is None,
    otherwise an ndarray.  Deterministic given the generator state; the
    light-tailed continuous families use explicit inverse-CDF transforms,
    Student's t uses the normal-over-chi construction, and the remaining
    families use the generator's native (rejection/summation) methods.
    """
    out = _valid_law(ps).sample(ps.params, rng, size)
    if size is None:
        return float(out)
    return out
