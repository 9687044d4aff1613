"""Registry of the thirteen distribution families.

Parameter validation, exact moments, CDFs, standardized-tail
probabilities P(|X - mu| >= y * sigma), and seeded samplers.  Each
family's law is one `Family` record in `_FAMILIES`; the public functions
look the record up and hold no per-family code, so adding a family means
adding its `FamilyId` member, constructor and record.  The record also
holds the family's panel law, default verification grid and, for the
nine zero-infimum families, witness ray, so no other module keeps a
per-family table beside the paper's four closed forms.  No parameter
moves a uniform, exponential or Gaussian standardized tail, so those
are the paper's closed forms in y alone.  Other tails come from CDF and
survival pairs (special functions where needed; the Student's t CDF, in
hypergeometric form, sits beside its record).  The gamma, beta, Poisson
and negative binomial take both sides of each pair from specfun's one
incomplete-gamma or incomplete-beta core (`_gamma_tails`, `_beta_tails`),
each side directly rather than as one minus the other, the Poisson and
negative binomial on the lattice.  The binomial and hypergeometric laws,
whose support is bounded, take their tails as exact complements of an
interior pmf sum evaluated in log space.  Such a record hands the sum
its log pmfs for exactly the k summed, so it may step its terms from one
k to the next (the hypergeometric steps its binomial coefficients in
exact integers).  Every term comes from exact integer binomial
coefficients, so both laws refuse a size where these pass about
10**6 bits (the binomial past n = 10**6, the hypergeometric past N = 10**6
once n * N.bit_length() > 10**6) with DomainError: log-gamma terms would
cancel there (Binomial(10**7, 1/2) off by 1.5e-8 under a 1e-13 bound).

The |X - mu| >= y*sigma event is inclusive: an integer lattice point at
exactly y standard deviations from the mean belongs to the tail.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Optional, Union

from .errors import DomainError
from .specfun import (
    _DOUBLE_MAX,
    _beta_tails,
    _check_inc_beta_shapes,
    _gamma_tails,
    _inc_beta,
    _is_number,
    clamp_probability,
    gauss_2f1,
    log_gamma,
    log_gamma_half_ratio,
    std_normal_cdf,
)

if TYPE_CHECKING:
    import numpy as np

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


def _check_y(y: float, name: str = "y") -> float:
    """y as a float, once it is a positive number (name: y's name in the message)."""
    if not (_is_number(y) and y > 0.0):
        raise DomainError(f"{name} must be a positive real, got {y!r}")
    return float(y)


def _check_x(x: float) -> float:
    """x as a float, once it is a number."""
    if not _is_number(x):
        raise DomainError(f"x must be a finite real, got {x!r}")
    return float(x)


def _check_dof(n: int, least: int) -> int:
    """n, once it is an int (no float or bool) from least up to a double's max.

    This is _is_number's rule for an int, written out to save a call in
    student_t_cdf, which the t curve makes n0 + 1 times.
    """
    if not (type(n) is int and least <= n <= _DOUBLE_MAX):
        raise DomainError(f"n must be an integer >= {least} within a double, got {n!r}")
    return n


@dataclass(frozen=True)
class ParamSet:
    """A family tag plus its parameter record.

    Written as {"family": "<kebab-case>", "params": {...}} with the
    family's field names ("lambda", "alpha", ... spelled out).
    """

    family: FamilyId
    params: Mapping[str, float]

    def __post_init__(self):
        # a kebab-case string tag is accepted and stored as its FamilyId
        if type(self.family) is not FamilyId:
            object.__setattr__(self, "family", _as_family(self.family))

    def __getitem__(self, key: str) -> float:
        return self.params[key]

    def to_json_dict(self) -> dict:
        return {"family": self.family.value, "params": dict(self.params)}


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
    method: str  # closed-form | special-function | pmf-sum
    abs_error_bound: float

    def to_json_dict(self) -> dict:
        return {
            "probability": self.probability,
            "method": self.method,
            "abs_error_bound": self.abs_error_bound,
        }


# --- verification grids and witness rays ---------------------------------------

@dataclass(frozen=True)
class GridAxis:
    lo: float
    hi: float
    points: int
    scale: str = "linear"
    integer: bool = False

    def __post_init__(self):
        if self.scale not in ("linear", "logarithmic"):
            raise DomainError(f"axis scale must be linear or logarithmic, got {self.scale!r}")
        if not (type(self.points) is int and 2 <= self.points <= 10**6):
            raise DomainError(f"axis points must be an integer from 2 to 10**6, "
                              f"got {self.points!r}")
        if not (_is_number(self.lo) and _is_number(self.hi) and self.lo < self.hi):
            raise DomainError(f"axis range must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        if self.scale == "logarithmic" and self.lo <= 0:
            raise DomainError("logarithmic axis requires lo > 0")

    def values(self) -> np.ndarray:
        import numpy as np
        if self.scale == "logarithmic":
            vals = np.geomspace(self.lo, self.hi, self.points)
        else:
            vals = np.linspace(self.lo, self.hi, self.points)
        if self.integer:
            vals = np.unique(np.rint(vals).astype(np.int64))
        return vals

    def to_json_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "points": self.points,
                "scale": self.scale, "integer": self.integer}


@dataclass(frozen=True)
class GridSpec:
    """Axes to sweep (Cartesian product) plus parameters held fixed.

    Besides the family's own field names, three derived axis names keep
    grids pointed at the interesting limits: "b" alone for the uniform
    family means the symmetric interval (-b, b); "q" for the negative
    binomial means p = 1 - q; "r_excess" for the Pareto means r = 2 +
    r_excess; a hypergeometric grid over "N" alone implies M = N - 1.
    `oracle._complete_point` applies these rules to each grid point.
    """

    axes: Mapping[str, GridAxis]
    fixed: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.axes:
            raise DomainError("GridSpec needs at least one axis")

    def to_json_dict(self) -> dict:
        return {"axes": {k: v.to_json_dict() for k, v in sorted(self.axes.items())},
                "fixed": dict(self.fixed)}


@dataclass(frozen=True)
class _Ray:
    """One-dimensional path to the family's degenerate limit.

    Next to the limit lies a stretch of the ray where one side of the
    event is empty, and there the tail is one elementary expression of t
    and y, `form(t, y)` (the gamma's is the incomplete gamma
    Q(t, t + y sqrt(t))).  `lead(y, aim)` inverts it: a point of the stretch
    where the form is about aim, or None where the stretch is empty in
    doubles.  The integer ray's lead is exact, the first N on the stretch
    with 1/N <= aim; a float ray's is a closed form or a few secant steps.
    The witness search starts at the lead, or at `start`, and walks toward
    the limit, where the tail falls.
    """

    build: Callable[..., ParamSet]
    start: Union[float, int]
    description: str
    form: Callable[..., float]
    lead: Callable[[float, float], Union[float, int, None]]


# --- one record per family ----------------------------------------------------

_Params = Mapping[str, float]


@dataclass(frozen=True)
class Family:
    """Everything the public functions below know about one family's law.

    Each family gives its fields, constraint check, moments, sampler, and
    the method and error bound of its tails.  A continuous family adds
    P(X <= x) and P(X >= x); the uniform, exponential and Gaussian give
    instead their standardized tail in y alone, which no parameter
    moves.  Weibull and log-normal moments overflow a double far along
    their witness rays, so those two give log-moments and both tails at
    e^u instead of the survival function.  The gamma and beta take
    P(X <= x) and P(X >= x) as the two values of one incomplete gamma or
    beta at x, and the Poisson and negative binomial, through
    `_on_lattice`, as incomplete gamma and beta values at floor(x) and
    ceil(x).  The binomial and hypergeometric give their bounded integer
    support, which refuses a law too large for exact integer terms, and
    `log_pmfs(p, k0, k1)`, which yields log pmf(k) for k from k0 to k1 and
    forms no other term.  Each function sees the parameters as `_checked`
    types them, in one pass over `fields`: the fields named in
    `integer_fields` as int, the rest as float.  `sample` draws variate by
    variate, so draws made in blocks replay one array of the same total,
    bit for bit.

    Each record also carries what the checks and the paper's verdict need:
    `panel`, one representative, well-conditioned member, which the
    verify suites and golden tests evaluate; `grid`, the default grid of
    `grid_infimum`, bracketed toward the family's limit; and `ray`, the
    path along which a witness is searched, which only the nine
    zero-infimum families have (None for the four anti-concentrated ones).
    """

    fields: tuple[str, ...]
    check: Callable[[_Params], list[str]]  # violations, for well-formed params
    moments: Callable[[_Params], Moments]
    method: str
    abs_error_bound: float
    sample: Callable  # (params, rng, size) -> variates
    panel: ParamSet
    grid: GridSpec
    ray: Optional[_Ray] = None
    integer_fields: tuple[str, ...] = ()  # in field order; typed as int, the rest as float
    cdf: Optional[Callable[[_Params, float], float]] = None  # P(X <= x)
    survival: Optional[Callable[[_Params, float], float]] = None  # P(X >= x)
    std_tail: Optional[Callable[[float], float]] = None  # P(|X - mu| >= y*sigma), any member
    log_moments: Optional[Callable[[_Params], tuple[float, float]]] = None  # log mu, log sigma
    cdf_at_log: Optional[Callable[[_Params, float], float]] = None  # P(X <= e^u)
    survival_at_log: Optional[Callable[[_Params, float], float]] = None  # P(X >= e^u)
    support: Optional[Callable[[_Params], tuple[int, int]]] = None  # kmin, kmax
    log_pmfs: Optional[Callable[[_Params, int, int], Iterator[float]]] = None  # k0..k1


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


def _square(x: float) -> float:
    """x^2, or inf where it overflows a double (** raises there)."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _over_square(num: float, x: float) -> float:
    """num / x^2; where x*x underflows to 0 (x below ~1e-162), num / x / x."""
    return num / (x * x) if x * x > 0.0 else num / x / x


# size past which the binomial and hypergeometric supports are refused (see the module docstring)
_LATTICE_MAX = 10**6


# the parts of the records below too long for a lambda or needing an import, in table order

def _uniform_cdf(p: _Params, x: float) -> float:
    a, b = p["a"], p["b"]
    if x <= a:
        return 0.0
    if x >= b:
        return 1.0
    return (x - a) / (b - a)


def _exponential_sample(p: _Params, rng: np.random.Generator, size):
    import numpy as np
    return -np.log1p(-rng.random(size)) / p["lambda"]


# x^2 past which student_t_cdf takes the tail from the incomplete beta.  Every
# point of the proven A(y) curve has x^2 = y^2 n/(n-2) < 9/2, so the curve
# stays on the series.  Past the switch the series costs more and loses more
# digits as |x| grows; the beta route does neither.
_T_TAIL_X2 = 5.0
# n past which the beta route is refused: there z = n/(n + x^2) nears 1 and the
# continued fraction loses digits.  Against mpmath, the t(n) tail at y = 2.3 is
# off by 5.3e-13 at n = 10**6, 1.4e-11 at 10**7, and is 1.0 for 0.0214 at 10**17.
_T_TAIL_MAX_DOF = 10**6


def student_t_cdf(n: int, x: float) -> float:
    """Student's t CDF with n degrees of freedom, by one of two routes.

    For x^2 <= 5, the hypergeometric form
        F_n(x) = 1/2 + x * G(n) * 2F1(1/2, (n+1)/2; 3/2; -x^2/n),
        G(n) = Gamma((n+1)/2) / (sqrt(n*pi) * Gamma(n/2)),
    with -x^2/n routed through the Pfaff transformation.  For x^2 > 5,
    the tail F_n(-|x|) = 1/2 * I_z(n/2, 1/2) with z = n/(n + x^2), taken
    straight from the incomplete beta (the layout of Cephes stdtr): its
    cost does not grow with |x| and it loses no digits in the far tail.
    Both routes take log Gamma((n+1)/2) - log Gamma(n/2) from
    log_gamma_half_ratio.  The beta route passes specfun's incomplete-beta
    core, _inc_beta, its own log front factor, with
    (n/2) log z = -(n/2) log1p(x^2/n), and 1 - z = x^2/(n + x^2), both
    taken from x rather than from z; the Loader front factor of _beta_tails
    lost a digit in the far tail (t(5) at y = 100: 3.8e-15 relative against
    5e-16).  Where x^2 overflows a double, z is 0 and so is the tail.  The
    series result is clamped to [0, 1] (its rounding can stray an ulp
    outside).  The beta route holds its 1e-12 bound only up to n = 10**6
    and refuses a larger n with DomainError.
    """
    n = _check_dof(n, 1)
    x = _check_x(x)
    if x == 0.0:
        return 0.5
    x2 = x * x
    half_n = n / 2.0
    if x2 > _T_TAIL_X2:
        if n > _T_TAIL_MAX_DOF:
            raise DomainError(f"student_t_cdf's incomplete-beta route (x^2 > {_T_TAIL_X2:g}) "
                              f"requires n <= 10**6, got n={n} at x={x!r}")
        if x2 == math.inf:
            tail = 0.0  # z = n/(n + x^2) is 0
        else:
            y = x2 / (n + x2)
            log_front = (log_gamma_half_ratio(half_n) - 0.5 * math.log(math.pi)  # -log B(n/2, 1/2)
                         - half_n * math.log1p(x2 / n) + 0.5 * math.log(y))
            tail = 0.5 * _inc_beta(n / (n + x2), y, half_n, 0.5, log_front)[0]
        return tail if x < 0.0 else 1.0 - tail
    coeff = math.exp(log_gamma_half_ratio(half_n) - 0.5 * math.log(n * math.pi))
    hyp = gauss_2f1(0.5, (n + 1) / 2.0, 1.5, -x2 / n)
    return clamp_probability(0.5 + x * coeff * hyp, context="student_t_cdf")


def _binomial_moments(p: _Params) -> Moments:
    n, pr = p["n"], p["p"]
    return Moments(n * pr, n * pr * (1.0 - pr))


def _binomial_support(p: _Params) -> tuple[int, int]:
    n = p["n"]
    if n > _LATTICE_MAX:
        raise DomainError(f"the binomial pmf sum is answered only for n <= 10**6, got n={n}")
    return 0, n


def _binomial_log_pmf(p: _Params, k: int) -> float:
    n, pr = p["n"], p["p"]
    return math.log(math.comb(n, k)) + k * math.log(pr) + (n - k) * math.log1p(-pr)


def _neg_binomial_moments(p: _Params) -> Moments:
    r, pr = p["r"], p["p"]
    q = 1.0 - pr
    return Moments(r * q / pr, _over_square(r * q, pr))


def _on_lattice(at_most, at_least) -> dict:
    """The cdf and survival of a law on 0, 1, 2, ... from its P(X <= k) and
    P(X >= k), `at_most(p, k)` at k = floor(x) and `at_least(p, k)` at k = ceil(x)."""
    return {"cdf": lambda p, x: 0.0 if x < 0.0 else at_most(p, math.floor(x)),
            "survival": lambda p, x: 1.0 if x <= 0.0 else at_least(p, math.ceil(x))}


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
    M, N, n = p["M"], p["N"], p["n"]
    if N > _LATTICE_MAX and n * N.bit_length() > _LATTICE_MAX:
        raise DomainError(f"the hypergeometric pmf sum is answered only for N <= 10**6 or "
                          f"n * N.bit_length() <= 10**6, got N={N}, n={n}")
    return max(0, n - (N - M)), min(M, n)


def _hypergeometric_log_pmfs(p: _Params, k0: int, k1: int) -> Iterator[float]:
    """log pmf(k) for k from k0 to k1, from exact binomial coefficients.

    C(N, n) is formed once, and C(M, k) and C(N - M, n - k) are stepped in
    k by one exact multiply and floor-divide each, since
    C(M, k - 1) (M - k + 1) = C(M, k) k, so math.log sees the integers
    of the per-k formula and the terms are its terms bit for bit.  The
    support refuses a law whose C(N, n) would pass about 10^6 bits (past
    N = 10^6, n * N.bit_length() > 10^6; the witness ray's n = 1 passes at
    any N).
    """
    M, N, n = p["M"], p["N"], p["n"]
    log_all = math.log(math.comb(N, n))
    good, bad = math.comb(M, k0), math.comb(N - M, n - k0)
    for k in range(k0, k1 + 1):
        if k > k0:
            good = good * (M - k + 1) // k
            bad = bad * (n - k + 1) // (N - M - n + k)
        yield math.log(good) + math.log(bad) - log_all


def _pareto_moments(p: _Params) -> Moments:
    r, A = p["r"], p["A"]
    return Moments(r * A / (r - 1.0), r * A * A / ((r - 2.0) * _square(r - 1.0)))


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


def _weibull_sample(p: _Params, rng: np.random.Generator, size):
    return _exponential_sample(p, rng, size) ** (1.0 / p["alpha"])


def _lognormal_log_moments(p: _Params) -> tuple[float, float]:
    s2 = p["sigma"] * p["sigma"]
    log_mean = p["alpha"] + 0.5 * s2
    log_sd = p["alpha"] + 0.5 * s2 + 0.5 * _log_expm1(s2)
    return log_mean, log_sd


def _lognormal_cdf_at_log(p: _Params, u: float) -> float:
    return std_normal_cdf((u - p["alpha"]) / p["sigma"])


def _lognormal_sample(p: _Params, rng: np.random.Generator, size):
    import numpy as np
    return np.exp(p["alpha"] + p["sigma"] * rng.standard_normal(size))


def _beta_moments(p: _Params) -> Moments:
    pp, qq = p["p"], p["q"]
    s = pp + qq
    num, den = pp * qq, s * s * (s + 1.0)
    if not (num >= sys.float_info.min and den < math.inf):
        # a product left a double's normal range: scale p and q by s first
        num, den = (pp / s) * (qq / s), s + 1.0
    return Moments(pp / s, num / den)


def _beta_sides(p: _Params, x: float) -> tuple[float, float]:
    """(P(X <= x), P(X >= x)), each side taken directly, not as one minus the other."""
    _check_inc_beta_shapes(p["p"], p["q"])
    if x <= 0.0:
        return 0.0, 1.0
    if x >= 1.0:
        return 1.0, 0.0
    return _beta_tails(x, 1.0 - x, p["p"], p["q"])


# --- each witness ray's tail next to its limit (`_Ray.form`) and its inverse (`_Ray.lead`);
# an `_end` is the last t of a float ray's stretch, where the empty side starts to fill

def _clipped(t: float, end: float) -> Optional[float]:
    """t moved into the stretch (0, end], or None where that is empty in doubles."""
    t = min(t, end)
    return t if t > 0.0 else None


def _secant_lead(form, guess, end):
    """The lead of a float ray whose form has no closed inverse.

    From guess(y, aim), at most three secant steps on log(-log form) in
    log t, where each of these forms is nearly linear, kept in
    (0, min(end(y), 1)] (these rays start at t = 1) and each at most a
    factor e^4 toward the limit; None where the stretch is empty or the
    form leaves (0, 1) on the way."""
    def lead(y: float, aim: float) -> Optional[float]:
        top = min(end(y), 1.0)
        t = _clipped(guess(y, aim), top)
        if t is None:
            return None
        goal, u_top = math.log(-math.log(aim)), math.log(top)

        def gap(u: float) -> float:
            t = math.exp(u)
            f = form(t, y) if t > 0.0 else 0.0
            return math.log(-math.log(f)) - goal if 0.0 < f < 1.0 else math.nan

        u0, u1 = math.log(t), math.log(t) - 0.1
        g0, g1 = gap(u0), gap(u1)
        for step in range(3):
            if not abs(g1 - g0) > 0.0:
                return None
            u = min(max(u1 - g1 * (u1 - u0) / (g1 - g0), u1 - 4.0), u_top)
            if step == 2 or abs(u - u1) < 1e-6:
                return math.exp(u)
            u0, g0, u1, g1 = u1, g1, u, gap(u)
    return lead


def _hypergeometric_lead(y: float, aim: float) -> Optional[int]:
    """The least N with 1/N <= aim on the stretch where the tail is exactly 1/N:
    N - 1 >= y^2 puts the draw of the one failure in the event, and
    (N - 1) y^2 > 1 keeps the other out.  Exact integers from the doubles'
    ratios; None where the stretch starts past a double."""
    a, b = aim.as_integer_ratio()
    c, d = y.as_integer_ratio()
    first = 1 + max(-(-(c * c) // (d * d)), d * d // (c * c) + 1)
    return max(-(-b // a), first) if first <= _DOUBLE_MAX else None


def _gamma_ray_form(t: float, y: float) -> float:
    """Q(t, t + y sqrt(t)); the lower side is empty for t < y^2."""
    return _gamma_tails(t, t + y * math.sqrt(t))[1]


def _pareto_ray_form(t: float, y: float) -> float:
    """(mu + y sigma)^(-r) for r = 2 + t, A = 1; the lower side is empty
    for t (1 - y^2) <= 2 y^2.  0.0 where r rounds to 2."""
    r = 2.0 + t
    if r == 2.0:
        return 0.0
    return math.exp(-r * math.log(r / (r - 1.0) + y * math.sqrt(r / (r - 2.0)) / (r - 1.0)))


def _weibull_ray_form(t: float, y: float) -> float:
    """exp(-(mu + y sigma)^t) for lambda = 1, in logs; the lower side is
    empty where mu <= y sigma (for every t <= 1 once y >= 1)."""
    log_mean, log_sd = _weibull_log_moments({"alpha": t, "lambda": 1.0})
    return math.exp(-math.exp(t * _log_add_exp(log_mean, math.log(y) + log_sd)))


def _lognormal_ray_form(t: float, y: float) -> float:
    """1/2 erfc(log(mu + y sigma) / (s sqrt 2)) for alpha = 0, s = 1/t, with
    log mu = s^2/2 and log sigma = s^2/2 + log(e^(s^2) - 1)/2; the lower
    side is empty for s^2 >= log1p(1/y^2)."""
    s = 1.0 / t
    z = 0.5 * s + _log_add_exp(0.0, math.log(y) + 0.5 * _log_expm1(s * s)) / s
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _lattice_end(y: float, c: float) -> float:
    """The last t with t < y^2 and c t + y sqrt(t) <= 1: on the Poisson (c = 1)
    and negative binomial (c = 2) rays, 0 leaves the event and 1 joins it."""
    return min(y * y, _square(2.0 / (y + math.sqrt(y * y + 4.0 * c))))


def _lognormal_end(y: float) -> float:
    v = math.log1p(1.0 / y / y)
    return 1.0 / math.sqrt(v) if v > 0.0 else math.inf


def _beta_ray_form(t: float, y: float) -> float:
    """1 - (1 - mu + y sigma)^t for p = 1, q = t, with 1 - mu = t/(1 + t);
    0 where mu <= y sigma.  The upper side is empty for
    t <= sqrt(1 + y^2) - 1."""
    sd = math.sqrt(t / (2.0 + t)) / (1.0 + t)
    return max(0.0, -math.expm1(t * math.log(t / (1.0 + t) + y * sd)))


_FAMILIES: dict[FamilyId, Family] = {
    FamilyId.UNIFORM: Family(
        fields=("a", "b"),
        check=_require((lambda p: p["a"] < p["b"], "a must be < b")),
        # halved first: a + b overflows where the mean does not
        moments=lambda p: Moments(p["a"] / 2.0 + p["b"] / 2.0, _square(p["b"] - p["a"]) / 12.0),
        method="closed-form", abs_error_bound=1e-14,
        sample=lambda p, rng, size: p["a"] + (p["b"] - p["a"]) * rng.random(size),
        panel=uniform(-1.0, 2.0), grid=GridSpec({"b": GridAxis(1e-2, 1e2, 100, "logarithmic")}),
        cdf=_uniform_cdf, std_tail=lambda y: max(0.0, 1.0 - y / math.sqrt(3.0))),
    FamilyId.EXPONENTIAL: Family(
        fields=("lambda",), check=_positive("lambda"),
        moments=lambda p: Moments(1.0 / p["lambda"], _over_square(1.0, p["lambda"])),
        method="closed-form", abs_error_bound=1e-14,
        sample=_exponential_sample,
        panel=exponential(1.3),
        grid=GridSpec({"lambda": GridAxis(1e-2, 1e2, 100, "logarithmic")}),
        cdf=lambda p, x: -math.expm1(-p["lambda"] * x) if x > 0.0 else 0.0,
        # unit rate: P(X <= 1 - y) + P(X >= 1 + y)
        std_tail=lambda y: ((1.0 - math.exp(-(1.0 - y)) if y < 1.0 else 0.0)
                            + math.exp(-(1.0 + y)))),
    FamilyId.GAUSSIAN: Family(
        fields=("mu", "sigma"), check=_positive("sigma"),
        moments=lambda p: Moments(p["mu"], _square(p["sigma"])),
        method="special-function", abs_error_bound=1e-13,
        sample=lambda p, rng, size: p["mu"] + p["sigma"] * rng.standard_normal(size),
        panel=gaussian(0.5, 2.0),
        grid=GridSpec({"mu": GridAxis(-3.0, 3.0, 7),
                       "sigma": GridAxis(0.1, 10.0, 15, "logarithmic")}),
        cdf=lambda p, x: std_normal_cdf((x - p["mu"]) / p["sigma"]),
        std_tail=lambda y: math.erfc(y / math.sqrt(2.0))),
    FamilyId.STUDENT_T: Family(
        fields=("n",), integer_fields=("n",),
        check=_require((lambda p: p["n"] >= 3, "n must be >= 3 (variance requires n >= 3)")),
        moments=lambda p: Moments(0.0, p["n"] / (p["n"] - 2.0)),
        method="special-function", abs_error_bound=1e-12,
        sample=lambda p, rng, size: rng.standard_t(p["n"], size), panel=student_t(5),
        grid=GridSpec({"n": GridAxis(3, 400, 398, "linear", integer=True)}),
        cdf=lambda p, x: student_t_cdf(p["n"], x),
        survival=lambda p, x: student_t_cdf(p["n"], -x)),
    FamilyId.BINOMIAL: Family(
        fields=("n", "p"), integer_fields=("n",),
        # p = 1 would make the variance zero, which the standardized tail cannot use
        check=_require((lambda p: p["n"] >= 1, "n must be >= 1"),
                       (lambda p: 0 < p["p"] < 1, "p must lie in (0, 1)")),
        moments=_binomial_moments, method="pmf-sum", abs_error_bound=1e-13,
        sample=lambda p, rng, size: rng.binomial(p["n"], p["p"], size),
        panel=binomial(20, 0.3),
        grid=GridSpec({"p": GridAxis(1e-6, 0.5, 100, "logarithmic")}, {"n": 1}),
        # X = 1 alone lies in the event for t < min(y^2, 1) / (1 + y^2)
        ray=_Ray(lambda t: binomial(1, t), 0.5, "n = 1, p -> 0", lambda t, y: t,
                 lambda y, aim: _clipped(aim, 1.0 / (1.0 + _square(max(y, 1.0 / y))))),
        support=_binomial_support,
        log_pmfs=lambda p, k0, k1: (_binomial_log_pmf(p, k) for k in range(k0, k1 + 1))),
    FamilyId.POISSON: Family(
        fields=("lambda",), check=_positive("lambda"),
        moments=lambda p: Moments(p["lambda"], p["lambda"]),
        method="special-function", abs_error_bound=1e-13,
        sample=lambda p, rng, size: rng.poisson(p["lambda"], size),
        panel=poisson(4.0), grid=GridSpec({"lambda": GridAxis(1e-4, 1e2, 200, "logarithmic")}),
        ray=_Ray(lambda t: poisson(t), 0.5, "lambda -> 0", lambda t, y: -math.expm1(-t),
                 lambda y, aim: _clipped(-math.log1p(-aim), _lattice_end(y, 1.0))),
        # P(X <= k) = Q(k + 1, lambda) and P(X >= k) = P(k, lambda)
        **_on_lattice(lambda p, k: _gamma_tails(k + 1.0, p["lambda"])[1],
                      lambda p, k: _gamma_tails(float(k), p["lambda"])[0])),
    FamilyId.NEG_BINOMIAL: Family(
        fields=("r", "p"),
        check=_require((lambda p: p["r"] > 0, "r must be positive"),
                       (lambda p: 0 < p["p"] < 1,
                        "p must lie in (0, 1); p = 1 is degenerate (zero variance)")),
        moments=_neg_binomial_moments, method="special-function", abs_error_bound=1e-13,
        sample=lambda p, rng, size: rng.negative_binomial(p["r"], p["p"], size),
        panel=neg_binomial(2.5, 0.4),
        grid=GridSpec({"q": GridAxis(1e-6, 0.5, 100, "logarithmic")}, {"r": 1.0}),
        # the tail is the law's q, 1 - (1 - t) as p = 1 - t rounds
        ray=_Ray(lambda t: neg_binomial(1.0, 1.0 - t), 0.5, "r = 1, p -> 1",
                 lambda t, y: 1.0 - (1.0 - t), lambda y, aim: _clipped(aim, _lattice_end(y, 2.0))),
        # P(X <= k) = I_p(r, k + 1) and P(X >= k) = I_{1-p}(k, r), 1 - (1 - p) taken as p
        **_on_lattice(lambda p, k: _beta_tails(p["p"], 1.0 - p["p"], p["r"], k + 1.0)[0],
                      lambda p, k: _beta_tails(1.0 - p["p"], p["p"], float(k), p["r"])[0])),
    FamilyId.HYPERGEOMETRIC: Family(
        fields=("M", "N", "n"), integer_fields=("M", "N", "n"),
        check=_check_hypergeometric,
        moments=_hypergeometric_moments, method="pmf-sum", abs_error_bound=1e-13,
        sample=lambda p, rng, size: rng.hypergeometric(p["M"], p["N"] - p["M"], p["n"], size),
        panel=hypergeometric(30, 100, 20),
        grid=GridSpec({"N": GridAxis(2, 10**5, 60, "logarithmic", integer=True)}, {"n": 1}),
        ray=_Ray(lambda N: hypergeometric(N - 1, N, 1), 2, "M = N - 1, n = 1, N -> infinity",
                 lambda N, y: 1 / N, _hypergeometric_lead),
        support=_hypergeometric_support, log_pmfs=_hypergeometric_log_pmfs),
    FamilyId.GAMMA: Family(
        fields=("alpha", "beta"), check=_positive("alpha", "beta"),
        moments=lambda p: Moments(p["alpha"] * p["beta"], p["alpha"] * p["beta"] * p["beta"]),
        method="special-function", abs_error_bound=1e-12,
        sample=lambda p, rng, size: rng.gamma(p["alpha"], p["beta"], size),
        panel=gamma_family(2.5, 1.5),
        grid=GridSpec({"alpha": GridAxis(1e-6, 1e2, 120, "logarithmic")}, {"beta": 1.0}),
        # Q(t, x) is about t (-log(y sqrt(t)) - Euler's gamma) near the limit
        ray=_Ray(lambda t: gamma_family(t, 1.0), 1.0, "beta = 1, alpha -> 0", _gamma_ray_form,
                 _secant_lead(_gamma_ray_form, lambda y, aim: aim / max(
                     1.0, -math.log(y) - 0.5 * math.log(aim) - 0.5772156649015329),
                     lambda y: y * y)),
        cdf=lambda p, x: 0.0 if x <= 0.0 else _gamma_tails(p["alpha"], x / p["beta"])[0],
        survival=lambda p, x: 1.0 if x <= 0.0 else _gamma_tails(p["alpha"], x / p["beta"])[1]),
    FamilyId.PARETO: Family(
        fields=("r", "A"),
        check=_require((lambda p: p["r"] > 2, "r must exceed 2 for finite variance"),
                       (lambda p: p["A"] > 0, "A must be positive")),
        moments=_pareto_moments, method="closed-form", abs_error_bound=1e-14,
        sample=lambda p, rng, size: p["A"] * (1.0 - rng.random(size)) ** (-1.0 / p["r"]),
        panel=pareto(4.0, 2.0),
        grid=GridSpec({"r_excess": GridAxis(1e-6, 98.0, 120, "logarithmic")}, {"A": 1.0}),
        # the tail is about (2 + y sqrt(2/t))^-2 near the limit
        ray=_Ray(lambda t: pareto(2.0 + t, 1.0), 1.0, "A = 1, r -> 2", _pareto_ray_form,
                 _secant_lead(_pareto_ray_form,
                              lambda y, aim: 2.0 * _square(y / max(aim ** -0.5 - 2.0, 1.0)),
                              lambda y: 2.0 * y * y / (1.0 - y * y) if y < 1.0 else math.inf)),
        cdf=lambda p, x: 0.0 if x <= p["A"] else -math.expm1(p["r"] * math.log(p["A"] / x)),
        survival=lambda p, x: 1.0 if x <= p["A"] else math.exp(p["r"] * math.log(p["A"] / x))),
    FamilyId.WEIBULL: Family(
        fields=("alpha", "lambda"), check=_positive("alpha", "lambda"),
        moments=_exp_moments(_weibull_log_moments), method="closed-form", abs_error_bound=1e-13,
        sample=_weibull_sample,
        panel=weibull(1.7, 0.8),
        grid=GridSpec({"alpha": GridAxis(1e-3, 1e2, 120, "logarithmic")}, {"lambda": 1.0}),
        # (mu + y sigma)^t is about 2 / (e t) near the limit; the stretch has no
        # closed end, and off it the tail only exceeds the form
        ray=_Ray(lambda t: weibull(t, 1.0), 1.0, "lambda = 1, alpha -> 0", _weibull_ray_form,
                 _secant_lead(_weibull_ray_form, lambda y, aim: 2.0 / (math.e * -math.log(aim)),
                              lambda y: math.inf)),
        cdf=lambda p, x: 0.0 if x <= 0.0 else -math.expm1(-p["lambda"] * x ** p["alpha"]),
        log_moments=_weibull_log_moments, cdf_at_log=_weibull_cdf_at_log,
        survival_at_log=_weibull_survival_at_log),
    FamilyId.LOG_NORMAL: Family(
        fields=("alpha", "sigma"), check=_positive("sigma"),
        moments=_exp_moments(_lognormal_log_moments),
        method="special-function", abs_error_bound=1e-13,
        sample=_lognormal_sample,
        panel=log_normal(0.2, 0.6),
        grid=GridSpec({"sigma": GridAxis(0.1, 30.0, 120, "logarithmic")}, {"alpha": 0.0}),
        # the tail is about Phi(-1/t) near the limit
        ray=_Ray(lambda t: log_normal(0.0, 1.0 / t), 1.0, "alpha = 0, sigma -> infinity",
                 _lognormal_ray_form,
                 _secant_lead(_lognormal_ray_form,
                              lambda y, aim: 1.0 / math.sqrt(-2.0 * math.log(aim)), _lognormal_end)),
        cdf=lambda p, x: 0.0 if x <= 0.0 else _lognormal_cdf_at_log(p, math.log(x)),
        log_moments=_lognormal_log_moments, cdf_at_log=_lognormal_cdf_at_log,
        survival_at_log=lambda p, u: std_normal_cdf((p["alpha"] - u) / p["sigma"])),
    FamilyId.BETA: Family(
        fields=("p", "q"), check=_positive("p", "q"),
        moments=_beta_moments, method="special-function", abs_error_bound=1e-12,
        sample=lambda p, rng, size: rng.beta(p["p"], p["q"], size),
        panel=beta_family(2.0, 5.0),
        grid=GridSpec({"q": GridAxis(1e-6, 1.0, 100, "logarithmic")}, {"p": 1.0}),
        # the tail is about t (-log(y sqrt(t/2))) near the limit
        ray=_Ray(lambda t: beta_family(1.0, t), 1.0, "p = 1, q -> 0", _beta_ray_form,
                 _secant_lead(_beta_ray_form, lambda y, aim: aim / max(
                     1.0, -math.log(y) - 0.5 * (math.log(aim) - math.log(2.0))),
                     lambda y: y * (y / (1.0 + math.hypot(1.0, y))))),
        cdf=lambda p, x: _beta_sides(p, x)[0], survival=lambda p, x: _beta_sides(p, x)[1]),
}


# --- the public operations, generic over the table ------------------------------

def _checked(ps: ParamSet) -> tuple[Family, _Params, list[str]]:
    """ps's record, its parameters and its violations.

    One pass over the record's fields types each value once it is a number
    within a double: an integer field takes int(value) for an int or an
    integral float, any other field float(value) (numpy's float64 is a
    float).  The constraints are then checked on these typed values, the
    ones the record computes with.  A set that cannot be typed is handed
    back as it is, with the problems _untyped finds in it."""
    law = _FAMILIES[ps.family]
    params = ps.params
    integer_fields = law.integer_fields
    typed = {}
    if len(params) == len(law.fields):
        for name in law.fields:
            value = params.get(name)
            # _is_number's rule, written out: it runs once per field of every call
            if type(value) is int and -_DOUBLE_MAX <= value <= _DOUBLE_MAX:
                typed[name] = value if name in integer_fields else float(value)
            elif isinstance(value, float) and -_DOUBLE_MAX <= value <= _DOUBLE_MAX:
                if name not in integer_fields:
                    typed[name] = float(value)
                elif value.is_integer():
                    typed[name] = int(value)
                else:
                    break
            else:
                break
        else:
            return law, typed, law.check(typed)
    return law, params, _untyped(law, params)


def _untyped(law: Family, params: _Params) -> list[str]:
    """Why params cannot be typed for law: missing names, unexpected names and
    non-numbers in that order, or else, with none of these, each integer
    field that holds a fractional value."""
    got, expected = set(params), set(law.fields)
    problems = [f"missing parameter {name!r}" for name in sorted(expected - got)]
    problems += [f"unexpected parameter {name!r}" for name in sorted(got - expected)]
    problems += [f"parameter {name!r} must be a finite number, got {params[name]!r}"
                 for name in law.fields if name in got and not _is_number(params[name])]
    return problems or [f"{name} must be an integer" for name in law.integer_fields
                        if not float(params[name]).is_integer()]


def validate(ps: ParamSet) -> list[str]:
    """Check every parameter invariant; the violations are the return value.

    An empty list means the ParamSet is valid.  Structural problems
    (wrong field names, non-numeric values) are reported the same way.
    """
    return _checked(ps)[2]


def _valid_law(ps: ParamSet) -> tuple[Family, _Params]:
    """The record of ps's family and its typed parameters, once ps is valid."""
    law, params, problems = _checked(ps)
    if problems:
        raise DomainError(f"invalid {ps.family.value} parameters: " + "; ".join(problems))
    return law, params


def moments(ps: ParamSet) -> Moments:
    """Exact mean and variance; past a double they overflow to inf or underflow to 0.0."""
    law, p = _valid_law(ps)
    return law.moments(p)


def _discrete_sum(law: Family, p: _Params, kmin: int, kmax: int, upper: float, keep) -> float:
    """Sum pmf(k) for integer k in [kmin, min(kmax, floor(upper))] with keep(k)."""
    # an answered support spans at most 10**6 + 1 terms: n <= 10**6 for the binomial,
    # and for the hypergeometric n < N <= 10**6 or n <= 5 * 10**4 (n * N.bit_length() <= 10**6)
    total = 0.0
    for k, lp in enumerate(law.log_pmfs(p, kmin, min(math.floor(upper), kmax)), kmin):
        val = math.exp(lp) if lp > -745.0 else 0.0
        if keep is None or keep(k):
            total += val
    return total


def cdf(ps: ParamSet, x: float) -> float:
    """P(X <= x); right-continuous with the atom at x for discrete families."""
    law, p = _valid_law(ps)
    x = _check_x(x)
    if law.log_pmfs is None:
        return law.cdf(p, x)
    kmin, kmax = law.support(p)
    if x < kmin:
        return 0.0
    total = _discrete_sum(law, p, kmin, kmax, x, keep=None)
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


def _tail_sd(family: FamilyId, m: Moments) -> float:
    """sigma from m, refused unless the mean and variance are finite and sigma > 0."""
    if not (math.isfinite(m.mean) and math.isfinite(m.variance)):
        raise DomainError(f"{family.value} moments overflow a double: " + ", ".join(
            f"{name} is {value!r}" for name, value in vars(m).items()
            if not math.isfinite(value)))
    if m.variance == 0.0:
        raise DomainError(f"{family.value} variance underflows a double to 0.0 "
                          f"(mean is {m.mean!r}), so no tail can be standardized by it")
    return math.sqrt(m.variance)


def tail_probability(ps: ParamSet, y: float) -> TailResult:
    """Exact P(|X - mu| >= y * sigma), mu and sigma^2 the law's mean and variance.

    Uniform, exponential and Gaussian laws: the family's standardized
    tail at y, which no parameter moves.  Other continuous families:
    cdf(mu - y*sigma) + P(X >= mu + y*sigma); the boundary has measure
    zero.  Poisson and negative binomial: the same two terms, P(X <= k)
    for k = floor(mu - y*sigma) and P(X >= k) for k = ceil(mu + y*sigma),
    each an incomplete gamma or beta value.  Binomial and hypergeometric:
    one minus the pmf sum over integers strictly inside
    (mu - y*sigma, mu + y*sigma), refused with DomainError past
    n = 10**6 (binomial) or past N = 10**6 with n * N.bit_length() > 10**6
    (hypergeometric), where exact integer terms grow too costly.  Either
    way, lattice points at exactly y standard deviations count toward the
    tail.  Where mu -/+ y*sigma round onto mu, no tail can be placed and
    DomainError is raised.
    """
    law, p = _valid_law(ps)
    y = _check_y(y)
    if law.std_tail is not None:
        return TailResult(law.std_tail(y), law.method, law.abs_error_bound)
    if law.log_moments is not None:
        prob = _tail_from_log_scale(law, p, y)
        return TailResult(prob, law.method, law.abs_error_bound)

    m = law.moments(p)
    sd = _tail_sd(ps.family, m)
    lo = m.mean - y * sd
    hi = m.mean + y * sd
    if not (math.isfinite(lo) and math.isfinite(hi)):
        # a finite mu passes a double's edge only if y*sigma >= 2^970; a finite
        # variance keeps sigma <= 1.35e154, so y > 7.4e137 and by Chebyshev
        # the tail is below 1/y^2 < 2e-276, under every family's bound
        return TailResult(0.0, law.method, law.abs_error_bound)
    if not lo < m.mean < hi:
        raise DomainError(f"{ps.family.value} y*sigma = {y * sd!r} is lost in rounding the mean "
                          f"{m.mean!r}, so no tail can be placed around it")

    if law.log_pmfs is not None:
        kmin, kmax = law.support(p)
        k0 = max(kmin, math.ceil(lo))
        inner = _discrete_sum(law, p, k0, kmax, hi, keep=lambda k: abs(k - m.mean) < y * sd)
        prob = clamp_probability(1.0 - inner, context="discrete tail")
    else:
        prob = clamp_probability(law.cdf(p, lo) + law.survival(p, hi),
                                 context="continuous tail")
    return TailResult(prob, law.method, law.abs_error_bound)


def sample(ps: ParamSet, rng: np.random.Generator, size=None):
    """Draw variates with the family's law from a caller-owned generator.

    Returns a float when size is None, for discrete families too (3.0, not
    3), otherwise an ndarray.  Deterministic given the generator state;
    the light-tailed continuous families use explicit inverse-CDF
    transforms, and the remaining families, Student's t among them, use
    the generator's native methods (numpy's standard_t draws one normal
    and one gamma per variate).
    """
    law, p = _valid_law(ps)
    out = law.sample(p, rng, size)
    if size is None:
        return float(out)
    return out
