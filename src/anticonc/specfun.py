"""Scalar special-function kernel.

Self-contained implementations of log-gamma and the ratio
log Gamma(a + 1/2) - log Gamma(a), the Gauss hypergeometric function 2F1
on z < 1, the regularized incomplete gamma and beta functions, and the
standard normal CDF.  Everything downstream (distribution CDFs, the
Student's-t closed form, witness certificates) rests on these six
functions, so they are written by hand with explicit
tolerances rather than delegated; the test suite cross-checks them
against independent oracles.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

from .errors import ConvergenceError, DomainError, InternalError

__all__ = [
    "log_gamma",
    "log_gamma_half_ratio",
    "gauss_2f1",
    "reg_inc_gamma_lower",
    "reg_inc_beta",
    "std_normal_cdf",
    "clamp_probability",
]


# The 2F1 series stops once two consecutive terms fall below _SERIES_REL_TOL
# times the running partial sum; the two-term check guards against a single
# accidentally tiny term in an alternating tail.
_SERIES_REL_TOL = 1e-15
_SERIES_MAX_TERMS = 10**6
_CLAMP_TOL = 1e-9

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_DOUBLE_MAX = sys.float_info.max

# Lanczos rational approximation, g = 7, 9 terms: ~1e-15 absolute accuracy
# in ln(gamma) over the positive axis.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_number(v) -> bool:
    """The one rule for a number argument or parameter: a float (numpy's
    float64 is one) or an int that is not a bool, within a double.  nan and
    inf fail the comparison, and an int past a double compares exactly where
    math.isfinite would raise OverflowError."""
    return (isinstance(v, float) or type(v) is int) and abs(v) <= _DOUBLE_MAX


def clamp_probability(p: float, *, context: str = "") -> float:
    """Clamp p to [0, 1]; an excursion beyond _CLAMP_TOL is an internal error."""
    if p < -_CLAMP_TOL or p > 1.0 + _CLAMP_TOL:
        where = f" in {context}" if context else ""
        raise InternalError(f"probability {p!r} out of [0,1] beyond guard{where}")
    return min(1.0, max(0.0, p))


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Lanczos approximation with reflection below 0.5; relative error is
    below 1e-13 across [1e-6, 1e6].
    """
    if not _is_number(x):
        raise DomainError(f"log_gamma requires a finite real, got {x!r}")
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    if x < 0.5:
        # reflection keeps the Lanczos core on [0.5, inf)
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    t = z + 7.5
    return _HALF_LOG_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


# From a = 25 the Stirling series below is within 3e-16 of the ratio (60-digit
# mpmath), while the difference of two Lanczos values is off by up to 2e-14
# at a = 25-50, 5e-13 at a = 500 and 2e-9 at a = 5e6.
_STIRLING_RATIO_MIN_A = 25.0


def log_gamma_half_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a) for a > 0.

    Under 25 it is the difference of two log_gamma values; from 25 on it is
    the asymptotic series
        1/2 log a - 1/(8a) + 1/(192a^3) - 1/(640a^5) + 17/(14336a^7),
    which does not lose the digits that cancel in that difference at large a.
    """
    if not (_is_number(a) and a > 0.0):
        raise DomainError(f"log_gamma_half_ratio requires a > 0, got a={a!r}")
    if a < _STIRLING_RATIO_MIN_A:
        return log_gamma(a + 0.5) - log_gamma(a)
    r = 1.0 / a
    r2 = r * r
    return 0.5 * math.log(a) - r * (0.125 - r2 * (1.0 / 192.0 - r2 * (
        1.0 / 640.0 - r2 * (17.0 / 14336.0))))


def _series_2f1(a: float, b: float, c: float, w: float) -> float:
    """Raw power series sum_j (a)_j (b)_j / (c)_j * w^j / j! for |w| < 1."""
    term = 1.0
    total = 1.0
    small_streak = 0
    for j in range(_SERIES_MAX_TERMS):
        term *= (a + j) * (b + j) / (c + j) * w / (j + 1.0)
        total += term
        if abs(term) <= _SERIES_REL_TOL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise ConvergenceError(
        f"2F1 series did not converge within {_SERIES_MAX_TERMS} terms "
        f"(a={a}, b={b}, c={c}, w={w})"
    )


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real z < 1.

    The raw series is only used on z in [0, 1).  Every negative z is
    routed through the Pfaff transformation
        2F1(a, b; c; z) = (1-z)^(-a) * 2F1(a, c-b; c; z/(z-1)),
    which maps z < 0 into [0, 1) where the series converges
    geometrically.  The transformation is applied on min(a, b), so the
    function is exactly symmetric in its first two arguments.
    """
    if not (_is_number(a) and _is_number(b) and _is_number(c) and _is_number(z)):
        raise DomainError(f"gauss_2f1 requires finite reals, got a={a!r}, b={b!r}, c={c!r}, "
                          f"z={z!r}")
    if c <= 0.0 and c == math.floor(c):
        raise DomainError(f"c must not be a non-positive integer, got {c}")
    if z >= 1.0:
        raise DomainError(f"gauss_2f1 requires z < 1, got {z}")
    if z == 0.0:
        return 1.0
    if z > 0.0:
        return _series_2f1(a, b, c, z)
    lo, hi = (a, b) if a <= b else (b, a)
    w = z / (z - 1.0)
    return (1.0 - z) ** (-lo) * _series_2f1(lo, c - hi, c, w)


_IG_MAX_ITER = 10**6
_IG_EPS = 1e-16
_FPMIN = 1e-300


def reg_inc_gamma_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0.

    Power series for x < a + 1, Lentz continued fraction for the upper
    tail otherwise; absolute error below 1e-12.
    """
    if not (_is_number(a) and a > 0.0):
        raise DomainError(f"reg_inc_gamma_lower requires a > 0, got a={a!r}")
    if not (_is_number(x) and x >= 0.0):
        raise DomainError(f"reg_inc_gamma_lower requires x >= 0, got x={x!r}")
    if x == 0.0:
        return 0.0
    log_pre = a * math.log(x) - x - log_gamma(a)
    if x < a + 1.0:
        # P(a,x) = x^a e^-x / Gamma(a) * sum_n x^n / (a (a+1) ... (a+n))
        term = 1.0 / a
        total = term
        n = 0
        while True:
            n += 1
            term *= x / (a + n)
            total += term
            if abs(term) < abs(total) * _IG_EPS:
                break
            if n > _IG_MAX_ITER:
                raise ConvergenceError(f"incomplete-gamma series stalled (a={a}, x={x})")
        p = total * math.exp(log_pre) if log_pre > -745.0 else 0.0
        return clamp_probability(p, context="reg_inc_gamma_lower series")
    # Lentz continued fraction for Q(a, x)
    b_cf = x + 1.0 - a
    c_cf = 1.0 / _FPMIN
    d_cf = 1.0 / b_cf if abs(b_cf) > _FPMIN else 1.0 / _FPMIN
    h = d_cf
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b_cf += 2.0
        d_cf = an * d_cf + b_cf
        if abs(d_cf) < _FPMIN:
            d_cf = _FPMIN
        c_cf = b_cf + an / c_cf
        if abs(c_cf) < _FPMIN:
            c_cf = _FPMIN
        d_cf = 1.0 / d_cf
        delta = d_cf * c_cf
        h *= delta
        if abs(delta - 1.0) < _IG_EPS:
            break
        if i > _IG_MAX_ITER:
            raise ConvergenceError(f"incomplete-gamma fraction stalled (a={a}, x={x})")
    q = h * math.exp(log_pre) if log_pre > -745.0 else 0.0
    return clamp_probability(1.0 - q, context="reg_inc_gamma_lower fraction")


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _IG_EPS:
            return h
    raise ConvergenceError(f"incomplete-beta fraction stalled (a={a}, b={b}, x={x})")


# log_gamma's accuracy is stated up to 1e6.  Past it the front factor from
# three log_gamma values of size (a + b) log(a + b) cancels: against 60-digit
# mpmath, beta tails were off by 9e-11 at beta(1e6, 1), 1e-7 at p + q = 1e8,
# 2e-3 at 1e12 and by the whole tail at 1e20.
_INC_BETA_MAX_AB = 1e6


def reg_inc_beta(x: float, a: float, b: float, *, log_front: Optional[float] = None) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1].

    log_front is log(x^a (1-x)^b / B(a, b)).  By default it is taken from
    x and three log_gamma values, which only a + b <= 1e6 allows; a caller
    that knows it more accurately (from an exact 1 - x, or a stable log B)
    passes it in, for any a and b.
    """
    if not (_is_number(a) and a > 0.0 and _is_number(b) and b > 0.0):
        raise DomainError(f"reg_inc_beta requires a, b > 0, got a={a!r}, b={b!r}")
    if not (_is_number(x) and 0.0 <= x <= 1.0):
        raise DomainError(f"reg_inc_beta requires x in [0, 1], got x={x!r}")
    if log_front is None and a + b > _INC_BETA_MAX_AB:
        raise DomainError(f"reg_inc_beta takes its front factor from log_gamma only for "
                          f"a + b <= {_INC_BETA_MAX_AB:g}, got a={a!r}, b={b!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if log_front is None:
        log_front = (log_gamma(a + b) - log_gamma(a) - log_gamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    bt = math.exp(log_front) if log_front > -745.0 else 0.0
    if x < (a + 1.0) / (a + b + 2.0):
        p = bt * _beta_cf(a, b, x) / a
    else:
        p = 1.0 - bt * _beta_cf(b, a, 1.0 - x) / b
    return clamp_probability(p, context="reg_inc_beta")


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    if not _is_number(x):
        raise DomainError(f"std_normal_cdf requires a finite real, got {x!r}")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
