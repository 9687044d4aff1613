"""Scalar special-function kernel.

Self-contained implementations of log-gamma and the ratio
log Gamma(a + 1/2) - log Gamma(a), the Gauss hypergeometric function 2F1
on z < 1, the regularized incomplete gamma and beta functions, and the
standard normal CDF.  Everything downstream (distribution CDFs, the
Student's-t closed form, witness certificates) rests on these six
functions, so they are written by hand with explicit
tolerances rather than delegated; the test suite cross-checks them
against independent oracles.

Each incomplete function has one core and one front factor, and every
family takes its values from it.  `_gamma_tails` gives P and Q of the
incomplete gamma, from `_inc_gamma`: where a >= 100 and |x - a| <= 0.3 a
it is Temme's uniform expansion (N. M. Temme, SIAM J. Math. Anal. 10,
1979, in the form of DiDonato and Morris, ACM TOMS 12, 1986), a fixed
number of terms at any a and no front factor; elsewhere it forms the
front factor x^a e^-x / Gamma(a) and sums a power series for P below
x = a + 1 or a continued fraction for Q above it, the other value being
one minus it; where the factor underflows, the value is 0 and nothing is
summed.  `_beta_tails` gives I_x(a, b) and I_y(b, a) with y = 1 - x, from
closed forms at a or b = 1 and otherwise from `_inc_beta`: the
continued fraction BFRAC of DiDonato and Morris (ACM TOMS 708, 1992)
where a, b >= 1, and `_beta_cf` where min(a, b) < 1.  Both front factors,
x^a e^-x / Gamma(a) and x^a (1-x)^b / B(a, b), come from the deviance form
of C. Loader (Fast and Accurate Computation of Binomial Probabilities,
2000), `stirlerr` plus `bd0`, which cancels no large logarithms.
`reg_inc_gamma_lower` and `reg_inc_beta` are the checked public faces of
the two cores.  The Student's-t CDF alone passes `_inc_beta` its own
front factor, formed from x rather than from the rounded z = n/(n + x^2).
"""

from __future__ import annotations

import math
import sys

from .errors import ConvergenceError, DomainError, InternalError

__all__ = [
    "log_gamma",
    "log_gamma_half_ratio",
    "gauss_2f1",
    "reg_inc_gamma_lower",
    "reg_inc_beta",
    "stirlerr",
    "bd0",
    "log_gamma_front",
    "log_beta_front",
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

    Lanczos approximation, taken below 0.5 as log Gamma(1 + x) - log x;
    relative error is below 1e-13 across [5e-324, 1e6].
    """
    if not _is_number(x):
        raise DomainError(f"log_gamma requires a finite real, got {x!r}")
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    if x < 0.5:
        # keeps the Lanczos core on [1, 1.5]; the reflection formula divided
        # by a subnormal sine and overflowed to inf below about 5.6e-309
        return log_gamma(1.0 + x) - math.log(x)
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


# Off the Temme band the series took at most 99 steps and the fraction 99
# (near x = 1 at a tiny a) in a scan of a from 1e-307 to 1e6; the cap is ten
# times that, so a call that cannot converge fails in well under a millisecond.
_IG_MAX_ITER = 1000
_IG_TINY_A = 1e-307
_IG_EPS = 1e-16
_FPMIN = 1e-300

# Temme's uniform expansion (N. M. Temme, SIAM J. Math. Anal. 10, 1979; the
# form of DiDonato and Morris, ACM TOMS 12, 1986) takes P and Q where
# a >= _TEMME_MIN_A and |x - a| <= _TEMME_SIGMA a.  Row k holds the Taylor
# coefficients of c_k(eta), k = 0..6: c_0 = 1/(lambda - 1) - 1/eta and
# c_k = c'_(k-1)/eta + (-1)^k g_k/(lambda - 1), with lambda = x/a and g_k
# Stirling's 1/12, 1/288, -139/51840, ...  Over the band and every a >= 100,
# the terms left out (the rest of each row to order 30, and rows 7 to 9) sum
# to under 1e-17 of the smaller of P and Q.
_TEMME_MIN_A = 100.0
_TEMME_SIGMA = 0.3
_TEMME = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
     0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05,
     -2.185448510679992e-06, -1.85406221071516e-06, 8.296711340953087e-07,
     -1.7665952736826078e-07, 6.707853543401498e-09, 1.0261809784240309e-08,
     -4.382036018453353e-09, 9.14769958223679e-10),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
     -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
     -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
     4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
     1.1951628599778148e-08),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
     2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
     -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
     -6.298992138380055e-07, 1.4280614206064242e-07),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
     0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
     1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06),
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
     -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
     1.1375726970678419e-05),
    (-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
     -0.00019932570516188847, 6.797780477937208e-05),
    (0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045),
)


def _temme(a: float, x: float) -> tuple[float, float]:
    """(P(a, x), Q(a, x)) = (erfc(-z)/2 - R, erfc(z)/2 + R) for a >= 100 and
    |x - a| <= 0.3 a, with z = eta sqrt(a/2), a eta^2/2 = bd0(a, x), eta
    signed like x - a, and R = e^(-a eta^2/2) / sqrt(2 pi a) sum_k c_k(eta) a^-k.

    R is negative across the band and at most 0.18 of erfc(|z|)/2, so
    neither value loses a bit to cancellation, and neither is formed as one
    minus the other.
    """
    dev = bd0(a, x)
    eta = math.copysign(math.sqrt(2.0 * dev / a), x - a)
    u = 1.0 / a
    total = 0.0
    for row in reversed(_TEMME):
        c = 0.0
        for d in reversed(row):
            c = c * eta + d
        total = total * u + c
    r = math.exp(-dev) / math.sqrt(2.0 * math.pi * a) * total
    z = eta * math.sqrt(0.5 * a)
    return 0.5 * math.erfc(-z) - r, 0.5 * math.erfc(z) + r


def _inc_gamma(a: float, x: float) -> tuple[float, float]:
    """(P(a, x), Q(a, x)) for a, x > 0.

    Three routes.  Where a >= 100 and |x - a| <= 0.3 a it is Temme's uniform
    expansion, _temme, in constant time and with no front factor: against
    40-digit mpmath it is within 1.2e-16 for a from 10^2 to 10^15.  Elsewhere
    the front factor x^a e^-x / Gamma(a) comes from log_gamma_front, and the
    value is a power series for P where x < a + 1 and Lentz's continued
    fraction for Q otherwise, the other value being one minus it; each takes
    at most about 100 steps there, and where the front underflows, the value
    is 0 and nothing is summed.  Below a = 1e-307 P is 1 in doubles.
    """
    if a < _IG_TINY_A:
        # the series would start at 1/a, past a double; Q(a, x) is about
        # a E_1(x), below 1e-304 at every double x > 0
        return 1.0, 0.0
    if a >= _TEMME_MIN_A and abs(x - a) <= _TEMME_SIGMA * a:
        return _temme(a, x)
    lf = log_gamma_front(a, x)
    if not lf > -745.0:
        # exp(lf) underflows to 0.0, and so does the front times any sum
        return (0.0, 1.0) if x < a + 1.0 else (1.0, 0.0)
    front = math.exp(lf)
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
        p = clamp_probability(total * front, context="incomplete-gamma series")
        return p, 1.0 - p
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
    q = clamp_probability(h * front, context="incomplete-gamma fraction")
    return 1.0 - q, q


def reg_inc_gamma_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0: the P of
    _gamma_tails, within 1.2e-16 on the Temme band (a >= 100,
    |x - a| <= 0.3 a) and within 1e-14 off it on the panels of the tests."""
    if not (_is_number(a) and a > 0.0):
        raise DomainError(f"reg_inc_gamma_lower requires a > 0, got a={a!r}")
    if not (_is_number(x) and x >= 0.0):
        raise DomainError(f"reg_inc_gamma_lower requires x >= 0, got x={x!r}")
    if x == 0.0:
        return 0.0
    return _gamma_tails(a, x)[0]


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


# Past a + b = 1e6 the incomplete beta has no route that is both bounded and
# accurate: BFRAC's steps grow like sqrt(a + b) (at a = b = 1e100 it stalls
# into ConvergenceError after its 10^4), and the closed forms at a or b = 1
# carry the rounding of x or 1 - x times the other shape: beta(1e8, 1) at
# y = 0.5 is off by 4.9e-9, and beta(1, 1e20) gives 1.0 at y = 1, where the
# tail is e^-2, and InternalError at y = 0.5.  Uniform asymptotic
# expansions (BASYM, BGRAT of ACM TOMS 708) would lift it.
_INC_BETA_MAX_AB = 1e6


def _check_inc_beta_shapes(a: float, b: float) -> None:
    """Refuse with DomainError a + b past _INC_BETA_MAX_AB."""
    if a + b > _INC_BETA_MAX_AB:
        raise DomainError(f"the incomplete beta is answered only for "
                          f"a + b <= {_INC_BETA_MAX_AB:g}, got a={a!r}, b={b!r}")


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 with a + b <= 1e6
    and x in [0, 1]: the lower value of _beta_tails at x and 1 - x."""
    if not (_is_number(a) and a > 0.0 and _is_number(b) and b > 0.0):
        raise DomainError(f"reg_inc_beta requires a, b > 0, got a={a!r}, b={b!r}")
    if not (_is_number(x) and 0.0 <= x <= 1.0):
        raise DomainError(f"reg_inc_beta requires x in [0, 1], got x={x!r}")
    _check_inc_beta_shapes(a, b)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    return _beta_tails(x, 1.0 - x, a, b)[0]


_BFRAC_MAX_ITER = 10**4


def _bfrac(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) B(a, b) / (x^a y^b) for a, b >= 1, y = 1 - x and
    lam = a - (a + b) x >= 0: the continued fraction BFRAC of DiDonato and
    Morris (ACM TOMS 708, 1992).

    It carries lam, the distance below the mean, as one number, where the
    fraction of _beta_cf forms it again in each step from terms that cancel:
    at the mean of Beta(10^5, 100), _beta_cf was off by 9e-13 and this one
    by 2e-16 (60-digit mpmath).
    """
    c = 1.0 + lam
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    n = 0.0
    while n < _BFRAC_MAX_ITER:
        n += 1.0
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (1.0 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= _IG_EPS * r:
            return r
        # rescale so the next step starts from bnp1 = 1
        an /= bnp1
        bn /= bnp1
        anp1, bnp1 = r, 1.0
    raise ConvergenceError(f"incomplete-beta fraction stalled (a={a}, b={b}, x={x})")


def _inc_beta(x: float, y: float, a: float, b: float, log_front: float) -> tuple[float, float]:
    """(I_x(a, b), I_y(b, a)) for a, b > 0 and 0 < x < 1 with y = 1 - x, given
    log(x^a y^b / B(a, b)): the incomplete-beta core, behind log_beta_front's
    factor for _beta_tails and behind its own for student_t_cdf.

    One side is taken from a continued fraction and the other as one minus
    it.  For a, b >= 1 the fraction is _bfrac, on the side below the mean;
    otherwise it is _beta_cf, in x where x < (a + 1)/(a + b + 2) and in y
    beyond.  y is taken as given, so a caller that holds 1 - x exactly loses
    nothing to forming it.
    """
    bt = math.exp(log_front) if log_front > -745.0 else 0.0
    if a >= 1.0 and b >= 1.0:
        lam = (a + b) * y - b if a > b else a - (a + b) * x
        if lam >= 0.0:
            lower = clamp_probability(bt * _bfrac(a, b, x, y, lam), context="incomplete beta")
            return lower, 1.0 - lower
        upper = clamp_probability(bt * _bfrac(b, a, y, x, -lam), context="incomplete beta")
        return 1.0 - upper, upper
    if x < (a + 1.0) / (a + b + 2.0):
        lower = clamp_probability(bt * _beta_cf(a, b, x) / a, context="incomplete beta")
        return lower, 1.0 - lower
    upper = clamp_probability(bt * _beta_cf(b, a, y) / b, context="incomplete beta")
    return 1.0 - upper, upper


# Stirling's series for stirlerr(n), B_2k / (2k (2k - 1)) for k = 1..6: from
# n = 15 its first omitted term is below 4e-18.
_STIRLING_SERIES = (1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0, 1.0 / 1188.0,
                    691.0 / 360360.0)
# stirlerr(n/2) for n = 0..30 (mpmath, 50 digits); stirlerr(0) is a placeholder.
_STIRLERR_HALVES = (
    0.0, 0.15342640972002736, 0.08106146679532726, 0.05481412105191765,
    0.0413406959554093, 0.03316287351993629, 0.02767792568499834, 0.023746163656297496,
    0.020790672103765093, 0.018488450532673187, 0.016644691189821193, 0.015134973221917378,
    0.013876128823070748, 0.012810465242920227, 0.01189670994589177, 0.011104559758206917,
    0.010411265261972096, 0.009799416126158804, 0.009255462182712733, 0.008768700134139386,
    0.00833056343336287, 0.00793411456431402, 0.007573675487951841, 0.007244554301320383,
    0.00694284010720953, 0.006665247032707682, 0.006408994188004207, 0.006171712263039458,
    0.0059513701127588475, 0.0057462165130101155, 0.005554733551962801,
)


def stirlerr(n: float) -> float:
    """log Gamma(n + 1) - log(sqrt(2 pi n) (n/e)^n), Stirling's error, for n > 0.

    Past n = 15 it is Stirling's series, within 1e-15 relative.  Up to 15 a
    half-integer n is looked up, and any other n is the difference of
    math.lgamma and the logs, within 1e-14 absolute (50-digit mpmath).
    """
    if n > 15.0:
        nn = n * n
        acc = _STIRLING_SERIES[-1]
        for c in _STIRLING_SERIES[-2::-1]:
            acc = c - acc / nn
        return acc / n
    twice = n + n
    if twice == int(twice):
        return _STIRLERR_HALVES[int(twice)]
    return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _HALF_LOG_2PI


def bd0(x: float, m: float) -> float:
    """The deviance term x log(x/m) + m - x for x, m > 0.

    Where |x - m| < (x + m)/4 it is the series
    (x - m) v + 2x (v^3/3 + v^5/5 + ...) with v = (x - m)/(x + m), which
    keeps the digits the direct form cancels near x = m.  Loader switches
    at (x + m)/10, where the direct form still cancels 9 digits in 10;
    from (x + m)/4 it cancels at most 4 in 5, for at most 13 series terms.
    Where x + m passes a double it is twice bd0(x/2, m/2).
    """
    if x + m == math.inf:
        # an infinite m is infinitely far from x: halving would never end
        return 2.0 * bd0(0.5 * x, 0.5 * m) if m < math.inf else math.inf
    if abs(x - m) < 0.25 * (x + m):
        v = (x - m) / (x + m)
        s = (x - m) * v
        ej = 2.0 * x * v
        v2 = v * v
        j = 3.0
        while True:
            ej *= v2
            s_next = s + ej / j
            if s_next == s:
                return s
            s = s_next
            j += 2.0
    ratio = x / m
    log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else math.log(x) - math.log(m)
    return x * log_ratio + m - x


def log_gamma_front(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)) for a, x > 0, as
    1/2 log(a / (2 pi)) - stirlerr(a) - bd0(a, x)."""
    return 0.5 * math.log(a) - _HALF_LOG_2PI - stirlerr(a) - bd0(a, x)


def log_beta_front(a: float, b: float, x: float, y: float) -> float:
    """log(x^a y^b / B(a, b)) for a, b > 0 and 0 < x < 1 with y = 1 - x, as
    1/2 log(a b / (2 pi (a + b))) + stirlerr(a + b) - stirlerr(a) - stirlerr(b)
    - bd0(a, (a + b) x) - bd0(b, (a + b) y).

    Where the doubles x and y do not sum to 1 exactly, the form adds
    (a + b)(1 - x - y), which to first order makes it the front factor of
    the x or the y that is exact.
    """
    n = a + b
    return (0.5 * (math.log(a) + math.log(b / n)) - _HALF_LOG_2PI
            + stirlerr(n) - stirlerr(a) - stirlerr(b) - bd0(a, n * x) - bd0(b, n * y))


def _gamma_tails(a: float, x: float) -> tuple[float, float]:
    """(P(a, x), Q(a, x)) for a, x > 0, every incomplete gamma value the
    package uses: at a = 1 they are 1 - e^-x and e^-x, and elsewhere
    _inc_gamma's routes, Temme's expansion on its band and off it the
    series or the fraction behind log_gamma_front's factor."""
    if a == 1.0:
        return -math.expm1(-x), math.exp(-x)
    return _inc_gamma(a, x)


def _beta_tails(x: float, y: float, a: float, b: float) -> tuple[float, float]:
    """(I_x(a, b), I_y(b, a)) for a, b > 0 and 0 < x < 1 with y = 1 - x,
    every incomplete beta value the package takes with the front factor of
    log_beta_front: at b = 1 they are x^a and 1 - x^a (log x from y, or
    from x where y rounds to 1), at a = 1 they are 1 - y^b and y^b, and
    elsewhere _inc_beta's fractions."""
    if b == 1.0:
        return x ** a, -math.expm1(a * (math.log1p(-y) if y < 1.0 else math.log(x)))
    if a == 1.0:
        return -math.expm1(b * math.log1p(-x)), y ** b
    return _inc_beta(x, y, a, b, log_beta_front(a, b, x, y))


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    if not _is_number(x):
        raise DomainError(f"std_normal_cdf requires a finite real, got {x!r}")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
