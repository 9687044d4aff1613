"""Reference values for the benchmark's checks, computed apart from anticonc.

Nothing here imports the package under test.  Tails come from
`scipy.stats` (and `scipy.special.stdtr` for Student's t), or from
`mpmath` at 50 significant digits where a double would overflow or
cancel, and for every witness certificate; the Student's-t cutoff comes
from exact rationals.

Laws are passed as a family name in the package's wire spelling
("neg-binomial", "log-normal", ...) plus a mapping of its parameters.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

import mpmath as mp
import numpy as np
from scipy import special, stats

DIGITS = 50

DISCRETE = frozenset({"binomial", "poisson", "neg-binomial", "hypergeometric"})

# Discrete laws whose central interval spans fewer lattice points than this
# (the laws along the witness rays) are summed exactly in mpmath; wider ones
# use scipy's cdf/sf, which agree with the exact sums to 1e-15 on the panels.
_MP_SPAN = 20.0

_ZERO, _ONE = mp.mpf(0), mp.mpf(1)


# --- Student's t ------------------------------------------------------------

def _above_cutoff(y2: Fraction, n: int) -> bool:
    """y^2 < (3n^2 - 14n + 16) / (2n^2 - 6n + 3), exactly (denominator > 0 for n >= 3)."""
    return y2 * (2 * n * n - 6 * n + 3) < 3 * n * n - 14 * n + 16


def cutoff_dof(y: float) -> int:
    """Smallest n >= 3 with y^2 below the cutoff ratio, from the quadratic in n.

    The condition is (3 - 2y^2) n^2 + (6y^2 - 14) n + (16 - 3y^2) > 0; its
    larger root, taken in floating point, is corrected to the exact integer
    boundary with rational arithmetic on the double y.
    """
    y2 = Fraction(y) ** 2
    if not 0 < y2 < Fraction(3, 2):
        raise ValueError(f"cutoff needs 0 < y < sqrt(6)/2, got {y!r}")
    a, b, c = float(3 - 2 * y2), float(6 * y2 - 14), float(16 - 3 * y2)
    disc = b * b - 4.0 * a * c
    n = 3 if disc < 0.0 else max(3, math.floor((-b + math.sqrt(disc)) / (2.0 * a)))
    while n > 3 and _above_cutoff(y2, n - 1):
        n -= 1
    while not _above_cutoff(y2, n):
        n += 1
    return n


_CHUNK = 1 << 16


def a_student_t(y: float) -> tuple[float, int, int]:
    """(A(y), n0, argmax_n) from a stdtr scan over n = 3 .. 2*n0 + 400."""
    n0 = cutoff_dof(y)
    best, best_n = -math.inf, -1
    stop = 2 * n0 + 401
    for start in range(3, stop, _CHUNK):
        n = np.arange(start, min(start + _CHUNK, stop), dtype=float)
        f = special.stdtr(n, y * np.sqrt(n / (n - 2.0)))
        i = int(np.argmax(f))
        if f[i] > best:
            best, best_n = float(f[i]), int(n[i])
    return 2.0 - 2.0 * best, n0, best_n


def student_t_cdf(n: int, x: float) -> float:
    return float(special.stdtr(n, x))


# --- standardized tails -----------------------------------------------------

def scipy_law(family: str, p: Mapping):
    """The frozen scipy.stats law matching the package's parametrization.

    Parameters may be scalars or numpy arrays of one shape (a whole grid).
    """
    if family == "uniform":
        return stats.uniform(loc=p["a"], scale=np.subtract(p["b"], p["a"]))
    if family == "exponential":
        return stats.expon(scale=np.divide(1.0, p["lambda"]))
    if family == "gaussian":
        return stats.norm(p["mu"], p["sigma"])
    if family == "student-t":
        return stats.t(p["n"])
    if family == "binomial":
        return stats.binom(p["n"], p["p"])
    if family == "poisson":
        return stats.poisson(p["lambda"])
    if family == "neg-binomial":
        return stats.nbinom(p["r"], p["p"])
    if family == "hypergeometric":
        # scipy: population size, successes in it, draws
        return stats.hypergeom(p["N"], p["M"], p["n"])
    if family == "gamma":
        return stats.gamma(p["alpha"], scale=p["beta"])
    if family == "pareto":
        return stats.pareto(p["r"], scale=p["A"])
    if family == "weibull":
        return stats.weibull_min(p["alpha"],
                                 scale=np.power(p["lambda"], -1.0 / np.asarray(p["alpha"])))
    if family == "log-normal":
        return stats.lognorm(p["sigma"], scale=np.exp(p["alpha"]))
    if family == "beta":
        return stats.beta(p["p"], p["q"])
    raise ValueError(f"unknown family {family!r}")


def tail_scipy(family: str, p: Mapping, y: float):
    """P(|X - mu| >= y sigma) from scipy's moments, cdf and sf (lattice points inclusive).

    Returns a float for scalar parameters and an array for array parameters.
    """
    law = scipy_law(family, p)
    with np.errstate(all="ignore"):
        mean, var = law.stats("mv")
    sd = np.sqrt(var)
    lo, hi = mean - y * sd, mean + y * sd
    if family in DISCRETE:
        out = law.cdf(np.floor(lo)) + law.sf(np.ceil(hi) - 1)
    else:
        out = law.cdf(lo) + law.sf(hi)
    return float(out) if np.ndim(out) == 0 else out


def _mp_moments_cdf_sf(family: str, p: Mapping[str, float]):
    """(mean, variance, cdf, sf) of a continuous law as mpmath objects."""
    f = {k: mp.mpf(v) for k, v in p.items()}
    if family == "uniform":
        a, b = f["a"], f["b"]

        def cdf(x):
            return min(_ONE, max(_ZERO, (x - a) / (b - a)))
        return (a + b) / 2, (b - a) ** 2 / 12, cdf, lambda x: 1 - cdf(x)
    if family == "exponential":
        lam = f["lambda"]
        return (1 / lam, 1 / lam ** 2,
                lambda x: -mp.expm1(-lam * x) if x > 0 else _ZERO,
                lambda x: mp.exp(-lam * x) if x > 0 else _ONE)
    if family == "gaussian":
        mu, s = f["mu"], f["sigma"]
        return (mu, s ** 2, lambda x: mp.ncdf((x - mu) / s),
                lambda x: mp.ncdf((mu - x) / s))
    if family == "gamma":
        a, b = f["alpha"], f["beta"]
        return (a * b, a * b * b,
                lambda x: mp.gammainc(a, 0, x / b, regularized=True) if x > 0 else _ZERO,
                lambda x: mp.gammainc(a, x / b, mp.inf, regularized=True) if x > 0 else _ONE)
    if family == "beta":
        a, b = f["p"], f["q"]
        s = a + b

        def cdf(x):
            if x <= 0:
                return _ZERO
            return _ONE if x >= 1 else mp.betainc(a, b, 0, x, regularized=True)

        def sf(x):
            if x <= 0:
                return _ONE
            return _ZERO if x >= 1 else mp.betainc(a, b, x, 1, regularized=True)
        return a / s, a * b / (s * s * (s + 1)), cdf, sf
    if family == "pareto":
        r, A = f["r"], f["A"]
        return (r * A / (r - 1), r * A * A / ((r - 2) * (r - 1) ** 2),
                lambda x: -mp.expm1(r * mp.log(A / x)) if x > A else _ZERO,
                lambda x: (A / x) ** r if x > A else _ONE)
    if family == "weibull":
        a, lam = f["alpha"], f["lambda"]
        scale = lam ** (-1 / a)
        g1, g2 = mp.gamma(1 + 1 / a), mp.gamma(1 + 2 / a)
        return (scale * g1, scale ** 2 * (g2 - g1 * g1),
                lambda x: -mp.expm1(-lam * x ** a) if x > 0 else _ZERO,
                lambda x: mp.exp(-lam * x ** a) if x > 0 else _ONE)
    if family == "log-normal":
        a, s = f["alpha"], f["sigma"]
        return (mp.exp(a + s * s / 2), mp.expm1(s * s) * mp.exp(2 * a + s * s),
                lambda x: mp.ncdf((mp.log(x) - a) / s) if x > 0 else _ZERO,
                lambda x: mp.ncdf((a - mp.log(x)) / s) if x > 0 else _ONE)
    raise ValueError(f"no mpmath route for {family!r}")


def _mp_log_pmf(family: str, p: Mapping[str, float], k: int):
    if family == "binomial":
        n, q = int(p["n"]), mp.mpf(p["p"])
        return mp.log(mp.binomial(n, k)) + k * mp.log(q) + (n - k) * mp.log1p(-q)
    if family == "poisson":
        lam = mp.mpf(p["lambda"])
        return k * mp.log(lam) - lam - mp.loggamma(k + 1)
    if family == "neg-binomial":
        r, q = mp.mpf(p["r"]), mp.mpf(p["p"])
        return (mp.loggamma(r + k) - mp.loggamma(r) - mp.loggamma(k + 1)
                + r * mp.log(q) + k * mp.log1p(-q))
    if family == "hypergeometric":
        M, N, n = int(p["M"]), int(p["N"]), int(p["n"])
        return (mp.log(mp.binomial(M, k)) + mp.log(mp.binomial(N - M, n - k))
                - mp.log(mp.binomial(N, n)))
    raise ValueError(f"{family!r} is not discrete")


def _mp_discrete_moments(family: str, p: Mapping[str, float]):
    f = {k: mp.mpf(v) for k, v in p.items()}
    if family == "binomial":
        return f["n"] * f["p"], f["n"] * f["p"] * (1 - f["p"])
    if family == "poisson":
        return f["lambda"], f["lambda"]
    if family == "neg-binomial":
        q = 1 - f["p"]
        return f["r"] * q / f["p"], f["r"] * q / f["p"] ** 2
    M, N, n = f["M"], f["N"], f["n"]
    return n * M / N, n * (M / N) * (1 - M / N) * (N - n) / (N - 1)


def _lattice_support(family: str, p: Mapping[str, float]) -> tuple[int, float]:
    if family == "binomial":
        return 0, int(p["n"])
    if family == "hypergeometric":
        M, N, n = int(p["M"]), int(p["N"]), int(p["n"])
        return max(0, n - (N - M)), min(M, n)
    return 0, math.inf


def tail_mp(family: str, p: Mapping[str, float], y: float) -> float:
    """P(|X - mu| >= y sigma) at 50 digits.

    Continuous laws add cdf(mu - y sigma) and sf(mu + y sigma); discrete laws
    take one minus the exact sum of the pmf strictly inside the interval.
    """
    with mp.workdps(DIGITS):
        yy = mp.mpf(y)
        if family in DISCRETE:
            mean, var = _mp_discrete_moments(family, p)
            half = yy * mp.sqrt(var)
            kmin, kmax = _lattice_support(family, p)
            k0 = max(kmin, int(mp.floor(mean - half)) + 1)
            k1 = min(kmax, int(mp.ceil(mean + half)) - 1)
            inner = mp.fsum(mp.exp(_mp_log_pmf(family, p, k)) for k in range(k0, k1 + 1)
                            if abs(k - mean) < half)
            return float(1 - inner)
        mean, var, cdf, sf = _mp_moments_cdf_sf(family, p)
        sd = mp.sqrt(var)
        return float(cdf(mean - yy * sd) + sf(mean + yy * sd))


def tail(family: str, p: Mapping[str, float], y: float) -> float:
    """The reference tail: scipy where a double suffices, mpmath at 50 digits
    for the Weibull and log-normal laws (whose moments overflow a double along
    their rays) and for narrow lattices."""
    if family in ("weibull", "log-normal"):
        return tail_mp(family, p, y)
    if family in DISCRETE:
        with np.errstate(all="ignore"):
            var = float(scipy_law(family, p).var())
        if 2.0 * y * math.sqrt(var) < _MP_SPAN:
            return tail_mp(family, p, y)
    return tail_scipy(family, p, y)


# --- the positive closed forms, from the paper ------------------------------

def a_uniform(y: float) -> float:
    return max(0.0, 1.0 - y / math.sqrt(3.0))


def a_exponential(y: float) -> float:
    if y < 1.0:
        return 1.0 - math.exp(-(1.0 - y)) + math.exp(-(1.0 + y))
    return math.exp(-(1.0 + y))


def a_gaussian(y: float) -> float:
    return float(2.0 * special.ndtr(-y))


# --- parameter grids --------------------------------------------------------

def expand_grid(family: str, spec: Mapping) -> dict[str, np.ndarray]:
    """Every point of a grid given in the package's JSON wire form, as arrays.

    Derived axis names are completed as the package documents them: "b"
    alone means the interval (-b, b), "q" means p = 1 - q, "r_excess"
    means r = 2 + r_excess, and a hypergeometric "N" alone means M = N - 1.
    """
    names = sorted(spec["axes"])
    values = []
    for name in names:
        axis = spec["axes"][name]
        space = np.geomspace if axis["scale"] == "logarithmic" else np.linspace
        v = space(axis["lo"], axis["hi"], axis["points"])
        if axis.get("integer", False):
            v = np.unique(np.rint(v).astype(np.int64))
        values.append(v)
    pts = {name: m.ravel() for name, m in zip(names, np.meshgrid(*values, indexing="ij"))}
    size = pts[names[0]].size
    for name, v in spec.get("fixed", {}).items():
        pts[name] = np.full(size, v)
    if family == "uniform" and "a" not in pts:
        pts["a"] = -pts["b"]
    if family == "neg-binomial" and "q" in pts:
        pts["p"] = 1.0 - pts.pop("q")
    if family == "pareto" and "r_excess" in pts:
        pts["r"] = 2.0 + pts.pop("r_excess")
    if family == "hypergeometric" and "M" not in pts:
        pts["M"] = pts["N"] - 1
    return pts


def grid_min_tail(family: str, spec: Mapping, y: float) -> float:
    """Smallest reference tail over the grid (mpmath where moments overflow a double)."""
    pts = expand_grid(family, spec)
    if family in ("weibull", "log-normal"):
        size = len(next(iter(pts.values())))
        return min(tail_mp(family, {k: float(v[i]) for k, v in pts.items()}, y)
                   for i in range(size))
    return float(np.min(tail_scipy(family, pts, y)))
