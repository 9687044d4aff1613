"""Exact and high-precision references the tests share.

Each reference is written once here and imported by every test module
that uses it.  None calls into `anticonc` beyond the law constructors and
`moments`, whose double values place the lattice ends as
`tail_probability` places them.
"""

import math
from fractions import Fraction

import mpmath

import anticonc as ac


def ends(ps, y):
    """(mu - y*sigma, mu + y*sigma) from the double moments, rounded as
    `tail_probability` rounds them."""
    m = ac.moments(ps)
    half = y * math.sqrt(m.variance)
    return m.mean - half, m.mean + half


def lattice_ends(ps, y):
    """(largest k of the lower tail, smallest k of the upper tail), placed by
    the double moments as `tail_probability` places them.

    The decimal a law is written in can put a point exactly at y*sigma
    (k = 0 of neg_binomial(2.5, 0.9) at y = 0.5, k = 100 of
    neg_binomial(1000, 0.9) at y = 1), where the double nearest the decimal
    moves it by about 1e-16 sigma, and the rounding of mu - y*sigma puts it
    on either side.  The panels that use these ends check the tails of given
    lattice ends; test_poisson_lattice_points_at_exactly_y_sigma_count
    checks the rule.
    """
    lo, hi = ends(ps, y)
    return math.floor(lo), math.ceil(hi)


def inc_beta(x, a, b):
    """I_x(a, b) = x^a (1-x)^b / (a B(a, b)) 2F1(a + b, 1; a + 1; x) up to the
    mean a/(a + b), and 1 - I_{1-x}(b, a) past it, where that series converges
    fast (DLMF 8.17.8).  Its terms are all positive: mpmath's own betainc
    cancels its way to NoConvergence from beta(10^4, 10^4), and stops short of
    60 digits at the negative binomial's sizes.  The caller sets the precision."""
    if x > a / (a + b):
        return 1 - inc_beta(1 - x, b, a)
    front = mpmath.exp(a * mpmath.log(x) + b * mpmath.log1p(-x) - mpmath.log(a)
                       - mpmath.log(mpmath.beta(a, b)))
    return front * mpmath.hyp2f1(a + b, 1, a + 1, x, maxterms=10**7)


def hypergeometric_tail(M, N, n, y):
    """P(|X - mu| >= y sigma) of Hypergeometric(M, N, n) as an exact Fraction:
    mu, sigma^2 and the double y are exact rationals, and the inner sum runs
    over exact integer binomial coefficients."""
    mean = Fraction(n * M, N)
    var = Fraction(n * M * (N - M) * (N - n), N * N * (N - 1))
    y2 = Fraction(y) ** 2
    inner = sum(math.comb(M, k) * math.comb(N - M, n - k)
                for k in range(n + 1) if (k - mean) ** 2 < y2 * var)
    return 1 - Fraction(inner, math.comb(N, n))


def binomial_tail(n, p, y):
    """P(|X - mu| >= y sigma) of Binomial(n, p) at 50 digits: one minus the
    pmf sum strictly between the lattice ends, with the double p exact."""
    lo, hi = lattice_ends(ac.binomial(n, p), y)
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        return 1 - mpmath.fsum(mpmath.binomial(n, k) * p ** k * (1 - p) ** (n - k)
                               for k in range(max(lo + 1, 0), min(hi, n + 1)))


LATTICE_DIGITS = 60


def poisson_tail_mp(lam, y):
    """Q(k + 1, lambda) + P(k', lambda) from mpmath's regularized gammainc.

    Below lambda = 1 the upper tail P(k', lambda), about lambda on the witness
    ray, is taken directly: 1 - Q(k', lambda) keeps only 60 + log10(lambda)
    digits.  From lambda = 1 on it is 1 - Q, since mpmath's lower series stops
    converging past lambda = 10^6.
    """
    with mpmath.workdps(LATTICE_DIGITS):
        lo, hi = lattice_ends(ac.poisson(lam), y)
        lam = mpmath.mpf(lam)
        lower = mpmath.gammainc(lo + 1, lam, mpmath.inf, regularized=True) if lo >= 0 else 0
        if lam < 1:
            return lower + mpmath.gammainc(hi, 0, lam, regularized=True)
        return lower + 1 - mpmath.gammainc(hi, lam, mpmath.inf, regularized=True)


def neg_binomial_tail_mp(r, p, y):
    """I_p(r, k + 1) + I_{1-p}(k', r) at 60 digits, with 1 - p exact."""
    with mpmath.workdps(LATTICE_DIGITS):
        lo, hi = lattice_ends(ac.neg_binomial(r, p), y)
        r, p = mpmath.mpf(r), mpmath.mpf(p)
        q = 1 - p
        lower = inc_beta(p, r, lo + 1) if lo >= 0 else 0
        return lower + inc_beta(q, hi, r)


GAMMA_DIGITS = 40
# standardized knots the quadrature splits at, so no piece spans a density
# that changes by more than about e^-60 across it
_LADDER = (-40, -30, -20, -14, -10, -7, -5, -3, -2, -1, 0, 1, 2, 3, 5, 7, 10, 14, 20, 30, 40)


def gamma_lower_mp(a, xs):
    """P(a, x) for each x of xs, at 40 digits.

    The density of Gamma(a) in u = (t - a)/sqrt(a) is integrated by
    Gauss-Legendre piece by piece, from 40 below the least u (or from
    t = 0), and summed up to each x.  Q is 1 - P, exact at 40 digits in
    absolute terms.
    """
    with mpmath.workdps(GAMMA_DIGITS):
        a = mpmath.mpf(a)
        r = mpmath.sqrt(a)
        log_top = mpmath.log(r) + (a - 1) * mpmath.log(a) - a - mpmath.loggamma(a)

        def density(u):
            if u <= -r:
                return mpmath.mpf(0)
            return mpmath.exp(log_top + (a - 1) * mpmath.log1p(u / r) - u * r)

        us = [(mpmath.mpf(x) - a) / r for x in xs]
        start = max(-r, min(us) - 40)
        knots = sorted({start, *us, *(mpmath.mpf(k) for k in _LADDER
                                      if start < k < max(us))})
        below = {knots[0]: mpmath.mpf(0)}
        for left, right in zip(knots, knots[1:]):
            below[right] = below[left] + mpmath.quad(density, [left, right],
                                                     method="gauss-legendre")
        return [below[u] for u in us]


def gamma_poisson_tail_mp(ps, y):
    """P(|X - mu| >= y sigma) at 40 digits, with the ends placed by the
    double moments as tail_probability places them."""
    with mpmath.workdps(GAMMA_DIGITS):
        if ps.family is ac.FamilyId.GAMMA:
            p_lo, p_hi = gamma_lower_mp(ps.params["alpha"], list(ends(ps, y)))
            return p_lo + 1 - p_hi
        # P(X <= k) = Q(k + 1, lambda) and P(X >= k') = P(k', lambda)
        lam = ps.params["lambda"]
        k, k_up = lattice_ends(ps, y)
        return 1 - gamma_lower_mp(k + 1.0, [lam])[0] + gamma_lower_mp(float(k_up), [lam])[0]
