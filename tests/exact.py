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
