"""Poisson and negative-binomial tails against exact and 60-digit references.

Both families take each outer tail from a regularized incomplete function:
P(X <= k) = Q(k + 1, lambda) and P(X >= k) = P(k, lambda) for the Poisson,
P(X <= k) = I_p(r, k + 1) and P(X >= k) = I_{1-p}(k, r) for the negative
binomial.  These checks hold them to each family's `abs_error_bound` at
every size decade, to the paper's witness rays, whose tails are
elementary, and to the rule that a lattice point at exactly y standard
deviations belongs to the tail.
"""

import math

import mpmath
import pytest

import anticonc as ac
from anticonc.errors import DomainError

DIGITS = 60
Y_PANEL = (0.5, 1.0, 2.0, 10.0)


def _lattice_ends(ps, y):
    """(largest k of the lower tail, smallest k of the upper tail), placed by
    the double moments as `tail_probability` places them.

    The decimal a law is written in can put a point exactly at y*sigma
    (k = 0 of neg_binomial(2.5, 0.9) at y = 0.5, k = 100 of
    neg_binomial(1000, 0.9) at y = 1), where the double nearest the decimal
    moves it by about 1e-16 sigma, and the rounding of mu - y*sigma puts it
    on either side.  These panels check the tails of given lattice ends;
    test_poisson_lattice_points_at_exactly_y_sigma_count checks the rule.
    """
    m = ac.moments(ps)
    half = y * math.sqrt(m.variance)
    return math.floor(m.mean - half), math.ceil(m.mean + half)


def poisson_tail_mp(lam, y):
    """Q(k + 1, lambda) + 1 - Q(k', lambda) from mpmath's regularized gammainc."""
    with mpmath.workdps(DIGITS):
        lo, hi = _lattice_ends(ac.poisson(lam), y)
        lam = mpmath.mpf(lam)
        lower = mpmath.gammainc(lo + 1, lam, mpmath.inf, regularized=True) if lo >= 0 else 0
        return lower + 1 - mpmath.gammainc(hi, lam, mpmath.inf, regularized=True)


def _inc_beta_mp(x, a, b):
    """I_x(a, b) = x^a (1-x)^b / (a B(a, b)) 2F1(a + b, 1; a + 1; x) up to the
    mean a/(a + b), and 1 - I_{1-x}(b, a) past it, where that series converges
    fast.  mpmath's own betainc stops short of 60 digits at these sizes."""
    if x > a / (a + b):
        return 1 - _inc_beta_mp(1 - x, b, a)
    front = mpmath.exp(a * mpmath.log(x) + b * mpmath.log1p(-x) - mpmath.log(a)
                       - mpmath.log(mpmath.beta(a, b)))
    return front * mpmath.hyp2f1(a + b, 1, a + 1, x, maxterms=10**7)


def neg_binomial_tail_mp(r, p, y):
    """I_p(r, k + 1) + I_{1-p}(k', r) at 60 digits, with 1 - p exact."""
    with mpmath.workdps(DIGITS):
        lo, hi = _lattice_ends(ac.neg_binomial(r, p), y)
        r, p = mpmath.mpf(r), mpmath.mpf(p)
        q = 1 - p
        lower = _inc_beta_mp(p, r, lo + 1) if lo >= 0 else 0
        return lower + _inc_beta_mp(q, hi, r)


def _within_bound(got, want):
    return abs(mpmath.mpf(got.probability) - want) <= got.abs_error_bound


@pytest.mark.parametrize("y", Y_PANEL)
@pytest.mark.parametrize("decade", range(9))
def test_poisson_decades_within_the_bound(decade, y):
    # the pmf sum was off by 8.8e-12 at 10^4, 5.1e-8 at 10^8, and raised
    # InternalError at 10^8 with y = 10
    lam = 10.0 ** decade
    got = ac.tail_probability(ac.poisson(lam), y)
    assert got.method == "special-function"
    assert _within_bound(got, poisson_tail_mp(lam, y))


@pytest.mark.parametrize("y", Y_PANEL)
@pytest.mark.parametrize("p", [0.01, 0.3, 0.9])
@pytest.mark.parametrize("r", [1.0, 2.5, 100.0, 1000.0])
def test_neg_binomial_panel_within_the_bound(r, p, y):
    # the pmf sum was off by 5.2e-12 at (1000, 0.01) and lost whole y = 10
    # tails; the fraction of _beta_cf alone was off by 1.2e-13 there
    got = ac.tail_probability(ac.neg_binomial(r, p), y)
    assert got.method == "special-function"
    assert _within_bound(got, neg_binomial_tail_mp(r, p, y))


@pytest.mark.parametrize("y,ks", [(1.0, (2, 6)), (2.0, (0, 8))])
def test_poisson_lattice_points_at_exactly_y_sigma_count(y, ks):
    # Poisson(4): mu = 4 and sigma = 2, so k = 2 and 6 sit at y = 1, and
    # k = 0 and 8 at y = 2
    with mpmath.workdps(DIGITS):
        lo, hi = ks

        def pmf(k):
            return mpmath.exp(-4) * mpmath.mpf(4) ** k / mpmath.factorial(k)
        inclusive = 1 - mpmath.fsum(pmf(k) for k in range(lo + 1, hi))
        exclusive = inclusive - pmf(lo) - pmf(hi)
    got = ac.tail_probability(ac.poisson(4.0), y)
    assert _within_bound(got, inclusive)
    assert not _within_bound(got, exclusive)


@pytest.mark.parametrize("ps", [ac.poisson(4.0), ac.poisson(3.7e5), ac.neg_binomial(2.5, 0.4),
                                ac.neg_binomial(1.0, 0.3), ac.neg_binomial(100.0, 0.01)],
                         ids=lambda ps: f"{ps.family.value}{dict(ps.params)}")
def test_cdf_is_the_lower_tail(ps):
    m = ac.moments(ps)
    sd = math.sqrt(m.variance)
    for y in (0.5, 1.0, 2.0):
        k = math.floor(m.mean - y * sd)
        if k < 0:
            continue
        with mpmath.workdps(DIGITS):
            if ps.family is ac.FamilyId.POISSON:
                want = mpmath.gammainc(k + 1, mpmath.mpf(ps["lambda"]), mpmath.inf,
                                       regularized=True)
            else:
                want = _inc_beta_mp(mpmath.mpf(ps["p"]), mpmath.mpf(ps["r"]), k + 1)
        got = ac.cdf(ps, float(k))
        assert abs(mpmath.mpf(got) - want) <= 1e-13
        # a step function, right-continuous at each atom
        assert ac.cdf(ps, k + 0.5) == got
        assert ac.cdf(ps, math.nextafter(float(k), -math.inf)) < got
    assert ac.cdf(ps, -0.5) == 0.0


# the witness walk halves t at most 200 times from 0.5, so it certifies down to
# about 1e-57 (200 steps, bisection included); the ray tails are checked to 1e-300
RAY_EPSILONS = [10.0 ** -k for k in (1, 2, 3, 4, 6, 8, 10, 12, 14, 15, 16, 20, 30, 50, 55)]
RAY_POINTS = [10.0 ** -k for k in range(1, 301)]


def _check_ray_certificate(w, true_tail):
    """The certificate's true tail is at most eps, and its achieved tail is
    the true tail within 1e-15 relative."""
    assert true_tail <= w.epsilon, w
    assert abs(w.achieved_tail - true_tail) <= 1e-15 * true_tail, w


@pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
def test_poisson_ray_certificates_are_sound(y):
    for eps in RAY_EPSILONS:
        w = ac.witness_parameter("poisson", y, eps)
        _check_ray_certificate(w, poisson_tail_mp(w.params["lambda"], y))


def test_poisson_certificate_at_1e_14_is_sound():
    # 1 - inner certified lambda = 1.066e-14, whose tail 1.066e-14 is above eps
    w = ac.witness_parameter("poisson", 1.0, 1e-14)
    assert poisson_tail_mp(w.params["lambda"], 1.0) <= 1e-14


@pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
def test_poisson_ray_tail_is_one_minus_e_to_the_minus_lambda(y):
    # from lambda = 0.1 on, 1 is the only point of the tail: 1 - e^-lambda
    for lam in RAY_POINTS:
        got = ac.tail_probability(ac.poisson(lam), y).probability
        with mpmath.workdps(DIGITS):
            want = -mpmath.expm1(-mpmath.mpf(lam))
        assert abs(got - want) <= 1e-15 * want, lam


@pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
def test_neg_binomial_ray_certificates_are_sound(y):
    # a double holds no p between 1 - 2^-53 and 1, so the ray r = 1, p = 1 - t
    # ends there and every eps below 2^-53 is refused
    for eps in RAY_EPSILONS:
        if eps < 2.0 ** -53:
            with pytest.raises(DomainError, match="p = 1 is degenerate"):
                ac.witness_parameter("neg-binomial", y, eps)
            continue
        w = ac.witness_parameter("neg-binomial", y, eps)
        _check_ray_certificate(w, neg_binomial_tail_mp(1.0, w.params["p"], y))


@pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
def test_neg_binomial_ray_tail_is_one_minus_p(y):
    # from t = 0.1 on, 1 is the only point of the tail of neg_binomial(1, 1 - t),
    # whose mass 1 - p is exact in doubles from p = 1/2
    for t in RAY_POINTS[:16]:
        ps = ac.neg_binomial(1.0, 1.0 - t)
        assert ac.tail_probability(ps, y).probability == 1.0 - ps["p"], t
