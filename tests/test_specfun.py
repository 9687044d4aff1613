"""Kernel checks: anchors with independently derived values, identity
panels, and domain errors.

Expected literals were computed with mpmath (40 digits) and scipy's
special functions; scipy serves as the in-test oracle where a closed
form is not available by hand.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import special as sps

from anticonc import specfun
from anticonc.errors import ConvergenceError, DomainError, InternalError
from anticonc.specfun import (
    bd0,
    clamp_probability,
    gauss_2f1,
    log_beta_front,
    log_gamma,
    log_gamma_front,
    reg_inc_beta,
    reg_inc_gamma_lower,
    std_normal_cdf,
    stirlerr,
)


class TestLogGamma:
    def test_gamma_of_one_is_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_half_integer_anchor(self):
        # Gamma(1/2) = sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_factorial_anchor(self):
        # 10! by integer multiplication
        fact = 1
        for k in range(2, 11):
            fact *= k
        assert log_gamma(11.0) == pytest.approx(math.log(fact), rel=1e-14)

    @pytest.mark.parametrize("x", [1e-6, 1e-3, 0.2, 0.7, 1.0, 2.5, 17.0, 1e3, 1e6])
    def test_matches_scipy_across_range(self, x):
        want = float(sps.gammaln(x))
        assert abs(log_gamma(x) - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("x", [1e-310, 5e-324])
    def test_subnormal_arguments_stay_finite(self, x):
        # the reflection formula divided by a subnormal sine and gave inf
        want = mpmath.loggamma(mpmath.mpf(x))
        assert abs(log_gamma(x) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain_errors(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestLogGammaHalfRatio:
    @pytest.mark.parametrize("a", [0.5, 1.5, 10.0, 24.5, 25.0, 40.0, 500.0, 5e4, 5e6, 1e15])
    def test_matches_mpmath(self, a):
        # log Gamma(a + 1/2) - log Gamma(a) at 60 digits; the difference of
        # two Lanczos values is off by 5e-13 at a = 500 and 2e-9 at 5e6,
        # the Stirling series used from a = 25 by under 1e-15
        with mpmath.workdps(60):
            want = mpmath.loggamma(mpmath.mpf(a) + 0.5) - mpmath.loggamma(a)
        tol = 1e-15 if a >= 25.0 else 2e-14
        assert abs(specfun.log_gamma_half_ratio(a) - float(want)) <= tol

    def test_under_the_switch_it_is_the_lanczos_difference(self):
        for a in (0.5, 1.5, 2.5, 24.5):
            assert specfun.log_gamma_half_ratio(a) == log_gamma(a + 0.5) - log_gamma(a)

    @pytest.mark.parametrize("a", [0.0, -0.25, -1e30])
    def test_a_not_positive_is_refused_under_its_own_name(self, a):
        with pytest.raises(DomainError, match="log_gamma_half_ratio requires a > 0"):
            specfun.log_gamma_half_ratio(a)


class TestGauss2F1:
    def test_z_zero_is_one(self):
        assert gauss_2f1(0.5, 2.0, 1.5, 0.0) == 1.0

    def test_binomial_identity_at_minus_one(self):
        # 2F1(a, b; a; z) = (1-z)^-b, so this is (1-(-1))^-2
        assert gauss_2f1(0.5, 2.0, 0.5, -1.0) == pytest.approx(0.25, rel=1e-13)

    def test_arctan_anchor(self):
        # x * 2F1(1/2, 1; 3/2; -x^2) = arctan(x) at x = 1
        assert gauss_2f1(0.5, 1.0, 1.5, -1.0) == pytest.approx(math.atan(1.0), rel=1e-13)

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 5.5])
    @pytest.mark.parametrize("z", [-4.0, -1.0, -0.5, 0.0, 0.5])
    @pytest.mark.parametrize("a", [0.6, 1.5, 3.25, 7.0])
    def test_binomial_identity_panel(self, a, b, z):
        want = (1.0 - z) ** (-b)
        assert gauss_2f1(a, b, a, z) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("y", [0.25, 0.5, 1.0, 1.2])
    @pytest.mark.parametrize("n", range(3, 51))
    def test_contiguous_relation_instance(self, n, y):
        z = -y * y / n
        lhs = (n + 1) / 2.0 * gauss_2f1(0.5, (n + 3) / 2.0, 1.5, z)
        rhs = (n / 2.0 * gauss_2f1(0.5, (n + 1) / 2.0, 1.5, z)
               + 0.5 * (1.0 - z) ** (-(n + 1) / 2.0))
        assert lhs == pytest.approx(rhs, rel=1e-11)

    @pytest.mark.parametrize("abc", [(0.5, 2.5, 1.75), (1.2, 3.4, 2.2), (0.3, 0.9, 4.0)])
    def test_symmetric_in_first_two_arguments(self, abc):
        a, b, c = abc
        for z in np.linspace(-8.0, 0.0, 9):
            z = float(z)
            lhs, rhs = gauss_2f1(a, b, c, z), gauss_2f1(b, a, c, z)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("z", [-25.0, -3.0, -1.0, -0.1, 0.3, 0.9])
    def test_matches_scipy_panel(self, z):
        for a, b, c in ((0.5, 2.0, 1.5), (0.5, 13.0, 1.5), (1.1, 0.4, 2.7)):
            want = float(sps.hyp2f1(a, b, c, z))
            assert gauss_2f1(a, b, c, z) == pytest.approx(want, rel=1e-11)

    def test_rejects_z_at_or_above_one(self):
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 1.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 1.0, 1.5, 2.0)

    def test_rejects_nonpositive_integer_c(self):
        for c in (0.0, -1.0, -7.0):
            with pytest.raises(DomainError):
                gauss_2f1(0.5, 1.0, c, -0.5)

    def test_max_terms_exhaustion_raises(self):
        # (1/2)_j / j! decays like j^(-1/2) and w^j stays near 1, so the series
        # is still far from converged at the 10**6-term cap
        with pytest.raises(ConvergenceError, match="within 1000000 terms"):
            gauss_2f1(0.5, 1.5, 1.5, 1.0 - 1e-12)


class TestIncompleteGamma:
    def test_zero_at_origin(self):
        for a in (0.3, 1.0, 7.5):
            assert reg_inc_gamma_lower(a, 0.0) == 0.0

    def test_unit_exponential_anchor(self):
        assert reg_inc_gamma_lower(1.0, 1.0) == pytest.approx(1 - math.exp(-1), rel=1e-13)

    def test_chi_square_anchor(self):
        # P(1/2, 1/2) equals P(|N(0,1)| <= 1) = erf(1/sqrt(2))
        want = math.erf(1.0 / math.sqrt(2.0))
        assert reg_inc_gamma_lower(0.5, 0.5) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("a", [1e-5, 0.1, 0.9, 1.0, 2.5, 40.0, 300.0])
    def test_matches_scipy(self, a):
        for x in (1e-8, 0.1, 0.5, 1.0, 3.0, 41.0, 250.0, 400.0):
            assert reg_inc_gamma_lower(a, x) == pytest.approx(
                float(sps.gammainc(a, x)), abs=1e-12)

    def test_nondecreasing_in_x(self):
        for a in (0.2, 1.0, 6.0):
            vals = [reg_inc_gamma_lower(a, float(x)) for x in np.linspace(0, 20, 81)]
            assert all(u <= v + 1e-15 for u, v in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_gamma_lower(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_gamma_lower(1.0, -0.1)


class TestIncompleteBeta:
    def test_endpoints(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_uniform_case(self):
        assert reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_power_law_case(self):
        # I_x(1, q) = 1 - (1-x)^q
        assert reg_inc_beta(0.3, 1.0, 2.0) == pytest.approx(0.51, abs=1e-13)

    @pytest.mark.parametrize("ab", [(0.5, 0.5), (2.0, 3.0), (1e-4, 1.0), (8.0, 0.3)])
    def test_matches_scipy(self, ab):
        a, b = ab
        for x in (1e-6, 0.1, 0.35, 0.5, 0.77, 1 - 1e-6):
            assert reg_inc_beta(x, a, b) == pytest.approx(
                float(sps.betainc(a, b, x)), abs=1e-12)

    def test_reflection_duality(self):
        for a, b in ((0.5, 0.5), (2.0, 3.0), (0.1, 7.0)):
            for x in np.linspace(0.01, 0.99, 33):
                x = float(x)
                total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_nondecreasing_in_x(self):
        for a, b in ((0.4, 2.0), (3.0, 0.7)):
            vals = [reg_inc_beta(float(x), a, b) for x in np.linspace(0, 1, 81)]
            assert all(u <= v + 1e-15 for u, v in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 1.0)

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
    def test_shapes_past_a_plus_b_1e6_are_refused(self, x):
        # at a = b = 1e100 BFRAC stalls into ConvergenceError after its 10^4
        # steps, and past a + b = 1e6 the closed forms at a or b = 1 lose digits
        with pytest.raises(DomainError, match=r"only for a \+ b <= 1e\+06, got a=1e\+100"):
            reg_inc_beta(x, 1e100, 1e100)

    def test_a_plus_b_of_1e6_is_still_answered(self):
        assert reg_inc_beta(0.5, 5e5, 5e5) == pytest.approx(0.5, abs=1e-9)


def _stirlerr_mp(n):
    n = mpmath.mpf(n)
    return mpmath.loggamma(n + 1) - (n + 0.5) * mpmath.log(n) + n - mpmath.log(2 * mpmath.pi) / 2


class TestLoaderFrontFactor:
    @pytest.mark.parametrize("n", [1.0, 2.0, 3.0, 7.0, 15.0, 16.0, 17.0, 100.0, 1e4, 1e9, 1e15,
                                   0.5, 2.5, 14.5, 15.5, 100.5, 1e6 + 0.5,
                                   1e-3, 0.037, 0.61, 1.3, 3.3, 9.99, 14.99, 15.01, 27.3, 86.2,
                                   205.9, 6180.5e3, 2.2e7, 3.7e12])
    def test_stirlerr_matches_mpmath(self, n):
        # past 15 Stirling's series, up to 15 a table at half-integers and
        # math.lgamma less the logs elsewhere, which cancel to 7e-15 absolute
        with mpmath.workdps(50):
            want = _stirlerr_mp(n)
        got = stirlerr(n)
        if n > 15.0 or (2 * n).is_integer():
            assert abs(got - want) <= 1e-15 * want
        else:
            assert abs(got - want) <= 1e-14

    @pytest.mark.parametrize("x", [1e-3, 0.8, 7.5, 1e3, 1e8, 1e15])
    @pytest.mark.parametrize("ratio", [0.9, 0.95, 0.999999, 1.0, 1.000001, 1.05, 1.1,
                                       1e-3, 0.5, 2.0, 1e3])
    def test_bd0_matches_mpmath(self, x, ratio):
        # x log(x/m) + m - x, with m = x / ratio
        m = x / ratio
        with mpmath.workdps(50):
            mx, mm = mpmath.mpf(x), mpmath.mpf(m)
            want = mx * mpmath.log(mx / mm) + mm - mx
        assert abs(bd0(x, m) - want) <= 5e-15 * want

    @pytest.mark.parametrize("x,m", [(1.7e308, 1e308), (1e308, 1.7e308), (1.7e308, 1.6e308),
                                     (1.79e308, 1.79e308)])
    def test_bd0_past_the_double_range_of_x_plus_m(self, x, m):
        # x + m overflows; the series once looped on nan there
        with mpmath.workdps(50):
            mx, mm = mpmath.mpf(x), mpmath.mpf(m)
            want = mx * mpmath.log(mx / mm) + mm - mx
        assert abs(bd0(x, m) - want) <= 5e-15 * want

    def test_bd0_keeps_the_digits_the_direct_form_cancels(self):
        x, m = 1e15, 1e15 / 1.000001
        with mpmath.workdps(50):
            mx, mm = mpmath.mpf(x), mpmath.mpf(m)
            want = mx * mpmath.log(mx / mm) + mm - mx
        direct = x * math.log(x / m) + m - x
        assert abs(direct - want) > 1e-9 * want
        assert abs(bd0(x, m) - want) <= 1e-15 * want

    @pytest.mark.parametrize("a,x", [(1.0, 1e-300), (3.0, 2.0), (0.01, 5.0), (40.5, 39.0),
                                     (1e4, 1.01e4), (1e8 + 1e5, 1e8)])
    def test_gamma_front_matches_mpmath(self, a, x):
        with mpmath.workdps(50):
            ma, mx = mpmath.mpf(a), mpmath.mpf(x)
            want = ma * mpmath.log(mx) - mx - mpmath.loggamma(ma)
        assert abs(log_gamma_front(a, x) - want) <= 1e-15 * max(1.0, abs(want))

    @pytest.mark.parametrize("a,b,x", [(1.0, 1.0, 0.3), (2.0, 3.0, 0.3), (2.5, 0.5, 0.99),
                                       (1000.0, 97428.0, 0.01), (1e5, 100.0, 0.999),
                                       (1e-3, 7.0, 1e-5)])
    def test_beta_front_matches_mpmath(self, a, b, x):
        y = 1.0 - x
        with mpmath.workdps(50):
            ma, mb, mx, my = (mpmath.mpf(v) for v in (a, b, x, y))
            want = ma * mpmath.log(mx) + mb * mpmath.log(my) - mpmath.log(mpmath.beta(ma, mb))
            # the deviance form adds (a + b)(1 - x - y), where the doubles x and
            # y = 1.0 - x need not sum to 1
            want += (ma + mb) * (1 - mx - my)
        assert abs(log_beta_front(a, b, x, y) - want) <= 1e-15 * max(1.0, abs(want))

    @pytest.mark.parametrize("a,b,x", [(2.0, 3.0, 0.3), (1e5, 100.0, 0.9991), (0.5, 40.0, 0.01),
                                       (7.0, 0.3, 0.97), (1.0, 2.5, 0.2), (3.5, 1.0, 0.6)])
    def test_beta_tails_are_complements_matching_scipy(self, a, b, x):
        lower, upper = specfun._beta_tails(x, 1.0 - x, a, b)
        assert lower + upper == pytest.approx(1.0, abs=2e-16)
        assert lower == pytest.approx(float(sps.betainc(a, b, x)), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("a,x", [(1.0, 1e-20), (1.0, 3.0), (5.0, 2.0), (40.0, 55.0),
                                     (1e6, 1e6 + 2e3)])
    def test_gamma_tails_are_complements_matching_scipy(self, a, x):
        lower, upper = specfun._gamma_tails(a, x)
        assert lower + upper == pytest.approx(1.0, abs=2e-16)
        assert lower == pytest.approx(float(sps.gammainc(a, x)), rel=1e-13, abs=1e-15)
        assert upper == pytest.approx(float(sps.gammaincc(a, x)), rel=1e-13, abs=1e-15)


def temme_coefficients(rows, cols):
    """(mu, g, c): lambda - 1 = mu(eta) to order cols + 2 rows, the
    pole-cancelling constants g_1..g_(rows-1), and the first cols Taylor
    coefficients of Temme's c_0..c_(rows-1), all in exact rationals.

    mu reverts eta^2/2 = mu - log(1 + mu) with mu ~ eta; differentiating
    gives mu mu' = eta (1 + mu), which fixes each coefficient in turn.
    c_0 = 1/mu - 1/eta and c_k = c'_(k-1)/eta + (-1)^k g_k/mu, where g_k is
    the constant that leaves c_k without a 1/eta pole.
    """
    n = cols + 2 * rows
    mu = [Fraction(0), Fraction(1)]
    for m in range(2, n + 2):
        known = sum(mu[i] * (m + 1 - i) * mu[m + 1 - i] for i in range(2, m))
        mu.append((mu[m - 1] - known) / (m + 1))
    # eta/mu = 1/(1 + mu_2 eta + mu_3 eta^2 + ...)
    eta_over_mu = [Fraction(1)]
    for m in range(1, n + 1):
        eta_over_mu.append(-sum(mu[j + 1] * eta_over_mu[m - j] for j in range(1, m + 1)))
    c = eta_over_mu[1:]  # (eta/mu - 1)/eta
    table, g = [c[:cols]], []
    for k in range(1, rows):
        dc = [j * c[j] for j in range(1, len(c))]
        g.append((-1) ** (k + 1) * dc[0])
        c = [dc[j] + (-1) ** k * g[-1] * eta_over_mu[j] for j in range(1, len(dc))]
        table.append(c[:cols])
    return mu, g, table


class TestTemmeTable:
    def test_the_reversion_solves_eta_squared_over_two(self):
        mu, _, _ = temme_coefficients(1, 20)
        assert mu[:6] == [0, 1, Fraction(1, 3), Fraction(1, 36), Fraction(-1, 270),
                          Fraction(1, 4320)]
        # log(1 + mu) from (1 + mu) L' = mu', then mu - L = eta^2/2 term by term
        log1p = [Fraction(0)]
        for m in range(len(mu) - 1):
            known = sum((mu[i] * (m + 1 - i) * log1p[m + 1 - i] for i in range(1, m + 1)),
                        Fraction(0))
            log1p.append(mu[m + 1] - known / (m + 1))
        assert [u - v for u, v in zip(mu, log1p)] == [0, 0, Fraction(1, 2)] + [0] * (len(mu) - 3)

    def test_the_pole_cancelling_constants_are_stirlings(self):
        # Gamma*(a) = 1 + 1/(12a) + 1/(288a^2) - 139/(51840a^3) - ...
        _, g, _ = temme_coefficients(4, 1)
        assert g == [Fraction(1, 12), Fraction(1, 288), Fraction(-139, 51840)]

    def test_every_literal_is_its_exact_coefficient_to_an_ulp(self):
        _, _, exact = temme_coefficients(len(specfun._TEMME), len(specfun._TEMME[0]))
        assert exact[0][:3] == [Fraction(-1, 3), Fraction(1, 12), Fraction(-2, 135)]
        for row, want_row in zip(specfun._TEMME, exact):
            for got, want in zip(row, want_row):
                assert abs(Fraction(got) - want) <= Fraction(math.ulp(float(want)))

    @pytest.mark.parametrize("a", [100.0, 1e3, 1e5])
    def test_the_terms_left_out_are_below_1e_17_of_the_tail(self, a):
        # against the expansion to order 30 in eta and a^-9, over the band
        # |x - a| <= 0.3 a
        _, _, full = temme_coefficients(10, 30)
        kept = specfun._TEMME
        lo = -math.sqrt(2.0 * (-0.3 - math.log(0.7)))
        hi = math.sqrt(2.0 * (0.3 - math.log(1.3)))
        eta = np.linspace(lo, hi, 1001)
        whole = np.zeros_like(eta)
        omitted = np.zeros_like(eta)
        for k, row in enumerate(full):
            start = len(kept[k]) if k < len(kept) else 0
            for n, d in enumerate(row):
                term = float(d) * eta ** n * a ** -k
                whole += term
                if n >= start:
                    omitted += term
        front = np.exp(-0.5 * a * eta ** 2) / math.sqrt(2.0 * math.pi * a)
        z = eta * math.sqrt(0.5 * a)
        smaller = np.minimum(0.5 * sps.erfc(-z) - front * whole, 0.5 * sps.erfc(z) + front * whole)
        assert np.all(np.abs(omitted) * front <= 1e-17 * smaller)


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_one_sigma_anchor(self):
        # erfc(1/sqrt(2))/2 computed independently
        assert std_normal_cdf(-1.0) == pytest.approx(0.15865525393145707, abs=1e-15)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.7, 3.0, 8.0])
    def test_reflection(self, x):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            std_normal_cdf(math.inf)


# every argument the kernels check: the call with it
KERNEL_ARGUMENTS = {
    "log_gamma-x": log_gamma,
    "reg_inc_gamma_lower-a": lambda v: reg_inc_gamma_lower(v, 1.0),
    "reg_inc_gamma_lower-x": lambda v: reg_inc_gamma_lower(2.0, v),
    "reg_inc_beta-x": lambda v: reg_inc_beta(v, 2.0, 3.0),
    "reg_inc_beta-a": lambda v: reg_inc_beta(0.5, v, 3.0),
    "reg_inc_beta-b": lambda v: reg_inc_beta(0.5, 2.0, v),
    "std_normal_cdf-x": std_normal_cdf,
    "gauss_2f1-a": lambda v: gauss_2f1(v, 1.0, 1.5, 0.5),
    "gauss_2f1-b": lambda v: gauss_2f1(0.5, v, 1.5, 0.5),
    "gauss_2f1-c": lambda v: gauss_2f1(0.5, 1.0, v, 0.5),
    "gauss_2f1-z": lambda v: gauss_2f1(0.5, 1.0, 1.5, v),
    "log_gamma_half_ratio-a": specfun.log_gamma_half_ratio,
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, True, "1"],
                         ids=["nan", "inf", "-inf", "int-past-a-double", "bool", "str"])
@pytest.mark.parametrize("argument", sorted(KERNEL_ARGUMENTS))
def test_a_kernel_argument_that_is_not_a_number_is_refused(argument, value):
    # the package's one rule for a number: no OverflowError or TypeError
    # escapes, and True is not taken for 1
    with pytest.raises(DomainError):
        KERNEL_ARGUMENTS[argument](value)


@pytest.mark.parametrize("argument", sorted(KERNEL_ARGUMENTS))
def test_a_numpy_float64_kernel_argument_is_its_float(argument):
    fn = KERNEL_ARGUMENTS[argument]
    assert fn(np.float64(0.5)) == fn(0.5)


def test_probability_clamp_guard():
    assert clamp_probability(1.0 + 1e-12) == 1.0
    assert clamp_probability(-1e-12) == 0.0
    with pytest.raises(InternalError):
        clamp_probability(1.1)
