"""Closed-form curves, the Student's-t scan machinery, and witness
certificates.

Frozen Student's-t literals come from scipy.stats.t.cdf (incomplete-beta
route, independent of this package's hypergeometric series) and from a
brute-force max over n <= 400 run against it.
"""

import dataclasses
import math
import random
import re
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import anticonc as ac
import exact
from anticonc import FamilyId, anticoncentration, distributions, oracle
from anticonc.errors import DomainError, SearchError

SQRT3 = math.sqrt(3.0)


class TestClassify:
    def test_the_four_positive_families(self):
        for name in ("uniform", "exponential", "gaussian", "student-t"):
            assert ac.classify(name) is ac.Classification.ANTI_CONCENTRATED

    def test_the_nine_zero_families(self):
        for name in ("binomial", "poisson", "neg-binomial", "hypergeometric",
                     "gamma", "pareto", "weibull", "log-normal", "beta"):
            assert ac.classify(name) is ac.Classification.ZERO_INFIMUM

    def test_partition_is_complete(self):
        assert ac.ANTI_CONCENTRATED_FAMILIES | ac.ZERO_INFIMUM_FAMILIES == frozenset(FamilyId)
        assert not ac.ANTI_CONCENTRATED_FAMILIES & ac.ZERO_INFIMUM_FAMILIES


class TestFamilyRecords:
    @pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
    def test_record_is_complete_and_matches_the_verdict(self, family):
        law = distributions._FAMILIES[family]
        assert law.panel.family is family and ac.validate(law.panel) == []
        ac.grid_infimum(family, 1.0, law.grid)  # raises at any invalid grid point
        assert ac.default_grid(family) is law.grid
        if law.ray is not None:
            start = law.ray.build(law.ray.start)
            assert start.family is family and ac.validate(start) == []
        # one verdict per family: a ray (zero infimum) or a closed-form A(y)
        zero = ac.classify(family) is ac.Classification.ZERO_INFIMUM
        assert zero == (law.ray is not None)
        assert zero != (family in anticoncentration._CLOSED_FORMS)


class TestUniformCurve:
    def test_threshold_and_beyond(self):
        assert ac.a_uniform(SQRT3).value == 0.0
        assert ac.a_uniform(2.0).value == 0.0

    def test_midpoint(self):
        assert ac.a_uniform(SQRT3 / 2.0).value == pytest.approx(0.5, abs=1e-15)

    def test_limit_toward_zero(self):
        assert ac.a_uniform(1e-12).value == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing_then_zero(self):
        ys = np.linspace(1e-6, SQRT3 - 1e-6, 200)
        vals = [ac.a_uniform(float(y)).value for y in ys]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(u > v for u, v in zip(vals, vals[1:]))

    def test_rejects_nonpositive_y(self):
        with pytest.raises(DomainError):
            ac.a_uniform(0.0)


class TestExponentialCurve:
    def test_value_at_one(self):
        assert ac.a_exponential(1.0).value == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_value_at_half(self):
        want = 1.0 - math.exp(-0.5) + math.exp(-1.5)
        assert ac.a_exponential(0.5).value == pytest.approx(want, abs=1e-15)
        assert ac.a_exponential(0.5).value == pytest.approx(0.6165995004357964, abs=1e-13)

    def test_limit_toward_zero(self):
        assert ac.a_exponential(1e-12).value == pytest.approx(1.0, abs=1e-11)

    def test_continuous_at_the_branch_point(self):
        below = ac.a_exponential(1.0 - 1e-12).value
        at = ac.a_exponential(1.0).value
        assert below == pytest.approx(at, abs=1e-11)


class TestGaussianCurve:
    @pytest.mark.parametrize("y,want", [
        (0.5, 0.6170750774519738),
        (1.0, 0.31731050786291415),
        (2.0, 0.04550026389635844),
        (3.0, 0.0026997960632601913),
    ])
    def test_frozen_values(self, y, want):
        assert ac.a_gaussian(y).value == pytest.approx(want, abs=1e-15)

    def test_limit_toward_zero(self):
        assert ac.a_gaussian(1e-12).value == pytest.approx(1.0, abs=1e-11)


class TestCutoff:
    def test_hand_evaluated_sequence(self):
        assert ac.cutoff_ratio(3) == pytest.approx(1.0 / 3.0, abs=1e-16)
        assert ac.cutoff_ratio(4) == pytest.approx(8.0 / 11.0, abs=1e-16)
        assert ac.cutoff_ratio(5) == pytest.approx(21.0 / 23.0, abs=1e-16)
        assert ac.cutoff_ratio(6) == pytest.approx(40.0 / 39.0, abs=1e-15)

    @pytest.mark.parametrize("y,want", [(0.5, 3), (0.9, 5), (1.0, 6),
                                        (5e-324, 3), (1e-200, 3)])
    def test_cutoff_dof_values(self, y, want):
        assert ac.cutoff_dof(y) == want

    def test_sequence_increasing_and_bounded(self):
        vals = [ac.cutoff_ratio(n) for n in range(3, 10**4 + 1)]
        assert all(u < v for u, v in zip(vals, vals[1:]))
        assert all(v < 1.5 for v in vals)

    def test_domain(self):
        with pytest.raises(DomainError):
            ac.cutoff_dof(ac.STUDENT_T_Y_MAX)
        with pytest.raises(DomainError):
            ac.cutoff_dof(0.0)

    @pytest.mark.parametrize("k", range(1, 16))
    def test_matches_exact_rationals_near_the_edge(self, k):
        # 1.5 - y^2 = 10^-k puts the cutoff near 2.5 * 10^k (2,500,001 at k = 6);
        # from k = 8 on the float test y*y < cutoff_ratio(n) gives another n
        y = math.sqrt(1.5 - 10.0**-k)
        start = time.perf_counter()
        got = ac.cutoff_dof(y)
        elapsed = time.perf_counter() - start
        assert got == _exact_cutoff(y)
        assert elapsed < 0.01
        if k == 6:
            assert got == 2_500_001

    def test_matches_the_float_scan(self):
        rng = random.Random(20240118)
        top = math.sqrt(1.5 - 2.5e-5)  # n0 stays below 10^5
        ys = [rng.uniform(1e-3, top) for _ in range(1600)]
        # and 1.5 - y^2 log-uniform, so large cutoffs are well represented
        ys += [math.sqrt(1.5 - 10.0 ** rng.uniform(math.log10(2.5e-5), 0.0))
               for _ in range(400)]
        assert [ac.cutoff_dof(y) for y in ys] == [_scanned_cutoff(y) for y in ys]

    def test_ends_quickly_at_the_edge_of_the_range(self):
        # the 50 doubles below sqrt(6)/2, where the cutoff passes 10^15
        y = ac.STUDENT_T_Y_MAX
        for _ in range(50):
            y = math.nextafter(y, 0.0)
            start = time.perf_counter()
            n = ac.cutoff_dof(y)
            assert time.perf_counter() - start < 0.01
            assert n == _exact_cutoff(y)


def _scanned_cutoff(y):
    """The cutoff by a linear scan of the float test, from n = 3."""
    y2 = y * y
    n = 3
    while not (y2 < ac.cutoff_ratio(n)):
        n += 1
    return n


def _exact_cutoff(y):
    """The cutoff with y^2 taken exactly, by bisection over rationals."""
    y2 = Fraction(y) ** 2

    def above(n):
        return y2 * (2 * n * n - 6 * n + 3) < 3 * n * n - 14 * n + 16

    if above(3):
        return 3
    lo, hi = 3, 4
    while not above(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return hi


# frozen from scipy.stats.t.cdf
T_CDF_CASES = [
    (1, 1.0, 0.75),
    (2, 1.0, 0.7886751345948129),
    (3, math.sqrt(3.0), 0.9091549430918954),
    (4, math.sqrt(2.0), 0.8849001794597506),
    (5, 1.2, 0.8580544716469489),
    (10, -2.0, 0.036694017385370196),
    (50, 0.5, 0.6903657162441144),
]


class TestStudentTCdf:
    def test_center(self):
        for n in (1, 2, 3, 30):
            assert ac.student_t_cdf(n, 0.0) == 0.5

    def test_cauchy_closed_form(self):
        for x in (-2.0, -0.3, 0.7, 1.0, 5.0):
            want = 0.5 + math.atan(x) / math.pi
            assert ac.student_t_cdf(1, x) == pytest.approx(want, abs=1e-13)

    def test_two_dof_closed_form(self):
        for x in (-1.5, 0.4, 1.0, 3.0):
            want = 0.5 + x / (2.0 * math.sqrt(2.0 + x * x))
            assert ac.student_t_cdf(2, x) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("n,x,want", T_CDF_CASES)
    def test_frozen_panel(self, n, x, want):
        assert ac.student_t_cdf(n, x) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 25])
    def test_symmetry(self, n):
        for x in (0.1, 0.8, 2.3, 6.0):
            total = ac.student_t_cdf(n, x) + ac.student_t_cdf(n, -x)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_large_argument_saturates(self):
        assert ac.student_t_cdf(3, 1e6) == pytest.approx(1.0, abs=1e-12)
        assert ac.student_t_cdf(3, -1e6) == pytest.approx(0.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ac.student_t_cdf(0, 1.0)
        with pytest.raises(DomainError):
            ac.student_t_cdf(3, math.inf)


def mp_t_lower_tail(n, x):
    """P(T_n <= -|x|) = I_z(n/2, 1/2) / 2 with z = n/(n + x^2), by mpmath.

    The complement 1 - I_{1-z}(1/2, n/2) at 100 digits keeps 60 of them
    above 1e-40; below, I_z(n/2, 1/2) itself at 60 digits.  (Summed
    directly, I_z stalls at large n where z is near 1; the 1/2 + x G 2F1
    form loses the value below 1e-200 even at 200 digits.)
    """
    with mpmath.workdps(100):
        n, x2 = mpmath.mpf(n), mpmath.mpf(x) ** 2
        tail = (1 - mpmath.betainc(0.5, n / 2, 0, x2 / (n + x2), regularized=True)) / 2
        if tail > 1e-40:
            return tail
    with mpmath.workdps(60):
        return mpmath.betainc(n / 2, 0.5, 0, n / (n + x2), regularized=True) / 2


# (n, x) with x^2 > 5: the far tails, and large n near the switch
T_TAIL_CASES = [(3, -1e4), (5, -100.0), (100, -10.0), (1000, -10.0), (1000, 10.0),
                (1, -300.0), (2, -1e6), (30, -1e5), (3, 7.5), (10**4, -2.3),
                (10**4, 3.0), (3 * 10**4, -2.4), (10**5, -2.3), (10**5, 6.0)]


class TestStudentTTails:
    """The incomplete-beta route, taken for x^2 > 5."""

    @pytest.mark.parametrize("n,x", T_TAIL_CASES)
    def test_matches_mpmath(self, n, x):
        got = ac.student_t_cdf(n, x)
        tail = mp_t_lower_tail(n, x)
        if x > 0.0:  # 1 - tail, rounded once
            assert abs(got - float(1 - tail)) <= 1e-12 * tail + 2.3e-16
        elif n <= 10**4 and tail >= 1e-300:
            assert abs(got - tail) <= 1e-12 * tail
        else:
            assert abs(got - tail) <= 1e-12

    @pytest.mark.parametrize("n,x", T_TAIL_CASES)
    def test_constant_time(self, n, x):
        # the series took 154 ms at (3, -1e4) and 0.4 s at (1, -300)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            ac.student_t_cdf(n, x)
            best = min(best, time.perf_counter() - t0)
        assert best < 1e-3

    def test_beyond_the_double_range_of_x_squared(self):
        assert ac.student_t_cdf(3, -1e200) == 0.0
        assert ac.student_t_cdf(3, 1e200) == 1.0

    @pytest.mark.parametrize("y", [2.3, 3.0])
    def test_tail_at_the_largest_beta_route_dof(self, y):
        # off by 5.3e-13 at y = 2.3 and 3.9e-14 at y = 3
        n = 10**6
        with mpmath.workdps(60):
            x = y * mpmath.sqrt(mpmath.mpf(n) / (n - 2))
        want = float(2 * mp_t_lower_tail(n, x))
        assert abs(ac.tail_probability(ac.student_t(n), y).probability - want) <= 1e-12

    @pytest.mark.parametrize("n", [10**7, 10**17])
    def test_beta_route_refuses_past_a_million_dof(self, n):
        # the route was off by 1.4e-11 at n = 10**7 and gave 1.0 for 0.0214 at 10**17
        route = r"incomplete-beta route \(x\^2 > 5\) requires n <= 10\*\*6"
        with pytest.raises(DomainError, match=route):
            ac.tail_probability(ac.student_t(n), 2.3)
        with pytest.raises(DomainError, match=route):
            ac.student_t_cdf(n, 2.3)
        assert ac.tail_probability(ac.student_t(n), 2.0).probability > 0.0  # the series

    @pytest.mark.parametrize("n,x", [(10**5, 2.3), (10**5, -2.3), (10**6, 1.2),
                                     (10**6, -1.2), (10**6, 2.236)])
    def test_large_n_centre(self, n, x):
        # the series with the Stirling prefactor; a difference of two Lanczos
        # values was off by 3.9e-11 at n = 1e5 and 1.5e-10 at n = 1e6
        tail = mp_t_lower_tail(n, x)
        want = tail if x < 0.0 else 1 - tail
        assert abs(ac.student_t_cdf(n, x) - float(want)) <= 1e-12

    def test_curve_never_reaches_the_beta_route(self, monkeypatch):
        # every point of the proven curve has x^2 = y^2 n/(n-2) < 9/2, even
        # at the last double below sqrt(6)/2, where n0 would be ~3e15: the
        # scan is cut at n0 = 60 to run the same CDF calls over n = 3..61
        y = math.nextafter(ac.STUDENT_T_Y_MAX, 0.0)

        def no_beta(*args, **kwargs):
            raise AssertionError("the incomplete beta called on the curve")

        monkeypatch.setattr(distributions, "_inc_beta", no_beta)
        monkeypatch.setattr(ac.anticoncentration, "cutoff_dof", lambda y: 60)
        av = ac.a_student_t(y)
        assert av.detail.argmax_n == 3 and 3.0 * y * y < 4.5


# frozen brute-force values: 2 - 2*max over 3 <= n <= 400 of
# scipy.stats.t.cdf(y*sqrt(n/(n-2)), n)
A4_CASES = [
    (0.25, 0.6942488516293599),
    (0.5, 0.4501848557521009),
    (0.75, 0.2847569798652938),
    (1.0, 0.18169011381620925),
    (1.1, 0.15283808566654877),
    (1.2, 0.12919243191907226),
]


class TestStudentTCurve:
    @pytest.mark.parametrize("y,want", A4_CASES)
    def test_frozen_values(self, y, want):
        assert ac.a_student_t(y).value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("y", [y for y, _ in A4_CASES])
    def test_equals_wide_scan(self, y):
        best = max(ac.inner_probability(n, y) for n in range(3, 401))
        assert ac.a_student_t(y).value == pytest.approx(1.0 - best, abs=1e-12)

    def test_detail_bookkeeping(self):
        av = ac.a_student_t(1.0)
        assert av.detail.n0 == 6
        assert 3 <= av.detail.argmax_n <= av.detail.n0 + 1
        assert av.family is FamilyId.STUDENT_T

    @pytest.mark.parametrize("y", np.linspace(0.1, 1.0, 10).tolist())
    def test_small_y_fast_path_matches(self, y):
        full = ac.a_student_t(y).value
        short = 2.0 - 2.0 * max(
            ac.student_t_cdf(n, y * math.sqrt(n / (n - 2.0))) for n in (3, 4))
        assert full == pytest.approx(short, abs=1e-12)

    @pytest.mark.parametrize("y", [0.1, 0.3, 0.5, 0.8, 1.0])
    def test_central_mass_decreasing_in_dof_steps_of_two(self, y):
        js = {n: ac.inner_probability(n, y) for n in range(3, 102)}
        for n in range(3, 100):
            assert js[n + 2] < js[n]

    def test_refuses_beyond_proven_range(self):
        with pytest.raises(DomainError):
            ac.a_student_t(ac.STUDENT_T_Y_MAX)
        with pytest.raises(DomainError):
            ac.a_student_t(1.3)


def beta_ray_tail_at_60_digits(q, y):
    """P(|X - mu| >= y sigma) of beta(1, q), from its CDF 1 - (1 - x)^q."""
    with mpmath.workdps(60):
        q, y = mpmath.mpf(q), mpmath.mpf(y)
        mean, sd = 1 / (1 + q), mpmath.sqrt(q / ((1 + q) ** 2 * (2 + q)))
        lo, hi = mean - y * sd, mean + y * sd
        return (1 - (1 - lo) ** q if lo > 0 else 0) + ((1 - hi) ** q if hi < 1 else 0)


def _without_lead(monkeypatch, family):
    """Give family's ray no lead, so that its search starts at ray.start."""
    law = distributions._FAMILIES[FamilyId(family)]
    monkeypatch.setitem(distributions._FAMILIES, FamilyId(family), dataclasses.replace(
        law, ray=dataclasses.replace(law.ray, lead=lambda y, aim: None)))


class TestWitnesses:
    def test_rejects_anti_concentrated_families(self):
        for name in ("uniform", "exponential", "gaussian", "student-t"):
            with pytest.raises(DomainError):
                ac.witness_parameter(name, 1.0, 0.1)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(DomainError):
            ac.witness_parameter("poisson", 1.0, 0.0)
        with pytest.raises(DomainError):
            ac.witness_parameter("poisson", 1.0, 1.0)

    def test_hypergeometric_boundary_certificate(self):
        w = ac.witness_parameter("hypergeometric", 1.0, 0.005)
        assert w.params.params == {"M": 199, "N": 200, "n": 1}
        assert w.achieved_tail == pytest.approx(0.005, abs=1e-13)
        assert w.achieved_tail <= w.epsilon

    @pytest.mark.parametrize("y", [0.5, 1.0])
    def test_hypergeometric_certificate_past_a_million_is_sound(self, y):
        # on this stretch of the ray the tail is exactly 1/N; log_gamma terms
        # past N = 10^6 made this search raise InternalError
        w = ac.witness_parameter("hypergeometric", y, 1e-8)
        assert w.params["N"] > 10**6
        assert w.achieved_tail <= 1e-8
        assert Fraction(1, w.params["N"]) <= Fraction(1e-8)

    def test_poisson_certificate_on_ray(self):
        w = ac.witness_parameter("poisson", 1.0, 0.01)
        lam = w.params["lambda"]
        assert 0 < lam <= 0.0101
        assert w.achieved_tail <= 0.01
        # on this stretch the tail is exactly the mass above zero
        assert w.achieved_tail == pytest.approx(-math.expm1(-lam), abs=1e-13)

    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0, 10.0])
    def test_poisson_certificate_at_the_smallest_subnormal(self, y):
        # no double lies between 5e-324 and 1e-323, so the search stops at
        # the adjacent ends; it used to evaluate one point until out of steps
        w = ac.witness_parameter("poisson", y, 5e-324)
        lam = w.params["lambda"]
        assert lam > 0.0 and w.achieved_tail <= 5e-324
        with mpmath.workdps(60):
            # lambda < y*sigma < 1 - lambda: the tail is the mass above zero
            assert -mpmath.expm1(-mpmath.mpf(lam)) <= mpmath.mpf(5e-324)

    def test_a_float_bracket_is_tight_within_ten_percent_or_adjacent(self):
        tight = distributions._tight_float
        assert tight(1.0, 1.05) and not tight(1.0, 1.2)
        assert tight(5e-324, 1e-323) and not tight(5e-324, 1.5e-323)
        assert tight(1e-310, math.nextafter(1e-310, 1.0))
        assert distributions._tight_int(200, 199) and not distributions._tight_int(200, 198)

    def test_neg_binomial_certificate_on_ray(self):
        w = ac.witness_parameter("neg-binomial", 1.0, 1e-3)
        assert w.params["r"] == 1.0
        assert w.params["p"] >= 0.999
        assert w.achieved_tail <= 1e-3
        assert w.achieved_tail == pytest.approx(1.0 - w.params["p"], abs=1e-13)

    def test_rays_freeze_the_free_parameters(self):
        fixed = {
            FamilyId.BINOMIAL: ("n", 1),
            FamilyId.NEG_BINOMIAL: ("r", 1.0),
            FamilyId.GAMMA: ("beta", 1.0),
            FamilyId.PARETO: ("A", 1.0),
            FamilyId.WEIBULL: ("lambda", 1.0),
            FamilyId.LOG_NORMAL: ("alpha", 0.0),
            FamilyId.BETA: ("p", 1.0),
        }
        for family, (field, value) in fixed.items():
            w = ac.witness_parameter(family, 1.0, 1e-3)
            assert w.params[field] == value

    @pytest.mark.parametrize("family", sorted(ac.ZERO_INFIMUM_FAMILIES,
                                              key=lambda f: f.value))
    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3, 1e-4])
    def test_full_panel_certified_by_exact_engine(self, family, y, epsilon):
        w = ac.witness_parameter(family, y, epsilon)
        assert ac.validate(w.params) == []
        assert w.achieved_tail <= epsilon
        recomputed = ac.tail_probability(w.params, y).probability
        assert recomputed == w.achieved_tail

    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
    def test_beta_certificates_are_sound(self, y):
        # the survival near x = 1 was one minus the lower tail, and 144 of
        # these 225 certificates were false, each with achieved_tail 0.0
        for k in range(4, 301, 4):
            epsilon = 10.0 ** -k
            try:
                w = ac.witness_parameter("beta", y, epsilon)
            except DomainError:
                assert k > 28  # the ray's mean 1/(1 + q) rounds to 1
                continue
            assert beta_ray_tail_at_60_digits(w.params["q"], y) <= epsilon, k

    @pytest.mark.parametrize("family", sorted(ac.ZERO_INFIMUM_FAMILIES,
                                              key=lambda f: f.value))
    def test_search_out_of_steps_raises(self, family, monkeypatch):
        # every ray's start is far from certifying 1e-4, so a search from the
        # start (a ray with no lead) must walk
        _without_lead(monkeypatch, family)
        monkeypatch.setattr(anticoncentration, "_MAX_WITNESS_STEPS", 1)
        with pytest.raises(SearchError, match=f"{family.value} witness search exceeded"):
            ac.witness_parameter(family, 1.0, 1e-4)

    @pytest.mark.parametrize("family,epsilon,walk,steps", [
        # N = 2 -> 4 -> 28 -> 200 in 3 walk steps, then N = 199 is refused
        ("hypergeometric", 0.005, 3, 4),
        # lambda = 0.5 -> 0.25 -> 0.125 -> 0.0080 in 3 walk steps, then
        # 0.0091 certifies and 0.0098 is refused
        ("poisson", 0.01, 3, 5),
    ])
    def test_search_runs_out_during_bisection(self, family, epsilon, walk, steps,
                                              monkeypatch):
        # from the start, as a ray with no lead searches
        _without_lead(monkeypatch, family)
        full = ac.witness_parameter(family, 1.0, epsilon)
        monkeypatch.setattr(anticoncentration, "_MAX_WITNESS_STEPS", steps)
        assert ac.witness_parameter(family, 1.0, epsilon) == full
        # the walk fits in these budgets; the interpolation then runs out
        for max_steps in (walk, steps - 1):
            monkeypatch.setattr(anticoncentration, "_MAX_WITNESS_STEPS", max_steps)
            with pytest.raises(SearchError, match=f"exceeded {max_steps} steps"):
                ac.witness_parameter(family, 1.0, epsilon)

    @pytest.mark.parametrize("family", sorted(ac.ZERO_INFIMUM_FAMILIES,
                                              key=lambda f: f.value))
    def test_a_certified_lead_is_returned_at_once(self, family, monkeypatch):
        # one tail call, no step: a float ray's lead pulled in by 0.98, the
        # integer ray's N0 = ceil(1/epsilon) as it is
        monkeypatch.setattr(anticoncentration, "_MAX_WITNESS_STEPS", 0)
        w = ac.witness_parameter(family, 1.0, 1e-3)
        ray = distributions._FAMILIES[family].ray
        if isinstance(ray.start, int):
            assert w.params == ray.build(1000)
        else:
            assert w.params == ray.build(anticoncentration._LEAD_PULL * ray.lead(1.0, 1e-3 / 1.05))

    def test_a_refused_lead_walks_and_interpolates(self, monkeypatch):
        # 1 - inner rounds the tail 1/100 of the lead N0 = 100 above 0.01:
        # N = 200 certifies in one walk step, and N = 101 in one interpolation
        ps = distributions._FAMILIES[FamilyId.HYPERGEOMETRIC].ray.build(100)
        assert ac.tail_probability(ps, 1.0).probability > 0.01
        monkeypatch.setattr(anticoncentration, "_MAX_WITNESS_STEPS", 2)
        assert ac.witness_parameter("hypergeometric", 1.0, 0.01).params["N"] == 101
        monkeypatch.setattr(anticoncentration, "_MAX_WITNESS_STEPS", 1)
        with pytest.raises(SearchError, match="exceeded 1 steps"):
            ac.witness_parameter("hypergeometric", 1.0, 0.01)

    def test_a_lead_past_a_double_falls_back_on_a_certified_start(self):
        # at y = 2 neither point of hypergeometric(1, 2, 1) lies in the event,
        # but the lead N0 = 10^30 leaves the range of a double's variance
        w = ac.witness_parameter("hypergeometric", 2.0, 1e-30)
        assert w.params["N"] == 2 and w.achieved_tail == 0.0
        assert exact.hypergeometric_tail(1, 2, 1, 2.0) == 0
        # at y = 1 both points of it do, so the lead's refusal stands
        n0 = math.ceil(1 / Fraction(1e-30))
        with pytest.raises(DomainError, match=f"at t = {n0}: hypergeometric variance"):
            ac.witness_parameter("hypergeometric", 1.0, 1e-30)

    @pytest.mark.parametrize("family,text", [
        # p = 1 - t rounds to 1 below 2^-53, 2 + t to 2 below 2^-52, and the
        # beta's mean 1/(1 + q) to 1 near q = 1e-17
        ("neg-binomial", "p = 1 is degenerate"),
        ("pareto", "r must exceed 2"),
        ("beta", "lost in rounding the mean 1.0"),
    ])
    def test_ray_floor_is_named(self, family, text):
        with pytest.raises(DomainError, match=text) as info:
            ac.witness_parameter(family, 1.0, 1e-40)
        message = str(info.value)
        assert f"({ac.witness_ray_description(family)})" in message
        # the last t it tried is a point the tail engine refuses
        t = float(re.search(r"at t = (\S+):", message).group(1))
        with pytest.raises(DomainError, match=text):
            ac.tail_probability(distributions._FAMILIES[FamilyId(family)].ray.build(t), 1.0)

    def test_tail_calls_per_search_stay_few(self, monkeypatch):
        # the curves ladder: the halving walk and bisection made 16.95 calls
        # a search on it, and 53 at most; the walk from ray.start 6.68 and 11,
        # the start at the lead 1.17 and 6
        calls = []
        real = anticoncentration.tail_probability
        monkeypatch.setattr(anticoncentration, "tail_probability",
                            lambda ps, y: calls.append(ps) or real(ps, y))
        counts = []
        for family in ac.ZERO_INFIMUM_FAMILIES:
            for y in (0.5, 1.0, 2.0):
                for k in range(2, 9):
                    calls.clear()
                    ac.witness_parameter(family, y, 10.0 ** -k)
                    counts.append(len(calls))
        assert len(counts) == 189
        assert sum(counts) / len(counts) <= 1.5
        assert max(counts) <= 12

    def test_searches_and_grids_call_tail_probability_by_module_name(self, monkeypatch):
        # bench/tracing.py counts the tails of each witness search and grid by
        # wrapping the tail_probability these modules bind; a bypass reads 0
        calls = []
        real = distributions.tail_probability

        def counting(ps, y):
            calls.append(ps)
            return real(ps, y)
        monkeypatch.setattr(anticoncentration, "tail_probability", counting)
        monkeypatch.setattr(oracle, "tail_probability", counting)
        for family in sorted(ac.ZERO_INFIMUM_FAMILIES, key=lambda f: f.value):
            law = distributions._FAMILIES[family]
            builds = []

            def build(t, ray=law.ray):
                builds.append(t)
                return ray.build(t)
            monkeypatch.setitem(distributions._FAMILIES, family, dataclasses.replace(
                law, ray=dataclasses.replace(law.ray, build=build)))
            for epsilon in (1e-3, 1e-6):
                calls.clear()
                builds.clear()
                w = ac.witness_parameter(family, 1.0, epsilon)
                # one tail per point the search steps to; the last build is the witness's
                assert len(calls) == len(builds) - 1 >= 1, (family, epsilon)
                assert w.params in calls
        for family in FamilyId:
            grid = ac.default_grid(family)
            calls.clear()
            ac.grid_infimum(family, 1.1, grid)
            assert len(calls) == math.prod(len(a.values()) for a in grid.axes.values())

    def test_ray_descriptions_exist_for_all_nine(self):
        for family in ac.ZERO_INFIMUM_FAMILIES:
            text = ac.witness_ray_description(family)
            assert "->" in text
        with pytest.raises(DomainError):
            ac.witness_ray_description("gaussian")


def ray_tail_mp(ps, y):
    """(whether a ray law lies on the stretch next to its limit where one
    side of the event is empty, and its tail there) at 50 digits from its
    double parameters: each ray's form written afresh, the gamma's by
    mpmath's own regularized upper incomplete gamma."""
    with mpmath.workdps(50):
        p = {k: v if isinstance(v, int) else mpmath.mpf(v) for k, v in ps.params.items()}
        y = mpmath.mpf(y)
        family = ps.family
        if family is FamilyId.HYPERGEOMETRIC:
            # 0 in the event and 1 out of it: the tail is P(X = 0) = 1/N
            N = p["N"]
            return N - 1 >= y ** 2 and (N - 1) * y ** 2 > 1, 1 / mpmath.mpf(N)
        if family in (FamilyId.BINOMIAL, FamilyId.POISSON, FamilyId.NEG_BINOMIAL):
            if family is FamilyId.BINOMIAL:
                mean, sd, tail = p["p"], mpmath.sqrt(p["p"] * (1 - p["p"])), p["p"]
            elif family is FamilyId.POISSON:
                mean, sd, tail = p["lambda"], mpmath.sqrt(p["lambda"]), -mpmath.expm1(-p["lambda"])
            else:
                q = 1 - p["p"]
                mean, sd, tail = q / p["p"], mpmath.sqrt(q) / p["p"], q
            # 0 out of the event and 1 in it: the tail is P(X >= 1)
            return mean < y * sd and 1 - mean >= y * sd, tail
        if family is FamilyId.BETA:
            q = p["q"]
            mean, sd = 1 / (1 + q), mpmath.sqrt(q / ((1 + q) ** 2 * (2 + q)))
            return mean + y * sd >= 1 and mean - y * sd > 0, 1 - (1 - mean + y * sd) ** q
        if family is FamilyId.GAMMA:
            a = p["alpha"]
            return a <= y * mpmath.sqrt(a), mpmath.gammainc(a, a + y * mpmath.sqrt(a), mpmath.inf,
                                                            regularized=True)
        if family is FamilyId.PARETO:
            r = p["r"]
            mean, sd = r / (r - 1), mpmath.sqrt(r / (r - 2)) / (r - 1)
            return mean - y * sd <= 1, (mean + y * sd) ** -r
        if family is FamilyId.WEIBULL:
            a = p["alpha"]
            mean = mpmath.gamma(1 + 1 / a)
            sd = mpmath.sqrt(mpmath.gamma(1 + 2 / a) - mean ** 2)
            return mean <= y * sd, mpmath.exp(-(mean + y * sd) ** a)
        s = p["sigma"]  # log-normal
        mean = mpmath.exp(s ** 2 / 2)
        sd = mean * mpmath.sqrt(mpmath.expm1(s ** 2))
        return mean <= y * sd, mpmath.erfc(mpmath.log(mean + y * sd) / (s * mpmath.sqrt(2))) / 2


def _hypergeometric_draws():
    """120 (y, epsilon): y = 0.5 or 1 within 5%, epsilon log-uniform in 1e-8..1e-5."""
    rng = random.Random(2712)
    return [(rng.choice((0.5, 1.0)) * rng.uniform(0.95, 1.05), 10.0 ** rng.uniform(-8.0, -5.0))
            for _ in range(120)]


class TestRayForms:
    @pytest.mark.parametrize("family", sorted(ac.ZERO_INFIMUM_FAMILIES,
                                              key=lambda f: f.value))
    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
    def test_ladder_certificates_are_sound_against_the_ray_forms(self, family, y):
        for k in range(2, 9):
            epsilon = 10.0 ** -k
            w = ac.witness_parameter(family, y, epsilon)
            on, tail = ray_tail_mp(w.params, y)
            assert on and tail <= epsilon, (k, w, tail)

    @pytest.mark.parametrize("family", sorted(ac.ZERO_INFIMUM_FAMILIES,
                                              key=lambda f: f.value))
    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
    def test_form_is_the_tail_on_its_stretch(self, family, y):
        law = distributions._FAMILIES[family]
        integer = isinstance(law.ray.start, int)
        checked = 0
        for k in range(1, 41):
            t = 2 ** k if integer else 2.0 ** -k
            ps = law.ray.build(t)
            if not ray_tail_mp(ps, y)[0]:
                continue
            checked += 1
            assert law.ray.form(t, y) == pytest.approx(
                ac.tail_probability(ps, y).probability, abs=law.abs_error_bound, rel=0), t
        assert checked >= 30

    @pytest.mark.parametrize("family", sorted(ac.ZERO_INFIMUM_FAMILIES,
                                              key=lambda f: f.value))
    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
    def test_lead_inverts_the_form(self, family, y):
        # exactly on the integer ray; on a float ray the search's first point
        # is within 10% of the form's boundary, as ray.tight asks of a bracket
        ray = distributions._FAMILIES[family].ray
        for k in range(2, 9):
            if isinstance(ray.start, int):
                lead = ray.lead(y, 10.0 ** -k)
                assert Fraction(1, lead) <= Fraction(10.0 ** -k) < Fraction(1, lead - 1)
                continue
            aim = 10.0 ** -k / 1.05
            t = anticoncentration._LEAD_PULL * ray.lead(y, aim)
            assert ray.form(t, y) <= aim < ray.form(1.1 * t, y), k

    def test_hypergeometric_certificates_are_exact_near_epsilon(self):
        # the engine's 1 - inner rounds 1/N by about 1e-16: certifying a
        # computed tail <= epsilon alone let 1/N pass epsilon on 5 of these
        # 120 draws; no N short of N0 = ceil(1/epsilon) is certified now
        cases = _hypergeometric_draws() + [(1.0, 1e-8), (0.5, 1e-8)]
        cases += [(y, 10.0 ** -k) for y in (0.5, 1.0, 2.0) for k in range(2, 9)]
        for y, epsilon in cases:
            w = ac.witness_parameter("hypergeometric", y, epsilon)
            N = w.params["N"]
            assert w.achieved_tail <= epsilon
            assert exact.hypergeometric_tail(N - 1, N, 1, y) == Fraction(1, N)
            assert N >= math.ceil(1 / Fraction(epsilon)), (y, epsilon, N)


class TestSerialization:
    def test_avalue_wire_shape(self):
        data = ac.a_student_t(0.5).to_json_dict()
        assert set(data) == {"family", "y", "value", "detail"}
        assert data["family"] == "student-t"
        assert set(data["detail"]) == {"n0", "argmax_n"}
        assert ac.a_uniform(1.0).to_json_dict()["detail"] is None

    def test_witness_wire_shape(self):
        data = ac.witness_parameter("beta", 0.5, 1e-3).to_json_dict()
        assert set(data) == {"family", "y", "epsilon", "params", "achieved_tail"}
        assert data["params"]["family"] == "beta"
        assert data["achieved_tail"] <= data["epsilon"]
