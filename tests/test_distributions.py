"""Family registry checks: validation, moments, CDFs, standardized
tails, and samplers.

Tail literals were frozen from scipy.stats (cdf/sf and exact pmf sums
computed independently of this package's special functions).
"""

import json
import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats

import anticonc as ac
from anticonc import FamilyId, ParamSet, cli, distributions
from anticonc.errors import DomainError

import exact
import reference_validation


def rng_from(seed):
    return np.random.Generator(np.random.PCG64(seed))


def tail_at_50_digits(ps, y):
    """P(|X - mu| >= y sigma) of a uniform, exponential or Gaussian law,
    from its own parameters in 50-digit mpmath (absolute coordinates)."""
    with mpmath.workdps(50):
        p = {name: mpmath.mpf(value) for name, value in ps.params.items()}
        y = mpmath.mpf(y)
        if ps.family is FamilyId.UNIFORM:
            a, b = p["a"], p["b"]
            mean, sd = (a + b) / 2, (b - a) / mpmath.sqrt(12)
            lo, hi = mean - y * sd, mean + y * sd
            return float((max(lo - a, 0) + max(b - hi, 0)) / (b - a))
        if ps.family is FamilyId.EXPONENTIAL:
            lam = p["lambda"]
            lo, hi = (1 - y) / lam, (1 + y) / lam
            return float((-mpmath.expm1(-lam * lo) if lo > 0 else 0) + mpmath.exp(-lam * hi))
        mu, sigma = p["mu"], p["sigma"]
        lo, hi = mu - y * sigma, mu + y * sigma
        # clamped: Phi(-100) < 1e-2000 is 0 as a double, and mpmath's erfc
        # overflows near 1e155
        z_lo, z_hi = max((lo - mu) / sigma, -100), min((hi - mu) / sigma, 100)
        return float(mpmath.ncdf(z_lo) + 1 - mpmath.ncdf(z_hi))


def beta_tail_at_50_digits(p, q, y):
    """P(|X - mu| >= y sigma) of beta(p, 1) or beta(1, q), from the CDF x^p
    or 1 - (1 - x)^q in 50-digit mpmath."""
    with mpmath.workdps(50):
        p, q, y = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(y)
        s = p + q
        mean, sd = p / s, mpmath.sqrt(p * q / (s * s * (s + 1)))
        lo, hi = max(mean - y * sd, 0), min(mean + y * sd, 1)
        cdf = (lambda x: x ** p) if q == 1 else (lambda x: 1 - (1 - x) ** q)
        return float(cdf(lo) + 1 - cdf(hi))


def beta_family_tail_at_50_digits(p, q, y):
    """P(|X - mu| >= y sigma) of beta(p, q) in 50-digit mpmath; the upper
    side is I_(1 - hi)(q, p); both ends lie below their mean."""
    with mpmath.workdps(50):
        p, q, y = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(y)
        s = p + q
        mean, sd = p / s, mpmath.sqrt(p * q / (s * s * (s + 1)))
        lo, hi = mean - y * sd, mean + y * sd
        return float((exact.inc_beta(lo, p, q) if lo > 0 else 0)
                     + (exact.inc_beta(1 - hi, q, p) if hi < 1 else 0))


def gamma_tail_at_50_digits(alpha, y):
    """P(|X - mu| >= y sigma) of gamma(alpha, 1) in 50-digit mpmath."""
    with mpmath.workdps(50):
        a, y = mpmath.mpf(alpha), mpmath.mpf(y)
        lo, hi = a - y * mpmath.sqrt(a), a + y * mpmath.sqrt(a)
        return float((mpmath.gammainc(a, 0, lo, regularized=True) if lo > 0 else 0)
                     + mpmath.gammainc(a, hi, mpmath.inf, regularized=True))


def outcome(fn, *args):
    """The repr of fn(*args), or the message of the DomainError it raises."""
    try:
        return repr(fn(*args))
    except DomainError as exc:
        return f"DomainError: {exc}"


# each entry point that takes a standardized distance y, at a law it accepts
Y_ENTRY_POINTS = {
    "tail_probability": lambda y: ac.tail_probability(ac.poisson(4.0), y),
    "mc_tail": lambda y: ac.mc_tail(ac.gaussian(0.0, 1.0), y, 1000, seed=1),
    "a_uniform": ac.a_uniform,
    "witness_parameter": lambda y: ac.witness_parameter("beta", y, 1e-3),
    "quad_normal_symmetric_tail": ac.quad_normal_symmetric_tail,
}


@pytest.mark.parametrize("name", sorted(Y_ENTRY_POINTS))
def test_an_int_y_is_checked_and_typed_like_its_float_twin(name):
    fn = Y_ENTRY_POINTS[name]
    with pytest.raises(DomainError, match="y must be a positive real"):
        fn(10**400)
    assert repr(fn(2)) == repr(fn(2.0))


# every public scalar argument that is a number: the call with it, and its name
SCALAR_ARGUMENTS = {
    "cdf-x": (lambda v: ac.cdf(ac.gaussian(0.0, 1.0), v), "x"),
    "student_t_cdf-n": (lambda v: ac.student_t_cdf(v, 0.5), "n"),
    "student_t_cdf-x": (lambda v: ac.student_t_cdf(3, v), "x"),
    "quad_student_cdf-n": (lambda v: ac.quad_student_cdf(v, 0.5), "n"),
    "quad_student_cdf-x": (lambda v: ac.quad_student_cdf(3, v), "x"),
    "inner_probability-n": (lambda v: ac.inner_probability(v, 0.5), "n"),
    "inner_probability-y": (lambda v: ac.inner_probability(3, v), "y"),
    "cutoff_dof-y": (ac.cutoff_dof, "y"),
    "a_exponential-y": (ac.a_exponential, "y"),
    "a_gaussian-y": (ac.a_gaussian, "y"),
    "a_student_t-y": (ac.a_student_t, "y"),
    **{f"{name}-y": (fn, "y") for name, fn in Y_ENTRY_POINTS.items()},
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, True, "1"],
                         ids=["nan", "inf", "-inf", "int-past-a-double", "bool", "str"])
@pytest.mark.parametrize("argument", sorted(SCALAR_ARGUMENTS))
def test_a_scalar_argument_that_is_not_a_number_is_refused(argument, value):
    # an int or float, not a bool, within a double: no OverflowError or
    # TypeError escapes, and True is not taken for 1
    fn, name = SCALAR_ARGUMENTS[argument]
    with pytest.raises(DomainError, match=rf"^{name} must be "):
        fn(value)


# a degrees-of-freedom count n is an int; every real argument accepts 0.5
@pytest.mark.parametrize("argument", sorted(a for a, (_, name) in SCALAR_ARGUMENTS.items()
                                            if name != "n"))
def test_a_numpy_float64_argument_is_its_float(argument):
    fn, _ = SCALAR_ARGUMENTS[argument]
    assert repr(fn(np.float64(0.5))) == repr(fn(0.5))


class TestValidate:
    def test_ok_uniform(self):
        assert ac.validate(ac.uniform(0.0, 1.0)) == []

    def test_pareto_needs_r_above_two(self):
        problems = ac.validate(ac.pareto(2.0, 1.0))
        assert any("r must exceed 2" in p for p in problems)

    def test_student_t_needs_three_dof(self):
        problems = ac.validate(ac.student_t(2))
        assert any("n must be >= 3" in p for p in problems)

    def test_degenerate_lattice_parameters_rejected(self):
        # zero variance breaks the standardized tail
        assert ac.validate(ac.binomial(5, 1.0))
        assert ac.validate(ac.neg_binomial(2.0, 1.0))
        assert ac.validate(ac.hypergeometric(10, 10, 3))
        assert ac.validate(ac.hypergeometric(3, 10, 10))

    def test_structural_problems_are_reported_not_raised(self):
        ps = ParamSet(FamilyId.EXPONENTIAL, {"rate": 1.0})
        problems = ac.validate(ps)
        assert any("missing parameter 'lambda'" in p for p in problems)
        assert any("unexpected parameter 'rate'" in p for p in problems)
        ps = ParamSet(FamilyId.POISSON, {"lambda": math.nan})
        assert ac.validate(ps)

    def test_string_family_tag_is_a_family_id(self):
        assert ParamSet("uniform", {"a": 0.0, "b": 1.0}).family is FamilyId.UNIFORM
        with pytest.raises(DomainError, match="a must be < b"):
            ac.tail_probability(ParamSet("uniform", {"a": 2.0, "b": 1.0}), 1.0)
        with pytest.raises(DomainError, match="unknown family"):
            ParamSet("cauchy", {})

    def test_integer_fields_enforced(self):
        assert ac.validate(ParamSet(FamilyId.BINOMIAL, {"n": 2.5, "p": 0.3}))

    @pytest.mark.parametrize("n", [10**30, 2**53 + 1])
    def test_an_int_past_a_double_is_an_integer(self, n):
        assert ac.validate(ac.student_t(n)) == []

    def test_an_int_too_large_for_a_double_is_not_a_finite_number(self):
        assert ac.validate(ac.uniform(0, 10**400)) == [
            f"parameter 'b' must be a finite number, got {10**400!r}"]

    def test_operations_raise_on_invalid(self):
        with pytest.raises(DomainError):
            ac.moments(ac.pareto(2.0, 1.0))
        with pytest.raises(DomainError):
            ac.tail_probability(ac.student_t(2), 1.0)


def law_forms(ps):
    """The law ps as the forms a caller may write its parameters in."""
    law = distributions._FAMILIES[ps.family]
    params = ps.params
    ints = {name: int(v) if float(v).is_integer() else v for name, v in params.items()}
    return {
        "floats": {name: float(v) for name, v in params.items()},
        "ints-where-integral": ints,
        "numpy-float64": {name: np.float64(v) for name, v in params.items()},
        "integer-fields-as-floats": {
            name: float(v) if name in law.integer_fields else v for name, v in params.items()},
    }


def with_types(verdict):
    """A _checked verdict with each typed value's type, so int 3 and float 3.0 differ."""
    law, typed, problems = verdict
    return law, [(name, type(v), v) for name, v in sorted(typed.items())], problems


def typed_checked(ps):
    return with_types(distributions._checked(ps))


def typed_reference(ps):
    return with_types(reference_validation.checked(ps))


FAMILIES = sorted(FamilyId, key=lambda f: f.value)

# each family's panel law, and the heaviest `tails` bench law, built with an int r
FORM_LAWS = {**{f.value: distributions._FAMILIES[f].panel for f in FAMILIES},
             "neg-binomial-100-0.01": ac.neg_binomial(100, 0.01)}

# values a caller may put in a field: numbers of each type, at and past the edges
VALUE_POOL = [None, True, False, "1", math.nan, math.inf, -math.inf, 1.8e308, -1.7e308,
              10**400, -10**400, np.int64(3), np.float64(2.5), np.float64(3.0), np.float32(2.0),
              2**60 + 1, 2**53 + 1, -1, 0, 1, 2, 3, 20, 10**6, -0.0, 0.3, 1.0, 2.5, 3.0, 5e-324]


class TestOneValidation:
    """_checked types every parameter set in one loop; the routine it replaced,
    copied into reference_validation, is the oracle for its values and messages."""

    @pytest.mark.parametrize("name", sorted(FORM_LAWS))
    def test_every_form_of_the_panel_law_gives_the_same_numbers(self, name, capsys):
        ref = FORM_LAWS[name]
        want = ac.moments(ref)
        x = want.mean
        forms = law_forms(ref)
        for form, params in forms.items():
            ps = ParamSet(ref.family, params)
            assert typed_checked(ps) == typed_reference(ps) == typed_checked(ref), form
            assert repr(ac.moments(ps)) == repr(want), form
            assert repr(ac.cdf(ps, x)) == repr(ac.cdf(ref, x)), form
            for y in (0.5, 1.0, 2.0):
                got = ac.tail_probability(ps, y)
                assert repr(got) == repr(ac.tail_probability(ref, y)), (form, y)
        # `anticonc tail --params` parses an integral JSON number as an int
        printed = []
        for form in ("floats", "ints-where-integral"):
            assert cli.main(["tail", "--family", ref.family.value, "--y", "1",
                             "--params", json.dumps(forms[form])]) == 0, form
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_every_value_is_typed_as_the_full_routine_types_it(self, family):
        panel = distributions._FAMILIES[family].panel.params
        for name in panel:
            for value in VALUE_POOL:
                ps = ParamSet(family, {**panel, name: value})
                assert typed_checked(ps) == typed_reference(ps), (name, value)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_malformed_sets_give_the_full_routines_problems(self, family):
        law = distributions._FAMILIES[family]
        panel = dict(law.panel.params)
        sets = [{k: v for k, v in panel.items() if k != name} for name in law.fields]
        sets.append({**panel, "zeta": 1.0})
        sets.append({"zeta": None})
        bad = [None, True, math.nan, math.inf, -math.inf, 1.8e308, 10**400, np.int64(3)]
        for name in law.fields:
            sets.extend({**panel, name: value} for value in bad)
            sets.append({**{k: v for k, v in panel.items() if k != name}, "zeta": math.nan})
            if name in law.integer_fields:
                sets.append({**panel, name: 2.5})
                sets.append({**panel, name: 2.5, "zeta": 1.0})
        for params in sets:
            ps = ParamSet(family, params)
            problems = reference_validation.checked(ps)[2]
            assert problems, params
            assert ac.validate(ps) == problems, params
            assert typed_checked(ps) == typed_reference(ps), params

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_constraint_violations_match_the_full_routine(self, family):
        law = distributions._FAMILIES[family]
        for name in law.fields:
            kind = int if name in law.integer_fields else float
            for value in (kind(0), kind(-1), kind(10**6)):
                ps = ParamSet(family, {**law.panel.params, name: value})
                assert typed_checked(ps) == typed_reference(ps), (name, value)


class TestMoments:
    def test_exponential(self):
        m = ac.moments(ac.exponential(2.0))
        assert (m.mean, m.variance) == (0.5, 0.25)

    def test_student_t(self):
        m = ac.moments(ac.student_t(4))
        assert (m.mean, m.variance) == (0.0, 2.0)

    def test_uniform_mean_near_a_double_edge(self):
        # (a + b) / 2 overflows to inf; the variance does overflow
        assert ac.moments(ac.uniform(1e308, 1.7e308)) == ac.Moments(1.35e308, math.inf)

    def test_hypergeometric_two_point(self):
        m = ac.moments(ac.hypergeometric(9, 10, 1))
        assert m.mean == pytest.approx(0.9, abs=1e-15)
        assert m.variance == pytest.approx(0.09, abs=1e-15)

    @pytest.mark.parametrize("ps,mean,var", [
        (ac.uniform(-1.0, 2.0), 0.5, 0.75),
        (ac.gaussian(1.5, 2.0), 1.5, 4.0),
        (ac.binomial(20, 0.3), 6.0, 4.2),
        (ac.poisson(4.0), 4.0, 4.0),
        (ac.neg_binomial(2.5, 0.4), 3.75, 9.375),
        (ac.gamma_family(2.5, 1.5), 3.75, 5.625),
        (ac.pareto(3.0, 1.0), 1.5, 0.75),
        (ac.beta_family(2.0, 5.0), 2.0 / 7.0, 10.0 / (49.0 * 8.0)),
    ])
    def test_closed_form_moments(self, ps, mean, var):
        m = ac.moments(ps)
        assert m.mean == pytest.approx(mean, rel=1e-14)
        assert m.variance == pytest.approx(var, rel=1e-14)

    def test_weibull_log_space_matches_direct_gamma(self):
        m = ac.moments(ac.weibull(1.7, 0.8))
        scale = 0.8 ** (-1 / 1.7)
        mean = scale * math.gamma(1 + 1 / 1.7)
        var = scale * scale * (math.gamma(1 + 2 / 1.7) - math.gamma(1 + 1 / 1.7) ** 2)
        assert m.mean == pytest.approx(mean, rel=1e-13)
        assert m.variance == pytest.approx(var, rel=1e-13)

    def test_log_normal(self):
        m = ac.moments(ac.log_normal(0.2, 0.6))
        assert m.mean == pytest.approx(math.exp(0.2 + 0.18), rel=1e-14)
        want = math.exp(0.4 + 0.36) * (math.exp(0.36) - 1.0)
        assert m.variance == pytest.approx(want, rel=1e-13)

    def test_all_valid_families_have_positive_variance(self):
        panel = [ac.uniform(0, 1), ac.exponential(1), ac.gaussian(0, 1),
                 ac.student_t(3), ac.binomial(1, 0.5), ac.poisson(0.1),
                 ac.neg_binomial(1, 0.99), ac.hypergeometric(1, 2, 1),
                 ac.gamma_family(0.01, 1), ac.pareto(2.001, 1),
                 ac.weibull(0.5, 1), ac.log_normal(0, 0.1), ac.beta_family(1, 0.01)]
        for ps in panel:
            assert ac.moments(ps).variance > 0

    @pytest.mark.parametrize("ps,twin,variance", [
        (ac.uniform(0, 10**300), ac.uniform(0.0, 1e300), math.inf),
        (ac.gaussian(0, 10**200), ac.gaussian(0.0, 1e200), math.inf),
        (ac.exponential(10**300), ac.exponential(1e300), 0.0),
        (ac.gamma_family(10**200, 10**200), ac.gamma_family(1e200, 1e200), math.inf),
        (ac.pareto(4, 10**200), ac.pareto(4.0, 1e200), math.inf),
        (ac.beta_family(10**200, 10**200), ac.beta_family(1e200, 1e200), 1.25e-201),
        (ac.uniform(10**308, 17 * 10**307), ac.uniform(1e308, 1.7e308), math.inf),
    ])
    def test_int_parameters_square_like_their_float_twins(self, ps, twin, variance):
        # in exact int arithmetic, these overflowed the float step that follows
        assert repr(ac.moments(ps)) == repr(ac.moments(twin))
        assert repr(ac.moments(ps).variance) == repr(variance)
        assert outcome(ac.tail_probability, ps, 1.0) == outcome(ac.tail_probability, twin, 1.0)

    @pytest.mark.parametrize("p,q", [(1e200, 1e200), (1e110, 1.0), (1.0, 3e150),
                                     (1e-200, 1e-200), (1e-170, 2e-160)])
    def test_beta_variance_where_the_direct_products_leave_a_double(self, p, q):
        with mpmath.workdps(50):
            mp, mq = mpmath.mpf(p), mpmath.mpf(q)
            want = float(mp * mq / ((mp + mq) ** 2 * (mp + mq + 1)))
        assert ac.moments(ac.beta_family(p, q)).variance == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("p,q", [(2.0, 5.0), (1.0, 1e-6), (1e6, 3.0), (0.3, 0.3)])
    def test_ordinary_beta_variance_keeps_the_direct_formula(self, p, q):
        s = p + q
        assert ac.moments(ac.beta_family(p, q)).variance == p * q / (s * s * (s + 1.0))

    def test_neg_binomial_variance_past_the_underflow_of_p_squared(self):
        # p*p underflows to 0 below p ~ 1e-162; r(1-p)/p^2 must not divide by it
        m = ac.moments(ac.neg_binomial(1.0, 1e-200))
        assert m.mean == 1e200 and m.variance == math.inf
        m = ac.moments(ac.neg_binomial(1e-300, 1e-170))
        assert m.variance == pytest.approx(1e40, rel=1e-15)
        with pytest.raises(DomainError, match="neg-binomial moments overflow a double: "
                                              "variance is inf"):
            ac.tail_probability(ac.neg_binomial(1.0, 1e-200), 1.0)


class TestCdf:
    def test_student_t_symmetric_center(self):
        assert ac.cdf(ac.student_t(3), 0.0) == 0.5

    def test_pareto_closed_form(self):
        assert ac.cdf(ac.pareto(3.0, 1.0), 2.0) == pytest.approx(0.875, rel=1e-14)

    def test_poisson_atom_at_zero(self):
        assert ac.cdf(ac.poisson(0.01), 0.0) == pytest.approx(math.exp(-0.01), rel=1e-14)

    def test_discrete_cdf_is_right_continuous(self):
        ps = ac.binomial(5, 0.4)
        below = ac.cdf(ps, 2.0 - 1e-9)
        at = ac.cdf(ps, 2.0)
        assert at > below  # the atom at 2 is included at x = 2
        assert at == pytest.approx(float(stats.binom.cdf(2, 5, 0.4)), abs=1e-13)

    @pytest.mark.parametrize("ps,dist", [
        (ac.gamma_family(2.5, 1.5), stats.gamma(2.5, scale=1.5)),
        (ac.beta_family(2.0, 5.0), stats.beta(2.0, 5.0)),
        (ac.weibull(1.7, 0.8), stats.weibull_min(1.7, scale=0.8 ** (-1 / 1.7))),
        (ac.log_normal(0.2, 0.6), stats.lognorm(0.6, scale=math.exp(0.2))),
        (ac.student_t(7), stats.t(7)),
    ])
    def test_matches_scipy_on_a_grid(self, ps, dist):
        for q in (0.05, 0.3, 0.5, 0.8, 0.99):
            x = float(dist.ppf(q))
            assert ac.cdf(ps, x) == pytest.approx(float(dist.cdf(x)), abs=1e-12)

    def test_unbounded_support_far_tails(self):
        for ps in (ac.gaussian(0, 1), ac.student_t(3), ac.exponential(1.0),
                   ac.poisson(4.0), ac.neg_binomial(2.5, 0.4)):
            assert ac.cdf(ps, 1e15) >= 1.0 - 1e-12
        for ps in (ac.gaussian(0, 1), ac.student_t(3)):
            assert ac.cdf(ps, -1e15) <= 1e-12

    def test_monotone_on_grid(self):
        for ps in (ac.uniform(-1, 2), ac.pareto(3, 1), ac.poisson(4.0),
                   ac.hypergeometric(30, 100, 20)):
            m = ac.moments(ps)
            sd = math.sqrt(m.variance)
            xs = np.linspace(m.mean - 5 * sd, m.mean + 5 * sd, 101)
            vals = [ac.cdf(ps, float(x)) for x in xs]
            assert all(u <= v + 1e-13 for u, v in zip(vals, vals[1:]))


# frozen from scipy.stats: cdf(mu - y*sd) + sf(mu + y*sd), or the exact
# inclusive pmf sum for the lattice families
TAIL_CASES = [
    (ac.uniform(-1.0, 2.0), 0.5, 0.7113248654051871),
    (ac.uniform(-1.0, 2.0), 1.0, 0.42264973081037416),
    (ac.uniform(-1.0, 2.0), 2.0, 0.0),
    (ac.exponential(1.3), 0.5, 0.6165995004357964),
    (ac.exponential(1.3), 1.0, 0.1353352832366127),
    (ac.exponential(1.3), 2.0, 0.049787068367863944),
    (ac.gaussian(0.5, 2.0), 1.0, 0.31731050786291415),
    (ac.gaussian(0.5, 2.0), 2.0, 0.04550026389635839),
    (ac.student_t(5), 1.0, 0.25316999510032273),
    (ac.student_t(5), 2.0, 0.04931308767365261),
    (ac.pareto(3.0, 1.0), 1.0, 0.07549910270124748),
    (ac.pareto(4.0, 2.0), 0.5, 0.4760653140701938),
    (ac.gamma_family(2.5, 1.5), 1.0, 0.2764034857772476),
    (ac.weibull(1.7, 0.8), 1.0, 0.3143626546574064),
    (ac.log_normal(0.2, 0.6), 2.0, 0.04455272605037915),
    (ac.beta_family(2.0, 5.0), 1.0, 0.3379880598960504),
    (ac.binomial(20, 0.3), 1.0, 0.22041826738070958),
    (ac.poisson(4.0), 0.5, 0.8046331851868355),
    (ac.neg_binomial(2.5, 0.4), 2.0, 0.05279663098021237),
    (ac.hypergeometric(30, 100, 20), 1.0, 0.41379613366255175),
    (ac.hypergeometric(99, 100, 1), 1.0, 0.01),
]


class TestTailProbability:
    @pytest.mark.parametrize("ps,y,want", TAIL_CASES)
    def test_frozen_values(self, ps, y, want):
        got = ac.tail_probability(ps, y)
        assert got.probability == pytest.approx(want, abs=5e-13)
        assert 0.0 <= got.probability <= 1.0
        assert got.abs_error_bound >= 0.0
        assert got.method in {"closed-form", "special-function", "pmf-sum",
                              "quadrature", "monte-carlo"}

    def test_lattice_point_exactly_on_boundary_counts(self):
        # Binomial(4, 1/2): mu = 2, sd = 1, y = 2 puts k in {0, 4} at
        # exactly two standard deviations; inclusive tail = 2/16
        got = ac.tail_probability(ac.binomial(4, 0.5), 2.0)
        assert got.probability == pytest.approx(0.125, abs=1e-14)

    def test_nonincreasing_in_y(self):
        for ps, _, _ in TAIL_CASES[::3]:
            tails = [ac.tail_probability(ps, float(y)).probability
                     for y in np.linspace(0.05, 4.0, 40)]
            assert all(u >= v - 1e-12 for u, v in zip(tails, tails[1:]))

    def test_continuous_tail_approaches_one_as_y_vanishes(self):
        for ps in (ac.uniform(0, 1), ac.exponential(2.0), ac.gaussian(0, 1),
                   ac.student_t(4), ac.gamma_family(2.5, 1.5), ac.pareto(3, 1),
                   ac.weibull(1.7, 0.8), ac.log_normal(0.2, 0.6),
                   ac.beta_family(2, 5)):
            assert ac.tail_probability(ps, 1e-9).probability >= 1.0 - 1e-6

    def test_witness_ray_extremes_stay_finite(self):
        # far down the degenerate rays, where the plain-float moments overflow
        assert ac.tail_probability(ac.weibull(0.005, 1.0), 1.0).probability <= 1e-10
        assert ac.tail_probability(ac.log_normal(0.0, 25.0), 1.0).probability <= 1e-10

    @pytest.mark.parametrize("ps", [ac.gaussian(0.0, 10.0), ac.poisson(4.0),
                                    ac.student_t(3), ac.uniform(-1e150, 1e150)])
    def test_overflowing_y_sigma_gives_zero_with_the_family_bound(self, ps):
        # sigma <= 1.35e154 for a finite variance, so the tail is below 1/y^2 < 6e-309
        got = ac.tail_probability(ps, 1e308)
        at_one = ac.tail_probability(ps, 1.0)
        assert got == ac.TailResult(0.0, at_one.method, at_one.abs_error_bound)

    @pytest.mark.parametrize("ps", [ac.exponential(1e200), ac.gaussian(0.0, 1e-200),
                                    ac.gamma_family(1.0, 1e-200), ac.uniform(0.0, 1e-170),
                                    ac.pareto(1e150, 1.0), ac.pareto(1e200, 1.0)])
    def test_variance_underflowing_to_zero_is_refused(self, ps):
        # sigma = 0 would give 1.0 at every y.  Where no parameter moves the
        # standardized tail (e^-2 for the exponential at y = 1) it needs no
        # sigma and is answered; the sampling oracle still standardizes by it.
        assert ac.moments(ps).variance == 0.0
        match = f"{ps.family.value} variance underflows a double to 0.0"
        if ps.family in ac.ANTI_CONCENTRATED_FAMILIES:
            got = ac.tail_probability(ps, 1.0)
            assert abs(got.probability - tail_at_50_digits(ps, 1.0)) <= got.abs_error_bound
        else:
            with pytest.raises(DomainError, match=match):
                ac.tail_probability(ps, 1.0)
        with pytest.raises(DomainError, match=match):
            ac.mc_tail(ps, 1.0, 1000, seed=1)

    @pytest.mark.parametrize("ps,y", [
        (ac.uniform(1e6, 1e6 + 1e-3), 1.5),
        (ac.gaussian(1e6, 1e-3), 1.0),
        (ac.uniform(100.0, 100.00001), 1.0),
        (ac.uniform(0.0, 1e-160), 1.0),
        (ac.gaussian(-1.7e308, 1e153), 1e155),
        (ac.uniform(-1e308, 1e308), 0.5),
        (ac.uniform(0.0, 1e200), 1.0),
        (ac.gaussian(0.0, 1e200), 1.0),
        (ac.exponential(1e-200), 0.5),
        (ac.exponential(1e200), 2.0),
    ])
    def test_far_location_and_extreme_scale_keep_the_bound(self, ps, y):
        # mu -/+ y*sigma in doubles lost the scale to the rounding of mu,
        # or overflowed, or the variance underflowed
        got = ac.tail_probability(ps, y)
        assert abs(got.probability - tail_at_50_digits(ps, y)) <= got.abs_error_bound

    @pytest.mark.parametrize("ps", [ac.poisson(1e40), ac.gamma_family(1e40, 1.0),
                                    ac.beta_family(1.0, 1e-40), ac.beta_family(1e110, 1.0),
                                    ac.beta_family(1e200, 1e200)])
    def test_y_sigma_lost_beside_the_mean_is_refused(self, ps):
        # mu -/+ y*sigma round to mu: Poisson(1e40) gave 0.0 and beta(1, 1e-40)
        # gave 1.0, where the tails at y = 1 are about 0.32 and 5e-39
        for y in (0.5, 1.0, 2.0):
            with pytest.raises(DomainError, match="is lost in rounding the mean"):
                ac.tail_probability(ps, y)

    @pytest.mark.parametrize("p,q", [(1e-300, 1.0), (1e-40, 1.0), (3.0, 1.0),
                                     (1.0, 1e-6), (1.0, 1e3)])
    def test_beta_tail_near_a_support_end(self, p, q):
        # beta(1e-300, 1) gave 1.0: mu + y*sigma = 7e-151 vanished from 1 - x
        for y in (0.5, 1.0, 2.0):
            got = ac.tail_probability(ac.beta_family(p, q), y)
            assert abs(got.probability - beta_tail_at_50_digits(p, q, y)) <= got.abs_error_bound

    @pytest.mark.parametrize("p,q", [(1.0, 3e150), (1.0, 1e20), (1e8, 1.0), (1e4, 1e6)])
    def test_beta_tail_past_p_plus_q_1e6_is_refused(self, p, q):
        # beta(1, 3e150) and beta(1, 1e20) gave 1.0, where the tail at y = 1 is e^-2
        for y in (0.5, 1.0, 2.0):
            with pytest.raises(DomainError, match=r"a \+ b <= 1e\+06"):
                ac.tail_probability(ac.beta_family(p, q), y)

    @pytest.mark.parametrize("p,q", [(10.0 ** k, 10.0 ** k) for k in range(6)] + [
        (3000.0, 3000.0), (0.3, 999.7), (1.0, 1e4), (2.0, 5.0)])
    def test_beta_tail_panel_by_decades(self, p, q):
        # the log_gamma front factor was off by 4.7e-12 at beta(3000, 3000),
        # 1.3e-12 at beta(0.3, 999.7), 3.7e-12 at beta(1, 1e4) and 3.8e-10 at
        # beta(1e5, 1e5)
        for y in (0.5, 1.0, 2.0):
            got = ac.tail_probability(ac.beta_family(p, q), y)
            assert abs(got.probability - beta_family_tail_at_50_digits(p, q, y)) <= (
                got.abs_error_bound)

    def test_gamma_tail_panel_along_the_ray(self):
        # down to alpha = 1e-16 the survival is one minus the series, and the
        # front factor's log alpha costs a few ulps of 1 in both
        for k in range(-64, 3):
            alpha = 10.0 ** (k / 4) if k < 2 else 3.0
            for y in (0.5, 1.0, 2.0):
                got = ac.tail_probability(ac.gamma_family(alpha, 1.0), y).probability
                assert abs(got - gamma_tail_at_50_digits(alpha, y)) <= 1e-14, (alpha, y)

    def test_tail_is_the_closed_form_for_every_law(self):
        # no parameter moves these standardized tails, so every law's tail
        # is A(y) bit for bit, whatever its location and scale
        rng = random.Random(20241018)
        closed = {FamilyId.UNIFORM: ac.a_uniform, FamilyId.EXPONENTIAL: ac.a_exponential,
                  FamilyId.GAUSSIAN: ac.a_gaussian}
        at_one = {f: ac.tail_probability(ParamSet(f, p), 1.0) for f, p in (
            (FamilyId.UNIFORM, {"a": 0.0, "b": 1.0}), (FamilyId.EXPONENTIAL, {"lambda": 1.0}),
            (FamilyId.GAUSSIAN, {"mu": 0.0, "sigma": 1.0}))}
        for _ in range(300):
            loc = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300)
            scale = 10.0 ** rng.uniform(-300, 300)
            y = 10.0 ** rng.uniform(-6, 2.5)
            for ps in (ac.uniform(loc, max(loc + scale, math.nextafter(loc, math.inf))),
                       ac.exponential(1.0 / scale), ac.gaussian(loc, scale)):
                got = ac.tail_probability(ps, y)
                want = at_one[ps.family]
                assert got == ac.TailResult(closed[ps.family](y).value, want.method,
                                            want.abs_error_bound), (ps, y)

    def test_overflowing_edge_with_finite_y_sigma_gives_zero(self):
        # mu + y*sigma overflows while y*sigma = 1.7e308 is finite
        assert ac.tail_probability(ac.poisson(1e308), 1.7e154) == ac.TailResult(
            0.0, "special-function", 1e-13)

    def test_gamma_edge_past_a_double_in_units_of_the_scale_gives_zero(self):
        # mu + y*sigma is finite but its quotient by beta is inf, where bd0
        # halved without end and the log_gamma route refused x = inf
        assert ac.tail_probability(ac.gamma_family(4.0, 0.25), 1.7e308) == ac.TailResult(
            0.0, "special-function", 1e-12)

    def test_rejects_bad_y(self):
        with pytest.raises(DomainError):
            ac.tail_probability(ac.gaussian(0, 1), 0.0)
        with pytest.raises(DomainError):
            ac.tail_probability(ac.gaussian(0, 1), -1.0)


def hypergeometric_log_pmfs_per_k(M, N, n, ks):
    """The per-k formula the stepped terms must reproduce, at each k of ks."""
    log_all = math.log(math.comb(N, n))
    return [math.log(math.comb(M, k)) + math.log(math.comb(N - M, n - k)) - log_all
            for k in ks]


class TestHypergeometricSteps:
    @pytest.mark.parametrize("M,N,n", [
        (1, 2, 1), (30, 100, 20), (90, 100, 20), (5, 100, 20), (95, 100, 97),
        (500, 1000, 999), (5000, 20000, 3000), (7, 10**6, 300), (999_990, 10**6, 40),
        (10**6 - 1, 10**6, 1),
    ])
    def test_stepped_terms_are_the_per_k_terms_bit_for_bit(self, M, N, n):
        # 25 terms from the lower support edge, from the middle, and up to
        # the upper edge and no further
        p = {"M": M, "N": N, "n": n}
        kmin, kmax = max(0, n - (N - M)), min(M, n)
        for k0 in (kmin, (kmin + kmax) // 2, max(kmin, kmax - 24)):
            ks = range(k0, min(k0 + 24, kmax) + 1)
            got = list(distributions._hypergeometric_log_pmfs(p, k0, ks[-1]))
            assert got == hypergeometric_log_pmfs_per_k(M, N, n, ks), k0

    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
    def test_tail_against_the_exact_inner_sum(self, y):
        M, N, n = 5000, 20000, 3000
        want = exact.hypergeometric_tail(M, N, n, y)
        got = ac.tail_probability(ac.hypergeometric(M, N, n), y).probability
        # each term's exponent carries the rounding of logs up to
        # log C(N, n) = 8449.3, about 2 of its ulps (1.8e-12) in all: these
        # tails are off by 3.8e-13, 7.6e-13 and 1.05e-12, past the family's
        # 1e-13 bound, as they were before the terms were stepped
        assert abs(Fraction(got) - want) <= 2 * math.ulp(math.log(math.comb(N, n)))

    @pytest.mark.parametrize("N", [2**20 + 1, 10**7, 10**9])
    def test_witness_ray_past_a_million_is_one_over_n(self, N):
        # log_gamma cancellation gave 1.9e-9 and 1.9e-8 off at the first two,
        # and InternalError at 10^9
        got = ac.tail_probability(ac.hypergeometric(N - 1, N, 1), 1.0).probability
        assert abs(Fraction(got) - Fraction(1, N)) <= Fraction(1e-13)


_BINOMIAL_LIMIT = "the binomial pmf sum is answered only for n <= 10**6"
_HYPERGEOMETRIC_LIMIT = ("the hypergeometric pmf sum is answered only for N <= 10**6 or "
                         "n * N.bit_length() <= 10**6")
# laws past the sizes whose pmf terms come from exact integers, with the
# limit each refusal names: log_gamma terms answered three of them wrongly
# (Binomial(10**7, 1/2) up to 1.5e-8 off under a 1e-13 bound), and the
# 10**7-term cap or a tail of -158 raised InternalError at the other two
PAST_THE_EXACT_TERMS = [
    (ac.binomial(10**6 + 1, 0.5), _BINOMIAL_LIMIT),
    (ac.binomial(10**7, 0.5), _BINOMIAL_LIMIT),
    (ac.binomial(2**53, 0.5), _BINOMIAL_LIMIT),
    (ac.hypergeometric(2 * 10**6, 4 * 10**6, 10**5), _HYPERGEOMETRIC_LIMIT),
    (ac.hypergeometric(5 * 10**29, 10**30, 10**5), _HYPERGEOMETRIC_LIMIT),
]


class TestExactTermLimits:
    @pytest.mark.parametrize("ps,limit", PAST_THE_EXACT_TERMS,
                             ids=[f"{ps.family.value}{dict(ps.params)}"
                                  for ps, _ in PAST_THE_EXACT_TERMS])
    def test_tail_and_cdf_refuse_past_the_limit(self, ps, limit, capsys):
        assert ac.validate(ps) == []
        m = ac.moments(ps)
        assert math.isfinite(m.mean) and 0.0 < m.variance < math.inf
        for y in (0.5, 1.0, 2.0):
            with pytest.raises(DomainError, match=re.escape(limit)):
                ac.tail_probability(ps, y)
        for x in (m.mean - math.sqrt(m.variance), m.mean):
            with pytest.raises(DomainError, match=re.escape(limit)):
                ac.cdf(ps, x)
        code = cli.main(["tail", "--family", ps.family.value,
                         "--params", json.dumps(dict(ps.params)), "--y", "1.0"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "") and err.startswith(f"error: {limit}, got ")

    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0, 10.0])
    def test_binomial_at_the_limit_within_the_bound(self, y):
        got = ac.tail_probability(ac.binomial(10**6, 1e-5), y)
        assert abs(got.probability - exact.binomial_tail(10**6, 1e-5, y)) <= got.abs_error_bound


class TestSample:
    def test_replay_is_bit_identical(self):
        for ps in (ac.gaussian(0, 1), ac.poisson(4.0), ac.gamma_family(2.5, 1.5),
                   ac.hypergeometric(30, 100, 20)):
            a = ac.sample(ps, rng_from(42), size=1000)
            b = ac.sample(ps, rng_from(42), size=1000)
            assert np.array_equal(a, b)

    def test_scalar_draw_is_a_float(self):
        value = ac.sample(ac.exponential(1.0), rng_from(7))
        assert isinstance(value, float) and value > 0

    def test_uniform_symmetric_mean(self):
        draws = ac.sample(ac.uniform(-1.0, 1.0), rng_from(11), size=10**6)
        assert abs(float(np.mean(draws))) < 0.002

    def test_poisson_sample_variance(self):
        draws = ac.sample(ac.poisson(4.0), rng_from(12), size=10**6)
        assert float(np.var(draws)) == pytest.approx(4.0, abs=0.02)

    @pytest.mark.parametrize("ps", [
        ac.uniform(-1.0, 2.0), ac.exponential(1.3), ac.gaussian(0.5, 2.0),
        ac.student_t(5), ac.binomial(20, 0.3), ac.poisson(4.0),
        ac.neg_binomial(2.5, 0.4), ac.hypergeometric(30, 100, 20),
        ac.gamma_family(2.5, 1.5), ac.pareto(6.0, 2.0), ac.weibull(1.7, 0.8),
        ac.log_normal(0.2, 0.6), ac.beta_family(2.0, 5.0),
    ])
    def test_sampler_matches_moments(self, ps):
        n = 10**6
        draws = np.asarray(ac.sample(ps, rng_from(1234), size=n), dtype=float)
        m = ac.moments(ps)
        se_mean = math.sqrt(m.variance / n)
        assert abs(float(draws.mean()) - m.mean) <= 5.0 * se_mean
        s2 = float(draws.var(ddof=1))
        m4 = float(np.mean((draws - draws.mean()) ** 4))
        se_var = math.sqrt(max(m4 - s2 * s2, 0.0) / n)
        assert abs(s2 - m.variance) <= 5.0 * se_var


class TestParamSetJson:
    def test_greek_letters_are_spelled_out(self):
        assert set(ac.gamma_family(1.0, 2.0).params) == {"alpha", "beta"}
        assert set(ac.weibull(1.0, 2.0).params) == {"alpha", "lambda"}
        assert set(ac.hypergeometric(3, 10, 2).params) == {"M", "N", "n"}

    def test_kebab_case_family_names(self):
        assert FamilyId.STUDENT_T.value == "student-t"
        assert FamilyId.NEG_BINOMIAL.value == "neg-binomial"
        assert FamilyId.LOG_NORMAL.value == "log-normal"
        assert ParamSet("neg-binomial", {"r": 1, "p": 0.5}).family is FamilyId.NEG_BINOMIAL

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            ParamSet("cauchy", {})
