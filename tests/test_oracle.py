"""Oracle engines: Monte Carlo tails, t-density quadrature, grid infima."""

import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import anticonc as ac
from anticonc import GridAxis, GridSpec
from anticonc.distributions import _FAMILIES
from anticonc.errors import DomainError


class TestMcTail:
    def test_replay_is_bit_identical(self):
        a = ac.mc_tail(ac.gaussian(0, 1), 1.0, 10**4, seed=987)
        b = ac.mc_tail(ac.gaussian(0, 1), 1.0, 10**4, seed=987)
        assert a == b

    def test_matches_gaussian_closed_form(self):
        est = ac.mc_tail(ac.gaussian(0, 1), 1.0, 10**6, seed=321)
        want = ac.a_gaussian(1.0).value
        assert abs(est.estimate - want) <= 4.0 * est.std_err
        assert est.estimate == pytest.approx(0.3173, abs=0.002)

    def test_impossible_event_estimates_zero(self):
        # uniform support ends at sqrt(3) standardized units
        est = ac.mc_tail(ac.uniform(-1.0, 1.0), 2.0, 10**4, seed=5)
        assert est.estimate == 0.0
        assert est.std_err == 0.0

    def test_std_err_is_binomial(self):
        est = ac.mc_tail(ac.exponential(1.0), 1.0, 10**5, seed=17)
        want = math.sqrt(est.estimate * (1.0 - est.estimate) / est.n_samples)
        assert est.std_err == pytest.approx(want, rel=1e-12)
        assert est.n_samples == 10**5 and est.seed == 17

    def test_requires_enough_samples(self):
        with pytest.raises(DomainError):
            ac.mc_tail(ac.gaussian(0, 1), 1.0, 999, seed=1)

    def test_rejects_invalid_params(self):
        with pytest.raises(DomainError):
            ac.mc_tail(ac.pareto(2.0, 1.0), 1.0, 10**4, seed=1)

    def test_int_scale_past_the_variance_is_refused_like_its_float_twin(self):
        for ps in (ac.gaussian(0, 10**200), ac.gaussian(0.0, 1e200)):
            with pytest.raises(DomainError, match="variance is inf"):
                ac.mc_tail(ps, 1.0, 1000, seed=1)

    def test_derived_seeds_are_deterministic(self):
        assert ac.derive_seeds(42, 5) == ac.derive_seeds(42, 5)
        assert ac.derive_seeds(42, 5) != ac.derive_seeds(43, 5)


class TestQuadStudentCdf:
    def test_center(self):
        assert ac.quad_student_cdf(3, 0.0) == 0.5

    def test_cauchy_anchor(self):
        assert ac.quad_student_cdf(1, 1.0) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 25, 50])
    def test_agrees_with_series_route(self, n):
        for x in (-5.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0):
            series = ac.student_t_cdf(n, x)
            quad = ac.quad_student_cdf(n, x)
            assert abs(series - quad) <= 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            ac.quad_student_cdf(0, 1.0)


class TestQuadNormalTail:
    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0, 3.0])
    def test_matches_erfc(self, y):
        want = math.erfc(y / math.sqrt(2.0))
        assert ac.quad_normal_symmetric_tail(y) == pytest.approx(want, abs=1e-12)


# run in a fresh interpreter, since this test process may hold scipy already
_IMPORT_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys
    sys.path.insert(0, sys.argv[1])

    def scipy_modules():
        return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")

    import anticonc, anticonc.cli
    anticonc.cli.build_parser()
    after_parser = scipy_modules()
    with contextlib.redirect_stdout(io.StringIO()):
        code = anticonc.cli.main(["tail", "--family", "poisson",
                                  "--params", sys.argv[2], "--y", "1.0"])
    after_tail = scipy_modules()
    value = anticonc.quad_student_cdf(5, 1.3)
    print(json.dumps({"after_parser": after_parser, "tail_code": code,
                      "after_tail": after_tail, "after_quad": scipy_modules(),
                      "value": value}))
""")


def test_scipy_loads_with_the_first_quadrature_call_only():
    src = Path(ac.__file__).resolve().parent.parent
    params = json.dumps(dict(_FAMILIES[ac.FamilyId.POISSON].panel.params))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(src), params],
                          capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(proc.stdout)
    assert probe["after_parser"] == []
    assert probe["tail_code"] == 0 and probe["after_tail"] == []
    assert "scipy.integrate" in probe["after_quad"]
    assert probe["value"] == ac.quad_student_cdf(5, 1.3)


class TestGridInfimum:
    def test_gaussian_grid_is_constant(self):
        est = ac.grid_infimum("gaussian", 1.0, ac.default_grid("gaussian"))
        want = ac.a_gaussian(1.0).value
        assert est.value == pytest.approx(want, abs=1e-13)
        # parameter-free: every grid point gives the same tail
        worst = max(abs(ac.tail_probability(ac.gaussian(float(mu), float(s)), 1.0).probability - want)
                    for mu in (-3.0, 0.0, 3.0) for s in (0.1, 1.0, 10.0))
        assert worst <= 1e-13

    def test_uniform_grid_scale_invariance(self):
        spec = GridSpec(axes={"b": GridAxis(0.1, 10.0, 25, "logarithmic")})
        est = ac.grid_infimum("uniform", 1.0, spec)
        want = 1.0 - 1.0 / math.sqrt(3.0)
        assert est.value == pytest.approx(want, abs=1e-13)
        for b in (0.1, 1.0, 10.0):
            tail = ac.tail_probability(ac.uniform(-b, b), 1.0).probability
            assert tail == pytest.approx(want, abs=1e-13)

    def test_poisson_grid_minimizes_at_smallest_rate(self):
        est = ac.grid_infimum("poisson", 1.0, ac.default_grid("poisson"))
        assert est.value <= 1e-3
        assert est.argmin["lambda"] == pytest.approx(1e-4, rel=1e-12)

    def test_derived_axes_complete_the_parameter_set(self):
        est = ac.grid_infimum(
            "pareto", 1.0,
            GridSpec(axes={"r_excess": GridAxis(1e-4, 1.0, 10, "logarithmic")},
                     fixed={"A": 1.0}))
        assert est.argmin["r"] == pytest.approx(2.0 + 1e-4, rel=1e-12)
        est = ac.grid_infimum(
            "hypergeometric", 1.0,
            GridSpec(axes={"N": GridAxis(2, 1000, 12, "logarithmic", integer=True)},
                     fixed={"n": 1}))
        assert est.argmin["M"] == est.argmin["N"] - 1
        est = ac.grid_infimum(
            "neg-binomial", 1.0,
            GridSpec(axes={"q": GridAxis(1e-4, 0.5, 10, "logarithmic")},
                     fixed={"r": 1.0}))
        assert est.argmin["p"] == pytest.approx(1.0 - 1e-4, rel=1e-12)

    def test_invalid_grid_range_raises(self):
        bad = GridSpec(axes={"r": GridAxis(1.5, 3.0, 4)}, fixed={"A": 1.0})
        with pytest.raises(DomainError):
            ac.grid_infimum("pareto", 1.0, bad)

    def test_refinement_never_raises_the_value(self):
        for family, axis_name in (("uniform", "b"), ("poisson", "lambda"),
                                  ("gamma", "alpha")):
            base = ac.default_grid(family)
            axis = base.axes[axis_name]
            fine = GridSpec(
                axes={axis_name: GridAxis(axis.lo, axis.hi, 2 * axis.points - 1,
                                          axis.scale, axis.integer)},
                fixed=base.fixed)
            v0 = ac.grid_infimum(family, 1.0, base).value
            v1 = ac.grid_infimum(family, 1.0, fine).value
            assert v1 <= v0 + 1e-15

    def test_closed_forms_are_lower_bounds_on_grids(self):
        for family, value in (("uniform", ac.a_uniform(1.0).value),
                              ("exponential", ac.a_exponential(1.0).value),
                              ("gaussian", ac.a_gaussian(1.0).value),
                              ("student-t", ac.a_student_t(1.0).value)):
            est = ac.grid_infimum(family, 1.0, ac.default_grid(family))
            assert est.value >= value - 1e-12
            assert est.value - value <= 1e-3

    def test_argmin_value_consistency(self):
        est = ac.grid_infimum("gamma", 0.5, ac.default_grid("gamma"))
        assert ac.tail_probability(est.argmin, 0.5).probability == est.value


class TestGridSpecJson:
    def test_axis_validation(self):
        with pytest.raises(DomainError):
            GridAxis(1.0, 10.0, 1)
        with pytest.raises(DomainError):
            GridAxis(10.0, 1.0, 5)
        with pytest.raises(DomainError):
            GridAxis(0.0, 1.0, 5, "logarithmic")
        with pytest.raises(DomainError):
            GridAxis(0.0, 1.0, 5, "sqrt")
        with pytest.raises(DomainError):
            GridSpec(axes={})
