"""Oracle engines: Monte Carlo tails, t-density quadrature, grid infima."""

import itertools
import json
import math
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import anticonc as ac
from anticonc import FamilyId, GridAxis, GridSpec, ParamSet, distributions, oracle
from anticonc.anticoncentration import _step
from anticonc.distributions import _FAMILIES, _valid_law
from anticonc.errors import ConvergenceError, DomainError
from rays import ray_law

PANEL_LAWS = [law.panel for law in _FAMILIES.values()]
# a point two steps along each of the nine witness rays
RAY_LAWS = [ray_law(family, _step(_step(law.ray.start)))
            for family, law in _FAMILIES.items() if law.ray is not None]
LAW_IDS = [f"{ps.family.value}-{i}" for i, ps in enumerate(PANEL_LAWS + RAY_LAWS)]


def one_array_estimate(ps, y, n, seed):
    """The fraction of one array of n draws from a fresh PCG64(seed) stream."""
    law, p = _valid_law(ps)
    mean, variance = law.moments(p)
    draws = law.sample(p, np.random.Generator(np.random.PCG64(seed)), n)
    return np.count_nonzero(np.abs(draws - mean) >= y * math.sqrt(variance)) / n


def block_stream_estimate(ps, y, n, seed):
    """The fraction counted block by block in one thread, block i drawn from
    its own PCG64(seed).jumped(i) stream."""
    law, p = _valid_law(ps)
    mean, variance = law.moments(p)
    hits = 0
    for i, start in enumerate(range(0, n, oracle._MC_BLOCK)):
        rng = np.random.Generator(np.random.PCG64(seed).jumped(i))
        draws = law.sample(p, rng, min(oracle._MC_BLOCK, n - start))
        hits += np.count_nonzero(np.abs(draws - mean) >= y * math.sqrt(variance))
    return hits / n


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

    def test_estimate_is_a_python_float(self):
        est = ac.mc_tail(ac.gaussian(0, 1), 1.0, 1000, seed=1)
        assert type(est.estimate) is float
        assert repr(est) == ("McEstimate(estimate=0.301, std_err=0.014505137021069467, "
                             "n_samples=1000, seed=1)")

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

    @pytest.mark.parametrize("n", [10**19, 10**9 + 1, True, 1e6, np.int64(10**6)],
                             ids=["1e19", "1e9+1", "bool", "float", "numpy-int"])
    def test_refuses_a_count_that_is_not_an_int_from_1000_to_1e9(self, n, monkeypatch):
        monkeypatch.setattr(oracle, "_block_sizes", None)  # nothing may be drawn
        with pytest.raises(DomainError, match=r"n_samples from 1000 to 10\*\*9"):
            ac.mc_tail(ac.gaussian(0, 1), 1.0, n, seed=1)

    @pytest.mark.parametrize("seed", [True, -1, 1.5, 2**64, 2**130],
                             ids=["bool", "-1", "float", "2**64", "2**130"])
    def test_refuses_a_seed_that_is_not_a_64_bit_int(self, seed, monkeypatch):
        monkeypatch.setattr(oracle, "_block_sizes", None)  # nothing may be drawn
        with pytest.raises(DomainError, match=f"seed must be a 64-bit integer, got {seed}"):
            ac.mc_tail(ac.gaussian(0, 1), 1.0, 1000, seed)

    @pytest.mark.parametrize("master, count", [(True, 2), (-1, 2), (1.5, 2), (2**130, 2),
                                               (1, -1), (1, 1.5), (1, True)],
                             ids=["bool", "-1", "float", "2**130", "count--1",
                                  "count-float", "count-bool"])
    def test_derived_seeds_keep_the_same_seed_rule(self, master, count):
        with pytest.raises(DomainError, match="seed must be a 64-bit integer|count >= 0"):
            ac.derive_seeds(master, count)

    @pytest.mark.parametrize("ps", PANEL_LAWS + RAY_LAWS, ids=LAW_IDS)
    def test_one_block_counts_what_one_array_counts(self, ps):
        for n in (1000, oracle._MC_BLOCK):
            for seed in (3, 41, 2**63 + 5):
                est = ac.mc_tail(ps, 1.0, n, seed)
                assert est.estimate == one_array_estimate(ps, 1.0, n, seed)

    @pytest.mark.parametrize("ps", PANEL_LAWS + RAY_LAWS, ids=LAW_IDS)
    def test_each_block_counts_its_own_jumped_stream(self, ps):
        # block edges: exactly one block, one past it, and three
        block = oracle._MC_BLOCK
        for n in (block, block + 1, 2 * block + 1):
            for seed in (3, 41, 2**63 + 5):
                est = ac.mc_tail(ps, 1.0, n, seed)
                assert est.estimate == block_stream_estimate(ps, 1.0, n, seed)

    def test_the_worker_count_does_not_change_the_estimate(self, monkeypatch):
        import concurrent.futures
        pools = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        ps, n = ac.student_t(5), 10 * oracle._MC_BLOCK + 7  # 11 blocks
        estimates = []
        for cores in (1, 64):
            monkeypatch.setattr(oracle, "_cores", lambda: cores)
            estimates.append(ac.mc_tail(ps, 2.0, n, seed=29))
        assert pools == [oracle._MC_WORKERS]
        assert estimates[0] == estimates[1]
        assert estimates[0].estimate == block_stream_estimate(ps, 2.0, n, 29)

    @pytest.mark.parametrize("ps", PANEL_LAWS, ids=[ps.family.value for ps in PANEL_LAWS])
    def test_memory_does_not_grow_with_the_draws(self, ps, monkeypatch):
        # one array of 10**6 draws of t(5) peaked at 31.2 MiB; every worker
        # the cap allows holds a block at once, whatever the machine's cores
        monkeypatch.setattr(oracle, "_cores", lambda: 64)
        tracemalloc.start()
        try:
            ac.mc_tail(ps, 1.0, 10**6, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("ps", PANEL_LAWS, ids=[ps.family.value for ps in PANEL_LAWS])
    def test_a_block_holds_at_most_two_draw_sized_arrays(self, ps):
        # |X - mu| is formed in the draws' own array, or in one float array
        # for integer draws: 0.28-0.57 MiB, where three arrays took 0.75 MiB
        mc_tail_call = (ps, 1.0, oracle._MC_BLOCK, 5)
        ac.mc_tail(*mc_tail_call)
        tracemalloc.start()
        try:
            ac.mc_tail(*mc_tail_call)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.4 * 8 * oracle._MC_BLOCK

    @pytest.mark.parametrize("ps", PANEL_LAWS + RAY_LAWS, ids=LAW_IDS)
    def test_sample_blocks_replay_one_array_and_its_end_state(self, ps):
        law, p = _valid_law(ps)
        one, split = (np.random.Generator(np.random.PCG64(9)) for _ in range(2))
        want = law.sample(p, one, 1000)
        got = np.concatenate([law.sample(p, split, b) for b in oracle._block_sizes(1000, 300)])
        assert np.array_equal(got, want)
        assert split.bit_generator.state == one.bit_generator.state

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
        assert ac.derive_seeds(2**64 - 1, 0) == []


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


# |x| past the split, where QUADPACK on [0, |x|] alone sampled none of the mass
LARGE_X = (1e3, 1e6, 1e300)


def direct_integral(pdf, x):
    """QUADPACK on [0, x] with the oracles' settings."""
    from scipy import integrate
    return integrate.quad(pdf, 0.0, x, epsabs=1e-12, epsrel=1e-13, limit=500)[0]


class TestQuadLargeArguments:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 30, 50, 400])
    def test_student_cdf_matches_stdtr(self, n):
        # at 1e6 the direct integral gave 0.4999997 for n = 1, and 0.5 for n = 3 and 30
        from scipy import special
        for x in LARGE_X:
            for sign in (1.0, -1.0):
                got = ac.quad_student_cdf(n, sign * x)
                assert abs(got - special.stdtr(n, sign * x)) <= 1e-12, (sign * x, got)

    def test_normal_tail_matches_erfc(self):
        # at 1e6 the direct integral gave 1.0
        for y in LARGE_X:
            assert abs(ac.quad_normal_symmetric_tail(y) - math.erfc(y / math.sqrt(2.0))) <= 1e-12

    @pytest.mark.parametrize("x", [0.5, 2.0, 5.0, 7.5, oracle._QUAD_SPLIT])
    def test_up_to_the_split_the_direct_integral_bit_for_bit(self, x):
        from scipy import special
        for n in (1, 3, 30):
            coeff = math.exp(float(special.gammaln((n + 1) / 2.0) - special.gammaln(n / 2.0)
                                   - 0.5 * math.log(n * math.pi)))
            value = direct_integral(lambda t: coeff * (1.0 + t * t / n) ** (-(n + 1) / 2.0), x)
            assert ac.quad_student_cdf(n, x) == min(1.0, 0.5 + value)
        value = direct_integral(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi), x)
        assert ac.quad_normal_symmetric_tail(x) == max(0.0, 1.0 - 2.0 * value)


# run in a fresh interpreter, since this test process holds numpy and may hold scipy
_IMPORT_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys
    sys.path.insert(0, sys.argv[1])

    def loaded():
        return {top: sorted(name for name in sys.modules if name.partition(".")[0] == top)
                for top in ("numpy", "scipy", "concurrent")}

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return anticonc.cli.main(list(argv))

    import anticonc, anticonc.cli
    anticonc.cli.build_parser()
    probe = {"after_parser": loaded()}
    probe["tail_code"] = run("tail", "--family", "poisson", "--params", sys.argv[2],
                             "--y", "1.0")
    probe["after_tail"] = loaded()
    # Poisson(1e8) takes its tails from Temme's expansion, pure math too
    probe["large_tail_code"] = run("tail", "--family", "poisson", "--params",
                                   '{"lambda": 1e8}', "--y", "1.0")
    probe["after_large_tail"] = loaded()
    # each ray's lead and form too
    probe["witness_codes"] = [run("witness", "--family", family, "--y", "1.0", "--epsilon", "1e-3")
                              for family in json.loads(sys.argv[5])]
    probe["after_witness"] = loaded()
    probe["nb_tail_code"] = run("tail", "--family", "neg-binomial", "--params", sys.argv[3],
                                "--y", "1.0")
    probe["after_nb"] = loaded()
    # gamma, beta and the Student's-t beta route (x^2 > 5 at y = 3) too
    probe["inc_tail_codes"] = [run("tail", "--family", family, "--params", json.dumps(params),
                                   "--y", "3.0")
                               for family, params in json.loads(sys.argv[4])]
    probe["after_inc_tails"] = loaded()
    probe["mc"] = repr(anticonc.mc_tail(anticonc.poisson(4.0), 1.0, 1000, seed=7))
    probe["after_mc"] = loaded()
    probe["value"] = anticonc.quad_student_cdf(5, 1.3)
    probe["after_quad"] = loaded()
    print(json.dumps(probe))
""")


def test_numpy_and_scipy_load_with_their_first_use_only():
    src = Path(ac.__file__).resolve().parent.parent
    params = [json.dumps(dict(_FAMILIES[family].panel.params))
              for family in (ac.FamilyId.POISSON, ac.FamilyId.NEG_BINOMIAL)]
    params.append(json.dumps([(family.value, dict(_FAMILIES[family].panel.params)) for family in (
        ac.FamilyId.GAMMA, ac.FamilyId.BETA, ac.FamilyId.STUDENT_T)]))
    params.append(json.dumps(sorted(family.value for family in ac.ZERO_INFIMUM_FAMILIES)))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(src), *params],
                          capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(proc.stdout)
    none = {"numpy": [], "scipy": [], "concurrent": []}
    assert probe["after_parser"] == none
    assert probe["tail_code"] == 0 and probe["after_tail"] == none
    assert probe["large_tail_code"] == 0 and probe["after_large_tail"] == none
    assert probe["witness_codes"] == [0] * 9 and probe["after_witness"] == none
    # the negative binomial's incomplete-beta tails are pure math too
    assert probe["nb_tail_code"] == 0
    assert probe["after_nb"] == none
    assert probe["inc_tail_codes"] == [0, 0, 0] and probe["after_inc_tails"] == none
    assert "numpy.random" in probe["after_mc"]["numpy"] and probe["after_mc"]["scipy"] == []
    # a one-block call counts in the caller's thread
    assert probe["after_mc"]["concurrent"] == []
    assert probe["mc"] == repr(ac.mc_tail(ac.poisson(4.0), 1.0, 1000, seed=7))
    assert "scipy.integrate" in probe["after_quad"]["scipy"]
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

    def test_invalid_grid_point_is_named_with_its_violations(self):
        bad = GridSpec(axes={"r": GridAxis(1.5, 3.0, 4)}, fixed={"A": 1.0})
        with pytest.raises(DomainError) as info:
            ac.grid_infimum("pareto", 1.0, bad)
        assert str(info.value) == ("grid point {'A': 1.0, 'r': 1.5} violates pareto "
                                   "constraints: r must exceed 2 for finite variance")

    def test_valid_point_whose_tail_refuses_keeps_that_error(self):
        # every point is a valid binomial law, but n = 2 * 10**6 is past the pmf-sum limit
        grid = GridSpec(axes={"p": GridAxis(0.1, 0.5, 3)}, fixed={"n": 2 * 10**6})
        with pytest.raises(DomainError) as info:
            ac.grid_infimum("binomial", 1.0, grid)
        assert str(info.value) == ("the binomial pmf sum is answered only for n <= 10**6, "
                                   "got n=2000000")

    @pytest.mark.parametrize("y", [0.0, -1.0, math.nan])
    def test_bad_y_over_valid_points_is_named_as_y(self, y):
        with pytest.raises(DomainError) as info:
            ac.grid_infimum("poisson", y, ac.default_grid("poisson"))
        assert str(info.value) == f"y must be a positive real, got {y!r}"

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


def grid_infimum_per_point(family, y, grid):
    """(value, argmin) of the grid by the route grid_infimum took before it typed
    its points itself: a ParamSet and a tail_probability call per point, and a
    validate call, to word the refusal, only when that call raises DomainError."""
    family = ac.FamilyId(family)
    names = sorted(grid.axes)
    value_lists = [grid.axes[name].values().tolist() for name in names]
    best = best_ps = None
    for combo in itertools.product(*value_lists):
        point = dict(grid.fixed)
        point.update(zip(names, combo))
        ps = ParamSet(family, oracle._complete_point(family, point))
        try:
            tail = ac.tail_probability(ps, y).probability
        except DomainError:
            problems = ac.validate(ps)
            if problems:
                raise DomainError(f"grid point {ps.params!r} violates {family.value} "
                                  "constraints: " + "; ".join(problems)) from None
            raise
        if best is None or tail < best:
            best, best_ps = tail, ps
    return best, best_ps


def grid_outcome(route, family, y, grid):
    """A route's value (its bits), its argmin's items in order with their types,
    or the error it raised, by type and text."""
    try:
        value, argmin = route(family, y, grid)
    except (DomainError, ConvergenceError) as exc:
        return type(exc).__name__, str(exc)
    return value.hex(), argmin.family, [(k, type(v), v) for k, v in argmin.params.items()]


def grid_infimum_pair(family, y, grid):
    est = ac.grid_infimum(family, y, grid)
    assert est.grid is grid
    return est.value, est.argmin


# the names a grid may give each family's point: its fields, or a derived axis
# with the rest (`oracle._complete_point`)
GRID_NAMES = {
    FamilyId.UNIFORM: [("a", "b"), ("b",)],
    FamilyId.NEG_BINOMIAL: [("r", "p"), ("r", "q")],
    FamilyId.PARETO: [("r", "A"), ("r_excess", "A")],
    FamilyId.HYPERGEOMETRIC: [("M", "N", "n"), ("N", "n")],
}
# each name's range inside every family's domain that uses the name, then a
# wider one past the domain on at least one side; both small enough that a
# tail stays cheap
NAME_RANGES = {
    "a": ((-10.0, -0.01), (-10.0, 10.0)), "b": ((0.01, 10.0), (-1.0, 10.0)),
    "lambda": ((0.01, 100.0), (-1.0, 100.0)), "mu": ((-5.0, 5.0), (-5.0, 5.0)),
    "sigma": ((0.05, 30.0), (-1.0, 30.0)), "n": ((3.0, 300.0), (0.0, 300.0)),
    "p": ((0.001, 0.999), (-0.1, 1.1)), "q": ((1e-6, 0.999), (-0.1, 1.1)),
    "r": ((2.01, 50.0), (-1.0, 50.0)), "M": ((1.0, 1000.0), (0.0, 3000.0)),
    "N": ((1001.0, 3000.0), (0.0, 3000.0)), "alpha": ((0.01, 100.0), (-0.5, 100.0)),
    "beta": ((0.01, 10.0), (-1.0, 10.0)), "A": ((0.01, 10.0), (-1.0, 10.0)),
    "r_excess": ((1e-6, 98.0), (-1.0, 98.0)), "zeta": ((0.0, 1.0), (0.0, 1.0)),
}
BAD_Y = [0.0, -1.0, math.nan, math.inf, True, "1"]


@st.composite
def grid_cases(draw):
    """(family, y, GridSpec): axes and fixed fields over the family's names,
    derived ones too; integer and float axes; ranges in and out of the domain;
    now and then a name missing, an unknown name, or a bad y."""
    family = draw(st.sampled_from(list(FamilyId)))
    law = _FAMILIES[family]
    names = list(draw(st.sampled_from(GRID_NAMES.get(family, [law.fields]))))
    change = draw(st.sampled_from([None] * 10 + ["drop", "zeta"]))
    if change == "drop" and len(names) > 1:
        names.pop(draw(st.integers(0, len(names) - 1)))
    elif change == "zeta":
        names.append("zeta")
    on_axes = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    axes, fixed = {}, {}
    for name in names:
        inside, wide = NAME_RANGES[name]
        lo_end, hi_end = inside if draw(st.sampled_from([True] * 5 + [False])) else wide
        ends = st.floats(lo_end, hi_end)
        integer_name = name in law.integer_fields
        if name in on_axes:
            lo, hi = sorted((draw(ends), draw(ends)))
            if lo == hi:
                hi = lo + 1.0
            scale = "logarithmic" if lo > 0 and draw(st.booleans()) else "linear"
            integer = draw(st.sampled_from([True] * 5 + [False] if integer_name
                                           else [False] * 3 + [True]))
            axes[name] = GridAxis(lo, hi, draw(st.integers(2, 5)), scale, integer)
        elif integer_name:
            whole = st.integers(math.ceil(lo_end), math.floor(hi_end))
            fixed[name] = draw(st.one_of(whole, whole.map(float), ends))
        else:
            fixed[name] = draw(ends)
    if draw(st.integers(0, 9)) == 0:
        y = draw(st.sampled_from(BAD_Y))
    else:
        y = draw(st.one_of(st.floats(0.05, 5.0), st.sampled_from([0.5, 1, 2.0])))
    return family, y, GridSpec(axes, fixed)


class TestGridRoute:
    """grid_infimum types each point once and takes its tail from `_tail`; the
    per-point ParamSet and tail_probability route it replaced is the oracle for
    its value, its argmin and its refusals."""

    @pytest.mark.parametrize("y", [0.5, 0.6, 1.0, 1.1, 2.0])
    @pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
    def test_default_grids_match_the_per_point_route(self, family, y):
        grid = ac.default_grid(family)
        want = grid_outcome(grid_infimum_per_point, family, y, grid)
        assert grid_outcome(grid_infimum_pair, family, y, grid) == want
        assert want[0] not in ("DomainError", "ConvergenceError")

    @given(grid_cases())
    def test_drawn_grids_match_the_per_point_route(self, case):
        family, y, grid = case
        assert (grid_outcome(grid_infimum_pair, family, y, grid)
                == grid_outcome(grid_infimum_per_point, family, y, grid))

    def test_a_bad_first_point_is_named_before_a_bad_y(self):
        grid = GridSpec(axes={"r": GridAxis(1.5, 3.0, 4)}, fixed={"A": 1.0})
        want = ("DomainError", "grid point {'A': 1.0, 'r': 1.5} violates pareto constraints: "
                "r must exceed 2 for finite variance")
        for route in (grid_infimum_pair, grid_infimum_per_point):
            assert grid_outcome(route, "pareto", -1.0, grid) == want

    def test_a_grid_builds_one_param_set_and_no_tail_result(self, monkeypatch):
        built = {"ParamSet": 0, "TailResult": 0}
        for cls in (distributions.ParamSet, distributions.TailResult):
            real_init = cls.__init__

            def counting_init(self, *args, _init=real_init, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting_init)

        def refuse(*args):
            raise AssertionError("grid_infimum validated a point through a ParamSet")
        monkeypatch.setattr(distributions, "validate", refuse)
        monkeypatch.setattr(distributions, "_valid_law", refuse)
        for family in FamilyId:
            built.update(ParamSet=0, TailResult=0)
            est = ac.grid_infimum(family, 1.1, ac.default_grid(family))
            assert built == {"ParamSet": 1, "TailResult": 0}, family
            assert est.argmin.family is family


class TestGridSpecJson:
    def test_axis_validation(self):
        for points in (1, 2.5, True, 10**30):
            with pytest.raises(DomainError, match="axis points must be an integer"):
                GridAxis(1.0, 10.0, points)
        with pytest.raises(DomainError):
            GridAxis(10.0, 1.0, 5)
        with pytest.raises(DomainError):
            GridAxis(0.0, 1.0, 5, "logarithmic")
        with pytest.raises(DomainError):
            GridAxis(0.0, 1.0, 5, "sqrt")
        with pytest.raises(DomainError):
            GridSpec(axes={})

    def test_a_grid_past_10_to_the_6_points_is_refused(self):
        # 10**12 tail calls, were it accepted; each axis alone is within its cap
        axis = GridAxis(1, 2, 10**6)
        with pytest.raises(DomainError, match=r"grid axes make 1000000000000 points"):
            GridSpec({"a": axis, "b": axis})
        with pytest.raises(DomainError, match=r"grid axes make 1000002 points"):
            GridSpec({"a": GridAxis(1, 2, 2), "b": GridAxis(1, 2, 500001)})
        assert GridSpec({"a": axis}).axes["a"] is axis
        assert len(GridSpec({"a": GridAxis(1, 2, 1000), "b": GridAxis(1, 2, 1000)}).axes) == 2

    @pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
    def test_default_and_verify_grids_stay_under_800_points(self, family):
        # verify's grid_refinement sweeps each default axis at 2 * points - 1
        grid = ac.default_grid(family)
        assert math.prod(axis.points for axis in grid.axes.values()) < 800
        for name, axis in grid.axes.items():
            others = math.prod(a.points for n, a in grid.axes.items() if n != name)
            assert (2 * axis.points - 1) * others < 800
