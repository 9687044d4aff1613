"""Oracle engines: Monte Carlo tails, t-density quadrature, grid infima."""

import json
import math
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import anticonc as ac
from anticonc import GridAxis, GridSpec, oracle
from anticonc.distributions import _FAMILIES, _valid_law
from anticonc.errors import DomainError

PANEL_LAWS = [law.panel for law in _FAMILIES.values()]
# a point two steps along each of the nine witness rays
RAY_LAWS = [law.ray.build(law.ray.step(law.ray.step(law.ray.start)))
            for law in _FAMILIES.values() if law.ray is not None]
LAW_IDS = [f"{ps.family.value}-{i}" for i, ps in enumerate(PANEL_LAWS + RAY_LAWS)]


def one_array_estimate(ps, y, n, seed):
    """The fraction of one array of n draws from a fresh PCG64(seed) stream."""
    law, p = _valid_law(ps)
    m = law.moments(p)
    draws = law.sample(p, np.random.Generator(np.random.PCG64(seed)), n)
    return np.count_nonzero(np.abs(draws - m.mean) >= y * math.sqrt(m.variance)) / n


def block_stream_estimate(ps, y, n, seed):
    """The fraction counted block by block in one thread, block i drawn from
    its own PCG64(seed).jumped(i) stream."""
    law, p = _valid_law(ps)
    m = law.moments(p)
    hits = 0
    for i, start in enumerate(range(0, n, oracle._MC_BLOCK)):
        rng = np.random.Generator(np.random.PCG64(seed).jumped(i))
        draws = law.sample(p, rng, min(oracle._MC_BLOCK, n - start))
        hits += np.count_nonzero(np.abs(draws - m.mean) >= y * math.sqrt(m.variance))
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
