"""Tests for the benchmark's reference code, plus a one-pass smoke run per workload.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402


def _cutoff_by_scan(y: float) -> int:
    y2 = Fraction(y) ** 2
    n = 3
    while not y2 < Fraction(3 * n * n - 14 * n + 16, 2 * n * n - 6 * n + 3):
        n += 1
    return n


@pytest.mark.parametrize("y, n0", [(0.5, 3), (0.9, 5), (1.0, 6)])
def test_cutoff_hand_values(y, n0):
    assert ref.cutoff_dof(y) == n0


@pytest.mark.parametrize("gap", [1e-1, 1e-2, 1e-3, 1e-4])
def test_cutoff_matches_exact_scan_near_the_edge(gap):
    for y in (math.sqrt(1.5 - gap), 0.3, 0.577, 0.58, 1.1):
        assert ref.cutoff_dof(y) == _cutoff_by_scan(y)


def test_cutoff_refuses_past_the_edge():
    with pytest.raises(ValueError):
        ref.cutoff_dof(1.2248)  # sqrt(6)/2 = 1.22474...


def test_student_t_curve_at_one_is_half_minus_one_over_pi():
    # for y <= 1 the maximizing law is t_3, whose CDF is elementary:
    # F_3(sqrt(3)) = 3/4 + 1/(2 pi), so A(1) = 1/2 - 1/pi
    value, n0, argmax_n = ref.a_student_t(1.0)
    assert (n0, argmax_n) == (6, 3)
    assert abs(value - (0.5 - 1.0 / math.pi)) <= 1e-15


def test_uniform_closed_form_hand_values():
    assert ref.a_uniform(1.0) == pytest.approx(1.0 - 1.0 / math.sqrt(3.0), abs=1e-16)
    assert ref.a_uniform(math.sqrt(3.0)) == 0.0
    assert ref.a_uniform(2.0) == 0.0


def test_exponential_closed_form_hand_values():
    assert ref.a_exponential(0.5) == pytest.approx(
        1.0 - math.exp(-0.5) + math.exp(-1.5), abs=1e-16)
    assert ref.a_exponential(2.0) == pytest.approx(math.exp(-3.0), abs=1e-16)


@pytest.mark.parametrize("y", [0.3, 1.0, 1.5, 2.5])
def test_closed_forms_equal_tails_of_any_member(y):
    for a, b in ((-1.0, 1.0), (2.0, 9.5)):
        assert abs(ref.tail_scipy("uniform", {"a": a, "b": b}, y) - ref.a_uniform(y)) <= 1e-12
    for lam in (0.01, 1.0, 70.0):
        got = ref.tail_scipy("exponential", {"lambda": lam}, y)
        assert abs(got - ref.a_exponential(y)) <= 1e-12
    assert abs(ref.tail_scipy("gaussian", {"mu": 3.0, "sigma": 0.2}, y)
               - ref.a_gaussian(y)) <= 1e-12


def test_lattice_points_at_the_boundary_count_in_the_tail():
    # Bernoulli(1/4): sd = sqrt(3)/4; k = 1 lies 3/4 from the mean, k = 0 only 1/4
    assert ref.tail_mp("binomial", {"n": 1, "p": 0.25}, 1.0) == 0.25
    assert ref.tail_scipy("binomial", {"n": 1, "p": 0.25}, 1.0) == 0.25


@pytest.mark.parametrize("family, params", [
    ("gamma", {"alpha": 2.5, "beta": 1.5}),
    ("gamma", {"alpha": 1e-3, "beta": 1.0}),
    ("beta", {"p": 2.0, "q": 5.0}),
    ("beta", {"p": 1.0, "q": 1e-4}),
    ("pareto", {"r": 4.0, "A": 2.0}),
    ("weibull", {"alpha": 1.7, "lambda": 0.8}),
    ("log-normal", {"alpha": 0.2, "sigma": 0.6}),
    ("poisson", {"lambda": 4.0}),
    ("neg-binomial", {"r": 2.5, "p": 0.4}),
    ("hypergeometric", {"M": 30, "N": 100, "n": 20}),
])
@pytest.mark.parametrize("y", [0.5, 1.3, 2.0])
def test_scipy_and_mpmath_routes_agree(family, params, y):
    assert abs(ref.tail_scipy(family, params, y) - ref.tail_mp(family, params, y)) <= 1e-13


def test_mpmath_route_survives_moments_beyond_a_double():
    # sigma = 30: the variance is about e^1800, past a double; the tail is about
    # Phi(-log(sd) / sigma) = Phi(-30), near 5e-198
    tail = ref.tail_mp("log-normal", {"alpha": 0.0, "sigma": 30.0}, 1.0)
    assert 1e-199 < tail < 1e-196
    # alpha = 1e-3: the mean is Gamma(1001), about 4e2564
    tail = ref.tail_mp("weibull", {"alpha": 1e-3, "lambda": 1.0}, 1.0)
    assert 0.0 < tail < 1.0


def test_grid_expansion_completes_derived_axes():
    spec = {"axes": {"b": {"lo": 1.0, "hi": 4.0, "points": 4, "scale": "linear",
                           "integer": False}}, "fixed": {}}
    pts = ref.expand_grid("uniform", spec)
    assert list(pts["b"]) == [1.0, 2.0, 3.0, 4.0]
    assert list(pts["a"]) == [-1.0, -2.0, -3.0, -4.0]
    spec = {"axes": {"N": {"lo": 2, "hi": 10, "points": 3, "scale": "linear",
                           "integer": True}}, "fixed": {"n": 1}}
    pts = ref.expand_grid("hypergeometric", spec)
    assert list(pts["M"]) == list(np.array([2, 6, 10]) - 1)
    assert ref.grid_min_tail("uniform", {"axes": {"b": {"lo": 1.0, "hi": 2.0, "points": 2,
                                                        "scale": "linear"}}}, 1.0) \
        == pytest.approx(ref.a_uniform(1.0), abs=1e-15)


# known-fault executions in one smoke pass: faults 4 and 5 run in each of the
# four curves rounds; faults 1 and 2 once per tails pass, fault 3 once per round
SMOKE_FAILED = {"curves": 3 * 4, "tails": 3 + 3 + 4, "oracles": 0}


@pytest.mark.parametrize("workload", ["curves", "tails", "oracles"])
def test_smoke_pass(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--smoke"], cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == SMOKE_FAILED[workload]
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "latency_p50_ms",
                                      "latency_p90_ms", "peak_rss_mib"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tails", "--seed", "7",
         "--seconds", "1", "--trace", "1"], cwd=BENCH.parent, capture_output=True,
        text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert result["correct"] is True, proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    # every one of the 451 executions in a tails pass is one tail_probability call
    assert metrics["distributions.tail_probability.calls"] == 3 * 451
    assert metrics["anticoncentration.witness_parameter.calls"] == 0
