"""Acceptance suite.

One test per criterion, each printing a pass/fail line (run with -s to
watch them).  Runtime budgets are enforced with perf counters.  Where a
criterion shares a check with `anticonc verify`, it runs that check's one
body from `anticonc.verify` at the master seed, with the tolerance pinned
there; assertions only a criterion makes are pinned here.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import anticonc as ac
from anticonc import cli, verify


@contextmanager
def criterion(num, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL  {label}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {num}: PASS ({elapsed:.2f}s)  {label}")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} ran {elapsed:.2f}s, budget {budget}s"


def passes(*checks):
    """Run each verify check at the master seed; every line it reports must pass."""
    for check in checks:
        for result in check(verify.MASTER_SEED):
            assert result.passed, (result.name, result.detail)


def test_criterion_1_uniform_closed_form():
    with criterion(1, "uniform curve vs grid infimum and Monte Carlo", budget=5.0):
        assert abs(ac.a_uniform(1.0).value - (1.0 - 1.0 / math.sqrt(3.0))) <= 1e-15
        passes(verify.uniform_grid_infimum, verify.mc_at_minimizing_laws)


def test_criterion_2_exponential_closed_form():
    with criterion(2, "exponential curve vs exact tails, rate-invariant grid"):
        want_half = 1.0 - math.exp(-0.5) + math.exp(-1.5)
        for y, want in ((1.0, math.exp(-2.0)), (0.5, want_half)):
            assert abs(ac.a_exponential(y).value - want) <= 1e-15
            assert abs(ac.tail_probability(ac.exponential(1.0), y).probability - want) <= 1e-12
        passes(verify.exponential_rate_invariance)
        est = ac.grid_infimum("exponential", 1.0, ac.default_grid("exponential"))
        assert abs(est.value - math.exp(-2.0)) <= 1e-12


def test_criterion_3_gaussian_vs_quadrature():
    with criterion(3, "gaussian curve vs quadrature of the normal density"):
        passes(verify.gaussian_quadrature)


def test_criterion_4_student_t_curve_and_cdf_agreement():
    with criterion(4, "student-t curve vs wide scan; CDF series vs quadrature",
                   budget=30.0):
        passes(verify.student_t_scan, verify.t_cdf_quadrature)


def test_criterion_5_small_y_fast_path_and_monotone_mass():
    with criterion(5, "fast {3,4} scan matches; central mass decreasing"):
        passes(verify.student_t_fast_path)
        for y in np.linspace(0.1, 1.0, 10):
            y = float(y)
            js = {n: ac.inner_probability(n, y) for n in range(3, 102)}
            for n in range(3, 100):
                assert js[n + 2] < js[n], (y, n)


def _exact_ratio(n):
    return Fraction(3 * n * n - 14 * n + 16, 2 * n * n - 6 * n + 3)


def test_criterion_6_cutoff_dof_values():
    with criterion(6, "cutoff degrees of freedom confirmed by exact rationals"):
        passes(verify.cutoff_values, verify.cutoff_sequence)
        assert [_exact_ratio(n) for n in range(3, 7)] == [
            Fraction(1, 3), Fraction(8, 11), Fraction(21, 23), Fraction(40, 39)]
        # independent scan with exact rational comparisons
        for y, want in ((0.5, 3), (0.9, 5), (1.0, 6)):
            y2 = Fraction(y).limit_denominator(10**6) ** 2
            n = 3
            while not y2 < _exact_ratio(n):
                n += 1
            assert n == want


def test_criterion_7_zero_infimum_certificates():
    with criterion(7, "epsilon-witnesses for all nine families, Monte Carlo confirmed",
                   budget=120.0):
        passes(verify.witnesses_certified)


def test_criterion_8_special_function_identities():
    with criterion(8, "hypergeometric identity panels and incomplete-beta duality"):
        passes(verify.twof1_reduction, verify.contiguous_relation, verify.beta_duality)


def test_criterion_9_verify_all_is_green(capsys):
    with criterion(9, "`verify all` exits 0 with every property green"):
        code = cli.main(["verify", "all"])
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert code == 0
