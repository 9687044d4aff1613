"""The incomplete gamma at large shape, and the Poisson and gamma laws on it.

Where a >= 100 and |x - a| <= 0.3 a, `specfun._inc_gamma` takes Temme's
uniform expansion; elsewhere a series or continued fraction behind a
front factor.  These checks hold both kernels that share it to 40-digit
references at one a per decade from 10^2 to 10^15 and on either side of
each edge of that switch, hold the Poisson and gamma tails to their
`abs_error_bound` at shapes up to 10^15, and scan those laws out to
y = 10^298 for a call that does not return.

mpmath's gammainc raises NoConvergence on the lower tail from a = 1e5 and
takes seconds for the upper one from 1e12, so the reference is a
quadrature of the Gamma(a) density (`exact.gamma_lower_mp`).
"""

import math

import mpmath
import pytest

import anticonc as ac
from anticonc import specfun

import exact

def test_the_quadrature_agrees_with_gammainc_where_that_converges():
    a = 1000.0
    xs = [a + s * math.sqrt(a) for s in (-5, -1, 0, 0.5, 2, 5)]
    with mpmath.workdps(exact.GAMMA_DIGITS):
        want = [mpmath.gammainc(a, 0, x, regularized=True) for x in xs]
    for got, w in zip(exact.gamma_lower_mp(a, xs), want):
        assert abs(got - w) <= mpmath.mpf(10) ** -35


S_PANEL = (-5, -2, -1, -0.5, 0, 0.5, 1, 2, 5)
# two ulps of a value in [1/2, 1)
TWO_ULPS = 2.3e-16


def assert_kernels_near(a, xs):
    """_gamma_tails (P and Q) within two ulps of the 40-digit P(a, x) in the
    Temme band and elsewhere within the series and fraction's 1e-15;
    reg_inc_gamma_lower is its P."""
    for x, p in zip(xs, exact.gamma_lower_mp(a, xs)):
        band = a >= 100.0 and abs(x - a) <= 0.3 * a
        got_p, got_q = specfun._gamma_tails(a, x)
        assert max(abs(got_p - p), abs(got_q - (1 - p))) <= (TWO_ULPS if band else 1e-15)
        assert specfun.reg_inc_gamma_lower(a, x) == got_p


@pytest.mark.parametrize("decade", range(2, 16))
def test_decade_panel_against_40_digits(decade):
    # the Temme band holds every point from a = 10^3 on; at 10^2 the points
    # at s = +-5 lie past 0.3 a and keep the series and fraction.  Before
    # the expansion reg_inc_gamma_lower was off by 8.8e-13 at gamma(10^4, 1)
    # (its front from log_gamma), and both raised ConvergenceError from
    # about a = 2e10
    a = 10.0 ** decade
    assert_kernels_near(a, [a + s * math.sqrt(a) for s in S_PANEL])


@pytest.mark.parametrize("a", [math.nextafter(100.0, 0.0), 100.0])
def test_either_side_of_the_shape_edge(a):
    # just under a = 100 every point takes the series or the fraction
    assert_kernels_near(a, [a + s * math.sqrt(a) for s in S_PANEL])


@pytest.mark.parametrize("a", [100.0, 1e3, 1e4, 1e6])
def test_either_side_of_the_band_edges(a):
    # x = 0.7 a and 1.3 a lie in the band, the next doubles out of it
    edges = [0.7 * a, 1.3 * a]
    assert all(abs(x - a) <= 0.3 * a for x in edges)
    xs = [math.nextafter(edges[0], 0.0), *edges, math.nextafter(edges[1], math.inf)]
    assert abs(xs[0] - a) > 0.3 * a and abs(xs[-1] - a) > 0.3 * a
    assert_kernels_near(a, xs)


@pytest.mark.parametrize("y", [0.5, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("ps", [ac.poisson(1e8), ac.poisson(1e11), ac.poisson(1e15),
                                ac.gamma_family(1e4, 1.0), ac.gamma_family(1e8, 1.0),
                                ac.gamma_family(1e10, 1.0), ac.gamma_family(1e12, 1.0)],
                         ids=lambda ps: f"{ps.family.value}{dict(ps.params)}")
def test_large_shape_tails_within_the_bound(ps, y):
    # Poisson(1e11) and (1e15) and gamma(1e12, 1) raised ConvergenceError
    # after 0.25 s a call before the expansion
    got = ac.tail_probability(ps, y)
    assert abs(got.probability - exact.gamma_poisson_tail_mp(ps, y)) <= got.abs_error_bound


SCAN_SHAPES = (1e3, 1e6, 1e10, 1e20, 1e50, 1e100, 1e150)
SCAN_Y = tuple(10.0 ** e for e in range(-2, 299, 2))


@pytest.mark.parametrize("family", ["poisson", "gamma"])
def test_no_convergence_error_from_y_1e_minus_2_to_1e298(family):
    # 1,057 calls per family; before the expansion and the rule that an
    # underflowing front factor ends the call, 167 of the 2,114 raised
    # ConvergenceError (gamma(1e20, 1) at y = 1e16 among them), in 67 s
    build = ac.poisson if family == "poisson" else (lambda a: ac.gamma_family(a, 1.0))
    for a in SCAN_SHAPES:
        ps = build(a)
        for y in SCAN_Y:
            try:
                got = ac.tail_probability(ps, y)
            except ac.DomainError as exc:
                # 110 of the calls, from a = 1e50: y sigma is under an ulp of the mean
                assert "lost in rounding the mean" in str(exc)
                assert y * math.sqrt(a) <= a * 2.0 ** -52
                continue
            # Chebyshev: the tail is at most 1/y^2
            assert 0.0 <= got.probability <= min(1.0, 1.0 / (y * y)) + got.abs_error_bound


@pytest.mark.parametrize("family", ["poisson", "gamma"])
@pytest.mark.parametrize("a", [1e305, 1e308])
def test_the_largest_shapes_return(family, a):
    # bd0 once looped forever where x + m passed a double (Poisson(1e308)
    # at y = 1e150 hung), and the log_gamma front of gamma(1e308, 1) was
    # nan, so its series stalled into ConvergenceError
    ps = ac.poisson(a) if family == "poisson" else ac.gamma_family(a, 1.0)
    for y in (1e150, 0.31 * math.sqrt(a), 0.9 * math.sqrt(a)):
        if y * math.sqrt(a) <= a * 2.0 ** -52:
            continue  # lost in rounding the mean
        got = ac.tail_probability(ps, y)
        assert 0.0 <= got.probability <= 1.0 / (y * y) + got.abs_error_bound


@pytest.mark.parametrize("a", [5e-324, 1e-310, 1e-308, math.nextafter(1e-307, 0.0)])
def test_a_shape_whose_reciprocal_passes_a_double_gives_p_one(a):
    # P's series starts at 1/a; Q(a, x) is about a E_1(x) < 1e-304, so P = 1
    # in doubles.  The series used to stall into ConvergenceError
    for x in (5e-324, 1e-300, 0.5, 1.0, 30.0):
        assert specfun.reg_inc_gamma_lower(a, x) == 1.0
    got = ac.tail_probability(ac.gamma_family(a, 1.0), 1.0)
    assert got.probability == 0.0
