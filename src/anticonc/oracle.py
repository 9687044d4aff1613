"""Independent verification engines.

Nothing here shares code with the closed forms it checks: the quadrature
oracle integrates the Student's-t density with scipy's adaptive QUADPACK
rules (scipy's log-gamma, not ours), the Monte Carlo oracle estimates
tails from seeded PCG64 streams, and the grid oracle brute-forces the
parameter infimum that the closed forms claim to attain.  Its grid types
`GridAxis` and `GridSpec`, and each family's default grid, live with the
family records in `distributions`; `_complete_point` below is the rule
that turns a grid's derived axes into the family's own parameters.

scipy is imported on the first quadrature call, not with this module:
it takes most of a second to load, and nothing else in the package
needs it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .distributions import (
    FamilyId,
    GridAxis,
    GridSpec,
    ParamSet,
    _FAMILIES,
    _as_family,
    _check_y,
    _tail_sd,
    _valid_law,
    tail_probability,
    validate,
)
from .errors import ConvergenceError, DomainError

__all__ = [
    "McEstimate",
    "GridAxis",
    "GridSpec",
    "InfimumEstimate",
    "mc_tail",
    "quad_student_cdf",
    "quad_normal_symmetric_tail",
    "grid_infimum",
    "default_grid",
    "derive_seeds",
]

# absolute tolerance of the quadrature oracles; an error estimate past 100x fails
_QUAD_TOL = 1e-12


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_err: float
    n_samples: int
    seed: int


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Deterministic child seeds, one per task, from a 64-bit master seed."""
    state = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def mc_tail(ps: ParamSet, y: float, n_samples: int, seed: int) -> McEstimate:
    """Empirical fraction of |X - mu| >= y*sigma over a seeded PCG64 stream."""
    law, p = _valid_law(ps)
    if not (isinstance(n_samples, int) and n_samples >= 1000):
        raise DomainError(f"mc_tail requires n_samples >= 1000, got {n_samples!r}")
    y = _check_y(y)
    m = law.moments(p)
    sd = _tail_sd(ps.family, m)
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = law.sample(p, rng, n_samples)
    hits = np.count_nonzero(np.abs(draws - m.mean) >= y * sd)
    est = hits / n_samples
    std_err = math.sqrt(est * (1.0 - est) / n_samples)
    return McEstimate(estimate=est, std_err=std_err, n_samples=n_samples, seed=seed)


def _t_pdf(n: int, gammaln):
    log_coeff = float(gammaln((n + 1) / 2.0) - gammaln(n / 2.0)
                      - 0.5 * math.log(n * math.pi))
    coeff = math.exp(log_coeff)

    def pdf(t: float) -> float:
        return coeff * (1.0 + t * t / n) ** (-(n + 1) / 2.0)

    return pdf


def quad_student_cdf(n: int, x: float) -> float:
    """Student's t CDF by adaptive quadrature of the density (oracle route).

    1/2 + integral of the density over [0, x], with the x < 0 case folded
    through symmetry.
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"quad_student_cdf requires an integer n >= 1, got {n!r}")
    if not math.isfinite(x):
        raise DomainError(f"quad_student_cdf requires finite x, got {x!r}")
    if x < 0.0:
        return 1.0 - quad_student_cdf(n, -x)
    if x == 0.0:
        return 0.5
    from scipy import integrate, special

    value, err = integrate.quad(_t_pdf(n, special.gammaln), 0.0, x, epsabs=_QUAD_TOL,
                                epsrel=1e-13, limit=500)
    if err > 100.0 * _QUAD_TOL:
        raise ConvergenceError(
            f"t-density quadrature error estimate {err} exceeds budget (n={n}, x={x})")
    return min(1.0, 0.5 + value)


def quad_normal_symmetric_tail(y: float) -> float:
    """P(|Z| >= y) for standard normal Z, by quadrature of the density."""
    y = _check_y(y)
    from scipy import integrate

    def pdf(t: float) -> float:
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    value, err = integrate.quad(pdf, 0.0, y, epsabs=_QUAD_TOL, epsrel=1e-13, limit=500)
    if err > 100.0 * _QUAD_TOL:
        raise ConvergenceError(f"normal-density quadrature error estimate {err} too large")
    return max(0.0, 1.0 - 2.0 * value)


# --- brute-force grid infimum ---------------------------------------------

@dataclass(frozen=True)
class InfimumEstimate:
    value: float
    argmin: ParamSet
    grid: GridSpec


def _complete_point(family: FamilyId, point: dict) -> dict:
    params = dict(point)
    if family is FamilyId.UNIFORM and "a" not in params and "b" in params:
        params["a"] = -params["b"]
    if family is FamilyId.NEG_BINOMIAL and "q" in params:
        params["p"] = 1.0 - params.pop("q")
    if family is FamilyId.PARETO and "r_excess" in params:
        params["r"] = 2.0 + params.pop("r_excess")
    if family is FamilyId.HYPERGEOMETRIC and "M" not in params and "N" in params:
        params["M"] = params["N"] - 1
    return params


def grid_infimum(family: Union[FamilyId, str], y: float, grid: GridSpec) -> InfimumEstimate:
    """Minimum standardized tail over every grid point, with its argmin.

    Every completed grid point must be a valid parameter set; an invalid
    range is the caller's error, not a point to skip silently.
    """
    family = _as_family(family)
    names = sorted(grid.axes)
    value_lists = [grid.axes[name].values() for name in names]
    best: Optional[float] = None
    best_ps: Optional[ParamSet] = None
    for combo in itertools.product(*value_lists):
        point = dict(grid.fixed)
        point.update({name: (int(v) if isinstance(v, (np.integer, int)) else float(v))
                      for name, v in zip(names, combo)})
        ps = ParamSet(family, _complete_point(family, point))
        problems = validate(ps)
        if problems:
            raise DomainError(
                f"grid point {ps.params!r} violates {family.value} constraints: "
                + "; ".join(problems))
        tail = tail_probability(ps, y).probability
        if best is None or tail < best:
            best, best_ps = tail, ps
    assert best is not None and best_ps is not None
    return InfimumEstimate(value=best, argmin=best_ps, grid=grid)


def default_grid(family: Union[FamilyId, str]) -> GridSpec:
    """Canonical verification grid, bracketed toward the family's limiting ray."""
    return _FAMILIES[_as_family(family)].grid
