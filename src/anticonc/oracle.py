"""Independent verification engines.

Nothing here shares code with the closed forms it checks: the quadrature
oracle integrates the Student's-t density with scipy's adaptive QUADPACK
rules (scipy's log-gamma, not ours), the Monte Carlo oracle estimates
tails from seeded PCG64 streams, and the grid oracle brute-forces the
parameter infimum that the closed forms claim to attain.

scipy is imported on the first quadrature call, not with this module:
it takes most of a second to load, and nothing else in the package
needs it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

import numpy as np

from .distributions import (
    FamilyId,
    ParamSet,
    _as_family,
    _tail_sd,
    moments,
    require_valid,
    sample,
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

    def to_json_dict(self) -> dict:
        return {"estimate": self.estimate, "std_err": self.std_err,
                "n_samples": self.n_samples, "seed": self.seed}


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Deterministic child seeds, one per task, from a 64-bit master seed."""
    state = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def mc_tail(ps: ParamSet, y: float, n_samples: int, seed: int) -> McEstimate:
    """Empirical fraction of |X - mu| >= y*sigma over a seeded PCG64 stream."""
    require_valid(ps)
    if not (isinstance(n_samples, int) and n_samples >= 1000):
        raise DomainError(f"mc_tail requires n_samples >= 1000, got {n_samples!r}")
    if not (isinstance(y, (int, float)) and math.isfinite(y) and y > 0):
        raise DomainError(f"mc_tail requires y > 0, got {y!r}")
    m = moments(ps)
    sd = _tail_sd(ps.family, m)
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = sample(ps, rng, size=n_samples)
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
    if not (isinstance(y, (int, float)) and math.isfinite(y) and y > 0):
        raise DomainError(f"quad_normal_symmetric_tail requires y > 0, got {y!r}")

    from scipy import integrate

    def pdf(t: float) -> float:
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    value, err = integrate.quad(pdf, 0.0, y, epsabs=_QUAD_TOL, epsrel=1e-13, limit=500)
    if err > 100.0 * _QUAD_TOL:
        raise ConvergenceError(f"normal-density quadrature error estimate {err} too large")
    return max(0.0, 1.0 - 2.0 * value)


# --- brute-force grid infimum ---------------------------------------------

_SCALE_ALIASES = {"linear": "linear", "logarithmic": "logarithmic", "log": "logarithmic"}


@dataclass(frozen=True)
class GridAxis:
    lo: float
    hi: float
    points: int
    scale: str = "linear"
    integer: bool = False

    def __post_init__(self):
        if self.scale not in _SCALE_ALIASES:
            raise DomainError(f"axis scale must be linear or logarithmic, got {self.scale!r}")
        object.__setattr__(self, "scale", _SCALE_ALIASES[self.scale])
        if self.points < 2:
            raise DomainError(f"axis needs at least 2 points, got {self.points}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise DomainError(f"axis range must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        if self.scale == "logarithmic" and self.lo <= 0:
            raise DomainError("logarithmic axis requires lo > 0")

    def values(self) -> np.ndarray:
        if self.scale == "logarithmic":
            vals = np.geomspace(self.lo, self.hi, self.points)
        else:
            vals = np.linspace(self.lo, self.hi, self.points)
        if self.integer:
            vals = np.unique(np.rint(vals).astype(np.int64))
        return vals

    def to_json_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "points": self.points,
                "scale": self.scale, "integer": self.integer}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "GridAxis":
        return cls(lo=float(data["lo"]), hi=float(data["hi"]),
                   points=int(data["points"]), scale=data.get("scale", "linear"),
                   integer=bool(data.get("integer", False)))


@dataclass(frozen=True)
class GridSpec:
    """Axes to sweep (Cartesian product) plus parameters held fixed.

    Besides the family's own field names, three derived axis names keep
    grids pointed at the interesting limits: "b" alone for the uniform
    family means the symmetric interval (-b, b); "q" for the negative
    binomial means p = 1 - q; "r_excess" for the Pareto means r = 2 +
    r_excess; a hypergeometric grid over "N" alone implies M = N - 1.
    """

    axes: Mapping[str, GridAxis]
    fixed: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.axes:
            raise DomainError("GridSpec needs at least one axis")

    def to_json_dict(self) -> dict:
        return {"axes": {k: v.to_json_dict() for k, v in sorted(self.axes.items())},
                "fixed": dict(self.fixed)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "GridSpec":
        axes = {name: GridAxis.from_json_dict(spec)
                for name, spec in data.get("axes", {}).items()}
        return cls(axes=axes, fixed=dict(data.get("fixed", {})))


@dataclass(frozen=True)
class InfimumEstimate:
    value: float
    argmin: ParamSet
    grid: GridSpec

    def to_json_dict(self) -> dict:
        return {"value": self.value, "argmin": self.argmin.to_json_dict(),
                "grid": self.grid.to_json_dict()}


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


_DEFAULT_GRIDS: dict[FamilyId, GridSpec] = {
    FamilyId.UNIFORM: GridSpec(
        axes={"b": GridAxis(1e-2, 1e2, 100, "logarithmic")}),
    FamilyId.EXPONENTIAL: GridSpec(
        axes={"lambda": GridAxis(1e-2, 1e2, 100, "logarithmic")}),
    FamilyId.GAUSSIAN: GridSpec(
        axes={"mu": GridAxis(-3.0, 3.0, 7),
              "sigma": GridAxis(0.1, 10.0, 15, "logarithmic")}),
    FamilyId.STUDENT_T: GridSpec(
        axes={"n": GridAxis(3, 400, 398, "linear", integer=True)}),
    FamilyId.BINOMIAL: GridSpec(
        axes={"p": GridAxis(1e-6, 0.5, 100, "logarithmic")}, fixed={"n": 1}),
    FamilyId.POISSON: GridSpec(
        axes={"lambda": GridAxis(1e-4, 1e2, 200, "logarithmic")}),
    FamilyId.NEG_BINOMIAL: GridSpec(
        axes={"q": GridAxis(1e-6, 0.5, 100, "logarithmic")}, fixed={"r": 1.0}),
    FamilyId.HYPERGEOMETRIC: GridSpec(
        axes={"N": GridAxis(2, 10**5, 60, "logarithmic", integer=True)},
        fixed={"n": 1}),
    FamilyId.GAMMA: GridSpec(
        axes={"alpha": GridAxis(1e-6, 1e2, 120, "logarithmic")}, fixed={"beta": 1.0}),
    FamilyId.PARETO: GridSpec(
        axes={"r_excess": GridAxis(1e-6, 98.0, 120, "logarithmic")}, fixed={"A": 1.0}),
    FamilyId.WEIBULL: GridSpec(
        axes={"alpha": GridAxis(1e-3, 1e2, 120, "logarithmic")}, fixed={"lambda": 1.0}),
    FamilyId.LOG_NORMAL: GridSpec(
        axes={"sigma": GridAxis(0.1, 30.0, 120, "logarithmic")}, fixed={"alpha": 0.0}),
    FamilyId.BETA: GridSpec(
        axes={"q": GridAxis(1e-6, 1.0, 100, "logarithmic")}, fixed={"p": 1.0}),
}


def default_grid(family: Union[FamilyId, str]) -> GridSpec:
    """Canonical verification grid, bracketed toward the family's limiting ray."""
    return _DEFAULT_GRIDS[_as_family(family)]
