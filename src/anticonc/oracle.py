"""Independent verification engines.

Nothing here shares code with the closed forms it checks: the quadrature
oracles integrate the Student's-t and normal densities with scipy's
adaptive QUADPACK rules (scipy's log-gamma, not ours), in u = 1/t past
t = 10, the Monte Carlo oracle estimates tails from seeded PCG64 streams,
and the grid oracle brute-forces the parameter infimum that the closed
forms claim to attain.  The Monte Carlo oracle draws and counts in
blocks of 2**15 variates, block i from its own stream
`PCG64(seed).jumped(i)`, on up to 4 threads (numpy releases the GIL
while it samples), so its memory is constant in the number of draws.  The
count is a sum of integers, so no machine, core count or thread count
changes an estimate.
Its grid types `GridAxis` and `GridSpec`, and each family's default
grid, live with the family records in `distributions`; `_complete_point`
below is the rule that turns a grid's derived axes into the family's
own parameters.

numpy and scipy load on first use, not with this module.  numpy is
imported by the first call that draws a sample, derives seeds or spans a
grid; scipy by the first quadrature call.  So `anticonc tail` and
`anticonc witness`, whose answers are closed forms and exact tails, load
neither; `anticonc curve` loads numpy for its y grid, and `anticonc
verify` loads both.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Optional, Union

from .distributions import (
    FamilyId,
    GridAxis,
    GridSpec,
    ParamSet,
    _FAMILIES,
    _as_family,
    _check_dof,
    _check_x,
    _check_y,
    _checked,
    _tail,
    _tail_sd,
    _valid_law,
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

# t past which the quadrature oracles integrate a density in u = 1/t.  QUADPACK on
# [0, x] samples none of the mass once x is large, and its error estimate passes:
# against stdtr for n in {1, 2, 3, 7, 30, 50, 400} the direct integral held within
# 6.1e-14 up to x = 3000 but gave 1/2 for some n at x = 1e4, and the normal tail
# came out 1.0 there.  With the split at 10 both oracles held within 6.4e-14 of
# stdtr and erfc from x = 5 to 1.7e308, and every x of the checks (|x| <= 5)
# keeps the direct integral, bit for bit.
_QUAD_SPLIT = 10.0

# mc_tail draws and counts at most _MC_BLOCK variates per block, on at most
# _MC_WORKERS threads at once, so its memory does not grow with n_samples: a
# running block peaks at 0.57 MiB under tracemalloc (integer draws and their
# deviations; 0.28-0.50 MiB for float draws), so a call holds about 2.3 MiB at the cap
_MC_BLOCK = 2**15
_MC_WORKERS = 4


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_err: float
    n_samples: int
    seed: int


def _check_seed(seed: int) -> None:
    """The one seed rule: an int, not a bool, from 0 to 2**64 - 1."""
    if not (type(seed) is int and 0 <= seed < 2**64):
        raise DomainError(f"seed must be a 64-bit integer, got {seed}")


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Deterministic child seeds, one per task, from a 64-bit master seed."""
    _check_seed(master_seed)
    if not (type(count) is int and count >= 0):
        raise DomainError(f"derive_seeds requires an integer count >= 0, got {count!r}")
    import numpy as np
    state = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def _block_sizes(n: int, block: int) -> list[int]:
    """n split into runs of block, the last one shorter."""
    return [block] * (n // block) + ([n % block] if n % block else [])


def _cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def mc_tail(ps: ParamSet, y: float, n_samples: int, seed: int) -> McEstimate:
    """Empirical fraction of |X - mu| >= y*sigma over seeded PCG64 streams.

    The n_samples draws (an int from 1000 to 10**9) are made and counted in
    blocks of 2**15, so memory stays constant whatever n_samples is.  Block
    i draws from its own stream, `PCG64(seed).jumped(i)`; a call whose
    draws fit in one block draws from `PCG64(seed)` itself.  The blocks are
    counted on k = min(blocks, cores, 4) threads, thread j taking blocks j,
    j + k, j + 2k, ..., and the hits are summed as integers, so the
    estimate is the same on every machine and for every thread count.  A
    one-block call, or a call on one core, counts in the caller's thread.
    """
    law, p = _valid_law(ps)
    if not (type(n_samples) is int and 1000 <= n_samples <= 10**9):
        raise DomainError(f"mc_tail requires an integer n_samples from 1000 to 10**9, "
                          f"got {n_samples!r}")
    _check_seed(seed)
    y = _check_y(y)
    mean, variance = law.moments(p)
    sd = _tail_sd(ps.family, mean, variance)
    import numpy as np
    base = np.random.PCG64(seed)
    sizes = _block_sizes(n_samples, _MC_BLOCK)
    workers = min(len(sizes), _cores(), _MC_WORKERS)

    def count(first: int) -> int:
        """The hits in blocks first, first + workers, first + 2*workers, ..."""
        hits = 0
        for i in range(first, len(sizes), workers):
            draws = law.sample(p, np.random.Generator(base.jumped(i)), sizes[i])
            # |X - mu| in one float array: the draws' own, or one new for integer draws
            dev = np.subtract(draws, mean, out=draws if draws.dtype.kind == "f" else None)
            hits += int(np.count_nonzero(np.abs(dev, out=dev) >= y * sd))
        return hits

    if workers == 1:
        hits = count(0)
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            hits = sum(pool.map(count, range(workers)))
    est = hits / n_samples
    std_err = math.sqrt(est * (1.0 - est) / n_samples)
    return McEstimate(estimate=est, std_err=std_err, n_samples=n_samples, seed=seed)


def _half_line(pdf, pdf_in_u, x: float, context: str) -> float:
    """The integral of a density over [0, x], x > 0: directly over
    [0, min(x, s)], and past s = _QUAD_SPLIT as the integral of
    pdf_in_u(u) = pdf(1/u) / u^2 over [1/x, 1/s]."""
    from scipy import integrate

    value, err = integrate.quad(pdf, 0.0, min(x, _QUAD_SPLIT), epsabs=_QUAD_TOL,
                                epsrel=1e-13, limit=500)
    if x > _QUAD_SPLIT:
        rest, rest_err = integrate.quad(pdf_in_u, 1.0 / x, 1.0 / _QUAD_SPLIT,
                                        epsabs=_QUAD_TOL, epsrel=1e-13, limit=500)
        value, err = value + rest, err + rest_err
    if err > 100.0 * _QUAD_TOL:
        raise ConvergenceError(f"quadrature error estimate {err} exceeds budget ({context})")
    return value


def quad_student_cdf(n: int, x: float) -> float:
    """Student's t CDF by adaptive quadrature of the density (oracle route).

    1/2 + integral of the density over [0, x] (`_half_line`), with the
    x < 0 case folded through symmetry.
    """
    n = _check_dof(n, 1)
    x = _check_x(x)
    if x < 0.0:
        return 1.0 - quad_student_cdf(n, -x)
    if x == 0.0:
        return 0.5
    from scipy import special

    log_coeff = float(special.gammaln((n + 1) / 2.0) - special.gammaln(n / 2.0)
                      - 0.5 * math.log(n * math.pi))
    coeff = math.exp(log_coeff)

    def pdf(t: float) -> float:
        return coeff * (1.0 + t * t / n) ** (-(n + 1) / 2.0)

    def pdf_in_u(u: float) -> float:
        # pdf(1/u) / u^2 with w = n u^2, which neither overflows nor divides by 0
        w = n * u * u
        return coeff * n * (w / (1.0 + w)) ** ((n - 1) / 2.0) / (1.0 + w)

    return min(1.0, 0.5 + _half_line(pdf, pdf_in_u, x, f"t density, n={n}, x={x}"))


def quad_normal_symmetric_tail(y: float) -> float:
    """P(|Z| >= y) for standard normal Z, by quadrature of the density (`_half_line`)."""
    y = _check_y(y)

    def pdf(t: float) -> float:
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    def pdf_in_u(u: float) -> float:
        # pdf(1/u) / u^2 in logs: 1/u^2 overflows a double for u below 1e-154
        t = 1.0 / u
        return math.exp(-0.5 * t * t + 2.0 * math.log(t)) / math.sqrt(2.0 * math.pi)

    return max(0.0, 1.0 - 2.0 * _half_line(pdf, pdf_in_u, y, f"normal density, y={y}"))


# --- brute-force grid infimum ---------------------------------------------

@dataclass(frozen=True)
class InfimumEstimate:
    value: float
    argmin: ParamSet
    grid: GridSpec


def _complete_point(family: FamilyId, params: dict) -> dict:
    """params, its derived axes replaced in place by the family's own parameters."""
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
    range is the caller's error, not a point to skip silently.  Each point
    is typed and checked once, by `_checked`, and an invalid one is refused
    at once as "grid point {...} violates <family> constraints: ...".  y is
    checked once the first point passes, so a bad point is named before a
    bad y.  A valid point's tail is `_tail`'s float, so the only ParamSet
    built is the argmin's, the same completed dict.
    """
    family = _as_family(family)
    law = _FAMILIES[family]
    names = sorted(grid.axes)
    value_lists = [grid.axes[name].values().tolist() for name in names]
    best: Optional[float] = None
    best_point: Optional[dict] = None
    for combo in itertools.product(*value_lists):
        point = dict(grid.fixed)
        point.update(zip(names, combo))
        p, problems = _checked(law, _complete_point(family, point))
        if problems:
            raise DomainError(f"grid point {point!r} violates {family.value} constraints: "
                              + "; ".join(problems))
        if best is None:
            y = _check_y(y)
        tail = _tail(law, family, p, y)
        if best is None or tail < best:
            best, best_point = tail, point
    assert best is not None and best_point is not None
    return InfimumEstimate(value=best, argmin=ParamSet(family, best_point), grid=grid)


def default_grid(family: Union[FamilyId, str]) -> GridSpec:
    """Canonical verification grid, bracketed toward the family's limiting ray."""
    return _FAMILIES[_as_family(family)].grid
