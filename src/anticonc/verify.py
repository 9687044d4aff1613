"""Self-check suites behind `anticonc verify`.

Each check re-derives one of the library's claims through an independent
route (identities, quadrature, Monte Carlo, brute-force grids).  A check
is one function of the master seed that returns its pass/fail lines,
and a suite is an ordered tuple of checks.  The CLI exits nonzero if
anything fails.

Thirteen checks are also acceptance criteria 1-8, which call these same
functions under their own time budgets: the uniform grid infimum and the
Monte Carlo at the minimizing laws (1), exponential rate invariance (2),
the Gaussian and t-CDF quadratures (3, 4), the Student's-t scan (4), its
{3, 4} fast path (5), the cutoff values and sequence (6), the witnesses
(7), and the 2F1 reduction, the contiguous relation and the
incomplete-beta duality (8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import anticoncentration as anti
from . import distributions as dist
from . import oracle
from .distributions import FamilyId
from .errors import DomainError
from .specfun import gauss_2f1, log_gamma, reg_inc_beta, reg_inc_gamma_lower, std_normal_cdf

__all__ = ["CheckResult", "SUITES", "MASTER_SEED", "run_suite", "run_suites"]

# each Monte Carlo check draws _MC_SAMPLES variates from a seed derived from MASTER_SEED
MASTER_SEED = 123456789
_MC_SAMPLES = 10**6


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _mc_miss(ps: dist.ParamSet, y: float, want: float, seed: int) -> str:
    """The miss "MC <estimate> vs exact <want>" where a Monte Carlo tail from
    seed lies more than 4 standard errors from want; "" where it agrees."""
    est = oracle.mc_tail(ps, y, _MC_SAMPLES, seed).estimate
    se = math.sqrt(max(want * (1.0 - want), 0.0) / _MC_SAMPLES)
    return f"MC {est} vs exact {want}" if abs(est - want) > 4.0 * se else ""


# sampler-vs-moments wants a finite fourth moment (Pareto needs r > 4)
MOMENTS_PANEL = {family: law.panel for family, law in dist._FAMILIES.items()}
MOMENTS_PANEL[FamilyId.PARETO] = dist.pareto(6.0, 2.0)


# --- specfun suite ----------------------------------------------------------

def twof1_reduction(seed: int) -> list[CheckResult]:
    worst = 0.0
    for a in (0.6, 1.5, 3.25, 7.0):
        for b in (0.5, 1.0, 2.0, 5.5):
            for z in (-4.0, -1.0, -0.5, 0.0, 0.5):
                got = gauss_2f1(a, b, a, z)
                worst = max(worst, _rel_err(got, (1.0 - z) ** (-b)))
    return [CheckResult("specfun", "2F1(a,b;a;z) = (1-z)^-b", worst <= 1e-12,
                        f"worst rel err {worst:.3e}")]


def contiguous_relation(seed: int) -> list[CheckResult]:
    worst = 0.0
    for n in range(3, 51):
        for y in (0.25, 0.5, 1.0, 1.2):
            z = -y * y / n
            lhs = (n + 1) / 2.0 * gauss_2f1(0.5, (n + 3) / 2.0, 1.5, z)
            rhs = (n / 2.0 * gauss_2f1(0.5, (n + 1) / 2.0, 1.5, z)
                   + 0.5 * (1.0 - z) ** (-(n + 1) / 2.0))
            worst = max(worst, _rel_err(lhs, rhs))
    return [CheckResult("specfun", "contiguous relation instance", worst <= 1e-11,
                        f"worst rel err {worst:.3e}")]


def twof1_symmetry(seed: int) -> list[CheckResult]:
    worst = 0.0
    for a, b, c in ((0.5, 2.5, 1.75), (1.2, 3.4, 2.2), (0.3, 0.9, 4.0)):
        for z in np.linspace(-8.0, 0.0, 17):
            worst = max(worst, _rel_err(gauss_2f1(a, b, c, float(z)),
                                        gauss_2f1(b, a, c, float(z))))
    return [CheckResult("specfun", "2F1 symmetric in (a, b)", worst <= 1e-12,
                        f"worst rel err {worst:.3e}")]


def beta_duality(seed: int) -> list[CheckResult]:
    worst = 0.0
    xs = [float(x) for points in (25, 30) for x in np.linspace(0.01, 0.99, points)]
    for a, b in ((0.5, 0.5), (2.0, 3.0), (0.1, 7.0)):
        for x in xs:
            worst = max(worst, abs(reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) - 1.0))
    return [CheckResult("specfun", "I_x(a,b) + I_(1-x)(b,a) = 1", worst <= 1e-12,
                        f"worst abs err {worst:.3e}")]


def incomplete_monotone(seed: int) -> list[CheckResult]:
    mono_ok = True
    for a in (0.5, 1.0, 3.0):
        vals = [reg_inc_gamma_lower(a, x) for x in np.linspace(0.0, 12.0, 60)]
        mono_ok &= all(u <= v + 1e-15 for u, v in zip(vals, vals[1:]))
        vals = [reg_inc_beta(x, a, 2.0) for x in np.linspace(0.0, 1.0, 60)]
        mono_ok &= all(u <= v + 1e-15 for u, v in zip(vals, vals[1:]))
    return [CheckResult("specfun", "incomplete gamma/beta nondecreasing", mono_ok)]


def special_anchors(seed: int) -> list[CheckResult]:
    anchors = (abs(log_gamma(1.0)) <= 1e-14
               and abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) <= 1e-14
               and _rel_err(log_gamma(11.0), math.log(3628800.0)) <= 1e-14
               and abs(std_normal_cdf(0.0) - 0.5) == 0.0
               and abs(std_normal_cdf(1.7) + std_normal_cdf(-1.7) - 1.0) <= 1e-15)
    return [CheckResult("specfun", "log-gamma / normal-CDF anchors", anchors)]


# --- closed-forms suite -----------------------------------------------------

def _random_params(family: FamilyId, rng: np.random.Generator) -> dist.ParamSet:
    if family is FamilyId.UNIFORM:
        a = rng.uniform(-10.0, 5.0)
        return dist.uniform(a, a + rng.uniform(0.1, 10.0))
    if family is FamilyId.EXPONENTIAL:
        return dist.exponential(10.0 ** rng.uniform(-2, 2))
    if family is FamilyId.GAUSSIAN:
        return dist.gaussian(rng.uniform(-5, 5), 10.0 ** rng.uniform(-2, 2))
    raise ValueError(family)


def _tail_by_cdf(ps: dist.ParamSet, y: float) -> float:
    """P(|X - mu| >= y*sigma) through the law's own CDF, in absolute coordinates:
    cdf(mu - y*sigma) + 1 - cdf(mu + y*sigma), a route apart from the
    standardized tail that `tail_probability` returns for these families."""
    m = dist.moments(ps)
    sd = math.sqrt(m.variance)
    return dist.cdf(ps, m.mean - y * sd) + 1.0 - dist.cdf(ps, m.mean + y * sd)


def tails_attain_bound(seed: int) -> list[CheckResult]:
    """The infimum is attained at every parameter point of these three families."""
    out: list[CheckResult] = []
    rng = np.random.Generator(np.random.PCG64(oracle.derive_seeds(seed, 1)[0]))
    for family in (FamilyId.UNIFORM, FamilyId.EXPONENTIAL, FamilyId.GAUSSIAN):
        a_fn = anti._CLOSED_FORMS[family]
        worst = 0.0
        for y in (0.3, 1.0, 2.0):
            bound = a_fn(y).value
            for _ in range(50):
                ps = _random_params(family, rng)
                tail = _tail_by_cdf(ps, y)
                if tail < bound - 1e-12:
                    worst = math.inf
                worst = max(worst, abs(tail - bound))
        out.append(CheckResult("closed-forms", f"{family.value}: tails attain the bound",
                               worst <= 1e-12, f"worst |tail - A(y)| {worst:.3e}"))
    return out


def cutoff_values(seed: int) -> list[CheckResult]:
    got = [anti.cutoff_dof(y) for y in (0.5, 0.9, 1.0)]
    return [CheckResult("closed-forms", "cutoff dof at y=0.5/0.9/1.0 is 3/5/6",
                        got == [3, 5, 6], f"got {got}")]


def cutoff_sequence(seed: int) -> list[CheckResult]:
    ratios = [anti.cutoff_ratio(n) for n in range(3, 7)]
    want = [1.0 / 3.0, 8.0 / 11.0, 21.0 / 23.0, 40.0 / 39.0]
    return [CheckResult("closed-forms", "cutoff sequence hand values",
                        all(abs(g - w) <= 1e-15 for g, w in zip(ratios, want)))]


def student_t_scan(seed: int) -> list[CheckResult]:
    worst = 0.0
    for y in (0.25, 0.5, 0.75, 1.0, 1.1, 1.2):
        full = anti.a_student_t(y).value
        best = max(anti.inner_probability(n, y) for n in range(3, 401))
        worst = max(worst, abs(full - (1.0 - best)))
    return [CheckResult("closed-forms", "student-t curve = 1 - max central mass (n<=400)",
                        worst <= 1e-12, f"worst abs err {worst:.3e}")]


def student_t_fast_path(seed: int) -> list[CheckResult]:
    worst = 0.0
    for y in np.linspace(0.1, 1.0, 10):
        y = float(y)
        full = anti.a_student_t(y).value
        short = 2.0 - 2.0 * max(anti.student_t_cdf(n, y * math.sqrt(n / (n - 2.0)))
                                for n in (3, 4))
        worst = max(worst, abs(full - short))
    return [CheckResult("closed-forms", "fast path {3,4} matches full scan for y <= 1",
                        worst <= 1e-12, f"worst abs err {worst:.3e}")]


def uniform_grid_infimum(seed: int) -> list[CheckResult]:
    """An identity: `tail_probability` gives every uniform law the same standardized
    tail, the closed form itself, so each grid point ties with the formula."""
    want = anti.a_uniform(1.0).value
    diff = abs(oracle.grid_infimum(FamilyId.UNIFORM, 1.0,
                                   oracle.default_grid(FamilyId.UNIFORM)).value - want)
    return [CheckResult("closed-forms", "uniform grid infimum matches the formula",
                        diff <= 1e-12, f"|diff| {diff:.3e}")]


def exponential_rate_invariance(seed: int) -> list[CheckResult]:
    tails = [_tail_by_cdf(dist.exponential(float(lam)), 1.0)
             for rates in (50, 100) for lam in np.geomspace(1e-2, 1e2, rates)]
    return [CheckResult("closed-forms", "exponential tail is rate-invariant",
                        max(tails) - min(tails) <= 1e-12)]


def mc_at_minimizing_laws(seed: int) -> list[CheckResult]:
    y = 1.0
    t_curve = anti.a_student_t(y)
    mc_checks = [(dist.uniform(-1.0, 1.0), anti.a_uniform(y).value),
                 (dist.exponential(1.0), anti.a_exponential(y).value),
                 (dist.gaussian(0.0, 1.0), anti.a_gaussian(y).value),
                 (dist.student_t(t_curve.detail.argmax_n), t_curve.value)]
    ok_mc = not any(_mc_miss(ps, y, want, child_seed) for (ps, want), child_seed
                    in zip(mc_checks, oracle.derive_seeds(seed, 4)))
    return [CheckResult("closed-forms", "Monte Carlo agrees at the minimizing laws", ok_mc)]


# --- witnesses suite --------------------------------------------------------

def witnesses_certified(seed: int) -> list[CheckResult]:
    """Each witness is a valid law whose recomputed tail is its certified one,
    at most epsilon, and which Monte Carlo confirms."""
    out: list[CheckResult] = []
    families = sorted(anti.ZERO_INFIMUM_FAMILIES, key=lambda f: f.value)
    panel = [(y, eps) for y in (0.5, 1.0, 2.0) for eps in (1e-2, 1e-3, 1e-4)]
    seeds = iter(oracle.derive_seeds(seed, len(families) * len(panel)))
    for family in families:
        ok = True
        worst = ""
        for (y, eps), child_seed in zip(panel, seeds):
            w = anti.witness_parameter(family, y, eps)
            exact = dist.tail_probability(w.params, y).probability
            if not (dist.validate(w.params) == [] and w.achieved_tail <= eps
                    and exact == w.achieved_tail):
                ok, worst = False, f"tail {w.achieved_tail} (exact {exact}) vs eps {eps} at y={y}"
                continue
            miss = _mc_miss(w.params, y, exact, child_seed)
            if miss:
                ok, worst = False, f"{miss} at y={y}, eps={eps}"
        out.append(CheckResult("witnesses", f"{family.value}: certified below epsilon",
                               ok, worst))
    return out


# --- oracles suite ----------------------------------------------------------

def t_cdf_quadrature(seed: int) -> list[CheckResult]:
    worst = 0.0
    for n in range(1, 51):
        for x in (-5.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0):
            worst = max(worst, abs(anti.student_t_cdf(n, x)
                                   - oracle.quad_student_cdf(n, x)))
    return [CheckResult("oracles", "t CDF vs quadrature", worst <= 1e-10,
                        f"worst abs err {worst:.3e}")]


def gaussian_quadrature(seed: int) -> list[CheckResult]:
    worst = 0.0
    for y in (0.5, 1.0, 2.0, 3.0):
        worst = max(worst, abs(anti.a_gaussian(y).value
                               - oracle.quad_normal_symmetric_tail(y)))
    return [CheckResult("oracles", "gaussian curve vs normal-density quadrature",
                        worst <= 1e-10, f"worst abs err {worst:.3e}")]


def mc_panel(seed: int) -> list[CheckResult]:
    seeds = iter(oracle.derive_seeds(seed ^ 0x5EED, len(dist._FAMILIES) * 3))
    ok_mc = True
    detail = ""
    for family in sorted(dist._FAMILIES, key=lambda f: f.value):
        ps = dist._FAMILIES[family].panel
        for y, child_seed in zip((0.5, 1.0, 2.0), seeds):
            exact = dist.tail_probability(ps, y).probability
            miss = _mc_miss(ps, y, exact, child_seed)
            if miss:
                ok_mc, detail = False, f"{family.value} y={y}: {miss}"
    return [CheckResult("oracles", "Monte Carlo within 4 standard errors (13 families)",
                        ok_mc, detail)]


def tails_nonincreasing(seed: int) -> list[CheckResult]:
    ok_mono = True
    for law in dist._FAMILIES.values():
        tails = [dist.tail_probability(law.panel, y).probability
                 for y in np.linspace(0.05, 4.0, 40)]
        ok_mono &= all(u >= v - 1e-12 for u, v in zip(tails, tails[1:]))
    return [CheckResult("oracles", "tail probability nonincreasing in y", ok_mono)]


def cdf_nondecreasing(seed: int) -> list[CheckResult]:
    ok_cdf = True
    for law in dist._FAMILIES.values():
        m = dist.moments(law.panel)
        sd = math.sqrt(m.variance)
        xs = np.linspace(m.mean - 6 * sd, m.mean + 6 * sd, 41)
        vals = [dist.cdf(law.panel, float(x)) for x in xs]
        ok_cdf &= all(u <= v + 1e-12 for u, v in zip(vals, vals[1:]))
    for ps in (dist.gaussian(0.0, 1.0), dist.student_t(3), dist.log_normal(0.0, 1.0)):
        ok_cdf &= dist.cdf(ps, -1e15) <= 1e-12
        ok_cdf &= dist.cdf(ps, 1e15) >= 1.0 - 1e-12
    return [CheckResult("oracles", "CDF nondecreasing with correct far tails", ok_cdf)]


def sampler_moments(seed: int) -> list[CheckResult]:
    seeds = oracle.derive_seeds(seed ^ 0xA11CE, len(MOMENTS_PANEL))
    ok_mom = True
    detail = ""
    for i, family in enumerate(sorted(MOMENTS_PANEL, key=lambda f: f.value)):
        ps = MOMENTS_PANEL[family]
        m = dist.moments(ps)
        rng = np.random.Generator(np.random.PCG64(seeds[i]))
        draws = np.asarray(dist.sample(ps, rng, size=_MC_SAMPLES), dtype=float)
        n = draws.size
        se_mean = math.sqrt(m.variance / n)
        if abs(draws.mean() - m.mean) > 5.0 * se_mean:
            ok_mom, detail = False, f"{family.value} mean off"
        s2 = draws.var(ddof=1)
        m4 = np.mean((draws - draws.mean()) ** 4)
        se_var = math.sqrt(max(m4 - s2 * s2, 0.0) / n)
        if abs(s2 - m.variance) > 5.0 * se_var:
            ok_mom, detail = False, f"{family.value} variance off"
    return [CheckResult("oracles", "sampler matches moments (5 standard errors)",
                        ok_mom, detail)]


def grid_refinement(seed: int) -> list[CheckResult]:
    ok_refine = True
    for family, axis_name in ((FamilyId.UNIFORM, "b"), (FamilyId.POISSON, "lambda")):
        base = oracle.default_grid(family)
        axis = base.axes[axis_name]
        fine = oracle.GridSpec(
            axes={axis_name: oracle.GridAxis(axis.lo, axis.hi, 2 * axis.points - 1,
                                             axis.scale, axis.integer)},
            fixed=base.fixed)
        v_base = oracle.grid_infimum(family, 1.0, base).value
        v_fine = oracle.grid_infimum(family, 1.0, fine).value
        ok_refine &= v_fine <= v_base + 1e-15
    return [CheckResult("oracles", "grid refinement never raises the infimum", ok_refine)]


def grid_infima_above_closed_forms(seed: int) -> list[CheckResult]:
    ok_lb = True
    for family, a_fn in anti._CLOSED_FORMS.items():
        inf_est = oracle.grid_infimum(family, 1.0, oracle.default_grid(family))
        bound = a_fn(1.0).value
        ok_lb &= inf_est.value >= bound - 1e-12 and inf_est.value - bound <= 1e-3
    return [CheckResult("oracles", "grid infima sit just above the closed forms", ok_lb)]


_SUITE_CHECKS = {
    "specfun": (twof1_reduction, contiguous_relation, twof1_symmetry, beta_duality,
                incomplete_monotone, special_anchors),
    "closed-forms": (tails_attain_bound, cutoff_values, cutoff_sequence, student_t_scan,
                     student_t_fast_path, uniform_grid_infimum, exponential_rate_invariance,
                     mc_at_minimizing_laws),
    "witnesses": (witnesses_certified,),
    "oracles": (t_cdf_quadrature, gaussian_quadrature, mc_panel, tails_nonincreasing,
                cdf_nondecreasing, sampler_moments, grid_refinement,
                grid_infima_above_closed_forms),
}

SUITES = tuple(_SUITE_CHECKS)


def run_suite(name: str, seed: int = MASTER_SEED) -> list[CheckResult]:
    if name not in _SUITE_CHECKS:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES} or 'all'")
    if not (isinstance(seed, int) and 0 <= seed < 2**64):
        raise DomainError(f"seed must be a 64-bit integer, got {seed}")
    return [result for check in _SUITE_CHECKS[name] for result in check(seed)]


def run_suites(names, seed: int = MASTER_SEED) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name in names:
        results.extend(run_suite(name, seed))
    return results
