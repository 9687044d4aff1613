"""Self-check suites behind `anticonc verify`.

Each suite re-derives a slice of the library's claims through an
independent route (identities, quadrature, Monte Carlo, brute-force
grids) and reports one pass/fail line per check.  The CLI exits nonzero
if anything fails.
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

SUITES = ("specfun", "closed-forms", "witnesses", "oracles")

# each Monte Carlo check draws _MC_SAMPLES variates from a seed derived from MASTER_SEED
MASTER_SEED = 123456789
_MC_SAMPLES = 10**6


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _result(suite: str, name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(suite=suite, name=name, passed=bool(passed), detail=detail)


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _mc_miss(ps: dist.ParamSet, y: float, want: float, seed: int) -> str:
    """The miss "MC <estimate> vs exact <want>" where a Monte Carlo tail from
    seed lies more than 4 standard errors from want; "" where it agrees."""
    est = oracle.mc_tail(ps, y, _MC_SAMPLES, seed).estimate
    se = math.sqrt(max(want * (1.0 - want), 0.0) / _MC_SAMPLES)
    return f"MC {est} vs exact {want}" if abs(est - want) > 4.0 * se + 1e-15 else ""


# --- parameter panels -------------------------------------------------------

# one representative, well-conditioned parameter set per family
MC_PANEL: dict[FamilyId, dist.ParamSet] = {
    FamilyId.UNIFORM: dist.uniform(-1.0, 2.0),
    FamilyId.EXPONENTIAL: dist.exponential(1.3),
    FamilyId.GAUSSIAN: dist.gaussian(0.5, 2.0),
    FamilyId.STUDENT_T: dist.student_t(5),
    FamilyId.BINOMIAL: dist.binomial(20, 0.3),
    FamilyId.POISSON: dist.poisson(4.0),
    FamilyId.NEG_BINOMIAL: dist.neg_binomial(2.5, 0.4),
    FamilyId.HYPERGEOMETRIC: dist.hypergeometric(30, 100, 20),
    FamilyId.GAMMA: dist.gamma_family(2.5, 1.5),
    FamilyId.PARETO: dist.pareto(4.0, 2.0),
    FamilyId.WEIBULL: dist.weibull(1.7, 0.8),
    FamilyId.LOG_NORMAL: dist.log_normal(0.2, 0.6),
    FamilyId.BETA: dist.beta_family(2.0, 5.0),
}

# sampler-vs-moments wants a finite fourth moment (Pareto needs r > 4)
MOMENTS_PANEL = dict(MC_PANEL)
MOMENTS_PANEL[FamilyId.PARETO] = dist.pareto(6.0, 2.0)


# --- specfun suite ----------------------------------------------------------

def _suite_specfun(seed: int) -> list[CheckResult]:
    out: list[CheckResult] = []

    worst = 0.0
    for a in (0.6, 1.5, 3.25, 7.0):
        for b in (0.5, 1.0, 2.0, 5.5):
            for z in (-4.0, -1.0, -0.5, 0.0, 0.5):
                got = gauss_2f1(a, b, a, z)
                worst = max(worst, _rel_err(got, (1.0 - z) ** (-b)))
    out.append(_result("specfun", "2F1(a,b;a;z) = (1-z)^-b", worst <= 1e-12,
                       f"worst rel err {worst:.3e}"))

    worst = 0.0
    for n in range(3, 51):
        for y in (0.25, 0.5, 1.0, 1.2):
            z = -y * y / n
            lhs = (n + 1) / 2.0 * gauss_2f1(0.5, (n + 3) / 2.0, 1.5, z)
            rhs = (n / 2.0 * gauss_2f1(0.5, (n + 1) / 2.0, 1.5, z)
                   + 0.5 * (1.0 - z) ** (-(n + 1) / 2.0))
            worst = max(worst, _rel_err(lhs, rhs))
    out.append(_result("specfun", "contiguous relation instance", worst <= 1e-11,
                       f"worst rel err {worst:.3e}"))

    worst = 0.0
    for a, b, c in ((0.5, 2.5, 1.75), (1.2, 3.4, 2.2), (0.3, 0.9, 4.0)):
        for z in np.linspace(-8.0, 0.0, 17):
            worst = max(worst, _rel_err(gauss_2f1(a, b, c, float(z)),
                                        gauss_2f1(b, a, c, float(z))))
    out.append(_result("specfun", "2F1 symmetric in (a, b)", worst <= 1e-12,
                       f"worst rel err {worst:.3e}"))

    worst = 0.0
    for a, b in ((0.5, 0.5), (2.0, 3.0), (0.1, 7.0)):
        for x in np.linspace(0.01, 0.99, 25):
            worst = max(worst, abs(reg_inc_beta(float(x), a, b)
                                   + reg_inc_beta(1.0 - float(x), b, a) - 1.0))
    out.append(_result("specfun", "I_x(a,b) + I_(1-x)(b,a) = 1", worst <= 1e-12,
                       f"worst abs err {worst:.3e}"))

    mono_ok = True
    for a in (0.5, 1.0, 3.0):
        vals = [reg_inc_gamma_lower(a, x) for x in np.linspace(0.0, 12.0, 60)]
        mono_ok &= all(u <= v + 1e-15 for u, v in zip(vals, vals[1:]))
        vals = [reg_inc_beta(x, a, 2.0) for x in np.linspace(0.0, 1.0, 60)]
        mono_ok &= all(u <= v + 1e-15 for u, v in zip(vals, vals[1:]))
    out.append(_result("specfun", "incomplete gamma/beta nondecreasing", mono_ok))

    anchors = (abs(log_gamma(1.0)) <= 1e-14
               and abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) <= 1e-14
               and _rel_err(log_gamma(11.0), math.log(3628800.0)) <= 1e-14
               and abs(std_normal_cdf(0.0) - 0.5) == 0.0
               and abs(std_normal_cdf(1.7) + std_normal_cdf(-1.7) - 1.0) <= 1e-15)
    out.append(_result("specfun", "log-gamma / normal-CDF anchors", anchors))
    return out


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


def _suite_closed_forms(seed: int) -> list[CheckResult]:
    out: list[CheckResult] = []
    rng = np.random.Generator(np.random.PCG64(oracle.derive_seeds(seed, 1)[0]))

    # the infimum is attained at every parameter point for these three
    for family in (FamilyId.UNIFORM, FamilyId.EXPONENTIAL, FamilyId.GAUSSIAN):
        a_fn = anti._CLOSED_FORMS[family]
        worst = 0.0
        for y in (0.3, 1.0, 2.0):
            bound = a_fn(y).value
            for _ in range(50):
                ps = _random_params(family, rng)
                tail = dist.tail_probability(ps, y).probability
                if tail < bound - 1e-12:
                    worst = math.inf
                worst = max(worst, abs(tail - bound))
        out.append(_result("closed-forms", f"{family.value}: tails attain the bound",
                           worst <= 1e-12, f"worst |tail - A(y)| {worst:.3e}"))

    got = [anti.cutoff_dof(y) for y in (0.5, 0.9, 1.0)]
    out.append(_result("closed-forms", "cutoff dof at y=0.5/0.9/1.0 is 3/5/6",
                       got == [3, 5, 6], f"got {got}"))

    ratios = [anti.cutoff_ratio(n) for n in range(3, 7)]
    want = [1.0 / 3.0, 8.0 / 11.0, 21.0 / 23.0, 40.0 / 39.0]
    out.append(_result("closed-forms", "cutoff sequence hand values",
                       all(abs(g - w) <= 1e-15 for g, w in zip(ratios, want))))

    worst = 0.0
    for y in (0.25, 0.5, 0.75, 1.0, 1.1, 1.2):
        full = anti.a_student_t(y).value
        best = max(anti.inner_probability(n, y) for n in range(3, 401))
        worst = max(worst, abs(full - (1.0 - best)))
    out.append(_result("closed-forms", "student-t curve = 1 - max central mass (n<=400)",
                       worst <= 1e-12, f"worst abs err {worst:.3e}"))

    worst = 0.0
    for y in np.linspace(0.1, 1.0, 10):
        y = float(y)
        full = anti.a_student_t(y).value
        short = 2.0 - 2.0 * max(anti.student_t_cdf(n, y * math.sqrt(n / (n - 2.0)))
                                for n in (3, 4))
        worst = max(worst, abs(full - short))
    out.append(_result("closed-forms", "fast path {3,4} matches full scan for y <= 1",
                       worst <= 1e-12, f"worst abs err {worst:.3e}"))

    # grid infima sit on the closed forms
    y = 1.0
    inf_u = oracle.grid_infimum(FamilyId.UNIFORM, y, oracle.default_grid(FamilyId.UNIFORM))
    ok_u = abs(inf_u.value - anti.a_uniform(y).value) <= 1e-12
    out.append(_result("closed-forms", "uniform grid infimum matches the formula", ok_u,
                       f"|diff| {abs(inf_u.value - anti.a_uniform(y).value):.3e}"))
    lam_tails = [dist.tail_probability(dist.exponential(lam), y).probability
                 for lam in np.geomspace(1e-2, 1e2, 50)]
    ok_e = max(lam_tails) - min(lam_tails) <= 1e-12
    out.append(_result("closed-forms", "exponential tail is rate-invariant", ok_e))

    t_curve = anti.a_student_t(y)
    mc_checks = [(dist.uniform(-1.0, 1.0), anti.a_uniform(y).value),
                 (dist.exponential(1.0), anti.a_exponential(y).value),
                 (dist.gaussian(0.0, 1.0), anti.a_gaussian(y).value),
                 (dist.student_t(t_curve.detail.argmax_n), t_curve.value)]
    ok_mc = not any(_mc_miss(ps, y, want, child_seed) for (ps, want), child_seed
                    in zip(mc_checks, oracle.derive_seeds(seed, 4)))
    out.append(_result("closed-forms", "Monte Carlo agrees at the minimizing laws", ok_mc))
    return out


# --- witnesses suite --------------------------------------------------------

def _suite_witnesses(seed: int) -> list[CheckResult]:
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
            if not (w.achieved_tail <= eps and abs(exact - w.achieved_tail) <= 1e-15):
                ok, worst = False, f"tail {w.achieved_tail} > eps {eps} at y={y}"
                continue
            miss = _mc_miss(w.params, y, exact, child_seed)
            if miss:
                ok, worst = False, f"{miss} at y={y}, eps={eps}"
        out.append(_result("witnesses", f"{family.value}: certified below epsilon", ok, worst))
    return out


# --- oracles suite ----------------------------------------------------------

def _suite_oracles(seed: int) -> list[CheckResult]:
    out: list[CheckResult] = []

    worst = 0.0
    for n in range(1, 51):
        for x in (-5.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0):
            worst = max(worst, abs(anti.student_t_cdf(n, x)
                                   - oracle.quad_student_cdf(n, x)))
    out.append(_result("oracles", "t CDF vs quadrature", worst <= 1e-10,
                       f"worst abs err {worst:.3e}"))

    worst = 0.0
    for y in (0.5, 1.0, 2.0, 3.0):
        worst = max(worst, abs(anti.a_gaussian(y).value
                               - oracle.quad_normal_symmetric_tail(y)))
    out.append(_result("oracles", "gaussian curve vs normal-density quadrature",
                       worst <= 1e-10, f"worst abs err {worst:.3e}"))

    seeds = iter(oracle.derive_seeds(seed ^ 0x5EED, len(MC_PANEL) * 3))
    ok_mc = True
    detail = ""
    for family in sorted(MC_PANEL, key=lambda f: f.value):
        ps = MC_PANEL[family]
        for y, child_seed in zip((0.5, 1.0, 2.0), seeds):
            exact = dist.tail_probability(ps, y).probability
            miss = _mc_miss(ps, y, exact, child_seed)
            if miss:
                ok_mc, detail = False, f"{family.value} y={y}: {miss}"
    out.append(_result("oracles", "Monte Carlo within 4 standard errors (13 families)",
                       ok_mc, detail))

    ok_mono = True
    for family, ps in MC_PANEL.items():
        tails = [dist.tail_probability(ps, y).probability
                 for y in np.linspace(0.05, 4.0, 40)]
        ok_mono &= all(u >= v - 1e-12 for u, v in zip(tails, tails[1:]))
    out.append(_result("oracles", "tail probability nonincreasing in y", ok_mono))

    ok_cdf = True
    for family, ps in MC_PANEL.items():
        m = dist.moments(ps)
        sd = math.sqrt(m.variance)
        xs = np.linspace(m.mean - 6 * sd, m.mean + 6 * sd, 41)
        vals = [dist.cdf(ps, float(x)) for x in xs]
        ok_cdf &= all(u <= v + 1e-12 for u, v in zip(vals, vals[1:]))
    for ps in (dist.gaussian(0.0, 1.0), dist.student_t(3), dist.log_normal(0.0, 1.0)):
        ok_cdf &= dist.cdf(ps, -1e15) <= 1e-12
        ok_cdf &= dist.cdf(ps, 1e15) >= 1.0 - 1e-12
    out.append(_result("oracles", "CDF nondecreasing with correct far tails", ok_cdf))

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
    out.append(_result("oracles", "sampler matches moments (5 standard errors)",
                       ok_mom, detail))

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
    out.append(_result("oracles", "grid refinement never raises the infimum", ok_refine))

    ok_lb = True
    for family, a_fn in anti._CLOSED_FORMS.items():
        inf_est = oracle.grid_infimum(family, 1.0, oracle.default_grid(family))
        bound = a_fn(1.0).value
        ok_lb &= inf_est.value >= bound - 1e-12 and inf_est.value - bound <= 1e-3
    out.append(_result("oracles", "grid infima sit just above the closed forms", ok_lb))
    return out


_SUITE_FNS = {
    "specfun": _suite_specfun,
    "closed-forms": _suite_closed_forms,
    "witnesses": _suite_witnesses,
    "oracles": _suite_oracles,
}


def run_suite(name: str, seed: int = MASTER_SEED) -> list[CheckResult]:
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES} or 'all'")
    if not (isinstance(seed, int) and 0 <= seed < 2**64):
        raise DomainError(f"seed must be a 64-bit integer, got {seed}")
    return _SUITE_FNS[name](seed)


def run_suites(names, seed: int = MASTER_SEED) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name in names:
        results.extend(run_suite(name, seed))
    return results
