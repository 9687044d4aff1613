"""The benchmark's three workloads, rebuilt for every pass with fresh inputs.

A pass is one list of operations.  Each operation is a timed call into
anticonc plus a check run afterwards, outside the timed region, against
an independent computation from `reference`.  Inputs are drawn from a
generator seeded with (workload seed, pass number), so two passes never
share an input and one seed always gives the same inputs.

Operations marked with a fault number reproduce a known defect at fixed
inputs; they fail on every pass until the defect is mended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import anticonc as ac
import reference as ref

Check = Callable[[Any], Optional[str]]


@dataclass(frozen=True)
class Op:
    key: str           # names the same operation in every pass
    run: Callable[[], Any]
    check: Check       # returns a failure message, or None
    fault: int = 0     # number of the known fault this operation reproduces
    heavy: bool = False  # run once per pass; light operations run once per round


Y_PANEL = (0.5, 1.0, 2.0)
EPS_LADDER = tuple(10.0 ** -k for k in range(2, 9))
MC_SAMPLES = 10**6

TAIL_TOL = 1e-9
CURVE_TOL = 1e-12
QUAD_TOL = 1e-10
GRID_TOL = 1e-9
GRID_BOUND_TOL = 1e-12
MC_SIGMAS = 5.0

ZERO_FAMILIES = ("beta", "binomial", "gamma", "hypergeometric", "log-normal",
                 "neg-binomial", "pareto", "poisson", "weibull")
POSITIVE_FAMILIES = ("uniform", "exponential", "gaussian", "student-t")


def _wiggle(rng: np.random.Generator, x: float, rel: float) -> float:
    return float(x * (1.0 + rng.uniform(-rel, rel)))


def _panel(rng: np.random.Generator) -> list:
    """The 13 laws of the verify panel, float parameters moved by up to 5%."""
    def w(x):
        return _wiggle(rng, x, 0.05)
    return [
        ac.uniform(w(-1.0), w(2.0)),
        ac.exponential(w(1.3)),
        ac.gaussian(w(0.5), w(2.0)),
        ac.student_t(5),
        ac.binomial(20, w(0.3)),
        ac.poisson(w(4.0)),
        ac.neg_binomial(w(2.5), w(0.4)),
        ac.hypergeometric(30, 100, 20),
        ac.gamma_family(w(2.5), w(1.5)),
        ac.pareto(w(4.0), w(2.0)),
        ac.weibull(w(1.7), w(0.8)),
        ac.log_normal(w(0.2), w(0.6)),
        ac.beta_family(w(2.0), w(5.0)),
    ]


def _ray(family: str, t: float):
    """The law at distance t along the family's degenerate ray (t -> 0)."""
    if family == "binomial":
        return ac.binomial(1, t)
    if family == "poisson":
        return ac.poisson(t)
    if family == "neg-binomial":
        return ac.neg_binomial(1.0, 1.0 - t)
    if family == "hypergeometric":
        n_pop = max(3, round(1.0 / t))
        return ac.hypergeometric(n_pop - 1, n_pop, 1)
    if family == "gamma":
        return ac.gamma_family(t, 1.0)
    if family == "pareto":
        return ac.pareto(2.0 + t, 1.0)
    if family == "weibull":
        return ac.weibull(t, 1.0)
    if family == "log-normal":
        return ac.log_normal(0.0, 1.0 / t)
    if family == "beta":
        return ac.beta_family(1.0, t)
    raise ValueError(family)


# --- checks -------------------------------------------------------------------

def _tail_check(ps, y: float) -> Check:
    def check(result) -> Optional[str]:
        want = ref.tail(ps.family.value, ps.params, y)
        err = abs(result.probability - want)
        if not err <= TAIL_TOL:
            return f"tail {result.probability!r} vs reference {want!r} (|err| {err:.2e})"
        return None
    return check


def _student_curve_check(y: float) -> Check:
    def check(av) -> Optional[str]:
        want, n0, argmax_n = ref.a_student_t(y)
        if not abs(av.value - want) <= CURVE_TOL:
            return f"A(y={y!r}) {av.value!r} vs reference {want!r}"
        got = (av.detail.n0, av.detail.argmax_n)
        if got != (n0, argmax_n):
            return f"(n0, argmax_n) {got} vs reference {(n0, argmax_n)} at y={y!r}"
        return None
    return check


def _closed_curve_check(family: str, ys: list, member: dict) -> Check:
    def check(values) -> Optional[str]:
        for y, got, want in zip(ys, values, ref.tail_scipy(family, member, np.array(ys))):
            if not abs(got - want) <= CURVE_TOL:
                return f"{family} A(y={y!r}) {got!r} vs tail of {member} {want!r}"
        return None
    return check


def _witness_check(family: str, y: float, eps: float) -> Check:
    def check(w) -> Optional[str]:
        if w.family.value != family or w.params.family.value != family:
            return f"witness for {w.family.value}, asked for {family}"
        if not w.achieved_tail <= eps:
            return f"achieved tail {w.achieved_tail!r} above epsilon {eps!r}"
        true_tail = ref.tail_mp(family, w.params.params, y)
        if not true_tail <= eps:
            return (f"certificate {dict(w.params.params)} at y={y!r}: true tail "
                    f"{true_tail!r} above epsilon {eps!r}")
        return None
    return check


def _mc_check(ps, y: float) -> Check:
    def check(est) -> Optional[str]:
        want = ref.tail(ps.family.value, ps.params, y)
        se = math.sqrt(max(want * (1.0 - want), 0.0) / MC_SAMPLES)
        if est.n_samples != MC_SAMPLES or not abs(est.estimate - want) <= MC_SIGMAS * se:
            return (f"Monte Carlo {est.estimate!r} vs reference {want!r} "
                    f"({MC_SIGMAS:g} standard errors = {MC_SIGMAS * se:.3e})")
        return None
    return check


def _quad_check(n: int, xs: list) -> Check:
    def check(values) -> Optional[str]:
        for x, got in zip(xs, values):
            want = ref.student_t_cdf(n, x)
            if not abs(got - want) <= QUAD_TOL:
                return f"quadrature t_{n} CDF at {x!r}: {got!r} vs stdtr {want!r}"
        return None
    return check


_A_REF = {
    "uniform": ref.a_uniform,
    "exponential": ref.a_exponential,
    "gaussian": ref.a_gaussian,
    "student-t": lambda y: ref.a_student_t(y)[0],
}


def _grid_check(family: str, spec: dict, y: float) -> Check:
    def check(est) -> Optional[str]:
        want = ref.grid_min_tail(family, spec, y)
        if not abs(est.value - want) <= GRID_TOL:
            return f"{family} grid infimum {est.value!r} vs reference minimum {want!r}"
        if family in _A_REF:
            bound = _A_REF[family](y)
            if not est.value >= bound - GRID_BOUND_TOL:
                return f"{family} grid infimum {est.value!r} below A(y) = {bound!r}"
        return None
    return check


# --- workloads ------------------------------------------------------------------

def _curves(rng: np.random.Generator) -> list[Op]:
    ops: list[Op] = []
    a_fns = {"uniform": lambda y: ac.a_uniform(y), "exponential": lambda y: ac.a_exponential(y),
             "gaussian": lambda y: ac.a_gaussian(y)}
    for family in ("uniform", "exponential", "gaussian"):
        ys = sorted(float(v) for v in rng.uniform(0.05, 2.5, 25))
        if family == "uniform":
            a = rng.uniform(-10.0, 5.0)
            member = {"a": a, "b": a + rng.uniform(0.1, 10.0)}
        elif family == "exponential":
            member = {"lambda": 10.0 ** rng.uniform(-2.0, 2.0)}
        else:
            member = {"mu": rng.uniform(-5.0, 5.0), "sigma": 10.0 ** rng.uniform(-2.0, 2.0)}
        fn = a_fns[family]
        ops.append(Op(f"curve/{family}", lambda ys=ys, fn=fn: [fn(y).value for y in ys],
                      _closed_curve_check(family, ys, member)))
    for i, y0 in enumerate(np.linspace(0.1, 1.2, 12)):
        y = float(y0 + rng.uniform(-0.02, 0.02))
        ops.append(Op(f"curve/student-t/{i}", lambda y=y: ac.a_student_t(y),
                      _student_curve_check(y)))
    # 1.5 - y^2 from 1e-1 down to 1e-5: n0 grows from 26 to 250,001
    for k in range(1, 6):
        y = math.sqrt(1.5 - 10.0 ** -k * (1.0 + rng.uniform(-1e-3, 1e-3)))
        ops.append(Op(f"edge/student-t/1e-{k}", lambda y=y: ac.a_student_t(y),
                      _student_curve_check(y), heavy=k >= 4))
    for family in ZERO_FAMILIES:
        for y0 in Y_PANEL:
            for k, eps0 in enumerate(EPS_LADDER, start=2):
                # below 1e-5 the hypergeometric search passes N = 10^6 and fails
                # on some inputs (a FOUND line in CHANGES.md); fault 5 keeps it covered
                if family == "hypergeometric" and y0 < 1.5 and k > 5:
                    continue
                y = _wiggle(rng, y0, 0.05)
                eps = float(eps0 * 10.0 ** rng.uniform(-0.25, 0.25))
                ops.append(Op(f"witness/{family}/{y0:g}/1e-{k}",
                              lambda f=family, y=y, e=eps: ac.witness_parameter(f, y, e),
                              _witness_check(family, y, eps)))
    ops.append(Op("fault4/witness/poisson/1/1e-14",
                  lambda: ac.witness_parameter("poisson", 1.0, 1e-14),
                  _witness_check("poisson", 1.0, 1e-14), fault=4))
    for y in (1.0, 0.5):
        ops.append(Op(f"fault5/witness/hypergeometric/{y:g}/1e-8",
                      lambda y=y: ac.witness_parameter("hypergeometric", y, 1e-8),
                      _witness_check("hypergeometric", y, 1e-8), fault=5))
    return ops


def _tail_op(key: str, ps, y: float, fault: int = 0, heavy: bool = False) -> Op:
    return Op(key, lambda: ac.tail_probability(ps, y), _tail_check(ps, y), fault, heavy)


# pmf sums of thousands of terms: 20 ms to 0.6 s a call today
_HEAVY_EXTREMES = ("binomial/1e4", "neg-binomial/100,0.01", "hypergeometric/5000,20000,3000")


def _tails(rng: np.random.Generator) -> list[Op]:
    ops: list[Op] = []
    for ps in _panel(rng):
        for y0 in Y_PANEL:
            ops.append(_tail_op(f"panel/{ps.family.value}/{y0:g}", ps, _wiggle(rng, y0, 0.02)))

    def w(x, rel=0.02):
        return _wiggle(rng, x, rel)
    extremes = [
        ("binomial/1e3", ac.binomial(1000, w(0.3))),
        ("binomial/1e4", ac.binomial(10**4, w(0.5))),
        ("poisson/1e4", ac.poisson(w(1e4))),
        ("neg-binomial/100,0.01", ac.neg_binomial(100, w(0.01))),
        ("hypergeometric/5000,20000,3000",
         ac.hypergeometric(5000 + int(rng.integers(-50, 51)), 20000, 3000)),
        ("gamma/1e-3", ac.gamma_family(w(1e-3), 1.0)),
        ("gamma/1e4", ac.gamma_family(w(1e4), 1.0)),
        ("beta/1e3,2e3", ac.beta_family(w(1e3), w(2e3))),
        ("beta/1,1e-4", ac.beta_family(1.0, w(1e-4))),
    ]
    # Poisson(1e6) is left out: its error passes 1e-9 on about a tenth of
    # inputs near 1e6 (a FOUND line in CHANGES.md), so it cannot fail steadily
    for name, ps in extremes:
        for y0 in Y_PANEL:
            ops.append(_tail_op(f"extreme/{name}/{y0:g}", ps, w(y0),
                                heavy=name in _HEAVY_EXTREMES))
    for y in Y_PANEL:
        ops.append(_tail_op(f"fault1/binomial/1e7/{y:g}", ac.binomial(10**7, 0.5), y,
                            fault=1, heavy=True))
        ops.append(_tail_op(f"fault2/poisson/1e8/{y:g}", ac.poisson(1e8), y,
                            fault=2, heavy=True))
    for n in (3, 5):
        for y0 in Y_PANEL + (10.0, 30.0, 100.0):
            ops.append(_tail_op(f"student-t/{n}/{y0:g}", ac.student_t(n), w(y0)))
    for y0 in Y_PANEL:
        ops.append(_tail_op(f"student-t/1000/{y0:g}", ac.student_t(1000), w(y0)))
    ops.append(_tail_op("fault3/student-t/1000/10", ac.student_t(1000), 10.0, fault=3))
    for family in ("weibull", "log-normal", "pareto"):
        for k in (2, 5, 8, 11):
            ps = _ray(family, w(2.0 ** -k, 0.05))
            for y0 in Y_PANEL:
                ops.append(_tail_op(f"ray/{family}/2^-{k}/{y0:g}", ps, w(y0)))
    return ops


def _oracles(rng: np.random.Generator) -> list[Op]:
    ops: list[Op] = []

    def mc_op(key, ps, y):
        seed = int(rng.integers(0, 2**63))
        return Op(key, lambda: ac.mc_tail(ps, y, MC_SAMPLES, seed), _mc_check(ps, y),
                  heavy=True)

    for ps in _panel(rng):
        for y0 in Y_PANEL:
            ops.append(mc_op(f"mc/panel/{ps.family.value}/{y0:g}", ps, _wiggle(rng, y0, 0.02)))
    for family in ZERO_FAMILIES:
        t_start = 0.5 if family in ("binomial", "poisson", "neg-binomial") else 1.0
        # log-normal tails vanish fast along the ray (6e-16 at sigma = 8)
        for k in ((0, 1) if family == "log-normal" else (1, 3)):
            ps = _ray(family, _wiggle(rng, t_start * 2.0 ** -k, 0.05))
            ops.append(mc_op(f"mc/ray/{family}/2^-{k}", ps, _wiggle(rng, 1.0, 0.02)))
    for n in range(1, 51):
        xs = sorted(float(x) for x in rng.uniform(-5.0, 5.0, 9))
        ops.append(Op(f"quad/{n}", lambda n=n, xs=xs: [ac.quad_student_cdf(n, x) for x in xs],
                      _quad_check(n, xs)))
    for family in POSITIVE_FAMILIES + ZERO_FAMILIES:
        grid = ac.default_grid(family)
        spec = grid.to_json_dict()
        for y0 in (0.6, 1.1):
            y = _wiggle(rng, y0, 0.02)
            ops.append(Op(f"grid/{family}/{y0:g}",
                          lambda f=family, y=y, g=grid: ac.grid_infimum(f, y, g),
                          _grid_check(family, spec, y)))
    return ops


WORKLOADS: dict[str, Callable[[np.random.Generator], list[Op]]] = {
    "curves": _curves,
    "tails": _tails,
    "oracles": _oracles,
}

# a stream id per workload, so equal seeds still give unrelated inputs
_STREAM = {"curves": 1, "tails": 2, "oracles": 3}

# Light operations run once per round, on inputs drawn afresh for each
# round, so each gets several timings spread over the pass; heavy ones
# run once per pass, spread between the rounds.
ROUNDS = {"curves": 4, "tails": 4, "oracles": 3}


def build(workload: str, seed: int, pass_index: int) -> list[Op]:
    """The operations of one pass; the same (seed, pass) always gives the same inputs."""
    rounds = [WORKLOADS[workload](np.random.default_rng(
        [seed, pass_index, _STREAM[workload], r])) for r in range(ROUNDS[workload])]
    heavy = [op for op in rounds[0] if op.heavy]
    ops: list[Op] = []
    for r, round_ops in enumerate(rounds):
        ops += [op for op in round_ops if not op.heavy]
        ops += heavy[r::len(rounds)]
    return ops
