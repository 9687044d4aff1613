"""Golden gate: CLI output and core numerics, byte for byte.

`golden.json` holds, for a fixed panel of commands, the stdout, stderr
and exit code of `cli.main`, and the `repr` of `moments`, `cdf`,
`sample` and `tail_probability` results at fixed laws.  A change meant
to leave output alone (a refactor) must pass this module unchanged.

Re-record only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import anticonc as ac
from anticonc import cli
from anticonc.errors import DomainError, InternalError

DATA = Path(__file__).with_name("golden.json")
SAMPLE_SEED = 20240118
Y_PANEL = (0.5, 1.0, 2.0)

# one --params object per constraint message of each family, then the
# structural checks (missing/unexpected field, non-number, non-integer)
REJECTED = [
    ("uniform", {"a": 1.0, "b": 1.0}),
    ("exponential", {"lambda": 0.0}),
    ("gaussian", {"mu": 0.0, "sigma": -1.0}),
    ("student-t", {"n": 2}),
    ("binomial", {"n": 0, "p": 1.5}),
    ("binomial", {"n": 5, "p": 1.0}),
    ("poisson", {"lambda": -1.0}),
    ("neg-binomial", {"r": 0.0, "p": 1.0}),
    ("hypergeometric", {"M": 0, "N": 5, "n": 1}),
    ("hypergeometric", {"M": 6, "N": 5, "n": 6}),
    ("hypergeometric", {"M": 5, "N": 5, "n": 2}),
    ("hypergeometric", {"M": 3, "N": 10, "n": 10}),
    ("gamma", {"alpha": 0.0, "beta": -1.0}),
    ("pareto", {"r": 2.0, "A": 0.0}),
    ("weibull", {"alpha": -1.0, "lambda": 0.0}),
    ("log-normal", {"alpha": 0.0, "sigma": 0.0}),
    ("beta", {"p": 0.0, "q": -2.0}),
    ("exponential", {"rate": 1.0}),
    ("poisson", {"lambda": "four"}),
    ("student-t", {"n": True}),
    ("binomial", {"n": 2.5, "p": 0.3}),
    ("hypergeometric", {"M": 3.5, "N": 10, "n": 2.5}),
]

# laws at the edges of the tail engine: far along the witness rays, long
# pmf sums, and moments that overflow a double
EDGE_LAWS = [
    ac.weibull(1e-3, 1.0),
    ac.log_normal(0.0, 40.0),
    ac.pareto(2.001, 1.0),
    ac.gamma_family(1e-3, 1.0),
    ac.beta_family(1.0, 1e-4),
    ac.poisson(50.0),
    ac.neg_binomial(100.0, 0.05),
    ac.binomial(1000, 0.3),
    ac.hypergeometric(500, 2000, 300),
    ac.student_t(1000),
    ac.pareto(2.5, 1e300),
    ac.gamma_family(1e200, 1e200),
    ac.uniform(-1e308, 1e308),
]


def _cli_panel():
    from anticonc.verify import MC_PANEL

    cases = {}
    for family in ac.FamilyId:
        cases[f"curve/{family.value}"] = [
            "curve", "--family", family.value, "--y-min", "0.1", "--y-max", "1.2",
            "--steps", "12"]
    cases["curve/student-t/json"] = [
        "curve", "--family", "student-t", "--y-min", "0.3", "--y-max", "1.2",
        "--steps", "4", "--format", "json"]
    cases["curve/student-t/numeric-fallback"] = [
        "curve", "--family", "student-t", "--y-min", "1.2", "--y-max", "1.5",
        "--steps", "2", "--numeric-fallback"]
    cases["curve/student-t/refused"] = [
        "curve", "--family", "student-t", "--y-min", "0.5", "--y-max", "1.5", "--steps", "3"]
    cases["curve/unknown-family"] = [
        "curve", "--family", "cauchy", "--y-min", "0.5", "--y-max", "1", "--steps", "2"]
    cases["curve/bad-range"] = [
        "curve", "--family", "uniform", "--y-min", "2", "--y-max", "1", "--steps", "4"]
    for family, ps in MC_PANEL.items():
        for y in Y_PANEL:
            cases[f"tail/{family.value}/{y:g}"] = [
                "tail", "--family", family.value, "--params", json.dumps(dict(ps.params)),
                "--y", repr(y)]
    for i, (family, params) in enumerate(REJECTED):
        cases[f"tail/rejected/{i}/{family}"] = [
            "tail", "--family", family, "--params", json.dumps(params), "--y", "1.0"]
    cases["tail/unknown-family"] = [
        "tail", "--family", "cauchy", "--params", "{}", "--y", "1.0"]
    cases["tail/params-not-object"] = [
        "tail", "--family", "poisson", "--params", "[4.0]", "--y", "1.0"]
    cases["tail/bad-y"] = [
        "tail", "--family", "poisson", "--params", '{"lambda": 4.0}', "--y", "-1"]
    for family in sorted(ac.ZERO_INFIMUM_FAMILIES, key=lambda f: f.value):
        for y in Y_PANEL:
            for eps in (1e-2, 1e-4):
                cases[f"witness/{family.value}/{y:g}/{eps:g}"] = [
                    "witness", "--family", family.value, "--y", repr(y),
                    "--epsilon", repr(eps)]
    for family in ("uniform", "exponential", "gaussian", "student-t"):
        cases[f"witness/refused/{family}"] = [
            "witness", "--family", family, "--y", "1", "--epsilon", "0.1"]
    cases["witness/unknown-family"] = [
        "witness", "--family", "cauchy", "--y", "1", "--epsilon", "0.1"]
    cases["verify/specfun"] = ["verify", "specfun"]
    cases["verify/closed-forms"] = ["verify", "closed-forms"]
    return cases


def _lib_panel():
    from anticonc.verify import MC_PANEL

    cases = {}
    for family, ps in MC_PANEL.items():
        law = ps.to_json_dict()
        m = ac.moments(ps)
        sd = math.sqrt(m.variance)
        cases[f"moments/{family.value}"] = {"fn": "moments", "law": law}
        for k in (-3, -1, 0, 1, 3):
            cases[f"cdf/{family.value}/{k:+d}sd"] = {
                "fn": "cdf", "law": law, "x": m.mean + k * sd}
        cases[f"sample/{family.value}/4"] = {"fn": "sample", "law": law, "size": 4}
        cases[f"sample/{family.value}/scalar"] = {"fn": "sample", "law": law, "size": None}
    for ps in EDGE_LAWS:
        law = ps.to_json_dict()
        name = f"{ps.family.value}/{json.dumps(dict(ps.params), sort_keys=True)}"
        cases[f"moments/edge/{name}"] = {"fn": "moments", "law": law}
        for y in (0.5, 2.0, 10.0):
            cases[f"tail/edge/{name}/{y:g}"] = {"fn": "tail", "law": law, "y": y}
    return cases


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_lib(case):
    """The repr of one library call, or the type and message of its error."""
    ps = ac.ParamSet.from_json_dict(case["law"])
    try:
        if case["fn"] == "moments":
            return repr(ac.moments(ps))
        if case["fn"] == "cdf":
            return repr(ac.cdf(ps, case["x"]))
        if case["fn"] == "tail":
            return repr(ac.tail_probability(ps, case["y"]))
        rng = np.random.Generator(np.random.PCG64(SAMPLE_SEED))
        draws = ac.sample(ps, rng, size=case["size"])
        if case["size"] is None:
            return repr(draws)
        return f"{draws.dtype}:{draws.tolist()!r}"
    except (DomainError, InternalError) as exc:
        return f"{type(exc).__name__}: {exc}"


def record() -> dict:
    cli_cases = {key: {"argv": argv, **run_cli(argv)} for key, argv in _cli_panel().items()}
    lib_cases = {key: {**case, "repr": run_lib(case)} for key, case in _lib_panel().items()}
    return {"cli": cli_cases, "lib": lib_cases}


def _load():
    return json.loads(DATA.read_text())


GOLDEN = _load() if DATA.exists() else {"cli": {}, "lib": {}}


@pytest.fixture(autouse=True)
def _no_config_env(monkeypatch):
    monkeypatch.delenv("ANTICONC_CONFIG", raising=False)


@pytest.mark.parametrize("key", sorted(GOLDEN["cli"]))
def test_cli_output_unchanged(key):
    case = GOLDEN["cli"][key]
    got = run_cli(case["argv"])
    assert got == {k: case[k] for k in ("code", "stdout", "stderr")}


@pytest.mark.parametrize("key", sorted(GOLDEN["lib"]))
def test_library_values_unchanged(key):
    case = GOLDEN["lib"][key]
    assert run_lib(case) == case["repr"]


def test_golden_data_present():
    assert len(GOLDEN["cli"]) > 100 and len(GOLDEN["lib"]) > 100


if __name__ == "__main__":
    import os

    os.environ.pop("ANTICONC_CONFIG", None)
    DATA.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
