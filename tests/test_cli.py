"""Command-line behavior: output schemas, determinism, exit codes."""

import json

import mpmath
import pytest

from anticonc import cli, verify
from anticonc.errors import DomainError

GOLDEN_UNIFORM_CSV = (
    "y,value,family,detail\n"
    "0.5,0.71132486540518713,uniform,\n"
    "1,0.42264973081037416,uniform,\n"
    "1.5,0.13397459621556129,uniform,\n"
    "2,0,uniform,\n"
)

# the standardized tail at y = 1, which no parameter of these families moves
with mpmath.workdps(50):
    TRUE_TAIL_AT_ONE = {"uniform": float(1 - 1 / mpmath.sqrt(3)),
                        "exponential": float(mpmath.exp(-2)),
                        "gaussian": float(mpmath.erfc(1 / mpmath.sqrt(2)))}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCurve:
    def test_uniform_golden_csv(self, capsys):
        code, out, _ = run(capsys, "curve", "--family", "uniform",
                           "--y-min", "0.5", "--y-max", "2", "--steps", "4")
        assert code == 0
        assert out == GOLDEN_UNIFORM_CSV

    def test_byte_identical_across_runs(self, capsys):
        args = ("curve", "--family", "student-t", "--y-min", "0.2",
                "--y-max", "1.2", "--steps", "6")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_gaussian_rows_match_curve(self, capsys):
        code, out, _ = run(capsys, "curve", "--family", "gaussian",
                           "--y-min", "1", "--y-max", "3", "--steps", "3",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["y"] for r in rows] == [1.0, 2.0, 3.0]
        assert rows[0]["value"] == pytest.approx(0.31731050786291415, abs=1e-15)
        assert rows[2]["value"] == pytest.approx(0.0026997960632601913, abs=1e-15)

    def test_zero_infimum_family_emits_zero_with_annotation(self, capsys):
        code, out, _ = run(capsys, "curve", "--family", "poisson",
                           "--y-min", "0.5", "--y-max", "2", "--steps", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y,value,family,detail"
        for line in lines[1:]:
            _, value, family, detail = line.split(",")
            assert value == "0" and family == "poisson" and detail == "zero-infimum"

    def test_student_t_detail_column(self, capsys):
        code, out, _ = run(capsys, "curve", "--family", "student-t",
                           "--y-min", "1", "--y-max", "1.2", "--steps", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].endswith("student-t,n0=6;argmax_n=3")

    def test_student_t_beyond_range_refused_with_bound_named(self, capsys):
        code, _, err = run(capsys, "curve", "--family", "student-t",
                           "--y-min", "0.5", "--y-max", "1.5", "--steps", "3")
        assert code == 2
        assert "sqrt(6)/2" in err

    def test_student_t_numeric_fallback_is_labeled(self, capsys):
        code, out, _ = run(capsys, "curve", "--family", "student-t",
                           "--y-min", "1.2", "--y-max", "1.5", "--steps", "2",
                           "--numeric-fallback")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].endswith("n0=43;argmax_n=3")       # still inside the range
        assert lines[2].endswith("numeric-grid:n=3..400")  # beyond it
        value = float(lines[2].split(",")[1])
        assert 0.0 < value < 0.13

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "curve", "--family", "uniform",
                           "--y-min", "2", "--y-max", "1", "--steps", "4")
        assert code == 2 and "y-min" in err

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "curve", "--family", "cauchy",
                           "--y-min", "0.5", "--y-max", "1", "--steps", "2")
        assert code == 2 and "unknown family" in err


class TestTail:
    def test_exponential_tail_json(self, capsys):
        code, out, _ = run(capsys, "tail", "--family", "exponential",
                           "--params", '{"lambda": 1.0}', "--y", "1.0")
        assert code == 0
        data = json.loads(out)
        assert data["probability"] == pytest.approx(0.1353352832366127, abs=1e-14)
        assert data["method"] == "closed-form"
        assert data["abs_error_bound"] >= 0.0

    def test_pareto_closed_form_tail(self, capsys):
        code, out, _ = run(capsys, "tail", "--family", "pareto",
                           "--params", '{"r": 3, "A": 1}', "--y", "1.0")
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(
            0.07549910270124748, abs=1e-13)

    def test_invalid_parameters_exit_two_and_name_the_violation(self, capsys):
        code, _, err = run(capsys, "tail", "--family", "pareto",
                           "--params", '{"r": 2, "A": 1}', "--y", "1.0")
        assert code == 2
        assert "r must exceed 2" in err

    def test_malformed_json_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "tail", "--family", "pareto",
                         "--params", "{not json", "--y", "1.0")
        assert code == 2

    @pytest.mark.parametrize("family,params", [
        ("pareto", '{"r": 2.5, "A": 1e300}'),
        ("uniform", '{"a": -1e308, "b": 1e308}'),
        ("gamma", '{"alpha": 1e200, "beta": 1e200}'),
        ("neg-binomial", '{"r": 1.0, "p": 1e-200}'),
        ("gaussian", '{"mu": 0, "sigma": 1e200}'),
        ("uniform", '{"a": 0, "b": 1e200}'),
        ("exponential", '{"lambda": 1e-200}'),
    ])
    def test_moments_overflowing_a_double_are_usage_errors(self, capsys, family, params):
        # valid laws whose moments overflow a double: refused where the tail is
        # standardized by them, answered where no parameter moves the tail
        code, out, err = run(capsys, "tail", "--family", family,
                             "--params", params, "--y", "1.0")
        if family in TRUE_TAIL_AT_ONE:
            assert_true_tail_at_one(code, out, err, family)
            return
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        overflowed = {"pareto": "variance is inf", "gamma": "mean is inf",
                      "neg-binomial": "variance is inf"}[family]
        assert f"{family} moments overflow a double" in err and overflowed in err

    @pytest.mark.parametrize("family,params", [
        ("exponential", '{"lambda": 1e200}'),
        ("pareto", '{"r": 1e200, "A": 1}'),
    ])
    def test_variance_underflowing_to_zero_is_a_usage_error(self, capsys, family, params):
        code, out, err = run(capsys, "tail", "--family", family,
                             "--params", params, "--y", "1.0")
        if family in TRUE_TAIL_AT_ONE:
            assert_true_tail_at_one(code, out, err, family)
            return
        assert code == 2 and out == ""
        assert err.startswith(f"error: {family} variance underflows a double to 0.0")

    def test_an_int_past_a_double_is_a_usage_error(self, capsys):
        huge = "1" + "0" * 400
        code, out, err = run(capsys, "tail", "--family", "uniform",
                             "--params", f'{{"a": 0, "b": {huge}}}', "--y", "1")
        assert code == 2 and out == "" and "Traceback" not in err
        assert f"parameter 'b' must be a finite number, got {huge}" in err

    def test_an_int_past_a_double_is_an_integer(self, capsys):
        code, out, err = run(capsys, "tail", "--family", "student-t",
                             "--params", f'{{"n": {10**30}}}', "--y", "1")
        assert code == 0 and err == ""
        assert json.loads(out)["probability"] == pytest.approx(TRUE_TAIL_AT_ONE["gaussian"],
                                                               abs=1e-12)

    def test_int_scale_tails_match_their_float_twins(self, capsys):
        for family, ints, floats in (("uniform", '{"a": 0, "b": %d}' % 10**300,
                                      '{"a": 0.0, "b": 1e300}'),
                                     ("gaussian", '{"mu": 0, "sigma": %d}' % 10**200,
                                      '{"mu": 0.0, "sigma": 1e200}'),
                                     ("gamma", '{"alpha": %d, "beta": %d}' % (10**200, 10**200),
                                      '{"alpha": 1e200, "beta": 1e200}'),
                                     ("pareto", '{"r": 4, "A": %d}' % 10**200,
                                      '{"r": 4.0, "A": 1e200}'),
                                     ("beta", '{"p": %d, "q": %d}' % (10**200, 10**200),
                                      '{"p": 1e200, "q": 1e200}')):
            got = run(capsys, "tail", "--family", family, "--params", ints, "--y", "1")
            assert got == run(capsys, "tail", "--family", family, "--params", floats,
                              "--y", "1")
            if family in TRUE_TAIL_AT_ONE:
                assert_true_tail_at_one(*got, family)
                continue
            code, out, err = got
            assert code == 2 and out == "" and "Traceback" not in err
            assert err.startswith(f"error: {family} moments overflow a double")

    def test_tail_at_an_overflowing_y_is_zero(self, capsys):
        # an edge mu -/+ y*sigma overflows a double: by Chebyshev the tail is
        # below 1/y^2; Poisson(1e308) at 1.7e154 overflows with y*sigma finite
        for family, params, y in (("poisson", '{"lambda": 4.0}', "1e308"),
                                  ("gaussian", '{"mu": 0.0, "sigma": 10.0}', "1e308"),
                                  ("poisson", '{"lambda": 1e308}', "1.7e154")):
            code, out, err = run(capsys, "tail", "--family", family,
                                 "--params", params, "--y", y)
            assert code == 0 and err == ""
            assert json.loads(out)["probability"] == 0.0

    def test_student_t_far_tail_at_many_degrees_of_freedom(self, capsys):
        # the series route raised InternalError here (F = -3.49)
        code, out, _ = run(capsys, "tail", "--family", "student-t",
                           "--params", '{"n": 1000}', "--y", "10")
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(1.5205831474484516e-22,
                                                               rel=1e-12)


def assert_true_tail_at_one(code, out, err, family):
    assert code == 0 and err == ""
    data = json.loads(out)
    assert abs(data["probability"] - TRUE_TAIL_AT_ONE[family]) <= data["abs_error_bound"]


class TestWitness:
    def test_hypergeometric_certificate(self, capsys):
        code, out, err = run(capsys, "witness", "--family", "hypergeometric",
                             "--y", "1", "--epsilon", "0.005")
        assert code == 0
        data = json.loads(out)
        assert data["params"]["params"] == {"M": 199, "N": 200, "n": 1}
        assert data["achieved_tail"] <= 0.005
        assert "construction: M = N - 1, n = 1" in err

    def test_beta_certificate(self, capsys):
        code, out, _ = run(capsys, "witness", "--family", "beta",
                           "--y", "0.5", "--epsilon", "0.001")
        assert code == 0
        data = json.loads(out)
        assert data["params"]["params"]["p"] == 1.0
        assert data["achieved_tail"] <= 1e-3

    def test_anti_concentrated_family_refused(self, capsys):
        code, _, err = run(capsys, "witness", "--family", "gaussian",
                           "--y", "1", "--epsilon", "0.1")
        assert code == 2
        assert "anti-concentrated" in err


class TestVerifyAndConfig:
    def test_verify_specfun_prints_table_and_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "specfun")
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "checks passed" in out

    def test_tail_and_witness_ignore_the_config(self, capsys, monkeypatch):
        monkeypatch.setenv("ANTICONC_CONFIG", "/nonexistent/config.json")
        code, out, _ = run(capsys, "tail", "--family", "exponential",
                           "--params", '{"lambda": 1.0}', "--y", "1.0")
        assert code == 0
        assert json.loads(out)["method"] == "closed-form"
        code, _, _ = run(capsys, "witness", "--family", "poisson",
                         "--y", "1", "--epsilon", "0.01")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("curve", "--family", "uniform", "--y-min", "0.5", "--y-max", "2", "--steps", "4",
         "--config", "numeric.json"),
        ("curve", "--family", "uniform", "--y-min", "0.5", "--y-max", "2", "--steps", "4",
         "--seed", "7"),
        ("verify", "specfun", "--config", "numeric.json"),
    ])
    def test_removed_config_and_curve_seed_flags_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_curve_and_verify_read_no_config(self, capsys, monkeypatch):
        monkeypatch.setenv("ANTICONC_CONFIG", "/nonexistent/config.json")
        code, out, _ = run(capsys, "curve", "--family", "student-t",
                           "--y-min", "0.5", "--y-max", "1", "--steps", "2")
        assert code == 0 and out.startswith("y,value,family,detail\n")
        code, out, _ = run(capsys, "verify", "specfun")
        assert code == 0 and "[FAIL]" not in out

    def test_no_numeric_config_remains(self):
        import importlib.util

        import anticonc
        assert importlib.util.find_spec("anticonc.config") is None
        for name in ("NumericConfig", "DEFAULT_CONFIG", "SeriesConfig", "DEFAULT_SERIES"):
            assert not hasattr(anticonc, name)

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_usage_error(self, capsys, seed):
        code, out, err = run(capsys, "verify", "closed-forms", "--seed", seed)
        assert code == 2 and out == ""
        assert err == f"error: seed must be a 64-bit integer, got {seed}\n"

    def test_library_refuses_a_seed_that_is_not_an_integer(self):
        # int(1.5) would pass the range check and numpy would raise TypeError later
        with pytest.raises(DomainError, match="seed must be a 64-bit integer, got 1.5"):
            verify.run_suite("witnesses", 1.5)
