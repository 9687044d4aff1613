"""Command-line behavior: output schemas, determinism, exit codes."""

import json

import pytest

from anticonc import cli

GOLDEN_UNIFORM_CSV = (
    "y,value,family,detail\n"
    "0.5,0.71132486540518713,uniform,\n"
    "1,0.42264973081037416,uniform,\n"
    "1.5,0.13397459621556129,uniform,\n"
    "2,0,uniform,\n"
)


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
    ])
    def test_moments_overflowing_a_double_are_usage_errors(self, capsys, family, params):
        # valid laws whose mean - y*sd is not a finite double
        code, out, err = run(capsys, "tail", "--family", family,
                             "--params", params, "--y", "1.0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


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

    def test_missing_config_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "curve", "--family", "student-t",
                           "--y-min", "0.5", "--y-max", "1", "--steps", "2",
                           "--config", "/nonexistent/config.json")
        assert code == 2

    def test_config_file_and_env_fallback(self, capsys, tmp_path, monkeypatch):
        curve = ("curve", "--family", "student-t", "--y-min", "0.5", "--y-max", "1",
                 "--steps", "2")
        cfg = tmp_path / "numeric.json"
        cfg.write_text('{"rel_tol": 1e-14, "max_terms": 100000, "seed": 7}')
        code, _, _ = run(capsys, *curve, "--config", str(cfg))
        assert code == 0
        monkeypatch.setenv("ANTICONC_CONFIG", str(cfg))
        code, out, _ = run(capsys, *curve)
        assert code == 0
        monkeypatch.setenv("ANTICONC_CONFIG", "/nonexistent/config.json")
        code, _, _ = run(capsys, *curve)
        assert code == 2

    def test_tail_and_witness_ignore_the_config(self, capsys, monkeypatch):
        monkeypatch.setenv("ANTICONC_CONFIG", "/nonexistent/config.json")
        code, out, _ = run(capsys, "tail", "--family", "exponential",
                           "--params", '{"lambda": 1.0}', "--y", "1.0")
        assert code == 0
        assert json.loads(out)["method"] == "closed-form"
        code, _, _ = run(capsys, "witness", "--family", "poisson",
                         "--y", "1", "--epsilon", "0.01")
        assert code == 0

    def test_rejects_unknown_config_keys(self, capsys, tmp_path):
        cfg = tmp_path / "numeric.json"
        cfg.write_text('{"tolerance": 1e-9}')
        code, _, err = run(capsys, "verify", "specfun", "--config", str(cfg))
        assert code == 2 and "unknown config keys" in err

    @pytest.mark.parametrize("config,message", [
        ('{"rel_tol": 0.0, "max_terms": 0}', "rel_tol must lie in (0, 1), got 0.0"),
        ('{"max_terms": 0, "quad_tol": 2.0}', "max_terms must be >= 1, got 0"),
        ('{"quad_tol": 2.0, "mc_samples": 0}', "quad_tol must lie in (0, 1), got 2.0"),
    ])
    def test_config_field_errors_in_order(self, capsys, tmp_path, config, message):
        cfg = tmp_path / "numeric.json"
        cfg.write_text(config)
        code, _, err = run(capsys, "verify", "specfun", "--config", str(cfg))
        assert code == 2 and err == f"error: {message}\n"
