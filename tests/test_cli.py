import os
import pathlib
import subprocess
import sys

import pytest

from driftbias import cli, gbm
from driftbias.smoothing import SmoothingConfig, smooth

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "limits", "--nu", "0.1", "--direction", "above", "--sideways")
    assert code == 2


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "conditional", "--nu", "0", "--sigma", "0.3", "--T", "1")
    assert code == 2


def test_conditional_reports_expectation(capsys):
    code, out, _ = run_cli(
        capsys,
        "conditional",
        "--nu", "0", "--sigma", "0.3", "--T", "1", "--C", "0",
        "--direction", "above",
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "expectation,tail_probability,bias,mills_argument"
    expectation = float(row.split(",")[0])
    assert expectation == pytest.approx(0.23937, abs=5e-6)


def test_conditional_degenerate_is_domain_error(capsys):
    code, out, err = run_cli(
        capsys,
        "conditional",
        "--nu", "0", "--sigma", "0.1", "--T", "1", "--C", "10",
        "--direction", "above",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "\n" not in err.strip()


def test_simulate_deterministic(capsys):
    argv = [
        "simulate",
        "--mu", "0.1", "--sigma", "0.3", "--a0", "100", "--T", "1",
        "--n", "252", "--seed", "42",
    ]
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_a.splitlines()[0] == "date_index,price"
    assert len(out_a.splitlines()) == 254


def test_simulate_rejects_bad_arguments(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--mu", "0.1", "--sigma", "-1", "--a0", "100", "--T", "1",
        "--n", "10", "--seed", "1",
    )
    assert code == 2
    assert err.startswith("error:")


def test_simulate_estimate_round_trip(capsys, tmp_path):
    prices = tmp_path / "prices.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--mu", "0.1", "--sigma", "0.3", "--a0", "100", "--T", "1",
        "--n", "252", "--seed", "9", "--out", str(prices),
    )
    assert code == 0
    assert out == ""  # --out diverts the CSV away from stdout
    code, out, _ = run_cli(capsys, "estimate", "--prices", str(prices))
    assert code == 0
    header, row = out.splitlines()
    assert header == "nu_hat,sigma2_hat,n,T"
    nu_hat, sigma2_hat, n, T = row.split(",")
    path = gbm.simulate_gbm(gbm.GbmParams(0.1, 0.3), 100.0, 1.0, 252, 9)
    expected = gbm.estimate_unconditional(gbm.log_returns(path))
    assert float(nu_hat) == expected.nu_hat
    assert float(sigma2_hat) == expected.sigma2_hat
    assert int(n) == 252
    assert float(T) == 1.0


def test_estimate_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "estimate", "--prices", str(tmp_path / "nope.csv"))
    assert code == 2
    assert err.startswith("error:")


def test_surface_single_cell(capsys):
    code, out, _ = run_cli(
        capsys,
        "surface",
        "--mu-min", "0.345", "--mu-max", "0.345", "--mu-steps", "1",
        "--c-min", "0", "--c-max", "0", "--c-steps", "1",
        "--sigma", "0.3", "--T", "1", "--direction", "above",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu,C,expectation,bias,flag"
    assert lines[1].startswith("0.345,0,0.4312799913,")


def test_limits_output(capsys):
    code, out, _ = run_cli(capsys, "limits", "--nu", "-0.2", "--direction", "above")
    assert code == 0
    assert out.splitlines()[1] == "-0.2,above,0.0"


def write_values(tmp_path, values):
    target = tmp_path / "values.csv"
    target.write_text("value\n" + "".join(f"{v}\n" for v in values))
    return str(target)


def test_smooth_matches_library(capsys, tmp_path):
    values = [10.0, 12.0, 8.0, 11.0, 9.0]
    code, out, err = run_cli(
        capsys, "smooth", "--input", write_values(tmp_path, values), "--alpha", "0.2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value,forecast"
    assert len(lines) == 7  # header, five paired rows, trailing forecast
    forecasts = smooth(values, SmoothingConfig(alpha=0.2)).forecasts.tolist()
    for line, value, forecast in zip(lines[1:], values, forecasts):
        assert line == f"{value!r},{forecast!r}"
    assert lines[-1] == f",{forecasts[-1]!r}"
    assert "alpha=0.2" in err


def test_smooth_fit_flag(capsys, tmp_path):
    path = write_values(tmp_path, [0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0])
    code, _, err = run_cli(capsys, "smooth", "--input", path, "--fit")
    assert code == 0
    assert "alpha=0.95" in err


def test_smooth_alpha_and_fit_conflict(capsys, tmp_path):
    path = write_values(tmp_path, [1.0, 2.0, 3.0])
    code, _, _ = run_cli(capsys, "smooth", "--input", path, "--alpha", "0.5", "--fit")
    assert code == 2


def test_smooth_rejects_bad_value(capsys, tmp_path):
    target = tmp_path / "values.csv"
    target.write_text("value\n1.0\noops\n")
    code, _, err = run_cli(capsys, "smooth", "--input", str(target))
    assert code == 2
    assert "line 3" in err


def test_smooth_empty_series_is_domain_error(capsys, tmp_path):
    target = tmp_path / "values.csv"
    target.write_text("value\n")
    code, _, err = run_cli(capsys, "smooth", "--input", str(target))
    assert code == 1
    assert err.startswith("error:")


def test_diagnose_output(capsys, tmp_path):
    import numpy as np

    rng = np.random.default_rng(5)
    path = write_values(tmp_path, rng.standard_normal(100).tolist())
    code, out, err = run_cli(capsys, "diagnose", "--input", path, "--lags", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lag,acf,pacf"
    assert len(lines) == 6
    assert lines[1].startswith("1,")
    summary = err.strip().splitlines()[-1]
    assert summary.startswith("Q=")
    assert " p=" in summary
    assert summary.endswith("lags=5")


def test_pipeline_fixture_ordering(capsys):
    code, out, err = run_cli(
        capsys,
        "pipeline",
        "--prices", str(FIXTURES / "prices.csv"),
        "--capm", str(FIXTURES / "capm.csv"),
        "--config", str(FIXTURES / "pipeline.cfg"),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "stock_id,nu_hat,nu_tilde,sa,esa,sd_tilde,sd_sa,sd_esa"
    assert len(lines) == 12  # ten stocks plus TOTAL
    total = lines[-1].split(",")
    assert total[0] == "TOTAL"
    sd_raw, sd_simple, sd_es = float(total[5]), float(total[6]), float(total[7])
    assert sd_es < sd_simple < sd_raw
    for line in lines[1:-1]:
        cells = line.split(",")
        assert float(cells[7]) < float(cells[6]) < float(cells[5])
    assert "scored 10 stocks" in err


def test_pipeline_out_flag(capsys, tmp_path):
    report = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys,
        "pipeline",
        "--prices", str(FIXTURES / "prices.csv"),
        "--capm", str(FIXTURES / "capm.csv"),
        "--config", str(FIXTURES / "pipeline.cfg"),
        "--out", str(report),
    )
    assert code == 0
    assert out == ""
    assert report.read_text().splitlines()[0].startswith("stock_id,")


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "driftbias", "limits", "--nu", "0.3", "--direction", "above"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == "0.3,above,0.3"


def test_pipeline_rejects_non_finite_close(capsys, tmp_path):
    lines = (FIXTURES / "prices.csv").read_text().splitlines()
    for bad in ("inf", "nan"):
        stock_id, date, _ = lines[99].split(",")
        edited = lines[:99] + [f"{stock_id},{date},{bad}"] + lines[100:]
        prices = tmp_path / f"prices_{bad}.csv"
        prices.write_text("\n".join(edited) + "\n")
        code, out, err = run_cli(
            capsys,
            "pipeline",
            "--prices", str(prices),
            "--capm", str(FIXTURES / "capm.csv"),
            "--config", str(FIXTURES / "pipeline.cfg"),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {prices}: line 100: price must be finite, got {bad}\n"


def test_pipeline_rejects_non_finite_constant_c(capsys, tmp_path):
    config = tmp_path / "pipeline.cfg"
    config.write_text("benchmark_mode = constant\nconstant_c = nan\n")
    code, out, err = run_cli(
        capsys,
        "pipeline",
        "--prices", str(FIXTURES / "prices.csv"),
        "--capm", str(FIXTURES / "capm.csv"),
        "--config", str(config),
    )
    assert code == 2
    assert out == ""
    assert err == "error: config: constant_c must be finite, got nan\n"


def test_conditional_rejects_non_finite_arguments(capsys):
    for nu, sigma in (("nan", "0.3"), ("0", "inf")):
        code, out, err = run_cli(
            capsys,
            "conditional",
            "--nu", nu, "--sigma", sigma, "--T", "1", "--C", "0",
            "--direction", "above",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err


def test_import_leaves_scipy_integrate_unloaded():
    # Only the quadrature oracle needs scipy.integrate; loading it at
    # import would slow every cold start of the CLI.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", "import sys, driftbias; print('scipy.integrate' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
