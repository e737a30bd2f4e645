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


def test_smooth_defaults_to_the_default_alpha(capsys, tmp_path):
    values = [10.0, 12.0, 8.0, 11.0, 9.0]
    code, out, err = run_cli(capsys, "smooth", "--input", write_values(tmp_path, values))
    assert code == 0
    assert err == "alpha=0.2\n"
    forecasts = smooth(values, SmoothingConfig()).forecasts.tolist()
    rows = [f"{value!r},{forecast!r}" for value, forecast in zip(values, forecasts)]
    assert out.splitlines() == ["value,forecast", *rows, f",{forecasts[-1]!r}"]


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


def run_fixture_pipeline(capsys, tmp_path, settings):
    """Run ``pipeline`` on the fixture prices and CAPM rates with a config of ``settings``."""
    config = tmp_path / "pipeline.cfg"
    config.write_text(settings)
    return run_cli(
        capsys,
        "pipeline",
        "--prices", str(FIXTURES / "prices.csv"),
        "--capm", str(FIXTURES / "capm.csv"),
        "--config", str(config),
    )


def test_pipeline_rejects_non_finite_constant_c(capsys, tmp_path):
    code, out, err = run_fixture_pipeline(capsys, tmp_path, "benchmark_mode = constant\nconstant_c = nan\n")
    assert code == 2
    assert out == ""
    assert err == "error: config: constant_c must be finite, got nan\n"


def test_pipeline_rejects_constant_c_outside_constant_mode(capsys, tmp_path):
    code, out, err = run_fixture_pipeline(capsys, tmp_path, "constant_c = 0.05\n")
    assert code == 2
    assert out == ""
    assert err == "error: config: constant_c requires benchmark_mode 'constant', got 'per_period'\n"


@pytest.mark.parametrize(
    "zeros, expected_code, text",
    [(400, 2, "config: h_per_year does not convert to a float"), (300, 1, "Numerical result out of range")],
    ids=["past_float_range", "overflowing_deviations"],
)
def test_pipeline_reports_huge_h_per_year_in_one_line(capsys, tmp_path, zeros, expected_code, text):
    code, out, err = run_fixture_pipeline(capsys, tmp_path, f"h_per_year = 1{'0' * zeros}\n")
    assert code == expected_code
    assert out == ""
    assert err.startswith("error: ") and text in err and err.count("\n") == 1


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


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--mu", "0.1", "--sigma", "0.3", "--a0", "inf", "--T", "1", "--n", "5", "--seed", "1"],
        ["simulate", "--mu", "0.1", "--sigma", "0.3", "--a0", "100", "--T", "inf", "--n", "5", "--seed", "1"],
        ["simulate", "--mu", "nan", "--sigma", "0.3", "--a0", "100", "--T", "1", "--n", "5", "--seed", "1"],
        ["simulate", "--mu", "0.1", "--sigma", "inf", "--a0", "100", "--T", "1", "--n", "5", "--seed", "1"],
        ["limits", "--nu", "nan", "--direction", "above"],
        ["surface", "--mu-min", "0", "--mu-max", "1", "--mu-steps", "2", "--c-min", "0", "--c-max", "inf",
         "--c-steps", "2", "--sigma", "0.3", "--T", "1", "--direction", "above"],
        # A subnormal sigma * sqrt(T) overflows d, which once printed -inf or a RuntimeWarning.
        ["conditional", "--nu", "1", "--sigma", "2.2e-311", "--T", "1", "--C", "0", "--direction", "above"],
        ["conditional", "--nu", "1", "--sigma", "2.2e-311", "--T", "1", "--C", "0", "--direction", "at_or_below"],
        ["surface", "--mu-min", "0", "--mu-max", "1", "--mu-steps", "2", "--c-min", "0", "--c-max", "1",
         "--c-steps", "2", "--sigma", "2.2e-311", "--T", "1", "--direction", "above"],
    ],
    ids=["a0", "T", "mu", "sigma", "limits", "surface", "d_above", "d_at_or_below", "d_surface"],
)
def test_file_free_commands_reject_non_finite_arguments(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err and "\n" not in err.strip()


@pytest.mark.parametrize("mu", ["1000", "-1000"])
def test_simulate_rejects_prices_past_the_float_range(capsys, mu):
    # The drift once overflowed exp: a RuntimeWarning, an inf close and exit 0.
    code, out, err = run_cli(
        capsys, "simulate", "--mu", mu, "--sigma", "0.3", "--a0", "100", "--T", "1", "--n", "3", "--seed", "1"
    )
    assert (code, out) == (2, "")
    assert err == f"error: the simulated prices leave the float range: mu = {float(mu)}, T = 1.0, a0 = 100.0\n"


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


def run_pipeline(capsys, prices=FIXTURES / "prices.csv", capm=FIXTURES / "capm.csv"):
    return run_cli(
        capsys,
        "pipeline",
        "--prices", str(prices),
        "--capm", str(capm),
        "--config", str(FIXTURES / "pipeline.cfg"),
    )


def test_estimate_rejects_non_finite_price(capsys, tmp_path):
    prices = tmp_path / "prices.csv"
    prices.write_text("date_index,price\n0,100\n1,inf\n2,101\n")
    code, out, err = run_cli(capsys, "estimate", "--prices", str(prices))
    assert code == 2
    assert out == ""
    assert err == f"error: {prices}: line 3: price must be finite, got inf\n"


@pytest.mark.parametrize("bad, shown", [("nan", "nan"), ("inf", "inf"), ("1e400", "inf")])
@pytest.mark.parametrize(
    "command", [("smooth", "--alpha", "0.5"), ("diagnose", "--lags", "1")], ids=["smooth", "diagnose"]
)
def test_value_commands_reject_non_finite_values(capsys, tmp_path, command, bad, shown):
    path = write_values(tmp_path, ["1.0", bad, "2.0"])
    code, out, err = run_cli(capsys, command[0], "--input", path, *command[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: line 3: value must be finite, got {shown}\n"


@pytest.mark.parametrize(
    "column, bad, shown",
    [
        ("beta", "inf", "inf"),
        ("risk_free", "nan", "nan"),
        ("risk_free", "inf", "inf"),
        ("market_return_expectation", "1e400", "inf"),
    ],
)
def test_pipeline_rejects_non_finite_capm_field(capsys, tmp_path, column, bad, shown):
    lines = (FIXTURES / "capm.csv").read_text().splitlines()
    assert lines[3] == "100001,2011,0.8,0.029,0.07"
    cells = lines[3].split(",")
    cells[lines[0].split(",").index(column)] = bad
    lines[3] = ",".join(cells)
    capm = tmp_path / "capm.csv"
    capm.write_text("\n".join(lines) + "\n")
    code, out, err = run_pipeline(capsys, capm=capm)
    assert code == 2
    assert out == ""
    assert err == f"error: {capm}: line 4: {column} must be finite, got {shown}\n"


FILE = "{file}"


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["smooth", "--input", FILE], "value\n1.0\n\n\n2.0\noops\n",
         "line 6, column 1: invalid value 'oops'"),
        (["estimate", "--prices", FILE], "\n \ndate_index,price\n0,100\n\t\n1,abc\n",
         "line 6, column 2: invalid price 'abc'"),
        (["pipeline", "--prices", FILE, "--capm", str(FIXTURES / "capm.csv"),
          "--config", str(FIXTURES / "pipeline.cfg")],
         "stock_id,date,close\n100001,2009-01-01,20.0\n\n\n100001,2009-01-02,oops\n",
         "line 5, column 3: invalid price 'oops'"),
        (["pipeline", "--prices", str(FIXTURES / "prices.csv"), "--capm", FILE,
          "--config", str(FIXTURES / "pipeline.cfg")],
         "\nstock_id,year,beta,risk_free,market_return_expectation\n"
         "100001,2009,0.8,0.03,0.075\n  \n\n100001,20x0,0.8,0.03,0.075\n",
         "line 6, column 2: invalid year '20x0'"),
    ],
    ids=["values", "price_path", "prices", "capm"],
)
def test_errors_name_physical_lines_after_blank_lines(capsys, tmp_path, argv, text, message):
    path = tmp_path / "input.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, *(str(path) if arg == FILE else arg for arg in argv))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {message}\n"


# Sums of squares of these values overflow unless the series is scaled first.
HUGE = ["1e200", "-1e200", "3e200", "-2e200", "5e199"]


def numbers(text):
    """Every number in ``text``, whether a CSV cell or the value of a ``key=value`` pair."""
    cells = text.replace("=", ",").replace(" ", ",").replace("\n", ",").split(",")
    return [float(cell) for cell in cells if cell[-1:].isdigit()]


@pytest.mark.filterwarnings("ignore:Ljung-Box chi-square approximation:UserWarning")
@pytest.mark.parametrize(
    "command, values",
    [
        (("diagnose", "--lags", "1"), HUGE),
        (("smooth", "--fit"), HUGE),
        (("smooth", "--fit"), ["0", "0", "0", "1e200", "1e200", "1e200"]),
    ],
    ids=["diagnose", "smooth", "smooth_level_shift"],
)
def test_value_commands_handle_huge_values(capsys, tmp_path, command, values):
    # The results must match those of the same series divided by 1e200:
    # diagnose's autocorrelations, Q and p, and smooth's fitted alpha.
    unit = [repr(float(value) / 1e200) for value in values]
    code, unit_out, unit_err = run_cli(capsys, command[0], "--input", write_values(tmp_path, unit), *command[1:])
    assert code == 0
    code, out, err = run_cli(capsys, command[0], "--input", write_values(tmp_path, values), *command[1:])
    assert code == 0
    assert "nan" not in out + err and "inf" not in out + err
    if command[0] == "diagnose":
        assert numbers(out + err) == pytest.approx(numbers(unit_out + unit_err), rel=1e-12)
    else:
        assert err == unit_err
