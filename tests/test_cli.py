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


def test_estimate_rejects_zero_h_per_year(capsys, tmp_path):
    prices = tmp_path / "prices.csv"
    prices.write_text("date_index,price\n0,1.0\n1,1.5\n2,1.2\n")
    code, out, err = run_cli(capsys, "estimate", "--prices", str(prices), "--h-per-year", "0")
    assert (code, out) == (2, "")
    assert err == "error: --h-per-year must be positive, got 0.0\n"


def test_estimate_rejects_an_infinite_h_per_year(capsys, tmp_path):
    # Its step 1 / inf is 0, and the error once named step_h instead of the flag.
    prices = tmp_path / "prices.csv"
    prices.write_text("date_index,price\n0,1.0\n1,1.5\n2,1.2\n")
    code, out, err = run_cli(capsys, "estimate", "--prices", str(prices), "--h-per-year", "inf")
    assert (code, out) == (2, "")
    assert err == "error: --h-per-year must be finite, got inf\n"


def test_estimate_rejects_an_h_per_year_whose_step_overflows(capsys, tmp_path):
    # 1 / 1e-320 is inf; that step once printed T = inf and exited 0.
    prices = tmp_path / "prices.csv"
    prices.write_text("date_index,price\n0,1.0\n1,1.5\n2,1.2\n")
    code, out, err = run_cli(capsys, "estimate", "--prices", str(prices), "--h-per-year", "1e-320")
    assert (code, out) == (2, "")
    assert err == "error: --h-per-year = 1e-320 makes the step 1 / 1e-320 overflow\n"


def test_estimate_rejects_estimates_past_the_float_range(capsys, tmp_path):
    # At a step of 1e-305 years the variance of these returns overflows; it
    # once printed inf, with a RuntimeWarning, and exited 0.
    prices = tmp_path / "prices.csv"
    prices.write_text("date_index,price\n0,1\n1,1e300\n2,1\n")
    code, out, err = run_cli(capsys, "estimate", "--prices", str(prices), "--h-per-year", "1e305")
    assert (code, out) == (2, "")
    assert err == "error: the estimates overflow; --h-per-year = 1e+305 is far from a sampling rate\n"


def test_estimate_rejects_a_duration_past_the_float_range(capsys, tmp_path):
    # A step of 1e308 years is finite, but two of them are not: T once printed as inf.
    prices = tmp_path / "prices.csv"
    prices.write_text("date_index,price\n0,1.0\n1,1.5\n2,1.2\n")
    code, out, err = run_cli(capsys, "estimate", "--prices", str(prices), "--h-per-year", "1e-308")
    assert (code, out) == (2, "")
    assert err == "error: the estimates overflow; --h-per-year = 1e-308 is far from a sampling rate\n"


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
    forecasts = smooth(values, SmoothingConfig(alpha=0.2)).tolist()
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
    forecasts = smooth(values, SmoothingConfig()).tolist()
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


@pytest.mark.parametrize(
    "value, change",
    [(252, "-97.68%"), (10**157, "+610.03%")],
    ids=["fixture", "totals_near_float_max"],
)
def test_pipeline_recap_states_the_smoothed_change(capsys, tmp_path, value, change):
    # At h_per_year = 10**157 the totals are 6.62e306 and 4.70e307, so
    # 100 times their difference overflows where the ratio does not.
    text = (FIXTURES / "pipeline.cfg").read_text()
    code, _, err = run_fixture_pipeline(capsys, tmp_path, text.replace("h_per_year = 252", f"h_per_year = {value}"))
    assert code == 0
    assert err.splitlines()[-1] == f"smoothed adjustment changes the raw deviation by {change}"


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


def small_inputs(tmp_path):
    """A 60-step simulated price path and a value file of its closes."""
    path = gbm.simulate_gbm(gbm.GbmParams(mu=0.1, sigma=0.3), a0=100.0, T=1.0, n=60, seed=1)
    prices = tmp_path / "path.csv"
    prices.write_text(gbm.write_price_csv(path))
    return str(prices), write_values(tmp_path, [repr(price) for price in path.prices.tolist()])


# Each command's header line and arguments, on small inputs.
OUT_RUNS = {
    "simulate": ("date_index,price",
                 ["--mu", "0.1", "--sigma", "0.3", "--a0", "100", "--T", "1", "--n", "60", "--seed", "1"]),
    "estimate": ("nu_hat,sigma2_hat,n,T", ["--prices", "{prices}", "--h-per-year", "60"]),
    "conditional": ("expectation,tail_probability,bias,mills_argument",
                    ["--nu", "0.05", "--sigma", "0.3", "--T", "1", "--C", "0", "--direction", "above"]),
    "surface": ("mu,C,expectation,bias,flag",
                ["--mu-min", "-1", "--mu-max", "1", "--mu-steps", "3", "--c-min", "-1", "--c-max", "1",
                 "--c-steps", "3", "--sigma", "0.3", "--T", "1", "--direction", "at_or_below"]),
    "limits": ("nu,direction,limit", ["--nu", "0.05", "--direction", "at_or_below"]),
    "smooth": ("value,forecast", ["--input", "{values}", "--fit"]),
    "diagnose": ("lag,acf,pacf", ["--input", "{values}", "--lags", "5"]),
    "pipeline": ("stock_id,nu_hat", ["--prices", str(FIXTURES / "prices.csv"), "--capm", str(FIXTURES / "capm.csv"),
                                     "--config", str(FIXTURES / "pipeline.cfg")]),
}


@pytest.mark.parametrize("command", list(OUT_RUNS))
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, command):
    header, args = OUT_RUNS[command]
    prices, values = small_inputs(tmp_path)
    argv = [command, *(arg.format(prices=prices, values=values) for arg in args)]
    code, out, err = run_cli(capsys, *argv)
    target = tmp_path / "out.csv"
    out_code, out_stdout, out_err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out_code) == (0, 0)
    assert out.startswith(header)
    assert out_stdout == ""
    assert target.read_bytes() == out.encode("utf-8")
    assert out_err == err


def test_smooth_fit_into_a_directory_writes_only_its_error(capsys, tmp_path):
    # The fitted alpha note must not come before or after the error line.
    _, values = small_inputs(tmp_path)
    code, out, err = run_cli(capsys, "smooth", "--input", values, "--fit", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "alpha=" not in err


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
    "value, expected_code, text",
    [
        (10**400, 2, "config: h_per_year does not convert to a float"),
        (10**300, 2, "stock 100001: a squared forecast deviation overflows; "
                     "h_per_year = 1e+300 is far from a sampling rate"),
        # Each stock's deviations are finite, but their sum is not.
        (3 * 10**157, 2, "the summed squared forecast deviations overflow; "
                         "h_per_year = 3e+157 is far from a sampling rate"),
    ],
    ids=["past_float_range", "overflowing_deviations", "overflowing_totals"],
)
def test_pipeline_reports_huge_h_per_year_in_one_line(capsys, tmp_path, value, expected_code, text):
    code, out, err = run_fixture_pipeline(capsys, tmp_path, f"h_per_year = {value}\n")
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


def run_process(*args):
    """Run Python on ``args`` with the package's sources first on the path."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}
    )


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: scipy is for the tests, and
    # loading any of it would slow every cold start.
    code = "import sys, driftbias.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = run_process("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def pipeline_args(prices=FIXTURES / "prices.csv"):
    return ["pipeline", "--prices", str(prices), "--capm", str(FIXTURES / "capm.csv"),
            "--config", str(FIXTURES / "pipeline.cfg")]


def test_pipeline_run_loads_no_numpy_ma():
    # np.unique imports numpy.ma, which would slow every cold run.
    code = "import sys; from driftbias import cli; print(cli.run(sys.argv[1:]), 'numpy.ma' in sys.modules)"
    result = run_process("-c", code, *pipeline_args())
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"


def test_pipeline_rejects_a_day_past_its_month_end_in_a_long_file(tmp_path):
    # numpy 2.4.6 crashes when it casts more than 500 date cells to datetime64[D]
    # and one of them is a day that does not exist.
    lines = (FIXTURES / "prices.csv").read_text().splitlines()
    at = next(k for k, line in enumerate(lines) if "-02-28," in line)
    assert at > 512 and lines[at].split(",")[1] == "2011-02-28"
    prices = tmp_path / "prices.csv"
    prices.write_text("\n".join([*lines[:at], lines[at].replace("-02-28,", "-02-30,"), *lines[at + 1 :]]) + "\n")
    result = run_process("-m", "driftbias", *pipeline_args(prices))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {prices}: line {at + 1}, column 2: invalid ISO date '2011-02-30'\n"


def test_pipeline_overflowing_estimate_prints_only_its_error(tmp_path):
    # A huge close at a tiny step takes nu_hat past the float range. A
    # RuntimeWarning from the division once came before the error line.
    lines = (FIXTURES / "prices.csv").read_text().splitlines()
    assert lines[2533].startswith("100001,2019-01-03,")
    lines[2533] = "100001,2019-01-03,1e300"
    prices = tmp_path / "prices.csv"
    prices.write_text("\n".join(lines) + "\n")
    config = tmp_path / "pipeline.cfg"
    config.write_text(f"h_per_year = {10**307}\n")
    result = run_process("-m", "driftbias", "pipeline", "--prices", str(prices), "--capm",
                         str(FIXTURES / "capm.csv"), "--config", str(config))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == ("error: stock 100001: a squared forecast deviation overflows; "
                             "h_per_year = 1e+307 is far from a sampling rate\n")


def test_pipeline_infinite_holdout_estimate_prints_only_its_error(capsys, tmp_path):
    # A holdout nu_hat of inf squares to inf without an OverflowError; the
    # report once printed inf cells, a +nan% recap and exited 0.
    lines = (FIXTURES / "prices.csv").read_text().splitlines()
    kept = [lines[0], *(line for line in lines[1:] if line.startswith("100001,"))]
    first = next(k for k, line in enumerate(kept) if line.startswith("100001,2019-"))
    for at, close in ((first, "1e-300"), (-1, "1e300")):
        kept[at] = kept[at].rsplit(",", 1)[0] + "," + close
    prices = tmp_path / "prices.csv"
    prices.write_text("\n".join(kept) + "\n")
    config = tmp_path / "pipeline.cfg"
    config.write_text((FIXTURES / "pipeline.cfg").read_text().replace("h_per_year = 252", f"h_per_year = {10**307}"))
    code, out, err = run_cli(capsys, "pipeline", "--prices", str(prices), "--capm", str(FIXTURES / "capm.csv"),
                             "--config", str(config))
    assert (code, out) == (2, "")
    assert err == ("error: stock 100001: the holdout estimate or a forecast is not finite; "
                   "h_per_year = 1e+307 is far from a sampling rate\n")


def one_return_prices(lines):
    """Stock 100004 keeps only its first two 2012 closes."""
    year = [k for k, line in enumerate(lines) if line.startswith("100004,2012-")]
    return [line for k, line in enumerate(lines) if k not in year[2:]]


def three_year_prices(lines):
    """Only stock 100001's 2017-2019 rows."""
    return [lines[0], *(line for line in lines[1:] if line.startswith(("100001,2017-", "100001,2018-", "100001,2019-")))]


@pytest.mark.parametrize(
    "cut, text",
    [
        (one_return_prices, "stock 100004, year 2012: variance estimation needs n >= 2 returns, got 1"),
        (three_year_prices, "stock 100001: scoring needs >= 3 records, got 2"),
    ],
    ids=["one_return", "three_years"],
)
def test_pipeline_names_the_stock_it_cannot_score(capsys, tmp_path, cut, text):
    prices = tmp_path / "prices.csv"
    prices.write_text("\n".join(cut((FIXTURES / "prices.csv").read_text().splitlines())) + "\n")
    code, out, err = run_pipeline(capsys, prices)
    assert (code, out, err) == (1, "", f"error: {text}\n")


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
