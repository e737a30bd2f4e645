import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import substream

from driftbias import conditional as ce
from driftbias import gbm, pipeline
from driftbias.errors import InsufficientDataError, ParseError
from driftbias.smoothing import SmoothingConfig, smooth


def make_period_path(total, sigma2, n=16, seed=0):
    """Craft a one-year path whose estimates hit (total, sigma2) exactly.

    Daily returns are total/n plus standardized residuals scaled to the
    target variance, so nu_hat == total and sigma2_hat == sigma2 up to
    rounding.
    """
    h = 1.0 / n
    if sigma2 > 0:
        u = np.random.default_rng(seed).standard_normal(n)
        u = u - u.mean()
        u = u / u.std(ddof=1)
        r = total / n + math.sqrt(sigma2 * h) * u
    else:
        r = np.full(n, total / n)
    prices = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(r))))
    return gbm.PricePath(step_h=h, prices=prices)


def dataset_from_paths(paths, stock_id="000001", years=None, beta=1.0, risk_free=None, market=None):
    """A StockDataset holding the prices of ``paths``, one period each, at the first path's step."""
    n = len(paths)
    return pipeline.StockDataset(
        stock_id=stock_id,
        years=tuple(range(2009, 2009 + n)) if years is None else years,
        closes=np.concatenate([path.prices for path in paths]),
        offsets=np.cumsum([0, *(path.prices.size for path in paths)]),
        step_h=paths[0].step_h,
        beta=beta,
        risk_free=(0.0,) * n if risk_free is None else risk_free,
        market_return_expectation=(0.0,) * n if market is None else market,
    )


def make_dataset(totals, sigma2=0.09, stock_id="000001", rf=0.03, beta=1.0, mkt=0.08):
    n = len(totals)
    paths = tuple(make_period_path(total, sigma2, seed=100 + i) for i, total in enumerate(totals))
    return dataset_from_paths(paths, stock_id, beta=beta, risk_free=(rf,) * n, market=(mkt,) * n)


def make_record(index=0, nu_hat=0.0, nu_tilde=0.0, invested=False, **kwargs):
    defaults = dict(
        sigma2_hat=0.09,
        realized_return=kwargs.pop("realized_return", nu_hat),
        benchmark_c=kwargs.pop("benchmark_c", 0.09),
        degenerate=kwargs.pop("degenerate", False),
    )
    return pipeline.PeriodRecord(
        period_index=index,
        nu_hat=nu_hat,
        invested=invested,
        nu_tilde=nu_tilde,
        **defaults,
        **kwargs,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        pipeline.PipelineConfig(alpha=1.5)
    with pytest.raises(ValueError):
        pipeline.PipelineConfig(h_per_year=0)
    with pytest.raises(ValueError):
        pipeline.PipelineConfig(benchmark_mode="weekly")
    with pytest.raises(ValueError):
        pipeline.PipelineConfig(benchmark_mode="constant")
    with pytest.raises(ValueError, match="constant_c requires benchmark_mode 'constant', got 'per_period'"):
        pipeline.PipelineConfig(constant_c=0.05)
    with pytest.raises(ValueError, match="h_per_year does not convert to a float"):
        pipeline.PipelineConfig(h_per_year=10**400)
    pipeline.PipelineConfig(benchmark_mode="constant", constant_c=0.05)


def test_record_gating_consistency():
    with pytest.raises(ValueError):
        make_record(invested=False, nu_tilde=0.2)
    invested = make_record(nu_hat=0.1, nu_tilde=0.25, invested=True)
    assert invested.bias == pytest.approx(0.15, rel=1e-12)
    skipped = make_record(nu_hat=0.1, nu_tilde=0.0, invested=False)
    assert skipped.bias == 0.0


def test_dataset_validation():
    path = make_period_path(0.1, 0.04)
    with pytest.raises(ValueError, match="consecutive"):
        dataset_from_paths((path, path), "x", years=(2009, 2011), risk_free=(0.0, 0.0), market=(0.0, 0.0))
    with pytest.raises(ValueError, match="mismatched"):
        dataset_from_paths((path, path), "x", years=(2009, 2010), risk_free=(0.0,), market=(0.0, 0.0))


def test_dataset_checks_closes_and_offsets():
    data = dict(stock_id="x", years=(2009, 2010), step_h=0.5, beta=1.0, risk_free=(0.0, 0.0),
                market_return_expectation=(0.0, 0.0))
    dataset = pipeline.StockDataset(closes=[1.0, 2.0, 3.0, 4.0, 5.0], offsets=[0, 2, 5], **data)
    assert [path.prices.tolist() for path in dataset.period_paths] == [[1.0, 2.0], [3.0, 4.0, 5.0]]
    assert [path.step_h for path in dataset.period_paths] == [0.5, 0.5]
    with pytest.raises(ValueError):
        dataset.closes[0] = 2.0
    with pytest.raises(ValueError, match="mismatched"):
        pipeline.StockDataset(closes=[1.0, 2.0, 3.0, 4.0], offsets=[0, 2], **data)
    for offsets in ([0, 1, 4], [0, 2, 3], [1, 2, 4], [0, 3, 2]):
        with pytest.raises(ValueError, match="offsets"):
            pipeline.StockDataset(closes=[1.0, 2.0, 3.0, 4.0], offsets=offsets, **data)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            pipeline.StockDataset(closes=[1.0, 2.0, 3.0, bad], offsets=[0, 2, 4], **data)
    with pytest.raises(ValueError, match="step_h"):
        pipeline.StockDataset(closes=[1.0, 2.0, 3.0, 4.0], offsets=[0, 2, 4], **{**data, "step_h": 0.0})
    with pytest.raises(ValueError, match="^step_h must be finite, got inf$"):
        pipeline.StockDataset(closes=[1.0, 2.0, 3.0, 4.0], offsets=[0, 2, 4], **{**data, "step_h": math.inf})
    none = {**data, "years": (), "risk_free": (), "market_return_expectation": ()}
    with pytest.raises(ValueError, match="^stock x: no periods$"):
        pipeline.StockDataset(closes=[], offsets=[0], **none)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["beta", "risk_free", "market_return_expectation"])
def test_dataset_rejects_non_finite_capm_inputs(field, bad):
    # A nan beta once made every gate degenerate without a word.
    data = dict(stock_id="x", years=(2009, 2010), closes=[1.0, 2.0, 3.0, 4.0], offsets=[0, 2, 4], step_h=0.5,
                beta=1.0, risk_free=(0.0, 0.0), market_return_expectation=(0.0, 0.0))
    data[field] = bad if field == "beta" else (0.03, bad)
    with pytest.raises(ValueError, match=f"^stock x: {field} must be finite, got {bad}$"):
        pipeline.StockDataset(**data)


def test_capm_benchmark():
    assert pipeline.capm_benchmark(0.03, 0.0, 0.08) == 0.03
    assert pipeline.capm_benchmark(0.03, 1.0, 0.08) == 0.08
    assert pipeline.capm_benchmark(0.03, 1.2, 0.08) == pytest.approx(0.09, rel=1e-12)


def test_build_records_needs_two_periods():
    with pytest.raises(InsufficientDataError):
        pipeline.build_period_records(make_dataset([0.2]))


def test_first_record_never_invested():
    records = pipeline.build_period_records(make_dataset([0.5, 0.5, 0.5]))
    assert records[0].invested is False
    assert records[0].nu_tilde == 0.0
    assert records[0].bias == 0.0


def test_gate_threads_previous_period_outcome():
    # C = 0.08 throughout; totals alternate around it.
    records = pipeline.build_period_records(make_dataset([0.5, -0.2, 0.3, 0.1]))
    assert [r.invested for r in records] == [False, True, False, True]
    for previous, current in zip(records, records[1:]):
        opened = previous.realized_return > previous.benchmark_c
        assert current.invested == (opened and not current.degenerate)
        if not current.invested:
            assert current.nu_tilde == 0.0


def test_all_below_benchmark_means_no_bias():
    records = pipeline.build_period_records(make_dataset([-0.1, -0.2, -0.05, -0.3]))
    assert all(r.nu_tilde == 0.0 for r in records)
    assert all(r.bias == 0.0 for r in records)


def test_invested_forecast_dominates_gate_inputs():
    records = pipeline.build_period_records(make_dataset([0.5, 0.4, 0.6, 0.45]))
    for previous, current in zip(records, records[1:]):
        assert current.invested
        # Truncated-normal mean exceeds both the plugged-in nu_hat and C.
        assert current.nu_tilde > previous.nu_hat
        assert current.nu_tilde > previous.benchmark_c
        assert current.nu_tilde > 0.0


def test_benchmark_modes():
    data = make_dataset([0.5, 0.5])
    per_period = pipeline.build_period_records(data)
    assert per_period[0].benchmark_c == pytest.approx(0.08, rel=1e-12)
    constant = pipeline.build_period_records(
        data, pipeline.PipelineConfig(benchmark_mode="constant", constant_c=0.42)
    )
    assert constant[0].benchmark_c == 0.42


def test_zero_variance_period_flags_degenerate():
    # Flat prices give sigma2_hat = 0; the open gate cannot be evaluated.
    data = make_dataset([0.0, 0.1, 0.2], sigma2=0.0)
    config = pipeline.PipelineConfig(benchmark_mode="constant", constant_c=-0.5)
    records = pipeline.build_period_records(data, config)
    assert records[1].degenerate is True
    assert records[1].invested is False
    assert records[1].nu_tilde == 0.0


def test_invested_fraction_matches_normal_quantile():
    # With C one standard deviation below the mean return, each gate opens
    # with probability Phi(1); check the empirical fraction across seeds.
    params = gbm.GbmParams(mu=0.1, sigma=0.3)
    config = pipeline.PipelineConfig(
        benchmark_mode="constant", constant_c=params.nu - 0.3, h_per_year=16
    )
    opened = 0
    total = 0
    for seed in range(500):
        paths = tuple(
            gbm.simulate_gbm(params, 100.0, 1.0, 16, substream(777, 6 * seed + i))
            for i in range(6)
        )
        data = dataset_from_paths(paths, "mc")
        records = pipeline.build_period_records(data, config)
        opened += sum(r.invested for r in records[1:])
        total += len(records) - 1
    phi_1 = 0.8413447460685429
    se = math.sqrt(phi_1 * (1.0 - phi_1) / total)
    assert abs(opened / total - phi_1) <= 3.0 * se


# The simple and ES adjustments are scored through score_records, the one
# copy of their arithmetic: simple_adjusted = raw - last bias, and
# es_adjusted = raw - F_{t+1}, the smoothed forecast of the bias series.


def test_score_records_needs_three_records():
    with pytest.raises(InsufficientDataError, match="^scoring needs >= 3 records, got 2$"):
        pipeline.score_records("000001", [make_record(), make_record(index=1)], 0.1, 0.1)


@pytest.mark.parametrize(
    "raw_next, fault",
    [(math.inf, "the holdout estimate or a forecast is not finite"), (1e200, "a squared forecast deviation overflows")],
)
def test_score_records_names_only_the_fault(raw_next, fault):
    # The caller gave no sampling rate, so the text blames none.
    records = pipeline.build_period_records(make_dataset([-0.1, -0.2, -0.3]))
    with pytest.raises(ValueError) as info:
        pipeline.score_records("000001", records, raw_next, 0.0)
    assert str(info.value) == f"stock 000001: {fault}"


def test_simple_adjust_zero_bias_is_identity():
    records = pipeline.build_period_records(make_dataset([-0.1, -0.2, -0.3]))
    for raw in (0.0, 0.07, -0.3):
        assert pipeline.score_records("000001", records, raw, 0.05).simple_adjusted == raw


def test_simple_adjust_hand_case():
    # The last record's bias is 0.15 - 0.10 = 0.05, so a raw 0.20 becomes 0.15.
    records = [
        make_record(index=0),
        make_record(index=1),
        make_record(index=2, nu_hat=0.10, nu_tilde=0.15, invested=True),
    ]
    report = pipeline.score_records("000001", records, raw_next=0.20, holdout_nu_hat=0.12)
    assert report.simple_adjusted == pytest.approx(0.15, rel=1e-12)


def ar1_bias_records(rho=0.9, n=40, seed=21, scale=0.1):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) * scale * math.sqrt(1.0 - rho * rho)
    bias = np.empty(n)
    bias[0] = rng.standard_normal() * scale
    for t in range(1, n):
        bias[t] = rho * bias[t - 1] + noise[t]
    return [
        make_record(index=i, nu_hat=0.05, nu_tilde=0.05 + bias[i], invested=True)
        for i in range(n)
    ]


def test_simple_adjust_beats_raw_on_persistent_bias():
    # Each record from the fourth on is the holdout of the records before it.
    records = ar1_bias_records()
    reports = [
        pipeline.score_records("000001", records[:k], records[k].nu_tilde, records[k].nu_hat)
        for k in range(3, len(records))
    ]
    assert sum(r.sd_simple for r in reports) < sum(r.sd_raw for r in reports)


def test_es_adjust_zero_bias_is_identity():
    records = pipeline.build_period_records(make_dataset([-0.1, -0.2, -0.3]))
    for raw in (0.0, 0.07, -0.3):
        assert pipeline.score_records("000001", records, raw, 0.05).es_adjusted == raw


def test_es_adjust_alpha_one_equals_simple():
    # Pipeline-built records start with zero bias, making the alpha = 1
    # smoothed forecast coincide with the previous bias at every step.
    config = pipeline.PipelineConfig(alpha=1.0)
    for totals in ([0.5, -0.2, 0.3, 0.1, 0.4], [0.5, 0.4, 0.6, 0.45, 0.3]):
        records = pipeline.build_period_records(make_dataset(totals))
        for k in range(3, len(records) + 1):
            report = pipeline.score_records("000001", records[:k], 0.1, 0.05, config)
            assert report.es_adjusted == report.simple_adjusted


def test_es_adjust_constant_bias_fixed_point():
    records = [
        make_record(index=i, nu_hat=0.10, nu_tilde=0.15, invested=True) for i in range(5)
    ]
    config = pipeline.PipelineConfig(alpha=0.2)
    for k in range(3, len(records) + 1):
        report = pipeline.score_records("000001", records[:k], 0.15, 0.10, config)
        assert report.es_adjusted == pytest.approx(0.15 - 0.05, rel=1e-12)


def test_ssd_matches_direct_recomputation():
    records = pipeline.build_period_records(make_dataset([0.5, -0.2, 0.3, 0.1]))
    direct = sum(
        (r.nu_tilde - r.nu_hat) ** 2 if r.invested else 0.0 for r in records
    )
    assert sum(r.bias**2 for r in records) == pytest.approx(direct, rel=1e-15)


def test_next_raw_forecast_closed_gate():
    # The last sample period (-0.2) misses C = 0.08, so no money enters the holdout.
    assert pipeline.score_portfolio([make_dataset([0.5, 0.4, -0.2, 0.3])])[0][0].raw_conditional == 0.0


def test_next_raw_forecast_open_gate():
    data = make_dataset([0.5, 0.4, 0.45, 0.3])
    report = pipeline.score_portfolio([data])[0][0]
    last = pipeline.build_period_records(pipeline.split_holdout(data)[0])[-1]
    expected = ce.conditional_nu(
        ce.ConditionalQuery(
            nu=last.nu_hat,
            sigma=math.sqrt(last.sigma2_hat),
            T=1.0,
            C=last.benchmark_c,
            direction=ce.Direction.ABOVE,
        )
    ).expectation
    assert report.raw_conditional == expected


def test_score_records_perfect_forecast():
    records = pipeline.build_period_records(make_dataset([-0.1, -0.2, -0.3]))
    report = pipeline.score_records("000001", records, raw_next=0.07, holdout_nu_hat=0.07)
    assert report.sd_raw == 0.0
    assert report.sd_simple == 0.0
    assert report.sd_es == 0.0
    assert report.raw_conditional == 0.07


def test_score_records_uses_last_bias_and_smoothed_bias():
    records = ar1_bias_records(n=10)
    report = pipeline.score_records("000001", records, raw_next=0.2, holdout_nu_hat=0.1)
    assert report.simple_adjusted == pytest.approx(0.2 - records[-1].bias, rel=1e-12)
    forecast = smooth([r.bias for r in records], SmoothingConfig(alpha=0.2))[-1]
    assert report.es_adjusted == pytest.approx(0.2 - forecast, rel=1e-12)
    assert report.sd_simple == pytest.approx((report.simple_adjusted - 0.1) ** 2, rel=1e-12)


def test_score_records_can_fit_alpha():
    records = ar1_bias_records(n=12)
    config = pipeline.PipelineConfig(fit_alpha=True)
    report = pipeline.score_records("000001", records, 0.2, 0.1, config)
    assert math.isfinite(report.es_adjusted)


def test_split_holdout():
    data = make_dataset([0.5, 0.4, 0.3])
    sample, holdout = pipeline.split_holdout(data)
    assert sample.years == (2009, 2010)
    last = data.period_paths[-1]
    assert holdout.step_h == last.step_h
    assert holdout.prices.tolist() == last.prices.tolist()
    with pytest.raises(InsufficientDataError):
        pipeline.split_holdout(make_dataset([0.5]))


def test_score_portfolio_one_stock_end_to_end():
    data = make_dataset([0.5, 0.4, 0.6, 0.45])
    holdout = pipeline.split_holdout(data)[1]
    report = pipeline.score_portfolio([data])[0][0]
    holdout_nu = gbm.estimate_unconditional(gbm.log_returns(holdout)).nu_hat
    assert report.holdout_nu_hat == holdout_nu
    assert report.sd_raw == (report.raw_conditional - holdout_nu) ** 2


def test_score_portfolio_orders_and_sums():
    datasets = [
        make_dataset([0.5, 0.4, 0.6, 0.45], stock_id="000002"),
        make_dataset([0.3, 0.5, 0.2, 0.4], stock_id="000001"),
    ]
    reports, totals = pipeline.score_portfolio(datasets)
    assert [r.stock_id for r in reports] == ["000001", "000002"]
    assert totals[0] == pytest.approx(sum(r.sd_raw for r in reports), rel=1e-15)
    assert totals[1] == pytest.approx(sum(r.sd_simple for r in reports), rel=1e-15)
    assert totals[2] == pytest.approx(sum(r.sd_es for r in reports), rel=1e-15)
    # Exactly rounded sums, whatever the interpreter's sum() does.
    names = ("sd_raw", "sd_simple", "sd_es")
    assert totals == tuple(math.fsum(getattr(r, name) for r in reports) for name in names)


def test_report_csv_layout():
    report = pipeline.ForecastReport(
        stock_id="000001",
        holdout_nu_hat=0.1,
        raw_conditional=0.2,
        simple_adjusted=0.15,
        es_adjusted=0.12,
        sd_raw=0.01,
        sd_simple=0.0025,
        sd_es=0.0004,
    )
    text = pipeline.report_csv([report], (0.01, 0.0025, 0.0004))
    lines = text.splitlines()
    assert lines[0] == "stock_id,nu_hat,nu_tilde,sa,esa,sd_tilde,sd_sa,sd_esa"
    assert lines[1] == "000001,0.1,0.2,0.15,0.12,0.01,0.0025,0.0004"
    assert lines[2] == "TOTAL,,,,,0.01,0.0025,0.0004"


def test_report_determinism():
    datasets = [make_dataset([0.5, 0.4, 0.6, 0.45])]
    first = pipeline.report_csv(*pipeline.score_portfolio(datasets))
    second = pipeline.report_csv(*pipeline.score_portfolio(datasets))
    assert first == second


def test_parse_config_happy_path():
    config = pipeline.parse_config(
        "# forecasting settings\n"
        "alpha = 0.3\n"
        "fit_alpha = false\n"
        "h_per_year = 252  # trading days\n"
        "benchmark_mode = constant\n"
        "constant_c = 0.05\n"
    )
    assert config.alpha == 0.3
    assert config.fit_alpha is False
    assert config.h_per_year == 252
    assert config.benchmark_mode == "constant"
    assert config.constant_c == 0.05


def test_parse_config_defaults():
    config = pipeline.parse_config("# nothing set\n")
    assert config == pipeline.PipelineConfig()


def test_parse_config_rejects_bad_input():
    with pytest.raises(ParseError, match="duplicate"):
        pipeline.parse_config("alpha = 0.1\nalpha = 0.2\n")
    with pytest.raises(ParseError, match="unknown"):
        pipeline.parse_config("alhpa = 0.1\n")
    with pytest.raises(ParseError):
        pipeline.parse_config("alpha = fast\n")
    with pytest.raises(ParseError, match="key = value"):
        pipeline.parse_config("alpha 0.1\n")
    with pytest.raises(ParseError):
        pipeline.parse_config("benchmark_mode = constant\n")
    with pytest.raises(ParseError):
        pipeline.parse_config("fit_alpha = maybe\n")


PRICES_TWO_STOCKS = (
    "stock_id,date,close\n"
    "000001,2009-01-05,100.0\n"
    "000001,2009-01-06,101.0\n"
    "000001,2009-01-07,102.5\n"
    "000001,2010-01-05,103.0\n"
    "000001,2010-01-06,104.0\n"
    "000002,2009-01-05,50.0\n"
    "000002,2009-01-06,51.0\n"
    "000002,2010-01-05,52.0\n"
    "000002,2010-01-06,53.5\n"
    "000002,2010-01-07,54.0\n"
)

CAPM_TWO_STOCKS = (
    "stock_id,year,beta,risk_free,market_return_expectation\n"
    "000001,2009,1.1,0.03,0.08\n"
    "000001,2010,1.1,0.025,0.075\n"
    "000002,2009,0.9,0.03,0.08\n"
    "000002,2010,0.9,0.025,0.075\n"
)


def write_inputs(tmp_path, prices=PRICES_TWO_STOCKS, capm=CAPM_TWO_STOCKS):
    prices_path = tmp_path / "prices.csv"
    capm_path = tmp_path / "capm.csv"
    prices_path.write_text(prices)
    capm_path.write_text(capm)
    return str(prices_path), str(capm_path)


def test_ingest_two_stock_fixture(tmp_path):
    prices_path, capm_path = write_inputs(tmp_path)
    datasets = pipeline.ingest(prices_path, capm_path, pipeline.PipelineConfig())
    assert [d.stock_id for d in datasets] == ["000001", "000002"]
    first = datasets[0]
    assert first.years == (2009, 2010)
    assert first.period_paths[0].prices.tolist() == [100.0, 101.0, 102.5]
    assert first.period_paths[1].prices.tolist() == [103.0, 104.0]
    assert first.beta == 1.1
    assert first.risk_free == (0.03, 0.025)
    assert datasets[1].period_paths[1].prices.size == 3


def test_ingest_rejects_malformed_inputs(tmp_path):
    config = pipeline.PipelineConfig()
    prices_path, capm_path = write_inputs(tmp_path, prices="")
    with pytest.raises(ParseError, match="empty"):
        pipeline.ingest(prices_path, capm_path, config)

    prices_path, capm_path = write_inputs(tmp_path, prices="close,date\n")
    with pytest.raises(ParseError, match="header"):
        pipeline.ingest(prices_path, capm_path, config)

    bad_price = PRICES_TWO_STOCKS.replace("101.0", "0.0")
    prices_path, capm_path = write_inputs(tmp_path, prices=bad_price)
    with pytest.raises(ParseError, match="positive"):
        pipeline.ingest(prices_path, capm_path, config)

    lines = PRICES_TWO_STOCKS.splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    prices_path, capm_path = write_inputs(tmp_path, prices="\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="sorted"):
        pipeline.ingest(prices_path, capm_path, config)

    bad_date = PRICES_TWO_STOCKS.replace("2009-01-06", "01/06/2009", 1)
    prices_path, capm_path = write_inputs(tmp_path, prices=bad_date)
    with pytest.raises(ParseError, match="column 2"):
        pipeline.ingest(prices_path, capm_path, config)


def test_ingest_rejects_gap_years(tmp_path):
    gapped = PRICES_TWO_STOCKS.replace("000001,2010", "000001,2011")
    prices_path, capm_path = write_inputs(tmp_path, prices=gapped)
    with pytest.raises(ParseError, match="consecutive"):
        pipeline.ingest(prices_path, capm_path, pipeline.PipelineConfig())


def test_ingest_rejects_single_observation_period(tmp_path):
    shortened = PRICES_TWO_STOCKS.replace("000001,2010-01-06,104.0\n", "")
    prices_path, capm_path = write_inputs(tmp_path, prices=shortened)
    with pytest.raises(InsufficientDataError, match="2009|2010"):
        pipeline.ingest(prices_path, capm_path, pipeline.PipelineConfig())


def test_ingest_rejects_capm_problems(tmp_path):
    config = pipeline.PipelineConfig()
    missing = "\n".join(CAPM_TWO_STOCKS.splitlines()[:-1]) + "\n"
    prices_path, capm_path = write_inputs(tmp_path, capm=missing)
    with pytest.raises(ParseError, match="missing CAPM row"):
        pipeline.ingest(prices_path, capm_path, config)

    drifting_beta = CAPM_TWO_STOCKS.replace("000001,2010,1.1", "000001,2010,1.3")
    prices_path, capm_path = write_inputs(tmp_path, capm=drifting_beta)
    with pytest.raises(ParseError, match="beta must be constant"):
        pipeline.ingest(prices_path, capm_path, config)

    duplicated = CAPM_TWO_STOCKS + "000002,2010,0.9,0.025,0.075\n"
    prices_path, capm_path = write_inputs(tmp_path, capm=duplicated)
    with pytest.raises(ParseError, match="duplicate"):
        pipeline.ingest(prices_path, capm_path, config)


def reference_estimate(path):
    """(nu_hat, sigma2_hat, R) of one path, written out from its definition."""
    z = np.log(path.prices)
    returns = np.diff(z)
    return (
        float(z[-1] - z[0]) / (returns.size * path.step_h),
        float(np.var(returns, ddof=1)) / path.step_h,
        float(z[-1] - z[0]),
    )


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(3, 300), min_size=4, max_size=8),
    h_per_year=st.sampled_from([12, 52, 252]),
    seed=st.integers(0, 2**32 - 1),
)
def test_period_estimates_match_per_path_reference(sizes, h_per_year, seed):
    # Every period's estimates, and the holdout's nu_hat, must equal the
    # per-path reference bit for bit or within 1e-12 relative.
    rng = np.random.default_rng(seed)
    paths = tuple(
        gbm.PricePath(
            step_h=1.0 / h_per_year,
            prices=np.round(np.exp(rng.uniform(0.0, 6.0) + np.cumsum(rng.normal(0.0, 0.03, size))), 4),
        )
        for size in sizes
    )
    data = dataset_from_paths(paths, "S1", risk_free=(0.03,) * len(sizes), market=(0.08,) * len(sizes))
    sample, holdout = pipeline.split_holdout(data)
    records = pipeline.build_period_records(sample)
    for record, path in zip(records, sample.period_paths):
        nu_hat, sigma2_hat, total = reference_estimate(path)
        assert record.nu_hat == pytest.approx(nu_hat, rel=1e-12, abs=0.0)
        assert record.sigma2_hat == pytest.approx(sigma2_hat, rel=1e-12, abs=0.0)
        assert record.realized_return == pytest.approx(total, rel=1e-12, abs=0.0)
        single = gbm.estimate_unconditional(gbm.log_returns(path))
        assert single.nu_hat == pytest.approx(nu_hat, rel=1e-12, abs=0.0)
        assert single.sigma2_hat == pytest.approx(sigma2_hat, rel=1e-12, abs=0.0)
    report = pipeline.score_portfolio([data])[0][0]
    assert report.holdout_nu_hat == pytest.approx(reference_estimate(holdout)[0], rel=1e-12, abs=0.0)
