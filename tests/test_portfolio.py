"""Whole-portfolio scoring against a per-stock reference built from public scalar calls.

``score_portfolio`` must give, for every random portfolio, the reports
that the paper's recipe gives one stock, one period and one gate at a
time: ``estimate_unconditional(log_returns(path))`` for each period,
``conditional_nu`` for each open gate, ``fit_alpha`` and ``smooth`` for
the bias series. Every ``ForecastReport`` field is compared bit for bit,
and an invalid stock must raise the same exception, type and text, as
the reference raises first. ``build_period_records`` and
``score_and_report`` are checked against the same reference per stock.

Portfolios mix fixed and fitted alpha, both benchmark modes, 4-15
periods per stock, flat (zero-variance) periods, gates whose threshold
lies more than 37 standard deviations above the plug-in drift, CAPM
rates so large that C overflows to +-inf or nan, and, less often, stocks
with too few periods and periods with a single return.
"""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from driftbias import conditional, gbm, pipeline
from driftbias.errors import DegenerateConditionError, InsufficientDataError
from driftbias.smoothing import DEFAULT_FIT_GRID, SmoothingConfig, fit_alpha, smooth

STEPS = [1.0, 1.0 / 12, 1.0 / 252]
HUGE = [1e308, -1e308, 1.7e308, -1.7e308]


def make_stock(stock_id, periods, step_h, beta, risk_free, market):
    """A StockDataset from the closes of each of its periods."""
    return pipeline.StockDataset(
        stock_id=stock_id,
        years=tuple(range(2001, 2001 + len(periods))),
        closes=np.concatenate(periods),
        offsets=np.cumsum([0, *map(len, periods)]),
        step_h=step_h,
        beta=beta,
        risk_free=tuple(risk_free),
        market_return_expectation=tuple(market),
    )


@st.composite
def portfolios(draw):
    """(datasets, config) with random prices and CAPM inputs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        config = pipeline.PipelineConfig(
            benchmark_mode="constant", constant_c=draw(st.floats(-0.5, 1.0)), fit_alpha=draw(st.booleans())
        )
    else:
        config = pipeline.PipelineConfig(
            alpha=draw(st.sampled_from([0.0, 0.2, 0.55, 1.0])), fit_alpha=draw(st.booleans())
        )
    ids = draw(st.lists(st.sampled_from(["A", "B", "C", "D", "E", "F", "G", "H"]), min_size=1, max_size=6))
    datasets = []
    for stock_id in ids:
        flaw = draw(st.integers(0, 19))  # 0: too few periods, 1: a period with one return
        count = draw(st.integers(1, 3) if flaw == 0 else st.integers(4, 15))
        one_return = draw(st.integers(0, count - 1)) if flaw == 1 else -1
        step_h = draw(st.sampled_from(STEPS))
        drift = rng.uniform(-0.5, 1.0)
        volatility = draw(st.sampled_from([1e-4, 0.01, 0.1, 0.4]))
        periods, totals = [], []
        for k in range(count):
            size = 2 if k == one_return else int(rng.integers(3, 13))
            if draw(st.integers(0, 6)) == 0:
                closes = np.full(size, round(rng.uniform(1.0, 200.0), 2))  # flat: zero variance
            else:
                steps = rng.normal(drift * step_h, volatility * math.sqrt(step_h), size - 1)
                closes = np.exp(rng.uniform(0.0, 5.0) + np.concatenate(([0.0], np.cumsum(steps))))
            periods.append(closes)
            totals.append(float(np.log(closes[-1]) - np.log(closes[0])))
        beta = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
        risk_free = rng.normal(0.03, 0.02, count).tolist()
        if draw(st.booleans()):
            # C just under the period's own return: the gate opens, often far in the tail.
            beta = 1.0
            market = [total - abs(total) * rng.uniform(0.0, 0.2) for total in totals]
        else:
            market = rng.normal(0.08, 0.2, count).tolist()
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(0, count - 1))
            risk_free[k], market[k] = draw(st.sampled_from(HUGE)), draw(st.sampled_from(HUGE))
        datasets.append(make_stock(stock_id, periods, step_h, beta, risk_free, market))
    return datasets, config


def reference_gate(estimate, total, benchmark):
    """(invested, nu_tilde, degenerate) of the period after one with these values."""
    if total <= benchmark:
        return False, 0.0, False
    try:
        query = conditional.ConditionalQuery(
            nu=estimate.nu_hat,
            sigma=math.sqrt(estimate.sigma2_hat),
            T=1.0,
            C=benchmark,
            direction=conditional.Direction.ABOVE,
        )
        return True, conditional.conditional_nu(query).expectation, False
    except (ValueError, DegenerateConditionError):
        return False, 0.0, True


def reference_records(data, config):
    """Each period's (nu_hat, sigma2_hat, R, C, invested, nu_tilde, degenerate) and the next gate."""
    if data.n_periods < 2:
        raise InsufficientDataError(f"stock {data.stock_id}: need at least 2 periods, got {data.n_periods}")
    rows = []
    gate = (False, 0.0, False)
    for index, path in enumerate(data.period_paths):
        series = gbm.log_returns(path)
        estimate = gbm.estimate_unconditional(series)
        if config.benchmark_mode == "constant":
            benchmark = config.constant_c
        else:
            benchmark = pipeline.capm_benchmark(
                data.risk_free[index], data.beta, data.market_return_expectation[index]
            )
        rows.append((estimate.nu_hat, estimate.sigma2_hat, series.total, benchmark, *gate))
        gate = reference_gate(estimate, series.total, benchmark)
    return rows, gate


def reference_report(data, config):
    """The stock's report, last period held out, from scalar calls only."""
    if data.n_periods < 2:
        raise InsufficientDataError(f"stock {data.stock_id}: need at least 2 periods to hold one out")
    sample, holdout = pipeline.split_holdout(data)
    if sample.n_periods < 2:
        raise InsufficientDataError(f"stock {data.stock_id}: need at least 2 periods, got {sample.n_periods}")
    for path in data.period_paths:
        gbm.estimate_unconditional(gbm.log_returns(path))  # raises for a period with one return
    rows, (_, raw, _) = reference_records(sample, config)
    if len(rows) < 3:
        raise InsufficientDataError(f"scoring needs >= 3 records, got {len(rows)}")
    holdout_nu_hat = gbm.estimate_unconditional(gbm.log_returns(holdout)).nu_hat
    bias = [nu_tilde - nu_hat if invested else 0.0 for nu_hat, _, _, _, invested, nu_tilde, _ in rows]
    alpha = fit_alpha(bias, DEFAULT_FIT_GRID)[0] if config.fit_alpha else config.alpha
    smoothed = float(smooth(bias, SmoothingConfig(alpha=alpha))[-1])
    simple, es = raw - bias[-1], raw - smoothed
    return (
        data.stock_id, holdout_nu_hat, raw, simple, es,
        (raw - holdout_nu_hat) ** 2, (simple - holdout_nu_hat) ** 2, (es - holdout_nu_hat) ** 2,
    )


def bits(values):
    """Values compared exactly: repr tells every float apart, -0.0 and nan included."""
    return tuple(map(repr, values))


def report_bits(report):
    return bits((
        report.stock_id, report.holdout_nu_hat, report.raw_conditional, report.simple_adjusted,
        report.es_adjusted, report.sd_raw, report.sd_simple, report.sd_es,
    ))


def outcome(call):
    try:
        return "ok", call()
    except (InsufficientDataError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(case=portfolios())
def test_score_portfolio_matches_per_stock_reference(case):
    datasets, config = case

    def reference():
        return [bits(reference_report(data, config)) for data in sorted(datasets, key=lambda d: d.stock_id)]

    def batched():
        reports, totals = pipeline.score_portfolio(datasets, config)
        for k, column in enumerate(("sd_raw", "sd_simple", "sd_es")):
            assert totals[k] == math.fsum(getattr(report, column) for report in reports)
        return [report_bits(report) for report in reports]

    assert outcome(batched) == outcome(reference)


@settings(max_examples=100, deadline=None)
@given(case=portfolios())
def test_one_stock_calls_match_per_stock_reference(case):
    datasets, config = case
    for data in datasets:
        if data.n_periods < 2:
            continue
        sample, holdout = pipeline.split_holdout(data)

        def records():
            rows = pipeline.build_period_records(sample, config)
            fields = ("nu_hat", "sigma2_hat", "realized_return", "benchmark_c", "invested", "nu_tilde", "degenerate")
            return [bits(getattr(r, name) for name in fields) for r in rows]

        def reference_rows():
            return [bits(row) for row in reference_records(sample, config)[0]]

        assert outcome(records) == outcome(reference_rows)
        assert outcome(lambda: report_bits(pipeline.score_and_report(sample, holdout, config))) == outcome(
            lambda: bits(reference_report(data, config))
        )


def overflowing_stock(stock_id):
    """A stock whose bias series is not finite: at a step of 1e-306 years a
    modest return gives a finite, invested nu_hat, and a huge one gives inf."""
    closes = [np.array([1.0, 1.5, 2.0])] * 3 + [np.array([1.0, 1e150, 1e300]), np.array([1.0, 1.5, 2.0])]
    return make_stock(stock_id, closes, 1e-306, 1.0, [0.0] * 5, [0.0] * 5)


def infinite_variance_stock(stock_id):
    """A stock whose second period's sigma2_hat overflows to inf; every nu_hat is 0 and every gate open."""
    closes = [np.array([1.0, 1.5, 1.0]), np.array([1.0, 1e150, 1.0])] + [np.array([1.0, 1.5, 1.0])] * 3
    return make_stock(stock_id, closes, 1e-306, 1.0, [-1.0] * 5, [-1.0] * 5)


def one_return_stock(stock_id):
    closes = [np.array([1.0, 1.1, 1.3])] * 3 + [np.array([1.0, 1.2])]
    return make_stock(stock_id, closes, 1.0 / 12, 1.0, [0.0] * 4, [0.0] * 4)


def too_short_stock(stock_id):
    return make_stock(stock_id, [np.array([1.0, 1.1, 1.3])] * 3, 1.0, 1.0, [0.0] * 3, [0.0] * 3)


# Estimates that overflow: a bias series that is not finite fails in
# scoring, a period with one return before it, so whichever stock comes
# first in id order must raise; a sigma that is not finite closes its gate
# as degenerate. The overflow itself warns on neither side, and a
# RuntimeWarning fails the test.
@pytest.mark.parametrize(
    "stocks, error",
    [
        ([overflowing_stock("A"), one_return_stock("B"), too_short_stock("C")], ValueError),
        ([one_return_stock("A"), overflowing_stock("B"), too_short_stock("C")], InsufficientDataError),
        ([infinite_variance_stock("A"), too_short_stock("B")], InsufficientDataError),
    ],
    ids=["bias_first", "one_return_first", "infinite_sigma"],
)
@pytest.mark.parametrize("fit", [False, True])
def test_overflowing_estimates_match_reference(stocks, error, fit):
    config = pipeline.PipelineConfig(fit_alpha=fit)
    reference = outcome(lambda: [bits(reference_report(data, config)) for data in stocks])
    batched = outcome(lambda: [report_bits(report) for report in pipeline.score_portfolio(stocks, config)[0]])
    records = pipeline.build_period_records(pipeline.split_holdout(stocks[0])[0], config)
    assert batched == reference
    assert reference[0] is error
    if len(stocks) == 2:
        assert [(record.invested, record.degenerate) for record in records[1:3]] == [(True, False), (False, True)]
