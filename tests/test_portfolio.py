"""Whole-portfolio scoring against a per-stock reference built from public scalar calls.

``score_portfolio`` must give, for every random portfolio, the reports
that the paper's recipe gives one stock, one period and one gate at a
time: ``estimate_unconditional(log_returns(path))`` for each period,
``conditional_nu`` for each open gate, ``fit_alpha`` and ``smooth`` for
the bias series. Every ``ForecastReport`` field is compared bit for bit,
and an invalid stock must raise the same exception, type and text, as
the reference raises first; a list that names a stock twice is refused
before any stock is scored. ``build_period_records`` and a one-stock
``score_portfolio`` are checked against the same reference per stock.

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
    for year, path in zip(data.years, data.period_paths):
        try:
            gbm.estimate_unconditional(gbm.log_returns(path))
        except InsufficientDataError as exc:  # a period with one return
            raise InsufficientDataError(f"stock {data.stock_id}, year {year}: {exc}") from None
    rows, (_, raw, _) = reference_records(sample, config)
    if len(rows) < 3:
        raise InsufficientDataError(f"stock {data.stock_id}: scoring needs >= 3 records, got {len(rows)}")
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
        ids = [data.stock_id for data in datasets]
        repeated = sorted(stock_id for stock_id in set(ids) if ids.count(stock_id) > 1)
        if repeated:
            raise ValueError(f"stock {repeated[0]}: listed more than once")
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
    # The period columns of the whole portfolio, cut at each stock's
    # boundary, are that stock's own records: its first period is not
    # invested, and every degenerate flag is kept. A period with one return
    # anywhere refuses the whole call, as it refuses its stock's records.
    stocks = pipeline._portfolio(datasets)
    columns = outcome(lambda: pipeline._periods(stocks, len(stocks), config))
    expected = [
        outcome(lambda: [bits(row) for row in reference_records(data, config)[0]])
        for data in datasets
        if data.n_periods >= 2
    ]
    faults = [reference for reference in expected if reference[0] != "ok"]
    if faults:
        assert columns == faults[0]
    else:
        cuts = stocks.firsts.tolist()
        periods = [
            ("ok", [bits(row) for row in zip(*(column[first:end].tolist() for column in columns[1]))])
            for first, end in zip(cuts, cuts[1:])
            if end - first >= 2
        ]
        assert periods == expected
    for data in datasets:
        if data.n_periods < 2:
            continue
        sample = pipeline.split_holdout(data)[0]

        def records():
            rows = pipeline.build_period_records(sample, config)
            fields = ("nu_hat", "sigma2_hat", "realized_return", "benchmark_c", "invested", "nu_tilde", "degenerate")
            return [bits(getattr(r, name) for name in fields) for r in rows]

        def reference_rows():
            return [bits(row) for row in reference_records(sample, config)[0]]

        assert outcome(records) == outcome(reference_rows)
        assert outcome(lambda: report_bits(pipeline.score_portfolio([data], config)[0][0])) == outcome(
            lambda: bits(reference_report(data, config))
        )


# score_records is the library's hook for an injected raw forecast. Given a
# stock's own raw forecast and holdout estimate, it must report what the
# pipeline reports.
@settings(max_examples=300, deadline=None)
@given(case=portfolios())
def test_score_records_matches_the_pipeline(case):
    datasets, config = case
    for data in datasets:
        try:
            report = pipeline.score_portfolio([data], config)[0][0]
        except (InsufficientDataError, ValueError):
            continue
        records = pipeline.build_period_records(pipeline.split_holdout(data)[0], config)
        hooked = pipeline.score_records(
            data.stock_id, [r.bias for r in records], report.raw_conditional, report.holdout_nu_hat, config
        )
        assert report_bits(hooked) == report_bits(report)


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


def flat_stock(stock_id, count):
    """A scorable stock: flat periods, so every estimate is 0 and every gate shut."""
    return make_stock(stock_id, [np.array([5.0, 5.0, 5.0])] * count, 1.0, 1.0, [0.0] * count, [0.0] * count)


def write_portfolio(directory, stocks):
    """The prices and CAPM files from which ``ingest`` reads ``stocks`` back."""
    prices, capm = [pipeline.PRICES_HEADER], [pipeline.CAPM_HEADER]
    for data in stocks:
        bounds = data.offsets.tolist()
        for k, year in enumerate(data.years):
            for day, close in enumerate(data.closes[bounds[k] : bounds[k + 1]].tolist(), start=1):
                prices.append(f"{data.stock_id},{year}-01-{day:02d},{close!r}")
            capm.append(f"{data.stock_id},{year},{data.beta!r},{data.risk_free[k]!r},"
                        f"{data.market_return_expectation[k]!r}")
    paths = directory / "prices.csv", directory / "capm.csv"
    for path, lines in zip(paths, (prices, capm)):
        path.write_text("\n".join(lines) + "\n")
    return paths


# A stock that cannot be scored raises the first of its faults in the order
# period count, sample size, a period with one return, record count. Each
# refused stock B has a second fault later in that order, and follows a
# scorable stock A. The last case's holdout nu_hat overflows at a step of
# 1e-306 years, which would fail in scoring.
@pytest.mark.parametrize(
    "periods, h_per_year, text",
    [
        ([[1.0, 1.1]], 12, "stock B: need at least 2 periods to hold one out"),
        ([[1.0, 1.1], [1.0, 1.2, 1.1]], 12, "stock B: need at least 2 periods, got 1"),
        ([[1.0, 1.1, 1.3], [1.0, 1.2, 1.1], [1.0, 1.2]], 12,
         "stock B, year 2003: variance estimation needs n >= 2 returns, got 1"),
        ([[1.0, 1.1, 1.3], [1.0, 1.2, 1.1], [1e-300, 1.0, 1e300]], 10**306,
         "stock B: scoring needs >= 3 records, got 2"),
    ],
    ids=["one_period", "two_periods", "one_return", "three_periods"],
)
@pytest.mark.parametrize("source", ["datasets", "ingest"])
def test_refusals_come_in_chain_order(tmp_path, periods, h_per_year, text, source):
    config = pipeline.PipelineConfig(h_per_year=h_per_year)
    count = len(periods)
    refused = make_stock("B", [np.array(closes) for closes in periods], 1.0 / h_per_year, 1.0, [0.0] * count,
                         [0.0] * count)
    stocks = [flat_stock("A", 4), refused]
    if source == "ingest":
        stocks = pipeline.ingest(*map(str, write_portfolio(tmp_path, stocks)), config)
    with pytest.raises(InsufficientDataError) as info:
        pipeline.score_portfolio(stocks, config)
    assert str(info.value) == text


def test_a_repeated_id_is_refused_before_scoring():
    # Stock 0, first in id order, would fail in scoring.
    stocks = [flat_stock("A", 4), too_short_stock("0"), flat_stock("A", 5)]
    with pytest.raises(ValueError, match="^stock A: listed more than once$"):
        pipeline.score_portfolio(stocks)
