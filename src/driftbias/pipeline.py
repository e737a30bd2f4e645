"""Per-stock forecasting workflow with performance-gated expectations.

Each stock's history is split into whole calendar years. For period i the
unconditional estimates (nu_hat_i, sigma2_hat_i) and the realized total log
return R_i are computed from daily prices, and a CAPM benchmark
C_i = r_f + beta * (E[r_M] - r_f) is formed. Return chasers only buy after
a period that beat its benchmark, so the expected return they carry into
period i+1 is

    nu_tilde_{i+1} = I{R_i > C_i} * E[nu_hat | R > C_i]

with the conditional expectation evaluated at period i's own estimates
(plug-in convention) and T = 1 year. The gap bias_i = nu_tilde_i - nu_hat_i
(zero when no investment was made) is the realized cognitive bias; the
simple adjustment subtracts the last period's bias from the next raw
forecast, and the ES adjustment subtracts an exponentially smoothed bias
forecast instead. All three forecasts are scored against the holdout
period's nu_hat by squared deviation.
"""

from __future__ import annotations

import datetime
import math
import re
from dataclasses import dataclass, replace
from itertools import chain, groupby
from typing import NamedTuple, Sequence

import numpy as np

from ._csv import finite, invalid, read_rows, read_table
from .conditional import Direction, _closed_form
from .errors import InsufficientDataError, ParseError
from .gbm import PricePath, _estimate_segments, estimate_unconditional, log_returns
from .smoothing import (
    DEFAULT_ALPHA, DEFAULT_FIT_GRID, SmoothingConfig, _finite_series, _fit_alphas, _forecasts, smooth
)

__all__ = [
    "PipelineConfig",
    "StockDataset",
    "PeriodRecord",
    "ForecastReport",
    "capm_benchmark",
    "build_period_records",
    "simple_adjust",
    "es_adjust",
    "next_raw_forecast",
    "score_records",
    "score_and_report",
    "split_holdout",
    "score_portfolio",
    "load_config",
    "parse_config",
    "ingest",
    "report_csv",
    "report_summary",
]

PRICES_HEADER = "stock_id,date,close"
CAPM_HEADER = "stock_id,year,beta,risk_free,market_return_expectation"
REPORT_HEADER = "stock_id,nu_hat,nu_tilde,sa,esa,sd_tilde,sd_sa,sd_esa"

_BENCHMARK_MODES = ("per_period", "constant")


@dataclass(frozen=True)
class PipelineConfig:
    """Run settings parsed from the key-value config file."""

    alpha: float = DEFAULT_ALPHA
    fit_alpha: bool = False
    h_per_year: int = 252
    benchmark_mode: str = "per_period"
    constant_c: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.h_per_year < 1:
            raise ValueError(f"h_per_year must be positive, got {self.h_per_year}")
        try:
            float(self.h_per_year)
        except OverflowError as exc:
            raise ValueError(f"h_per_year does not convert to a float: {exc}") from None
        if self.benchmark_mode not in _BENCHMARK_MODES:
            raise ValueError(
                f"benchmark_mode must be one of {_BENCHMARK_MODES}, got {self.benchmark_mode!r}"
            )
        if self.benchmark_mode == "constant" and self.constant_c is None:
            raise ValueError("benchmark_mode 'constant' requires constant_c")
        if self.benchmark_mode != "constant" and self.constant_c is not None:
            raise ValueError(f"constant_c requires benchmark_mode 'constant', got {self.benchmark_mode!r}")
        if self.constant_c is not None and not math.isfinite(self.constant_c):
            raise ValueError(f"constant_c must be finite, got {self.constant_c}")


@dataclass(frozen=True)
class StockDataset:
    """One stock's closes, cut into periods, and its CAPM inputs.

    Periods are consecutive calendar years. Period k holds
    ``closes[offsets[k]:offsets[k + 1]]``, at least two finite, positive
    prices a step of ``step_h`` years apart. ``beta`` is constant for the
    stock while the risk-free rate and market expectation vary by period.
    """

    stock_id: str
    years: tuple[int, ...]
    closes: np.ndarray
    offsets: np.ndarray
    step_h: float
    beta: float
    risk_free: tuple[float, ...]
    market_return_expectation: tuple[float, ...]

    def __post_init__(self) -> None:
        closes = np.array(self.closes, dtype=float)
        offsets = np.array(self.offsets, dtype=np.intp)
        closes.flags.writeable = offsets.flags.writeable = False
        object.__setattr__(self, "closes", closes)
        object.__setattr__(self, "offsets", offsets)
        count = len(self.years)
        if count == 0:
            raise ValueError(f"stock {self.stock_id}: no periods")
        rates = (len(self.risk_free), len(self.market_return_expectation))
        if not (offsets.shape == (count + 1,) and rates == (count, count)):
            raise ValueError(f"stock {self.stock_id}: per-period fields have mismatched lengths")
        for previous, current in zip(self.years, self.years[1:]):
            if current != previous + 1:
                raise ValueError(
                    f"stock {self.stock_id}: periods must be consecutive years, "
                    f"got {previous} then {current}"
                )
        if not self.step_h > 0:
            raise ValueError(f"step_h must be positive, got {self.step_h}")
        sizes = offsets[1:] - offsets[:-1]
        if closes.ndim != 1 or offsets[0] != 0 or offsets[-1] != closes.size or sizes.min() < 2:
            raise ValueError(f"stock {self.stock_id}: offsets must cut closes into periods of >= 2 prices")
        # A nan makes both tests fail.
        if not (closes.min() > 0 and closes.max() < math.inf):
            raise ValueError(f"stock {self.stock_id}: closes must be finite and strictly positive")

    @property
    def n_periods(self) -> int:
        return len(self.years)

    @property
    def period_paths(self) -> tuple[PricePath, ...]:
        """Each period as a PricePath that starts at t0 = its period index."""
        bounds = self.offsets.tolist()
        return tuple(
            PricePath(t0=float(k), step_h=self.step_h, prices=self.closes[start:stop])
            for k, (start, stop) in enumerate(zip(bounds, bounds[1:]))
        )


@dataclass(frozen=True)
class PeriodRecord:
    """One period's estimates, gate outcome, and realized bias.

    ``invested`` states whether money entered the stock for this period,
    which is decided by the previous period's return beating its
    benchmark; ``realized_return`` and ``benchmark_c`` are this period's
    own values and feed the next record's gate. ``nu_tilde`` is the
    gated conditional forecast made for this period, and ``degenerate``
    marks forecasts that could not be evaluated (the record then counts
    as not invested with nu_tilde = 0). ``bias`` is derived, so
    bias == nu_tilde - nu_hat holds exactly on invested records and is
    exactly zero otherwise.
    """

    period_index: int
    nu_hat: float
    sigma2_hat: float
    realized_return: float
    benchmark_c: float
    invested: bool
    nu_tilde: float
    degenerate: bool = False

    def __post_init__(self) -> None:
        if not self.invested and self.nu_tilde != 0.0:
            raise ValueError("a not-invested record must carry nu_tilde = 0")

    @property
    def bias(self) -> float:
        return self.nu_tilde - self.nu_hat if self.invested else 0.0


@dataclass(frozen=True)
class ForecastReport:
    """Holdout comparison of raw, simple-adjusted, and ES-adjusted forecasts."""

    stock_id: str
    holdout_nu_hat: float
    raw_conditional: float
    simple_adjusted: float
    es_adjusted: float
    sd_raw: float
    sd_simple: float
    sd_es: float


def capm_benchmark(risk_free: float, beta: float, market_return_expectation: float) -> float:
    """Equilibrium expected return C = r_f + beta * (E[r_M] - r_f)."""
    return risk_free + beta * (market_return_expectation - risk_free)


# Every function below that scores or threads gates works on columns: the
# periods of one or many stocks, stock after stock, one element each. The
# per-stock calls are the one-stock case of the same code.


class _Columns(NamedTuple):
    """The periods of some stocks as columns: the closes of every period in
    one array, and each period's number of closes, step and benchmark C."""

    closes: np.ndarray
    sizes: np.ndarray
    step_h: np.ndarray
    benchmark: np.ndarray


def _columns(stocks: Sequence[StockDataset], config: PipelineConfig) -> _Columns:
    """Every period of ``stocks`` as columns, stock after stock."""
    counts = [data.n_periods for data in stocks]
    sizes = np.diff(np.concatenate([data.offsets for data in stocks]))
    # Every period holds at least two closes; only the step from one stock's
    # last offset to the next stock's 0 is negative.
    sizes = sizes[sizes > 0]
    step_h = np.repeat([data.step_h for data in stocks], counts)
    if config.benchmark_mode == "constant":
        benchmark = np.full(sizes.size, float(config.constant_c))
    else:
        risk_free = np.fromiter(chain.from_iterable(data.risk_free for data in stocks), float, sizes.size)
        market = np.fromiter(
            chain.from_iterable(data.market_return_expectation for data in stocks), float, sizes.size
        )
        beta = np.repeat([data.beta for data in stocks], counts)
        with np.errstate(over="ignore", invalid="ignore"):  # huge rates give C = +-inf or nan
            benchmark = capm_benchmark(risk_free, beta, market)
    return _Columns(np.concatenate([data.closes for data in stocks]), sizes, step_h, benchmark)


def _gates(
    realized_return: np.ndarray, benchmark: np.ndarray, nu_hat: np.ndarray, sigma2_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next period's (invested, nu_tilde, degenerate) from each period's values.

    The gate opens when R beat C, and then the conditional formula is
    evaluated at the period's own estimates (T = 1 year, direction ABOVE).
    An open gate is degenerate, and the next period not invested, where
    ``ConditionalQuery`` would refuse the query or ``_closed_form`` marks
    it: sigma not finite and > 0, d not finite (as a nu or C that is not
    finite makes it), or d past the guard.
    """
    with np.errstate(invalid="ignore"):  # a negative sigma2_hat gives nan, which is refused
        sigma = np.sqrt(sigma2_hat)
    opened = ~(realized_return <= benchmark)
    valid = opened & np.isfinite(sigma) & (sigma > 0)
    # Only a d that is not finite overflows or makes nan here, and it is marked.
    with np.errstate(over="ignore", invalid="ignore"):
        expectation, _, d, past_guard = _closed_form(
            nu_hat[valid], sigma[valid], 1.0, benchmark[valid], Direction.ABOVE
        )
    degenerate = past_guard | ~np.isfinite(d)
    invested = valid.copy()
    invested[valid] = ~degenerate
    nu_tilde = np.zeros(invested.shape)
    nu_tilde[invested] = expectation[~degenerate]
    return invested, nu_tilde, opened & ~invested


def _thread_gates(
    realized_return: np.ndarray, benchmark: np.ndarray, nu_hat: np.ndarray, sigma2_hat: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each period's (invested, nu_tilde, degenerate), decided by the
    period before it in its stock, and each stock's next raw forecast.

    A stock's first period has no prior performance: not invested, nu_tilde = 0.
    """
    gate = _gates(realized_return, benchmark, nu_hat, sigma2_hat)
    ends = np.cumsum(counts)
    firsts = ends - counts
    invested, nu_tilde, degenerate = (np.concatenate((values[:1], values[:-1])) for values in gate)
    invested[firsts] = degenerate[firsts] = False
    nu_tilde[firsts] = 0.0
    return invested, nu_tilde, degenerate, gate[1][ends - 1]


_FIT_GRID = np.sort(np.array(DEFAULT_FIT_GRID))


def _reports(
    stock_ids: Sequence[str], bias: np.ndarray, counts: np.ndarray, raw_next: np.ndarray,
    holdout_nu_hat: np.ndarray, config: PipelineConfig,
) -> list[ForecastReport]:
    """Score each stock's next raw forecast against its holdout estimate.

    ``bias`` holds every stock's bias series, stock after stock, ``counts``
    their lengths (each >= 3). Stocks of equal length are smoothed, and
    their alphas fitted, together. The squared deviations are taken in
    Python floats, as ``v ** 2`` may differ from numpy's ``v * v``.

    Raises:
        ValueError: a stock's bias series is not finite, as from fit_alpha or smooth.
    """
    ends = np.cumsum(counts)
    firsts = ends - counts
    finite = np.logical_and.reduceat(np.isfinite(bias), firsts)
    smoothed = np.zeros(len(counts))
    for count in np.unique(counts).tolist():
        group = np.flatnonzero((counts == count) & finite)
        rows = bias[firsts[group, None] + np.arange(count)]
        alpha = _FIT_GRID[_fit_alphas(rows, _FIT_GRID)[0]] if config.fit_alpha else config.alpha
        smoothed[group] = _forecasts(rows.T, alpha, rows[:, 0])[-1]
    reports = []
    columns = (firsts, ends, finite, bias[ends - 1], raw_next, holdout_nu_hat, smoothed)
    for stock_id, first, end, ok, last_bias, raw, holdout, forecast in zip(
        stock_ids, *(column.tolist() for column in columns)
    ):
        if not ok:
            _finite_series(bias[first:end])
        simple, es = raw - last_bias, raw - forecast
        deviations = ((raw - holdout) ** 2, (simple - holdout) ** 2, (es - holdout) ** 2)
        reports.append(ForecastReport(stock_id, holdout, raw, simple, es, *deviations))
    return reports


def _score(
    stock_ids: Sequence[str], columns: _Columns, counts: np.ndarray, config: PipelineConfig
) -> list[ForecastReport]:
    """The reports of stocks of ``counts[s]`` periods each, the last one the
    holdout; ``score_and_report`` must accept every stock."""
    nu_hat, sigma2_hat, realized = _estimate_segments(columns.closes, columns.sizes, columns.step_h)
    holdout = np.cumsum(counts) - 1
    sample = np.ones(nu_hat.size, dtype=bool)
    sample[holdout] = False
    nu_hat_sample = nu_hat[sample]
    invested, nu_tilde, _, raw_next = _thread_gates(
        realized[sample], columns.benchmark[sample], nu_hat_sample, sigma2_hat[sample], counts - 1
    )
    bias = np.where(invested, nu_tilde - nu_hat_sample, 0.0)
    return _reports(stock_ids, bias, counts - 1, raw_next, nu_hat[holdout], config)


def build_period_records(
    data: StockDataset, config: PipelineConfig = PipelineConfig()
) -> list[PeriodRecord]:
    """Estimate every period and thread the investment gate through them.

    The first period has no prior performance, so it is recorded as not
    invested with nu_tilde = 0. Afterwards period i's return against its
    benchmark decides period i+1's gate, and period i's estimates are
    plugged into the conditional formula (T = 1 year, direction ABOVE).
    A period whose forecast cannot be evaluated (zero sample variance or
    a degenerate conditioning event) yields a degenerate-flagged,
    not-invested record.

    Raises:
        InsufficientDataError: fewer than two periods, or a period with
            fewer than two returns.
    """
    if data.n_periods < 2:
        raise InsufficientDataError(
            f"stock {data.stock_id}: need at least 2 periods, got {data.n_periods}"
        )
    columns = _columns([data], config)
    nu_hat, sigma2_hat, realized = _estimate_segments(columns.closes, columns.sizes, columns.step_h)
    gates = _thread_gates(realized, columns.benchmark, nu_hat, sigma2_hat, np.array([data.n_periods]))[:3]
    values = (nu_hat, sigma2_hat, realized, columns.benchmark, *gates)
    rows = zip(*(column.tolist() for column in values))
    return [PeriodRecord(index, *row) for index, row in enumerate(rows)]


def simple_adjust(records: Sequence[PeriodRecord]) -> list[float]:
    """Subtract each previous period's bias from the raw forecast.

    The first element has no previous period and stays raw.
    """
    if len(records) < 2:
        raise InsufficientDataError(f"simple adjustment needs >= 2 records, got {len(records)}")
    adjusted = [records[0].nu_tilde]
    for previous, current in zip(records, records[1:]):
        adjusted.append(current.nu_tilde - previous.bias)
    return adjusted


def es_adjust(
    records: Sequence[PeriodRecord], config: SmoothingConfig = SmoothingConfig()
) -> list[float]:
    """Subtract the exponentially smoothed bias forecast instead.

    The bias series (zeros for not-invested periods) is smoothed and each
    record's raw forecast is reduced by the smoothed one-step-ahead bias
    F_i. With alpha = 1 the smoothed forecast is the previous bias, so
    this reduces to ``simple_adjust`` exactly.
    """
    if len(records) < 3:
        raise InsufficientDataError(f"ES adjustment needs >= 3 records, got {len(records)}")
    smoothed = smooth([record.bias for record in records], config)
    return [
        record.nu_tilde - float(forecast)
        for record, forecast in zip(records, smoothed.forecasts)
    ]


def next_raw_forecast(records: Sequence[PeriodRecord]) -> tuple[float, bool]:
    """Gated conditional forecast for the period after the last record.

    Returns (nu_tilde, degenerate); a closed gate or a degenerate
    forecast yields (0.0, flag) per the not-invested convention.
    """
    last = records[-1]
    values = (last.realized_return, last.benchmark_c, last.nu_hat, last.sigma2_hat)
    _, nu_tilde, degenerate = _gates(*(np.array([value]) for value in values))
    return float(nu_tilde[0]), bool(degenerate[0])


def score_records(
    stock_id: str,
    records: Sequence[PeriodRecord],
    raw_next: float,
    holdout_nu_hat: float,
    config: PipelineConfig = PipelineConfig(),
) -> ForecastReport:
    """Score a given next-period raw forecast against the holdout estimate.

    Split out from ``score_and_report`` so simulation studies can inject
    their own raw forecast while reusing the adjustment arithmetic.
    """
    if len(records) < 3:
        raise InsufficientDataError(f"scoring needs >= 3 records, got {len(records)}")
    bias = np.array([record.bias for record in records])
    counts = np.array([len(records)])
    return _reports([stock_id], bias, counts, np.array([raw_next]), np.array([holdout_nu_hat]), config)[0]


def score_and_report(
    data: StockDataset, holdout: PricePath, config: PipelineConfig = PipelineConfig()
) -> ForecastReport:
    """Build records from the sample periods and score the holdout period."""
    records = build_period_records(data, config)
    raw_next, _ = next_raw_forecast(records)
    holdout_nu_hat = estimate_unconditional(log_returns(holdout)).nu_hat
    return score_records(data.stock_id, records, raw_next, holdout_nu_hat, config)


def split_holdout(data: StockDataset) -> tuple[StockDataset, PricePath]:
    """Split off the most recent period as the holdout."""
    if data.n_periods < 2:
        raise InsufficientDataError(
            f"stock {data.stock_id}: need at least 2 periods to hold one out"
        )
    cut = int(data.offsets[-2])
    sample = replace(
        data,
        years=data.years[:-1],
        closes=data.closes[:cut],
        offsets=data.offsets[:-1],
        risk_free=data.risk_free[:-1],
        market_return_expectation=data.market_return_expectation[:-1],
    )
    return sample, PricePath(t0=float(data.n_periods - 1), step_h=data.step_h, prices=data.closes[cut:])


def score_portfolio(
    datasets: Sequence[StockDataset], config: PipelineConfig = PipelineConfig()
) -> tuple[list[ForecastReport], tuple[float, float, float]]:
    """Score every stock (last period held out) and sum the deviations.

    All stocks are scored together, as columns. A stock that cannot be
    scored raises what ``score_and_report`` raises for it, after the
    stocks before it in id order were scored.

    Returns:
        The per-stock reports ordered by stock id plus the totals
        (sd_raw, sd_simple, sd_es).
    """
    stocks = sorted(datasets, key=lambda item: item.stock_id)
    reports: list[ForecastReport] = []
    if stocks:
        columns = _columns(stocks, config)
        counts = np.array([data.n_periods for data in stocks])
        firsts = np.cumsum(counts) - counts
        shortest = np.minimum.reduceat(columns.sizes, firsts) - 1
        # Exactly the stocks that score_and_report refuses are not scorable.
        scorable = (counts >= 4) & (shortest >= 2)
        valid = len(stocks) if scorable.all() else int(np.argmin(scorable))
        if valid:
            periods = int(firsts[valid - 1] + counts[valid - 1])
            cut = int(columns.sizes[:periods].sum())
            prefix = _Columns(columns.closes[:cut], *(column[:periods] for column in columns[1:]))
            reports = _score([data.stock_id for data in stocks[:valid]], prefix, counts[:valid], config)
        if valid < len(stocks):
            score_and_report(*split_holdout(stocks[valid]), config)
    # fsum is exact, so the totals do not depend on the interpreter's own float sum.
    totals = (
        math.fsum(report.sd_raw for report in reports),
        math.fsum(report.sd_simple for report in reports),
        math.fsum(report.sd_es for report in reports),
    )
    return reports, totals


# ---------------------------------------------------------------------------
# file ingestion


def parse_config(text: str) -> PipelineConfig:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"config line {lineno}: expected 'key = value', got '{line}'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in values:
            raise ParseError(f"config line {lineno}: duplicate key '{key}'")
        values[key] = value
    kwargs: dict[str, object] = {}
    try:
        if "alpha" in values:
            kwargs["alpha"] = float(values.pop("alpha"))
        if "fit_alpha" in values:
            kwargs["fit_alpha"] = _parse_bool(values.pop("fit_alpha"))
        if "h_per_year" in values:
            kwargs["h_per_year"] = int(values.pop("h_per_year"))
        if "benchmark_mode" in values:
            kwargs["benchmark_mode"] = values.pop("benchmark_mode")
        if "constant_c" in values:
            kwargs["constant_c"] = float(values.pop("constant_c"))
    except ValueError as exc:
        raise ParseError(f"config: {exc}") from None
    if values:
        unknown = ", ".join(sorted(values))
        raise ParseError(f"config: unknown keys: {unknown}")
    try:
        return PipelineConfig(**kwargs)
    except ValueError as exc:
        raise ParseError(f"config: {exc}") from None


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got '{value}'")


def load_config(path: str) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def ingest(prices_path: str, capm_path: str, config: PipelineConfig) -> list[StockDataset]:
    """Load and validate the per-stock datasets from the two CSV files.

    Prices must be sorted by (stock_id, date) with strictly positive
    closes; periods are the calendar years appearing in the date column.
    Every (stock, year) pair needs a CAPM row, and a stock's beta must be
    constant across its rows.

    Returns:
        Datasets sorted by stock id.

    Raises:
        ParseError: malformed rows, ordering violations, or missing CAPM
            entries.
        InsufficientDataError: a period with fewer than 2 observations.
    """
    prices = _read_prices(prices_path)
    capm_rows = _read_capm(capm_path)
    rates = list(map(capm_rows.get, zip(prices.stock_ids, prices.years)))
    step_h = 1.0 / config.h_per_year
    sizes = np.diff(prices.offsets).tolist()
    datasets = []
    first = 0
    # Rows are sorted by (stock_id, date), so each stock's segments are adjacent.
    for stock_id, segments in groupby(prices.stock_ids):
        end = first + len(list(segments))
        years = prices.years[first:end]
        for previous, current in zip(years, years[1:]):
            if current != previous + 1:
                raise ParseError(
                    f"{prices_path}: stock {stock_id} skips from {previous} to {current}; "
                    "periods must be consecutive calendar years"
                )
        for size, year in zip(sizes[first:end], years):
            if size < 2:
                raise InsufficientDataError(
                    f"stock {stock_id}, year {year}: a period needs >= 2 observations, got {size}"
                )
        beta, risk_free, market = _capm_for_stock(capm_path, rates[first:end], stock_id, years)
        start = prices.offsets[first]
        datasets.append(
            StockDataset(
                stock_id=stock_id,
                years=tuple(years),
                closes=prices.closes[start : prices.offsets[end]],
                offsets=[offset - start for offset in prices.offsets[first : end + 1]],
                step_h=step_h,
                beta=beta,
                risk_free=risk_free,
                market_return_expectation=market,
            )
        )
        first = end
    return datasets


class _Prices(NamedTuple):
    """A prices file as columns: every close in file order, cut into (stock, year) segments.

    Segment k is ``closes[offsets[k]:offsets[k + 1]]``, the closes of
    stock ``stock_ids[k]`` in calendar year ``years[k]``.
    """

    closes: np.ndarray
    stock_ids: list[str]
    years: list[int]
    offsets: list[int]


# A prices row as numpy's tokenizer stores it: the id and date cells as
# NUL-padded bytes, 16 each so that every field starts on an 8-byte word.
_PRICE_DTYPE = np.dtype([("stock_id", "S16"), ("date", "S16"), ("close", "f8")])
# Bytes 16-31 of a row hold the date cell; each must lie in [low, low + span]:
# ten characters "dddd-dd-dd", then NUL padding.
_DATE_LOW = np.frombuffer(b"0000-00-00" + bytes(6), np.uint8)
_DATE_SPAN = np.frombuffer(bytes([9, 9, 9, 9, 0, 9, 9, 0, 9, 9]) + bytes(6), np.uint8)
# The same shape for the row loop: from Python 3.11 on date.fromisoformat
# also takes "20110103", "2011-W01-1" and more.
_DATE_SHAPE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _read_prices(path: str) -> _Prices:
    """The prices file column-wise, or row by row when it is not plain.

    Both ways give the same columns, or the row loop's error.
    """
    table = read_table(path, PRICES_HEADER, _PRICE_DTYPE)
    prices = None if table is None else _price_columns(table)
    return _read_price_rows(path) if prices is None else prices


def _price_columns(table: np.ndarray) -> _Prices | None:
    """The columns of a parsed prices table, or None unless the row loop
    would accept every row as it stands."""
    closes = table["close"]
    if not ((closes > 0).all() and np.isfinite(closes).all()):
        return None
    # numpy's date parser also takes "2011", "+2011-01-01", "NaT" and more.
    row_bytes = table.view(np.uint8).reshape(table.size, _PRICE_DTYPE.itemsize)
    if ((row_bytes[:, 16:32] - _DATE_LOW) > _DATE_SPAN).any():
        return None
    try:
        days = table["date"].astype("datetime64[D]")
    except ValueError:  # a day that does not exist, such as 2011-02-30
        return None
    if days.min() < np.datetime64("0001-01-01"):
        return None
    # The id cell fills the first two 8-byte words of a row.
    row_words = table.view(np.uint64).reshape(table.size, _PRICE_DTYPE.itemsize // 8)
    same_stock = (row_words[1:, 0] == row_words[:-1, 0]) & (row_words[1:, 1] == row_words[:-1, 1])
    if not (~same_stock | (days[1:] > days[:-1])).all():
        return None
    # A new segment starts where the stock or the year's four digits (bytes 16-19) change.
    year_digits = table.view(np.uint32)[4 :: _PRICE_DTYPE.itemsize // 4]
    starts = np.flatnonzero(~same_stock | (year_digits[1:] != year_digits[:-1])) + 1
    starts = np.concatenate(([0], starts))
    stock_ids = [cell.decode() for cell in table["stock_id"][starts].tolist()]
    # The row loop strips each id; one as long as the field may have been cut.
    width = _PRICE_DTYPE["stock_id"].itemsize
    heads = [stock_id for stock_id, _ in groupby(stock_ids)]
    if not all(stock_id and stock_id == stock_id.strip() and len(stock_id) < width for stock_id in heads):
        return None
    if not all(previous < current for previous, current in zip(heads, heads[1:])):
        return None
    years = (days[starts].astype("datetime64[Y]").astype(np.int64) + 1970).tolist()
    return _Prices(closes.copy(), stock_ids, years, [*starts.tolist(), table.size])


def _read_price_rows(path: str) -> _Prices:
    """The prices file read row by row; the reference for the column-wise reader."""
    closes: list[float] = []
    stock_ids: list[str] = []
    years: list[int] = []
    starts: list[int] = []
    previous_key: tuple[str, datetime.date] | None = None
    for lineno, cells in read_rows(path, PRICES_HEADER):
        stock_id = cells[0].strip()
        if not stock_id:
            raise ParseError(f"{path}: line {lineno}, column 1: empty stock_id")
        date_text = cells[1].strip()
        try:
            if not _DATE_SHAPE.fullmatch(date_text):
                raise ValueError
            date = datetime.date.fromisoformat(date_text)
        except ValueError:
            raise invalid(path, lineno, cells, 1, "ISO date") from None
        close = finite(path, lineno, cells, 2, "price")
        if close <= 0:
            raise ParseError(f"{path}: line {lineno}: price must be strictly positive, got {close}")
        key = (stock_id, date)
        if previous_key is not None and key <= previous_key:
            raise ParseError(
                f"{path}: line {lineno}: rows must be strictly sorted by (stock_id, date)"
            )
        if previous_key is None or stock_id != previous_key[0] or date.year != previous_key[1].year:
            stock_ids.append(stock_id)
            years.append(date.year)
            starts.append(len(closes))
        previous_key = key
        closes.append(close)
    return _Prices(np.array(closes, dtype=float), stock_ids, years, [*starts, len(closes)])


# A CAPM row as numpy's tokenizer stores it: the id and year cells as
# NUL-padded bytes, then the three rates.
_CAPM_DTYPE = np.dtype([
    ("stock_id", "S16"), ("year", "S8"),
    ("beta", "f8"), ("risk_free", "f8"), ("market_return_expectation", "f8"),
])


def _read_capm(path: str) -> dict[tuple[str, int], tuple[float, float, float]]:
    """The CAPM file column-wise, or row by row when it is not plain.

    Both ways give the same rows, or the row loop's error.
    """
    table = read_table(path, CAPM_HEADER, _CAPM_DTYPE)
    rows = None if table is None else _capm_columns(table)
    return _read_capm_rows(path) if rows is None else rows


def _capm_columns(table: np.ndarray) -> dict[tuple[str, int], tuple[float, float, float]] | None:
    """The rows of a parsed CAPM table, or None unless the row loop would
    accept every row as it stands."""
    names = CAPM_HEADER.split(",")[2:]
    if not all(np.isfinite(table[name]).all() for name in names):
        return None
    # Bytes 16-23 of a row hold the year cell: one to seven ASCII digits,
    # then NUL padding. A cell as long as the field may have been cut.
    year_bytes = table.view(np.uint8).reshape(table.size, _CAPM_DTYPE.itemsize)[:, 16:24]
    if not (((year_bytes - ord("0") <= 9) | (year_bytes == 0)).all() and year_bytes[:, 0].all()):
        return None
    if year_bytes[:, -1].any():
        return None
    stock_ids = [cell.decode() for cell in table["stock_id"].tolist()]
    # The row loop strips each id; one as long as the field may have been cut.
    width = _CAPM_DTYPE["stock_id"].itemsize
    if not all(stock_id == stock_id.strip() and len(stock_id) < width for stock_id in set(stock_ids)):
        return None
    keys = zip(stock_ids, table["year"].astype(np.int64).tolist())
    rows = dict(zip(keys, zip(*(table[name].tolist() for name in names))))
    return rows if len(rows) == table.size else None  # a duplicate (id, year) goes to the row loop


def _read_capm_rows(path: str) -> dict[tuple[str, int], tuple[float, float, float]]:
    """The CAPM file read row by row; the reference for the column-wise reader."""
    names = CAPM_HEADER.split(",")
    rows: dict[tuple[str, int], tuple[float, float, float]] = {}
    for lineno, cells in read_rows(path, CAPM_HEADER):
        stock_id = cells[0].strip()
        try:
            year = int(cells[1])
        except ValueError:
            raise invalid(path, lineno, cells, 1, "year") from None
        values = tuple(finite(path, lineno, cells, k, names[k]) for k in (2, 3, 4))
        key = (stock_id, year)
        if key in rows:
            raise ParseError(f"{path}: line {lineno}: duplicate row for {stock_id}/{year}")
        rows[key] = values
    return rows


def _capm_for_stock(
    path: str,
    rates: list[tuple[float, float, float] | None],
    stock_id: str,
    years: Sequence[int],
) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """The stock's beta, risk-free rates and market expectations from the
    CAPM rows of its years, None where a year has none."""
    if None in rates:
        year = years[rates.index(None)]
        raise ParseError(f"{path}: missing CAPM row for stock {stock_id}, year {year}")
    betas, risk_free, market = zip(*rates)
    if len(set(betas)) != 1:
        raise ParseError(f"{path}: stock {stock_id}: beta must be constant across years")
    return betas[0], risk_free, market


# ---------------------------------------------------------------------------
# report rendering


def report_csv(reports: Sequence[ForecastReport], totals: tuple[float, float, float]) -> str:
    """Render per-stock rows plus the TOTAL row, 10 significant digits."""
    lines = [REPORT_HEADER]
    for report in reports:
        lines.append(
            f"{report.stock_id},{report.holdout_nu_hat:.10g},{report.raw_conditional:.10g},"
            f"{report.simple_adjusted:.10g},{report.es_adjusted:.10g},"
            f"{report.sd_raw:.10g},{report.sd_simple:.10g},{report.sd_es:.10g}"
        )
    lines.append(f"TOTAL,,,,,{totals[0]:.10g},{totals[1]:.10g},{totals[2]:.10g}")
    return "\n".join(lines) + "\n"


def report_summary(reports: Sequence[ForecastReport], totals: tuple[float, float, float]) -> str:
    """Short human-readable recap of the portfolio totals."""
    raw, simple, es = totals
    lines = [f"scored {len(reports)} stocks against their holdout periods"]
    lines.append(f"total squared deviation: raw {raw:.6g}, simple {simple:.6g}, smoothed {es:.6g}")
    if raw > 0:
        lines.append(f"smoothed adjustment changes the raw deviation by {100.0 * (es - raw) / raw:+.2f}%")
    return "\n".join(lines) + "\n"
