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

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from itertools import chain, islice
from typing import NamedTuple, NoReturn

import numpy as np

from ._csv import finite, invalid, read_rows, read_table
from .conditional import Direction, _closed_form
from .errors import InsufficientDataError, ParseError
from .gbm import PricePath, _check_step, _estimate_segments
from .smoothing import DEFAULT_ALPHA, DEFAULT_FIT_GRID, _finite_series, _fit_alphas, _forecasts

__all__ = [
    "PipelineConfig",
    "StockDataset",
    "PeriodRecord",
    "ForecastReport",
    "capm_benchmark",
    "build_period_records",
    "score_records",
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
        _check_step(self.step_h)
        for name in ("beta", "risk_free", "market_return_expectation"):
            for value in np.atleast_1d(getattr(self, name)).tolist():
                if not math.isfinite(value):
                    raise ValueError(f"stock {self.stock_id}: {name} must be finite, got {value}")
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
        """Each period as a PricePath."""
        bounds = self.offsets.tolist()
        return tuple(PricePath(self.step_h, self.closes[start:stop]) for start, stop in zip(bounds, bounds[1:]))


@dataclass(frozen=True, eq=False)
class _Portfolio(Sequence[StockDataset]):
    """Stocks as columns, as ``ingest`` returns them: in id order.

    Period k holds ``closes[offsets[k]:offsets[k + 1]]``, of year
    ``years[k]``, and its ``risk_free[k]`` and ``market_return_expectation[k]``.
    Stock s, ``stock_ids[s]``, holds periods ``firsts[s]:firsts[s + 1]``, a
    step of ``step_h[s]`` years and one ``beta[s]``. As a sequence it reads
    as one StockDataset per stock, built on demand. It checks nothing: only
    ``ingest`` and ``_portfolio`` build one, from checked inputs.
    """

    closes: np.ndarray
    offsets: np.ndarray
    years: np.ndarray
    stock_ids: list[str]
    firsts: np.ndarray
    step_h: np.ndarray
    beta: np.ndarray
    risk_free: np.ndarray
    market_return_expectation: np.ndarray

    def __len__(self) -> int:
        return len(self.stock_ids)

    def __getitem__(self, index: int) -> StockDataset:
        s = range(len(self))[index]  # a list's negative indices and IndexError
        first, end = self.firsts[s : s + 2].tolist()
        offsets = self.offsets[first : end + 1]
        return StockDataset(
            stock_id=self.stock_ids[s],
            years=tuple(self.years[first:end].tolist()),
            closes=self.closes[offsets[0] : offsets[-1]],
            offsets=offsets - offsets[0],
            step_h=self.step_h.item(s),
            beta=self.beta.item(s),
            risk_free=tuple(self.risk_free[first:end].tolist()),
            market_return_expectation=tuple(self.market_return_expectation[first:end].tolist()),
        )


def _portfolio(stocks: Sequence[StockDataset]) -> _Portfolio:
    """``stocks``, in the order given, as one _Portfolio."""
    return _Portfolio(
        closes=np.concatenate([np.zeros(0), *(data.closes for data in stocks)]),
        offsets=np.cumsum([0, *chain.from_iterable(np.diff(data.offsets).tolist() for data in stocks)]),
        # As objects, years stay exact ints however large.
        years=np.array([*chain.from_iterable(data.years for data in stocks)], dtype=object),
        stock_ids=[data.stock_id for data in stocks],
        firsts=np.cumsum([0, *(data.n_periods for data in stocks)]),
        step_h=np.array([data.step_h for data in stocks], dtype=float),
        beta=np.array([data.beta for data in stocks], dtype=float),
        risk_free=np.fromiter(chain.from_iterable(data.risk_free for data in stocks), float),
        market_return_expectation=np.fromiter(
            chain.from_iterable(data.market_return_expectation for data in stocks), float
        ),
    )


@dataclass(frozen=True)
class PeriodRecord:
    """One period's estimates, gate outcome, and realized bias, from ``build_period_records``.

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


def _benchmark(
    beta: float | np.ndarray, risk_free: np.ndarray, market: np.ndarray, config: PipelineConfig
) -> np.ndarray:
    """Each period's benchmark C: ``constant_c``, or the CAPM rate of the period's inputs."""
    if config.benchmark_mode == "constant":
        return np.full(risk_free.size, float(config.constant_c))
    with np.errstate(over="ignore", invalid="ignore"):  # huge rates give C = +-inf or nan
        return capm_benchmark(risk_free, beta, market)


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
    # Only a sigma or d that is refused below divides by 0, overflows or makes nan here.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        expectation, d, past_guard = _closed_form(nu_hat, sigma, 1.0, benchmark, Direction.ABOVE)
    opened = ~(realized_return <= benchmark)
    invested = opened & np.isfinite(sigma) & (sigma > 0) & np.isfinite(d) & ~past_guard
    return invested, np.where(invested, expectation, 0.0), opened & ~invested


def _thread_gates(
    gates: tuple[np.ndarray, np.ndarray, np.ndarray], firsts: np.ndarray | int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each period's (invested, nu_tilde, degenerate): the gate of the period
    before it in its stock. Stocks start at ``firsts``.

    A stock's first period has no prior performance: not invested, nu_tilde = 0.
    """
    invested, nu_tilde, degenerate = (np.concatenate((values[:1], values[:-1])) for values in gates)
    invested[firsts] = degenerate[firsts] = False
    nu_tilde[firsts] = 0.0
    return invested, nu_tilde, degenerate


_FIT_GRID = np.sort(np.array(DEFAULT_FIT_GRID))


def _reports(
    stock_ids: Sequence[str], bias: np.ndarray, counts: np.ndarray, raw_next: np.ndarray,
    holdout_nu_hat: np.ndarray, config: PipelineConfig, cause: str = "",
) -> list[ForecastReport]:
    """Score each stock's next raw forecast against its holdout estimate.

    ``bias`` holds every stock's bias series, stock after stock, ``counts``
    their lengths (each >= 3). Stocks of equal length are smoothed, and
    their alphas fitted, together. The squared deviations are taken in
    Python floats, as ``v ** 2`` may differ from numpy's ``v * v``.

    Raises:
        ValueError: a stock's bias series is not finite, as from fit_alpha or
            smooth, or a squared deviation overflows or is not finite; the
            latter's text ends with ``cause``.
    """
    ends = np.cumsum(counts)
    firsts = ends - counts
    finite = np.logical_and.reduceat(np.isfinite(bias), firsts)
    smoothed = np.zeros(len(counts))
    for count in sorted(set(counts.tolist())):
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
        try:
            deviations = ((raw - holdout) ** 2, (simple - holdout) ** 2, (es - holdout) ** 2)
            fault = "" if all(map(math.isfinite, deviations)) else "the holdout estimate or a forecast is not finite"
        except OverflowError:
            fault = "a squared forecast deviation overflows"
        if fault:
            raise ValueError(f"stock {stock_id}: {fault}{cause}")
        reports.append(ForecastReport(stock_id, holdout, raw, simple, es, *deviations))
    return reports


def _score(stocks: _Portfolio, valid: int, config: PipelineConfig, cause: str) -> list[ForecastReport]:
    """The reports of the first ``valid`` stocks, each one's last period the
    holdout; ``_refuse`` must find no fault in any of them. A squared
    deviation that is not finite raises ValueError ending with ``cause``.

    The gates are threaded through the holdouts too, so each raw forecast
    is the nu_tilde of its stock's holdout.
    """
    firsts = stocks.firsts[: valid + 1]
    counts = np.diff(firsts)
    periods = int(firsts[-1])
    nu_hat, sigma2_hat, realized = _estimate_segments(
        stocks.closes[: stocks.offsets[periods]], np.diff(stocks.offsets[: periods + 1]),
        np.repeat(stocks.step_h[:valid], counts),
    )
    benchmark = _benchmark(
        np.repeat(stocks.beta[:valid], counts), stocks.risk_free[:periods],
        stocks.market_return_expectation[:periods], config,
    )
    invested, nu_tilde, _ = _thread_gates(_gates(realized, benchmark, nu_hat, sigma2_hat), firsts[:-1])
    holdout = firsts[1:] - 1
    bias = np.delete(np.where(invested, nu_tilde - nu_hat, 0.0), holdout)
    return _reports(stocks.stock_ids[:valid], bias, counts - 1, nu_tilde[holdout], nu_hat[holdout], config, cause)


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
    nu_hat, sigma2_hat, realized = _estimate_segments(data.closes, np.diff(data.offsets), float(data.step_h))
    risk_free, market = np.array([data.risk_free, data.market_return_expectation], dtype=float)
    benchmark = _benchmark(float(data.beta), risk_free, market, config)
    gates = _thread_gates(_gates(realized, benchmark, nu_hat, sigma2_hat), 0)
    rows = zip(*(column.tolist() for column in (nu_hat, sigma2_hat, realized, benchmark, *gates)))
    return [PeriodRecord(index, *row) for index, row in enumerate(rows)]


def score_records(
    stock_id: str,
    bias: Sequence[float],
    raw_next: float,
    holdout_nu_hat: float,
    config: PipelineConfig = PipelineConfig(),
) -> ForecastReport:
    """Score a given next-period raw forecast against the holdout estimate.

    ``bias`` is the stock's realized bias series, its records' ``bias``.
    Simulation studies inject their own series and raw forecast here.
    """
    bias = np.array(bias, dtype=float)
    if bias.size < 3:
        raise InsufficientDataError(f"scoring needs >= 3 records, got {bias.size}")
    counts = np.array([bias.size])
    return _reports([stock_id], bias, counts, np.array([raw_next]), np.array([holdout_nu_hat]), config)[0]


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
    return sample, PricePath(step_h=data.step_h, prices=data.closes[cut:])


def _refuse(stocks: _Portfolio, s: int) -> NoReturn:
    """Raise the first fault of stock ``s``, which cannot be scored, in ``score_portfolio``'s order."""
    stock_id, first, end = stocks.stock_ids[s], *stocks.firsts[s : s + 2].tolist()
    if end - first < 2:
        raise InsufficientDataError(f"stock {stock_id}: need at least 2 periods to hold one out")
    if end - first == 2:
        raise InsufficientDataError(f"stock {stock_id}: need at least 2 periods, got 1")
    one_return = np.diff(stocks.offsets[first : end + 1]) == 2
    if one_return.any():
        year = stocks.years[first + int(np.argmax(one_return))]
        raise InsufficientDataError(f"stock {stock_id}, year {year}: variance estimation needs n >= 2 returns, got 1")
    raise InsufficientDataError(f"stock {stock_id}: scoring needs >= 3 records, got 2")


def score_portfolio(
    datasets: Sequence[StockDataset], config: PipelineConfig = PipelineConfig()
) -> tuple[list[ForecastReport], tuple[float, float, float]]:
    """Score every stock (last period held out) and sum the deviations.

    All stocks are scored together, as columns. A stock that cannot be
    scored raises InsufficientDataError, after the stocks before it in id
    order were scored, for the first of its faults in this order: fewer
    than 2 periods, exactly 2, a period with one return, exactly 3. What
    ``ingest`` returns is scored as it stands, in id order; any other is
    sorted by id into one first, and raises ValueError, before any scoring,
    if two stocks share an id. Totals past the float range raise ValueError.

    Returns:
        The per-stock reports ordered by stock id plus the totals
        (sd_raw, sd_simple, sd_es).
    """
    if isinstance(datasets, _Portfolio):
        stocks = datasets
    else:
        stocks = _portfolio(sorted(datasets, key=lambda item: item.stock_id))
        for previous, stock_id in zip(stocks.stock_ids, stocks.stock_ids[1:]):
            if previous == stock_id:
                raise ValueError(f"stock {stock_id}: listed more than once")
    reports: list[ForecastReport] = []
    cause = f"; h_per_year = {float(config.h_per_year):g} is far from a sampling rate"
    if len(stocks):
        shortest = np.minimum.reduceat(np.diff(stocks.offsets), stocks.firsts[:-1]) - 1
        # Exactly the stocks in which _refuse finds a fault are not scorable.
        scorable = (np.diff(stocks.firsts) >= 4) & (shortest >= 2)
        valid = len(stocks) if scorable.all() else int(np.argmin(scorable))
        if valid:
            reports = _score(stocks, valid, config, cause)
        if valid < len(stocks):
            _refuse(stocks, valid)
    # fsum is exact, so the totals do not depend on the interpreter's own float sum.
    try:
        totals = (
            math.fsum(report.sd_raw for report in reports),
            math.fsum(report.sd_simple for report in reports),
            math.fsum(report.sd_es for report in reports),
        )
    except OverflowError:
        raise ValueError("the summed squared forecast deviations overflow" + cause) from None
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
    try:
        kwargs = {
            field.name: _CONVERTERS[field.type](values.pop(field.name))
            for field in fields(PipelineConfig)
            if field.name in values
        }
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


# Each PipelineConfig field's value from its config text, by the field's type.
_CONVERTERS = {"float": float, "float | None": float, "bool": _parse_bool, "int": int, "str": str}


def load_config(path: str) -> PipelineConfig:
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_config(handle.read())


def ingest(prices_path: str, capm_path: str, config: PipelineConfig) -> _Portfolio:
    """Load and validate the stocks of the two CSV files.

    Prices must be sorted by (stock_id, date) with strictly positive
    closes; periods are the calendar years appearing in the date column.
    Every (stock, year) pair needs a CAPM row, and a stock's beta must be
    constant across its rows.

    Returns:
        The stocks in id order, as columns that read as a sequence of
        StockDataset.

    Raises:
        ParseError: malformed rows, ordering violations, or missing CAPM
            entries.
        InsufficientDataError: a period with fewer than 2 observations.
    """
    prices = _read_prices(prices_path)
    capm = _read_capm(capm_path)
    firsts = prices.firsts[:-1]
    stock = np.repeat(np.arange(firsts.size), np.diff(prices.firsts))  # each period's stock
    years = prices.years
    gap = np.zeros(years.size, dtype=bool)
    gap[1:] = (stock[1:] == stock[:-1]) & (years[1:] != years[:-1] + 1)
    short = np.diff(prices.offsets) < 2
    row = _capm_rows(prices, stock, capm)
    missing = row < 0
    # Row -1 picks the nan each column gains here, so a missing row fails the beta check too.
    beta, risk_free, market = (
        np.append(column, math.nan)[row] for column in (capm.beta, capm.risk_free, capm.market_return_expectation)
    )
    # Betas compare with ==, so -0.0 and 0.0 are one beta.
    drifts = ~(np.minimum.reduceat(beta, firsts) == np.maximum.reduceat(beta, firsts))
    failed = np.logical_or.reduceat(gap | short | missing, firsts) | drifts
    if failed.any():
        # The first failing stock in file order raises its first fault in the order gap, size, CAPM row, beta.
        s = int(np.argmax(failed))
        stock_id, first, end = prices.stock_ids[s], *prices.firsts[s : s + 2].tolist()
        if gap[first:end].any():
            k = first + int(np.argmax(gap[first:end]))
            raise ParseError(
                f"{prices_path}: stock {stock_id} skips from {years[k - 1]} to {years[k]}; "
                "periods must be consecutive calendar years"
            )
        if short[first:end].any():
            k = first + int(np.argmax(short[first:end]))
            size = prices.offsets[k + 1] - prices.offsets[k]
            raise InsufficientDataError(
                f"stock {stock_id}, year {years[k]}: a period needs >= 2 observations, got {size}"
            )
        if missing[first:end].any():
            k = first + int(np.argmax(missing[first:end]))
            raise ParseError(f"{capm_path}: missing CAPM row for stock {stock_id}, year {years[k]}")
        raise ParseError(f"{capm_path}: stock {stock_id}: beta must be constant across years")
    return _Portfolio(*prices, np.full(firsts.size, 1.0 / config.h_per_year), beta[firsts], risk_free, market)


# Every date's year lies in 1..9999, so (stock, year) keys are stock * _YEARS + year.
_YEARS = 10_000


def _capm_rows(prices: _Prices, stock: np.ndarray, capm: _Capm) -> np.ndarray:
    """Each period's row in ``capm``, or -1 where it has none; ``stock``
    holds each period's stock."""
    codes = {stock_id: code for code, stock_id in enumerate(prices.stock_ids)}
    runs = np.fromiter((codes.get(stock_id, -1) for stock_id in capm.stock_ids), np.int64, len(capm.stock_ids))
    code = np.repeat(runs, np.diff(capm.starts))
    rows = np.flatnonzero((code >= 0) & (capm.years > 0) & (capm.years < _YEARS))
    keys = code[rows] * _YEARS + capm.years[rows]
    order = np.argsort(keys)
    # A last key above every period's, so that each search lands on a row.
    keys = np.append(keys[order], len(prices.stock_ids) * _YEARS)
    wanted = stock * _YEARS + prices.years
    at = np.searchsorted(keys, wanted)
    return np.where(keys[at] == wanted, np.append(rows[order], -1)[at], -1)


class _Prices(NamedTuple):
    """A prices file as columns: every close in file order, cut into (stock, year) segments.

    Segment k is ``closes[offsets[k]:offsets[k + 1]]``, closes of calendar
    year ``years[k]``. Stock s, ``stock_ids[s]``, holds segments
    ``firsts[s]:firsts[s + 1]``.
    """

    closes: np.ndarray
    offsets: np.ndarray
    years: np.ndarray
    stock_ids: list[str]
    firsts: np.ndarray


# A prices row as numpy's tokenizer stores it: the id and date cells as
# NUL-padded bytes, 16 each so that every field starts on an 8-byte word.
_PRICE_DTYPE = np.dtype([("stock_id", "S16"), ("date", "S16"), ("close", "f8")])
# A date cell as two big-endian words holds "dddd-dd-" and "dd" with six NULs
# of padding. XOR with these leaves each digit's value in its byte and zero in
# every other byte.
_DATE_ZEROS = (int.from_bytes(b"0000-00-", "big"), int.from_bytes(b"00" + bytes(6), "big"))
# A word x so XORed has the right shape exactly when no byte of x | (x + K) has
# its top bit set: K is 0x76 at a digit, which lets 0-9 through, and 0x7F at
# the other bytes, which lets only 0 through. No byte below 0x80 carries.
_DATE_ADDS = (0x767676767F76767F, 0x76767F7F7F7F7F7F)
_TOP_BITS = 0x8080808080808080
# Whether the low bytes M M (D1 << 4 | D2) of an XORed date key, read as
# key & 0xFFFFF, name a day of month M M, February 29 included. As hex digits
# those bytes are M 0 M D D; the days named are those of the leap year 2000.
_REAL_DAYS = np.zeros(1 << 20, dtype=bool)
_REAL_DAYS[[int(f"{day[5]}0{day[6]}{day[8:]}", 16)
            for day in np.arange("2000-01", "2001-01", dtype="M8[D]").astype(str)]] = True


def _read_prices(path: str) -> _Prices:
    """The prices file as columns, or the error of its first refused row.

    numpy's tokenizer reads a plain file whose ids are stripped and fit
    their field; ``read_rows`` reads any other file, and a plain one that
    fails a check, with its id and date cells stripped. ``_price_columns``
    checks either's tokens, and a refused row's message is built from that
    row as ``read_rows`` gives it. A width or header error of ``read_rows``
    is raised only when no row before it is refused.
    """
    table = read_table(path, PRICES_HEADER, _PRICE_DTYPE)
    if table is not None:
        # Big-endian words hold a row's bytes in text order on any host. The id
        # cell fills words 0 and 1, the date cell words 2 and 3.
        words = table.view(">u8").reshape(table.size, _PRICE_DTYPE.itemsize // 8)
        new_stock = np.concatenate(([True], (words[1:, 0] != words[:-1, 0]) | (words[1:, 1] != words[:-1, 1])))
        stock_ids = [cell.decode() for cell in table["stock_id"][new_stock].tolist()]
        # The checks take stripped ids, and one as long as its field may have been cut.
        if all(stock_id == stock_id.strip() and len(stock_id) < 16 for stock_id in stock_ids):
            prices = _price_columns(new_stock, stock_ids, words[:, 2:4], table["close"])
            if isinstance(prices, _Prices):
                return prices
    stock_ids, stock_rows, dates, closes, held = [], [], bytearray(), array("d"), None
    try:
        for _, cells in read_rows(path, PRICES_HEADER):
            stock_id, date = cells[0].strip(), cells[1].strip()
            if not stock_ids or stock_id != stock_ids[-1]:
                stock_ids.append(stock_id)
                stock_rows.append(len(closes))
            # Any other cell is no date, and sixteen NULs fail the date check.
            dates += (date.encode() if len(date) == 10 and date.isascii() else b"").ljust(16, b"\0")
            try:
                closes.append(float(cells[2]))  # the raw cell, as finite() reads it: float() strips no \x1f
            except ValueError:
                closes.append(math.nan)
    except ParseError as error:  # a header or width error waits for the rows before it
        held = error
    new_stock = np.zeros(len(closes), dtype=bool)
    new_stock[stock_rows] = True
    prices = _price_columns(new_stock, stock_ids, np.frombuffer(dates, ">u8").reshape(-1, 2), closes)
    if isinstance(prices, _Prices):
        if held is not None:
            raise held
        return prices
    row, rule = prices
    lineno, cells = next(islice(read_rows(path, PRICES_HEADER), row, None))
    if rule == "id":
        raise ParseError(f"{path}: line {lineno}, column 1: empty stock_id")
    if rule == "date":
        raise invalid(path, lineno, cells, 1, "ISO date")
    if rule == "close":
        close = finite(path, lineno, cells, 2, "price")
        raise ParseError(f"{path}: line {lineno}: price must be strictly positive, got {close}")
    raise ParseError(f"{path}: line {lineno}: rows must be strictly sorted by (stock_id, date)")


def _price_columns(
    new_stock: np.ndarray, stock_ids: list[str], dates: np.ndarray, closes: np.ndarray | array
) -> _Prices | tuple[int, str]:
    """The columns of a tokenised prices file, or its first refused row
    together with the first rule that row breaks, the rules tested in the
    order "id" (empty), "date", "close" (finite and positive) and "order".

    A row starts a stock where ``new_stock`` is set, and ``stock_ids`` are the
    ids of those rows. ``dates`` holds each row's date cell as two big-endian
    words, and ``closes`` its close, nan where the cell is no float.
    """
    key, day = dates[:, 0] ^ _DATE_ZEROS[0], dates[:, 1] ^ _DATE_ZEROS[1]
    buffer = np.empty_like(key)
    bad_date = np.zeros(key.size, dtype=bool)
    for word, add in zip((key, day), _DATE_ADDS):
        np.bitwise_or(np.add(word, add, out=buffer), word, out=buffer)
        bad_date |= np.bitwise_and(buffer, _TOP_BITS, out=buffer) != 0
    # The key Y Y Y Y 0 M M (D1 << 4 | D2) orders the dates as the text does.
    np.right_shift(day, 52, out=buffer)
    np.bitwise_and(np.bitwise_or(np.right_shift(day, 48, out=day), buffer, out=day), 0xFF, out=day)
    np.bitwise_or(key, day, out=key)
    del day  # each full-length temporary goes once spent: they set the reader's peak
    bad_date |= ~_REAL_DAYS[np.bitwise_and(key, 0xFFFFF, out=buffer)]
    leap_days = np.flatnonzero(buffer == 0x229)  # February 29
    years = _years(key[leap_days])
    bad_date[leap_days[(years % 4 != 0) | ((years % 100 == 0) & (years % 400 != 0))]] = True
    # A new segment starts where the stock or the year's four digits change.
    np.right_shift(key, 32, out=buffer)
    starts = np.flatnonzero(new_stock | np.concatenate(([True], buffer[1:] != buffer[:-1])))
    del buffer
    years = _years(key[starts]).astype(np.int64)
    bad_date[starts[years == 0]] = True  # year 0000 first shows at a segment's start
    closes = np.array(closes, dtype=float)
    stock_rows = np.flatnonzero(new_stock)
    rules = {"id": np.zeros(closes.size, dtype=bool), "date": bad_date}
    rules["id"][stock_rows] = [not stock_id for stock_id in stock_ids]
    rules["close"] = ~((closes > 0) & (closes < np.inf))  # a nan fails both
    # Dates rise within a stock, and ids from one stock to the next.
    rules["order"] = np.zeros(closes.size, dtype=bool)
    rules["order"][1:] = key[1:] <= key[:-1]
    rules["order"][stock_rows[1:]] = [previous > current for previous, current in zip(stock_ids, stock_ids[1:])]
    refused = rules["id"] | rules["date"] | rules["close"] | rules["order"]
    if refused.any():
        row = int(np.argmax(refused))
        return row, next(rule for rule, broken in rules.items() if broken[row])
    firsts = np.flatnonzero(new_stock[starts])
    return _Prices(closes, np.append(starts, closes.size), years, stock_ids, np.append(firsts, starts.size))


def _years(keys: np.ndarray) -> np.ndarray:
    """The numbers whose decimal digits are the four high bytes of XORed date keys."""
    return (keys >> 56 & 0xF) * 1000 + (keys >> 48 & 0xF) * 100 + (keys >> 40 & 0xF) * 10 + (keys >> 32 & 0xF)


# A CAPM row as numpy's tokenizer stores it: the id cell as NUL-padded bytes, then
# the year, which numpy's integer parser reads as int() does, and the three rates.
_CAPM_DTYPE = np.dtype([
    ("stock_id", "S16"), ("year", "i8"),
    ("beta", "f8"), ("risk_free", "f8"), ("market_return_expectation", "f8"),
])


class _Capm(NamedTuple):
    """A CAPM file as columns, rows in file order: rows ``starts[k]:starts[k + 1]``
    are rows of stock ``stock_ids[k]``."""

    stock_ids: list[str]
    starts: np.ndarray
    years: np.ndarray
    beta: np.ndarray
    risk_free: np.ndarray
    market_return_expectation: np.ndarray


def _read_capm(path: str) -> _Capm:
    """The CAPM file column-wise, or row by row when it is not plain.

    Both ways give the same rows, or the row loop's error.
    """
    table = read_table(path, CAPM_HEADER, _CAPM_DTYPE)
    capm = None if table is None else _capm_columns(table)
    return _read_capm_rows(path) if capm is None else capm


def _capm_columns(table: np.ndarray) -> _Capm | None:
    """The columns of a parsed CAPM table, or None unless the row loop would
    accept every row as it stands."""
    names = CAPM_HEADER.split(",")[2:]
    if not all(np.isfinite(table[name]).all() for name in names):
        return None
    cells = table["stock_id"]
    starts = np.flatnonzero(np.concatenate(([True], cells[1:] != cells[:-1])))
    stock_ids = [cell.decode() for cell in cells[starts].tolist()]
    # The row loop strips each id; one as long as the field may have been cut.
    width = _CAPM_DTYPE["stock_id"].itemsize
    if not all(stock_id == stock_id.strip() and len(stock_id) < width for stock_id in set(stock_ids)):
        return None
    # A duplicate (id, year) goes to the row loop, which names its line.
    codes: dict[str, int] = {}
    starts = np.append(starts, table.size)
    code = np.repeat([codes.setdefault(stock_id, len(codes)) for stock_id in stock_ids], np.diff(starts))
    order = np.lexsort((table["year"], code))
    code, year = code[order], table["year"][order]
    if ((code[1:] == code[:-1]) & (year[1:] == year[:-1])).any():
        return None
    return _Capm(stock_ids, starts, table["year"], *(table[name] for name in names))


def _read_capm_rows(path: str) -> _Capm:
    """The CAPM file read row by row, each row a run of its own; the
    reference for the column-wise reader.

    A row whose year an int64 cannot hold is checked, then left out: no
    date has such a year, and the column-wise reader refuses the file.
    """
    names = CAPM_HEADER.split(",")
    stock_ids: list[str] = []
    years: list[int] = []
    rates: list[tuple[float, float, float]] = []
    seen: set[tuple[str, int]] = set()
    for lineno, cells in read_rows(path, CAPM_HEADER):
        stock_id = cells[0].strip()
        try:
            year = int(cells[1])
        except ValueError:
            raise invalid(path, lineno, cells, 1, "year") from None
        values = tuple(finite(path, lineno, cells, k, names[k]) for k in (2, 3, 4))
        if (stock_id, year) in seen:
            raise ParseError(f"{path}: line {lineno}: duplicate row for {stock_id}/{year}")
        seen.add((stock_id, year))
        if -(2**63) <= year < 2**63:
            stock_ids.append(stock_id)
            years.append(year)
            rates.append(values)
    columns = np.array(rates, dtype=float).reshape(len(rates), 3).T
    return _Capm(stock_ids, np.arange(len(years) + 1), np.array(years, dtype=np.int64), *columns)


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
        lines.append(f"smoothed adjustment changes the raw deviation by {(es - raw) / raw * 100.0:+.2f}%")
    return "\n".join(lines) + "\n"
