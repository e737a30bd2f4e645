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
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .conditional import ConditionalQuery, Direction, conditional_nu
from .errors import DegenerateConditionError, InsufficientDataError, ParseError
from .gbm import PricePath, estimate_unconditional, log_returns
from .smoothing import DEFAULT_ALPHA, DEFAULT_FIT_GRID, SmoothingConfig, fit_alpha, smooth

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
        if self.benchmark_mode not in _BENCHMARK_MODES:
            raise ValueError(
                f"benchmark_mode must be one of {_BENCHMARK_MODES}, got {self.benchmark_mode!r}"
            )
        if self.benchmark_mode == "constant" and self.constant_c is None:
            raise ValueError("benchmark_mode 'constant' requires constant_c")
        if self.constant_c is not None and not math.isfinite(self.constant_c):
            raise ValueError(f"constant_c must be finite, got {self.constant_c}")


@dataclass(frozen=True)
class StockDataset:
    """One stock's per-period price paths and CAPM inputs.

    Periods are consecutive calendar years; ``beta`` is constant for the
    stock while the risk-free rate and market expectation vary by period.
    """

    stock_id: str
    years: tuple[int, ...]
    period_paths: tuple[PricePath, ...]
    beta: float
    risk_free: tuple[float, ...]
    market_return_expectation: tuple[float, ...]

    def __post_init__(self) -> None:
        count = len(self.years)
        if count == 0:
            raise ValueError(f"stock {self.stock_id}: no periods")
        if not (len(self.period_paths) == len(self.risk_free) == len(self.market_return_expectation) == count):
            raise ValueError(f"stock {self.stock_id}: per-period fields have mismatched lengths")
        for previous, current in zip(self.years, self.years[1:]):
            if current != previous + 1:
                raise ValueError(
                    f"stock {self.stock_id}: periods must be consecutive years, "
                    f"got {previous} then {current}"
                )

    @property
    def n_periods(self) -> int:
        return len(self.years)


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


def _period_benchmark(data: StockDataset, index: int, config: PipelineConfig) -> float:
    if config.benchmark_mode == "constant":
        return float(config.constant_c)
    return capm_benchmark(
        data.risk_free[index], data.beta, data.market_return_expectation[index]
    )


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
        InsufficientDataError: fewer than two periods.
    """
    if data.n_periods < 2:
        raise InsufficientDataError(
            f"stock {data.stock_id}: need at least 2 periods, got {data.n_periods}"
        )
    records: list[PeriodRecord] = []
    invested = False
    nu_tilde = 0.0
    degenerate = False
    for index, path in enumerate(data.period_paths):
        series = log_returns(path)
        estimate = estimate_unconditional(series)
        benchmark = _period_benchmark(data, index, config)
        records.append(
            PeriodRecord(
                period_index=index,
                nu_hat=estimate.nu_hat,
                sigma2_hat=estimate.sigma2_hat,
                realized_return=series.total,
                benchmark_c=benchmark,
                invested=invested,
                nu_tilde=nu_tilde,
                degenerate=degenerate,
            )
        )
        invested, nu_tilde, degenerate = _gate_forecast(
            series.total, benchmark, estimate.nu_hat, estimate.sigma2_hat
        )
    return records


def _gate_forecast(
    realized_return: float, benchmark: float, nu_hat: float, sigma2_hat: float
) -> tuple[bool, float, bool]:
    """Next period's (invested, nu_tilde, degenerate) from this period."""
    if realized_return <= benchmark:
        return False, 0.0, False
    try:
        query = ConditionalQuery(
            nu=nu_hat,
            sigma=math.sqrt(sigma2_hat),
            T=1.0,
            C=benchmark,
            direction=Direction.ABOVE,
        )
        forecast = conditional_nu(query).expectation
    except (ValueError, DegenerateConditionError):
        return False, 0.0, True
    return True, forecast, False


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
    _, nu_tilde, degenerate = _gate_forecast(
        last.realized_return, last.benchmark_c, last.nu_hat, last.sigma2_hat
    )
    return nu_tilde, degenerate


def _smoothing_for(records: Sequence[PeriodRecord], config: PipelineConfig) -> SmoothingConfig:
    if config.fit_alpha:
        alpha, _ = fit_alpha([record.bias for record in records], DEFAULT_FIT_GRID)
        return SmoothingConfig(alpha=alpha)
    return SmoothingConfig(alpha=config.alpha)


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
    simple_next = raw_next - records[-1].bias
    smoothing_config = _smoothing_for(records, config)
    smoothed = smooth([record.bias for record in records], smoothing_config)
    es_next = raw_next - float(smoothed.forecasts[-1])
    return ForecastReport(
        stock_id=stock_id,
        holdout_nu_hat=holdout_nu_hat,
        raw_conditional=raw_next,
        simple_adjusted=simple_next,
        es_adjusted=es_next,
        sd_raw=(raw_next - holdout_nu_hat) ** 2,
        sd_simple=(simple_next - holdout_nu_hat) ** 2,
        sd_es=(es_next - holdout_nu_hat) ** 2,
    )


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
    sample = replace(
        data,
        years=data.years[:-1],
        period_paths=data.period_paths[:-1],
        risk_free=data.risk_free[:-1],
        market_return_expectation=data.market_return_expectation[:-1],
    )
    return sample, data.period_paths[-1]


def score_portfolio(
    datasets: Sequence[StockDataset], config: PipelineConfig = PipelineConfig()
) -> tuple[list[ForecastReport], tuple[float, float, float]]:
    """Score every stock (last period held out) and sum the deviations.

    Returns the per-stock reports ordered by stock id plus the totals
    (sd_raw, sd_simple, sd_es).
    """
    reports = []
    for data in sorted(datasets, key=lambda item: item.stock_id):
        sample, holdout = split_holdout(data)
        reports.append(score_and_report(sample, holdout, config))
    totals = (
        sum(report.sd_raw for report in reports),
        sum(report.sd_simple for report in reports),
        sum(report.sd_es for report in reports),
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
    grouped = _read_prices(prices_path)
    capm_rows = _read_capm(capm_path)
    step_h = 1.0 / config.h_per_year
    datasets = []
    for stock_id, year_map in sorted(grouped.items()):
        years = sorted(year_map)
        for previous, current in zip(years, years[1:]):
            if current != previous + 1:
                raise ParseError(
                    f"{prices_path}: stock {stock_id} skips from {previous} to {current}; "
                    "periods must be consecutive calendar years"
                )
        paths = []
        for year in years:
            closes = year_map[year]
            if len(closes) < 2:
                raise InsufficientDataError(
                    f"stock {stock_id}, year {year}: a period needs >= 2 observations, "
                    f"got {len(closes)}"
                )
            paths.append(
                PricePath(t0=float(year - years[0]), step_h=step_h, prices=np.asarray(closes))
            )
        beta, risk_free, market = _capm_for_stock(capm_path, capm_rows, stock_id, years)
        datasets.append(
            StockDataset(
                stock_id=stock_id,
                years=tuple(years),
                period_paths=tuple(paths),
                beta=beta,
                risk_free=risk_free,
                market_return_expectation=market,
            )
        )
    return datasets


def _read_prices(path: str) -> dict[str, dict[int, list[float]]]:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise ParseError(f"{path}: empty price file")
    if lines[0].strip() != PRICES_HEADER:
        raise ParseError(f"{path}: line 1: expected header '{PRICES_HEADER}'")
    grouped: dict[str, dict[int, list[float]]] = {}
    previous_key: tuple[str, datetime.date] | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 3:
            raise ParseError(f"{path}: line {lineno}: expected 3 columns, got {len(cells)}")
        stock_id = cells[0].strip()
        if not stock_id:
            raise ParseError(f"{path}: line {lineno}, column 1: empty stock_id")
        try:
            date = datetime.date.fromisoformat(cells[1].strip())
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}, column 2: invalid ISO date '{cells[1].strip()}'"
            ) from None
        try:
            close = float(cells[2])
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}, column 3: invalid price '{cells[2].strip()}'"
            ) from None
        if not 0 < close < math.inf:
            requirement = "strictly positive" if close <= 0 else "finite"
            raise ParseError(f"{path}: line {lineno}: price must be {requirement}, got {close}")
        key = (stock_id, date)
        if previous_key is not None and key <= previous_key:
            raise ParseError(
                f"{path}: line {lineno}: rows must be strictly sorted by (stock_id, date)"
            )
        previous_key = key
        grouped.setdefault(stock_id, {}).setdefault(date.year, []).append(close)
    return grouped


def _read_capm(path: str) -> dict[tuple[str, int], tuple[float, float, float]]:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise ParseError(f"{path}: empty CAPM file")
    if lines[0].strip() != CAPM_HEADER:
        raise ParseError(f"{path}: line 1: expected header '{CAPM_HEADER}'")
    rows: dict[tuple[str, int], tuple[float, float, float]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 5:
            raise ParseError(f"{path}: line {lineno}: expected 5 columns, got {len(cells)}")
        stock_id = cells[0].strip()
        try:
            year = int(cells[1])
            beta = float(cells[2])
            risk_free = float(cells[3])
            market = float(cells[4])
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        key = (stock_id, year)
        if key in rows:
            raise ParseError(f"{path}: line {lineno}: duplicate row for {stock_id}/{year}")
        rows[key] = (beta, risk_free, market)
    return rows


def _capm_for_stock(
    path: str,
    rows: dict[tuple[str, int], tuple[float, float, float]],
    stock_id: str,
    years: Sequence[int],
) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    betas = []
    risk_free = []
    market = []
    for year in years:
        try:
            beta, rf, mkt = rows[(stock_id, year)]
        except KeyError:
            raise ParseError(f"{path}: missing CAPM row for stock {stock_id}, year {year}") from None
        betas.append(beta)
        risk_free.append(rf)
        market.append(mkt)
    if len(set(betas)) != 1:
        raise ParseError(f"{path}: stock {stock_id}: beta must be constant across years")
    return betas[0], tuple(risk_free), tuple(market)


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
