"""Independent references that only the tests use."""

from __future__ import annotations

import datetime
import math
import re
from itertools import groupby
from typing import NamedTuple

import numpy as np
from scipy import integrate

from driftbias import pipeline
from driftbias._csv import finite, invalid, read_rows
from driftbias.conditional import ConditionalQuery, Direction, conditional_nu
from driftbias.errors import DegenerateConditionError, InsufficientDataError, ParseError
from driftbias.pipeline import StockDataset
from driftbias.smoothing import SmoothingConfig


def conditional_nu_quadrature(q: ConditionalQuery) -> float:
    """Slow evaluation of the raw truncated-mean integral.

    Integrates exp(-(y - nu*T)**2 / (2*sigma**2*T)) over the conditioned
    range with adaptive quadrature and assembles the bracketed integral
    form of the conditional expectation. Kept purely as an independent
    cross-check of the Mills-ratio closed form; it is orders of magnitude
    slower and numerically worse.
    """
    prob = conditional_nu(q).tail_probability  # raises on a degenerate event
    mean = q.nu * q.T
    spread2 = q.sigma * q.sigma * q.T
    d = (q.C - mean) / math.sqrt(spread2)

    def gauss(y: float) -> float:
        return math.exp(-((y - mean) ** 2) / (2.0 * spread2))

    def integral(lo: float, hi: float) -> float:
        # split at the peak so quad never hides it inside a wide interval
        pieces = []
        if lo < mean < hi:
            pieces.append((lo, mean))
            pieces.append((mean, hi))
        else:
            pieces.append((lo, hi))
        total = 0.0
        for a, b in pieces:
            value, _ = integrate.quad(gauss, a, b, epsabs=1e-300, epsrel=1e-13, limit=300)
            total += value
        return total

    if q.direction is Direction.ABOVE:
        bracket = q.sigma * math.exp(-0.5 * d * d) + (q.nu / q.sigma) * integral(q.C, math.inf)
    else:
        bracket = -q.sigma * math.exp(-0.5 * d * d) + (q.nu / q.sigma) * integral(-math.inf, q.C)
    return bracket / (math.sqrt(2.0 * math.pi * q.T) * prob)


class MonteCarloEstimate(NamedTuple):
    mean: float
    std_error: float
    retained: int


def monte_carlo_conditional(q: ConditionalQuery, paths: int, seed: int) -> MonteCarloEstimate:
    """Brute-force oracle for conditional_nu.

    Draws R_T ~ N(nu*T, sigma**2*T) ``paths`` times, keeps the draws that
    satisfy the direction condition, and averages nu_hat = R_T / T over
    the kept draws.

    Args:
        q: Query to sample.
        paths: Number of draws, >= 1000.
        seed: Generator seed.

    Returns:
        (mean, std_error, retained); std_error is the sample standard
        deviation of the kept nu_hat values divided by sqrt(retained),
        or nan when only one draw survives.

    Raises:
        DegenerateConditionError: no draw satisfied the condition.
    """
    if paths < 1_000:
        raise ValueError(f"paths must be at least 1000, got {paths}")
    rng = np.random.default_rng(seed)
    totals = rng.normal(q.nu * q.T, q.sigma * math.sqrt(q.T), size=paths)
    if q.direction is Direction.ABOVE:
        kept = totals[totals > q.C]
    else:
        kept = totals[totals <= q.C]
    retained = int(kept.size)
    if retained == 0:
        raise DegenerateConditionError(
            f"no simulated return satisfied the condition in {paths} paths"
        )
    estimates = kept / q.T
    mean = float(estimates.mean())
    if retained < 2:
        std_error = float("nan")
    else:
        std_error = float(estimates.std(ddof=1) / math.sqrt(retained))
    return MonteCarloEstimate(mean=mean, std_error=std_error, retained=retained)


def substream(seed: int, path_index: int) -> np.random.Generator:
    """Independent generator for one path of a Monte Carlo batch.

    Streams are derived deterministically from (seed, path_index), so
    batches can run in parallel and still reproduce exactly.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(path_index,)))


def weight_expansion(config: SmoothingConfig, t: int) -> np.ndarray:
    """Weights of the expanded recurrence after t observations.

    Returns (alpha, (1-alpha)*alpha, ..., (1-alpha)^(t-1)*alpha,
    (1-alpha)^t); the dot product with (Y_t, Y_{t-1}, ..., Y_1, F_1)
    reproduces F_{t+1}. The weights always sum to 1.
    """
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    alpha = config.alpha
    decay = (1.0 - alpha) ** np.arange(t + 1)
    weights = alpha * decay
    weights[t] = decay[t]
    return weights


# The date shape the row loop takes: from Python 3.11 on date.fromisoformat
# also takes "20110103", "2011-W01-1" and more.
DATE_SHAPE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def read_price_rows(path: str) -> pipeline._Prices:
    """The prices file read row by row; the reference for ``pipeline._read_prices``."""
    closes: list[float] = []
    years: list[int] = []
    starts: list[int] = []
    stock_ids: list[str] = []
    firsts: list[int] = []
    previous_key: tuple[str, datetime.date] | None = None
    for lineno, cells in read_rows(path, pipeline.PRICES_HEADER):
        stock_id = cells[0].strip()
        if not stock_id:
            raise ParseError(f"{path}: line {lineno}, column 1: empty stock_id")
        date_text = cells[1].strip()
        try:
            if not DATE_SHAPE.fullmatch(date_text):
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
        if previous_key is None or stock_id != previous_key[0]:
            stock_ids.append(stock_id)
            firsts.append(len(years))
        if previous_key is None or stock_id != previous_key[0] or date.year != previous_key[1].year:
            years.append(date.year)
            starts.append(len(closes))
        previous_key = key
        closes.append(close)
    return pipeline._Prices(
        np.array(closes, dtype=float), np.array([*starts, len(closes)], dtype=np.intp),
        np.array(years, dtype=np.int64), stock_ids, np.array([*firsts, len(years)], dtype=np.intp),
    )


class _Segments(NamedTuple):
    """A prices file as the reference ingest reads it: one id per (stock, year) segment."""

    closes: np.ndarray
    stock_ids: list[str]
    years: list[int]
    offsets: list[int]


def reference_ingest(prices_path: str, capm_path: str, config: pipeline.PipelineConfig) -> list[StockDataset]:
    """``pipeline.ingest`` as one loop over the stocks, checking and building
    each stock's StockDataset in turn; the reference for the columnar checks.

    It reads the prices with the row loop and the CAPM file with the
    package's reader, then gives each prices segment its stock id and joins
    the CAPM rows through an (id, year) dict.
    """
    columns = read_price_rows(prices_path)
    counts = np.diff(columns.firsts).tolist()
    prices = _Segments(
        columns.closes,
        [stock_id for stock_id, count in zip(columns.stock_ids, counts) for _ in range(count)],
        columns.years.tolist(),
        columns.offsets.tolist(),
    )
    capm = pipeline._read_capm(capm_path)
    ids = [stock_id for stock_id, count in zip(capm.stock_ids, np.diff(capm.starts).tolist()) for _ in range(count)]
    rates = zip(capm.beta.tolist(), capm.risk_free.tolist(), capm.market_return_expectation.tolist())
    capm_rows = dict(zip(zip(ids, capm.years.tolist()), rates))
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
        rates = [capm_rows.get((stock_id, year)) for year in years]
        if None in rates:
            year = years[rates.index(None)]
            raise ParseError(f"{capm_path}: missing CAPM row for stock {stock_id}, year {year}")
        betas, risk_free, market = zip(*rates)
        if len(set(betas)) != 1:
            raise ParseError(f"{capm_path}: stock {stock_id}: beta must be constant across years")
        start = prices.offsets[first]
        datasets.append(
            StockDataset(
                stock_id=stock_id,
                years=tuple(years),
                closes=prices.closes[start : prices.offsets[end]],
                offsets=[offset - start for offset in prices.offsets[first : end + 1]],
                step_h=step_h,
                beta=betas[0],
                risk_free=risk_free,
                market_return_expectation=market,
            )
        )
        first = end
    return datasets
