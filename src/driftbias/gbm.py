"""Geometric Brownian motion: simulation and unconditional estimation.

The price process solves dA_t = mu * A_t dt + sigma * A_t dW_t, with the
strong solution A_t = A_0 * exp(nu * t + sigma * W_t) where
nu = mu - sigma**2 / 2 is the drift of the log price. Sampled on a uniform
grid of step h, log returns are i.i.d. N(nu * h, sigma**2 * h), which is
what both the simulator and the estimators below exploit.

Time is measured in years throughout; daily data uses h = 1/252.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csv import finite, invalid, read_rows
from .errors import InsufficientDataError, ParseError

__all__ = [
    "PricePath",
    "ReturnSeries",
    "EstimateResult",
    "simulate_gbm",
    "path_from_normals",
    "log_returns",
    "estimate_unconditional",
    "write_price_csv",
    "read_price_csv",
]

PRICE_CSV_HEADER = "date_index,price"


@dataclass(frozen=True)
class PricePath:
    """Uniformly sampled positive prices A_0, A_h, ..., A_{n*h}."""

    step_h: float
    prices: np.ndarray

    def __post_init__(self) -> None:
        prices = np.array(self.prices, dtype=float)
        prices.flags.writeable = False
        object.__setattr__(self, "prices", prices)
        _check_step(self.step_h)
        if prices.ndim != 1 or prices.size < 2:
            raise ValueError("a price path needs at least two prices")
        if not (prices > 0).all():
            raise ValueError("prices must be strictly positive")
        if not np.isfinite(prices).all():
            raise ValueError("prices must be finite")


@dataclass(frozen=True)
class ReturnSeries:
    """Per-step log returns r_1 ... r_n and their total R_T.

    ``total`` is the telescoped sum ln(A_{t_n}) - ln(A_{t_0}); it agrees
    with sum(returns) to machine precision and defaults to that sum when
    the series is built directly rather than from a path.
    """

    step_h: float
    returns: np.ndarray
    total: float | None = None

    def __post_init__(self) -> None:
        returns = np.array(self.returns, dtype=float)
        returns.flags.writeable = False
        object.__setattr__(self, "returns", returns)
        _check_step(self.step_h)
        if returns.ndim != 1 or returns.size < 1:
            raise ValueError("a return series needs at least one return")
        if not np.isfinite(returns).all():
            raise ValueError(f"returns must be finite, got {returns[~np.isfinite(returns)][0]}")
        if self.total is None:
            object.__setattr__(self, "total", float(returns.sum()))
        elif not math.isfinite(self.total):
            raise ValueError(f"total must be finite, got {self.total}")

    @property
    def n(self) -> int:
        return self.returns.size

    @property
    def duration(self) -> float:
        return self.n * self.step_h


@dataclass(frozen=True)
class EstimateResult:
    """Unconditional estimates of the log drift and variance rate."""

    nu_hat: float
    sigma2_hat: float
    n: int
    T: float

    def __post_init__(self) -> None:
        if self.sigma2_hat < 0:
            raise ValueError("sigma2_hat cannot be negative")


def simulate_gbm(mu: float, sigma: float, a0: float, T: float, n: int, seed: int) -> PricePath:
    """Simulate one GBM path with the exact log-normal update.

    Each step multiplies the previous price by exp(nu*h + sigma*sqrt(h)*xi)
    with xi i.i.d. standard normal, so there is no discretization bias.
    Randomness comes from numpy's seeded PCG64 generator (normal variates
    via its ziggurat method); the same seed reproduces the path bit for bit.

    Args:
        mu: Annualized drift, finite.
        sigma: Annualized volatility, finite and > 0.
        a0: Starting price, > 0.
        T: Horizon in years, > 0.
        n: Number of steps, >= 1; the path holds n + 1 prices.
        seed: Seed for the generator.

    Returns:
        The simulated PricePath.
    """
    _validate(mu, sigma, a0, T, n)
    rng = np.random.default_rng(seed)
    return path_from_normals(mu, sigma, a0, T, rng.standard_normal(n))


def path_from_normals(mu: float, sigma: float, a0: float, T: float, normals: np.ndarray) -> PricePath:
    """Deterministic core of the simulator; also the test hook.

    Feeding an all-zero ``normals`` array yields the noise-free path
    A_t = a0 * exp(nu * t).

    Raises:
        ValueError: a price overflows or underflows the float range.
    """
    normals = np.asarray(normals, dtype=float)
    n = normals.size
    _validate(mu, sigma, a0, T, n)
    h = T / n
    with np.errstate(over="ignore", invalid="ignore"):
        increments = (mu - 0.5 * sigma * sigma) * h + sigma * math.sqrt(h) * normals
        prices = np.concatenate(([a0], a0 * np.exp(np.cumsum(increments))))
    if not ((prices > 0).all() and np.isfinite(prices).all()):
        raise ValueError(
            f"the simulated prices leave the float range: mu = {mu}, T = {T}, a0 = {a0}"
        )
    return PricePath(step_h=h, prices=prices)


def log_returns(path: PricePath) -> ReturnSeries:
    """Log returns r_i = ln(A_{t_i}) - ln(A_{t_{i-1}}) of a path."""
    z = np.log(path.prices)
    return ReturnSeries(step_h=path.step_h, returns=np.diff(z), total=float(z[-1] - z[0]))


def estimate_unconditional(series: ReturnSeries) -> EstimateResult:
    """Estimate nu and sigma**2 from a return series.

    nu_hat is the total log return divided by the covered time T = n * h;
    sigma2_hat is the sample variance of the per-step returns with the
    n - 1 divisor, annualized by 1/h.

    Raises:
        InsufficientDataError: fewer than two returns (variance undefined).
    """
    _require_two_returns(series.n)
    steps = np.concatenate(([0.0], series.returns))
    nu_hat, sigma2_hat = _estimate(steps, _FIRST, np.array([steps.size]), series.total, series.step_h)
    return EstimateResult(
        nu_hat=float(nu_hat[0]), sigma2_hat=float(sigma2_hat[0]), n=series.n, T=series.duration
    )


def _estimate_segments(
    closes: np.ndarray, sizes: np.ndarray, step_h: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """nu_hat, sigma2_hat and R of consecutive price segments of ``closes``.

    Segment k holds ``sizes[k]`` prices and steps ``step_h`` (or
    ``step_h[k]``). The log prices become the returns, then their
    deviations and squares, in one buffer; the overlapping difference
    and the repeated means each take a temporary as large, so the peak
    is about twice the buffer. Each result equals the one-path
    ``estimate_unconditional(log_returns(path))``.

    Raises:
        InsufficientDataError: a segment with fewer than two returns.
    """
    _require_two_returns(int(sizes.min()) - 1)
    starts = np.cumsum(sizes) - sizes
    steps = np.log(closes)
    totals = steps[starts + sizes - 1] - steps[starts]
    np.subtract(steps[1:], steps[:-1], out=steps[1:])
    # Each segment's returns follow a 0.0 in the slot of the step from the
    # previous segment's last price.
    steps[starts] = 0.0
    nu_hat, sigma2_hat = _estimate(steps, starts, sizes, totals, step_h)
    return nu_hat, sigma2_hat, totals


# The segment starts of a single segment.
_FIRST = np.zeros(1, dtype=np.intp)


def _require_two_returns(n: int) -> None:
    if n < 2:
        raise InsufficientDataError(f"variance estimation needs n >= 2 returns, got {n}")


def _estimate(
    steps: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    totals: float | np.ndarray,
    step_h: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """nu_hat and sigma2_hat of consecutive segments of ``steps``, which it overwrites.

    Segment k starts at ``starts[k]`` and holds ``sizes[k]`` values: a 0.0,
    then its n = sizes[k] - 1 >= 2 returns. np.add.reduceat sums a segment
    as its first value plus the pairwise sum of the rest, and np.add.reduce
    sums an array as 0.0 plus the pairwise sum of all of it; the leading
    0.0 makes the two agree, so sigma2_hat keeps np.var's summation order
    and its bits.
    """
    n = sizes - 1
    mean = np.add.reduceat(steps, starts) / n
    steps -= np.repeat(mean, sizes)
    steps[starts] = 0.0
    np.multiply(steps, steps, out=steps)
    # A tiny step can take a quotient past the float range. The pipeline and
    # the estimate command report an inf estimate in words, so this is silent.
    with np.errstate(over="ignore"):
        sigma2_hat = np.add.reduceat(steps, starts) / (n - 1) / step_h
        return totals / (n * step_h), sigma2_hat


def write_price_csv(path: PricePath) -> str:
    """Serialize a path as CSV with header ``date_index,price``."""
    lines = [PRICE_CSV_HEADER]
    lines.extend(f"{i},{price!r}" for i, price in enumerate(path.prices.tolist()))
    return "\n".join(lines) + "\n"


def read_price_csv(path: str, step_h: float) -> PricePath:
    """Read a ``date_index,price`` CSV file into a PricePath.

    The CSV carries no time scale, so the step size is supplied by the
    caller.
    """
    prices: list[float] = []
    for lineno, cells in read_rows(path, PRICE_CSV_HEADER):
        try:
            index = int(cells[0])
        except ValueError:
            raise invalid(path, lineno, cells, 0, "date_index") from None
        if index != len(prices):
            raise ParseError(f"{path}: line {lineno}: date_index must count up from 0, got {index}")
        price = finite(path, lineno, cells, 1, "price")
        if price <= 0:
            raise ParseError(f"{path}: line {lineno}: price must be strictly positive, got {price}")
        prices.append(price)
    if len(prices) < 2:
        raise ParseError(f"{path}: a price CSV needs at least two rows")
    return PricePath(step_h=step_h, prices=np.asarray(prices))


def _check_step(step_h: float) -> None:
    if not step_h > 0:
        raise ValueError(f"step_h must be positive, got {step_h}")
    if step_h == math.inf:
        raise ValueError(f"step_h must be finite, got {step_h}")


def _validate(mu: float, sigma: float, a0: float, T: float, n: int) -> None:
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise ValueError(f"mu and sigma must be finite, got mu = {mu}, sigma = {sigma}")
    if not a0 > 0:
        raise ValueError(f"a0 must be positive, got {a0}")
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    if math.isinf(a0) or math.isinf(T):
        raise ValueError(f"a0 and T must be finite, got a0 = {a0}, T = {T}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
