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

from .errors import InsufficientDataError

__all__ = [
    "GbmParams",
    "PricePath",
    "ReturnSeries",
    "EstimateResult",
    "simulate_gbm",
    "path_from_normals",
    "substream",
    "log_returns",
    "estimate_unconditional",
    "write_price_csv",
    "read_price_csv",
]

PRICE_CSV_HEADER = "date_index,price"


@dataclass(frozen=True)
class GbmParams:
    """Annualized drift and volatility of the price process.

    ``mu`` is stored; the log-price drift ``nu`` is always derived from it,
    so the two cannot drift apart.
    """

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def nu(self) -> float:
        """Drift of the log price, mu - sigma**2 / 2."""
        return self.mu - 0.5 * self.sigma * self.sigma

    @classmethod
    def from_nu(cls, nu: float, sigma: float) -> "GbmParams":
        """Build parameters from the log-price drift instead of mu."""
        return cls(mu=nu + 0.5 * sigma * sigma, sigma=sigma)


@dataclass(frozen=True)
class PricePath:
    """Uniformly sampled positive prices A_{t0}, A_{t0+h}, ..., A_{t0+n*h}."""

    t0: float
    step_h: float
    prices: np.ndarray

    def __post_init__(self) -> None:
        prices = np.array(self.prices, dtype=float)
        prices.flags.writeable = False
        object.__setattr__(self, "prices", prices)
        if not self.step_h > 0:
            raise ValueError(f"step_h must be positive, got {self.step_h}")
        if prices.ndim != 1 or prices.size < 2:
            raise ValueError("a price path needs at least two prices")
        if not np.all(prices > 0):
            raise ValueError("prices must be strictly positive")

    @property
    def n_steps(self) -> int:
        return self.prices.size - 1

    @property
    def duration(self) -> float:
        """Total covered time n * h in years."""
        return self.n_steps * self.step_h


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
        if not self.step_h > 0:
            raise ValueError(f"step_h must be positive, got {self.step_h}")
        if returns.ndim != 1 or returns.size < 1:
            raise ValueError("a return series needs at least one return")
        if self.total is None:
            object.__setattr__(self, "total", float(returns.sum()))

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


def simulate_gbm(params: GbmParams, a0: float, T: float, n: int, seed: int) -> PricePath:
    """Simulate one GBM path with the exact log-normal update.

    Each step multiplies the previous price by exp(nu*h + sigma*sqrt(h)*xi)
    with xi i.i.d. standard normal, so there is no discretization bias.
    Randomness comes from numpy's seeded PCG64 generator (normal variates
    via its ziggurat method); the same seed reproduces the path bit for bit.

    Args:
        params: Drift and volatility of the process.
        a0: Starting price, > 0.
        T: Horizon in years, > 0.
        n: Number of steps, >= 1; the path holds n + 1 prices.
        seed: Seed for the generator.

    Returns:
        The simulated PricePath starting at t0 = 0.
    """
    _validate_grid(a0, T, n)
    rng = np.random.default_rng(seed)
    return path_from_normals(params, a0, T, rng.standard_normal(n))


def path_from_normals(params: GbmParams, a0: float, T: float, normals: np.ndarray) -> PricePath:
    """Deterministic core of the simulator; also the test hook.

    Feeding an all-zero ``normals`` array yields the noise-free path
    A_t = a0 * exp(nu * t).
    """
    normals = np.asarray(normals, dtype=float)
    n = normals.size
    _validate_grid(a0, T, n)
    h = T / n
    increments = params.nu * h + params.sigma * math.sqrt(h) * normals
    prices = np.concatenate(([a0], a0 * np.exp(np.cumsum(increments))))
    return PricePath(t0=0.0, step_h=h, prices=prices)


def substream(seed: int, path_index: int) -> np.random.Generator:
    """Independent generator for one path of a Monte Carlo batch.

    Streams are derived deterministically from (seed, path_index), so
    batches can run in parallel and still reproduce exactly.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(path_index,)))


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
    n = series.n
    if n < 2:
        raise InsufficientDataError(f"variance estimation needs n >= 2 returns, got {n}")
    T = series.duration
    nu_hat = series.total / T
    sigma2_hat = float(np.var(series.returns, ddof=1)) / series.step_h
    return EstimateResult(nu_hat=nu_hat, sigma2_hat=sigma2_hat, n=n, T=T)


def write_price_csv(path: PricePath) -> str:
    """Serialize a path as CSV with header ``date_index,price``."""
    lines = [PRICE_CSV_HEADER]
    lines.extend(f"{i},{price!r}" for i, price in enumerate(path.prices.tolist()))
    return "\n".join(lines) + "\n"


def read_price_csv(text: str, step_h: float, t0: float = 0.0) -> PricePath:
    """Parse the ``date_index,price`` CSV format back into a PricePath.

    The CSV carries no time scale, so the step size is supplied by the
    caller.
    """
    from .errors import ParseError

    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty price CSV")
    if lines[0].strip() != PRICE_CSV_HEADER:
        raise ParseError(f"line 1: expected header '{PRICE_CSV_HEADER}', got '{lines[0].strip()}'")
    prices = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 2:
            raise ParseError(f"line {lineno}: expected two columns, got {len(cells)}")
        try:
            index = int(cells[0])
            price = float(cells[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if index != lineno - 2:
            raise ParseError(f"line {lineno}: date_index must count up from 0, got {index}")
        prices.append(price)
    if len(prices) < 2:
        raise ParseError("a price CSV needs at least two rows")
    if min(prices) <= 0:
        bad = next(i for i, p in enumerate(prices) if p <= 0)
        raise ParseError(f"line {bad + 2}: prices must be strictly positive, got {prices[bad]}")
    return PricePath(t0=t0, step_h=step_h, prices=np.asarray(prices))


def _validate_grid(a0: float, T: float, n: int) -> None:
    if not a0 > 0:
        raise ValueError(f"a0 must be positive, got {a0}")
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
