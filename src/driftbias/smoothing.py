"""Single exponential smoothing with the exact recurrence

    F_{t+1} = alpha * Y_t + (1 - alpha) * F_t,

equivalently a weighted average of all past observations with
exponentially decaying weights plus a residual weight on the initial
forecast F_1, which is the first observation. Only single smoothing is
provided; trend and seasonal variants are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_FIT_GRID",
    "SmoothingConfig",
    "smooth",
    "fit_alpha",
]

DEFAULT_ALPHA = 0.2
DEFAULT_FIT_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


@dataclass(frozen=True)
class SmoothingConfig:
    """Smoothing factor; F_1 is always seeded with the first observation."""

    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")


def smooth(observations: Sequence[float], config: SmoothingConfig = SmoothingConfig()) -> np.ndarray:
    """Apply the recurrence left to right from F_1 = Y_1.

    Args:
        observations: Series Y_1..Y_t, non-empty.
        config: Smoothing factor.

    Returns:
        The forecasts F_1..F_{t+1}, one more than the observations; the
        last is the one-step-ahead value F_{t+1}.

    Raises:
        InsufficientDataError: empty input.
        ValueError: a non-finite observation.
    """
    y = _finite_series(observations)
    if y.size == 0:
        raise InsufficientDataError("cannot smooth an empty series")
    return _forecasts(y, config.alpha, y[0])


def _forecasts(y: np.ndarray, alpha: float | np.ndarray, first: float | np.ndarray) -> np.ndarray:
    """F_1..F_{t+1} of the recurrence from F_1 = ``first``, for many series at once.

    Time runs along the first axis of ``y``; ``alpha`` and ``first``
    broadcast against the others, so each series, or each alpha of a
    grid, gets a column of its own.
    """
    keep = 1.0 - alpha
    forecasts = np.empty((y.shape[0] + 1, *np.broadcast(y[0], alpha, first).shape))
    forecasts[0] = first
    for k in range(y.shape[0]):
        forecasts[k + 1] = alpha * y[k] + keep * forecasts[k]
    return forecasts


def fit_alpha(
    observations: Sequence[float],
    grid: Sequence[float] = DEFAULT_FIT_GRID,
) -> tuple[float, float]:
    """Pick the grid alpha minimizing one-step-ahead squared error.

    The error is sum((Y_k - F_k)**2) over the whole series with F_1
    seeded by the first observation, so the first term is always zero.
    Ties break toward the smallest alpha.

    Args:
        observations: Series of at least 3 values.
        grid: Candidate alphas in [0, 1], non-empty.

    Returns:
        (alpha, sse) of the winner; an sse past the float range is inf.

    Raises:
        InsufficientDataError: fewer than 3 observations.
        ValueError: a non-finite observation, an empty grid, or a grid alpha
            outside [0, 1].
    """
    y = _finite_series(observations)
    if y.size < 3:
        raise InsufficientDataError(f"fitting alpha needs at least 3 observations, got {y.size}")
    alphas = np.array(grid, dtype=float)
    if alphas.size == 0:
        raise ValueError("alpha grid must be non-empty")
    outside = ~((alphas >= 0.0) & (alphas <= 1.0))  # nan included
    if outside.any():
        raise ValueError(f"alpha must lie in [0, 1], got {alphas[outside][0]}")
    alphas = np.sort(alphas)
    best, sse, exponent = (values[0] for values in _fit_alphas(y[None], alphas))
    try:
        return float(alphas[best]), math.ldexp(float(sse), 2 * int(exponent))
    except OverflowError:  # the sum of squares itself is past the float range
        return float(alphas[best]), math.inf


def _fit_alphas(y: np.ndarray, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``fit_alpha``'s sweep for each row of the 2-D ``y`` at once.

    Rows must be finite and at least 3 long; ``alphas`` sorted.

    Returns:
        Each row's index of its winning alpha, its SSE, and the power-of-two
        exponent e that the SSE is scaled down by (it is SSE / 4**e).
    """
    # The recurrence is linear in y, so scaling a row by a power of two, to a
    # largest value in [0.5, 1), scales its errors exactly and keeps the sums
    # of squares of a huge or a tiny row in range.
    exponent = np.frexp(np.abs(y).max(axis=1))[1]
    y = np.ldexp(y, -exponent[:, None])
    by_time = y.T[:, :, None]
    forecasts = _forecasts(by_time, alphas, by_time[0])[:-1].transpose(1, 2, 0)
    # Each row of errors is contiguous, so every vecdot sums a row alike.
    errors = np.subtract(y[:, None, :], forecasts, order="C")
    sse = np.vecdot(errors, errors)
    # argmin returns the first minimum: the smallest alpha among ties.
    return np.argmin(sse, axis=1), sse.min(axis=1), exponent


def _finite_series(observations: Sequence[float]) -> np.ndarray:
    y = np.asarray(observations, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError(f"observations must be finite, got {y[~np.isfinite(y)][0]}")
    return y
