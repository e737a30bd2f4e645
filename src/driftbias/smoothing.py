"""Single exponential smoothing with the exact recurrence

    F_{t+1} = alpha * Y_t + (1 - alpha) * F_t,

equivalently a weighted average of all past observations with
exponentially decaying weights plus a residual weight on the initial
forecast F_1. Only single smoothing is provided; trend and seasonal
variants are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_FIT_GRID",
    "SmoothingConfig",
    "SmoothedSeries",
    "smooth",
    "weight_expansion",
    "fit_alpha",
]

DEFAULT_ALPHA = 0.2
DEFAULT_FIT_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


@dataclass(frozen=True)
class SmoothingConfig:
    """Smoothing factor and initial-forecast policy.

    ``init_value`` of None seeds F_1 with the first observation (the
    standard convention); a float seeds F_1 with that value.
    """

    alpha: float = DEFAULT_ALPHA
    init_value: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class SmoothedSeries:
    """Observations Y_1..Y_t plus forecasts F_1..F_{t+1} (one longer)."""

    observations: np.ndarray
    forecasts: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        observations = np.array(self.observations, dtype=float)
        forecasts = np.array(self.forecasts, dtype=float)
        observations.flags.writeable = False
        forecasts.flags.writeable = False
        object.__setattr__(self, "observations", observations)
        object.__setattr__(self, "forecasts", forecasts)
        if forecasts.size != observations.size + 1:
            raise ValueError("forecasts must have exactly one more element than observations")


def smooth(observations: Sequence[float], config: SmoothingConfig = SmoothingConfig()) -> SmoothedSeries:
    """Apply the recurrence left to right.

    Args:
        observations: Series Y_1..Y_t, non-empty.
        config: Smoothing factor and F_1 policy.

    Returns:
        SmoothedSeries whose last forecast is the one-step-ahead value
        F_{t+1}.

    Raises:
        InsufficientDataError: empty input.
    """
    y = np.asarray(observations, dtype=float)
    if y.size == 0:
        raise InsufficientDataError("cannot smooth an empty series")
    alpha = config.alpha
    forecasts = np.empty(y.size + 1)
    forecasts[0] = y[0] if config.init_value is None else config.init_value
    for k in range(y.size):
        forecasts[k + 1] = alpha * y[k] + (1.0 - alpha) * forecasts[k]
    return SmoothedSeries(observations=y, forecasts=forecasts, alpha=alpha)


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
        (alpha, sse) of the winner.
    """
    y = np.asarray(observations, dtype=float)
    if y.size < 3:
        raise InsufficientDataError(f"fitting alpha needs at least 3 observations, got {y.size}")
    alphas = np.sort(np.array(grid, dtype=float))
    if alphas.size == 0:
        raise ValueError("alpha grid must be non-empty")
    # smooth()'s recurrence for every candidate at once, one row each.
    keep = 1.0 - alphas
    forecasts = np.empty((alphas.size, y.size))
    forecasts[:, 0] = y[0]
    for k in range(1, y.size):
        forecasts[:, k] = alphas * y[k - 1] + keep * forecasts[:, k - 1]
    errors = y - forecasts
    # argmin returns the first minimum: the smallest alpha among ties.
    sse = np.vecdot(errors, errors)
    best = int(np.argmin(sse))
    return float(alphas[best]), float(sse[best])
