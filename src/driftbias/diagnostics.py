"""Pre-modeling time-series checks: ACF, PACF, and the Ljung-Box Q-test.

The autocorrelation estimator is the biased pooled-denominator form

    rho_k = sum_{t=k+1..n} (y_t - ybar)(y_{t-k} - ybar) / sum (y_t - ybar)**2,

the standard input convention for the Ljung-Box statistic

    Q = n (n + 2) sum_{k=1..h} rho_k**2 / (n - k),

which is chi-square with h degrees of freedom under the white-noise null
(no fitted-parameter correction; the series is tested before any model is
fit). PACF values come from the Durbin-Levinson recursion on the ACF.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._special import chi2_sf
from .errors import DegenerateVarianceError
from .smoothing import _finite_series

__all__ = ["AcfResult", "LjungBoxResult", "acf_pacf", "ljung_box"]

# below this length the chi-square approximation of Q is unreliable
SMALL_SAMPLE_WARNING_N = 30


@dataclass(frozen=True)
class AcfResult:
    """ACF and PACF at lags 1..max_lag (lag 0 is identically 1, not stored)."""

    acf: np.ndarray
    pacf: np.ndarray


@dataclass(frozen=True)
class LjungBoxResult:
    q_statistic: float
    lags_tested: int
    p_value: float


def acf_pacf(series: Sequence[float], max_lag: int) -> AcfResult:
    """Sample autocorrelations and partial autocorrelations.

    Args:
        series: Observations, length n > max_lag.
        max_lag: Largest lag to evaluate, >= 1.

    Raises:
        DegenerateVarianceError: the series is constant.
        ValueError: max_lag out of range, or a non-finite observation.
    """
    y = _finite_series(series)
    n = y.size
    if max_lag < 1:
        raise ValueError(f"max_lag must be at least 1, got {max_lag}")
    if max_lag >= n:
        raise ValueError(f"max_lag must be smaller than the series length {n}, got {max_lag}")
    # Every autocorrelation is a ratio of sums of products, so scaling a large
    # series down by a power of two changes none of them and keeps the sums in range.
    y = np.ldexp(y, -max(0, math.frexp(float(np.abs(y).max()))[1]))
    centered = y - y.mean()
    denominator = float(centered @ centered)
    if denominator == 0.0:
        raise DegenerateVarianceError("series is constant; autocorrelation undefined")
    acf = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        acf[k - 1] = float(centered[k:] @ centered[:-k]) / denominator
    return AcfResult(acf=acf, pacf=_durbin_levinson(acf))


def _durbin_levinson(acf: np.ndarray) -> np.ndarray:
    """PACF from the ACF via the Durbin-Levinson recursion."""
    max_lag = acf.size
    pacf = np.empty(max_lag)
    pacf[0] = acf[0]
    phi_prev = np.array([acf[0]])
    for k in range(2, max_lag + 1):
        rho = acf[k - 1]
        numerator = rho - float(phi_prev @ acf[k - 2 :: -1][: k - 1])
        denominator = 1.0 - float(phi_prev @ acf[: k - 1])
        phi_kk = numerator / denominator
        phi = np.empty(k)
        phi[: k - 1] = phi_prev - phi_kk * phi_prev[::-1]
        phi[k - 1] = phi_kk
        pacf[k - 1] = phi_kk
        phi_prev = phi
    return pacf


def ljung_box(series: Sequence[float], lags: int) -> LjungBoxResult:
    """Portmanteau test that autocorrelations up to ``lags`` are zero.

    The p-value comes from the regularized upper incomplete gamma
    function, the survival function of the chi-square distribution with
    ``lags`` degrees of freedom.

    Warns:
        UserWarning: sample shorter than 30 points; the chi-square
            approximation is weak there but the statistic is still
            computed.

    Raises:
        ValueError: a non-finite observation, before any warning.
    """
    y = _finite_series(series)
    n = y.size
    if n < SMALL_SAMPLE_WARNING_N:
        warnings.warn(
            f"Ljung-Box chi-square approximation is unreliable for n = {n} < "
            f"{SMALL_SAMPLE_WARNING_N}",
            UserWarning,
            stacklevel=2,
        )
    result = acf_pacf(y, lags)
    k = np.arange(1, lags + 1)
    q = float(n * (n + 2) * np.sum(result.acf**2 / (n - k)))
    p_value = chi2_sf(lags, q)
    return LjungBoxResult(q_statistic=q, lags_tested=lags, p_value=p_value)
