"""Conditional drift expectations under return-performance gating.

The total log return over [0, T] is R_T ~ N(nu*T, sigma**2*T). Conditioning
on R_T > C (or R_T <= C) truncates that normal, and the conditional mean of
the drift estimator nu_hat = R_T / T has the closed form

    E[nu_hat | R_T > C]  = nu + (sigma/sqrt(T)) * phi(d) / (1 - Phi(d))
    E[nu_hat | R_T <= C] = nu - (sigma/sqrt(T)) * phi(d) / Phi(d)

with d = (C - nu*T) / (sigma*sqrt(T)). The ratio phi/tail is the inverse
Mills ratio (normal hazard); it is evaluated here through the scaled
complementary error function, which stays accurate in the far tails where
Phi itself underflows. Once |d| exceeds ``MILLS_GUARD`` on the conditioned
side, the event probability is zero in double precision and the query is
rejected as degenerate.

A slow quadrature evaluation of the raw integral form and a direct Monte
Carlo sampler are provided as independent cross-checks of the closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np
from scipy import special

from .errors import DegenerateConditionError

__all__ = [
    "Direction",
    "ConditionalQuery",
    "ConditionalResult",
    "MILLS_GUARD",
    "conditional_nu",
    "conditional_mu",
    "asymptotic_limit",
    "monte_carlo_conditional",
    "conditional_nu_quadrature",
    "MonteCarloEstimate",
    "SurfaceCell",
    "bias_surface",
    "surface_csv",
]

# |d| beyond which Phi underflows to exactly 0.0 in double precision.
MILLS_GUARD = 37.0

_SQRT_2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class Direction(enum.Enum):
    """Which side of the threshold the return is conditioned on.

    Ties (R_T == C) belong to AT_OR_BELOW; the events are R_T > C and
    R_T <= C.
    """

    ABOVE = "above"
    AT_OR_BELOW = "at_or_below"


@dataclass(frozen=True)
class ConditionalQuery:
    """One conditional-expectation evaluation (nu, sigma, T, C, direction)."""

    nu: float
    sigma: float
    T: float
    C: float
    direction: Direction

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and math.isfinite(self.C)):
            raise ValueError(f"nu and C must be finite, got nu = {self.nu}, C = {self.C}")
        _check_scale(self.sigma, self.T, self.direction, (self.C - self.nu * self.T,))

    @property
    def mills_argument(self) -> float:
        """Standardized threshold d = (C - nu*T) / (sigma*sqrt(T))."""
        return (self.C - self.nu * self.T) / (self.sigma * math.sqrt(self.T))


@dataclass(frozen=True)
class ConditionalResult:
    """Expectation, event probability, bias, and the Mills argument d.

    ``bias`` is stored as ``expectation - reference`` computed in exactly
    that order, so the identity holds bitwise for conditional_nu results.
    """

    expectation: float
    tail_probability: float
    bias: float
    mills_argument: float


class MonteCarloEstimate(NamedTuple):
    mean: float
    std_error: float
    retained: int


class SurfaceCell(NamedTuple):
    mu: float
    C: float
    expectation: float
    bias: float
    flag: str


def _check_scale(sigma: float, T: float, direction: Direction, excess: Sequence[float]) -> None:
    """Checks shared by ConditionalQuery and bias_surface.

    ``excess`` holds the extreme values of C - nu*T. Each must give a
    finite d = (C - nu*T) / (sigma*sqrt(T)); a subnormal scale overflows it.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    if math.isinf(sigma) or math.isinf(T):
        raise ValueError(f"sigma and T must be finite, got sigma = {sigma}, T = {T}")
    if not sigma * math.sqrt(T) > 0:
        raise ValueError(f"sigma * sqrt(T) underflows to 0, got sigma = {sigma}, T = {T}")
    if not isinstance(direction, Direction):
        raise ValueError(f"direction must be a Direction, got {direction!r}")
    if not all(math.isfinite(value / (sigma * math.sqrt(T))) for value in excess):
        raise ValueError(
            f"d = (C - nu*T) / (sigma*sqrt(T)) must be finite, got sigma = {sigma}, T = {T}, "
            f"C - nu*T up to {max(map(abs, excess))}"
        )


def _closed_form(
    nu: float | np.ndarray, sigma: float, T: float, C: float | np.ndarray, direction: Direction
):
    """The module docstring's formula for floats or for arrays of nu and C.

    z = d for ABOVE and -d for AT_OR_BELOW measures the threshold into the
    conditioned side, so the event probability is Phi(-z) and the inverse
    Mills ratio phi(z) / Phi(-z) is sqrt(2/pi) / erfcx(z / sqrt(2)). The
    scaled complementary error function absorbs the exp(-z*z/2) factor, so
    the ratio neither underflows for large positive z nor cancels for
    negative z; erfcx overflows to inf below about -26.6, where the ratio
    correctly rounds to 0.0. The sign flips are exact. Only operators and
    ufuncs touch nu and C; sigma and T are scalars.

    Returns:
        (expectation, event probability, d, degenerate), where degenerate
        marks |d| > MILLS_GUARD on the conditioned side. Degenerate entries
        carry no meaningful expectation.
    """
    side = 1.0 if direction is Direction.ABOVE else -1.0
    d = (C - nu * T) / (sigma * math.sqrt(T))
    z = side * d
    # Past the guard the event is degenerate; a larger z would overflow the
    # Mills ratio, or at +inf divide by zero.
    inverse_mills = _SQRT_2_OVER_PI / special.erfcx(np.minimum(z, MILLS_GUARD) / _SQRT_2)
    expectation = nu + side * (sigma / math.sqrt(T)) * inverse_mills
    return expectation, special.ndtr(-z), d, z > MILLS_GUARD


def conditional_nu(q: ConditionalQuery) -> ConditionalResult:
    """Conditional expectation of the log-drift estimator nu_hat.

    Args:
        q: Query parameters; ``q.nu`` is the log-price drift.

    Returns:
        ConditionalResult with the truncated-normal expectation, the
        probability of the conditioning event, bias = expectation - nu,
        and the standardized threshold d.

    Raises:
        DegenerateConditionError: the conditioning event has probability
            0.0 in double precision (|d| > MILLS_GUARD on the wrong side).
    """
    expectation, prob, d, degenerate = _closed_form(q.nu, q.sigma, q.T, q.C, q.direction)
    if degenerate:
        event = "R_T > C" if q.direction is Direction.ABOVE else "R_T <= C"
        raise DegenerateConditionError(
            f"event {event} has zero probability in double precision (d = {d:.6g})"
        )
    expectation = float(expectation)
    return ConditionalResult(
        expectation=expectation,
        tail_probability=float(prob),
        bias=expectation - q.nu,
        mills_argument=d,
    )


def conditional_mu(q: ConditionalQuery) -> ConditionalResult:
    """Conditional expectation of the price-drift estimator mu_hat.

    mu_hat differs from nu_hat by the constant sigma**2 / 2, so the
    expectation shifts by that amount while the bias is unchanged (both
    the expectation and its reference shift together).
    """
    base = conditional_nu(q)
    return ConditionalResult(
        expectation=base.expectation + 0.5 * q.sigma * q.sigma,
        tail_probability=base.tail_probability,
        bias=base.bias,
        mills_argument=base.mills_argument,
    )


def asymptotic_limit(nu: float, direction: Direction) -> float:
    """T -> infinity limit of the conditional expectation.

    ABOVE: nu if nu > 0, else 0. AT_OR_BELOW: nu if nu < 0, else 0. In the
    zero cases the conditioning event becomes ever rarer and drags the
    estimator to the threshold rate.
    """
    if not math.isfinite(nu):
        raise ValueError(f"nu must be finite, got {nu}")
    if direction is Direction.ABOVE:
        return nu if nu > 0 else 0.0
    return nu if nu < 0 else 0.0


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


def conditional_nu_quadrature(q: ConditionalQuery) -> float:
    """Slow evaluation of the raw truncated-mean integral.

    Integrates exp(-(y - nu*T)**2 / (2*sigma**2*T)) over the conditioned
    range with adaptive quadrature and assembles the bracketed integral
    form of the conditional expectation. Kept purely as an independent
    cross-check of the Mills-ratio closed form; it is orders of magnitude
    slower and numerically worse.
    """
    from scipy import integrate  # only this oracle needs it; keeps import driftbias lighter

    prob = conditional_nu(q).tail_probability  # raises on a degenerate event
    d = q.mills_argument
    mean = q.nu * q.T
    spread2 = q.sigma * q.sigma * q.T

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


def bias_surface(
    mu_grid: Sequence[float],
    C_grid: Sequence[float],
    sigma: float,
    T: float,
    direction: Direction,
) -> list[SurfaceCell]:
    """Evaluate conditional_mu over the cartesian grid mu x C.

    Each mu is converted to nu = mu - sigma**2/2 before evaluation. Cells
    whose conditioning event is degenerate are flagged instead of raising,
    so a surface with unreachable corners still renders.

    Returns:
        Cells in row-major order (mu outer, C inner) with flag "ok" or
        "degenerate"; degenerate cells carry nan expectation and bias.
    """
    mu_values = [float(m) for m in mu_grid]
    c_values = [float(c) for c in C_grid]
    if not mu_values or not c_values:
        raise ValueError("mu_grid and C_grid must be non-empty")
    if not (np.isfinite(mu_values).all() and np.isfinite(c_values).all()):
        raise ValueError("mu_grid and C_grid must be finite")
    half_variance = 0.5 * sigma * sigma
    # C - nu*T rises with C and falls with nu, so two corners bound every cell's d.
    corners = (
        max(c_values) - (min(mu_values) - half_variance) * T,
        min(c_values) - (max(mu_values) - half_variance) * T,
    )
    _check_scale(sigma, T, direction, corners)
    c_array = np.array(c_values)
    flags = ("ok", "degenerate")
    cells = []
    # One closed-form call per row: a whole-grid call holds several
    # grid-sized temporaries at once, and cells share the row's mu, the
    # C values and the flag strings instead of owning copies.
    for mu in mu_values:
        nu = mu - half_variance
        expectation, _, _, degenerate = _closed_form(nu, sigma, T, c_array, direction)
        bias = expectation - nu
        expectation += half_variance
        expectation[degenerate] = bias[degenerate] = math.nan
        flagged = map(flags.__getitem__, degenerate.tolist())
        cells.extend(map(SurfaceCell, repeat(mu), c_values, expectation.tolist(), bias.tolist(), flagged))
    return cells


def surface_csv(cells: Sequence[SurfaceCell]) -> str:
    """Render surface cells as CSV with 10-significant-digit values."""
    lines = ["mu,C,expectation,bias,flag"]
    for cell in cells:
        lines.append(
            f"{cell.mu:.10g},{cell.C:.10g},{cell.expectation:.10g},{cell.bias:.10g},{cell.flag}"
        )
    return "\n".join(lines) + "\n"
