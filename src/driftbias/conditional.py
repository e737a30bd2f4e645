"""Conditional drift expectations under return-performance gating.

The total log return over [0, T] is R_T ~ N(nu*T, sigma**2*T). Conditioning
on R_T > C (or R_T <= C) truncates that normal, and the conditional mean of
the drift estimator nu_hat = R_T / T has the closed form

    E[nu_hat | R_T > C]  = nu + (sigma/sqrt(T)) * phi(d) / (1 - Phi(d))
    E[nu_hat | R_T <= C] = nu - (sigma/sqrt(T)) * phi(d) / Phi(d)

with d = (C - nu*T) / (sigma*sqrt(T)). The ratio phi/tail is the inverse
Mills ratio (normal hazard); it is evaluated here through the scaled
complementary error function (``_special.erfcx``), which stays accurate in
the far tails where Phi itself underflows. Once |d| exceeds ``MILLS_GUARD``
on the conditioned side, the event probability is zero in double precision
and the query is rejected as degenerate.

The tests cross-check the closed form by direct Monte Carlo sampling and
by integrating the raw integral form by quadrature (tests/oracles.py).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._format import WIDTH, format_g10
from ._special import erfcx
from .errors import DegenerateConditionError

__all__ = [
    "Direction",
    "ConditionalQuery",
    "ConditionalResult",
    "MILLS_GUARD",
    "conditional_nu",
    "conditional_mu",
    "asymptotic_limit",
    "SurfaceCell",
    "Surface",
    "bias_surface",
    "surface_csv",
]

# |d| beyond which Phi underflows to exactly 0.0 in double precision.
MILLS_GUARD = 37.0

_SQRT_2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_2_LOW = -9.667293313452913e-17  # sqrt(2) - _SQRT_2
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


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


class SurfaceCell(NamedTuple):
    mu: float
    C: float
    expectation: float
    bias: float
    flag: str


_FLAGS = ("ok", "degenerate")
_FLAG_FIELDS = np.array(_FLAGS, dtype="S").view(np.uint8).reshape(len(_FLAGS), -1)
# A cell's line in surface_csv: four WIDTH-byte number fields and the flag,
# each NUL-padded and followed by its separator; 83 bytes.
_LINE = 4 * (WIDTH + 1) + _FLAG_FIELDS.shape[1] + 1
# Cells per line matrix in surface_csv: 16k lines take 1.4 MB, where a whole
# 400 x 400 surface would take 13 MB. The text buffer is sized at _LINE bytes
# a cell, but only the pages written to become resident.
_SURFACE_CHUNK = 16_384


@dataclass(frozen=True, eq=False)
class Surface(Sequence[SurfaceCell]):
    """A bias surface as arrays: ``mu`` and ``C`` are one-dimensional, and
    ``expectation``, ``bias`` and ``degenerate`` must have shape
    ``(len(mu), len(C))``, with nan where a cell is degenerate; ``degenerate``
    is kept as a bool mask, any nonzero value true.
    As a sequence it reads as SurfaceCell values in row-major order (mu
    outer, C inner), each built on demand."""

    mu: np.ndarray
    C: np.ndarray
    expectation: np.ndarray
    bias: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mu", "C", "expectation", "bias", "degenerate"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), bool if name == "degenerate" else float))
        if self.mu.ndim != 1 or self.C.ndim != 1:
            raise ValueError(f"mu and C must be one-dimensional, got shapes {self.mu.shape} and {self.C.shape}")
        grid = (self.mu.size, self.C.size)
        for name in ("expectation", "bias", "degenerate"):
            if (shape := getattr(self, name).shape) != grid:
                raise ValueError(f"{name} has shape {shape}, expected (len(mu), len(C)) = {grid}")

    def __len__(self) -> int:
        return self.expectation.size

    def __getitem__(self, index: int | slice) -> SurfaceCell | list[SurfaceCell]:
        i = range(len(self))[index]  # a list's negative indices, slices and IndexError
        if isinstance(i, range):
            return [self[j] for j in i]
        row, column = divmod(i, self.C.size)
        return SurfaceCell(
            self.mu.item(row), self.C.item(column), self.expectation.item(i), self.bias.item(i),
            _FLAGS[self.degenerate.item(i)],
        )


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
    nu: float | np.ndarray, sigma: float | np.ndarray, T: float, C: float | np.ndarray, direction: Direction
):
    """The module docstring's formula for floats or for arrays of nu, sigma and C.

    z = d for ABOVE and -d for AT_OR_BELOW measures the threshold into the
    conditioned side, so the event probability is Phi(-z) and the inverse
    Mills ratio phi(z) / Phi(-z) is sqrt(2/pi) / erfcx(z / sqrt(2)). The
    scaled complementary error function absorbs the exp(-z*z/2) factor, so
    the ratio neither underflows for large positive z nor cancels for
    negative z; erfcx overflows to inf below about -26.6, where the ratio
    correctly rounds to 0.0. The sign flips are exact. Only operators and
    ufuncs touch nu, sigma and C; only T must be a scalar.

    Returns:
        (expectation, d, degenerate), where degenerate marks |d| >
        MILLS_GUARD on the conditioned side. Degenerate entries carry no
        meaningful expectation.
    """
    side = 1.0 if direction is Direction.ABOVE else -1.0
    d = (C - nu * T) / (sigma * math.sqrt(T))
    z = side * d
    # Past the guard the event is degenerate; a larger z would overflow the
    # Mills ratio, or at +inf divide by zero.
    inverse_mills = _SQRT_2_OVER_PI / erfcx(np.minimum(z, MILLS_GUARD) / _SQRT_2)
    expectation = nu + side * (sigma / math.sqrt(T)) * inverse_mills
    return expectation, d, z > MILLS_GUARD


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
    from fractions import Fraction  # only tail_probability needs it; keeps import driftbias lighter

    expectation, d, degenerate = _closed_form(q.nu, q.sigma, q.T, q.C, q.direction)
    above = q.direction is Direction.ABOVE
    if degenerate:
        event = "R_T > C" if above else "R_T <= C"
        raise DegenerateConditionError(
            f"event {event} has zero probability in double precision (d = {d:.6g})"
        )
    expectation = float(expectation)
    z = d if above else -d
    # Phi(-z) = erfc(z / sqrt(2)) / 2. t = z / sqrt(2) is rounded, by up to
    # |z| * 2**-53, which erfc's slope would make a relative error of z*z *
    # 2**-53; the slope carries the rest of z / sqrt(2) back in.
    t = z / _SQRT_2
    rest = (float(Fraction(z) - Fraction(t) * Fraction(_SQRT_2)) - t * _SQRT_2_LOW) / _SQRT_2
    return ConditionalResult(
        expectation=expectation,
        tail_probability=0.5 * (math.erfc(t) - _TWO_OVER_SQRT_PI * math.exp(-t * t) * rest),
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


def bias_surface(
    mu_grid: Sequence[float],
    C_grid: Sequence[float],
    sigma: float,
    T: float,
    direction: Direction,
) -> Surface:
    """Evaluate conditional_mu over the cartesian grid mu x C.

    Each mu is converted to nu = mu - sigma**2/2 before evaluation. Cells
    whose conditioning event is degenerate are flagged instead of raising,
    so a surface with unreachable corners still renders. The whole grid is
    one closed-form call; each ok cell equals conditional_mu bit for bit.

    Returns:
        A Surface; its degenerate cells carry nan expectation and bias.
    """
    mu, c = np.array(mu_grid, dtype=float), np.array(C_grid, dtype=float)
    if mu.ndim != 1 or c.ndim != 1:
        raise ValueError("mu_grid and C_grid must be one-dimensional")
    if not mu.size or not c.size:
        raise ValueError("mu_grid and C_grid must be non-empty")
    if not (np.isfinite(mu).all() and np.isfinite(c).all()):
        raise ValueError("mu_grid and C_grid must be finite")
    half_variance = 0.5 * sigma * sigma
    # C - nu*T rises with C and falls with nu, so two corners bound every cell's d.
    corners = (
        float(c.max()) - (float(mu.min()) - half_variance) * T,
        float(c.min()) - (float(mu.max()) - half_variance) * T,
    )
    _check_scale(sigma, T, direction, corners)
    nu = (mu - half_variance)[:, None]
    expectation, _, degenerate = _closed_form(nu, sigma, T, c, direction)
    bias = expectation - nu
    expectation += half_variance
    expectation[degenerate] = bias[degenerate] = math.nan
    return Surface(mu, c, expectation, bias, degenerate)


def surface_csv(surface: Surface) -> str:
    """Render a surface as CSV, each value exactly as ``f"{x:.10g}"`` writes it.

    Each grid value is formatted once. The cells are laid out
    ``_SURFACE_CHUNK`` at a time in one reused matrix of ``_LINE``-byte
    lines: NUL-padded fields, each followed by its separator. Each chunk's
    bytes go, NULs dropped, into one buffer of ``_LINE`` bytes a cell, and
    the part written is decoded once.
    """
    mu, c = format_g10(surface.mu), format_g10(surface.C)
    step = max(1, _SURFACE_CHUNK // max(1, len(c)))
    header = b"mu,C,expectation,bias,flag\n"
    text = np.empty(len(header) + surface.degenerate.size * _LINE, np.uint8)
    text[:len(header)] = np.frombuffer(header, np.uint8)
    end = len(header)
    field = [slice(k * (WIDTH + 1), k * (WIDTH + 1) + WIDTH) for k in range(4)]
    lines = np.empty((min(step, len(mu)), len(c), _LINE), np.uint8)
    lines[..., WIDTH:-1:WIDTH + 1] = ord(",")
    lines[..., -1] = ord("\n")
    lines[..., field[1]] = c
    for start in range(0, len(mu), step):
        rows = slice(start, start + step)
        chunk = lines[:len(mu[rows])]
        chunk[..., field[0]] = mu[rows, None]
        cells = chunk.reshape(-1, _LINE)
        cells[:, field[2]] = format_g10(surface.expectation[rows])
        cells[:, field[3]] = format_g10(surface.bias[rows])
        cells[:, 4 * (WIDTH + 1):-1] = _FLAG_FIELDS[surface.degenerate[rows].reshape(-1).view(np.uint8)]
        flat = cells.reshape(-1)
        kept = flat[flat != 0]
        text[end:end + kept.size] = kept
        end += kept.size
    return str(text[:end].data, "ascii")
