"""Independent references that only the tests use."""

from __future__ import annotations

import math

from scipy import integrate

from driftbias.conditional import ConditionalQuery, Direction, conditional_nu


def conditional_nu_quadrature(q: ConditionalQuery) -> float:
    """Slow evaluation of the raw truncated-mean integral.

    Integrates exp(-(y - nu*T)**2 / (2*sigma**2*T)) over the conditioned
    range with adaptive quadrature and assembles the bracketed integral
    form of the conditional expectation. Kept purely as an independent
    cross-check of the Mills-ratio closed form; it is orders of magnitude
    slower and numerically worse.
    """
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
