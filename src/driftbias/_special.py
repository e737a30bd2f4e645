"""The two special functions the package needs, in numpy and the standard library.

``erfcx`` is W. J. Cody's rational Chebyshev approximation to the scaled
complementary error function (W. J. Cody, "Rational Chebyshev approximations
for the error function", Math. Comp. 23 (1969) 631-637), as in the
``jint = 2`` branch of his CALERF routine. ``chi2_sf`` is the chi-square
survival function for integer degrees of freedom in the closed form of
Abramowitz & Stegun 26.4.4 and 26.4.5.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["erfcx", "chi2_sf"]

# CALERF's range splits: |x| <= 0.46875, 0.46875 < |x| <= 4 and |x| > 4.
_THRESH = 0.46875
# Below this, 2 * exp(x*x) overflows and erfcx(x) is inf.
_XNEG = -26.628
# Above this, erfcx(x) rounds to 1 / (sqrt(pi) * x); see erfcx.
_XHUGE = 6.71e7
_ONE_OVER_SQRT_PI = 5.6418958354775628695e-1
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

# Coefficients for |x| <= 0.46875, in CALERF's order (A, B)...
_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
      3.20937758913846947e03, 1.85777706184603153e-1)
_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
      2.84423683343917062e03)
# ...for 0.46875 < |x| <= 4 (C, D)...
_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
      2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
      2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
      1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
      3.43936767414372164e03, 1.23033935480374942e03)
# ...and for |x| > 4, in 1/x**2 (P, Q).
_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
      1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
      6.05183413124413191e-2, 2.33520497626869185e-3)


def _horner(
    t: np.ndarray, num: tuple[float, ...], den: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """CALERF's numerator and denominator: the last coefficient of ``num``
    leads, the denominator is monic, and the next-to-last of ``num`` and the
    last of ``den`` are the constant terms."""
    xnum, xden = num[-1] * t, t.copy()
    for a, b in zip(num[:-2], den[:-1]):  # in place: no step allocates
        xnum += a
        xnum *= t
        xden += b
        xden *= t
    xnum += num[-2]
    xden += den[-1]
    return xnum, xden


def _taylor_table(first: int, last: int, order: int) -> np.ndarray:
    """erfcx's Taylor coefficients at the nodes m = j/16, j = first..last.

    Row 0 is Cody's (C, D) rational at the node, evaluated exactly in
    integers and rounded once; row 1 is what that rounding dropped. Rows
    2.. are the coefficients a[1] .. a[order] of h**1 .. h**order, which
    follow from erfcx'(y) = 2 y erfcx(y) - 2/sqrt(pi):
    a[1] = 2 m a[0] - 2/sqrt(pi), a[n+1] = (2 m a[n] + 2 a[n-1]) / (n + 1).
    """
    # 2**200 * 16**8 * p(j/16) for the numerator and denominator p is a
    # polynomial in j with these integer coefficients, highest power first.
    scaled = [
        [int(math.ldexp(v, 200)) * 16**i for i, v in enumerate(p)]
        for p in (_C[-1:] + _C[:-1], (1.0, *_D))
    ]
    head, tail = [], []
    for j in range(first, last + 1):
        num, den = (functools.reduce(lambda acc, c: acc * j + c, p) for p in scaled)
        value = num / den  # correctly rounded
        p, q = value.as_integer_ratio()
        head.append(value)
        tail.append((num * q - p * den) / (den * q))
    m = np.arange(first, last + 1) / 16.0
    a = [np.array(head), 2.0 * m * np.array(head) - _TWO_OVER_SQRT_PI]
    for n in range(1, order):
        a.append((2.0 * m * a[n] + 2.0 * a[n - 1]) / (n + 1))
    return np.array([a[0], tail, *a[1:]])


# On 0.46875 < |x| <= 4 a plain evaluation of the (C, D) rational is up to
# 5 ulp off, since the terms of both polynomials are of one size. Instead
# each x takes its nearest node j/16 (j = 8..64) and sums the Taylor series
# there to h**9, whose next term is below 1e-19 relative: within 1 ulp.
_FIRST_NODE = 8
_TAYLOR = _taylor_table(_FIRST_NODE, 64, 9)


def _small(x: np.ndarray) -> np.ndarray:
    t = x * x
    num, den = _horner(t, _A, _B)
    return np.exp(t) * (1.0 - x * num / den)


def _middle(y: np.ndarray) -> np.ndarray:
    node = np.rint(16.0 * y)
    h = y - node / 16.0  # exact, and |h| <= 1/32
    rows = _TAYLOR.take(node.astype(np.intp) - _FIRST_NODE, axis=1)
    value = rows[-1]
    for row in rows[-2:0:-1]:  # a[8] .. a[1], then the rounding tail of a[0]
        value *= h
        value += row
    return rows[0] + value


def _large(y: np.ndarray) -> np.ndarray:
    # Past _XHUGE the rational term is below half an ulp of 1/sqrt(pi), so
    # clamping y here gives CALERF's 1/(sqrt(pi) y) without y*y overflowing.
    t = 1.0 / np.square(np.minimum(y, _XHUGE))
    num, den = _horner(t, _P, _Q)
    return (_ONE_OVER_SQRT_PI - t * num / den) / y


def _reflected(x: np.ndarray, mirrored: np.ndarray) -> np.ndarray:
    """erfcx(x) = 2 exp(x*x) - erfcx(-x) for x < -0.46875, given erfcx(-x)
    where x >= -6. x*x is split at a multiple of 1/16 so that exp sees the
    rounding error of x*x as its own small argument."""
    clamped = np.maximum(x, _XNEG)
    head = np.trunc(16.0 * clamped) / 16.0
    twice = 2.0 * (np.exp(head * head) * np.exp((clamped - head) * (clamped + head)))
    # Below -6, erfcx(-x) < 0.1 is under half an ulp of 2 exp(x*x) > 2**52.
    twice -= np.where(x < -6.0, 0.0, mirrored)
    return np.where(x < _XNEG, math.inf, twice)


def erfcx(x: float | np.ndarray) -> np.floating | np.ndarray:
    """exp(x*x) * erfc(x), elementwise.

    Each range is evaluated only on its own elements, so no input makes a
    floating-point warning: the result is inf below -26.628 (and at -inf),
    0.0 at +inf and nan at nan.
    """
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    result = np.full_like(y, math.nan)
    ranges = (
        (y <= _THRESH, x, _small),
        ((y > _THRESH) & (y <= 4.0), y, _middle),
        ((y > 4.0) & (x >= -6.0), y, _large),  # _reflected takes no erfcx(-x) below -6
    )
    for mask, argument, evaluate in ranges:
        if mask.any():
            result[mask] = evaluate(argument[mask])
    negative = x < -_THRESH
    if negative.any():
        result[negative] = _reflected(x[negative], result[negative])
    return result[()]


def chi2_sf(k: int, q: float) -> float:
    """P(X > q) for X chi-square with ``k`` >= 1 degrees of freedom.

    With x = q/2 this is the regularized upper incomplete gamma Q(k/2, x):
    e^-x * sum_{j<k/2} x^j / j! for even k (A&S 26.4.5), and erfc(sqrt(x))
    plus e^-x * sum_{j=1..(k-1)/2} x^(j-1/2) / Gamma(j+1/2) for odd k
    (A&S 26.4.4). Each term is exp(m log x - x - lgamma(m + 1)), which stays
    in range where e^-x or x^m alone would not; all terms are positive and
    are added with math.fsum.
    """
    x = 0.5 * q
    if x <= 0.0:
        return 1.0
    log_x = math.log(x)
    head = math.erfc(math.sqrt(x)) if k % 2 else 0.0
    terms = (
        math.exp(m * log_x - x - math.lgamma(m + 1.0))
        for m in (0.5 * k - i for i in range(1, k // 2 + 1))
    )
    return math.fsum((head, *terms))
