"""``f"{x:.10g}"`` for whole float64 arrays, as fixed-width ASCII bytes.

``format_g10(values)`` returns an (n, WIDTH) uint8 matrix whose row i,
with its NUL bytes removed, is exactly ``f"{values[i]:.10g}".encode()``.
NULs are padding and may sit anywhere inside a row, so a caller can lay
rows side by side and drop every NUL with one mask.

Python formats floats correctly rounded (Steele & White, "How to print
floating-point numbers accurately", PLDI 1990; Gay 1990; Adams, "Ryu",
PLDI 2018). This module implements none of those algorithms: it rounds a
float64 scaling of each value to a 10-digit mantissa and hands every value
whose rounding that cannot decide to Python's own formatting.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WIDTH", "format_g10"]

WIDTH = 17  # len("-1.234567891e-100")

_ROW = np.dtype((np.void, WIDTH))

# 10**k for k <= 22 is exact in float64, so one multiplication or division
# by it rounds once.
_POW10 = np.array([float(10**k) for k in range(23)])

# nan, -nan, inf, -inf, 0, -0, indexed by 2 * kind + sign bit.
_SPECIAL = np.array(["nan", "nan", "inf", "-inf", "0", "-0"], dtype=f"S{WIDTH}").view(_ROW)

# The 4 ASCII digits of each of 0..9999 as one uint32, then at 10_000 up
# the same groups with their trailing zeros as NUL, for fraction digits.
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_GROUP_BYTES = np.stack(np.meshgrid(_DIGIT, _DIGIT, _DIGIT, _DIGIT, indexing="ij"), axis=-1).reshape(-1, 4)
_KEPT = np.logical_or.accumulate(_GROUP_BYTES[:, ::-1] > ord("0"), axis=1)[:, ::-1]
_GROUPS = np.concatenate([_GROUP_BYTES, _GROUP_BYTES * _KEPT]).view(np.uint32)[:, 0]

_ZERO, _DOT, _MINUS = ord("0"), ord("."), ord("-")


def _scale(values: np.ndarray, k: np.ndarray) -> np.ndarray:
    """values * 10**k for |k| <= 22, rounded once: one of the two factors is 1."""
    return values * _POW10[np.maximum(k, 0)] / _POW10[np.maximum(-k, 0)]


def format_g10(values: np.ndarray) -> np.ndarray:
    """The bytes of ``f"{x:.10g}"`` for each x of ``values``, NUL-padded to WIDTH."""
    x = np.asarray(values, dtype=np.float64).ravel()
    out = np.zeros((x.size, WIDTH), np.uint8)
    rows = out.view(_ROW)[:, 0]

    irregular = ~(np.isfinite(x) & (x != 0.0))
    special = x[irregular]
    kind = np.where(np.isnan(special), 0, np.where(np.isinf(special), 2, 4))
    rows[irregular] = _SPECIAL[kind + np.signbit(special)]

    index = np.flatnonzero(~irregular)
    magnitude = np.abs(x[index])
    exponent = np.floor(np.log10(magnitude)).astype(np.int64)
    shift = 9 - exponent
    first = np.clip(shift, -22, 22)
    scaled = _scale(_scale(magnitude, first), np.clip(shift - first, -22, 22))
    mantissa = np.rint(scaled)
    # Each scaling rounds once, so scaled is within 2 * 2**-53 * 1e10, about
    # 2.2e-6, of the exact |x| * 10**shift: unless that lies within 1e-5 of
    # a half-integer, rint rounds it as Python does. A log10 that rounds
    # across an integer leaves the mantissa outside [1e9, 1e10), or is so
    # close to 10**exponent that 1e9 is the right mantissa. A shift past
    # +-44 needs a third scaling: |x| outside about [1e-35, 1e54).
    undecided = (
        (np.abs(shift) > 44)
        | (np.abs(scaled - np.floor(scaled) - 0.5) < 1e-5)
        | (mantissa < 1e9)
        | (mantissa >= 1e10)
    )
    fallback = index[undecided]
    exact = [f"{value:.10g}" for value in x[fallback].tolist()]
    rows[fallback] = np.array(exact, dtype=f"S{WIDTH}").view(_ROW)

    # Sorted by exponent, every exponent's layout is one slice of rows.
    keep = np.flatnonzero(~undecided)
    keep = keep[np.argsort(exponent[keep].astype(np.int8), kind="stable")]
    index, exponent, mantissa = index[keep], exponent[keep], mantissa[keep].astype(np.int64)
    high, rest = np.divmod(mantissa, 10**8)
    middle, low = np.divmod(rest, 10**4)
    # A group's trailing zeros are the number's when every later group is 0.
    groups = [high, middle, low, high + 10_000 * (rest == 0), middle + 10_000 * (low == 0), low + 10_000]
    text = _GROUPS[np.stack(groups, axis=1)].view(np.uint8)
    digits, stripped = text[:, 2:12], text[:, 14:]

    work = np.zeros((index.size, WIDTH), np.uint8)
    work[:, 0] = np.signbit(x[index]) * _MINUS
    exponents, starts = np.unique(exponent, return_index=True)
    for e, start, stop in zip(exponents.tolist(), starts.tolist(), [*starts[1:].tolist(), index.size]):
        block, ten, bare = work[start:stop], digits[start:stop], stripped[start:stop]
        fixed = -4 <= e < 10
        if fixed and e < 0:  # 0.000ddd
            block[:, 1:3 - e] = _ZERO
            block[:, 2] = _DOT
            block[:, 2 - e:12 - e] = bare
            continue
        whole = e + 1 if fixed else 1  # digits before the point
        block[:, 1:whole + 1] = ten[:, :whole]
        if whole < 10:  # the point goes when no fraction digit is left
            block[:, whole + 1] = np.where(bare[:, whole], _DOT, 0)
            block[:, whole + 2:12] = bare[:, whole:]
        if not fixed:
            suffix = np.frombuffer(f"e{e:+03d}".encode(), np.uint8)
            block[:, 12:12 + suffix.size] = suffix
    rows[index] = work.view(_ROW)[:, 0]
    return out
