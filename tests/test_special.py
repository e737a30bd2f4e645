"""erfcx and chi2_sf against scipy.special, with mpmath deciding where
erfcx and scipy disagree by more than rounding."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special

from driftbias._special import chi2_sf, erfcx

# Every range of erfcx: the reflection below -0.46875 (down to where the
# Mills ratio of the closed form reaches 0), Cody's three ranges, and the
# 1/(sqrt(pi) x) tail past 6.71e7.
GRID = np.concatenate([np.linspace(-26.5, 30.0, 50_001), np.geomspace(30.0, 1e8, 5_001)])

CHI2_DEGREES = [*range(1, 61), 100, 250, 500]


def test_erfcx_matches_scipy_on_a_dense_grid():
    np.testing.assert_allclose(erfcx(GRID), special.erfcx(GRID), rtol=1e-13, atol=0)


def test_erfcx_is_never_the_further_from_mpmath_where_it_differs_from_scipy():
    ours, scipys = erfcx(GRID), special.erfcx(GRID)
    apart = np.abs(ours - scipys) > 4 * np.spacing(scipys)
    # scipy rounds x*x before exp(x*x) on the reflected side, which costs up
    # to about 500 ulp there; so the two do part.
    assert apart.sum() > 1000
    worse = []
    with mpmath.workdps(40):
        for x, a, b in zip(GRID[apart].tolist(), ours[apart].tolist(), scipys[apart].tolist()):
            exact = mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(x)
            if abs(a - exact) > abs(b - exact):
                worse.append(x)
    assert worse == []


def test_erfcx_on_special_values_raises_no_warning():
    x = np.array([math.inf, -math.inf, math.nan, -0.0, 1e300, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = erfcx(x)
        scalars = [erfcx(v) for v in x.tolist()]
    np.testing.assert_array_equal(values[:4], [0.0, math.inf, math.nan, 1.0])
    assert values[4] == pytest.approx(1.0 / (math.sqrt(math.pi) * 1e300), rel=1e-15)
    assert values[5] == math.inf
    np.testing.assert_array_equal(scalars, values)


@pytest.mark.parametrize("k", CHI2_DEGREES)
def test_chi2_sf_matches_scipy(k):
    # Out to 4k + 100 the survival function stays above 1e-300, where a
    # relative comparison still means something.
    for q in np.linspace(0.0, 4 * k + 100, 801)[1:].tolist():
        expected = special.gammaincc(k / 2, q / 2)
        assert expected > 1e-300
        assert chi2_sf(k, q) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("k", CHI2_DEGREES)
def test_chi2_sf_at_zero_is_one(k):
    assert chi2_sf(k, 0.0) == 1.0
