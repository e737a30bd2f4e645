import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftbias import diagnostics
from driftbias.errors import DegenerateVarianceError

# Fixed 50-point AR(1) draw with coefficient 0.8. Its Ljung-Box statistic at
# h = 10 was pinned before the build with a standalone double-loop script
# applying the textbook formulas; nothing below may drift from these numbers.
AR1_FIXTURE = [
    0.48398252773810624, 0.8539724511477252,
    0.8854528602117846, 0.01971715585123901,
    -1.4620108034745327, 0.022961108251938755,
    -0.13054238355475098, -1.7202075848822729,
    -2.585493247163466, -1.9189265714862915,
    -0.9559116568655814, -1.066852533461653,
    1.0086172600548868, 0.6949713008827656,
    -0.6783205632731116, -0.31045439416396325,
    -1.3752905399538413, -0.8658919481052658,
    0.6228580667141798, 0.6248120656907379,
    1.690344321272291, 0.9769370383169345,
    1.6914109634819263, 0.9482717227713764,
    2.3856388865734863, 2.740516919017164,
    1.940894838618397, 1.1614921946480405,
    1.3749332130161667, 1.991224513150577,
    0.4182885558452596, 0.23215606882535295,
    -1.042368240405108, -1.3147991782018735,
    0.25253345552702045, 0.5439691484223915,
    1.324364313745658, 0.4194736361288738,
    -0.1913019529413652, 1.2641751224824138,
    0.4211042306356739, 0.917960104910883,
    1.9445642799864888, 0.6600038987115565,
    1.6685556775567685, 3.3339557063524397,
    3.2917523562920743, 3.988562039168325,
    2.237047559719305, 2.1460765000217625,
]
AR1_Q_ORACLE = 64.88016426670667


def orthogonal_fixture(h):
    """Impulses spaced so every autocovariance at lags 1..h is exactly zero.

    +1 at multiples of 2*(h+1), -1 offset by h+1: impulse positions differ
    by at least h+1, so no lag <= h pairs two impulses, and the +/- balance
    keeps the mean at exactly zero.
    """
    period = 2 * (h + 1)
    y = np.zeros(2 * period)
    y[0::period] = 1.0
    y[h + 1 :: period] = -1.0
    return y


def brute_force_acf(y, max_lag):
    y = np.asarray(y, dtype=float)
    n = y.size
    mean = y.sum() / n
    den = ((y - mean) ** 2).sum()
    out = []
    for k in range(1, max_lag + 1):
        num = 0.0
        for t in range(k, n):
            num += (y[t] - mean) * (y[t - k] - mean)
        out.append(num / den)
    return np.array(out)


def yule_walker_pacf(acf, max_lag):
    out = []
    for k in range(1, max_lag + 1):
        r = np.concatenate(([1.0], acf[: k - 1]))
        toeplitz = np.array([[r[abs(i - j)] for j in range(k)] for i in range(k)])
        out.append(np.linalg.solve(toeplitz, acf[:k])[-1])
    return np.array(out)


def test_argument_validation():
    y = np.arange(10.0)
    with pytest.raises(ValueError):
        diagnostics.acf_pacf(y, 0)
    with pytest.raises(ValueError):
        diagnostics.acf_pacf(y, 10)
    with pytest.raises(DegenerateVarianceError):
        diagnostics.acf_pacf(np.full(10, 3.0), 2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_observations_raise_before_any_warning(bad):
    # Ten points would also draw the small-sample warning, so the check must come first.
    y = [0.5, -1.0, bad, 2.0, 0.0, 1.0, -0.5, 0.25, 1.5, -2.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^observations must be finite, got {bad}$"):
            diagnostics.acf_pacf(y, 2)
        with pytest.raises(ValueError, match=f"^observations must be finite, got {bad}$"):
            diagnostics.ljung_box(y, 2)


def test_alternating_series_lag_one():
    y = np.tile([1.0, -1.0], 50)
    result = diagnostics.acf_pacf(y, 1)
    assert result.acf[0] <= -0.97


def test_white_noise_stays_in_band():
    rng = np.random.default_rng(11)
    y = rng.standard_normal(10_000)
    result = diagnostics.acf_pacf(y, 20)
    band = 3.0 / np.sqrt(10_000)
    assert np.mean(np.abs(result.acf) < band) >= 0.95


def test_ar1_autocorrelation_near_coefficient():
    rng = np.random.default_rng(12)
    noise = rng.standard_normal(10_000)
    y = np.empty(10_000)
    y[0] = noise[0]
    for t in range(1, 10_000):
        y[t] = 0.5 * y[t - 1] + noise[t]
    result = diagnostics.acf_pacf(y, 1)
    assert abs(result.acf[0] - 0.5) < 0.05


@given(
    st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=50).filter(
        lambda y: max(y) - min(y) > 1e-6
    ),
    st.integers(1, 5),
)
def test_acf_matches_brute_force(y, max_lag):
    result = diagnostics.acf_pacf(y, max_lag)
    assert result.acf == pytest.approx(brute_force_acf(y, max_lag), abs=1e-10)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=50).filter(lambda y: max(y) - min(y) > 1e-6),
    st.integers(1, 5),
)
def test_acf_keeps_the_unscaled_bits(y, max_lag):
    # The power-of-two scaling that guards against overflow changes no bit.
    centered = np.asarray(y) - np.mean(y)
    denominator = float(centered @ centered)
    expected = [float(centered[k:] @ centered[:-k]) / denominator for k in range(1, max_lag + 1)]
    assert diagnostics.acf_pacf(y, max_lag).acf.tolist() == expected


def test_acf_survives_huge_values():
    y = np.array([1.0, -1.0, 3.0, -2.0, 0.5])
    expected = diagnostics.acf_pacf(y, 2)
    for scale in (1e200, 1e300):
        result = diagnostics.acf_pacf(scale * y, 2)
        assert result.acf == pytest.approx(expected.acf, rel=1e-14)
        assert result.pacf == pytest.approx(expected.pacf, rel=1e-14)


# Scaled by 2**-600 the sums of products underflow, and by 2**-1060 the
# values themselves are subnormal; either series once read as constant.
@pytest.mark.parametrize("exponent", [-600, -1060])
def test_acf_of_a_tiny_series_keeps_the_unscaled_bits(exponent):
    y = [1.0, 2.0, 0.0, 3.0, 1.0, 4.0, 2.0, 5.0]
    tiny = [math.ldexp(v, exponent) for v in y]
    expected, result = diagnostics.acf_pacf(y, 3), diagnostics.acf_pacf(tiny, 3)
    assert result.acf.tolist() == expected.acf.tolist()
    assert result.pacf.tolist() == expected.pacf.tolist()
    with pytest.warns(UserWarning, match="unreliable"):
        assert diagnostics.ljung_box(tiny, 3) == diagnostics.ljung_box(y, 3)


def test_acf_bounded_by_one():
    rng = np.random.default_rng(13)
    for _ in range(20):
        y = rng.standard_normal(40)
        result = diagnostics.acf_pacf(y, 12)
        assert np.all(np.abs(result.acf) <= 1.0 + 1e-12)


def test_pacf_lag_one_equals_acf():
    rng = np.random.default_rng(14)
    y = rng.standard_normal(60)
    result = diagnostics.acf_pacf(y, 6)
    assert result.pacf[0] == result.acf[0]


def test_pacf_matches_yule_walker_solve():
    rng = np.random.default_rng(15)
    y = np.convolve(rng.standard_normal(300), [1.0, 0.7, 0.2], mode="valid")
    result = diagnostics.acf_pacf(y, 12)
    assert result.pacf == pytest.approx(yule_walker_pacf(result.acf, 12), abs=1e-10)


def test_ljung_box_orthogonal_fixture():
    result = diagnostics.ljung_box(orthogonal_fixture(10), 10)
    assert result.q_statistic == 0.0
    assert result.p_value == 1.0


def test_ljung_box_frozen_ar1_oracle():
    result = diagnostics.ljung_box(AR1_FIXTURE, 10)
    assert result.q_statistic == pytest.approx(AR1_Q_ORACLE, abs=1e-6)
    assert result.p_value == pytest.approx(4.2729613440392177e-10, rel=1e-6)
    assert result.lags_tested == 10


def test_ljung_box_warns_below_thirty_points():
    rng = np.random.default_rng(16)
    with pytest.warns(UserWarning, match="n = 10"):
        diagnostics.ljung_box(rng.standard_normal(10), 3)


def test_ljung_box_silent_at_thirty_points():
    rng = np.random.default_rng(17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diagnostics.ljung_box(rng.standard_normal(30), 3)


@given(
    st.lists(st.floats(-10.0, 10.0), min_size=12, max_size=60).filter(
        lambda y: max(y) - min(y) > 1e-6
    ),
    st.floats(0.5, 3.0),
    st.floats(-5.0, 5.0),
)
def test_q_affine_invariance(y, a, b):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = diagnostics.ljung_box(y, 5)
        scaled = diagnostics.ljung_box([a * v + b for v in y], 5)
    assert scaled.q_statistic == pytest.approx(base.q_statistic, rel=1e-9, abs=1e-9)


def test_rejection_rate_smoke():
    # Full-scale size study runs in the acceptance suite; this is a coarse
    # guard that the test is neither always nor never rejecting.
    rng = np.random.default_rng(18)
    rejections = 0
    trials = 200
    for _ in range(trials):
        y = rng.standard_normal(500)
        if diagnostics.ljung_box(y, 10).p_value < 0.05:
            rejections += 1
    assert 0 < rejections < 0.15 * trials
