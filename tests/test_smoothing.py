import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import weight_expansion

from driftbias import smoothing
from driftbias.errors import InsufficientDataError

series_strategy = st.lists(
    st.floats(-100.0, 100.0), min_size=1, max_size=200
)
alpha_grid = [round(0.1 * k, 1) for k in range(11)]


def test_config_validation():
    with pytest.raises(ValueError):
        smoothing.SmoothingConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        smoothing.SmoothingConfig(alpha=1.5)
    assert smoothing.SmoothingConfig().alpha == 0.2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_smooth_and_fit_reject_non_finite_observations(bad):
    with pytest.raises(ValueError, match="observations must be finite"):
        smoothing.smooth([1.0, bad, 2.0])
    with pytest.raises(ValueError, match="observations must be finite"):
        smoothing.fit_alpha([1.0, bad, 2.0, 3.0])


def test_smooth_empty_input():
    with pytest.raises(InsufficientDataError):
        smoothing.smooth([], smoothing.SmoothingConfig())


def test_alpha_one_tracks_last_observation():
    y = [3.0, 1.0, 4.0, 1.0, 5.0]
    forecasts = smoothing.smooth(y, smoothing.SmoothingConfig(alpha=1.0))
    assert np.array_equal(forecasts[1:], y)
    assert forecasts[0] == y[0]


def test_alpha_zero_never_learns():
    forecasts = smoothing.smooth([3.0, 1.0, 4.0], smoothing.SmoothingConfig(alpha=0.0))
    assert np.array_equal(forecasts, np.full(4, 3.0))


def test_hand_computed_recurrence():
    # F1 = Y1 = 10; F2 = 10; F3 = 0.2*12 + 0.8*10 = 10.4; F4 = 9.92.
    forecasts = smoothing.smooth([10.0, 12.0, 8.0], smoothing.SmoothingConfig(alpha=0.2))
    assert forecasts == pytest.approx([10.0, 10.0, 10.4, 9.92], rel=1e-14)


@given(series_strategy, st.sampled_from(alpha_grid))
def test_recurrence_holds_everywhere(y, alpha):
    config = smoothing.SmoothingConfig(alpha=alpha)
    forecasts = smoothing.smooth(y, config)
    assert forecasts.size == len(y) + 1
    for k in range(len(y)):
        expected = alpha * y[k] + (1.0 - alpha) * forecasts[k]
        assert forecasts[k + 1] == pytest.approx(expected, abs=1e-12)


@given(series_strategy, st.sampled_from(alpha_grid))
def test_forecasts_stay_inside_observed_range(y, alpha):
    forecasts = smoothing.smooth(y, smoothing.SmoothingConfig(alpha=alpha))
    lo = min(min(y), y[0])
    hi = max(max(y), y[0])
    assert np.all(forecasts >= lo - 1e-9)
    assert np.all(forecasts <= hi + 1e-9)


@given(series_strategy, st.sampled_from(alpha_grid), st.floats(-50.0, 50.0))
def test_shift_equivariance(y, alpha, c):
    base = smoothing.smooth(y, smoothing.SmoothingConfig(alpha=alpha))
    # F_1 is the first observation, so it shifts with the series.
    shifted = smoothing.smooth([v + c for v in y], smoothing.SmoothingConfig(alpha=alpha))
    assert shifted == pytest.approx(base + c, abs=1e-9)


def test_weight_expansion_alpha_one():
    assert np.array_equal(
        weight_expansion(smoothing.SmoothingConfig(alpha=1.0), 3),
        [1.0, 0.0, 0.0, 0.0],
    )


def test_weight_expansion_hand_case():
    weights = weight_expansion(smoothing.SmoothingConfig(alpha=0.2), 2)
    assert weights == pytest.approx([0.2, 0.16, 0.64], rel=1e-14)


def test_weight_expansion_needs_one_observation():
    with pytest.raises(ValueError, match="^t must be at least 1, got 0$"):
        weight_expansion(smoothing.SmoothingConfig(), 0)


@given(st.sampled_from(alpha_grid), st.integers(1, 100))
def test_weights_sum_to_one(alpha, t):
    weights = weight_expansion(smoothing.SmoothingConfig(alpha=alpha), t)
    assert weights.size == t + 1
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


@given(series_strategy, st.sampled_from(alpha_grid))
def test_expansion_reproduces_recurrence(y, alpha):
    config = smoothing.SmoothingConfig(alpha=alpha)
    forecasts = smoothing.smooth(y, config)
    t = len(y)
    weights = weight_expansion(config, t)
    # Dot with (Y_t, ..., Y_1, F_1), newest first.
    stacked = np.concatenate((y[::-1], [forecasts[0]]))
    assert float(weights @ stacked) == pytest.approx(forecasts[-1], abs=1e-12)


def test_fit_alpha_needs_three_points():
    with pytest.raises(InsufficientDataError):
        smoothing.fit_alpha([1.0, 2.0])


def test_fit_alpha_needs_a_grid():
    with pytest.raises(ValueError, match="^alpha grid must be non-empty$"):
        smoothing.fit_alpha([1.0, 2.0, 3.0], grid=[])


@pytest.mark.parametrize("bad", [-0.1, 1.5, 2.0, float("nan"), float("inf")])
def test_fit_alpha_rejects_grid_alphas_outside_the_unit_interval(bad):
    # A grid of [2.0] once returned (2.0, 5.0), and [nan] (nan, nan).
    with pytest.raises(ValueError, match=f"^alpha must lie in \\[0, 1\\], got {bad}$"):
        smoothing.fit_alpha([1.0, 2.0, 3.0, 5.0], grid=[0.5, bad])
    assert smoothing.fit_alpha([1.0, 2.0, 3.0, 5.0], grid=[0.0, 1.0])[0] == 1.0


def test_fit_alpha_frozen_grid_oracle():
    # Independent spreadsheet-style evaluation of the SSE grid for the
    # series (10, 12, 8, 11, 9) with F1 = Y1: SSE grows with alpha, so the
    # 0.1 gridpoint wins with SSE = 4 + 4.84 + 1.0404 + 1.170724.
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    alpha, sse = smoothing.fit_alpha([10.0, 12.0, 8.0, 11.0, 9.0], grid)
    assert alpha == 0.1
    assert sse == pytest.approx(11.051124, abs=1e-9)


def test_fit_alpha_prefers_fast_tracking_on_level_shift():
    # A single level shift rewards forgetting the old level quickly.
    y = [0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0]
    alpha, _ = smoothing.fit_alpha(y, [0.1, 0.9])
    assert alpha == 0.9


def test_fit_alpha_survives_huge_values():
    # Near 1e200 the squared errors overflow unless the series is scaled first.
    y = [0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0]
    alpha, sse = smoothing.fit_alpha(y, [0.1, 0.9])
    assert alpha == 0.9
    assert smoothing.fit_alpha([1e200 * v for v in y], [0.1, 0.9]) == (0.9, float("inf"))
    assert smoothing.fit_alpha([2.0**400 * v for v in y], [0.1, 0.9]) == (0.9, 2.0**800 * sse)


def test_fit_alpha_constant_series_ties_to_smallest():
    alpha, sse = smoothing.fit_alpha([5.0, 5.0, 5.0, 5.0], [0.3, 0.6, 0.9])
    assert alpha == 0.3
    assert sse == 0.0


def test_fit_alpha_default_grid():
    assert smoothing.DEFAULT_FIT_GRID[0] == 0.05
    assert smoothing.DEFAULT_FIT_GRID[-1] == 0.95
    assert len(smoothing.DEFAULT_FIT_GRID) == 19


def per_alpha_fit(y, grid):
    """Reference fit: one smooth() per candidate, first strict minimum wins.

    The series is scaled by a power of two to a largest value in [0.5, 1)
    before its sums, as fit_alpha does, and the SSE scaled back.
    """
    exponent = math.frexp(float(np.abs(y).max()))[1]
    y = np.ldexp(y, -exponent)
    best = None
    for alpha in sorted(grid):
        errors = y - smoothing.smooth(y, smoothing.SmoothingConfig(alpha))[:-1]
        sse = float(errors @ errors)
        if best is None or sse < best[1]:
            best = (alpha, sse)
    return best[0], math.ldexp(best[1], 2 * exponent)


@given(st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=120))
def test_fit_alpha_matches_per_alpha_reference(y):
    alpha, sse = smoothing.fit_alpha(y)
    ref_alpha, ref_sse = per_alpha_fit(y, smoothing.DEFAULT_FIT_GRID)
    assert alpha == ref_alpha
    assert sse == pytest.approx(ref_sse, rel=1e-12, abs=0.0)


@given(st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=60))
def test_fit_alpha_sse_sums_each_error_row_contiguously(y):
    # The winner's SSE must be np.vecdot of its contiguous error row, of the
    # series scaled as fit_alpha scales it, bit for bit, as a strided row
    # sums in another order.
    alpha, sse = smoothing.fit_alpha(y)
    exponent = math.frexp(float(np.abs(y).max()))[1]
    scaled = np.ldexp(y, -exponent)
    errors = scaled - smoothing.smooth(scaled, smoothing.SmoothingConfig(alpha))[:-1]
    assert sse == math.ldexp(float(np.vecdot(errors, errors)), 2 * exponent)


def test_fit_alpha_is_scale_free():
    # A walk scaled by a power of two, into the subnormal range too, fits the
    # unscaled alpha. Left unscaled, a tiny walk's squared errors underflow
    # and it fits the grid's smallest alpha.
    walks = np.cumsum(np.random.default_rng(1).standard_normal((200, 20)), axis=1)
    for walk in walks:
        alpha, sse = smoothing.fit_alpha(walk)
        for exponent in (-1040, -600, -3):
            assert smoothing.fit_alpha(np.ldexp(walk, exponent))[0] == alpha
        assert smoothing.fit_alpha(np.ldexp(walk, -3))[1] == math.ldexp(sse, -6)
