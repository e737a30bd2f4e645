import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="init_value must be finite"):
            smoothing.SmoothingConfig(init_value=bad)


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
    result = smoothing.smooth(y, smoothing.SmoothingConfig(alpha=1.0))
    assert np.array_equal(result.forecasts[1:], y)
    assert result.forecasts[0] == y[0]


def test_alpha_zero_never_learns():
    result = smoothing.smooth(
        [3.0, 1.0, 4.0], smoothing.SmoothingConfig(alpha=0.0, init_value=7.0)
    )
    assert np.array_equal(result.forecasts, np.full(4, 7.0))


def test_hand_computed_recurrence():
    # F1 = Y1 = 10; F2 = 10; F3 = 0.2*12 + 0.8*10 = 10.4; F4 = 9.92.
    result = smoothing.smooth([10.0, 12.0, 8.0], smoothing.SmoothingConfig(alpha=0.2))
    assert result.forecasts == pytest.approx([10.0, 10.0, 10.4, 9.92], rel=1e-14)


@given(series_strategy, st.sampled_from(alpha_grid))
def test_recurrence_holds_everywhere(y, alpha):
    config = smoothing.SmoothingConfig(alpha=alpha)
    result = smoothing.smooth(y, config)
    assert result.forecasts.size == len(y) + 1
    for k in range(len(y)):
        expected = alpha * y[k] + (1.0 - alpha) * result.forecasts[k]
        assert result.forecasts[k + 1] == pytest.approx(expected, abs=1e-12)


@given(series_strategy, st.sampled_from(alpha_grid))
def test_forecasts_stay_inside_observed_range(y, alpha):
    result = smoothing.smooth(y, smoothing.SmoothingConfig(alpha=alpha))
    lo = min(min(y), y[0])
    hi = max(max(y), y[0])
    assert np.all(result.forecasts >= lo - 1e-9)
    assert np.all(result.forecasts <= hi + 1e-9)


@given(series_strategy, st.sampled_from(alpha_grid), st.floats(-50.0, 50.0))
def test_shift_equivariance(y, alpha, c):
    base = smoothing.smooth(y, smoothing.SmoothingConfig(alpha=alpha))
    shifted = smoothing.smooth(
        [v + c for v in y],
        smoothing.SmoothingConfig(alpha=alpha, init_value=y[0] + c),
    )
    assert shifted.forecasts == pytest.approx(base.forecasts + c, abs=1e-9)


def test_weight_expansion_alpha_one():
    assert np.array_equal(
        smoothing.weight_expansion(smoothing.SmoothingConfig(alpha=1.0), 3),
        [1.0, 0.0, 0.0, 0.0],
    )


def test_weight_expansion_hand_case():
    weights = smoothing.weight_expansion(smoothing.SmoothingConfig(alpha=0.2), 2)
    assert weights == pytest.approx([0.2, 0.16, 0.64], rel=1e-14)


@given(st.sampled_from(alpha_grid), st.integers(1, 100))
def test_weights_sum_to_one(alpha, t):
    weights = smoothing.weight_expansion(smoothing.SmoothingConfig(alpha=alpha), t)
    assert weights.size == t + 1
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


@given(series_strategy, st.sampled_from(alpha_grid))
def test_expansion_reproduces_recurrence(y, alpha):
    config = smoothing.SmoothingConfig(alpha=alpha)
    result = smoothing.smooth(y, config)
    t = len(y)
    weights = smoothing.weight_expansion(config, t)
    # Dot with (Y_t, ..., Y_1, F_1), newest first.
    stacked = np.concatenate((y[::-1], [result.forecasts[0]]))
    assert float(weights @ stacked) == pytest.approx(result.forecasts[-1], abs=1e-12)


def test_fit_alpha_needs_three_points():
    with pytest.raises(InsufficientDataError):
        smoothing.fit_alpha([1.0, 2.0])


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
    """Reference fit: one smooth() per candidate, first strict minimum wins."""
    best = None
    for alpha in sorted(grid):
        errors = np.asarray(y) - smoothing.smooth(y, smoothing.SmoothingConfig(alpha)).forecasts[:-1]
        sse = float(errors @ errors)
        if best is None or sse < best[1]:
            best = (alpha, sse)
    return best


@given(st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=120))
def test_fit_alpha_matches_per_alpha_reference(y):
    alpha, sse = smoothing.fit_alpha(y)
    ref_alpha, ref_sse = per_alpha_fit(y, smoothing.DEFAULT_FIT_GRID)
    assert alpha == ref_alpha
    assert sse == pytest.approx(ref_sse, rel=1e-12, abs=0.0)


@given(st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=60))
def test_fit_alpha_sse_sums_each_error_row_contiguously(y):
    # Below 0.5 in magnitude no scaling applies; the winner's SSE must be
    # np.vecdot of its contiguous error row bit for bit, as a strided row
    # sums in another order.
    alpha, sse = smoothing.fit_alpha(y)
    errors = np.asarray(y) - smoothing.smooth(y, smoothing.SmoothingConfig(alpha)).forecasts[:-1]
    assert sse == float(np.vecdot(errors, errors))
