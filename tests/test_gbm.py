import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import substream

from driftbias import gbm
from driftbias.errors import InsufficientDataError, ParseError


def test_params_reject_nonpositive_sigma():
    for sigma in (0.0, -0.3):
        with pytest.raises(ValueError, match=f"sigma must be positive, got {sigma}"):
            gbm.simulate_gbm(0.1, sigma, a0=100.0, T=1.0, n=10, seed=1)
        with pytest.raises(ValueError, match=f"sigma must be positive, got {sigma}"):
            gbm.path_from_normals(0.1, sigma, a0=100.0, T=1.0, normals=np.zeros(4))


@pytest.mark.parametrize("mu, sigma", [(math.nan, 0.3), (math.inf, 0.3), (0.1, math.inf)])
def test_params_reject_non_finite(mu, sigma):
    with pytest.raises(ValueError, match="finite"):
        gbm.simulate_gbm(mu, sigma, a0=100.0, T=1.0, n=10, seed=1)
    with pytest.raises(ValueError, match="finite"):
        gbm.path_from_normals(mu, sigma, a0=100.0, T=1.0, normals=np.zeros(4))


def test_simulate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gbm.simulate_gbm(0.1, 0.3, a0=-1.0, T=1.0, n=10, seed=1)
    with pytest.raises(ValueError):
        gbm.simulate_gbm(0.1, 0.3, a0=100.0, T=0.0, n=10, seed=1)
    with pytest.raises(ValueError):
        gbm.simulate_gbm(0.1, 0.3, a0=100.0, T=1.0, n=0, seed=1)
    with pytest.raises(ValueError, match="finite"):
        gbm.simulate_gbm(0.1, 0.3, a0=math.inf, T=1.0, n=10, seed=1)
    with pytest.raises(ValueError, match="finite"):
        gbm.simulate_gbm(0.1, 0.3, a0=100.0, T=math.inf, n=10, seed=1)


def test_zero_noise_path_grows_at_nu():
    # All-zero normals isolate the deterministic part of the update, whose
    # log drift is nu = mu - sigma**2 / 2 = 0.1 - 0.045.
    path = gbm.path_from_normals(0.1, 0.3, a0=100.0, T=1.0, normals=np.zeros(4))
    assert path.prices[-1] == pytest.approx(100.0 * math.exp(0.055), rel=1e-12)


def test_simulate_matches_exact_update_scheme():
    # Reconstruct the path from the same seeded stream; must match bit for bit.
    mu, sigma = 0.1, 0.3
    path = gbm.simulate_gbm(mu, sigma, a0=100.0, T=1.0, n=252, seed=42)
    xi = np.random.default_rng(42).standard_normal(252)
    h = 1.0 / 252.0
    increments = (mu - 0.5 * sigma * sigma) * h + sigma * math.sqrt(h) * xi
    expected = 100.0 * np.exp(np.cumsum(increments))
    assert path.prices[0] == 100.0
    assert np.array_equal(path.prices[1:], expected)


def test_simulate_is_deterministic_per_seed():
    a = gbm.simulate_gbm(0.1, 0.3, a0=100.0, T=1.0, n=100, seed=7)
    b = gbm.simulate_gbm(0.1, 0.3, a0=100.0, T=1.0, n=100, seed=7)
    c = gbm.simulate_gbm(0.1, 0.3, a0=100.0, T=1.0, n=100, seed=8)
    assert np.array_equal(a.prices, b.prices)
    assert not np.array_equal(a.prices, c.prices)
    assert gbm.write_price_csv(a) == gbm.write_price_csv(b)


def test_substreams_are_deterministic_and_distinct():
    one = np.random.default_rng(substream(123, 0)).standard_normal(8)
    one_again = np.random.default_rng(substream(123, 0)).standard_normal(8)
    other = np.random.default_rng(substream(123, 1)).standard_normal(8)
    assert np.array_equal(one, one_again)
    assert not np.array_equal(one, other)


def test_terminal_log_return_moments():
    # Z_T - Z_0 ~ N(nu*T, sigma^2*T); check both moments over many paths.
    mu, sigma = 0.1, 0.3
    nu = mu - 0.5 * sigma * sigma
    n_paths = 100_000
    rng = np.random.default_rng(substream(2024, 0))
    xi = rng.standard_normal((n_paths, 4))
    h = 0.25
    z = np.sum(nu * h + sigma * math.sqrt(h) * xi, axis=1)
    se = sigma / math.sqrt(n_paths)
    assert abs(z.mean() - nu) <= 3.0 * se
    assert abs(z.var(ddof=1) - 0.09) <= 0.05 * 0.09


def test_log_returns_constant_price():
    path = gbm.PricePath(step_h=1.0, prices=(100.0, 100.0, 100.0))
    series = gbm.log_returns(path)
    assert np.array_equal(series.returns, np.zeros(2))
    assert series.total == 0.0


def test_log_returns_single_step():
    path = gbm.PricePath(step_h=1.0, prices=(100.0, 110.0))
    series = gbm.log_returns(path)
    assert series.returns[0] == pytest.approx(math.log(1.1), rel=1e-15)


def test_log_returns_round_trip_cancels():
    path = gbm.PricePath(step_h=1.0, prices=(100.0, 50.0, 100.0))
    series = gbm.log_returns(path)
    assert series.returns[0] == -series.returns[1]
    assert series.total == 0.0


def test_estimate_hand_case():
    # r = (0.01, 0.03), h = 1/252: nu_hat = 0.04*252/2, sigma2 = 2e-4*252.
    series = gbm.ReturnSeries(step_h=1.0 / 252.0, returns=(0.01, 0.03))
    result = gbm.estimate_unconditional(series)
    assert result.nu_hat == pytest.approx(5.04, rel=1e-12)
    assert result.sigma2_hat == pytest.approx(0.0504, rel=1e-12)
    assert result.n == 2
    assert result.T == pytest.approx(2.0 / 252.0, rel=1e-15)


def test_estimate_zero_returns():
    series = gbm.ReturnSeries(step_h=0.5, returns=(0.0, 0.0, 0.0))
    result = gbm.estimate_unconditional(series)
    assert result.nu_hat == 0.0
    assert result.sigma2_hat == 0.0


def test_return_series_and_estimate_validation():
    with pytest.raises(ValueError, match=r"^step_h must be positive, got 0\.0$"):
        gbm.ReturnSeries(step_h=0.0, returns=(0.01,))
    with pytest.raises(ValueError, match="^a return series needs at least one return$"):
        gbm.ReturnSeries(step_h=1.0, returns=())
    with pytest.raises(ValueError, match="^sigma2_hat cannot be negative$"):
        gbm.EstimateResult(nu_hat=0.0, sigma2_hat=-1.0, n=2, T=1.0)


def test_paths_and_series_need_a_finite_step():
    # An infinite step once gave nu_hat = 0.0 and T = inf without a word.
    with pytest.raises(ValueError, match="^step_h must be finite, got inf$"):
        gbm.PricePath(step_h=math.inf, prices=(1.0, 2.0))
    with pytest.raises(ValueError, match="^step_h must be finite, got inf$"):
        gbm.ReturnSeries(step_h=math.inf, returns=(0.01, 0.02))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_return_series_rejects_non_finite_values(bad):
    # Before summing them into the default total, which would warn or give nan.
    with pytest.raises(ValueError, match=f"^returns must be finite, got {bad}$"):
        gbm.ReturnSeries(step_h=1.0, returns=(0.01, bad, 0.02))
    with pytest.raises(ValueError, match=f"^total must be finite, got {bad}$"):
        gbm.ReturnSeries(step_h=1.0, returns=(0.01, 0.02), total=bad)


def test_estimate_needs_two_returns():
    series = gbm.ReturnSeries(step_h=1.0, returns=(0.01,))
    with pytest.raises(InsufficientDataError):
        gbm.estimate_unconditional(series)


@given(
    sizes=st.lists(st.integers(3, 600), min_size=1, max_size=12),
    steps=st.lists(st.sampled_from([1.0 / 252, 1.0 / 12, 0.5]), min_size=12, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_segments_matches_one_path_estimates(sizes, steps, seed):
    rng = np.random.default_rng(seed)
    paths = [
        gbm.PricePath(step_h=step, prices=np.exp(rng.normal(0.0, 0.05, size).cumsum()))
        for size, step in zip(sizes, steps)
    ]
    closes = np.concatenate([path.prices for path in paths])
    nu_hat, sigma2_hat, totals = gbm._estimate_segments(closes, np.array(sizes), np.array(steps[: len(sizes)]))
    for k, path in enumerate(paths):
        series = gbm.log_returns(path)
        single = gbm.estimate_unconditional(series)
        assert nu_hat[k] == pytest.approx(single.nu_hat, rel=1e-12, abs=0.0)
        assert sigma2_hat[k] == pytest.approx(single.sigma2_hat, rel=1e-12, abs=0.0)
        assert sigma2_hat[k] == pytest.approx(np.var(series.returns, ddof=1) / path.step_h, rel=1e-12, abs=0.0)
        assert totals[k] == series.total


def test_estimate_segments_needs_two_returns_per_segment():
    with pytest.raises(InsufficientDataError, match="needs n >= 2 returns, got 1"):
        gbm._estimate_segments(np.array([1.0, 2.0, 3.0, 1.0, 2.0]), np.array([3, 2]), 1.0)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=64),
)
def test_nu_hat_equals_endpoint_slope(seed, n):
    # Algebraic identity: nu_hat reduces to the endpoint log-price slope.
    path = gbm.simulate_gbm(0.08, 0.25, a0=50.0, T=0.5, n=n, seed=seed)
    result = gbm.estimate_unconditional(gbm.log_returns(path))
    slope = (math.log(path.prices[-1]) - math.log(path.prices[0])) / 0.5
    assert result.nu_hat == pytest.approx(slope, rel=1e-9, abs=1e-12)


def test_sigma2_estimate_concentrates_near_truth():
    # sigma2_hat within 5% of 0.09 in at least 99% of seeds at n = 10^4.
    hits = 0
    trials = 300
    for seed in range(trials):
        path = gbm.simulate_gbm(0.1, 0.3, a0=100.0, T=1.0, n=10_000, seed=substream(5150, seed))
        result = gbm.estimate_unconditional(gbm.log_returns(path))
        if abs(result.sigma2_hat - 0.09) <= 0.05 * 0.09:
            hits += 1
    assert hits / trials >= 0.99


def test_price_csv_round_trip(tmp_path):
    path = gbm.simulate_gbm(0.1, 0.3, a0=100.0, T=1.0, n=25, seed=3)
    text = gbm.write_price_csv(path)
    assert text.splitlines()[0] == "date_index,price"
    target = tmp_path / "prices.csv"
    target.write_text(text)
    back = gbm.read_price_csv(str(target), step_h=path.step_h)
    assert np.array_equal(back.prices, path.prices)


def test_read_price_csv_rejects_bad_rows(tmp_path):
    target = tmp_path / "prices.csv"
    target.write_text("wrong,header\n0,100\n")
    with pytest.raises(ParseError):
        gbm.read_price_csv(str(target), step_h=1.0)
    target.write_text("date_index,price\n0,100\n1,-5\n")
    with pytest.raises(ParseError, match="line 3"):
        gbm.read_price_csv(str(target), step_h=1.0)
    target.write_text("date_index,price\n0,abc\n")
    with pytest.raises(ParseError, match="line 2"):
        gbm.read_price_csv(str(target), step_h=1.0)
    target.write_text("date_index,price\n0,1.0\n2,1.5\n")
    with pytest.raises(ParseError) as excinfo:
        gbm.read_price_csv(str(target), step_h=1.0)
    assert str(excinfo.value) == f"{target}: line 3: date_index must count up from 0, got 2"


def test_price_path_validation():
    with pytest.raises(ValueError):
        gbm.PricePath(step_h=1.0, prices=(100.0,))
    with pytest.raises(ValueError):
        gbm.PricePath(step_h=0.0, prices=(100.0, 101.0))
    with pytest.raises(ValueError):
        gbm.PricePath(step_h=1.0, prices=(100.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        gbm.PricePath(step_h=1.0, prices=(100.0, math.inf))


def test_paths_are_read_only():
    path = gbm.PricePath(step_h=1.0, prices=(100.0, 101.0))
    with pytest.raises(ValueError):
        path.prices[0] = 1.0
