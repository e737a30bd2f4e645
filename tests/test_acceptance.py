"""Acceptance checks for the package's headline guarantees.

Each test exercises one advertised behavior at its stated tolerance and
records a one-line verdict that the terminal summary prints as a numbered
checklist. Expected values come from independent routes (Monte Carlo,
quadrature, brute-force statistics, a frozen fixture), never from the
code path under test.

Check 3 needs one caveat. The zero-limit branches of the long-horizon
convergence (conditioning on the rare side of the threshold) approach
their limit like sigma**2 / (|nu| * T), which is about 9e-5 at T = 1e4
for sigma = 0.3, nu = -0.1. No correct implementation can push that
below 1e-6 at this horizon, so those branches assert strict decrease
plus the algebraic envelope 2 * sigma**2 / (|nu| * T) instead; the fast
branches keep the 1e-6 endpoint. The envelope: with C = 0 the gap is
(sigma/sqrt(T)) * (lambda(d) - d) for d = |nu|*sqrt(T)/sigma and lambda the
inverse Mills ratio, and d < lambda(d) < d + 1/d bounds it by sigma**2/(|nu|*T).
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import record_criterion
from oracles import conditional_nu_quadrature, monte_carlo_conditional, weight_expansion
from test_diagnostics import AR1_FIXTURE, AR1_Q_ORACLE

from driftbias import (
    ConditionalQuery,
    Direction,
    PipelineConfig,
    SmoothingConfig,
    asymptotic_limit,
    bias_surface,
    conditional_mu,
    conditional_nu,
    estimate_unconditional,
    ljung_box,
    log_returns,
    score_records,
    simulate_gbm,
    smooth,
)
from driftbias.errors import DegenerateConditionError

ACCEPT_SEED = 20240819

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# stress grid shared by checks 1 and 2: 5 x 5 x 3 cells, both directions
NU_GRID = (-0.2, -0.05, 0.0, 0.05, 0.2)
C_GRID = (-0.3, -0.1, 0.0, 0.1, 0.3)
SIGMA_GRID = (0.1, 0.3, 0.6)
GRID_T = 1.0


def grid_queries() -> list[ConditionalQuery]:
    queries = []
    for direction in (Direction.ABOVE, Direction.AT_OR_BELOW):
        for nu in NU_GRID:
            for c in C_GRID:
                for sigma in SIGMA_GRID:
                    queries.append(
                        ConditionalQuery(nu=nu, sigma=sigma, T=GRID_T, C=c, direction=direction)
                    )
    return queries


def test_closed_form_matches_monte_carlo_across_grid():
    queries = grid_queries()
    assert len(queries) == 150
    paths = 1_000_000
    checked = within = skipped = 0
    start = time.perf_counter()
    for index, q in enumerate(queries):
        try:
            mc = monte_carlo_conditional(q, paths=paths, seed=ACCEPT_SEED + index)
        except DegenerateConditionError:
            skipped += 1
            continue
        # a handful of kept paths gives a useless standard error
        if mc.retained < 100:
            skipped += 1
            continue
        closed = conditional_nu(q).expectation
        checked += 1
        if abs(closed - mc.mean) <= 3.0 * mc.std_error:
            within += 1
    elapsed = time.perf_counter() - start
    fraction = within / checked
    ok = fraction >= 0.95 and skipped <= 5 and elapsed < 60.0
    record_criterion(
        1,
        "closed-form conditional drift matches 1e6-path Monte Carlo on the stress grid",
        ok,
        f"{within}/{checked} cells within 3 SE, {skipped} near-degenerate skipped, {elapsed:.1f}s",
    )
    assert fraction >= 0.95
    assert skipped <= 5
    assert elapsed < 60.0


def test_quadrature_agrees_with_closed_form_across_grid():
    worst = 0.0
    for q in grid_queries():
        closed = conditional_nu(q).expectation
        quad = conditional_nu_quadrature(q)
        worst = max(worst, abs(quad - closed) / abs(closed))
    ok = worst <= 1e-8
    record_criterion(
        2,
        "numerical quadrature reproduces the closed form on the stress grid",
        ok,
        f"worst relative error {worst:.3e}",
    )
    assert worst <= 1e-8


def test_long_horizon_convergence_to_asymptotic_limits():
    horizons = (1.0, 10.0, 100.0, 1e4)
    sigma = 0.3
    # (nu, direction, fast): fast branches converge like exp(-d**2/2),
    # zero-limit branches only like sigma**2 / (|nu| * T)
    cases = (
        (0.1, Direction.ABOVE, True),
        (-0.1, Direction.ABOVE, False),
        (-0.1, Direction.AT_OR_BELOW, True),
        (0.1, Direction.AT_OR_BELOW, False),
    )
    endpoint_gaps = []
    for nu, direction, fast in cases:
        limit = asymptotic_limit(nu, direction)
        assert limit == (nu if fast else 0.0)
        gaps = []
        for horizon in horizons:
            q = ConditionalQuery(nu=nu, sigma=sigma, T=horizon, C=0.0, direction=direction)
            gaps.append(abs(conditional_nu(q).expectation - limit))
        assert all(a > b for a, b in zip(gaps, gaps[1:])), (nu, direction, gaps)
        if fast:
            assert gaps[-1] < 1e-6, (nu, direction, gaps[-1])
        else:
            for horizon, gap in zip(horizons, gaps):
                assert gap < 2.0 * sigma * sigma / (abs(nu) * horizon), (nu, direction, horizon)
        endpoint_gaps.append(gaps[-1])
    record_criterion(
        3,
        "conditional expectation converges to its long-horizon limit",
        True,
        "endpoint gaps at T=1e4: "
        + ", ".join(f"{gap:.2e}" for gap in endpoint_gaps)
        + " (zero-limit branches checked against the sigma**2/(|nu|T) envelope)",
    )


def test_variance_estimator_concentrates_with_sample_size():
    true_sigma2 = 0.09
    seeds = 200
    errors = {}
    for steps, base in ((250, 90_000), (10_000, 95_000)):
        total = 0.0
        for i in range(seeds):
            path = simulate_gbm(0.1, 0.3, 100.0, 1.0, steps, seed=base + i)
            estimate = estimate_unconditional(log_returns(path))
            total += abs(estimate.sigma2_hat - true_sigma2)
        errors[steps] = total / seeds
    bound = 0.05 * true_sigma2
    ok = errors[10_000] < bound and errors[10_000] < errors[250]
    record_criterion(
        4,
        "variance estimate tightens from n=250 to n=10000",
        ok,
        f"mean |sigma2_hat - 0.09|: {errors[250]:.2e} at n=250, {errors[10_000]:.2e} at n=10000",
    )
    assert errors[10_000] < bound
    assert errors[10_000] < errors[250]


def test_surface_monotone_in_threshold_and_vacuous_limit():
    grid = [round(-0.5 + 0.05 * j, 10) for j in range(21)]
    cells = bias_surface(grid, grid, sigma=0.3, T=1.0, direction=Direction.ABOVE)
    assert all(cell.flag == "ok" for cell in cells)
    rows = [cells[i : i + len(grid)] for i in range(0, len(cells), len(grid))]
    for row in rows:
        values = [cell.expectation for cell in row]
        assert all(a < b for a, b in zip(values, values[1:])), row[0].mu
    worst_vacuous = 0.0
    for mu in grid:
        q = ConditionalQuery(nu=mu - 0.045, sigma=0.3, T=1.0, C=-50.0, direction=Direction.ABOVE)
        worst_vacuous = max(worst_vacuous, abs(conditional_mu(q).expectation - mu))
    ok = worst_vacuous <= 1e-10
    record_criterion(
        5,
        "expectation surface rises with the threshold and collapses to mu when vacuous",
        ok,
        f"{len(rows)} strictly increasing rows, vacuous gap {worst_vacuous:.1e}",
    )
    assert worst_vacuous <= 1e-10


def _random_biases(rng: np.random.Generator, count: int) -> list[float]:
    """A pipeline-shaped bias series: the first period is never invested, so its bias is zero,
    and a later period's bias is zero where it was not invested."""
    biases = []
    for i in range(count):
        invested = i >= 1 and rng.random() > 0.2
        biases.append(float(rng.normal(0.1, 0.3)) if invested else 0.0)
    return biases


def test_smoothing_identities():
    rng = np.random.default_rng(ACCEPT_SEED)
    alphas = (0.0, 0.05, 0.2, 0.5, 0.8, 1.0)

    # recurrence and weight expansion are the same operator
    worst_expansion = 0.0
    for alpha in alphas:
        config = SmoothingConfig(alpha=alpha)
        for length in (1, 2, 5, 17, 60):
            observations = rng.normal(0.0, 1.0, size=length)
            forecasts = smooth(observations, config)
            for t in range(1, length + 1):
                weights = weight_expansion(config, t)
                rebuilt = float(
                    weights[:t] @ observations[:t][::-1] + weights[t] * forecasts[0]
                )
                worst_expansion = max(worst_expansion, abs(rebuilt - forecasts[t]))
    assert worst_expansion <= 1e-12

    # alpha = 1 smoothing degenerates to the one-lag correction on every
    # prefix of >= 3 records
    worst_identity = 0.0
    config = PipelineConfig(alpha=1.0)
    for trial in range(20):
        biases = _random_biases(rng, int(rng.integers(3, 12)))
        for k in range(3, len(biases) + 1):
            report = score_records("R", biases[:k], 0.1, 0.08, config)
            worst_identity = max(
                worst_identity,
                abs(report.es_adjusted - report.simple_adjusted),
                abs(report.sd_es - report.sd_simple),
            )
    assert worst_identity <= 1e-12

    worst_sum = 0.0
    for alpha in alphas:
        config = SmoothingConfig(alpha=alpha)
        for t in range(1, 41):
            worst_sum = max(worst_sum, abs(float(weight_expansion(config, t).sum()) - 1.0))
    assert worst_sum <= 1e-12

    record_criterion(
        6,
        "smoothing recurrence, weight expansion, and alpha=1 identities hold",
        True,
        f"expansion gap {worst_expansion:.1e}, alpha=1 gap {worst_identity:.1e}, "
        f"weight-sum gap {worst_sum:.1e}",
    )


def test_ljung_box_size_and_frozen_statistic():
    trials = 1000
    rejections = 0
    for i in range(trials):
        series = np.random.default_rng((ACCEPT_SEED, i)).standard_normal(500)
        if ljung_box(series, 10).p_value < 0.05:
            rejections += 1
    rate = rejections / trials

    frozen = ljung_box(AR1_FIXTURE, 10)
    frozen_gap = abs(frozen.q_statistic - AR1_Q_ORACLE)

    ok = 0.03 <= rate <= 0.07 and frozen_gap <= 1e-6
    record_criterion(
        7,
        "white-noise rejection rate sits near the nominal 5% level",
        ok,
        f"rate {rate:.1%} over {trials} series, frozen-statistic gap {frozen_gap:.1e}",
    )
    assert 0.03 <= rate <= 0.07
    assert frozen_gap <= 1e-6


# injected-bias study: persistent AR component, measurement noise, and a
# level shift; sized so smoothing has signal to exploit but raw does not
STUDY_MEAN_BIAS = 0.3
STUDY_SIGMA_U = 0.4
STUDY_SIGMA_W = 0.3
STUDY_RHO = 0.9
STUDY_STOCKS = 10
STUDY_PERIODS = 10


def _study_seed_totals(seed: int) -> tuple[float, float, float]:
    """Total squared deviations (raw, simple, smoothed) for one replication."""
    totals = np.zeros(3)
    innovation_scale = STUDY_SIGMA_U * math.sqrt(1.0 - STUDY_RHO * STUDY_RHO)
    for k in range(STUDY_STOCKS):
        mu, sigma = 0.06 + 0.01 * k, 0.1 + 0.02 * k
        rng = np.random.default_rng((ACCEPT_SEED, seed, k))
        # Only the holdout period's path is simulated: the bias series is injected.
        holdout_nu_hat = estimate_unconditional(
            log_returns(
                simulate_gbm(
                    mu, sigma, 100.0, 1.0, 252,
                    seed=np.random.SeedSequence((ACCEPT_SEED, seed, k, STUDY_PERIODS)),
                )
            )
        ).nu_hat
        u = float(rng.standard_normal()) * STUDY_SIGMA_U
        biases = [0.0]
        for _ in range(1, STUDY_PERIODS):
            u = STUDY_RHO * u + float(rng.standard_normal()) * innovation_scale
            biases.append(STUDY_MEAN_BIAS + u + float(rng.standard_normal()) * STUDY_SIGMA_W)
        u_next = STUDY_RHO * u + float(rng.standard_normal()) * innovation_scale
        bias_next = STUDY_MEAN_BIAS + u_next + float(rng.standard_normal()) * STUDY_SIGMA_W
        report = score_records(
            f"{k:06d}",
            biases,
            raw_next=mu - 0.5 * sigma * sigma + bias_next,
            holdout_nu_hat=holdout_nu_hat,
            config=PipelineConfig(),
        )
        totals += (report.sd_raw, report.sd_simple, report.sd_es)
    return float(totals[0]), float(totals[1]), float(totals[2])


def test_smoothing_beats_raw_forecasts_under_injected_bias():
    seeds = 200
    results = np.array([_study_seed_totals(seed) for seed in range(seeds)])
    raw, simple, smoothed = results[:, 0], results[:, 1], results[:, 2]
    win_rate = float(np.mean(smoothed < raw))
    medians = (
        float(np.median(raw)),
        float(np.median(simple)),
        float(np.median(smoothed)),
    )
    ordered = medians[2] < medians[1] < medians[0]
    ok = win_rate >= 0.80 and ordered
    record_criterion(
        8,
        "smoothed correction beats the raw forecast under injected persistent bias",
        ok,
        f"win rate {win_rate:.1%} over {seeds} seeds, "
        f"median totals raw={medians[0]:.2f} simple={medians[1]:.2f} smoothed={medians[2]:.2f}",
    )
    assert win_rate >= 0.80
    assert ordered


def test_pipeline_runs_are_byte_identical():
    command = [
        sys.executable,
        "-m",
        "driftbias",
        "pipeline",
        "--prices",
        str(FIXTURES / "prices.csv"),
        "--capm",
        str(FIXTURES / "capm.csv"),
        "--config",
        str(FIXTURES / "pipeline.cfg"),
    ]
    first = subprocess.run(command, capture_output=True, check=True)
    second = subprocess.run(command, capture_output=True, check=True)
    identical = first.stdout == second.stdout and len(first.stdout) > 0
    record_criterion(
        9,
        "two pipeline runs on the shipped fixture emit identical bytes",
        identical,
        f"{len(first.stdout)} bytes of CSV per run",
    )
    assert identical
