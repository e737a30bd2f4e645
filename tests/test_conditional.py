import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftbias import conditional as ce
from driftbias.errors import DegenerateConditionError

ABOVE = ce.Direction.ABOVE
BELOW = ce.Direction.AT_OR_BELOW

# Frozen reference values, computed by hand from the standard normal:
# phi(0)/0.5 * 0.3 and the one-sided unit-threshold probabilities.
CENTERED_EXPECTATION = 0.2393653682408596
PHI_1 = 0.8413447460685429


def q(nu=0.0, sigma=0.3, T=1.0, C=0.0, direction=ABOVE):
    return ce.ConditionalQuery(nu=nu, sigma=sigma, T=T, C=C, direction=direction)


queries = st.builds(
    q,
    nu=st.floats(-0.5, 0.5),
    sigma=st.floats(0.1, 1.0),
    T=st.floats(0.25, 10.0),
    C=st.floats(-0.5, 0.5),
    direction=st.sampled_from([ABOVE, BELOW]),
)


def test_query_validation():
    with pytest.raises(ValueError):
        q(sigma=0.0)
    with pytest.raises(ValueError):
        q(T=-1.0)
    with pytest.raises(ValueError):
        ce.ConditionalQuery(nu=0.0, sigma=0.3, T=1.0, C=0.0, direction="above")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            q(nu=bad)
        with pytest.raises(ValueError, match="finite"):
            q(C=bad)
    with pytest.raises(ValueError, match="finite"):
        q(sigma=math.inf)
    with pytest.raises(ValueError, match="finite"):
        q(T=math.inf)
    with pytest.raises(ValueError, match="sigma must be positive, got nan"):
        q(sigma=math.nan)
    # The scale sigma * sqrt(T) divides d; an underflow to 0 once escaped as ZeroDivisionError.
    with pytest.raises(ValueError, match="underflows"):
        q(sigma=1e-200, T=1e-300)
    # A subnormal scale overflows d itself, which once came out as -inf.
    for direction in ce.Direction:
        with pytest.raises(ValueError, match="must be finite"):
            q(nu=1.0, sigma=2.2e-311, C=0.0, direction=direction)
    with pytest.raises(ValueError, match="must be finite"):
        q(nu=-1e308, sigma=0.3, C=1e308)


def test_mills_argument():
    assert q().mills_argument == 0.0
    assert q(nu=0.3, C=0.0).mills_argument == pytest.approx(-1.0, rel=1e-15)
    assert q(nu=0.0, C=0.3).mills_argument == pytest.approx(1.0, rel=1e-15)


def test_centered_above():
    result = ce.conditional_nu(q())
    assert result.tail_probability == 0.5
    assert result.expectation == pytest.approx(CENTERED_EXPECTATION, rel=1e-12)
    assert result.bias == pytest.approx(CENTERED_EXPECTATION, rel=1e-12)
    assert result.mills_argument == 0.0


def test_centered_below_mirrors_above():
    result = ce.conditional_nu(q(direction=BELOW))
    assert result.tail_probability == 0.5
    assert result.expectation == pytest.approx(-CENTERED_EXPECTATION, rel=1e-12)


def test_vacuous_condition_returns_nu():
    result = ce.conditional_nu(q(nu=0.1, C=-50.0))
    assert abs(result.expectation - 0.1) < 1e-10
    assert result.tail_probability == 1.0  # rounds up from 1 - 6e-6196


def test_conditional_mu_offset():
    base = ce.conditional_nu(q())
    shifted = ce.conditional_mu(q())
    assert shifted.expectation - base.expectation == pytest.approx(0.045, rel=1e-12)
    assert shifted.expectation == pytest.approx(0.28437, abs=5e-6)
    assert shifted.bias == base.bias
    assert shifted.tail_probability == base.tail_probability


@given(queries)
def test_conditional_mu_bias_matches_nu_bias(query):
    assert ce.conditional_mu(query).bias == ce.conditional_nu(query).bias


def tail_probability(query):
    return ce.conditional_nu(query).tail_probability


def test_tail_probability_at_median():
    assert tail_probability(q(nu=0.1, C=0.1)) == 0.5
    assert tail_probability(q(nu=0.1, C=0.1, direction=BELOW)) == 0.5


def test_tail_probability_one_sd():
    assert tail_probability(q(C=0.3)) == pytest.approx(1.0 - PHI_1, rel=1e-12)
    assert tail_probability(q(C=0.3, direction=BELOW)) == pytest.approx(PHI_1, rel=1e-12)


@given(queries)
def test_tail_probabilities_complement(query):
    above = tail_probability(ce.ConditionalQuery(query.nu, query.sigma, query.T, query.C, ABOVE))
    below = tail_probability(ce.ConditionalQuery(query.nu, query.sigma, query.T, query.C, BELOW))
    assert above + below == pytest.approx(1.0, abs=1e-15)


def test_asymptotic_limits():
    assert ce.asymptotic_limit(0.2, ABOVE) == 0.2
    assert ce.asymptotic_limit(-0.2, ABOVE) == 0.0
    assert ce.asymptotic_limit(0.0, ABOVE) == 0.0
    assert ce.asymptotic_limit(-0.2, BELOW) == -0.2
    assert ce.asymptotic_limit(0.2, BELOW) == 0.0
    assert ce.asymptotic_limit(0.0, BELOW) == 0.0


@given(queries)
def test_bias_sign_structure(query):
    result = ce.conditional_nu(query)
    if query.direction is ABOVE:
        assert result.bias >= 0.0
        assert result.expectation >= query.nu
    else:
        assert result.bias <= 0.0
        assert result.expectation <= query.nu


@given(queries)
def test_bias_is_expectation_minus_nu(query):
    result = ce.conditional_nu(query)
    assert result.bias == result.expectation - query.nu


@given(
    nu=st.floats(-0.5, 0.5),
    sigma=st.floats(0.1, 1.0),
    T=st.floats(0.25, 10.0),
    C=st.floats(-0.5, 0.5),
)
def test_reflection_symmetry(nu, sigma, T, C):
    # Negating (nu, C) and flipping the direction mirrors the bias exactly:
    # both branches evaluate the same hazard at the same argument.
    above = ce.conditional_nu(ce.ConditionalQuery(nu, sigma, T, C, ABOVE))
    below = ce.conditional_nu(ce.ConditionalQuery(-nu, sigma, T, -C, BELOW))
    assert above.bias == -below.bias


def test_degenerate_above_raises():
    with pytest.raises(DegenerateConditionError, match="R_T > C"):
        ce.conditional_nu(q(nu=0.0, sigma=0.1, T=1.0, C=10.0))
    # d = 4.5e161: the Mills ratio past the guard would overflow with a RuntimeWarning.
    with pytest.raises(DegenerateConditionError, match="R_T > C"):
        ce.conditional_nu(q(nu=0.0, sigma=1.0, T=5e-324, C=1.0))


def test_degenerate_below_raises():
    with pytest.raises(DegenerateConditionError, match="R_T <= C"):
        ce.conditional_nu(q(nu=0.0, sigma=0.1, T=1.0, C=-10.0, direction=BELOW))
    with pytest.raises(DegenerateConditionError, match="R_T <= C"):
        ce.conditional_nu(q(nu=0.0, sigma=1.0, T=5e-324, C=-1.0, direction=BELOW))


def test_guard_boundary_still_finite():
    # d = 36.9 sits just inside the guard; the tail is tiny but non-zero.
    result = ce.conditional_nu(q(nu=0.0, sigma=1.0, T=1.0, C=36.9))
    assert 0.0 < result.tail_probability < 1e-290
    assert math.isfinite(result.expectation)
    assert result.expectation > 36.9  # E[R | R > C] > C


def test_far_tail_expectation_tracks_threshold():
    # For large d the truncated mean approaches C + sigma^2*T/C.
    result = ce.conditional_nu(q(nu=0.0, sigma=1.0, T=1.0, C=30.0))
    assert result.expectation == pytest.approx(30.0 + 1.0 / 30.0, rel=1e-3)


def test_monte_carlo_validates_paths():
    with pytest.raises(ValueError):
        ce.monte_carlo_conditional(q(), paths=999, seed=1)


def test_monte_carlo_matches_closed_form():
    estimate = ce.monte_carlo_conditional(q(), paths=1_000_000, seed=7)
    assert abs(estimate.mean - CENTERED_EXPECTATION) <= 3.0 * estimate.std_error
    frac = estimate.retained / 1_000_000
    binom_se = math.sqrt(0.5 * 0.5 / 1_000_000)
    assert abs(frac - 0.5) <= 3.0 * binom_se


def test_monte_carlo_vacuous_retains_everything():
    estimate = ce.monte_carlo_conditional(q(nu=0.1, C=-50.0), paths=10_000, seed=3)
    assert estimate.retained == 10_000
    assert abs(estimate.mean - 0.1) <= 3.0 * estimate.std_error


def test_monte_carlo_degenerate_raises():
    with pytest.raises(DegenerateConditionError):
        ce.monte_carlo_conditional(q(nu=0.0, sigma=0.1, T=1.0, C=5.0), paths=1000, seed=1)


def test_quadrature_agrees_on_spot_cells():
    cells = [
        q(nu=0.0, C=0.0),
        q(nu=0.2, sigma=0.6, C=-0.3),
        q(nu=-0.2, sigma=0.1, C=0.1),
        q(nu=0.05, sigma=0.3, C=0.3, direction=BELOW),
        q(nu=-0.05, sigma=0.6, C=-0.1, direction=BELOW),
    ]
    for query in cells:
        closed = ce.conditional_nu(query).expectation
        integral = ce.conditional_nu_quadrature(query)
        assert abs(integral - closed) <= 1e-8 * max(1.0, abs(closed))


def test_surface_single_cell_matches_conditional_mu():
    # Every cell of the golden 21 x 21 grid, in both directions, against
    # the scalar path: ok cells bit for bit, flagged cells must be the ones
    # the scalar path rejects. No warning may escape either path.
    grid = np.linspace(-1.0, 1.0, 21)
    sigma = 0.045
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for direction in (ABOVE, BELOW):
            cells = ce.bias_surface(grid, grid, sigma=sigma, T=1.0, direction=direction)
            assert len(cells) == grid.size**2
            flagged = 0
            for cell in cells:
                nu = cell.mu - 0.5 * sigma * sigma
                query = q(nu=nu, sigma=sigma, C=cell.C, direction=direction)
                if cell.flag == "degenerate":
                    flagged += 1
                    assert math.isnan(cell.expectation) and math.isnan(cell.bias)
                    with pytest.raises(DegenerateConditionError):
                        ce.conditional_mu(query)
                    continue
                assert cell.flag == "ok"
                reference = ce.conditional_mu(query)
                assert cell.expectation == reference.expectation
                assert cell.bias == reference.bias
            assert flagged == 10


def test_surface_monotone_in_threshold():
    c_grid = np.linspace(-0.5, 0.5, 11)
    cells = ce.bias_surface([0.1], c_grid, sigma=0.3, T=1.0, direction=ABOVE)
    expectations = [cell.expectation for cell in cells]
    assert all(a < b for a, b in zip(expectations, expectations[1:]))


def test_surface_flags_degenerate_cells():
    cells = ce.bias_surface([0.0], [20.0], sigma=0.1, T=1.0, direction=ABOVE)
    assert cells[0].flag == "degenerate"
    assert math.isnan(cells[0].expectation)
    assert math.isnan(cells[0].bias)


def test_surface_csv_layout():
    cells = ce.bias_surface([0.345], [0.0], sigma=0.3, T=1.0, direction=ABOVE)
    text = ce.surface_csv(cells)
    lines = text.splitlines()
    assert lines[0] == "mu,C,expectation,bias,flag"
    assert lines[1] == "0.345,0,0.4312799913,0.08627999128,ok"
