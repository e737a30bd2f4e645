import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import conditional_nu_quadrature, monte_carlo_conditional

from driftbias import conditional as ce
from driftbias._format import WIDTH
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
    assert ce.conditional_nu(q()).mills_argument == 0.0
    assert ce.conditional_nu(q(nu=0.3, C=0.0)).mills_argument == pytest.approx(-1.0, rel=1e-15)
    assert ce.conditional_nu(q(nu=0.0, C=0.3)).mills_argument == pytest.approx(1.0, rel=1e-15)


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


def test_tail_probability_within_4_ulp_of_mpmath():
    # z = d runs over [-8, 37] in steps of about 0.0137, into the far tail
    # where rounding z / sqrt(2) alone cost up to about 1,600 ulp.
    worst = 0.0
    with mpmath.workdps(40):
        for z in np.linspace(-8.0, 37.0, 3301).tolist():
            exact = float(mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)) / 2)
            worst = max(worst, abs(tail_probability(q(sigma=1.0, C=z)) - exact) / math.ulp(exact))
    assert worst <= 4.0


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
        monte_carlo_conditional(q(), paths=999, seed=1)


def test_monte_carlo_matches_closed_form():
    estimate = monte_carlo_conditional(q(), paths=1_000_000, seed=7)
    assert abs(estimate.mean - CENTERED_EXPECTATION) <= 3.0 * estimate.std_error
    frac = estimate.retained / 1_000_000
    binom_se = math.sqrt(0.5 * 0.5 / 1_000_000)
    assert abs(frac - 0.5) <= 3.0 * binom_se


def test_monte_carlo_vacuous_retains_everything():
    estimate = monte_carlo_conditional(q(nu=0.1, C=-50.0), paths=10_000, seed=3)
    assert estimate.retained == 10_000
    assert abs(estimate.mean - 0.1) <= 3.0 * estimate.std_error


def test_monte_carlo_degenerate_raises():
    with pytest.raises(DegenerateConditionError):
        monte_carlo_conditional(q(nu=0.0, sigma=0.1, T=1.0, C=5.0), paths=1000, seed=1)


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
        integral = conditional_nu_quadrature(query)
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


def cellwise_csv(cells):
    """surface_csv as it was when bias_surface returned a list of cells."""
    lines = ["mu,C,expectation,bias,flag"]
    for cell in cells:
        lines.append(
            f"{cell.mu:.10g},{cell.C:.10g},{cell.expectation:.10g},{cell.bias:.10g},{cell.flag}"
        )
    return "\n".join(lines) + "\n"


surface_grids = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=7)


@given(
    mu=surface_grids,
    c=surface_grids,
    sigma=st.floats(0.005, 1.0),
    T=st.floats(0.1, 10.0),
    direction=st.sampled_from([ABOVE, BELOW]),
)
def test_surface_matches_cellwise_reference(mu, c, sigma, T, direction):
    # With sigma down to 0.005 a grid over [-2, 2] reaches |d| far past
    # MILLS_GUARD, so many examples hold degenerate cells.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        surface = ce.bias_surface(mu, c, sigma=sigma, T=T, direction=direction)
        cells = list(surface)
        assert ce.surface_csv(surface) == cellwise_csv(cells)
        for cell in cells:
            query = q(nu=cell.mu - 0.5 * sigma * sigma, sigma=sigma, T=T, C=cell.C, direction=direction)
            if cell.flag == "degenerate":
                assert math.isnan(cell.expectation) and math.isnan(cell.bias)
                with pytest.raises(DegenerateConditionError):
                    ce.conditional_mu(query)
                continue
            assert cell.flag == "ok"
            reference = ce.conditional_mu(query)
            assert cell.expectation == reference.expectation
            assert cell.bias == reference.bias


@pytest.mark.parametrize(
    "mu_steps, c_steps",
    [
        (ce._SURFACE_CHUNK // 97 + 1, 97),  # one row more than a chunk holds
        (1, ce._SURFACE_CHUNK + 3),  # a single row wider than a chunk
        (ce._SURFACE_CHUNK + 3, 1),
        (400, 400),  # the benchmark's grid
    ],
)
@pytest.mark.parametrize("direction", [ABOVE, BELOW])
def test_large_surfaces_match_cellwise_reference(mu_steps, c_steps, direction):
    # sigma 0.045 over [-1, 1] gives degenerate corners, biases that are
    # exactly 0 and biases small enough for exponent notation.
    surface = ce.bias_surface(
        np.linspace(-1.0, 1.0, mu_steps), np.linspace(-1.0, 1.0, c_steps), sigma=0.045, T=1.0, direction=direction
    )
    text = ce.surface_csv(surface)
    assert text == cellwise_csv(surface)
    if mu_steps == c_steps:
        assert surface.degenerate.any() and (surface.bias == 0.0).any() and "e-" in text


def test_surface_csv_reads_an_integer_mask():
    surface = ce.bias_surface(np.linspace(-1.0, 1.0, 21), np.linspace(-1.0, 1.0, 21), sigma=0.045, T=1.0, direction=ABOVE)
    as_int = ce.Surface(surface.mu, surface.C, surface.expectation, surface.bias, surface.degenerate.astype(int))
    assert surface.degenerate.any()
    assert ce.surface_csv(as_int) == ce.surface_csv(surface)


def test_surface_csv_widest_lines():
    # Every number formats to WIDTH characters and every cell is flagged, so
    # each line fills all _LINE bytes that surface_csv sizes its buffer by.
    widest = np.array([-1.234567891e-100, -9.876543219e+200, -5.555555551e-300, -2.718281829e+100])
    assert {len(f"{x:.10g}") for x in widest} == {WIDTH}
    shape = (ce._SURFACE_CHUNK // 97 + 2, 97)
    cells = np.resize(widest, shape)
    surface = ce.Surface(
        np.resize(widest, shape[0]), np.resize(widest[::-1], shape[1]), cells, cells[::-1].copy(), np.ones(shape, bool)
    )
    text = ce.surface_csv(surface)
    assert text == cellwise_csv(surface)
    assert len(text) == len("mu,C,expectation,bias,flag\n") + surface.bias.size * ce._LINE


def test_surface_rejects_mismatched_shapes():
    # expectation and bias transposed against the grids: each value would
    # render beside the wrong (mu, C).
    text = r"^expectation has shape \(3, 2\), expected \(len\(mu\), len\(C\)\) = \(2, 3\)$"
    with pytest.raises(ValueError, match=text):
        ce.Surface(
            mu=[0.0, 1.0], C=[0.0, 1.0, 2.0], expectation=np.arange(6.0).reshape(3, 2), bias=np.zeros((3, 2)),
            degenerate=np.zeros((2, 3), bool),
        )
    mu, c = np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0])
    values = np.zeros((2, 3))
    for name, arrays in (
        ("bias", (values, values.ravel(), values.astype(bool))),
        ("degenerate", (values, values, np.zeros((3, 2), bool))),
    ):
        with pytest.raises(ValueError, match=f"^{name} has shape"):
            ce.Surface(mu, c, *arrays)
    with pytest.raises(ValueError, match=r"^mu and C must be one-dimensional, got shapes \(1, 2\) and \(3,\)$"):
        ce.Surface(mu[None], c, values[None], values[None], values[None].astype(bool))


def test_surface_reads_as_a_sequence_of_cells():
    mu, c = [-0.2, 0.0, 0.3], [-0.1, 0.0, 0.1, 0.5]
    surface = ce.bias_surface(mu, c, sigma=0.3, T=1.0, direction=ABOVE)
    assert surface.expectation.shape == surface.bias.shape == surface.degenerate.shape == (3, 4)
    assert surface.mu.tolist() == mu and surface.C.tolist() == c
    cells = list(surface)
    assert len(surface) == len(cells) == len(mu) * len(c)
    assert all(isinstance(cell, ce.SurfaceCell) for cell in cells)
    assert [(cell.mu, cell.C) for cell in cells] == [(m, x) for m in mu for x in c]
    assert surface[0] == cells[0] and (surface[0].mu, surface[0].C) == (-0.2, -0.1)
    assert surface[-1] == cells[-1] and (surface[-1].mu, surface[-1].C) == (0.3, 0.5)
    assert surface[5] == cells[5] == surface[-7]
    assert surface[5].expectation == surface.expectation[1, 1]
    for i, j in ((2, 9), (0, 12), (-5, None), (None, -3), (4, 4), (9, 2), (0, 100)):
        assert surface[i:j] == cells[i:j]
    assert surface[::-3] == cells[::-3]
    for index in (12, -13):
        with pytest.raises(IndexError):
            surface[index]


def test_a_surface_built_from_lists_reads_as_the_array_built_one():
    surface = ce.bias_surface(np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 4), sigma=0.045, T=1.0, direction=ABOVE)
    fields = ("mu", "C", "expectation", "bias", "degenerate")
    listed = ce.Surface(*(getattr(surface, name).tolist() for name in fields))
    assert surface.degenerate.any()
    for name in fields:
        assert isinstance(getattr(listed, name), np.ndarray)
    # repr, because a degenerate cell's nan is unequal to itself.
    assert [repr(listed[i]) for i in range(-len(surface), len(surface))] == [
        repr(surface[i]) for i in range(-len(surface), len(surface))
    ]
    assert repr(listed[3:9:2]) == repr(surface[3:9:2])
    assert ce.surface_csv(listed) == ce.surface_csv(surface)


def test_surface_sequence_of_one_row():
    single = ce.bias_surface([0.1], [0.2], sigma=0.3, T=1.0, direction=BELOW)
    assert len(single) == 1 and list(single) == [single[0]] == [single[-1]] == single[:]
    assert (single[0].mu, single[0].C, single[0].flag) == (0.1, 0.2, "ok")
    c = [-0.5, 0.0, 0.5, 1.0, 20.0]
    row = ce.bias_surface([0.0], c, sigma=0.1, T=1.0, direction=ABOVE)
    assert len(row) == len(list(row)) == 5
    assert [cell.C for cell in row] == c and {cell.mu for cell in row} == {0.0}
    assert [cell.flag for cell in row] == ["ok"] * 4 + ["degenerate"]
    with pytest.raises(IndexError):
        row[5]


def test_surface_rejects_bad_grids():
    for mu, c, text in (
        ([], [0.0], "mu_grid and C_grid must be non-empty"),
        ([0.0], [], "mu_grid and C_grid must be non-empty"),
        ([0.0, math.nan], [0.0], "mu_grid and C_grid must be finite"),
        ([0.0], [math.inf], "mu_grid and C_grid must be finite"),
        ([[0.0]], [0.0], "mu_grid and C_grid must be one-dimensional"),
    ):
        with pytest.raises(ValueError, match=f"^{text}$"):
            ce.bias_surface(mu, c, sigma=0.3, T=1.0, direction=ABOVE)
