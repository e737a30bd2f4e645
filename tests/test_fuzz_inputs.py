"""Random input files of every format, and random arguments, driven through the CLI.

Each file starts valid and then takes a few random edits: blank lines,
junk lines, rows with a cell too many or too few, and cells replaced by
junk or a non-finite number. The commands that read no file get random
numeric arguments, some of them zero, negative or non-finite. Whatever
the input, the command must exit 0, 1 or 2 without an exception escaping,
and a run that exits 0 must print no ``nan`` or ``inf``.

Valid numbers stay within magnitudes real inputs have (prices up to 1e4,
rates of order one, value series up to 1e6, drifts and volatilities of
order one, horizons up to 50 years). Arguments also come nearer 0 than
1e-6, down to subnormal numbers.
"""

import contextlib
import io
import pathlib
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from driftbias import cli

NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "NaN", "Infinity"])
JUNK = st.text(alphabet="0123456789.-+eEnaifx_ ;", max_size=8)
BLANK = st.sampled_from(["", " ", "\t", " \t "])
CONFIG = "alpha = 0.2\nfit_alpha = false\nh_per_year = 252\nbenchmark_mode = per_period\n"


def floats(low, high):
    return st.floats(low, high).map(repr)


def realistic(low, high):
    """Floats in [low, high] that are 0 or at least 1e-6 in magnitude, as text."""
    return st.floats(low, high).filter(lambda x: x == 0 or abs(x) >= 1e-6).map(repr)


@st.composite
def edited(draw, header, rows):
    """The file text of ``header`` and ``rows`` after up to three random edits."""
    lines = [header, *rows]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["blank", "junk", "width", "non_finite", "junk_cell"]))
        if edit == "blank":
            lines.insert(draw(st.integers(0, len(lines))), draw(BLANK))
        elif edit == "junk":
            lines.insert(draw(st.integers(0, len(lines))), draw(JUNK))
        elif len(lines) > 1:
            at = draw(st.integers(1, len(lines) - 1))
            cells = lines[at].split(",")
            if edit == "width":
                cells = cells[:-1] if draw(st.booleans()) else [*cells, draw(floats(0.0, 1.0))]
            else:
                cells[draw(st.integers(0, len(cells) - 1))] = draw(NON_FINITE if edit == "non_finite" else JUNK)
            lines[at] = ",".join(cells)
    return "\n".join(lines) + "\n"


@st.composite
def value_files(draw):
    values = draw(st.lists(floats(-1e6, 1e6), max_size=40))
    return draw(edited("value", values))


@st.composite
def price_path_files(draw):
    prices = draw(st.lists(floats(1e-2, 1e4), max_size=30))
    return draw(edited("date_index,price", [f"{i},{price}" for i, price in enumerate(prices)]))


@st.composite
def portfolio_files(draw):
    """Prices and CAPM files for one or two stocks over three to six years.

    Scoring needs four years of at least three closes each; three years
    take the exit-1 path.
    """
    years = range(2009, 2009 + draw(st.integers(3, 6)))
    prices, capm = [], []
    for stock in ("S1", "S2")[: draw(st.integers(1, 2))]:
        beta = draw(floats(-2.0, 3.0))
        for year in years:
            for day in range(1, draw(st.integers(3, 5)) + 1):
                prices.append(f"{stock},{year}-01-{day:02d},{draw(floats(1e-2, 1e4))}")
            capm.append(f"{stock},{year},{beta},{draw(floats(-0.2, 0.3))},{draw(floats(-0.2, 0.3))}")
    return (
        draw(edited("stock_id,date,close", prices)),
        draw(edited("stock_id,year,beta,risk_free,market_return_expectation", capm)),
    )


def arguments(low, high):
    """A numeric argument: mostly in [low, high], sometimes within 1e-6 of zero, zero or not finite."""
    return st.one_of(
        realistic(low, high),
        st.floats(-1e-6, 1e-6).map(repr),
        st.sampled_from(["0", "-0.0", "5e-324", "2.2e-311", "-2.2e-311", "nan", "inf", "-inf", "1e400"]),
    )


def run_with_files(argv, files, checked=lambda out: out):
    """Write ``files`` (name -> text) to a temporary directory and run the CLI.

    Arguments of ``argv`` that name one of the files are replaced by its path.
    At exit 0, ``checked(stdout)`` must hold no ``nan`` or ``inf``.
    """
    with tempfile.TemporaryDirectory() as directory:
        paths = {name: pathlib.Path(directory) / name for name in files}
        for name, text in files.items():
            paths[name].write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([str(paths[arg]) if arg in paths else arg for arg in argv])
    assert code in (0, 1, 2), err.getvalue()
    if code == 0:
        text = checked(out.getvalue()).lower()
        assert "nan" not in text and "inf" not in text, text
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


@settings(max_examples=100, deadline=None)
@given(text=price_path_files())
def test_estimate_survives_random_price_paths(text):
    run_with_files(["estimate", "--prices", "prices.csv"], {"prices.csv": text})


@settings(max_examples=100, deadline=None)
@given(text=value_files(), alpha=st.sampled_from([None, "0", "0.3", "1"]))
def test_smooth_survives_random_value_files(text, alpha):
    choice = ["--fit"] if alpha is None else ["--alpha", alpha]
    run_with_files(["smooth", "--input", "values.csv", *choice], {"values.csv": text})


# Short series draw the documented small-sample warning of Ljung-Box.
@pytest.mark.filterwarnings("ignore:Ljung-Box chi-square approximation:UserWarning")
@settings(max_examples=100, deadline=None)
@given(text=value_files(), lags=st.integers(1, 3))
def test_diagnose_survives_random_value_files(text, lags):
    run_with_files(["diagnose", "--input", "values.csv", "--lags", str(lags)], {"values.csv": text})


@settings(max_examples=100, deadline=None)
@given(files=portfolio_files())
def test_pipeline_survives_random_portfolios(files):
    prices, capm = files
    run_with_files(
        ["pipeline", "--prices", "prices.csv", "--capm", "capm.csv", "--config", "pipeline.cfg"],
        {"prices.csv": prices, "capm.csv": capm, "pipeline.cfg": CONFIG},
    )


DIRECTIONS = st.sampled_from(["above", "at_or_below"])


def run_with_arguments(command, checked=lambda out: out, **options):
    """Run ``command`` with ``--name=value`` options; the ``=`` keeps a negative value from reading as a flag."""
    argv = [command, *(f"--{name.replace('_', '-')}={value}" for name, value in options.items())]
    run_with_files(argv, {}, checked)


def surface_values(out):
    """The surface rows not flagged degenerate; flagged rows print nan by design."""
    return "".join(line for line in out.splitlines(keepends=True) if not line.endswith(",degenerate\n"))


@settings(max_examples=100, deadline=None)
@given(
    mu=arguments(-1.0, 1.0),
    sigma=arguments(-0.5, 2.0),
    a0=arguments(-10.0, 1e4),
    T=arguments(-1.0, 50.0),
    n=st.integers(-2, 300),
    seed=st.integers(-1, 2**32 - 1),
)
def test_simulate_survives_random_arguments(mu, sigma, a0, T, n, seed):
    run_with_arguments("simulate", mu=mu, sigma=sigma, a0=a0, T=T, n=n, seed=seed)


@settings(max_examples=100, deadline=None)
@given(nu=arguments(-2.0, 2.0), sigma=arguments(-0.5, 2.0), T=arguments(-1.0, 50.0),
       C=arguments(-2.0, 2.0), direction=DIRECTIONS)
def test_conditional_survives_random_arguments(nu, sigma, T, C, direction):
    run_with_arguments("conditional", nu=nu, sigma=sigma, T=T, C=C, direction=direction)


@settings(max_examples=100, deadline=None)
@given(
    mu=st.tuples(arguments(-2.0, 2.0), arguments(-2.0, 2.0), st.integers(-1, 12)),
    c=st.tuples(arguments(-2.0, 2.0), arguments(-2.0, 2.0), st.integers(-1, 12)),
    sigma=arguments(-0.5, 2.0),
    T=arguments(-1.0, 50.0),
    direction=DIRECTIONS,
)
def test_surface_survives_random_arguments(mu, c, sigma, T, direction):
    run_with_arguments(
        "surface", surface_values, mu_min=mu[0], mu_max=mu[1], mu_steps=mu[2], c_min=c[0], c_max=c[1], c_steps=c[2],
        sigma=sigma, T=T, direction=direction,
    )


@settings(max_examples=100, deadline=None)
@given(nu=arguments(-2.0, 2.0), direction=DIRECTIONS)
def test_limits_survives_random_arguments(nu, direction):
    run_with_arguments("limits", nu=nu, direction=direction)
