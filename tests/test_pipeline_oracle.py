"""``driftbias pipeline`` against the benchmark's independent reference.

``perfbench/check.py`` recomputes every report field from the input files
with numpy and scipy alone, without importing driftbias. Here it checks
the CLI's report on generated valid files: one to three stocks, each the
same four to seven years, three to six closes a year, with fixed or fitted
alpha and daily or monthly steps. ``check.py`` has no constant-benchmark
mode, so only ``benchmark_mode = per_period`` is covered.
"""

import contextlib
import io
import math
import pathlib
import sys
import tempfile

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from driftbias import cli

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import check  # noqa: E402


@st.composite
def inputs(draw):
    """(prices, capm, config) file texts of a valid portfolio."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h_per_year = draw(st.sampled_from([12, 252]))
    fit_alpha = draw(st.booleans())
    alpha = draw(st.sampled_from([0.0, 0.2, 0.55, 1.0]))
    years = range(2001, 2001 + draw(st.integers(4, 7)))
    prices, capm = ["stock_id,date,close"], ["stock_id,year,beta,risk_free,market_return_expectation"]
    for stock in range(draw(st.integers(1, 3))):
        beta = draw(st.sampled_from([0.5, 1.0, 1.5]))
        drift = rng.uniform(-0.3, 0.6)
        volatility = draw(st.sampled_from([0.05, 0.2, 0.4]))
        for year in years:
            size = draw(st.integers(3, 6))
            steps = rng.normal(drift / h_per_year, volatility / math.sqrt(h_per_year), size - 1)
            closes = np.exp(rng.uniform(1.0, 5.0) + np.concatenate(([0.0], np.cumsum(steps))))
            prices += [f"S{stock},{year}-01-{day:02d},{close!r}" for day, close in enumerate(closes.tolist(), 1)]
            capm.append(f"S{stock},{year},{beta},{rng.normal(0.03, 0.01)!r},{rng.normal(0.08, 0.1)!r}")
    config = f"alpha = {alpha}\nfit_alpha = {str(fit_alpha).lower()}\nh_per_year = {h_per_year}\n"
    return "\n".join(prices) + "\n", "\n".join(capm) + "\n", config


@settings(max_examples=200, deadline=None)
@given(texts=inputs())
def test_pipeline_report_matches_independent_reference(texts):
    with tempfile.TemporaryDirectory() as directory:
        paths = [pathlib.Path(directory, name) for name in ("prices.csv", "capm.csv", "pipeline.cfg")]
        for path, text in zip(paths, texts):
            path.write_text(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run(["pipeline", "--prices", str(paths[0]), "--capm", str(paths[1]), "--config", str(paths[2])])
        assert code == 0, stderr.getvalue()
        assert check.check_portfolio(stdout.getvalue(), check.portfolio_reference(*paths)) == []
