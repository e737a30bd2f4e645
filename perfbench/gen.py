"""Seeded input generator for the benchmark workloads.

It does not import driftbias, so the inputs are independent of the code
under test. Every stock gets its own random path and its own id, so no
two stocks share work that a cache could reuse.

Portfolio workloads write ``prices.csv``, ``capm.csv``, ``pipeline.cfg``
and ``meta.json`` into the output directory; ``surface_grid`` writes only
``meta.json`` (the grid is a handful of numbers).

    python3 perfbench/gen.py --workload portfolio_daily --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib

import numpy as np

SAMPLE_YEARS = list(range(2009, 2019))
HOLDOUT_YEAR = 2019

# Each portfolio: its stock count, observations per year (a sample year has
# one more close than that, so it spans exactly one year), the closes of
# the short holdout year, and the config file the pipeline reads.
PORTFOLIOS = {
    "portfolio_daily": dict(
        stocks=1000,
        h_per_year=252,
        holdout_rows=22,
        config="alpha = 0.2\nfit_alpha = false\nh_per_year = 252\nbenchmark_mode = per_period\n",
    ),
    "portfolio_monthly": dict(
        stocks=5000,
        h_per_year=12,
        holdout_rows=13,
        config="fit_alpha = true\nh_per_year = 12\nbenchmark_mode = per_period\n",
    ),
}

# The surface grid: sigma is small enough that the corner where C - nu
# exceeds 37 sigma (ABOVE) or nu - C does (AT_OR_BELOW) lies inside the
# [-1, 1] square. The seed shifts mu and C by the same offset, which
# changes every value but keeps the set of degenerate cells the same size.
SURFACE = dict(steps=400, sigma=0.045, T=1.0, lo=-1.0, hi=1.0)

# The small grid of the surface workload's cold-start call, also used as
# the surface layer's input when a portfolio workload runs traced.
SETUP_GRID = dict(mu_min=-1.0, mu_max=1.0, c_min=-1.0, c_max=1.0, steps=21, sigma=0.045, T=1.0, seed=0)

WORKLOADS = ("portfolio_daily", "portfolio_monthly", "surface_grid")


def _weekdays(year: int, count: int) -> list[datetime.date]:
    day = datetime.date(year, 1, 1)
    out = []
    while len(out) < count:
        if day.weekday() < 5:
            out.append(day)
        day += datetime.timedelta(days=1)
    return out


def _monthly(year: int, count: int) -> list[datetime.date]:
    """First of each month plus 31 December: 12 whole-month returns."""
    dates = [datetime.date(year, month, 1) for month in range(1, 13)]
    dates.append(datetime.date(year, 12, 31))
    return dates[:count]


def period_dates(h_per_year: int, year: int, count: int) -> list[str]:
    make = _weekdays if h_per_year == 252 else _monthly
    return [day.isoformat() for day in make(year, count)]


def make_portfolio(workload: str, seed: int, out: pathlib.Path) -> dict:
    spec = PORTFOLIOS[workload]
    h_per_year = spec["h_per_year"]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    years = SAMPLE_YEARS + [HOLDOUT_YEAR]
    counts = [h_per_year + 1] * len(SAMPLE_YEARS) + [spec["holdout_rows"]]
    dates = [period_dates(h_per_year, year, count) for year, count in zip(years, counts)]
    risk_free = np.round(rng.uniform(0.01, 0.04, len(years)), 4)
    market = np.round(risk_free + rng.uniform(0.03, 0.06, len(years)), 4)

    h = 1.0 / h_per_year
    price_lines = ["stock_id,date,close"]
    capm_lines = ["stock_id,year,beta,risk_free,market_return_expectation"]
    for k in range(spec["stocks"]):
        stock_id = f"S{k:05d}"
        beta = round(float(rng.uniform(0.6, 1.6)), 2)
        sigma = rng.uniform(0.15, 0.45)
        drift = rng.normal(-0.03, 0.08) + rng.normal(0.0, 0.05, len(years))
        steps = sum(counts)
        noise = rng.standard_normal(steps)
        nu = np.repeat(drift, counts)
        log_price = np.log(rng.uniform(10.0, 200.0)) + np.cumsum(nu * h + sigma * np.sqrt(h) * noise)
        closes = np.maximum(np.round(np.exp(log_price), 4), 0.01).tolist()
        prefix = stock_id + ","
        start = 0
        for year_dates, count in zip(dates, counts):
            price_lines.extend(
                f"{prefix}{day},{close!r}" for day, close in zip(year_dates, closes[start:start + count])
            )
            start += count
        for year, rf, mkt in zip(years, risk_free.tolist(), market.tolist()):
            capm_lines.append(f"{stock_id},{year},{beta!r},{rf!r},{mkt!r}")

    out.mkdir(parents=True, exist_ok=True)
    (out / "prices.csv").write_text("\n".join(price_lines) + "\n")
    (out / "capm.csv").write_text("\n".join(capm_lines) + "\n")
    (out / "pipeline.cfg").write_text(spec["config"])
    return {
        "workload": workload,
        "seed": seed,
        "stocks": spec["stocks"],
        "rows": len(price_lines) - 1,
        "h_per_year": h_per_year,
        "fit_alpha": "fit_alpha = true" in spec["config"],
    }


def make_surface(seed: int, out: pathlib.Path) -> dict:
    rng = np.random.default_rng([seed, WORKLOADS.index("surface_grid")])
    shift = round(float(rng.uniform(0.0, 0.01)), 6)
    out.mkdir(parents=True, exist_ok=True)
    return {
        "workload": "surface_grid",
        "seed": seed,
        "mu_min": SURFACE["lo"] + shift,
        "mu_max": SURFACE["hi"] + shift,
        "c_min": SURFACE["lo"] + shift,
        "c_max": SURFACE["hi"] + shift,
        "steps": SURFACE["steps"],
        "sigma": SURFACE["sigma"],
        "T": SURFACE["T"],
    }


def generate(workload: str, seed: int, out: pathlib.Path) -> dict:
    if workload == "surface_grid":
        meta = make_surface(seed, out)
    else:
        meta = make_portfolio(workload, seed, out)
    (out / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    return meta


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(json.dumps(generate(args.workload, args.seed, pathlib.Path(args.out))))


if __name__ == "__main__":
    main()
