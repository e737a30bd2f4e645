"""Command-line interface exposing every module as a subcommand.

All tabular results go to standard output as CSV (or to ``--out`` when
given); progress and diagnostic lines go to standard error. Exit codes:
0 success, 1 domain error (degenerate condition, insufficient data,
degenerate variance, a result past the float range), 2 usage or
input-format error. Every failure prints a single ``error: ...`` line to
standard error.

``run`` alone writes each command's CSV and then its stderr note, once
the command has finished, so a failing command writes no CSV.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from . import conditional
from .errors import (
    DegenerateConditionError,
    DegenerateVarianceError,
    InsufficientDataError,
    ParseError,
)

__all__ = ["build_parser", "run", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftbias",
        description="Conditional GBM drift estimates and bias-adjusted return forecasts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="simulate one GBM price path")
    simulate.add_argument("--mu", type=float, required=True, help="annualized drift")
    simulate.add_argument("--sigma", type=float, required=True, help="annualized volatility")
    simulate.add_argument("--a0", type=float, required=True, help="starting price")
    simulate.add_argument("--T", type=float, required=True, help="horizon in years")
    simulate.add_argument("--n", type=int, required=True, help="number of steps")
    simulate.add_argument("--seed", type=int, required=True, help="generator seed")
    simulate.set_defaults(handler=_cmd_simulate)

    estimate = commands.add_parser("estimate", help="estimate nu and sigma^2 from a price CSV")
    estimate.add_argument("--prices", required=True, help="CSV with header date_index,price")
    estimate.add_argument(
        "--h-per-year", type=float, default=252.0, help="observations per year (default 252)"
    )
    estimate.set_defaults(handler=_cmd_estimate)

    cond = commands.add_parser("conditional", help="conditional expectation of nu_hat")
    cond.add_argument("--nu", type=float, required=True, help="log-price drift")
    cond.add_argument("--sigma", type=float, required=True)
    cond.add_argument("--T", type=float, required=True, help="horizon in years")
    cond.add_argument("--C", type=float, required=True, help="log-return threshold")
    _add_direction(cond)
    cond.set_defaults(handler=_cmd_conditional)

    surface = commands.add_parser("surface", help="conditional mu expectation over a mu x C grid")
    surface.add_argument("--mu-min", type=float, required=True)
    surface.add_argument("--mu-max", type=float, required=True)
    surface.add_argument("--mu-steps", type=int, required=True)
    surface.add_argument("--c-min", type=float, required=True)
    surface.add_argument("--c-max", type=float, required=True)
    surface.add_argument("--c-steps", type=int, required=True)
    surface.add_argument("--sigma", type=float, required=True)
    surface.add_argument("--T", type=float, required=True)
    _add_direction(surface)
    surface.set_defaults(handler=_cmd_surface)

    limits = commands.add_parser("limits", help="T -> infinity limit of the conditional expectation")
    limits.add_argument("--nu", type=float, required=True)
    _add_direction(limits)
    limits.set_defaults(handler=_cmd_limits)

    smooth = commands.add_parser("smooth", help="exponential smoothing of a value series")
    smooth.add_argument("--input", required=True, help="CSV with a single 'value' column")
    choice = smooth.add_mutually_exclusive_group()
    choice.add_argument("--alpha", type=float, default=argparse.SUPPRESS, help="smoothing factor in [0, 1]")
    choice.add_argument("--fit", action="store_true", help="fit alpha on the default grid")
    smooth.set_defaults(handler=_cmd_smooth)

    diagnose = commands.add_parser("diagnose", help="ACF/PACF table and Ljung-Box summary")
    diagnose.add_argument("--input", required=True, help="CSV with a single 'value' column")
    diagnose.add_argument("--lags", type=int, default=10)
    diagnose.set_defaults(handler=_cmd_diagnose)

    pipe = commands.add_parser("pipeline", help="full per-stock forecast comparison")
    pipe.add_argument("--prices", required=True, help="CSV stock_id,date,close")
    pipe.add_argument("--capm", required=True, help="CSV stock_id,year,beta,risk_free,market_return_expectation")
    pipe.add_argument("--config", required=True, help="key = value settings file")
    pipe.set_defaults(handler=_cmd_pipeline)

    for subparser in commands.choices.values():
        subparser.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    return parser


def _add_direction(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("--direction", choices=[d.value for d in conditional.Direction], required=True)


def run(argv: Sequence[str]) -> int:
    """Parse argv, dispatch, write the results, and map failures onto exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, note = args.handler(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        sys.stderr.write(note)
    except (DegenerateConditionError, InsufficientDataError, DegenerateVarianceError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def _read_value_column(path: str) -> list[float]:
    from ._csv import finite, read_rows
    return [finite(path, lineno, cells, 0, "value") for lineno, cells in read_rows(path, "value")]


def _cmd_simulate(args: argparse.Namespace) -> tuple[str, str]:
    from . import gbm
    path = gbm.simulate_gbm(args.mu, args.sigma, a0=args.a0, T=args.T, n=args.n, seed=args.seed)
    return gbm.write_price_csv(path), ""


def _cmd_estimate(args: argparse.Namespace) -> tuple[str, str]:
    from . import gbm
    if not args.h_per_year > 0:
        raise ValueError(f"--h-per-year must be positive, got {args.h_per_year}")
    if not math.isfinite(args.h_per_year):
        raise ValueError(f"--h-per-year must be finite, got {args.h_per_year}")
    step_h = 1.0 / args.h_per_year
    if step_h == math.inf:
        raise ValueError(f"--h-per-year = {args.h_per_year!r} makes the step 1 / {args.h_per_year!r} overflow")
    path = gbm.read_price_csv(args.prices, step_h=step_h)
    estimate = gbm.estimate_unconditional(gbm.log_returns(path))
    if not all(map(math.isfinite, (estimate.nu_hat, estimate.sigma2_hat, estimate.T))):
        raise ValueError(f"the estimates overflow; --h-per-year = {args.h_per_year:g} is far from a sampling rate")
    return (
        "nu_hat,sigma2_hat,n,T\n"
        f"{estimate.nu_hat!r},{estimate.sigma2_hat!r},{estimate.n},{estimate.T!r}\n",
        "",
    )


def _cmd_conditional(args: argparse.Namespace) -> tuple[str, str]:
    direction = conditional.Direction(args.direction)
    query = conditional.ConditionalQuery(args.nu, args.sigma, args.T, args.C, direction)
    result = conditional.conditional_nu(query)
    return (
        "expectation,tail_probability,bias,mills_argument\n"
        f"{result.expectation!r},{result.tail_probability!r},"
        f"{result.bias!r},{result.mills_argument!r}\n",
        "",
    )


def _cmd_surface(args: argparse.Namespace) -> tuple[str, str]:
    if args.mu_steps < 1 or args.c_steps < 1:
        raise ValueError("--mu-steps and --c-steps must be at least 1")
    if not all(map(math.isfinite, (args.mu_min, args.mu_max, args.c_min, args.c_max))):
        raise ValueError("--mu-min, --mu-max, --c-min and --c-max must be finite")
    mu_grid = np.linspace(args.mu_min, args.mu_max, args.mu_steps)
    c_grid = np.linspace(args.c_min, args.c_max, args.c_steps)
    cells = conditional.bias_surface(
        mu_grid, c_grid, sigma=args.sigma, T=args.T, direction=conditional.Direction(args.direction)
    )
    return conditional.surface_csv(cells), ""


def _cmd_limits(args: argparse.Namespace) -> tuple[str, str]:
    value = conditional.asymptotic_limit(args.nu, conditional.Direction(args.direction))
    return f"nu,direction,limit\n{args.nu!r},{args.direction},{value!r}\n", ""


def _cmd_smooth(args: argparse.Namespace) -> tuple[str, str]:
    from . import smoothing
    values = _read_value_column(args.input)
    alpha = smoothing.fit_alpha(values)[0] if args.fit else getattr(args, "alpha", smoothing.DEFAULT_ALPHA)
    forecasts = smoothing.smooth(values, smoothing.SmoothingConfig(alpha=alpha)).tolist()
    lines = ["value,forecast"]
    for value, forecast in zip(values, forecasts[:-1]):
        lines.append(f"{value!r},{forecast!r}")
    lines.append(f",{forecasts[-1]!r}")
    return "\n".join(lines) + "\n", f"alpha={alpha!r}\n"


def _cmd_diagnose(args: argparse.Namespace) -> tuple[str, str]:
    from . import diagnostics
    values = _read_value_column(args.input)
    result = diagnostics.acf_pacf(values, args.lags)
    box = diagnostics.ljung_box(values, args.lags)
    acf = result.acf.tolist()
    pacf = result.pacf.tolist()
    lines = ["lag,acf,pacf"]
    for lag in range(1, args.lags + 1):
        lines.append(f"{lag},{acf[lag - 1]!r},{pacf[lag - 1]!r}")
    return "\n".join(lines) + "\n", f"Q={box.q_statistic!r} p={box.p_value!r} lags={box.lags_tested}\n"


def _cmd_pipeline(args: argparse.Namespace) -> tuple[str, str]:
    from . import pipeline
    config = pipeline.load_config(args.config)
    datasets = pipeline.ingest(args.prices, args.capm, config)
    reports, totals = pipeline.score_portfolio(datasets, config)
    return pipeline.report_csv(reports, totals), pipeline.report_summary(reports, totals)
