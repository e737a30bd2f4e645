"""Command-line interface exposing every module as a subcommand.

All tabular results go to standard output as CSV (or to ``--out`` when
given); progress and diagnostic lines go to standard error. Exit codes:
0 success, 1 domain error (degenerate condition, insufficient data,
degenerate variance, a result past the float range), 2 usage or
input-format error. Every failure prints a single ``error: ...`` line to
standard error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from . import conditional, diagnostics, gbm, pipeline, smoothing
from ._csv import finite, read_rows
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
    _add_out(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    estimate = commands.add_parser("estimate", help="estimate nu and sigma^2 from a price CSV")
    estimate.add_argument("--prices", required=True, help="CSV with header date_index,price")
    estimate.add_argument(
        "--h-per-year", type=float, default=252.0, help="observations per year (default 252)"
    )
    _add_out(estimate)
    estimate.set_defaults(handler=_cmd_estimate)

    cond = commands.add_parser("conditional", help="conditional expectation of nu_hat")
    cond.add_argument("--nu", type=float, required=True, help="log-price drift")
    cond.add_argument("--sigma", type=float, required=True)
    cond.add_argument("--T", type=float, required=True, help="horizon in years")
    cond.add_argument("--C", type=float, required=True, help="log-return threshold")
    _add_direction(cond)
    _add_out(cond)
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
    _add_out(surface)
    surface.set_defaults(handler=_cmd_surface)

    limits = commands.add_parser("limits", help="T -> infinity limit of the conditional expectation")
    limits.add_argument("--nu", type=float, required=True)
    _add_direction(limits)
    _add_out(limits)
    limits.set_defaults(handler=_cmd_limits)

    smooth = commands.add_parser("smooth", help="exponential smoothing of a value series")
    smooth.add_argument("--input", required=True, help="CSV with a single 'value' column")
    choice = smooth.add_mutually_exclusive_group()
    choice.add_argument(
        "--alpha", type=float, default=smoothing.DEFAULT_ALPHA, help="smoothing factor in [0, 1]"
    )
    choice.add_argument("--fit", action="store_true", help="fit alpha on the default grid")
    _add_out(smooth)
    smooth.set_defaults(handler=_cmd_smooth)

    diagnose = commands.add_parser("diagnose", help="ACF/PACF table and Ljung-Box summary")
    diagnose.add_argument("--input", required=True, help="CSV with a single 'value' column")
    diagnose.add_argument("--lags", type=int, default=10)
    _add_out(diagnose)
    diagnose.set_defaults(handler=_cmd_diagnose)

    pipe = commands.add_parser("pipeline", help="full per-stock forecast comparison")
    pipe.add_argument("--prices", required=True, help="CSV stock_id,date,close")
    pipe.add_argument("--capm", required=True, help="CSV stock_id,year,beta,risk_free,market_return_expectation")
    pipe.add_argument("--config", required=True, help="key = value settings file")
    _add_out(pipe)
    pipe.set_defaults(handler=_cmd_pipeline)

    return parser


def _add_out(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("--out", default=None, help="write the CSV here instead of stdout")


def _add_direction(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("--direction", choices=[d.value for d in conditional.Direction], required=True)


def run(argv: Sequence[str]) -> int:
    """Parse argv, dispatch, and map failures onto exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args)
    except (DegenerateConditionError, InsufficientDataError, DegenerateVarianceError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _read_value_column(path: str) -> list[float]:
    return [finite(path, lineno, cells, 0, "value") for lineno, cells in read_rows(path, "value")]


def _cmd_simulate(args: argparse.Namespace) -> None:
    params = gbm.GbmParams(mu=args.mu, sigma=args.sigma)
    path = gbm.simulate_gbm(params, a0=args.a0, T=args.T, n=args.n, seed=args.seed)
    _emit(gbm.write_price_csv(path), args.out)


def _cmd_estimate(args: argparse.Namespace) -> None:
    if not args.h_per_year > 0:
        raise ValueError(f"--h-per-year must be positive, got {args.h_per_year}")
    path = gbm.read_price_csv(args.prices, step_h=1.0 / args.h_per_year)
    estimate = gbm.estimate_unconditional(gbm.log_returns(path))
    _emit(
        "nu_hat,sigma2_hat,n,T\n"
        f"{estimate.nu_hat!r},{estimate.sigma2_hat!r},{estimate.n},{estimate.T!r}\n",
        args.out,
    )


def _query_from(args: argparse.Namespace) -> conditional.ConditionalQuery:
    return conditional.ConditionalQuery(
        nu=args.nu,
        sigma=args.sigma,
        T=args.T,
        C=args.C,
        direction=conditional.Direction(args.direction),
    )


def _cmd_conditional(args: argparse.Namespace) -> None:
    result = conditional.conditional_nu(_query_from(args))
    _emit(
        "expectation,tail_probability,bias,mills_argument\n"
        f"{result.expectation!r},{result.tail_probability!r},"
        f"{result.bias!r},{result.mills_argument!r}\n",
        args.out,
    )


def _cmd_surface(args: argparse.Namespace) -> None:
    if args.mu_steps < 1 or args.c_steps < 1:
        raise ValueError("--mu-steps and --c-steps must be at least 1")
    if not all(map(math.isfinite, (args.mu_min, args.mu_max, args.c_min, args.c_max))):
        raise ValueError("--mu-min, --mu-max, --c-min and --c-max must be finite")
    mu_grid = np.linspace(args.mu_min, args.mu_max, args.mu_steps)
    c_grid = np.linspace(args.c_min, args.c_max, args.c_steps)
    cells = conditional.bias_surface(
        mu_grid, c_grid, sigma=args.sigma, T=args.T, direction=conditional.Direction(args.direction)
    )
    _emit(conditional.surface_csv(cells), args.out)


def _cmd_limits(args: argparse.Namespace) -> None:
    value = conditional.asymptotic_limit(args.nu, conditional.Direction(args.direction))
    _emit(f"nu,direction,limit\n{args.nu!r},{args.direction},{value!r}\n", args.out)


def _cmd_smooth(args: argparse.Namespace) -> None:
    values = _read_value_column(args.input)
    alpha = smoothing.fit_alpha(values)[0] if args.fit else args.alpha
    series = smoothing.smooth(values, smoothing.SmoothingConfig(alpha=alpha))
    forecasts = series.forecasts.tolist()
    lines = ["value,forecast"]
    for value, forecast in zip(values, forecasts[:-1]):
        lines.append(f"{value!r},{forecast!r}")
    lines.append(f",{forecasts[-1]!r}")
    _emit("\n".join(lines) + "\n", args.out)
    print(f"alpha={alpha!r}", file=sys.stderr)


def _cmd_diagnose(args: argparse.Namespace) -> None:
    values = _read_value_column(args.input)
    result = diagnostics.acf_pacf(values, args.lags)
    box = diagnostics.ljung_box(values, args.lags)
    acf = result.acf.tolist()
    pacf = result.pacf.tolist()
    lines = ["lag,acf,pacf"]
    for lag in range(1, args.lags + 1):
        lines.append(f"{lag},{acf[lag - 1]!r},{pacf[lag - 1]!r}")
    _emit("\n".join(lines) + "\n", args.out)
    print(
        f"Q={box.q_statistic!r} p={box.p_value!r} lags={box.lags_tested}",
        file=sys.stderr,
    )


def _cmd_pipeline(args: argparse.Namespace) -> None:
    config = pipeline.load_config(args.config)
    datasets = pipeline.ingest(args.prices, args.capm, config)
    reports, totals = pipeline.score_portfolio(datasets, config)
    _emit(pipeline.report_csv(reports, totals), args.out)
    sys.stderr.write(pipeline.report_summary(reports, totals))
