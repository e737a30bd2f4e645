"""Timed passes through driftbias's public functions, in a process of their own.

run.py starts this once per run, so the peak resident memory it reports
covers the passes alone, not input generation or the reference check.
It warms up on a small input, then repeats the workload's pass until
``--seconds`` have gone by, writes the last pass's output into ``--out``
and prints one JSON line with every pass time, raw and scaled to the
reference speed by the sampler in speed.py, and the peak memory of the
process up to the end of its first full-size pass. Each pass starts from
a collected heap, as the pass of a fresh CLI process does.

With ``--trace`` it then replays the workload once through the same
public calls, one layer at a time, recording spans (name, start, end,
parent) in memory; they are written to ``--out``/spans.json at the end.
Work the pipeline does inside ``score_portfolio`` is replayed by calling
the same public function on the same arguments, read off the records.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import pathlib
import resource
import statistics
import time

from driftbias import cli, conditional, gbm, pipeline, smoothing
from driftbias.errors import DegenerateConditionError

import speed
from check import surface_grids
from gen import SETUP_GRID

CLI_CALLS = 5


def portfolio_inputs(directory: pathlib.Path) -> dict[str, str]:
    return {name: str(directory / f"{name}{ext}") for name, ext in
            (("prices", ".csv"), ("capm", ".csv"), ("pipeline", ".cfg"))}


FIXTURE = portfolio_inputs(pathlib.Path(__file__).resolve().parent.parent / "fixtures")


def portfolio_pass(inputs: dict[str, str]) -> dict[str, str]:
    config = pipeline.load_config(inputs["pipeline"])
    datasets = pipeline.ingest(inputs["prices"], inputs["capm"], config)
    reports, totals = pipeline.score_portfolio(datasets, config)
    return {"report.csv": pipeline.report_csv(reports, totals)}


def surface_pass(meta: dict) -> dict[str, str]:
    mu, c = surface_grids(meta)
    cells = {
        direction: conditional.bias_surface(mu, c, meta["sigma"], meta["T"], direction)
        for direction in conditional.Direction
    }
    return {f"surface_{d.value}.csv": conditional.surface_csv(cells[d]) for d in conditional.Direction}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def duration(self, name: str) -> float:
        return sum(end - start for span_name, start, end, _ in self.spans if span_name == name)

    def records(self) -> list[dict]:
        """Every span with its self time: its duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": name, "start_s": start - origin, "end_s": end - origin, "parent": parent,
             "self_s": end - start - child_time[index]}
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]


def replay_portfolio(tracer: Tracer, inputs: dict[str, str]) -> dict[str, float]:
    span = tracer.span
    with span("portfolio"):
        with span("pipeline.load_config"):
            config = pipeline.load_config(inputs["pipeline"])
        with span("pipeline.ingest"):
            datasets = pipeline.ingest(inputs["prices"], inputs["capm"], config)
        with span("pipeline.records"):
            records = [pipeline.build_period_records(pipeline.split_holdout(data)[0], config)
                       for data in datasets]
        estimates = 0
        with span("gbm.estimate"):
            for data in datasets:
                for path in data.period_paths:
                    gbm.estimate_unconditional(gbm.log_returns(path))
                    estimates += 1
        gates = degenerate = 0
        with span("conditional.gate"):
            for stock in records:
                for record in stock:
                    if record.realized_return <= record.benchmark_c:
                        continue
                    gates += 1
                    try:
                        conditional.conditional_nu(conditional.ConditionalQuery(
                            nu=record.nu_hat, sigma=math.sqrt(record.sigma2_hat), T=1.0,
                            C=record.benchmark_c, direction=conditional.Direction.ABOVE,
                        ))
                    except (ValueError, DegenerateConditionError):
                        degenerate += 1
        biases = [[record.bias for record in stock] for stock in records]
        with span("smoothing.fit_alpha"):
            fitted = [smoothing.fit_alpha(series, smoothing.DEFAULT_FIT_GRID)[0] for series in biases]
        with span("smoothing.smooth"):
            for series, alpha in zip(biases, fitted):
                smoothing.smooth(series, smoothing.SmoothingConfig(alpha if config.fit_alpha else config.alpha))
        with span("pipeline.score"):
            reports, totals = pipeline.score_portfolio(datasets, config)
        with span("pipeline.render"):
            report = pipeline.report_csv(reports, totals)

    with open(inputs["prices"], "rb") as handle:
        rows = sum(1 for _ in handle) - 1
    ingest_s = tracer.duration("pipeline.ingest")
    gate_s = tracer.duration("conditional.gate")
    return {
        "pipeline.ingest_s": ingest_s,
        "pipeline.ingest_rows": rows,
        "pipeline.ingest_ns_per_row": 1e9 * ingest_s / rows,
        "pipeline.records_s": tracer.duration("pipeline.records"),
        "pipeline.periods": sum(len(stock) for stock in records),
        "pipeline.score_s": tracer.duration("pipeline.score"),
        "pipeline.render_s": tracer.duration("pipeline.render"),
        "pipeline.report_bytes": len(report.encode()),
        "gbm.estimate_s": tracer.duration("gbm.estimate"),
        "gbm.estimate_calls": estimates,
        "conditional.gate_calls": gates,
        "conditional.gate_degenerate": degenerate,
        "conditional.gate_s": gate_s,
        "conditional.gate_us_per_call": 1e6 * gate_s / gates,
        "smoothing.smooth_calls": len(biases),
        "smoothing.smooth_s": tracer.duration("smoothing.smooth"),
        "smoothing.fit_alpha_calls": len(biases),
        "smoothing.fit_alpha_s": tracer.duration("smoothing.fit_alpha"),
        "smoothing.fit_grid_evals": len(biases) * len(smoothing.DEFAULT_FIT_GRID),
    }


def replay_surface(tracer: Tracer, meta: dict) -> dict[str, float]:
    mu, c = surface_grids(meta)
    span = tracer.span
    with span("surface"):
        cells = {}
        with span("conditional.surface"):
            for direction in conditional.Direction:
                with span(f"conditional.bias_surface.{direction.value}"):
                    cells[direction] = conditional.bias_surface(mu, c, meta["sigma"], meta["T"], direction)
        with span("conditional.surface_csv"):
            texts = [conditional.surface_csv(cells[direction]) for direction in conditional.Direction]
    count = sum(len(group) for group in cells.values())
    surface_s = tracer.duration("conditional.surface")
    return {
        "conditional.surface_s": surface_s,
        "conditional.surface_cells": count,
        "conditional.surface_degenerate_cells": sum(
            cell.flag == "degenerate" for group in cells.values() for cell in group
        ),
        "conditional.surface_us_per_cell": 1e6 * surface_s / count,
        "conditional.surface_csv_s": tracer.duration("conditional.surface_csv"),
        "conditional.surface_csv_bytes": sum(len(text.encode()) for text in texts),
    }


def cli_run_warm(out: pathlib.Path) -> float:
    """Median in-process ``cli.run`` of ``pipeline`` on the shipped fixture."""
    argv = ["pipeline", "--prices", FIXTURE["prices"], "--capm", FIXTURE["capm"],
            "--config", FIXTURE["pipeline"], "--out", str(out / "cli_report.csv")]
    times = []
    for _ in range(CLI_CALLS + 1):
        start = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"cli.run exited {code} on the fixture")
    return statistics.median(times[1:])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    inputs_dir, out = pathlib.Path(args.inputs), pathlib.Path(args.out)
    meta = json.loads((inputs_dir / "meta.json").read_text())

    if args.workload == "surface_grid":
        run_pass, warm_up = (lambda: surface_pass(meta)), (lambda: surface_pass(SETUP_GRID))
    else:
        inputs = portfolio_inputs(inputs_dir)
        run_pass, warm_up = (lambda: portfolio_pass(inputs)), (lambda: portfolio_pass(FIXTURE))

    warm_up()
    speed.block()  # warms up the reference unit too
    times, scaled, samples = [], [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        outputs = None  # the last pass's outputs go before the heap is collected
        gc.collect()
        with speed.Sampler() as sampler:
            outputs = run_pass()
        times.append(sampler.raw_s)
        scaled.append(sampler.scaled_s)
        samples += sampler.samples
        if len(times) == 1:
            # The high-water mark of one pass, as a single CLI run would see
            # it; later passes only add noise from where the collector ran.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"pass_s": times, "scaled_s": scaled, "unit_s": statistics.median(samples),
              "peak_rss_mb": peak_rss_mb}
    for name, text in outputs.items():
        (out / name).write_text(text)

    if args.trace:
        tracer = Tracer()
        if args.workload == "surface_grid":
            layers = replay_surface(tracer, meta)
            layers.update(replay_portfolio(tracer, FIXTURE))
            traced = tracer.duration("surface")
        else:
            layers = replay_portfolio(tracer, inputs)
            layers.update(replay_surface(tracer, SETUP_GRID))
            traced = tracer.duration("portfolio")
        layers["trace.overhead_s"] = traced - statistics.median(times)
        layers["cli.run_warm_s"] = cli_run_warm(out)
        (out / "spans.json").write_text(json.dumps(tracer.records(), indent=1) + "\n")
        result["layers"] = layers
        result["replay_ops"] = len(tracer.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
