"""The driftbias benchmark: seeded inputs, timed passes, checked outputs.

    python3 perfbench/run.py --workload portfolio_daily --seed 1 --seconds 20 --trace 0

Workloads: portfolio_daily, portfolio_monthly, surface_grid (see README.md).
Everything runs from one process at a time, each child started only after
the previous one ended, with numpy/BLAS limited to one thread:

1. Inputs are generated from the seed (cached by seed under _work/inputs).
2. ``--trace 0``: the workload's CLI subcommand is cold-started on a tiny
   input SETUP_CALLS times (plus one untimed call that compiles bytecode);
   their median is ``setup_s``. Then worker.py repeats the workload's pass
   in-process for ``--seconds``; the median pass is ``wall_s`` and the
   worker's peak resident memory is ``peak_rss_mb``. Both times are scaled
   to the reference speed (speed.py), because the host's own speed drifts
   by more than the bounds: a pass by samples taken while it runs, a cold
   start by reference blocks right before and after it.
   ``--trace 1``: ``python -X importtime`` gives the import layer, and the
   worker replays the workload layer by layer and reports per-layer metrics,
   among them the raw median pass and the median reference unit.
3. Every output is checked against an independent reference (check.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A run whose outputs fail a check prints ``"correct": false`` and
exits 1; ``--nudge`` changes one output value by 1e-6 relative before the
checks, to show that they catch it.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads here and inherited by every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

import check
import gen
import speed

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
FIXTURE = ROOT / "fixtures"
SETUP_CALLS = 5
IMPORT_RUNS = 5
KEEP_INPUTS = 2  # seeds kept per workload; a daily input is about 65 MB
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.driftbias_s": "s", "import.scipy_s": "s", "import.numpy_s": "s",
    "cli.run_warm_s": "s",
    "pipeline.ingest_s": "s", "pipeline.ingest_rows": "count", "pipeline.ingest_ns_per_row": "ns",
    "pipeline.records_s": "s", "pipeline.periods": "count", "pipeline.score_s": "s",
    "pipeline.render_s": "s", "pipeline.report_bytes": "bytes",
    "gbm.estimate_s": "s", "gbm.estimate_calls": "count",
    "conditional.gate_calls": "count", "conditional.gate_degenerate": "count",
    "conditional.gate_s": "s", "conditional.gate_us_per_call": "us",
    "conditional.surface_s": "s", "conditional.surface_cells": "count",
    "conditional.surface_degenerate_cells": "count", "conditional.surface_us_per_cell": "us",
    "conditional.surface_csv_s": "s", "conditional.surface_csv_bytes": "bytes",
    "smoothing.smooth_calls": "count", "smoothing.smooth_s": "s", "smoothing.fit_alpha_calls": "count",
    "smoothing.fit_alpha_s": "s", "smoothing.fit_grid_evals": "count",
    "trace.overhead_s": "s", "wall.raw_s": "s", "speed.unit_s": "s",
}

PIPELINE_SETUP = ["pipeline", "--prices", "fixtures/prices.csv", "--capm", "fixtures/capm.csv",
                  "--config", "fixtures/pipeline.cfg"]
SURFACE_SETUP = ["surface", "--mu-min", "-1", "--mu-max", "1", "--mu-steps", "21",
                 "--c-min", "-1", "--c-max", "1", "--c-steps", "21",
                 "--sigma", "0.045", "--T", "1", "--direction", "above"]


class BenchError(Exception):
    """A step of the benchmark could not run to its end."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(argv[1:3])} ran longer than {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def ensure_inputs(workload: str, seed: int) -> pathlib.Path:
    """Generate the seed's inputs unless cached; keep the newest few seeds."""
    store = WORK / "inputs"
    target = store / f"{workload}-{seed}"
    marker = target / "meta.json"  # written last, so it marks a whole set
    if not marker.is_file():
        shutil.rmtree(target, ignore_errors=True)
        gen.generate(workload, seed, target)
    marker.touch()
    entries = sorted(store.glob(f"{workload}-*"),
                     key=lambda path: (path / "meta.json").stat().st_mtime if (path / "meta.json").is_file() else 0)
    for old in entries[:-KEEP_INPUTS]:
        shutil.rmtree(old, ignore_errors=True)
    return target


def cold_starts(workload: str) -> tuple[list[float], list[str]]:
    """Scaled wall times of cold-start CLI calls, one at a time, and the problems in their outputs."""
    argv = SURFACE_SETUP if workload == "surface_grid" else PIPELINE_SETUP
    if workload == "surface_grid":
        def verify(text: str) -> list[str]:
            return check.check_surface(text, gen.SETUP_GRID, above=True, mp_samples=20)
    else:
        reference = check.portfolio_reference(
            FIXTURE / "prices.csv", FIXTURE / "capm.csv", FIXTURE / "pipeline.cfg")

        def verify(text: str) -> list[str]:
            return check.check_fixture_report(text) + check.check_portfolio(text, reference)
    times, problems = [], []
    before = None
    for call in range(SETUP_CALLS + 1):
        start = time.perf_counter()
        proc = run_child([sys.executable, "-m", "driftbias", *argv])
        elapsed = time.perf_counter() - start
        after = speed.block()
        if call:  # the first call also writes the bytecode cache
            times.append(speed.scaled(elapsed, before, after))
        before = after
        problems += [f"set-up call: {problem}" for problem in verify(proc.stdout)]
    return times, problems


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds spent importing driftbias, and the parts of it in numpy and scipy.

    A module's self time goes to the nearest enclosing numpy or scipy
    module (itself included), so stdlib modules first pulled in by scipy
    count towards scipy.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(self_us), int(cumulative_us), name.strip()))
    owned = {"numpy": 0, "scipy": 0}
    driftbias_us = None
    ancestors: list[tuple[int, str | None]] = []
    for depth, self_us, cumulative_us, name in reversed(entries):  # parents before children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        root = name.split(".")[0]
        owner = root if root in owned else (ancestors[-1][1] if ancestors else None)
        if owner:
            owned[owner] += self_us
        ancestors.append((depth, owner))
        if name == "driftbias" and depth == 0:
            driftbias_us = cumulative_us
    if driftbias_us is None:
        raise BenchError("python -X importtime did not report driftbias")
    return {"import.driftbias_s": driftbias_us / 1e6, "import.scipy_s": owned["scipy"] / 1e6,
            "import.numpy_s": owned["numpy"] / 1e6}


def import_layer() -> dict[str, float]:
    runs = [parse_importtime(run_child([sys.executable, "-X", "importtime", "-c", "import driftbias"]).stderr)
            for _ in range(IMPORT_RUNS)]
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def check_outputs(workload: str, inputs: pathlib.Path, out: pathlib.Path, nudge: bool) -> list[str]:
    meta = json.loads((inputs / "meta.json").read_text())
    names = ([f"surface_{side}.csv" for side in ("above", "at_or_below")]
             if workload == "surface_grid" else ["report.csv"])
    texts = [(out / name).read_text() for name in names]
    if nudge:
        texts[0] = check.nudged(texts[0], column=2 if workload == "surface_grid" else 1)
    if workload == "surface_grid":
        return check.check_surface(texts[0], meta, above=True) + check.check_surface(texts[1], meta, above=False)
    reference = check.portfolio_reference(inputs / "prices.csv", inputs / "capm.csv", inputs / "pipeline.cfg")
    return check.check_portfolio(texts[0], reference)


def measure(workload: str, seed: int, seconds: float, trace: bool, nudge: bool) -> dict:
    inputs = ensure_inputs(workload, seed)
    out = WORK / "runs" / f"{workload}-trace{int(trace)}"  # outputs of the latest run only
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    attempted, problems, metrics = 0, [], {}
    if trace:
        metrics.update(import_layer())
        attempted += IMPORT_RUNS
    else:
        setup_times, problems = cold_starts(workload)
        attempted += len(setup_times)
        metrics["setup_s"] = statistics.median(setup_times)
    worker = run_child([sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                        "--inputs", str(inputs), "--seconds", str(seconds), "--out", str(out)]
                       + (["--trace"] if trace else []))
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    attempted += len(result["pass_s"])
    problems += check_outputs(workload, inputs, out, nudge)
    if trace:
        metrics.update(result["layers"])
        metrics["wall.raw_s"] = statistics.median(result["pass_s"])
        metrics["speed.unit_s"] = result["unit_s"]
        attempted += result["replay_ops"]
        problems += check.check_fixture_report((out / "cli_report.csv").read_text())
    else:
        metrics["wall_s"] = statistics.median(result["scaled_s"])
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "problems": problems,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics as JSON.")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nudge", action="store_true", help="perturb one output value (self-test)")
    args = parser.parse_args()

    needed = [ROOT / "src" / "driftbias" / "__init__.py", FIXTURE / "prices.csv",
              FIXTURE / "capm.csv", FIXTURE / "pipeline.cfg"]
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]
    if missing:
        print(f"error: run from a driftbias checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # One CPU for this process and every child: the two CPUs' speeds drift
    # apart, and a cold start is scaled by blocks timed on the CPU it runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.nudge)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in result.pop("problems"):
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
