"""Steadiness of the benchmark: repeat run.py and report each metric's spread.

    python3 perfbench/steady.py --runs 10 --seed0 1000
    python3 perfbench/steady.py --workload surface_grid --runs 5

Each run uses the next seed and, unless ``--seconds`` says otherwise, the
run length in BENCHMARK.json. For every workload and metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median; the
bounds in BENCHMARK.json are set from these spreads. The last line of
stdout is the whole summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

import gen

BENCH = pathlib.Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=gen.WORKLOADS,
                        help="repeat for several; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    summary = {}
    for workload in args.workload or gen.WORKLOADS:
        values: dict[str, list[float]] = {}
        failed_shares = set()
        for seed in range(args.seed0, args.seed0 + args.runs):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed_shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} ({time.perf_counter() - start:.1f} s): " + ", ".join(
                f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()), flush=True)
        summary[workload] = {name: summarize(series) for name, series in values.items()}
        summary[workload]["failed_shares"] = sorted(failed_shares)
        for name, stats in summary[workload].items():
            if name != "failed_shares":
                print(f"{workload:18s} {name:40s} median {stats['median']:12.6g}  "
                      f"q1 {stats['q1']:12.6g}  q3 {stats['q3']:12.6g}  spread {stats['spread']:.4f}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
