"""The benchmark worker's traced replay still runs against the package.

``perfbench/worker.py`` replays a pass layer by layer through the public
API, so a change to that API can break the benchmark without breaking
any other test. This runs both replays in-process on their small warm-up
inputs.
"""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_replays_run_and_count(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    gen = importlib.import_module("gen")

    tracer = worker.Tracer()
    portfolio = worker.replay_portfolio(tracer, worker.FIXTURE)
    for count in ("pipeline.ingest_rows", "pipeline.periods", "gbm.estimate_calls",
                  "conditional.gate_calls", "smoothing.smooth_calls", "pipeline.report_bytes"):
        assert portfolio[count] > 0, count
    surface = worker.replay_surface(worker.Tracer(), gen.SETUP_GRID)
    assert surface["conditional.surface_cells"] > 0
    assert surface["conditional.surface_csv_bytes"] > 0
    assert all(end >= start for _, start, end, _ in tracer.spans)
