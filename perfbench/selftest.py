"""Shows that the benchmark's checks catch a wrong output.

    python3 perfbench/selftest.py

1. ``driftbias pipeline`` on the committed fixture passes the independent
   portfolio reference and the planted order sd_esa < sd_sa < sd_tilde;
   the same report with one value nudged by 1e-6 relative fails.
2. ``driftbias surface`` on the small set-up grid passes the surface
   checks in both directions; nudged, it fails.
3. A whole run, ``run.py --workload surface_grid --nudge``, reports
   ``"correct": false`` and exits 1.

Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys

import check
import gen
import run


def main() -> int:
    failures = []

    def expect(name: str, problems: list[str], should_fail: bool) -> None:
        if bool(problems) != should_fail:
            failures.append(f"{name}: expected {'a failure' if should_fail else 'a pass'}, got {problems or 'a pass'}")
        print(f"{'ok  ' if bool(problems) == should_fail else 'FAIL'} {name}")

    report = run.run_child([sys.executable, "-m", "driftbias", *run.PIPELINE_SETUP]).stdout
    fixture = run.FIXTURE
    reference = check.portfolio_reference(fixture / "prices.csv", fixture / "capm.csv", fixture / "pipeline.cfg")
    expect("fixture report", check.check_portfolio(report, reference) + check.check_fixture_report(report), False)
    expect("fixture report, nu_hat nudged", check.check_portfolio(check.nudged(report, column=1), reference), True)
    expect("fixture report, sd_esa nudged", check.check_portfolio(check.nudged(report, column=7), reference), True)

    for side in ("above", "at_or_below"):
        argv = [*run.SURFACE_SETUP[:-1], side]
        surface = run.run_child([sys.executable, "-m", "driftbias", *argv]).stdout
        above = side == "above"
        expect(f"surface {side}", check.check_surface(surface, gen.SETUP_GRID, above), False)
        expect(f"surface {side}, expectation nudged",
               check.check_surface(check.nudged(surface, column=2), gen.SETUP_GRID, above), True)

    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "surface_grid", "--seed", "1",
         "--seconds", "1", "--nudge"],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    correct = json.loads(lines[-1])["correct"] if lines else None
    whole_run_fails = proc.returncode == 1 and correct is False
    expect("whole run with --nudge", ["rejected"] if whole_run_fails else [], True)

    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
