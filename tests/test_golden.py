"""Byte-for-byte guards on the CLI's CSV output.

The files under tests/golden/ were written by the CLI before the closed
form and the alpha fit were rewritten as array code; any change to the
arithmetic, its order or the rendering shows up here as a diff.
"""

import pathlib

import pytest

from driftbias import cli

ROOT = pathlib.Path(__file__).resolve().parent
GOLDEN = ROOT / "golden"
FIXTURES = ROOT.parent / "fixtures"

# 21 x 21 over [-1, 1]^2 at sigma = 0.045: each direction has 10 cells
# whose conditioning event is degenerate.
SURFACE_ARGV = [
    "surface",
    "--mu-min", "-1", "--mu-max", "1", "--mu-steps", "21",
    "--c-min", "-1", "--c-max", "1", "--c-steps", "21",
    "--sigma", "0.045", "--T", "1",
]


def cli_stdout(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out.encode()


def pipeline_argv(config):
    return [
        "pipeline",
        "--prices", str(FIXTURES / "prices.csv"),
        "--capm", str(FIXTURES / "capm.csv"),
        "--config", str(config),
    ]


def test_fixture_report_matches_golden(capsys):
    out = cli_stdout(capsys, pipeline_argv(FIXTURES / "pipeline.cfg"))
    assert out == (GOLDEN / "fixture_report.csv").read_bytes()


def test_fixture_report_with_fitted_alpha_matches_golden(capsys, tmp_path):
    text = (FIXTURES / "pipeline.cfg").read_text()
    assert "fit_alpha = false" in text
    config = tmp_path / "pipeline.cfg"
    config.write_text(text.replace("fit_alpha = false", "fit_alpha = true"))
    out = cli_stdout(capsys, pipeline_argv(config))
    assert out == (GOLDEN / "fixture_report_fit_alpha.csv").read_bytes()


def test_fixture_report_with_constant_benchmark_matches_golden(capsys, tmp_path):
    text = (FIXTURES / "pipeline.cfg").read_text()
    assert "benchmark_mode = per_period" in text
    config = tmp_path / "pipeline.cfg"
    config.write_text(text.replace("benchmark_mode = per_period", "benchmark_mode = constant\nconstant_c = 0.05"))
    out = cli_stdout(capsys, pipeline_argv(config))
    assert out == (GOLDEN / "fixture_report_constant.csv").read_bytes()


@pytest.mark.parametrize("direction", ["above", "at_or_below"])
def test_surface_matches_golden(capsys, direction):
    out = cli_stdout(capsys, SURFACE_ARGV + ["--direction", direction])
    golden = (GOLDEN / f"surface_{direction}.csv").read_bytes()
    assert out == golden
    assert golden.count(b",degenerate\n") == 10
