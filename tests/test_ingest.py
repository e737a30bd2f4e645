"""The columnar ``ingest`` against the per-stock loop it replaced.

``pipeline.ingest`` must return, for every pair of files, the stocks that
``oracles.reference_ingest`` builds one at a time, field for field and
closes bit for bit, or raise the same first error with the same text.
Random pairs have year gaps, one-close periods, missing, duplicate and
extra CAPM rows, drifting betas (and a beta of 0.0 in one year, -0.0 in
another, which is one beta), CAPM rows out of order and years no date
has. Each pair is read with every mix of plain and CRLF files, and CRLF
sends a file through the reader's row-by-row path.

The portfolio ``ingest`` returns must score to the same bits as the list
of its ``StockDataset`` views and as the reference's list.
"""

import collections.abc
import pathlib
import tempfile

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from oracles import reference_ingest

import driftbias
from driftbias import pipeline
from driftbias.errors import InsufficientDataError, ParseError

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

ID_CHARS = st.sampled_from("0123456789ABCXYZabz-._ ")
RATES = st.sampled_from([0.0, -0.0, 0.03, -0.01, 0.08, 1.5, 1e300])
EDITS = ["gap", "one_close", "missing", "duplicate", "drift", "signed_zero", "extra", "far_year", "huge_year"]


@st.composite
def file_pairs(draw):
    """(prices lines, CAPM lines, config) of a few stocks, then up to three edits."""
    ids = sorted(set(draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=6).map(str.strip).filter(bool),
                                   min_size=1, max_size=4))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edits = draw(st.lists(st.sampled_from(EDITS), max_size=3))
    prices, capm = [], []
    for stock_id in ids:
        years = list(range(draw(st.integers(2006, 2010)), 2012 + draw(st.integers(0, 3))))
        if "gap" in edits and len(years) > 2 and draw(st.booleans()):
            del years[draw(st.integers(1, len(years) - 2))]
        one_close = draw(st.sampled_from(years)) if "one_close" in edits and draw(st.booleans()) else None
        for year in years:
            days = 1 if year == one_close else 2 if rng.random() < 0.02 else int(rng.integers(3, 7))
            dates = np.datetime64(f"{year}-01-01") + np.sort(rng.choice(365, days, replace=False))
            closes = np.exp(rng.normal(4.0, 0.3, days))
            prices += [f"{stock_id},{date},{close!r}" for date, close in zip(dates, closes.tolist())]
        beta = draw(RATES)
        for year in years:
            capm.append([stock_id, str(year), repr(beta), repr(draw(RATES)), repr(draw(RATES))])
    for edit in edits:
        if not capm:
            break
        at = draw(st.integers(0, len(capm) - 1))
        if edit == "missing":
            del capm[at]
        elif edit == "duplicate":
            capm.insert(draw(st.integers(0, len(capm))), list(capm[at]))
        elif edit == "drift":
            capm[at][2] = repr(float(capm[at][2]) + 0.25)
        elif edit == "signed_zero":
            capm[at][2] = "-0.0" if capm[at][2] == "0.0" else capm[at][2]
        elif edit == "extra":
            stock_id = draw(st.sampled_from([*ids, "other"]))
            capm.append([stock_id, str(draw(st.integers(2000, 2020))), "1.0", "0.0", "0.0"])
        elif edit == "far_year":
            capm.append([capm[at][0], draw(st.sampled_from(["0", "-2011", "12345678"])), "1.0", "0.0", "0.0"])
        elif edit == "huge_year":
            capm.append([capm[at][0], "123456789012345678901234", "1.0", "0.0", "0.0"])
    if draw(st.booleans()):
        capm = [capm[k] for k in rng.permutation(len(capm))]
    config = pipeline.PipelineConfig(h_per_year=draw(st.sampled_from([1, 12, 252])))
    return ["stock_id,date,close", *prices], [pipeline.CAPM_HEADER, *map(",".join, capm)], config


def stock_fields(data):
    """Every field of a StockDataset, closes as raw bytes and floats as repr."""
    return (
        data.stock_id, data.years, tuple(map(type, data.years)), data.closes.dtype, data.closes.tobytes(),
        data.offsets.dtype, data.offsets.tolist(), repr(data.step_h), repr(data.beta),
        tuple(map(repr, data.risk_free)), tuple(map(repr, data.market_return_expectation)),
    )


def report_fields(reports, totals):
    return [tuple(map(repr, vars(report).values())) for report in reports], tuple(map(repr, totals))


def outcome(call):
    try:
        return "ok", call()
    except (InsufficientDataError, ParseError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(case=file_pairs())
def test_ingest_matches_per_stock_loop(case):
    prices, capm, config = case
    with tempfile.TemporaryDirectory() as directory:
        for prices_end in ("\n", "\r\n"):
            for capm_end in ("\n", "\r\n"):
                prices_path = pathlib.Path(directory) / "prices.csv"
                capm_path = pathlib.Path(directory) / "capm.csv"
                prices_path.write_bytes((prices_end.join(prices) + prices_end).encode())
                capm_path.write_bytes((capm_end.join(capm) + capm_end).encode())
                paths = (str(prices_path), str(capm_path), config)
                expected = outcome(lambda: [stock_fields(data) for data in reference_ingest(*paths)])
                assert outcome(lambda: [stock_fields(data) for data in pipeline.ingest(*paths)]) == expected
                if expected[0] != "ok":
                    continue
                portfolio = pipeline.ingest(*paths)
                scored = outcome(lambda: report_fields(*pipeline.score_portfolio(portfolio, config)))
                assert outcome(lambda: report_fields(*pipeline.score_portfolio(list(portfolio), config))) == scored
                assert outcome(lambda: report_fields(*pipeline.score_portfolio(reference_ingest(*paths), config))) \
                    == scored


@pytest.mark.parametrize("golden", ["fixture_report.csv", "fixture_report_fit_alpha.csv"])
def test_both_inputs_score_the_fixture_to_its_golden_bytes(golden):
    config = pipeline.PipelineConfig(fit_alpha=golden.endswith("fit_alpha.csv"))
    portfolio = pipeline.ingest(str(FIXTURES / "prices.csv"), str(FIXTURES / "capm.csv"), config)
    expected = (GOLDEN / golden).read_text()
    assert pipeline.report_csv(*pipeline.score_portfolio(portfolio, config)) == expected
    assert pipeline.report_csv(*pipeline.score_portfolio(list(portfolio), config)) == expected
    assert pipeline.report_csv(*pipeline.score_portfolio(list(reversed(portfolio)), config)) == expected


def test_portfolio_reads_as_a_sequence_of_stocks():
    paths = (str(FIXTURES / "prices.csv"), str(FIXTURES / "capm.csv"), pipeline.PipelineConfig())
    portfolio = pipeline.ingest(*paths)
    reference = [stock_fields(data) for data in reference_ingest(*paths)]
    assert len(portfolio) == len(reference) == 10
    # Iteration gives the stocks in id order, which is file order.
    assert [stock_fields(data) for data in portfolio] == reference
    assert [data.stock_id for data in portfolio] == sorted(data.stock_id for data in portfolio)
    assert stock_fields(portfolio[-1]) == reference[-1]
    assert stock_fields(portfolio[-10]) == reference[0]
    assert stock_fields(portfolio[np.int64(3)]) == reference[3]
    for index in (10, -11):
        with pytest.raises(IndexError):
            portfolio[index]
    # Each stock is built on demand, as a read-only copy of its part of the portfolio.
    assert isinstance(portfolio, collections.abc.Sequence)
    # Its constructor checks nothing, so it is not public.
    assert type(portfolio).__name__ not in driftbias.__all__
    assert not portfolio[0].closes.flags.writeable
    assert not np.shares_memory(portfolio[0].closes, portfolio.closes)


def test_empty_prices_give_an_empty_portfolio(tmp_path):
    prices = tmp_path / "prices.csv"
    prices.write_text("stock_id,date,close\n")
    portfolio = pipeline.ingest(str(prices), str(FIXTURES / "capm.csv"), pipeline.PipelineConfig())
    assert len(portfolio) == 0 and list(portfolio) == []
    assert pipeline.score_portfolio(portfolio) == pipeline.score_portfolio([]) == ([], (0.0, 0.0, 0.0))


def test_a_list_of_stocks_keeps_years_an_int64_cannot_hold():
    years = (2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1)
    data = pipeline.StockDataset("A", years, np.arange(1.0, 13.0), [0, 3, 6, 9, 12], 1.0, 1.0, (0.0,) * 4, (0.0,) * 4)
    assert stock_fields(pipeline._portfolio([data])[0]) == stock_fields(data)
    assert len(pipeline.score_portfolio([data])[0]) == 1
