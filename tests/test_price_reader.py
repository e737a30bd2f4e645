"""The prices reader against its row-by-row reference.

``pipeline._read_prices`` must return what ``pipeline._read_price_rows``
returns for every file: the same columns, closes bit for bit, or the same
error with the same text. Random files start valid and then take a few
edits, among them every shape that a column-wise reader must leave to the
row loop: blank and whitespace-only lines, CRLF line ends, padded cells,
``1_0`` and full-width digits, non-ASCII and over-long ids, dates that
are not exactly ``dddd-dd-dd``, stray control characters and bytes that
are not UTF-8.
"""

import pathlib
import tempfile

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from driftbias import _csv, pipeline
from driftbias.errors import ParseError

ID_CHARS = st.sampled_from("0123456789ABCXYZabz-._ ")
CLOSE_TEXTS = st.one_of(
    st.floats(1e-3, 1e5).map(repr),
    st.floats(1e-3, 1e5).map(lambda x: f"{x:.4f}"),
    st.sampled_from(["1", "+2.5", ".5", "5.", "1e2", "1E-2", "12.50"]),
)
BAD_DATES = st.sampled_from([
    "2011", "2011-01", "+2011-01-01", "NaT", "0000-01-01", "2011-01-01T00", "20110101",
    "2011-02-30", "2011-13-01", "2011-1-01", "2011-01-1", "2011/01/01", "", "２０１１-01-01",
])
BAD_CLOSES = st.sampled_from([
    "nan", "inf", "-inf", "1e400", "0", "-0.0", "-1.5", "1_0", "１", "0x10", "1,5", "", "abc", "1.5\x0c2",
])
CONTROL = st.sampled_from(["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", " ", "\x00", "\t", "\r"])
EDITS = [
    "blank", "spaces", "crlf", "pad_id", "pad_date", "pad_close", "bad_date", "bad_close",
    "long_id", "non_ascii_id", "empty_id", "control", "swap", "duplicate", "width", "latin1",
]


@st.composite
def price_files(draw):
    """The bytes of a prices file: sorted valid rows, then up to three edits."""
    ids = sorted(set(draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=8).map(str.strip)
                                   .filter(bool), min_size=1, max_size=3))))
    rows = []
    for stock_id in ids:
        first = draw(st.integers(2009, 2012))
        for year in range(first, first + draw(st.integers(1, 3))):
            days = sorted(set(draw(st.lists(st.integers(1, 365), min_size=1, max_size=4))))
            for day in days:
                date = np.datetime64(f"{year}-01-01") + np.timedelta64(day - 1, "D")
                rows.append([stock_id, str(date), draw(CLOSE_TEXTS)])
    lines = ["stock_id,date,close", *(",".join(row) for row in rows)]
    newline, encoding = "\n", "utf-8"
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(EDITS))
        at = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        cells = lines[at].split(",")
        if edit == "blank":
            lines.insert(draw(st.integers(0, len(lines))), "")
        elif edit == "spaces":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([" ", "\t", " \t "])))
        elif edit == "crlf":
            newline = "\r\n"
        elif edit == "latin1":
            encoding = "latin-1"
        elif edit == "swap" and at > 1:
            lines[at - 1], lines[at] = lines[at], lines[at - 1]
        elif edit == "duplicate":
            lines.insert(at, lines[at])
        elif edit == "width":
            lines[at] += draw(st.sampled_from([",", ",1"]))
        elif edit == "control":
            text = lines[at]
            cut = draw(st.integers(0, len(text)))
            lines[at] = text[:cut] + draw(CONTROL) + text[cut:]
        elif at > 0 and len(cells) == 3:
            if edit == "pad_id":
                cells[0] = draw(st.sampled_from([" ", "\t"])) + cells[0]
            elif edit == "pad_date":
                cells[1] = cells[1] + " "
            elif edit == "pad_close":
                cells[2] = f" {cells[2]} "
            elif edit == "bad_date":
                cells[1] = draw(BAD_DATES)
            elif edit == "bad_close":
                cells[2] = draw(BAD_CLOSES)
            elif edit == "long_id":
                cells[0] = cells[0] + "L" * 20
            elif edit == "non_ascii_id":
                cells[0] = "é" + cells[0]
            elif edit == "empty_id":
                cells[0] = ""
            lines[at] = ",".join(cells)
    return (newline.join(lines) + newline).encode(encoding, errors="replace")


def outcome(read, path):
    """The columns ``read`` returns, closes as raw bytes, or the type and text of its error."""
    try:
        prices = read(path)
    except (ParseError, ValueError) as exc:
        return type(exc), str(exc)
    return prices.closes.dtype, prices.closes.tobytes(), prices.stock_ids, prices.years, prices.offsets


@settings(max_examples=300, deadline=None)
@given(data=price_files())
def test_reader_matches_row_loop(data):
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory) / "prices.csv"
        path.write_bytes(data)
        assert outcome(pipeline._read_prices, str(path)) == outcome(pipeline._read_price_rows, str(path))


FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "prices.csv"


def column_wise(path):
    """Whether ``_read_prices`` reads ``path`` column-wise rather than row by row."""
    table = _csv.read_table(str(path), pipeline.PRICES_HEADER, pipeline._PRICE_DTYPE)
    return table is not None and pipeline._price_columns(table) is not None


@pytest.mark.parametrize("name", ["prices.csv.gz", "prices.bz2", "prices.xz", "prices.lzma"])
def test_names_numpy_would_decompress_go_to_the_row_loop(tmp_path, name):
    path = tmp_path / name
    path.write_text("stock_id,date,close\nA,2011-01-01,1.0\nA,2011-01-02,1.5\n")
    assert not column_wise(path)
    assert outcome(pipeline._read_prices, str(path)) == outcome(pipeline._read_price_rows, str(path))
    assert pipeline._read_prices(str(path)).closes.tolist() == [1.0, 1.5]


def test_plain_files_are_read_column_wise(tmp_path):
    assert column_wise(FIXTURE)
    path = tmp_path / "prices.csv"
    path.write_text("stock_id,date,close\nA B,2011-01-03,1.5\nA B,2011-12-30,2\nC,2011-01-03,1e2\n")
    assert column_wise(path)
    assert outcome(pipeline._read_prices, str(path)) == outcome(pipeline._read_price_rows, str(path))


# Rows numpy's tokenizer or date parser would take, cut or read otherwise
# than the row loop does. Each sits between stocks A and B, so that only
# the check it names can send the file to the row loop.
@pytest.mark.parametrize(
    "row",
    [
        "AA,2011,1.5", "AA,2011-01,1.5", "AA,+2011-01-01,1.5", "AA,NaT,1.5", "AA,0000-01-01,1.5",
        "AA,2011-01-01T00,1.5", "AA,20110101,1.5", "AA,2011-02-29,1.5", "AA, 2011-01-01,1.5",
        "AA,2011-01-01 ,1.5", "AAAAAAAAAAAAAAAAA,2011-01-01,1.5", "AAAAAAAAAAAAAAAA,2011-01-01,1.5",
        " AA,2011-01-01,1.5", "AA ,2011-01-01,1.5", ",2011-01-01,1.5", "AA,2011-01-01,1_5",
        "AA,2011-01-01,\x0c1.5", "AA,2011-01-01,\t1.5", "AA,2011-01-01,１", "é,2011-01-01,1.5",
        "AA,2011-01-01,nan", "AA,2011-01-01,1e400", "AA,2011-01-01,0", "AA,2011-01-01,-1",
        "A,2010-12-31,1.5", "A,2011-01-01,1.5", "0,2011-01-01,1.5", "AA,2011-01-01,1,5",
    ],
)
def test_unusual_rows_go_to_the_row_loop(tmp_path, row):
    path = tmp_path / "prices.csv"
    path.write_bytes(f"stock_id,date,close\nA,2011-01-01,1.0\n{row}\nB,2011-01-01,1.0\n".encode())
    assert not column_wise(path)
    assert outcome(pipeline._read_prices, str(path)) == outcome(pipeline._read_price_rows, str(path))


@pytest.mark.parametrize(
    "first_lines",
    ["stock_id,date,price\n", " stock_id,date,close\n", "stock_id,date,close\r\n", "\nstock_id,date,close\n",
     "\ufeffstock_id,date,close\n"],
)
def test_unusual_headers_go_to_the_row_loop(tmp_path, first_lines):
    path = tmp_path / "prices.csv"
    path.write_bytes(f"{first_lines}A,2011-01-01,1.0\nA,2011-01-02,1.5\n".encode())
    assert not column_wise(path)
    assert outcome(pipeline._read_prices, str(path)) == outcome(pipeline._read_price_rows, str(path))


@pytest.mark.parametrize("date", ["20110103", "2011-W01-1"])
def test_row_loop_takes_only_dashed_dates(tmp_path, date):
    # From Python 3.11 on date.fromisoformat takes both shapes; 3.10 takes neither.
    path = tmp_path / "prices.csv"
    path.write_text(f"stock_id,date,close\nA,2011-01-01,1.0\nA, {date} ,1.5\n")
    with pytest.raises(ParseError) as error:
        pipeline._read_prices(str(path))
    assert str(error.value) == f"{path}: line 3, column 2: invalid ISO date '{date}'"
