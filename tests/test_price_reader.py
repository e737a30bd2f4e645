"""The prices reader against its row-by-row reference.

``pipeline._read_prices`` must return what ``oracles.read_price_rows``
returns for every file: the same columns, closes bit for bit, or the same
error with the same text. Random files start valid and then take a few
edits, among them every shape that numpy's tokenizer must leave to the
tokeniser over ``read_rows``: blank and whitespace-only lines, CRLF line
ends, padded cells, ``1_0`` and full-width digits, non-ASCII and
over-long ids, dates that are not exactly ``dddd-dd-dd``, stray control
characters and bytes that are not UTF-8.
"""

import datetime
import pathlib
import tempfile
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from driftbias import _csv, pipeline
from driftbias.errors import ParseError
from oracles import DATE_SHAPE, read_price_rows

ID_CHARS = st.sampled_from("0123456789ABCXYZabz-._ ")
CLOSE_TEXTS = st.one_of(
    st.floats(1e-3, 1e5).map(repr),
    st.floats(1e-3, 1e5).map(lambda x: f"{x:.4f}"),
    st.sampled_from(["1", "+2.5", ".5", "5.", "1e2", "1E-2", "12.50"]),
)
BAD_DATES = st.sampled_from([
    "2011", "2011-01", "+2011-01-01", "NaT", "0000-01-01", "2011-01-01T00", "20110101",
    "2011-02-30", "2011-13-01", "2011-1-01", "2011-01-1", "2011/01/01", "", "２０１１-01-01",
    "2011-00-01", "2011-01-00", "2011-01-32", "2011-04-31", "2011-02-29", "1900-02-29", ":011-01-01",
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
    """The columns ``read`` returns, closes as raw bytes and one id per segment, or the type
    and text of its error."""
    try:
        prices = read(path)
    except (ParseError, ValueError) as exc:
        return type(exc), str(exc)
    counts = np.diff(prices.firsts).tolist()
    stock_ids = [stock_id for stock_id, count in zip(prices.stock_ids, counts) for _ in range(count)]
    return prices.closes.dtype, prices.closes.tobytes(), stock_ids, prices.years.tolist(), prices.offsets.tolist()


@settings(max_examples=300, deadline=None)
@given(data=price_files())
def test_reader_matches_row_loop(data):
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory) / "prices.csv"
        path.write_bytes(data)
        assert outcome(pipeline._read_prices, str(path)) == outcome(read_price_rows, str(path))


FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "prices.csv"


def column_wise(path):
    """Whether ``_read_prices`` reads ``path`` from numpy's tokens alone, never
    calling ``read_rows``."""
    with mock.patch.object(pipeline, "read_rows", side_effect=AssertionError):
        try:
            pipeline._read_prices(str(path))
        except AssertionError:
            return False
    return True


def test_a_file_without_rows_is_not_read_column_wise(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("stock_id,date,close\n")
    assert _csv.read_table(str(path), pipeline.PRICES_HEADER, pipeline._PRICE_DTYPE) is None


@pytest.mark.parametrize("name", ["prices.csv.gz", "prices.bz2", "prices.xz", "prices.lzma"])
def test_names_numpy_would_decompress_go_to_the_row_loop(tmp_path, name):
    path = tmp_path / name
    path.write_text("stock_id,date,close\nA,2011-01-01,1.0\nA,2011-01-02,1.5\n")
    assert not column_wise(path)
    assert outcome(pipeline._read_prices, str(path)) == outcome(read_price_rows, str(path))
    assert pipeline._read_prices(str(path)).closes.tolist() == [1.0, 1.5]


def test_plain_files_are_read_column_wise(tmp_path):
    assert column_wise(FIXTURE)
    path = tmp_path / "prices.csv"
    path.write_text("stock_id,date,close\nA B,2011-01-03,1.5\nA B,2011-12-30,2\nC,2011-01-03,1e2\n")
    assert column_wise(path)
    assert outcome(pipeline._read_prices, str(path)) == outcome(read_price_rows, str(path))


# Rows numpy's tokenizer would take, cut or read otherwise than the row
# loop does, or that break a rule. Each sits between stocks A and B, so
# that only the check it names can send the file to ``read_rows``.
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
        "AA,2011-01-01,1.5\x1f", "AA,2011-01-01,\x1f1.5",
    ],
)
def test_unusual_rows_go_to_the_row_loop(tmp_path, row):
    path = tmp_path / "prices.csv"
    path.write_bytes(f"stock_id,date,close\nA,2011-01-01,1.0\n{row}\nB,2011-01-01,1.0\n".encode())
    assert not column_wise(path)
    assert outcome(pipeline._read_prices, str(path)) == outcome(read_price_rows, str(path))


@pytest.mark.parametrize(
    "first_lines",
    ["stock_id,date,price\n", " stock_id,date,close\n", "stock_id,date,close\r\n", "\nstock_id,date,close\n",
     "\ufeffstock_id,date,close\n"],
)
def test_unusual_headers_go_to_the_row_loop(tmp_path, first_lines):
    path = tmp_path / "prices.csv"
    path.write_bytes(f"{first_lines}A,2011-01-01,1.0\nA,2011-01-02,1.5\n".encode())
    assert not column_wise(path)
    assert outcome(pipeline._read_prices, str(path)) == outcome(read_price_rows, str(path))


@pytest.mark.parametrize("date", ["20110103", "2011-W01-1"])
def test_row_loop_takes_only_dashed_dates(tmp_path, date):
    # From Python 3.11 on date.fromisoformat takes both shapes; 3.10 takes neither.
    path = tmp_path / "prices.csv"
    path.write_text(f"stock_id,date,close\nA,2011-01-01,1.0\nA, {date} ,1.5\n")
    with pytest.raises(ParseError) as error:
        pipeline._read_prices(str(path))
    assert str(error.value) == f"{path}: line 3, column 2: invalid ISO date '{date}'"


def row_loop_year(cell):
    """The year the row loop reads from a date cell, or None where it rejects the cell."""
    text = cell.rstrip(b"\0").decode("latin-1")
    if not DATE_SHAPE.fullmatch(text):
        return None
    try:
        return datetime.date.fromisoformat(text).year
    except ValueError:
        return None


def date_cells():
    """Every day 00-32 of months 00-13 in a few years, then each byte value at each
    byte of the cell of 2012-02-29."""
    for year in ("0000", "0001", "1900", "2000", "2011", "2012", "9999"):
        for month in range(14):
            for day in range(33):
                yield f"{year}-{month:02}-{day:02}".encode().ljust(16, b"\0")
    leap_day = b"2012-02-29".ljust(16, b"\0")
    for at in range(16):
        for value in range(256):
            yield leap_day[:at] + bytes([value]) + leap_day[at + 1 :]


def test_date_cells_match_the_row_loop():
    for cell in date_cells():
        prices = pipeline._price_columns(np.array([True]), ["A"], np.frombuffer(cell, ">u8").reshape(1, 2), [1.0])
        year = row_loop_year(cell)
        if year is None:
            assert prices == (0, "date"), cell
        else:
            assert prices.years.tolist() == [year], cell


@pytest.mark.parametrize(
    "first, second",
    [
        ("2011-01-05", "2011-01-05"), ("2011-01-06", "2011-01-05"), ("2011-01-09", "2011-01-10"),
        ("2011-01-10", "2011-01-09"), ("2011-01-31", "2011-02-01"), ("2011-02-01", "2011-01-31"),
        ("2011-09-30", "2011-10-01"), ("2011-10-01", "2011-09-30"), ("2011-12-31", "2012-01-01"),
        ("2012-01-01", "2011-12-31"), ("1999-12-31", "2000-01-01"), ("2000-01-01", "1999-12-31"),
    ],
)
def test_two_dates_of_a_stock_must_rise(tmp_path, first, second):
    path = tmp_path / "prices.csv"
    path.write_text(f"stock_id,date,close\nA,{first},1.0\nA,{second},1.5\nB,{first},2.0\n")
    assert column_wise(path) == (first < second)
    assert outcome(pipeline._read_prices, str(path)) == outcome(read_price_rows, str(path))


# Files whose first fault the row loop finds before a later one of another
# kind, or that only a row-by-row tokeniser reads as the row loop does:
# ids that an S16 field would cut or lose a trailing NUL of, or that are
# not ASCII. Each pairs the file with the end of its error, or None.
HEADER, CRLF_HEADER = "stock_id,date,close\n", "stock_id,date,close\r\n"


@pytest.mark.parametrize(
    "text, error",
    [
        (HEADER + "A,2011-01-02,1.0\nA,2011-01-01,1.0\nA,2011-01-03,x\n",
         "line 3: rows must be strictly sorted by (stock_id, date)"),
        (HEADER + "A,2011-01-01,1.0\nA,2011-02-30,1.0\nA,2011-03-01,1.0,2\n",
         "line 3, column 2: invalid ISO date '2011-02-30'"),
        (HEADER + "A,2011-01-01,1.0\nA,2011-01-02,1.5\nB,2011-01-01\n", "line 4: expected 3 columns, got 2"),
        (CRLF_HEADER + "A\0,2011-01-02,1.0\r\nA,2011-01-03,1.0\r\n",
         "line 3: rows must be strictly sorted by (stock_id, date)"),
        (CRLF_HEADER + "AAAAAAAAAAAAAAAAB,2011-01-01,1.0\r\nAAAAAAAAAAAAAAAAA,2011-01-02,1.0\r\n",
         "line 3: rows must be strictly sorted by (stock_id, date)"),
        (CRLF_HEADER + "é,2011-01-01,1.0\r\ne,2011-01-02,1.0\r\n",
         "line 3: rows must be strictly sorted by (stock_id, date)"),
        (CRLF_HEADER, None),
    ],
)
def test_first_fault_matches_the_row_loop(tmp_path, text, error):
    path = tmp_path / "prices.csv"
    path.write_bytes(text.encode())
    expected = outcome(read_price_rows, str(path))
    assert outcome(pipeline._read_prices, str(path)) == expected
    if error is None:
        assert expected[2] == []
    else:
        assert expected == (ParseError, f"{path}: {error}")
