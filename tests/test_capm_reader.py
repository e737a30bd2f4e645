"""The CAPM reader against its row-by-row reference.

``pipeline._read_capm`` must return what ``pipeline._read_capm_rows``
returns for every file: the same (stock_id, year) keys with the same
values bit for bit, or the same error with the same text. Random files
start valid and then take a few edits, among them every shape that a
column-wise reader must read as the row loop does or leave to it: blank
and whitespace-only lines, CRLF line ends, padded cells, years with a
sign, an underscore, a decimal point, non-ASCII digits or more digits
than an int64 holds, non-finite values, non-ASCII and over-long ids,
duplicate rows, stray control characters and bytes that are not UTF-8.
"""

import pathlib
import tempfile
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from driftbias import _csv, pipeline
from driftbias.errors import ParseError

ID_CHARS = st.sampled_from("0123456789ABCXYZabz-._ ")
VALUE_TEXTS = st.one_of(
    st.floats(-3.0, 3.0).map(repr),
    st.floats(-3.0, 3.0).map(lambda x: f"{x:.4f}"),
    st.sampled_from(["1", "+2.5", ".5", "5.", "1e-2", "-0.0", "0", "1e308", "-1.7e308"]),
)
BAD_YEARS = st.sampled_from([
    "+2011", "-2011", " 2011", "2011 ", "2_011", "２０１１", "20.11", "2e3", "", "0x7db", "0", "0002011",
    "1234567", "12345678", "123456789012345678901234", "2011\x0c", "2011.0",
])
BAD_VALUES = st.sampled_from([
    "nan", "inf", "-inf", "1e400", "-1e400", "1_0", "１", "0x10", "", "abc", " 1.5 ", "\t1.5", "1.5\x0c",
])
CONTROL = st.sampled_from(["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", " ", "\x00", "\t", "\r"])
EDITS = [
    "blank", "spaces", "crlf", "pad_id", "bad_year", "bad_value", "long_id", "non_ascii_id", "empty_id",
    "control", "duplicate", "same_key", "width", "latin1",
]


@st.composite
def capm_files(draw):
    """The bytes of a CAPM file: valid rows, then up to three edits."""
    ids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=8).map(str.strip).filter(bool),
                        min_size=1, max_size=3, unique=True))
    rows = []
    for stock_id in ids:
        first = draw(st.integers(1990, 2012))
        for year in range(first, first + draw(st.integers(1, 3))):
            rows.append([stock_id, str(year), *(draw(VALUE_TEXTS) for _ in range(3))])
    lines = [pipeline.CAPM_HEADER, *(",".join(row) for row in rows)]
    newline, encoding = "\n", "utf-8"
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(EDITS))
        at = draw(st.integers(1, len(lines) - 1))
        cells = lines[at].split(",")
        if edit == "blank":
            lines.insert(draw(st.integers(0, len(lines))), "")
        elif edit == "spaces":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([" ", "\t", " \t "])))
        elif edit == "crlf":
            newline = "\r\n"
        elif edit == "latin1":
            encoding = "latin-1"
        elif edit == "duplicate":
            lines.insert(at, lines[at])
        elif edit == "width":
            lines[at] += draw(st.sampled_from([",", ",1"]))
        elif edit == "control":
            text = lines[at]
            cut = draw(st.integers(0, len(text)))
            lines[at] = text[:cut] + draw(CONTROL) + text[cut:]
        elif len(cells) == 5:
            if edit == "pad_id":
                cells[0] = draw(st.sampled_from([" ", "\t"])) + cells[0] + draw(st.sampled_from(["", " "]))
            elif edit == "bad_year":
                cells[1] = draw(BAD_YEARS)
            elif edit == "bad_value":
                cells[draw(st.integers(2, 4))] = draw(BAD_VALUES)
            elif edit == "long_id":
                cells[0] = cells[0] + "L" * draw(st.integers(8, 20))
            elif edit == "non_ascii_id":
                cells[0] = "é" + cells[0]
            elif edit == "empty_id":
                cells[0] = ""
            elif edit == "same_key":
                # Another row with this row's key in other spellings of it.
                cells[1] = draw(st.sampled_from(["0" + cells[1], " " + cells[1], cells[1]]))
                cells[0] = draw(st.sampled_from(["", " "])) + cells[0]
                lines.append(",".join(cells))
                continue
            lines[at] = ",".join(cells)
    return (newline.join(lines) + newline).encode(encoding, errors="replace")


def rows(capm):
    """The ((stock_id, year), (beta, risk_free, market_return_expectation)) rows of CAPM columns."""
    ids = [stock_id for stock_id, count in zip(capm.stock_ids, np.diff(capm.starts).tolist()) for _ in range(count)]
    values = zip(capm.beta.tolist(), capm.risk_free.tolist(), capm.market_return_expectation.tolist())
    return list(zip(zip(ids, capm.years.tolist()), values))


def outcome(read, path):
    """The rows ``read`` returns, values as repr, or the type and text of its error."""
    try:
        capm = read(path)
    except (ParseError, ValueError) as exc:
        return type(exc), str(exc)
    return sorted((key, tuple(map(repr, values))) for key, values in rows(capm))


@settings(max_examples=300, deadline=None)
@given(data=capm_files())
def test_reader_matches_row_loop(data):
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory) / "capm.csv"
        path.write_bytes(data)
        assert outcome(pipeline._read_capm, str(path)) == outcome(pipeline._read_capm_rows, str(path))


FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "capm.csv"


def column_wise(path):
    """Whether ``_read_capm`` reads ``path`` column-wise rather than row by row."""
    table = _csv.read_table(str(path), pipeline.CAPM_HEADER, pipeline._CAPM_DTYPE)
    return table is not None and pipeline._capm_columns(table) is not None


def test_plain_files_are_read_column_wise(tmp_path):
    assert column_wise(FIXTURE)
    path = tmp_path / "capm.csv"
    path.write_text(
        f"{pipeline.CAPM_HEADER}\nA B,2011,1.5,-0.0,1e308\nA B,0002012,1,0.5,-2\n"
        "AAAAAAAAAAAAAAA,1234567,0,0,0\nC,0,.5,5.,1E-2\n"
    )
    assert column_wise(path)
    assert outcome(pipeline._read_capm, str(path)) == outcome(pipeline._read_capm_rows, str(path))
    assert dict(rows(pipeline._read_capm(str(path))))[("A B", 2012)] == (1.0, 0.5, -2.0)


def capm_file(tmp_path, row):
    """A CAPM file with ``row`` between two plain rows of stocks A and B."""
    path = tmp_path / "capm.csv"
    path.write_bytes(f"{pipeline.CAPM_HEADER}\nA,2011,1,0.03,0.08\n{row}\nB,2011,1,0.03,0.08\n".encode())
    return path


# Years that numpy's integer parser reads as int() does.
@pytest.mark.parametrize(
    "row",
    ["AA,+2011,1,0.03,0.08", "AA,-2011,1,0.03,0.08", "AA, 2011,1,0.03,0.08", "AA,2011 ,1,0.03,0.08",
     "AA,12345678,1,0.03,0.08"],
)
def test_signed_padded_and_long_years_are_read_column_wise(tmp_path, row):
    path = capm_file(tmp_path, row)
    assert column_wise(path)
    assert outcome(pipeline._read_capm, str(path)) == outcome(pipeline._read_capm_rows, str(path))


# Rows numpy's tokenizer would refuse, take, cut or read otherwise than the
# row loop does. Each sits between stocks A and B, so that only the check it
# names can send the file to the row loop.
@pytest.mark.parametrize(
    "row",
    [
        "AA,2_011,1,0.03,0.08", "AA,,1,0.03,0.08", "AA,20.11,1,0.03,0.08", "AA,2011.0,1,0.03,0.08",
        "AA,12345678901234567890,1,0.03,0.08",
        "AAAAAAAAAAAAAAAA,2011,1,0.03,0.08", "AAAAAAAAAAAAAAAAA,2011,1,0.03,0.08", " AA,2011,1,0.03,0.08",
        "AA ,2011,1,0.03,0.08", "AA,2011,nan,0.03,0.08", "AA,2011,1,inf,0.08", "AA,2011,1,0.03,1e400",
        "A,2011,1,0.03,0.08", "A,02011,2,0.03,0.08", "AA,2011,1_0,0.03,0.08", "AA,2011,1,0.03,0.08,1",
        "é,2011,1,0.03,0.08", "AA,2011,\t1,0.03,0.08",
    ],
)
def test_unusual_rows_go_to_the_row_loop(tmp_path, row):
    path = capm_file(tmp_path, row)
    assert not column_wise(path)
    assert outcome(pipeline._read_capm, str(path)) == outcome(pipeline._read_capm_rows, str(path))


def test_a_deprecated_integer_parse_goes_to_the_row_loop(monkeypatch):
    # Older numpy reads "2011.0" into an integer field, warning that this is deprecated.
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    assert not column_wise(FIXTURE)
