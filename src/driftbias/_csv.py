"""The one CSV reader behind every input file: a header line, then
comma-separated rows. Each caller keeps only the rules of its own format.
Errors read ``{path}: line N[, column k]: ...`` with N the physical line.

``read_table`` reads a plain file column-wise with numpy's tokenizer and
gives up, without an error, on anything else; ``read_rows`` reads any file
row by row, and itself refuses only a wrong header or a row's width.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterator

import numpy as np

from .errors import ParseError

# The bytes of a plain file: printable ASCII and line ends. str.splitlines
# also ends lines at \x0b, \x0c and \x1c-\x1e, str.strip and float() also
# strip other whitespace, and numpy's tokenizer does neither the same way.
_PLAIN = bytes(range(0x20, 0x7F)) + b"\r\n"


def read_rows(path: str, header: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, cells)`` for each data row of the UTF-8 file ``path``, BOM or none.

    Whitespace-only lines are skipped but counted. The first other line
    must equal ``header``, and every row must have as many cells as it.
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        numbered = enumerate(handle.read().splitlines(), start=1)
    for lineno, line in numbered:
        if line.strip():
            if line.strip() != header:
                raise ParseError(f"{path}: line {lineno}: expected header '{header}'")
            break
    else:
        raise ParseError(f"{path}: empty file, expected header '{header}'")
    width = header.count(",") + 1
    for lineno, line in numbered:
        cells = line.split(",")
        # A blank line splits into one cell: only a one-column file must test for it here.
        if len(cells) == width and (width > 1 or line.strip()):
            yield lineno, cells
        elif line.strip():
            raise ParseError(f"{path}: line {lineno}: expected {width} columns, got {len(cells)}")


def read_table(path: str, header: str, dtype: np.dtype) -> np.ndarray | None:
    """The data rows of ``path`` as one structured array, or None.

    The file is parsed column-wise only when its name is plain, its first
    line is exactly ``header``, every other byte is printable ASCII or a
    line end, it has at least one row, and every row parses into
    ``dtype``. Otherwise the result is None, and the caller reads the file
    with ``read_rows``.

    Float and integer fields hold what ``float`` and ``int`` make of the
    same cell. String fields hold the raw cell, neither stripped like
    ``read_rows`` cells nor kept whole when it is as long as the field, so
    callers must check them.
    """
    # np.loadtxt reads a file whose name ends in one of these as compressed,
    # and a name shaped like a URL as one to download.
    name = str(path)
    if name.endswith((".gz", ".bz2", ".xz", ".lzma")) or "://" in name:
        return None
    with open(path, "rb") as handle:
        if handle.readline() != header.encode() + b"\n":
            return None
        has_rows = False
        while chunk := handle.read(1 << 24):
            if chunk.translate(None, _PLAIN):
                return None
            has_rows = has_rows or not chunk.isspace()
    if not has_rows:
        return None
    try:
        with warnings.catch_warnings():
            # Older numpy reads "2009.0" into an integer field, warning only that this is deprecated.
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(
                path, dtype=dtype, delimiter=",", comments=None, skiprows=1, ndmin=1, encoding="latin-1"
            )
    except (ValueError, DeprecationWarning):
        return None


def invalid(path: str, lineno: int, cells: list[str], index: int, what: str) -> ParseError:
    """The error for a cell that does not parse as ``what``."""
    text = cells[index].strip()
    return ParseError(f"{path}: line {lineno}, column {index + 1}: invalid {what} '{text}'")


def finite(path: str, lineno: int, cells: list[str], index: int, what: str) -> float:
    """``cells[index]`` as a finite float; ``nan``, ``inf`` and an overflowing ``1e400`` fail."""
    try:
        value = float(cells[index])
    except ValueError:
        raise invalid(path, lineno, cells, index, what) from None
    if not math.isfinite(value):
        raise ParseError(f"{path}: line {lineno}: {what} must be finite, got {value}")
    return value
