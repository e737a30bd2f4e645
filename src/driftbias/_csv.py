"""The one CSV reader behind every input file: a header line, then
comma-separated rows. Each caller keeps only the rules of its own format.
Errors read ``{path}: line N[, column k]: ...`` with N the physical line.
"""

import math
from typing import Iterator

from .errors import ParseError


def read_rows(path: str, header: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, cells)`` for each data row of the UTF-8 file ``path``.

    Whitespace-only lines are skipped but counted. The first other line
    must equal ``header``, and every row must have as many cells as it.
    """
    with open(path, "r", encoding="utf-8") as handle:
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
