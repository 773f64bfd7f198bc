"""The one on-disk table format, shared by dataset files and reports.

Delimited files are UTF-8 with csv-module quoting, '\n' line ends and one
header row. Readers find columns by header name, so columns may come in any
order and extra ones are ignored; a column that is read must be named once.
Blank lines are skipped; every other row must have exactly as many cells as
the header, since an unquoted delimiter inside a cell would otherwise shift
or drop values.

Both readers read a file once and check its bytes whole before any row: a
file that is not UTF-8, or that holds a NUL or a carriage return outside a
CRLF line end, is refused at the line of the first such byte. So CRLF files
read as '\n' ones do, and every error counts lines as `wc -l` does.

JSON-lines files hold one object per line; blank lines are skipped on
reading, and writing sorts the keys and keeps non-ASCII characters as they are.
Readers of both skip a leading UTF-8 byte-order mark, which spreadsheet and
editor exports may write; writers write none.

strict_int parses every integer cell, and every integer config key, as ASCII
'-?[0-9]+' and nothing else: no sign '+', spaces, '_' or non-ASCII digits.

The readers are the one place a bad row becomes an error. Each serves one
with block, and a ValueError raised in it, by the reader (a wrong row width,
bad JSON) or by the code that consumes the rows (a cell it cannot parse, a
record it cannot build), leaves the block as DataError 'FILE line N: reason',
N the first line of the row being read. So a consumer raises a plain ValueError
and never counts lines.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DataError, _shown

# The most distinct texts a _CellMemo keeps.
_MEMO_CAP = 4096


class _CellMemo(dict):
    """Memoized parse: cells[text] is parse(text).

    A text's first lookup keeps its value while fewer than _MEMO_CAP are
    kept; a text that parse rejects raises parse's ValueError and is not kept.
    """

    __slots__ = ("parse",)

    def __init__(self, parse: Callable[[str], object]):
        super().__init__()
        self.parse = parse

    def __missing__(self, text: str):
        value = self.parse(text)
        if len(self) < _MEMO_CAP:
            self[text] = value
        return value


_INTEGER = re.compile(r"-?[0-9]+")


def strict_int(name: str, text: str) -> int:
    """The value of an ASCII '-?[0-9]+' text; otherwise a ValueError naming the column or key."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:
            # More digits than the int-string limit; Python's own text for it
            # differs between versions.
            pass
    raise ValueError(f"{name} {_shown(text)} is not an integer")


@contextmanager
def read_rows(
    path: Path, columns: Sequence[str], delimiter: str = ","
) -> Iterator[Iterator[Sequence[str]]]:
    """Each row's cells of `columns` (two or more), in that order: `with read_rows(...) as rows`.

    A missing column raises DataError 'FILE: missing required column: ...'.
    """
    with _text(path) as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        with _at_line(path, lambda: _first_line(path, delimiter, reader.line_num)):
            names = next(reader, [])
            for col in columns:
                if col not in names:
                    raise DataError(f"{path.name}: missing required column: {col!r}")
                if names.count(col) > 1:
                    raise ValueError(f"header names column {col!r} twice")
            pick = operator.itemgetter(*(names.index(col) for col in columns))
            yield _cells(reader, len(names), pick)


def _first_line(path: Path, delimiter: str, end: int) -> int:
    """The first line of the record that the csv reader was reading on line `end`.

    A quoted cell may hold line ends, and the reader counts the last line it
    has read. Only an error asks for the first one, so the file is read
    again up to that record rather than each row's start kept.
    """
    start = 1
    with _text(path) as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            for _ in reader:
                if reader.line_num >= end:
                    break
                start = reader.line_num + 1
        except csv.Error:
            pass  # the record that failed to read, at `start`
    return start


def _cells(reader: Iterator[list[str]], width: int, pick: Callable) -> Iterator[Sequence[str]]:
    """pick(row) of each non-blank row, which must be `width` cells long."""
    for row in reader:
        if len(row) != width:
            if not row:
                continue
            side = "fewer" if len(row) < width else "more"
            raise ValueError(f"row has {side} cells than the header")
        yield pick(row)


@contextmanager
def _at_line(path: Path, line_num: Callable[[], int]) -> Iterator[None]:
    """A ValueError or csv.Error leaves the block as DataError 'FILE line N: reason', N = line_num()."""
    try:
        yield
    except csv.Error as exc:
        raise DataError(f"{path.name} line {line_num()}: unreadable row: {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path.name} line {line_num()}: {exc}") from None


def _text(path: Path) -> io.TextIOWrapper:
    """The file's text for one reader, from one read of its bytes, which are checked first.

    Refused in this order: bytes that are not UTF-8; a NUL, which Python
    3.10's csv module refuses and later versions read; a lone carriage
    return, which a reader would take for a line end that `wc -l` does not.
    """
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _refused(path, data, exc.start, f"not valid UTF-8: {exc.reason}") from None
    if (at := data.find(b"\0")) >= 0:
        raise _refused(path, data, at, "unreadable row: line contains NUL")
    if lone_cr := re.search(rb"\r(?!\n)", data):
        raise _refused(path, data, lone_cr.start(), "unreadable row: carriage return outside a CRLF line end")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")


def _refused(path: Path, data: bytes, at: int, reason: str) -> DataError:
    """DataError 'FILE line N: reason', N the line of the file's byte `at`."""
    line_no = data.count(b"\n", 0, at) + 1
    return DataError(f"{path.name} line {line_no}: {reason}")


def write_rows(
    path: Path, columns: Sequence[str], rows: Iterable[Sequence[object]], delimiter: str = ","
) -> None:
    """Write the header, then one line per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        out.writerow(columns)
        out.writerows(rows)


@contextmanager
def read_json_lines(path: Path) -> Iterator[Iterator[dict]]:
    """The objects of the non-blank lines, for one with block, as read_rows gives rows."""
    line_no = 0  # the line last read, which an error names

    def objects(lines: Iterable[str]) -> Iterator[dict]:
        nonlocal line_no
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid JSON: {exc.msg}") from None
            except ValueError:
                # An integer longer than the int-string limit; Python's
                # own text for it differs between versions.
                raise ValueError("invalid JSON: number too long") from None
            except RecursionError as exc:
                # Nesting deeper than the recursion limit.
                raise ValueError(f"invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
            yield obj

    with _text(path) as fh, _at_line(path, lambda: line_no):
        yield objects(fh)


def write_json_lines(path: Path, objects: Iterable[dict]) -> None:
    """One JSON object per line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")
