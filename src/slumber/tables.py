"""The one on-disk table format, shared by dataset files and reports.

Delimited files are UTF-8 with csv-module quoting, '\n' line ends and one
header row. Readers find columns by header name, so columns may come in any
order and extra ones are ignored; a column that is read must be named once.
Blank lines are skipped; every other row must have exactly as many cells as
the header, since an unquoted delimiter inside a cell would otherwise shift
or drop values. A file holding a NUL character is refused.

JSON-lines files hold one object per line; blank lines are skipped on
reading, and writing sorts the keys and keeps non-ASCII characters as they are.
Readers of both skip a leading UTF-8 byte-order mark, which spreadsheet and
editor exports may write; writers write none.
"""

from __future__ import annotations

import csv
import json
import operator
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DataError, MalformedRowError

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


def read_rows(
    path: Path, columns: Sequence[str], delimiter: str = ","
) -> Iterator[tuple[int, Sequence[str]]]:
    """Yield (line_no, cells) per row, cells holding `columns` (two or more) in that order."""
    _refuse_nul(path)
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        # One try around the whole loop keeps the per-row path free of it.
        try:
            names = next(reader, [])
            for col in columns:
                if col not in names:
                    raise DataError(f"missing required column: {col!r}")
                if names.count(col) > 1:
                    raise MalformedRowError(reader.line_num, f"header names column {col!r} twice")
            width = len(names)
            pick = operator.itemgetter(*(names.index(col) for col in columns))
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    side = "fewer" if len(row) < width else "more"
                    raise MalformedRowError(reader.line_num, f"row has {side} cells than the header")
                yield reader.line_num, pick(row)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
        except csv.Error as exc:
            raise MalformedRowError(reader.line_num, f"unreadable row: {exc}") from None


def _refuse_nul(path: Path) -> None:
    """Refuse a file holding a NUL character, at the line of the first one.

    Python 3.10's csv module refuses such a line and later versions read it;
    this refuses it on every version, in 3.10's words. No other UTF-8
    character holds a zero byte, so a scan of the raw bytes finds it, which
    costs far less than a check on each line; reading in blocks keeps the
    whole file out of memory.
    """
    line_no = 1
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            at = block.find(b"\0")
            if at >= 0:
                line_no += block.count(b"\n", 0, at)
                raise MalformedRowError(line_no, "unreadable row: line contains NUL")
            line_no += block.count(b"\n")


def write_rows(
    path: Path, columns: Sequence[str], rows: Iterable[Sequence[object]], delimiter: str = ","
) -> None:
    """Write the header, then one line per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        out.writerow(columns)
        out.writerows(rows)


def read_json_lines(path: Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_no, object) per non-blank line."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRowError(line_no, f"invalid JSON: {exc.msg}") from None
                except ValueError:
                    # An integer longer than the int-string limit; Python's
                    # own text for it differs between versions.
                    raise MalformedRowError(line_no, "invalid JSON: number too long") from None
                except RecursionError as exc:
                    # Nesting deeper than the recursion limit.
                    raise MalformedRowError(line_no, f"invalid JSON: {exc}") from None
                if not isinstance(obj, dict):
                    raise MalformedRowError(line_no, "line is not a JSON object")
                yield line_no, obj
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> MalformedRowError:
    """The error for a file that is not UTF-8, at the line of its first bad byte.

    The text layer decodes a block ahead of the row being read, so the line
    is counted in the raw bytes.
    """
    data = Path(path).read_bytes()
    start = len(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as first:
        start = first.start
    return MalformedRowError(data.count(b"\n", 0, start) + 1, f"not valid UTF-8: {exc.reason}")


def write_json_lines(path: Path, objects: Iterable[dict]) -> None:
    """One JSON object per line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")
