"""The one on-disk table format, shared by dataset files and reports.

Delimited files are UTF-8 with csv-module quoting, '\n' line ends and one
header row. Readers find columns by header name, so columns may come in any
order and extra ones are ignored; a column that is read must be named once.
Blank lines are skipped; every other row must have exactly as many cells as
the header, since an unquoted delimiter inside a cell would otherwise shift
or drop values.

JSON-lines files hold one object per line; blank lines are skipped on
reading, and writing sorts the keys and keeps non-ASCII characters as they are.
"""

from __future__ import annotations

import csv
import json
import operator
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DataError, MalformedRowError


def read_rows(
    path: Path, columns: Sequence[str], delimiter: str = ","
) -> Iterator[tuple[int, Sequence[str]]]:
    """Yield (line_no, cells) per row, cells holding `columns` (two or more) in that order."""
    with open(path, encoding="utf-8", newline="") as fh:
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
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRowError(line_no, f"invalid JSON: {exc.msg}") from None
                except (ValueError, RecursionError) as exc:
                    # An integer longer than the int-string limit, or nesting
                    # deeper than the recursion limit.
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
    """One JSON object per line, e.g. `dataclasses.asdict` of each record."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")
