"""Corrupted dataset files: `validate` accepts or rejects them, and names the file it rejects."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from slumber import cli

DEMO_DIR = Path(__file__).resolve().parent.parent / "data" / "demo"
FILES = {path.name: path.read_bytes() for path in sorted(DEMO_DIR.iterdir())}

# A rejection names its file, then the line, or says which column is missing.
ERROR_LINE = re.compile(
    rf"error: (?:{'|'.join(map(re.escape, FILES))})(?: line [0-9]+: .+|: missing required column: '\w+')"
)

INVALID_UTF8 = (b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80")
HUGE_CELLS = (b"9" * 200_000, b"x" * 200_000)
WRONG_JSON_TYPES = (None, True, 17, 1.7, 1e400, "2003", ["a", "b"], {"k": 1})


def _splice(draw, data: bytes, new: bytes, width: int) -> bytes:
    """data with `width` bytes at a drawn position replaced by `new`."""
    at = draw(st.integers(0, len(data) - width))
    return data[:at] + new + data[at + width :]


@st.composite
def corrupt_files(draw) -> tuple[str, bytes]:
    """One demo file's name and its bytes with one byte, line or cell corrupted."""
    kind = draw(st.sampled_from(["truncate", "utf8", "nul", "byte", "drop-line", "huge-cell", "json-type"]))
    name = "contexts.jsonl" if kind == "json-type" else draw(st.sampled_from(sorted(FILES)))
    data = FILES[name]
    lines = data.splitlines(keepends=True)
    if kind == "truncate":
        return name, data[: draw(st.integers(0, len(data) - 1))]
    if kind == "utf8":
        return name, _splice(draw, data, draw(st.sampled_from(INVALID_UTF8)), 0)
    if kind == "nul":
        return name, _splice(draw, data, b"\0", 0)
    if kind == "byte":
        return name, _splice(draw, data, bytes([draw(st.integers(0, 255))]), 1)
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop-line":
        return name, b"".join(lines[:i] + lines[i + 1 :])
    if name.endswith(".jsonl"):
        obj = json.loads(lines[i])
        key = draw(st.sampled_from(sorted(obj)))
        if kind == "huge-cell":
            obj[key] = draw(st.sampled_from(HUGE_CELLS)).decode("ascii")
        else:
            obj[key] = draw(st.sampled_from(WRONG_JSON_TYPES))
        lines[i] = json.dumps(obj).encode("utf-8") + b"\n"
    else:
        cells = lines[i].rstrip(b"\n").split(b"\t" if name.endswith(".tsv") else b",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(HUGE_CELLS))
        lines[i] = (b"\t" if name.endswith(".tsv") else b",").join(cells) + b"\n"
    return name, b"".join(lines)


@pytest.fixture(scope="module")
def dataset_copy(tmp_path_factory):
    copy = tmp_path_factory.mktemp("fuzz") / "ds"
    shutil.copytree(DEMO_DIR, copy)
    return copy


@settings(max_examples=150, deadline=None)
@given(corrupt_files())
def test_validate_rejects_corrupt_files_by_file_and_line(dataset_copy, case):
    name, data = case
    path = dataset_copy / name
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["validate", "--dataset", str(dataset_copy)])
    finally:
        path.write_bytes(FILES[name])
    assert code in (0, 1)
    for line in err.getvalue().splitlines():
        if line.startswith("error:"):
            assert ERROR_LINE.fullmatch(line), line
