"""Every command once, in a child process where an open() with no encoding is an error.

An open() with no encoding falls back to the locale's, which would break
the byte-identical reports on some platforms. So one child, started with
`-X warn_default_encoding -W error::EncodingWarning`, runs `synth`, the
eight analysis commands and `validate` on data/demo, then each bad copy
and config below, all through cli.main. The child imports only slumber and
the standard library; the suite's own process could not run under these
flags, since some tests write their inputs with the fallback.

A refusal exits 1 with one stderr line. An EncodingWarning would exit 1
too, but with a traceback, so stderr is checked as well as the exit code.
A new refusal case of the command line goes into CASES.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import slumber

DEMO_DIR = Path(__file__).resolve().parent.parent / "data" / "demo"

# Runs each command line of the JSON list argv[1] and prints one JSON object per line.
CHILD = """
import contextlib, io, json, sys
from slumber import cli

for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue()}))
"""


def appended(file: str, tail: bytes) -> Callable[[str, bytes], bytes]:
    return lambda name, data: data + tail if name == file else data


def multiline_title(name: str, data: bytes) -> bytes:
    """papers.csv with a first row whose quoted title holds a line feed."""
    if name != "papers.csv":
        return data
    header, rest = data.split(b"\n", 1)
    return header + b'\np9,1799,"a\nb",,,\n' + rest


# Copies of data/demo, each file's bytes changed by (file name, bytes) -> bytes.
COPIES: dict[str, Callable[[str, bytes], bytes]] = {
    "bom": lambda name, data: b"\xef\xbb\xbf" + data,
    "crlf": lambda name, data: data.replace(b"\n", b"\r\n"),
    "cr": lambda name, data: data.replace(b"\n", b"\r") if name == "papers.csv" else data,
    "utf8": appended("citations.csv", b"p00000,1999,\xff\n"),
    "json": appended("contexts.jsonl", b"{\n"),
    "count": appended("citations.csv", b"p00000,1999,x\n"),
    "multiline": multiline_title,
    "blank": appended("concordance.tsv", b"\t35\tCatch-all\tOther fields\n"),
}
CONFIGS = {
    "zero.cfg": b"n_papers = 0\n",
    "nul.cfg": b"terms = dis\0pute\n",
    "cr.cfg": b"fraction=0.5\rwindow_width=3\r",
    "twice.cfg": b"terms = dispute, Dispute\n",
}


class Case(NamedTuple):
    """A command line, with {demo} for data/demo and {tmp} for the directory of COPIES and CONFIGS.

    stderr is the pattern of a refusal's one stderr line; same_out names the
    case whose stdout this one's must equal.
    """

    argv: tuple[str, ...]
    code: int = 0
    stderr: str | None = None
    same_out: str | None = None


def validate(dataset: str, config: str | None = None, **expected) -> Case:
    argv = ("validate", "--dataset", dataset, *(("--config", f"{{tmp}}/{config}") if config else ()))
    return Case(argv, **expected)


ANALYSIS_COMMANDS = (
    "profile", "cohort", "patents", "table1", "lag-trend", "interactions", "aagr", "flag-contexts"
)

CASES = {
    "synth": Case(("synth", "--out", "{tmp}/synth", "--seed", "42")),
    **{c: Case((c, "--dataset", "{demo}", "--out", "{tmp}/reports")) for c in ANALYSIS_COMMANDS},
    "plain": validate("{demo}"),
    # The same files saved with a UTF-8 byte-order mark, or with CRLF line ends, validate alike.
    "bom": validate("{tmp}/bom", same_out="plain"),
    "crlf": validate("{tmp}/crlf", same_out="plain"),
    # A bad byte, a bad JSON line and a bad cell are each named by their file and line.
    "utf8": validate("{tmp}/utf8", code=1, stderr=r"error: citations\.csv line [0-9]+: "),
    "json": validate("{tmp}/json", code=1, stderr=r"error: contexts\.jsonl line [0-9]+: "),
    "count": validate("{tmp}/count", code=1, stderr=r"error: citations\.csv line [0-9]+: "),
    # A row whose quoted title holds a line end is named by the line it starts on.
    "multiline": validate("{tmp}/multiline", code=1, stderr=r"error: papers\.csv line 2: "),
    # Lines end at a line feed: a file of classic-Mac CR line ends is refused at its first line.
    "cr": validate("{tmp}/cr", code=1, stderr=r"error: papers\.csv line 1: "),
    # Every command checks every config key, also one it does not read.
    "zero-cfg": validate("{demo}", "zero.cfg", code=1, stderr=r"error: n_papers must be at least 1$"),
    # A config file is read as a dataset file is: a NUL and a lone carriage return are refused
    # with the file and line.
    "nul-cfg": validate("{demo}", "nul.cfg", code=1, stderr=r"error: [^ ]+\.cfg line [0-9]+: "),
    "cr-cfg": validate("{demo}", "cr.cfg", code=1, stderr=r"error: [^ ]+\.cfg line [0-9]+: "),
    # A dispute term listed twice when case is ignored is refused by SynthSpec.
    "twice-cfg": validate("{demo}", "twice.cfg", code=1, stderr=r"error: terms "),
    # A missing required flag is checked before any file is read, so the missing
    # dataset directory is never opened (exit 1, not 2).
    "flag": Case(("table1", "--dataset", "{tmp}/none"), 1, r"error: this command requires --out$"),
    # An empty ipc_prefix is blank under the one IPC normalizer.
    "blank": validate(
        "{tmp}/blank", code=1, stderr=r"error: concordance\.tsv line [0-9]+: ipc_prefix '' is blank$"
    ),
}


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict[str, dict]:
    """Each case's exit code, stdout and stderr, from one child run of them all."""
    tmp = tmp_path_factory.mktemp("smoke")
    for copy, change in COPIES.items():
        (tmp / copy).mkdir()
        for path in DEMO_DIR.iterdir():
            (tmp / copy / path.name).write_bytes(change(path.name, path.read_bytes()))
    for name, data in CONFIGS.items():
        (tmp / name).write_bytes(data)
    argvs = [[arg.format(demo=DEMO_DIR, tmp=tmp) for arg in case.argv] for case in CASES.values()]
    flags = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    child = subprocess.run(
        [sys.executable, *flags, "-c", CHILD, json.dumps(argvs)],
        cwd=tmp,
        env={**os.environ, "PYTHONPATH": str(Path(slumber.__file__).resolve().parent.parent)},
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )
    assert child.returncode == 0, child.stderr  # a traceback, such as an EncodingWarning's
    return dict(zip(CASES, map(json.loads, child.stdout.splitlines()), strict=True))


@pytest.mark.parametrize("name", CASES)
def test_command_in_a_child_with_encoding_warnings_as_errors(results, name):
    case, result = CASES[name], results[name]
    assert result["code"] == case.code, result["err"]
    if case.stderr is not None:
        err = result["err"]
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert re.match(case.stderr, err), err
    if case.same_out is not None:
        assert result["out"] == results[case.same_out]["out"]
