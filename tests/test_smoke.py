"""Every whole-command case in two child processes, one per fixed hash seed.

An open() with no encoding falls back to the locale's, and a report that
depends on string-hash order would come out differently from run to run;
either breaks the byte-identical reports. So two children, one started with
PYTHONHASHSEED=0 and one with 4242, each under
`-X dev -X warn_default_encoding -W error` (development checks on, and any
warning, an EncodingWarning among them, an error, as pyproject makes it in
the suite), run each case of CASES below and of test_golden.CASES through
cli.main. Both start before either is waited on. The child imports only
slumber and the standard library, so it also runs without pytest.

The parent hashes the files in each case's --out directory and checks every
golden case against test_golden's recorded tables, under both seeds. A
refusal exits 1 with one stderr line. An uncaught error, such as an
EncodingWarning, would exit the child non-zero with a traceback; a warning
that Python prints but cannot raise goes to the child's own stderr, so that
is checked to be empty. Every stderr line of a case is a warning or an
error line. A new refusal case of the command line goes into CASES.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import slumber
import test_golden

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
SEEDS = ("0", "4242")
FLAGS = ("-X", "dev", "-X", "warn_default_encoding", "-W", "error")

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


def _digests(directory: Path) -> dict[str, str]:
    """{file name: sha256} of the files in directory, by name; none when it does not exist."""
    if not directory.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def run_children(cases: dict[str, tuple[str, ...]], tmp: Path) -> dict[str, tuple[str, dict[str, dict]]]:
    """{seed: (the child's own stderr, {case: result})}, from one child per hash seed.

    In an argument, {data} stands for data/ and {tmp} for tmp; a relative
    path is under the child's working directory, tmp/hash-<seed>. A result
    holds the case's exit code, stdout and stderr, and the digests of its
    --out directory as "files".
    """
    argvs = [[arg.format(data=DATA_DIR, tmp=tmp) for arg in argv] for argv in cases.values()]
    env = {**os.environ, "PYTHONPATH": str(Path(slumber.__file__).resolve().parent.parent)}
    children = {}
    try:
        for seed in SEEDS:
            cwd = tmp / f"hash-{seed}"
            cwd.mkdir()
            children[seed] = cwd, subprocess.Popen(
                [sys.executable, *FLAGS, "-c", CHILD, json.dumps(argvs)],
                cwd=cwd,
                env={**env, "PYTHONHASHSEED": seed},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                encoding="utf-8",
            )
        runs = {}
        for seed, (cwd, child) in children.items():
            stdout, stderr = child.communicate(timeout=120)
            assert child.returncode == 0, stderr  # a traceback, such as an EncodingWarning's
            results = dict(zip(cases, map(json.loads, stdout.splitlines()), strict=True))
            for argv, result in zip(argvs, results.values()):
                result["files"] = _digests(cwd / argv[argv.index("--out") + 1]) if "--out" in argv else {}
            runs[seed] = stderr, results
        return runs
    finally:
        for _, child in children.values():
            child.kill()  # does nothing to a child already waited on


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
    """A command line, with {data} for data/ and {tmp} for the directory of COPIES and CONFIGS.

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


# The analysis commands on data/demo are test_golden's ("demo", "default", command) cases.
CASES = {
    "synth": Case(("synth", "--out", "synth", "--seed", "42")),
    "plain": validate("{data}/demo"),
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
    "zero-cfg": validate("{data}/demo", "zero.cfg", code=1, stderr=r"error: n_papers must be at least 1$"),
    # A config file is read as a dataset file is: a NUL and a lone carriage return are refused
    # with the file and line.
    "nul-cfg": validate("{data}/demo", "nul.cfg", code=1, stderr=r"error: [^ ]+\.cfg line [0-9]+: "),
    "cr-cfg": validate("{data}/demo", "cr.cfg", code=1, stderr=r"error: [^ ]+\.cfg line [0-9]+: "),
    # A dispute term listed twice when case is ignored is refused by SynthSpec.
    "twice-cfg": validate("{data}/demo", "twice.cfg", code=1, stderr=r"error: terms "),
    # A missing required flag is checked before any file is read, so the missing
    # dataset directory is never opened (exit 1, not 2).
    "flag": Case(("table1", "--dataset", "{tmp}/none"), 1, r"error: this command requires --out$"),
    # An empty ipc_prefix is blank under the one IPC normalizer.
    "blank": validate(
        "{tmp}/blank", code=1, stderr=r"error: concordance\.tsv line [0-9]+: ipc_prefix '' is blank$"
    ),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[str, tuple[str, dict[str, dict]]]:
    """run_children over CASES and test_golden.CASES, their inputs written first."""
    tmp = tmp_path_factory.mktemp("smoke")
    for copy, change in COPIES.items():
        (tmp / copy).mkdir()
        for path in (DATA_DIR / "demo").iterdir():
            (tmp / copy / path.name).write_bytes(change(path.name, path.read_bytes()))
    for name, data in CONFIGS.items():
        (tmp / name).write_bytes(data)
    test_golden.write_configs(tmp)
    assert not CASES.keys() & test_golden.CASES.keys()
    return run_children({**{name: case.argv for name, case in CASES.items()}, **test_golden.CASES}, tmp)


@pytest.mark.parametrize("seed", SEEDS)
def test_each_child_writes_only_warning_and_error_lines(runs, seed):
    own_stderr, results = runs[seed]
    assert own_stderr == ""
    for name, result in results.items():
        for line in result["err"].splitlines():
            assert line.startswith(("WARNING slumber: ", "error: ")), (name, line)


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_command_in_a_child_with_warnings_as_errors(runs, seed, name):
    case, results = CASES[name], runs[seed][1]
    result = results[name]
    assert result["code"] == case.code, result["err"]
    if case.stderr is not None:
        err = result["err"]
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert re.match(case.stderr, err), err
    if case.same_out is not None:
        assert result["out"] == results[case.same_out]["out"]


@pytest.mark.parametrize("name", test_golden.CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_command_outputs_match_recorded_digests(runs, seed, name):
    result = runs[seed][1][name]
    assert test_golden.recorded_form(name, result) == test_golden.RECORDED[name], result["err"]
