"""The golden cases in two child processes, one per fixed hash seed.

An open() with no encoding falls back to the locale's, and a report that
depends on string-hash order would come out differently from run to run;
either breaks the byte-identical reports. Only a new interpreter takes a
fixed hash seed, so two children, one started with PYTHONHASHSEED=0 and one
with 4242, each under `-X dev -X warn_default_encoding -W error` (development
checks on, and any warning, an EncodingWarning among them, an error, as
pyproject makes it in the suite), run each case of test_golden.CASES through
cli.main. Both start before either is waited on. The child imports only
slumber and the standard library, so it also runs without pytest.

The parent hashes the files in each case's --out directory and checks them
against test_golden's recorded tables, under both seeds. An uncaught error,
such as an EncodingWarning, would exit the child non-zero with a traceback;
a warning that Python prints but cannot raise goes to the child's own
stderr, so that is checked to be empty. Every stderr line of a case is a
warning or an error line. The command line's refusals run in-process, in
test_cli.py, most as rows of its two refusal tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[str, tuple[str, dict[str, dict]]]:
    """run_children over test_golden.CASES, their config files written first."""
    tmp = tmp_path_factory.mktemp("smoke")
    test_golden.write_configs(tmp)
    return run_children(test_golden.CASES, tmp)


@pytest.mark.parametrize("seed", SEEDS)
def test_each_child_writes_only_warning_and_error_lines(runs, seed):
    own_stderr, results = runs[seed]
    assert own_stderr == ""
    for name, result in results.items():
        for line in result["err"].splitlines():
            assert line.startswith(("WARNING slumber: ", "error: ")), (name, line)


@pytest.mark.parametrize("name", test_golden.CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_command_outputs_match_recorded_digests(runs, seed, name):
    result = runs[seed][1][name]
    assert test_golden.recorded_form(name, result) == test_golden.RECORDED[name], result["err"]
