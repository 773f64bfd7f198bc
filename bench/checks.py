"""Checks on the reports each CLI command writes.

Two kinds of check feed the failure count:

- digests: at a seed whose digests are recorded in ``digests.json``, every
  report file (and the stdout of ``validate``) must hash to the recorded
  sha256, so reports stay byte-identical across changes;
- oracles, at any seed: facts the generator fixed before the program ran,
  such as each paper's curve shape, each linked paper's timing class and the
  size of the eligible pool.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# Files each command writes into its --out directory. validate writes none;
# its stdout stands in as the report.
STDOUT = "stdout"
REPORTS = {
    "validate": (STDOUT,),
    "profile": ("profiles.csv",),
    "cohort": ("cohort.csv",),
    "patents": ("patent_indicators.csv",),
    "table1": ("comparison.csv",),
    "lag-trend": ("lag_trend.csv", "lag_summary.csv"),
    "interactions": tuple(
        f"{kind}_{tag}.csv"
        for tag in ("dr", "ir")
        for kind in ("interactions", "interaction_marginals", "field_distribution")
    ),
    "aagr": ("aagr.csv",),
    "flag-contexts": ("flagged_contexts.jsonl",),
}

# Curve class each generated shape must get; noise curves may get any.
TURNING_TYPE = {"delayed": "awakening", "instant": "falling", "linear": "flat"}


@dataclass(frozen=True)
class Oracle:
    """What the generator knows about a dataset, kept after the dataset is freed."""

    shapes: dict[str, str]  # paper_id -> synth shape
    timing_classes: dict[str, str]  # linked paper_id -> Earlier | Same | Later
    usable: int  # papers with a computable curve
    eligible: int  # papers in the cohort pool
    fraction: float

    @property
    def cohort_size(self) -> int:
        return math.ceil(self.fraction * self.eligible)


def report_digests(command: str, out_dir: Path, stdout: bytes) -> dict[str, str]:
    """sha256 of each report the command should have written; missing files are skipped."""
    digests = {}
    for name in REPORTS[command]:
        if name == STDOUT:
            data = stdout
        else:
            path = out_dir / name
            if not path.is_file():
                continue
            data = path.read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def load_digests(path: Path = DIGESTS_PATH) -> dict:
    """{workload: {seed: {command: {report: sha256}}}}"""
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def record_digests(workload: str, seed: int, by_command: dict[str, dict[str, str]], path: Path = DIGESTS_PATH) -> None:
    data = load_digests(path)
    data.setdefault(workload, {})[str(seed)] = by_command
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_validate(out_dir: Path, stdout: bytes, oracle: Oracle) -> list[str]:
    lines = stdout.decode("utf-8").splitlines()
    if not lines or not lines[-1].startswith("0 errors,"):
        return [f"validate summary is {lines[-1] if lines else ''!r}, expected 0 errors"]
    return []


def _check_profile(out_dir: Path, stdout: bytes, oracle: Oracle) -> list[str]:
    rows = _csv_rows(out_dir / "profiles.csv")
    problems = []
    if len(rows) != oracle.usable:
        problems.append(f"profiles.csv has {len(rows)} rows, expected {oracle.usable}")
    for row in rows:
        expected = TURNING_TYPE.get(oracle.shapes.get(row["paper_id"], ""))
        if expected is not None and row["turning_type"] != expected:
            problems.append(f"{row['paper_id']}: turning_type {row['turning_type']}, expected {expected}")
    return problems


def _check_cohort(out_dir: Path, stdout: bytes, oracle: Oracle) -> list[str]:
    rows = _csv_rows(out_dir / "cohort.csv")
    problems = []
    if len(rows) != oracle.eligible:
        problems.append(f"cohort.csv has {len(rows)} rows, expected {oracle.eligible}")
    for cohort in ("DR", "IR"):
        n = sum(1 for r in rows if r["cohort"] == cohort)
        if n != oracle.cohort_size:
            problems.append(f"cohort.csv: {cohort} has {n} papers, expected {oracle.cohort_size}")
    return problems


def _check_patents(out_dir: Path, stdout: bytes, oracle: Oracle) -> list[str]:
    rows = _csv_rows(out_dir / "patent_indicators.csv")
    problems = []
    if len(rows) != oracle.usable:
        problems.append(f"patent_indicators.csv has {len(rows)} rows, expected {oracle.usable}")
    for row in rows:
        expected = oracle.timing_classes.get(row["paper_id"], "")
        if row["timing_class"] != expected:
            problems.append(f"{row['paper_id']}: timing_class {row['timing_class']!r}, expected {expected!r}")
    return problems


def _check_table1(out_dir: Path, stdout: bytes, oracle: Oracle) -> list[str]:
    rows = _csv_rows(out_dir / "comparison.csv")
    problems = []
    if len(rows) != 6:
        problems.append(f"comparison.csv has {len(rows)} rows, expected 6")
    for row in rows:
        n = int(row["yes"]) + int(row["no"])
        if n != oracle.cohort_size:
            problems.append(f"comparison.csv {row['indicator']}/{row['group']}: n={n}, expected {oracle.cohort_size}")
    return problems


ORACLES = {
    "validate": _check_validate,
    "profile": _check_profile,
    "cohort": _check_cohort,
    "patents": _check_patents,
    "table1": _check_table1,
}


def check_reports(
    command: str,
    out_dir: Path,
    stdout: bytes,
    oracle: Oracle,
    digests: dict[str, str],
    recorded: dict[str, str] | None,
) -> list[str]:
    """Problems with one command's reports; an empty list means they pass."""
    missing = [name for name in REPORTS[command] if name not in digests]
    if missing:
        return [f"{command} wrote no {', '.join(missing)}"]
    problems = []
    if recorded is not None:
        problems += [
            f"{command}: {name} digest differs from the recorded one"
            for name in REPORTS[command]
            if recorded.get(name) != digests[name]
        ]
    oracle_check = ORACLES.get(command)
    if oracle_check is not None:
        try:
            problems += oracle_check(out_dir, stdout, oracle)
        except (KeyError, ValueError, OSError) as exc:
            problems.append(f"{command}: reports unreadable by the oracle check: {exc!r}")
    return problems
