"""Tests of the benchmark itself: workloads, report checks, tracing and output.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from checks import REPORTS, check_reports, report_digests  # noqa: E402
from slumber import ingest  # noqa: E402
from slumber.parallel import SEQUENTIAL_CUTOFF  # noqa: E402
from spans import summarize  # noqa: E402
from workloads import ALL_COMMANDS, WORKLOADS, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY = Workload(name="tiny", spec={"n_papers": 300}, commands=ALL_COMMANDS)


def usable(dataset) -> int:
    return sum(1 for s in dataset.series.values() if s.total > 0 and s.t_m >= 1)


def test_metric_names_and_units_are_well_formed():
    for metrics in (run.END_TO_END, run.PER_LAYER):
        for name, unit in metrics.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS.values():
        assert NAME.fullmatch(workload.name)
        assert "table1" in workload.commands  # cli.table1_s exists on every workload


def test_sparse_workload_takes_the_thread_path():
    dataset = WORKLOADS["sparse-52k"].build(1)
    assert usable(dataset) >= SEQUENTIAL_CUTOFF


def test_pool_workload_stays_sequential():
    dataset = WORKLOADS["pool-5k"].build(1)
    assert usable(dataset) < SEQUENTIAL_CUTOFF


def test_ipc_wide_workload_shape():
    dataset = WORKLOADS["ipc-wide"].build(1)
    linked = {link.paper_id for link in dataset.links}
    assert linked == set(dataset.papers)
    prefixes = [entry.ipc_prefix for entry in dataset.concordance]
    assert len(prefixes) >= 500
    assert any(len(p) > 4 for p in prefixes) and any(len(p) == 4 for p in prefixes)
    codes = {code for fam in dataset.patents.values() for code in fam.ipc_codes}
    unmapped = {code for code in codes if not any(code.startswith(p) for p in prefixes)}
    assert 0 < len(unmapped) < len(codes) / 10
    assert not ingest.validate_dataset(dataset).has_errors()


def _dataset_digests(workload: Workload, seed: int, directory: Path) -> dict[str, str]:
    ingest.write_dataset(workload.build(seed), directory)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", ["pool-5k", "ipc-wide"])
def test_same_seed_gives_the_same_dataset(tmp_path, name):
    workload = WORKLOADS[name]
    first = _dataset_digests(workload, 7, tmp_path / "a")
    assert first == _dataset_digests(workload, 7, tmp_path / "b")
    assert first != _dataset_digests(workload, 8, tmp_path / "c")


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One untraced and one traced pass of all nine commands on a small dataset."""
    run_dir = tmp_path_factory.mktemp("tiny")
    setup = run.set_up(TINY, 3, run_dir / "data")
    runner = run.Runner(TINY, 3, run_dir, setup, [])
    return setup, runner.run_pass(), runner.run_pass(traced=True), run_dir


def test_commands_pass_every_check(tiny_runs):
    _, untraced, traced, _ = tiny_runs
    for r in (*untraced, *traced):
        assert r.exit_code == 0 and r.problems == [], (r.command, r.problems)
        assert set(r.digests) == set(REPORTS[r.command])


def test_traced_reports_are_byte_identical(tiny_runs):
    _, untraced, traced, _ = tiny_runs
    assert [r.digests for r in untraced] == [r.digests for r in traced]


def test_layer_metrics_from_a_traced_pass(tiny_runs):
    setup, untraced, traced, _ = tiny_runs
    metrics = run.layer_metrics(traced, untraced, setup)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["trace.absent_targets"] == 0
    assert metrics["curve.profile_calls_per_paper"] == 2.0
    assert metrics["cohort.eligible_papers"] == 300
    assert metrics["parallel.worker_threads"] == 0
    assert metrics["ingest.load_dataset_s"] > metrics["ingest.parse_citations_s"] > 0
    assert 0 < metrics["cli.table1_s"] < metrics["cli.commands_s"]


def test_checks_catch_a_changed_report(tiny_runs, tmp_path):
    setup, _, _, run_dir = tiny_runs
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, "-m", "slumber.cli", "profile", "--dataset", str(run_dir / "data"), "--out", str(out),
         "--config", str(run_dir / "run.cfg")],
        env=run.child_env(), check=True, capture_output=True,
    )  # fmt: skip
    path = out / "profiles.csv"
    good = report_digests("profile", out, b"")
    assert check_reports("profile", out, b"", setup.oracle, good, good) == []
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    delayed = next(i for i, line in enumerate(lines) if setup.oracle.shapes.get(line.split(",")[0]) == "delayed")
    lines[delayed] = lines[delayed].replace("awakening", "falling")
    path.write_text("".join(lines), encoding="utf-8")
    changed = report_digests("profile", out, b"")
    problems = check_reports("profile", out, b"", setup.oracle, changed, good)
    assert any("digest differs" in p for p in problems)
    assert any("expected awakening" in p for p in problems)


def test_scaling_changes_only_times():
    metrics = {"setup_s": 3.0, "pipeline_s": 2.0, "ingest.us_per_citation_row": 4.0, "peak_rss_mb": 50.0}
    units = {"setup_s": "s", "pipeline_s": "s", "ingest.us_per_citation_row": "us", "peak_rss_mb": "MB"}
    fast = [run.CALIBRATION_REFERENCE_S / 3] * 3
    slow = [2 * run.CALIBRATION_REFERENCE_S] * 3
    assert run.scaled(metrics, units, fast, slow) == pytest.approx(
        {"setup_s": 9.0, "pipeline_s": 1.0, "ingest.us_per_citation_row": 2.0, "peak_rss_mb": 50.0}
    )


def test_self_time_subtracts_the_union_of_children():
    main, worker = 1, 2
    spans = [
        (1, 0, "cli.main", 0.0, 10.0, main, None),
        (2, 1, "parallel.parallel_map", 1.0, 9.0, main, 5),
        (3, 2, "curve.profile", 2.0, 6.0, worker, 10),  # overlapping children on two threads
        (4, 2, "curve.profile", 4.0, 7.0, main, 12),
    ]
    summary = summarize(spans, main)
    names = summary["names"]
    assert names["cli.main"]["self_s"] == pytest.approx(2.0)
    assert names["parallel.parallel_map"]["self_s"] == pytest.approx(3.0)
    assert names["curve.profile"]["total_s"] == pytest.approx(7.0)
    assert names["curve.profile"]["values"] == [10, 12]
    assert summary["worker_threads"] == 1
    assert summary["layers"]["curve"] == pytest.approx(7.0)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ipc-wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
