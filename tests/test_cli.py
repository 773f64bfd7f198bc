"""End-to-end command behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from fixture_builders import linked_datasets, table1_dataset
from slumber import cli, curve, ingest, patent
from slumber.cohort import DR, IR
from slumber.config import SynthSpec, _coerce, load_config
from slumber.errors import ConfigError, DataError
from slumber.model import CitationContextRecord, CitationSeries, Dataset


def run(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def half_config(tmp_path) -> Path:
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# take the extreme halves\nfraction = 0.5\n", encoding="utf-8")
    return cfg


def test_profile_command(tmp_path, demo_dir, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "profile", "--dataset", str(demo_dir), "--out", str(out))
    assert code == 0
    assert "wrote" in stdout
    rows = read_rows(out / "profiles.csv")
    assert len(rows) == 60
    ds = ingest.load_dataset(demo_dir, 2015)
    by_id = {r["paper_id"]: r for r in rows}
    for pid in list(ds.series)[:5]:
        prof = curve.profile(ds.series[pid])
        assert by_id[pid]["bcp"] == format(prof.bcp, ".6f")
        assert by_id[pid]["turning_year"] == str(prof.turning_year)
        assert by_id[pid]["turning_type"] == prof.turning_type


def test_cohort_command_on_fixture(tmp_path, table1_dir, half_config, capsys):
    out = tmp_path / "out"
    code, _, _ = run(
        capsys,
        "cohort",
        "--dataset", str(table1_dir),
        "--out", str(out),
        "--config", str(half_config),
    )
    assert code == 0
    rows = read_rows(out / "cohort.csv")
    assert len(rows) == 400
    by_cohort: dict[str, list[str]] = {}
    for r in rows:
        by_cohort.setdefault(r["cohort"], []).append(r["paper_id"])
    assert len(by_cohort["DR"]) == 200
    assert len(by_cohort["IR"]) == 200
    assert [int(r["rank"]) for r in rows] == list(range(1, 401))


def test_table1_command_frozen_counts(tmp_path, table1_dir, half_config, capsys):
    out = tmp_path / "out"
    code, _, _ = run(
        capsys,
        "table1",
        "--dataset", str(table1_dir),
        "--out", str(out),
        "--config", str(half_config),
    )
    assert code == 0
    rows = read_rows(out / "comparison.csv")
    key = {(r["indicator"], r["group"]): r for r in rows}
    assert [(r["indicator"], r["group"]) for r in rows] == [
        ("linked", "DR"),
        ("linked", "IR"),
        ("forward_cited", "DR"),
        ("forward_cited", "IR"),
        ("durably_cited", "DR"),
        ("durably_cited", "IR"),
    ]
    assert (key[("linked", "DR")]["yes"], key[("linked", "DR")]["no"]) == ("99", "101")
    assert (key[("linked", "IR")]["yes"], key[("linked", "IR")]["no"]) == ("70", "130")
    assert key[("forward_cited", "DR")]["yes"] == "82"
    assert key[("forward_cited", "IR")]["yes"] == "57"
    assert key[("durably_cited", "DR")]["yes"] == "75"
    assert key[("durably_cited", "IR")]["yes"] == "41"
    assert key[("linked", "DR")]["rate"] == "0.495000"
    assert key[("linked", "DR")]["p"] == "0.003330"
    assert key[("forward_cited", "DR")]["p"] == "0.008663"
    assert key[("durably_cited", "DR")]["p"] == "0.000179"
    assert key[("linked", "DR")]["rate_ratio"] == "1.414286"
    # stats ride on the DR row only
    assert key[("linked", "IR")]["p"] == ""
    assert key[("linked", "IR")]["rate"] == "0.350000"


def test_table1_degenerate_pool_keeps_rates_and_labels_p(tmp_path, capsys):
    # Every paper is linked and forward-cited, so two pooled rates are 1.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_papers = 60\nlink_density = 1.0\nfraction = 0.5\n", encoding="utf-8")
    ds, out = tmp_path / "ds", tmp_path / "out"
    assert run(capsys, "synth", "--seed", "42", "--out", str(ds), "--config", str(cfg))[0] == 0
    code, _, _ = run(capsys, "table1", "--dataset", str(ds), "--out", str(out), "--config", str(cfg))
    assert code == 0
    assert (out / "comparison.csv").read_text(encoding="utf-8") == (
        "indicator,group,yes,no,rate,ci_low,ci_high,rate_ratio,z,p\n"
        "linked,DR,30,0,1.000000,1.000000,1.000000,,,DegeneratePool\n"
        "linked,IR,30,0,1.000000,1.000000,1.000000,,,\n"
        "forward_cited,DR,30,0,1.000000,1.000000,1.000000,,,DegeneratePool\n"
        "forward_cited,IR,30,0,1.000000,1.000000,1.000000,,,\n"
        "durably_cited,DR,26,4,0.866667,0.745025,0.988308,1.000000,0.000000,1.000000\n"
        "durably_cited,IR,26,4,0.866667,0.745025,0.988308,,,\n"
    )


def test_table1_with_an_empty_ir_cohort_exits_1(tmp_path, demo_dir, capsys):
    # One eligible paper: DR takes it and IR is left empty.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fraction = 0.5\nmin_total_citations = 1\npub_from = 1971\npub_to = 1971\n", encoding="utf-8")
    argv = ("--dataset", str(demo_dir), "--out", str(tmp_path / "out"), "--config", str(cfg))
    assert run(capsys, "cohort", *argv)[0] == 0
    code, _, err = run(capsys, "table1", *argv)
    assert code == 1
    assert err.splitlines()[-1] == (
        "error: IR cohort is empty: 1 eligible papers at fraction 0.5 leave none after DR"
    )
    assert not (tmp_path / "out" / "comparison.csv").exists()


@pytest.mark.parametrize("command", ["table1", "lag-trend", "interactions"])
def test_cohort_commands_profile_each_usable_paper_once(
    command, tmp_path, table1_dir, half_config, capsys, monkeypatch
):
    calls = Counter()
    reference = curve.profile

    def counting(series):
        calls[series.paper_id] += 1
        return reference(series)

    monkeypatch.setattr(curve, "profile", counting)
    code, _, _ = run(
        capsys, command, "--dataset", str(table1_dir), "--out", str(tmp_path), "--config", str(half_config)
    )
    assert code == 0
    ds = ingest.load_dataset(table1_dir, 2015)
    usable = [pid for pid, s in ds.series.items() if s.total > 0 and s.t_m >= 1]
    assert len(usable) == 400
    assert calls == Counter(usable)


@pytest.mark.parametrize("command", ["table1", "interactions"])
def test_cohort_commands_group_links_once(command, tmp_path, table1_dir, half_config, capsys, monkeypatch):
    calls = []
    reference = patent.families_by_paper

    def counting(dataset):
        calls.append(dataset)
        return reference(dataset)

    monkeypatch.setattr(patent, "families_by_paper", counting)
    code, _, _ = run(
        capsys, command, "--dataset", str(table1_dir), "--out", str(tmp_path), "--config", str(half_config)
    )
    assert code == 0
    assert len(calls) == 1


def test_lag_trend_command(tmp_path, table1_dir, half_config, capsys):
    out = tmp_path / "out"
    code, _, _ = run(
        capsys,
        "lag-trend",
        "--dataset", str(table1_dir),
        "--out", str(out),
        "--config", str(half_config),
    )
    assert code == 0
    summary = read_rows(out / "lag_summary.csv")
    by_key = {(r["cohort"], r["mode"]): r for r in summary}
    assert set(by_key) == {("DR", "publication"), ("IR", "turning")}
    ir = by_key[("IR", "turning")]
    # every linked IR paper in the fixture has its first patent two years
    # before the turning year
    assert ir["n"] == "70"
    assert ir["min"] == ir["max"] == ir["median"] == "2.000000"
    assert ir["sd"] == "0.000000"
    trend = read_rows(out / "lag_trend.csv")
    assert all(r["cohort"] in ("DR", "IR") for r in trend)
    dr_rows = [r for r in trend if r["cohort"] == "DR"]
    assert dr_rows and all(r["mode"] == "publication" for r in dr_rows)
    for r in dr_rows:
        assert int(r["window_end"]) - int(r["window_start"]) == 4


def test_interactions_command(tmp_path, table1_dir, half_config, capsys):
    out = tmp_path / "out"
    code, _, _ = run(
        capsys,
        "interactions",
        "--dataset", str(table1_dir),
        "--out", str(out),
        "--config", str(half_config),
    )
    assert code == 0
    for tag in ("dr", "ir"):
        cells = read_rows(out / f"interactions_{tag}.csv")
        marginals = read_rows(out / f"interaction_marginals_{tag}.csv")
        total = sum(int(r["weight"]) for r in cells)
        fos_total = sum(
            int(r["weight"]) for r in marginals if r["axis"] == "field_of_study"
        )
        wipo_total = sum(int(r["weight"]) for r in marginals if r["axis"] == "wipo_field")
        assert total == fos_total == wipo_total > 0
    dr_dist = {r["field_of_study"]: r for r in read_rows(out / "field_distribution_dr.csv")}
    ir_dist = {r["field_of_study"]: r for r in read_rows(out / "field_distribution_ir.csv")}
    assert dr_dist["biology"]["share"] == "0.275000"
    assert ir_dist["biology"]["share"] == "0.900000"


def test_aagr_command(tmp_path, demo_dir, capsys):
    out = tmp_path / "out"
    code, _, _ = run(capsys, "aagr", "--dataset", str(demo_dir), "--out", str(out))
    assert code == 0
    rows = read_rows(out / "aagr.csv")
    assert 0 < len(rows) <= 60
    assert all(r["method"] == "arithmetic" for r in rows)
    assert all(int(r["end_year"]) == 2015 for r in rows)


def test_flag_contexts_command(tmp_path, table1_dir, capsys):
    out = tmp_path / "out"
    code, _, _ = run(capsys, "flag-contexts", "--dataset", str(table1_dir), "--out", str(out))
    assert code == 0
    lines = (out / "flagged_contexts.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    for line in lines:
        obj = json.loads(line)
        assert obj["matched_terms"]
        assert {"citing_id", "cited_paper_id", "year", "sentence"} <= set(obj)


def test_flag_contexts_without_contexts_file(tmp_path, demo_dir, capsys):
    ds_copy = tmp_path / "ds"
    shutil.copytree(demo_dir, ds_copy)
    (ds_copy / "contexts.jsonl").unlink()
    out = tmp_path / "out"
    code, _, err = run(capsys, "flag-contexts", "--dataset", str(ds_copy), "--out", str(out))
    assert code == 0
    assert (out / "flagged_contexts.jsonl").read_text(encoding="utf-8") == ""


def test_synth_then_validate(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n_papers=30\nlink_density=0.7\n", encoding="utf-8")
    ds_dir = tmp_path / "ds"
    code, stdout, _ = run(
        capsys, "synth", "--out", str(ds_dir), "--config", str(cfg), "--seed", "7"
    )
    assert code == 0
    assert "30 papers" in stdout
    code, stdout, _ = run(capsys, "validate", "--dataset", str(ds_dir))
    assert code == 0
    assert "0 errors, 0 warnings" in stdout


def test_skipped_paper_is_logged_once(tmp_path, demo_dir, capsys):
    dataset = ingest.load_dataset(demo_dir, 2015)
    silent = dataset.series["p00001"]
    dataset.series["p00001"] = replace(silent, offsets=(), values=())
    ds_dir = tmp_path / "ds"
    ingest.write_dataset(dataset, ds_dir)
    out = tmp_path / "out"
    code, _, err = run(capsys, "profile", "--dataset", str(ds_dir), "--out", str(out))
    assert code == 0
    named = [line for line in err.splitlines() if "p00001" in line]
    assert named == ["WARNING slumber: p00001: no citations inside the observation window"]
    assert "p00001" not in {r["paper_id"] for r in read_rows(out / "profiles.csv")}


def test_leading_byte_order_marks_are_skipped(tmp_path, demo_dir, capsys):
    """Files saved with a UTF-8 byte-order mark read as the same files without one."""
    ds_copy = tmp_path / "ds"
    ds_copy.mkdir()
    for path in sorted(demo_dir.iterdir()):
        (ds_copy / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbffraction=0.5\n")
    for args in ((), ("--config", str(cfg))):
        code, expected, _ = run(capsys, "validate", "--dataset", str(demo_dir), *args)
        assert code == 0
        assert run(capsys, "validate", "--dataset", str(ds_copy), *args) == (0, expected, "")
    assert load_config(cfg).fraction == 0.5


def test_crlf_line_ends_read_as_line_feeds(tmp_path, demo_dir, capsys):
    """Files saved with CRLF line ends give the same validation and byte-identical reports."""
    ds_copy = tmp_path / "ds"
    ds_copy.mkdir()
    for path in sorted(demo_dir.iterdir()):
        (ds_copy / path.name).write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))

    def reports(dataset: Path):
        out = tmp_path / "out"
        runs = [
            run(capsys, command, "--dataset", str(dataset), "--out", str(out / command))
            for command in ANALYSIS_COMMANDS
        ]
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        shutil.rmtree(out)
        return runs, files

    expected = reports(demo_dir)
    assert [code for code, _, _ in expected[0]] == [0] * len(ANALYSIS_COMMANDS)
    assert reports(ds_copy) == expected


def test_load_dataset_opens_each_file_once(tmp_path, demo_dir, monkeypatch):
    """Each dataset file is read from disk once, its check and its rows from the same bytes.

    So is the one refused at the first line of a row that spans three lines.
    """
    refused = tmp_path / "ds"
    shutil.copytree(demo_dir, refused)
    papers = refused / "papers.csv"
    papers.write_bytes(_multiline_row_after(2)(papers.read_bytes()))
    opened = Counter()
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened[Path(file).name] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr("builtins.open", counting_open)
    ingest.load_dataset(demo_dir, 2015)
    assert opened == {path.name: 1 for path in demo_dir.iterdir()}
    opened.clear()
    with pytest.raises(DataError, match=r"^papers\.csv line 4: pub_year 1799 is before 1800$"):
        ingest.load_dataset(refused, 2015)
    assert opened == {"papers.csv": 1}


def test_validate_reports_errors_and_exits_1(tmp_path, demo_dir, capsys):
    ds_copy = tmp_path / "ds"
    shutil.copytree(demo_dir, ds_copy)
    with open(ds_copy / "links.csv", "a", newline="", encoding="utf-8") as fh:
        fh.write("p00001,ghost-family\n")
    code, stdout, _ = run(capsys, "validate", "--dataset", str(ds_copy))
    assert code == 1
    assert "ghost-family" in stdout
    assert "1 errors" in stdout
    # analysis commands refuse the same dataset
    out = tmp_path / "out"
    code, _, err = run(capsys, "profile", "--dataset", str(ds_copy), "--out", str(out))
    assert code == 1
    assert "error:" in err


def cross_file_errors(tmp_path, demo_dir) -> Path:
    """A copy of data/demo with one validation error of each cross-file kind."""
    ds_copy = tmp_path / "ds"
    shutil.copytree(demo_dir, ds_copy)
    with open(ds_copy / "links.csv", "a", newline="", encoding="utf-8") as fh:
        fh.write("p00001,ghost-family\nghost-paper,f00000\n")
    with open(ds_copy / "concordance.tsv", "a", newline="", encoding="utf-8") as fh:
        fh.write("a61k\t7\tX\tY\n")
    patents = ds_copy / "patents.csv"
    text = patents.read_text(encoding="utf-8")
    assert "\nf00001,2001,2001;2006;2009," in text
    patents.write_text(text.replace("\nf00001,2001,", "\nf00001,2010,", 1), encoding="utf-8")
    return ds_copy


CROSS_FILE_ERRORS = [
    "error ghost-family: link references unknown patent family 'ghost-family'",
    "error ghost-paper: link references unknown paper 'ghost-paper'",
    "error a61k: prefix 'a61k' maps to fields 16 and 7",
    "error f00001: earliest priority year 2010 is after every filing year",
]


def test_validate_prints_every_cross_file_error(tmp_path, demo_dir, capsys):
    ds_copy = cross_file_errors(tmp_path, demo_dir)
    code, stdout, _ = run(capsys, "validate", "--dataset", str(ds_copy))
    assert code == 1
    assert stdout.splitlines() == [*CROSS_FILE_ERRORS, "4 errors, 0 warnings"]


def test_analysis_command_refuses_cross_file_errors_before_writing(tmp_path, demo_dir, capsys):
    ds_copy = cross_file_errors(tmp_path, demo_dir)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "profile", "--dataset", str(ds_copy), "--out", str(out))
    assert code == 1
    assert stdout.splitlines() == CROSS_FILE_ERRORS
    assert err.splitlines()[-1] == "error: dataset failed validation with 4 errors"
    assert not out.exists()


def test_long_ids_in_validation_issues_are_cut_short(tmp_path, demo_dir, capsys):
    """A 5,000-character id is echoed cut short, both as the entity and in the message."""
    ds_copy = tmp_path / "ds"
    shutil.copytree(demo_dir, ds_copy)
    long_id = "q" * 5000
    with open(ds_copy / "links.csv", "a", newline="", encoding="utf-8") as fh:
        fh.write(f"{long_id},f00000\n")
    context = {"cited_paper_id": long_id, "citing_id": "x", "sentence": "s", "year": 1990}
    with open(ds_copy / "contexts.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(context) + "\n")
    shown = "'" + "q" * 40 + "'… (5000 characters)"
    code, stdout, err = run(capsys, "validate", "--dataset", str(ds_copy))
    assert code == 1
    lines = stdout.splitlines()
    assert f"error {shown}: link references unknown paper {shown}" in lines
    assert f"warning {shown}: context cites unknown paper {shown}" in lines
    assert all(len(line.encode("utf-8")) < 200 for line in lines + err.splitlines())
    # An analysis command warns on stderr and prints the errors the same way.
    code, stdout, err = run(capsys, "profile", "--dataset", str(ds_copy), "--out", str(tmp_path / "out"))
    assert code == 1
    assert f"error {shown}: link references unknown paper {shown}" in stdout.splitlines()
    assert f"WARNING slumber: {shown}: context cites unknown paper {shown}" in err.splitlines()
    assert all(len(line.encode("utf-8")) < 200 for line in stdout.splitlines() + err.splitlines())
    # aagr skips a paper whose only citations fall in the window's last year.
    ds_copy = tmp_path / "ds_aagr"
    shutil.copytree(demo_dir, ds_copy)
    with open(ds_copy / "papers.csv", "a", newline="", encoding="utf-8") as fh:
        fh.write(f"{long_id},2013,,,,\n")
    with open(ds_copy / "citations.csv", "a", newline="", encoding="utf-8") as fh:
        fh.write(f"{long_id},2015,5\n")
    code, stdout, err = run(capsys, "aagr", "--dataset", str(ds_copy), "--out", str(tmp_path / "out"))
    assert code == 0
    assert f"WARNING slumber: {shown}: every year-over-year denominator is zero; skipped" in err.splitlines()
    assert all(len(line.encode("utf-8")) < 200 for line in stdout.splitlines() + err.splitlines())


def test_each_call_warns_on_its_own_stderr(tmp_path, demo_dir):
    """main writes each warning to the sys.stderr of its own call and leaves logging as it was."""
    ds_copy = tmp_path / "ds"
    shutil.copytree(demo_dir, ds_copy)
    context = {"cited_paper_id": "ghost", "citing_id": "x", "sentence": "s", "year": 1990}
    with open(ds_copy / "contexts.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(context) + "\n")
    warning = "WARNING slumber: ghost: context cites unknown paper 'ghost'"
    handlers = list(logging.getLogger().handlers)
    streams = []
    for call in range(2):
        stream = io.StringIO()
        with contextlib.redirect_stderr(stream):
            code = cli.main(["profile", "--dataset", str(ds_copy), "--out", str(tmp_path / f"out{call}")])
        assert code == 0
        streams.append(stream.getvalue().splitlines())
    assert streams[0] == streams[1]
    assert warning in streams[0]
    assert all(line.startswith("WARNING slumber: ") for line in streams[0])
    assert logging.getLogger().handlers == handlers


@pytest.mark.parametrize("command", ["cohort", "table1", "lag-trend", "interactions"])
def test_cohort_commands_select_cohorts_once(command, tmp_path, table1_dir, half_config, capsys, monkeypatch):
    calls = []
    reference = cli.select_cohorts

    def counting(dataset, **kwargs):
        calls.append(dataset)
        return reference(dataset, **kwargs)

    monkeypatch.setattr(cli, "select_cohorts", counting)
    code, _, _ = run(
        capsys, command, "--dataset", str(table1_dir), "--out", str(tmp_path), "--config", str(half_config)
    )
    assert code == 0
    assert len(calls) == 1


def test_synth_seed_flag_overrides_config_file(tmp_path, capsys):
    outs = {}
    for tag, settings, flags in (
        ("flag", "n_papers=30\nseed=3\n", ("--seed", "7")),
        ("file", "n_papers=30\nseed=7\n", ()),
    ):
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(settings, encoding="utf-8")
        out = tmp_path / tag
        code, _, _ = run(capsys, "synth", "--out", str(out), "--config", str(cfg), *flags)
        assert code == 0
        outs[tag] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(outs["file"]) == 6
    assert outs["flag"] == outs["file"]


def test_config_keys_of_the_other_command_are_checked_and_ignored(tmp_path, demo_dir, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_papers = 7.5\n", encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run(capsys, "profile", "--dataset", str(demo_dir), "--out", str(out), "--config", str(cfg))
    assert code == 1
    assert err.splitlines()[-1] == "error: config key 'n_papers' takes an integer, not '7.5'"
    cfg.write_text("n_papers = 30\nfraction=0.5\n", encoding="utf-8")
    code, stdout, _ = run(capsys, "synth", "--out", str(tmp_path / "ds"), "--config", str(cfg))
    assert code == 0
    assert "30 papers" in stdout


def _note_with_carriage_return(b: bytes) -> bytes:
    """papers.csv with a `note` column, "a\\rb" on line 2 and pub_year 1799 on line 4."""
    lines = b.splitlines()
    lines[0] += b",note"
    lines[1] += b',"a\rb"'
    lines[2:] = [line + b"," for line in lines[2:]]
    lines[3] = lines[3].replace(b"p00002,2002,", b"p00002,1799,")
    assert lines[3].startswith(b"p00002,1799,")
    return b"\n".join(lines) + b"\n"


def _bad_count_then_bad_byte(b: bytes) -> bytes:
    """citations.csv with a bad count on line 2 and a byte that is not UTF-8 on line 1001."""
    lines = b.split(b"\n")
    lines[1] = lines[1].rsplit(b",", 1)[0] + b",x"
    lines[1000] += b"\xff"
    return b"\n".join(lines)


def _replaced_once(old: bytes, new: bytes) -> Callable[[bytes], bytes]:
    """The change of `old`, which the file holds once, to `new`."""

    def change(b: bytes) -> bytes:
        assert b.count(old) == 1
        return b.replace(old, new)

    return change


def _multiline_row_after(rows: int) -> Callable[[bytes], bytes]:
    """papers.csv with a row of pub_year 1799, whose quoted title holds a line feed, after `rows` rows."""

    def change(b: bytes) -> bytes:
        lines = b.splitlines(keepends=True)
        lines.insert(1 + rows, b'p9,1799,"a\nb",,,\n')
        return b"".join(lines)

    return change


def _first_row_cell(name: str, column: str, cell: str) -> Callable[[bytes], bytes]:
    """The file `name` with `cell` in `column` of its first row, written back by the csv module."""
    delimiter = "\t" if name.endswith(".tsv") else ","

    def change(b: bytes) -> bytes:
        rows = list(csv.reader(io.StringIO(b.decode("utf-8"), newline=""), delimiter=delimiter))
        rows[1][rows[0].index(column)] = cell
        text = io.StringIO(newline="")
        csv.writer(text, delimiter=delimiter, lineterminator="\n").writerows(rows)
        return text.getvalue().encode("utf-8")

    return change


class Prefix(str):
    """The start of a refusal's line, whose rest is Python's own wording, which may differ between versions."""


def assert_refused(capsys, command: str, argv: tuple[str, ...], out: Path, line: str) -> None:
    """The command exits 1, prints nothing to stdout and `line` as its one stderr line, and makes no `out`."""
    code, stdout, err = run(capsys, command, *argv, "--out", str(out))
    shown = err.splitlines()[0] if isinstance(line, Prefix) and err.startswith(line) else line
    assert (code, stdout, err) == (1, "", shown + "\n")
    assert len(shown.encode("utf-8")) < 200
    assert not out.exists()


def per_command(rows: list) -> list:
    """One case per command a row names, its id followed by the command's when the row names more than one."""
    return [
        pytest.param(command, *row.values[1:], id=row.id if len(row.values[0]) == 1 else f"{row.id}-{command}")
        for row in rows
        for command in row.values[0]
    ]


# Every integer column of the dataset files: (file, column, the cell's text
# around the integer, the name the error gives it). A fields_of_study level
# follows its field's name.
INTEGER_COLUMNS = [
    ("citations.csv", "year", "{}", "year"),
    ("citations.csv", "count", "{}", "count"),
    ("papers.csv", "pub_year", "{}", "pub_year"),
    ("papers.csv", "fields_of_study", "biology@{}", "field of study level"),
    ("patents.csv", "earliest_priority_year", "{}", "earliest_priority_year"),
    ("patents.csv", "filing_years", "{}", "filing_years"),
    ("patents.csv", "forward_citation_count", "{}", "forward_citation_count"),
    ("concordance.tsv", "wipo_field_id", "{}", "wipo_field_id"),
]


INTEGER_FORMS = {
    "underscore": "1_990",
    "leading-space": " 1990",
    "trailing-space": "1990 ",
    "plus-sign": "+5",
    "arabic-indic-digits": "١٩٩٠",
    "exponent": "1e3",
    "hex": "0x7C6",
    "empty": "",
}


def refused(files: str | tuple[str, ...], change, line: str, id: str, commands: tuple[str, ...] = ("validate",)):
    """A row of the dataset table: `change` made to the bytes of each of `files` in a copy of data/demo."""
    return pytest.param(commands, (files,) if isinstance(files, str) else files, change, line, id=id)


# The "<lambda>" ids are the ones pytest made when the messages did not
# name their file yet; they are kept so each case keeps its name. data/demo's
# papers.csv has 61 lines, citations.csv 1,025, patents.csv 97 and
# contexts.jsonl 16, so a row appended to one is line 62, 1026, 98 or 17.
DATASET_REFUSALS = [
    refused("papers.csv", lambda b: b.replace(b"Synthetic", b"Synth\xfftic", 1),
            "error: papers.csv line 2: not valid UTF-8: invalid start byte",
            id="papers.csv-<lambda>-line 2: not valid UTF-8"),
    refused("citations.csv", lambda b: b + b"p00001," + b"9" * 200_000 + b",1\n",
            Prefix("error: citations.csv line 1026: unreadable row: "), id="citations.csv-<lambda>-unreadable row"),
    refused("contexts.jsonl", lambda b: b.replace(b"measurements", b"m\xe9asurements", 1),
            "error: contexts.jsonl line 1: not valid UTF-8: invalid continuation byte",
            id="contexts.jsonl-<lambda>-line 1: not valid UTF-8"),
    refused("contexts.jsonl", lambda b: b.replace(b'"year": 1989', b'"year": 1e400', 1),
            "error: contexts.jsonl line 1: year inf is not a JSON integer",
            id="contexts.jsonl-<lambda>-line 1: year inf"),
    refused("contexts.jsonl", lambda b: b.replace(b'"year": 1989', b'"year": 1' + b"0" * 5000, 1),
            "error: contexts.jsonl line 1: invalid JSON: number too long",
            id="contexts.jsonl-<lambda>-line 1: invalid JSON: number too long"),
    refused("contexts.jsonl", lambda b: b"[" * 200_000 + b"]" * 200_000 + b"\n" + b,
            Prefix("error: contexts.jsonl line 1: invalid JSON: maximum recursion depth exceeded"),
            id="contexts.jsonl-<lambda>-line 1: invalid JSON: maximum recursion depth exceeded"),
    refused("papers.csv", lambda b: b + b.splitlines(keepends=True)[1],
            "error: papers.csv line 62: duplicate id: 'p00000'", id="papers.csv-duplicate-id"),
    # A 5,000-digit cell is echoed as its first 40 characters and its length.
    refused("papers.csv", lambda b: b.replace(b",1977,", b"," + b"1" * 5000 + b",", 1),
            "error: papers.csv line 2: pub_year '" + "1" * 40 + "'… (5000 characters) is not an integer",
            id="papers.csv-<lambda>-error: line 2: pub_year '" + "1" * 40 + "'… (5000 characters) is not an integer"),
    refused("citations.csv", lambda b: b.replace(b",count", b",cnt", 1),
            "error: citations.csv: missing required column: 'count'",
            id="citations.csv-<lambda>-error: missing required column: 'count'"),
    refused("citations.csv", lambda b: b + b"p00000,2100,1\n",
            "error: citations.csv line 1026: citation year 2100 for paper 'p00000' outside the observation window",
            id="citations.csv-year-outside-window"),
    refused("patents.csv", lambda b: b + b.splitlines(keepends=True)[1],
            "error: patents.csv line 98: duplicate id: 'f00000'", id="patents.csv-duplicate-id"),
    # A packed cell that is not empty holds no empty entry: a leading,
    # inner or trailing ';' is refused, not dropped.
    refused("patents.csv", lambda b: b.replace(b"1995;2001;2003,70,", b"1995;2001;2003;;,70,;", 1),
            "error: patents.csv line 2: filing_years '1995;2001;2003;;' has an empty entry",
            id="patents.csv-filing-years-trailing-empty-entry"),
    refused("patents.csv", lambda b: b.replace(b",1995;2001;2003,", b",;1995;2001;2003,", 1),
            "error: patents.csv line 2: filing_years ';1995;2001;2003' has an empty entry",
            id="patents.csv-filing-years-leading-empty-entry"),
    refused("patents.csv", lambda b: b.replace(b",C12Q1/68;G01N21/64;", b",C12Q1/68;;G01N21/64;", 1),
            "error: patents.csv line 2: ipc_codes 'C12Q1/68;;G01N21/64;H01L29/06' has an empty entry",
            id="patents.csv-ipc-codes-inner-empty-entry"),
    refused("patents.csv",
            lambda b: b.replace(b",C12Q1/68;G01N21/64;H01L29/06\n", b",;C12Q1/68;G01N21/64;H01L29/06;\n", 1),
            "error: patents.csv line 2: ipc_codes ';C12Q1/68;G01N21/64;H01L29/06;' has an empty entry",
            id="patents.csv-ipc-codes-leading-and-trailing-empty-entries"),
    refused("papers.csv",
            lambda b: b.replace(b"environmental science@0;sociology@0;molecular biology@1", b"biology@0;;physics@0", 1),
            "error: papers.csv line 2: fields_of_study 'biology@0;;physics@0' has an empty entry",
            id="papers.csv-fields-of-study-inner-empty-entry"),
    # A 5,000-character id is echoed as its first 40 characters and its length.
    refused("citations.csv", lambda b: b + b"q" * 5000 + b",1990,1\n",
            "error: citations.csv line 1026: citation row references unknown paper "
            + "'" + "q" * 40 + "'… (5000 characters)",
            id="citations.csv-long-unknown-paper"),
    refused("papers.csv", lambda b: b + (b"q" * 5000 + b",1990,,,,\n") * 2,
            "error: papers.csv line 63: duplicate id: '" + "q" * 40 + "'… (5000 characters)",
            id="papers.csv-long-duplicate-id"),
    # Python 3.10's csv module refuses a NUL byte and later versions read it;
    # every version refuses it here.
    refused("papers.csv", lambda b: b.replace(b"Synthetic", b"Synth\x00etic", 1),
            "error: papers.csv line 2: unreadable row: line contains NUL",
            id="papers.csv-<lambda>-error: line 2: unreadable row: line contains NUL"),
    # Far past the first line: 1,025 lines, then blank ones.
    refused("citations.csv", lambda b: b + b"\n" * 70_000 + b"p00000,\x001990,1\n",
            "error: citations.csv line 71026: unreadable row: line contains NUL",
            id="citations.csv-<lambda>-error: line 71026: unreadable row: line contains NUL"),
    refused("contexts.jsonl", lambda b: b.replace(b"measurements", b"m\x00easurements", 1),
            "error: contexts.jsonl line 1: unreadable row: line contains NUL", id="contexts.jsonl-nul"),
    # Every line ends at a line feed, as `wc -l` counts: a carriage return
    # outside a CRLF line end is refused at its own line, even in a column
    # that no record reads, and before a bad row on a later line.
    refused("papers.csv", _note_with_carriage_return,
            "error: papers.csv line 2: unreadable row: carriage return outside a CRLF line end",
            id="papers.csv-carriage-return-in-an-unread-column"),
    refused("papers.csv", lambda b: b.replace(b"\n", b"\r"),
            "error: papers.csv line 1: unreadable row: carriage return outside a CRLF line end",
            id="papers.csv-carriage-return-line-ends"),
    # A quoted id holding a carriage return loads nowhere, since the csv module
    # would write it unquoted: papers.csv, the first file read, is refused at
    # the id's own line.
    refused(("papers.csv", "citations.csv", "links.csv"), lambda b: b.replace(b"\np00000,", b'\n"p\r00000",'),
            "error: papers.csv line 2: unreadable row: carriage return outside a CRLF line end",
            id="carriage-return-in-an-id", commands=("validate", "profile")),
    # Every byte is checked before any row is read.
    refused("citations.csv", _bad_count_then_bad_byte,
            "error: citations.csv line 1001: not valid UTF-8: invalid start byte",
            id="citations.csv-bad-byte-after-bad-row"),
    # A bad byte, a bad cell and a bad JSON line appended to a file.
    refused("citations.csv", lambda b: b + b"p00000,1999,\xff\n",
            "error: citations.csv line 1026: not valid UTF-8: invalid start byte",
            id="citations.csv-appended-bad-byte"),
    refused("citations.csv", lambda b: b + b"p00000,1999,x\n",
            "error: citations.csv line 1026: count 'x' is not an integer", id="citations.csv-appended-bad-count"),
    refused("contexts.jsonl", lambda b: b + b"{\n",
            "error: contexts.jsonl line 17: invalid JSON: Expecting property name enclosed in double quotes",
            id="contexts.jsonl-appended-open-brace"),
    # A quoted cell may hold a line end; the error names the row's first line, as `wc -l` counts.
    *(refused("papers.csv", _multiline_row_after(rows),
              f"error: papers.csv line {2 + rows}: pub_year 1799 is before 1800",
              id=f"row-error-names-the-line-the-row-starts-on-{rows}") for rows in (0, 2)),
    # Required text that is empty.
    refused("papers.csv", _replaced_once(b"\np00000,", b"\n,"),
            "error: papers.csv line 2: paper_id must be non-empty", id="paper-id"),
    refused("papers.csv", _replaced_once(b",environmental science@0;", b",@0;"),
            "error: papers.csv line 2: field of study name must be non-empty", id="field-name"),
    refused("patents.csv", _replaced_once(b"\nf00000,", b"\n,"),
            "error: patents.csv line 2: family_id must be non-empty", id="family-id"),
    refused("concordance.tsv", _replaced_once(b"\nA61B\t", b"\n\t"),
            "error: concordance.tsv line 2: ipc_prefix '' is blank", id="ipc-prefix"),
    refused("contexts.jsonl",
            _replaced_once(b'"These measurements contradict the rate constants from p00006."', b'""'),
            "error: contexts.jsonl line 1: sentence must be non-empty", id="sentence"),
    # Only '-?[0-9]+' is an integer cell; anything else on line 2 stops the load
    # there. An empty filing_years cell lists no filing year.
    *(refused(name, _first_row_cell(name, column, cell.format(form)),
              f"error: {name} line 2: {label} {form!r} is not an integer" if form or column != "filing_years"
              else "error: patents.csv line 2: filing_years must be non-empty",
              id=f"{name}-{column}-{form_id}")
      for name, column, cell, label in INTEGER_COLUMNS for form_id, form in INTEGER_FORMS.items()),
]


@pytest.mark.parametrize("command, files, change, line", per_command(DATASET_REFUSALS))
def test_undecodable_and_mistyped_input_exits_1(tmp_path, demo_dir, capsys, command, files, change, line):
    """Each command of a row, a case of its own, refuses its change to a copy of data/demo while loading it.

    It exits 1 with no stdout, the row's line as its one stderr line, and
    nothing under --out. A Prefix line is matched at its start only. A new
    refusal of a dataset file is a row of this table.
    """
    ds_copy = tmp_path / "ds"
    shutil.copytree(demo_dir, ds_copy)
    for name in files:
        path = ds_copy / name
        path.write_bytes(change(path.read_bytes()))
    assert_refused(capsys, command, ("--dataset", str(ds_copy)), tmp_path / "out", line)


@pytest.mark.parametrize("blank", [" ", "\u3000 "])
def test_a_blank_ipc_prefix_is_refused_at_its_line(tmp_path, demo_dir, capsys, blank):
    """Normalized, a blank prefix is '', which every IPC code starts with: it would map every unmapped code."""
    ds_copy = tmp_path / "ds"
    shutil.copytree(demo_dir, ds_copy)
    path = ds_copy / "concordance.tsv"
    rows = [row for row in path.read_bytes().splitlines(keepends=True) if not row.startswith(b"H01L\t")]
    path.write_bytes(b"".join(rows))
    code, stdout, _ = run(capsys, "validate", "--dataset", str(ds_copy))
    assert (code, stdout.splitlines()[-1]) == (0, "0 errors, 1 warnings")
    assert "IPC code 'H01L29/06' matches no concordance prefix" in stdout
    path.write_bytes(b"".join(rows) + f"{blank}\t35\tCatch-all\tOther fields\n".encode())
    code, stdout, err = run(capsys, "validate", "--dataset", str(ds_copy))
    line = f"error: concordance.tsv line {len(rows) + 1}: ipc_prefix {blank!r} is blank"
    assert (code, stdout, err.splitlines()) == (1, "", [line])


def test_single_year_window_warns(tmp_path, demo_dir, capsys):
    """A paper published in the window's last year has no curve, which validation warns about."""
    ds_copy = tmp_path / "ds"
    shutil.copytree(demo_dir, ds_copy)
    with open(ds_copy / "papers.csv", "a", newline="", encoding="utf-8") as fh:
        fh.write("p99999,2015,,,,\n")
    with open(ds_copy / "citations.csv", "a", newline="", encoding="utf-8") as fh:
        fh.write("p99999,2015,1\n")
    code, stdout, err = run(capsys, "validate", "--dataset", str(ds_copy))
    assert (code, err) == (0, "")
    assert stdout.splitlines() == [
        "warning p99999: observation window spans a single year; curve undefined",
        "0 errors, 1 warnings",
    ]


# The commands that check every config key, also one they do not read.
EVERY_COMMAND = ("profile", "aagr", "validate", "cohort", "lag-trend", "synth")
LONG = b"x" * 5000
LONG_SHOWN = "'" + "x" * 40 + "'… (5000 characters)"


def bad_config(commands: tuple[str, ...], config: bytes, line: str, id: str, dataset: str = "{tmp}/missing"):
    """A row of the config table: `config` is the bytes of run.cfg, and {demo} in `dataset` is data/demo."""
    return pytest.param(commands, config, line, dataset, id=id)


CONFIG_REFUSALS = [
    bad_config(EVERY_COMMAND, b"fraction = 7\n", "error: cohort fraction 7.0 outside (0, 0.5]", id="fraction-7"),
    bad_config(EVERY_COMMAND, b"fraction = 0\n", "error: cohort fraction 0.0 outside (0, 0.5]", id="fraction-0"),
    bad_config(EVERY_COMMAND, b"fraction = nan\n", "error: cohort fraction nan outside (0, 0.5]", id="fraction-nan"),
    bad_config(EVERY_COMMAND, b"window_width = 0\n", "error: window width 0 must be >= 1", id="window-width-0"),
    bad_config(EVERY_COMMAND, b"min_total_citations = 0\n", "error: minimum citation total must be at least 1",
               id="min-total-citations-0"),
    bad_config(EVERY_COMMAND, b"n_papers = 0\n", "error: n_papers must be at least 1", id="n-papers-0"),
    bad_config(EVERY_COMMAND, b"share_delayed = 2\n", "error: shape shares must sum to 1, got 2.75",
               id="share-delayed-2"),
    # A word list holds no empty entry, leading, inner or trailing.
    bad_config(EVERY_COMMAND, b"terms = dispute,,contradict,\n",
               "error: config key 'terms' has an empty entry: 'dispute,,contradict,'", id="terms-empty-entries"),
    bad_config(EVERY_COMMAND, b"terms = , dispute\n", "error: config key 'terms' has an empty entry: ', dispute'",
               id="terms-leading-empty-entry"),
    bad_config(EVERY_COMMAND, b"terms =\n", "error: terms must name at least one word", id="terms-empty"),
    # flag_contexts matches a term whatever its case, so a repeat would be reported twice.
    bad_config(EVERY_COMMAND, b"terms = dispute, Dispute\n", "error: terms lists 'Dispute' twice, ignoring case",
               id="terms-twice"),
    # Every command reads the whole config file before the dataset, so each refuses a bad one alike.
    bad_config(EVERY_COMMAND, b"fractoin=0.1\n", "error: unknown config key 'fractoin'", id="unknown-key"),
    bad_config(EVERY_COMMAND, b"fraction=0.5\n# a comment\nfraction=0.01\n",
               "error: run.cfg line 3: config key 'fraction' given twice", id="repeated-key"),
    # A 5,000-character text is echoed as its first 40 characters and its length.
    bad_config(EVERY_COMMAND, LONG + b"=1\n", f"error: unknown config key {LONG_SHOWN}", id="long-unknown-key"),
    bad_config(EVERY_COMMAND, LONG + b"=1\n" + LONG + b"=2\n",
               f"error: run.cfg line 2: config key {LONG_SHOWN} given twice", id="long-repeat"),
    bad_config(EVERY_COMMAND, LONG + b"\n", f"error: run.cfg line 1: expected key=value, got {LONG_SHOWN}",
               id="long-no-equals"),
    bad_config(EVERY_COMMAND, b"pub_from=" + LONG + b"\n",
               f"error: config key 'pub_from' takes an integer, not {LONG_SHOWN}", id="long-int"),
    bad_config(EVERY_COMMAND, b"fraction=" + LONG + b"\n",
               f"error: config key 'fraction' has non-numeric value {LONG_SHOWN}", id="long-float"),
    bad_config(EVERY_COMMAND, b"aagr_method=" + LONG + b"\n",
               f"error: aagr_method must be arithmetic or compound, not {LONG_SHOWN}", id="long-aagr"),
    # A config file goes through the dataset files' byte check, and its errors name the line alike.
    bad_config(EVERY_COMMAND, b"fraction = 0.5\n# r\xe9sum\xe9\n",
               "error: run.cfg line 2: not valid UTF-8: invalid continuation byte", id="not-utf8"),
    bad_config(EVERY_COMMAND, b"terms = dis\0pute\n", "error: run.cfg line 1: unreadable row: line contains NUL",
               id="nul"),
    bad_config(EVERY_COMMAND, b"fraction=0.5\rwindow_width=3\r",
               "error: run.cfg line 1: unreadable row: carriage return outside a CRLF line end", id="cr-only"),
    bad_config(EVERY_COMMAND, b"\xef\xbb\xbffraction=0.5\r\n\r\nterms=a\rb\n",
               "error: run.cfg line 3: unreadable row: carriage return outside a CRLF line end",
               id="lone-cr-after-bom-and-crlf"),
    # Settings synth cannot build a dataset from.
    bad_config(("synth",), b"share_noise = nan\n", "error: shape shares must be non-negative numbers",
               id="share-noise-nan"),
    bad_config(("synth",), b"share_delayed = nan\n", "error: shape shares must be non-negative numbers",
               id="share-delayed-nan"),
    bad_config(("synth",), b"timing_later = nan\n", "error: timing targets must be non-negative numbers",
               id="timing-later-nan"),
    bad_config(("synth",), b"share_noise = inf\n", "error: shape shares must sum to 1, got inf", id="share-noise-inf"),
    bad_config(("synth",), b"link_density = nan\n", "error: link density nan outside [0, 1]", id="link-density-nan"),
    bad_config(("synth",), b"pub_from = 1700\npub_to = 1750\n", "error: pub_from 1700 is before 1800",
               id="pub-from-1700"),
    bad_config(("synth", "cohort"), b"fraction = 0.9\n", "error: cohort fraction 0.9 outside (0, 0.5]",
               id="fraction-0.9"),
    # No paper of data/demo is eligible: refused after the load, and with nothing under --out still.
    bad_config(("cohort", "table1", "lag-trend", "interactions"), b"pub_from = 1800\npub_to = 1801\n",
               "error: no paper satisfies the eligibility filter", id="eligibility", dataset="{demo}"),
]


@pytest.mark.parametrize("command, config, line, dataset", per_command(CONFIG_REFUSALS))
def test_bad_config_exits_1_before_the_dataset_is_read(tmp_path, demo_dir, capsys, command, config, line, dataset):
    """Each command of a row, a case of its own, refuses its config file before reading the missing dataset.

    It exits 1 with no stdout, the row's line as its one stderr line, and
    nothing under --out; a missing dataset directory read would exit 2. Only
    the eligibility row needs the data, and its commands load data/demo
    first. A new refusal of a config file is a row of this table.
    """
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(config)
    argv = ("--dataset", dataset.format(tmp=tmp_path, demo=demo_dir), "--config", str(cfg))
    assert_refused(capsys, command, argv, tmp_path / "out", line)


def test_missing_dataset_dir_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run(
        capsys, "profile", "--dataset", str(tmp_path / "nope"), "--out", str(out)
    )
    assert code == 2
    assert "io error:" in err


def test_unparsable_command_line_exits_2(tmp_path, demo_dir, capsys):
    argv = ["profile", "--dataset", str(demo_dir), "--out", str(tmp_path / "out"), "--confg", "x"]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --confg x" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("profile --out {tmp}/out", "--dataset"),
        ("table1 --dataset {tmp}/missing", "--out"),
        ("table1 --dataset {demo} --config {tmp}/missing.cfg", "--out"),
        ("validate --out {tmp}/out", "--dataset"),
        ("synth --seed 1", "--out"),
    ],
)
def test_missing_required_flag_exits_1_before_any_file_is_read(
    tmp_path, demo_dir, capsys, monkeypatch, argv, flag
):
    """A missing dataset directory or config file would exit 2; an existing dataset is not loaded."""
    monkeypatch.setattr(ingest, "load_dataset", None)
    code, stdout, err = run(capsys, *argv.format(tmp=tmp_path, demo=demo_dir).split())
    assert (code, stdout, err.splitlines()) == (1, "", [f"error: this command requires {flag}"])
    assert list(tmp_path.iterdir()) == []


def test_config_parsing_units():
    assert _coerce("pub_from", "1980") == 1980
    assert _coerce("fraction", "0.25") == 0.25
    assert _coerce("terms", "refute, challenge") == ("refute", "challenge")
    with pytest.raises(ConfigError):
        _coerce("fraction", "lots")
    with pytest.raises(ConfigError):
        SynthSpec(pub_from=2010, pub_to=2000)
    with pytest.raises(ConfigError):
        SynthSpec(aagr_method="sideways")
    with pytest.raises(ConfigError):
        SynthSpec(terms=())
    with pytest.raises(ConfigError, match=r"^terms lists 'DISPUTE' twice, ignoring case$"):
        SynthSpec(terms=("dispute", "refute", "DISPUTE", "Refute"))


@pytest.mark.parametrize(
    "terms, refused",
    [
        # re ignores case one character at a time: no ß to SS, no ligature to its letters.
        pytest.param(("straße", "STRASSE"), False, id="sharp-s"),
        pytest.param(("ﬁ", "fi"), False, id="ligature"),
        pytest.param(("dispute", "Dispute"), True, id="ascii"),
        # ...but the long s matches s, and the Kelvin sign k.
        pytest.param(("ſ", "s"), True, id="long-s"),
        pytest.param(("\u212a", "k"), True, id="kelvin"),
    ],
)
def test_repeated_terms_follow_the_matcher(terms, refused):
    """A term is refused exactly when flag_contexts finds it as an earlier term."""
    second = terms[1]
    context = CitationContextRecord("c", "p", 1990, f"we {second} it")
    found = [matched for _, matched in ingest.flag_contexts([context], terms)]
    if refused:
        with pytest.raises(ConfigError, match=rf"^terms lists '{second}' twice, ignoring case$"):
            SynthSpec(terms=terms)
        assert found == [terms]
    else:
        assert SynthSpec(terms=terms).terms == terms
        assert found == [(second,)]


@pytest.mark.parametrize("terms", ["dispute", ["dispute"], ("dispute", 1), (b"dispute",)])
def test_terms_must_be_a_tuple_of_words(terms):
    """A string would be iterated letter by letter: flag_contexts would match 'e' in 'Table e shows it'."""
    with pytest.raises(ConfigError, match=r"^terms must be a tuple of words, not "):
        SynthSpec(terms=terms)


def test_load_config_coerces_synth_keys(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n_papers = 75\nlink_density = 0.3\n", encoding="utf-8")
    spec = load_config(cfg)
    assert (spec.n_papers, spec.link_density, spec.seed) == (75, 0.3, 0)
    assert type(spec.n_papers) is int and type(spec.link_density) is float
    cfg.write_text("n_papers = 7.5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="config key 'n_papers' takes an integer, not '7.5'"):
        load_config(cfg)
    cfg.write_text("link_density = dense\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="config key 'link_density' has non-numeric value 'dense'"):
        load_config(cfg)


@pytest.mark.parametrize(
    "line, key, raw",
    [
        ("n_papers = 1_000", "n_papers", "1_000"),
        ("seed = +7", "seed", "+7"),
        ("window_end = ٢٠١٥", "window_end", "٢٠١٥"),
    ],
)
def test_config_integers_are_ascii_digits_only(tmp_path, line, key, raw):
    """A config integer takes an integer cell's grammar, '-?[0-9]+'; int() would take all three."""
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(cfg)
    assert str(exc.value) == f"config key {key!r} takes an integer, not {raw!r}"


@pytest.mark.parametrize(
    "line, key, raw",
    [
        ("fraction = ٠.٢", "fraction", "٠.٢"),
        ("link_density = 0_0.5", "link_density", "0_0.5"),
    ],
)
def test_config_floats_are_ascii_without_underscores(tmp_path, line, key, raw):
    """A config float takes float()'s ASCII text without '_'; float() would take both."""
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(cfg)
    assert str(exc.value) == f"config key {key!r} has non-numeric value {raw!r}"


def test_config_lines_end_at_a_line_feed_only(tmp_path):
    """str.splitlines() would split at U+0085 too and report 'ls2.cfg:2: expected key=value, got 'b''."""
    cfg = tmp_path / "ls2.cfg"
    cfg.write_bytes("terms = a\x85b\nwindow_width = x\n".encode("utf-8"))
    with pytest.raises(ConfigError) as exc:
        load_config(cfg)
    assert str(exc.value) == "config key 'window_width' takes an integer, not 'x'"
    cfg.write_bytes("terms = a\x85b\r\nfraction = 0.5\r\n".encode("utf-8"))
    config = load_config(cfg)
    assert (config.terms, config.fraction) == (("a\x85b",), 0.5)


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n# comment line\npub_from = 1975\nfraction=0.02\nterms = refute, challenge\n",
        encoding="utf-8"
    )
    config = load_config(cfg)
    assert config.pub_from == 1975
    assert config.fraction == 0.02
    assert config.terms == ("refute", "challenge")
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_reports_are_byte_identical_across_runs(tmp_path, table1_dir, half_config, capsys):
    outs = tmp_path / "a", tmp_path / "b"
    for out in outs:
        for command in ("profile", "table1", "lag-trend"):
            code, _, _ = run(
                capsys,
                command,
                "--dataset", str(table1_dir),
                "--out", str(out),
                "--config", str(half_config),
            )
            assert code == 0
    a, b = outs
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# ASCII pieces of drawn sentences: joined with no gap they give longer words,
# and a digit or '_' beside a term.
SENTENCE_PIECES = st.sampled_from(
    ("dispute", "DISPUTES", "9dispute", "Refute", "_refute", "refute", "in", "contrast", "x", "_")
)
GAPS = st.sampled_from(("", " ", "", "  ", ",", "-"))
TERMS = ("refute", "dispute", "in contrast", "contrast")


@st.composite
def report_cases(draw) -> tuple[Dataset, dict[str, object]]:
    """A drawn dataset with drawn contexts, or none, and the settings of a run over it.

    Some contexts cite a paper the dataset lacks, which validation only warns about.
    """
    dataset, _ = draw(linked_datasets())
    sentence = st.lists(st.tuples(GAPS, SENTENCE_PIECES), min_size=1, max_size=8).map(
        lambda parts: "".join(gap + piece for gap, piece in parts)
    )
    cited = st.sampled_from([*dataset.papers, "p9"])
    year = st.integers(1976, 1990)
    context = st.builds(CitationContextRecord, st.sampled_from(("c0", "c1")), cited, year, sentence)
    contexts = tuple(draw(st.lists(context, max_size=10)))
    if not contexts and draw(st.booleans()):
        contexts = None
    words = draw(st.lists(st.sampled_from(TERMS), min_size=1, max_size=4, unique=True))
    terms = tuple(draw(st.sampled_from((word, word.upper(), word.title()))) for word in words)
    config = {
        "window_end": dataset.window_end,
        "pub_from": draw(st.integers(1975, 1978)),
        "pub_to": draw(st.integers(1979, 1981)),
        "min_total_citations": draw(st.integers(1, 6)),
        "fraction": draw(st.sampled_from((0.01, 0.25, 0.3, 0.5))),
        "aagr_method": draw(st.sampled_from(("arithmetic", "compound"))),
        "window_width": draw(st.integers(1, 3)),
        "terms": terms,
    }
    return replace(dataset, contexts=contexts), config


PROFILE_COLUMNS = (
    "paper_id", "pub_year", "t_m", "total_citations", "bcp", "turning_t", "turning_year", "turning_type"
)
COHORT_COLUMNS = ("paper_id", "rank", "bcp", "cohort")
AAGR_COLUMNS = ("paper_id", "base_year", "end_year", "method", "aagr_percent", "skipped_years")
PATENT_COLUMNS = (
    "paper_id", "n_families", "earliest_filing_year", "latest_filing_year", "durability_years",
    "forward_cites_of_earliest", "first_citation_lag", "relative_timing", "timing_class",
)
COMPARISON_COLUMNS = ("indicator", "group", "yes", "no", "rate", "ci_low", "ci_high", "rate_ratio", "z", "p")
LAG_TREND_COLUMNS = ("cohort", "mode", "window_start", "window_end", "mean_lag", "n_obs")
LAG_SUMMARY_COLUMNS = ("cohort", "mode", "n", "min", "max", "median", "sd")
INTERACTION_COLUMNS = {
    "interactions": ("field_of_study", "wipo_field_id", "wipo_field_name", "weight"),
    "interaction_marginals": ("axis", "key", "label", "weight"),
    "field_distribution": ("field_of_study", "papers", "share"),
}


def csv_text(columns: tuple[str, ...], rows: list[tuple]) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in (columns, *rows))


def cohort_reports(dataset: Dataset, config: dict[str, object]) -> dict[str, str]:
    """The files of cohort, table1, lag-trend and interactions from reference.py, each left out where it exits 1."""
    cohort = (config["pub_from"], config["pub_to"], config["min_total_citations"], config["fraction"])
    expected = {}
    try:
        ids = reference.cohort_ids(dataset, *cohort)
    except DataError:  # no eligible paper: the four commands exit 1 and write nothing
        return expected
    expected["cohort.csv"] = csv_text(COHORT_COLUMNS, reference.cohort_rows(dataset, *cohort))
    if ids[IR]:  # table1 exits 1 on an empty IR cohort
        expected["comparison.csv"] = csv_text(COMPARISON_COLUMNS, reference.comparison_rows(dataset, *cohort))
    trend, summary = reference.lag_rows(dataset, config["window_width"], *cohort)
    expected["lag_trend.csv"] = csv_text(LAG_TREND_COLUMNS, trend)
    expected["lag_summary.csv"] = csv_text(LAG_SUMMARY_COLUMNS, summary)
    for tag, cohort_id in (("dr", DR), ("ir", IR)):
        for stem, rows in reference.interaction_rows(dataset, ids[cohort_id]).items():
            expected[f"{stem}_{tag}.csv"] = csv_text(INTERACTION_COLUMNS[stem], rows)
    return expected


# Each analysis command and one file it writes when it exits 0; when it exits 1 it writes none.
REPORT_FILES = {
    "profile": "profiles.csv",
    "cohort": "cohort.csv",
    "patents": "patent_indicators.csv",
    "table1": "comparison.csv",
    "lag-trend": "lag_trend.csv",
    "interactions": "interactions_dr.csv",
    "aagr": "aagr.csv",
    "flag-contexts": "flagged_contexts.jsonl",
}


# The drawn cohorts hold a paper or two, so their lag trends seldom span more
# than one window year; the Table 1 fixture's span many.
TABLE1 = table1_dataset()
TABLE1_CASE = (
    TABLE1,
    {
        "window_end": TABLE1.window_end,
        "pub_from": 1970,
        "pub_to": 2005,
        "min_total_citations": 200,
        "fraction": 0.5,
        "aagr_method": "compound",
        "window_width": 5,
        "terms": ("dispute",),
    },
)


@settings(max_examples=50, deadline=None)
@given(report_cases())
@example(TABLE1_CASE)
def test_reports_match_naive_rows_on_drawn_datasets(case):
    """Every analysis command in-process on a written dataset, against the rows of reference.py."""
    dataset, config = case
    expected = {
        "profiles.csv": csv_text(PROFILE_COLUMNS, reference.profile_rows(dataset)),
        "patent_indicators.csv": csv_text(PATENT_COLUMNS, reference.patent_rows(dataset)),
        "aagr.csv": csv_text(AAGR_COLUMNS, reference.aagr_rows(dataset, config["aagr_method"])),
        "flagged_contexts.jsonl": "".join(
            json.dumps({**asdict(rec), "matched_terms": list(matched)}, sort_keys=True) + "\n"
            for rec, matched in reference.flagged_contexts(dataset.contexts or (), config["terms"])
        ),
        **cohort_reports(dataset, config),
    }
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ingest.write_dataset(dataset, root / "ds")
        settings_text = "".join(f"{k} = {', '.join(v) if k == 'terms' else v}\n" for k, v in config.items())
        (root / "run.cfg").write_text(settings_text, encoding="utf-8")
        argv = ["--dataset", str(root / "ds"), "--out", str(root / "out"), "--config", str(root / "run.cfg")]
        codes = {}
        for command in REPORT_FILES:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes[command] = cli.main([command, *argv])
        assert codes == {command: 0 if name in expected else 1 for command, name in REPORT_FILES.items()}
        written = {path.name: path.read_text(encoding="utf-8") for path in (root / "out").iterdir()}
    assert written == expected


ANALYSIS_COMMANDS = (
    "validate",
    "profile",
    "cohort",
    "patents",
    "table1",
    "lag-trend",
    "interactions",
    "aagr",
    "flag-contexts",
)


def test_commands_do_not_read_dense_counts(tmp_path, demo_dir, capsys, monkeypatch):
    """No command reads a dense view of a series; only the tests' reference builds one.

    CitationSeries has no counts attribute, so the trap below is added, not
    replaced: it catches a dense view coming back into the commands' path.
    """

    def dense_counts(series):
        raise AssertionError(f"dense counts of {series.paper_id} read")

    monkeypatch.setattr(CitationSeries, "counts", property(dense_counts), raising=False)
    for command in ANALYSIS_COMMANDS:
        code, _, err = run(
            capsys, command, "--dataset", str(demo_dir), "--out", str(tmp_path / command)
        )
        assert code == 0, (command, err)
    code, _, err = run(capsys, "synth", "--seed", "3", "--out", str(tmp_path / "synth"))
    assert code == 0, err


def test_commands_do_not_mutate_dataset(tmp_path, table1_dir, half_config, capsys):
    before = {p.name: p.read_bytes() for p in table1_dir.iterdir()}
    out = tmp_path / "out"
    for command in ("profile", "cohort", "table1", "aagr", "flag-contexts", "validate"):
        run(
            capsys,
            command,
            "--dataset", str(table1_dir),
            "--out", str(out),
            "--config", str(half_config),
        )
    after = {p.name: p.read_bytes() for p in table1_dir.iterdir()}
    assert before == after


def test_module_entry_point_exit_codes(tmp_path, demo_dir):
    """`python -m slumber.cli` in a fresh interpreter: 0, 1 and 2."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def entry(*argv):
        return subprocess.run(
            [sys.executable, "-m", "slumber.cli", *argv], capture_output=True, encoding="utf-8", env=env, timeout=120
        )

    done = entry("validate", "--dataset", str(demo_dir))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith("0 errors,")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fraction=0.9\n", encoding="utf-8")
    done = entry("cohort", "--dataset", str(demo_dir), "--out", str(tmp_path / "out"), "--config", str(cfg))
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == "error: cohort fraction 0.9 outside (0, 0.5]"
    done = entry("validate", "--dataset", str(demo_dir), "--no-such-flag")
    assert done.returncode == 2
    assert "unrecognized arguments: --no-such-flag" in done.stderr


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("expected_code", [0, 1, 2])
def test_main_restores_the_collector_state(tmp_path, demo_dir, capsys, enabled, expected_code):
    dataset = {
        0: demo_dir,
        1: cross_file_errors(tmp_path, demo_dir),
        2: tmp_path / "missing",
    }[expected_code]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code, _, _ = run(capsys, "table1", "--dataset", str(dataset), "--out", str(tmp_path / "out"))
        assert code == expected_code
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_commands_build_no_cycles_that_grow_with_the_data(tmp_path, demo_dir, capsys):
    """With the collector off, what a collection finds after table1 does not depend on the dataset.

    That garbage is the command's argument parser; the records a command
    builds hold no cycles, which is what makes pausing the collector safe.
    """
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n_papers=2000\n", encoding="utf-8")
    code, _, err = run(capsys, "synth", "--seed", "5", "--config", str(cfg), "--out", str(tmp_path / "big"))
    assert code == 0, err
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        found = []
        # The first run warms the module caches; its count is not compared.
        for dataset in (demo_dir, demo_dir, tmp_path / "big"):
            gc.collect()
            code, _, err = run(capsys, "table1", "--dataset", str(dataset), "--out", str(tmp_path / "out"))
            assert code == 0, err
            found.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    assert found[1] == found[2]
