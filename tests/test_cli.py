"""End-to-end command behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import csv
import gc
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from slumber import cli, curve, ingest, patent, synth
from slumber.errors import ConfigError
from slumber.model import CitationSeries


def run(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def half_config(tmp_path) -> Path:
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# take the extreme halves\nfraction = 0.5\n")
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
    cfg.write_text("n_papers = 60\nlink_density = 1.0\nfraction = 0.5\n")
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
    lines = (out / "flagged_contexts.jsonl").read_text().splitlines()
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
    assert (out / "flagged_contexts.jsonl").read_text() == ""


def test_synth_then_validate(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n_papers=30\nlink_density=0.7\n")
    ds_dir = tmp_path / "ds"
    code, stdout, _ = run(
        capsys, "synth", "--out", str(ds_dir), "--config", str(cfg), "--seed", "7"
    )
    assert code == 0
    assert "30 papers" in stdout
    code, stdout, _ = run(capsys, "validate", "--dataset", str(ds_dir))
    assert code == 0
    assert "0 errors, 0 warnings" in stdout


def test_skipped_paper_is_logged_once(tmp_path, demo_dir, caplog):
    dataset = ingest.load_dataset(demo_dir, 2015)
    silent = dataset.series["p00001"]
    dataset.series["p00001"] = replace(silent, offsets=(), values=())
    ds_dir = tmp_path / "ds"
    ingest.write_dataset(dataset, ds_dir)
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="slumber"):
        code = cli.main(["profile", "--dataset", str(ds_dir), "--out", str(out)])
    assert code == 0
    named = [r.getMessage() for r in caplog.records if "p00001" in r.getMessage()]
    assert named == ["p00001: no citations inside the observation window"]
    assert "p00001" not in {r["paper_id"] for r in read_rows(out / "profiles.csv")}


def test_validate_reports_errors_and_exits_1(tmp_path, demo_dir, capsys):
    ds_copy = tmp_path / "ds"
    shutil.copytree(demo_dir, ds_copy)
    with open(ds_copy / "links.csv", "a", newline="") as fh:
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
    with open(ds_copy / "links.csv", "a", newline="") as fh:
        fh.write("p00001,ghost-family\nghost-paper,f00000\n")
    with open(ds_copy / "concordance.tsv", "a", newline="") as fh:
        fh.write("a61k\t7\tX\tY\n")
    patents = ds_copy / "patents.csv"
    text = patents.read_text()
    assert "\nf00001,2001,2001;2006;2009," in text
    patents.write_text(text.replace("\nf00001,2001,", "\nf00001,2010,", 1))
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


def test_long_ids_in_validation_issues_are_cut_short(tmp_path, demo_dir, capsys, caplog):
    """A 5,000-character id is echoed cut short, both as the entity and in the message."""
    ds_copy = tmp_path / "ds"
    shutil.copytree(demo_dir, ds_copy)
    long_id = "q" * 5000
    with open(ds_copy / "links.csv", "a", newline="") as fh:
        fh.write(f"{long_id},f00000\n")
    context = {"cited_paper_id": long_id, "citing_id": "x", "sentence": "s", "year": 1990}
    with open(ds_copy / "contexts.jsonl", "a") as fh:
        fh.write(json.dumps(context) + "\n")
    shown = "'" + "q" * 40 + "'… (5000 characters)"
    code, stdout, err = run(capsys, "validate", "--dataset", str(ds_copy))
    assert code == 1
    lines = stdout.splitlines()
    assert f"error {shown}: link references unknown paper {shown}" in lines
    assert f"warning {shown}: context cites unknown paper {shown}" in lines
    assert all(len(line.encode("utf-8")) < 200 for line in lines + err.splitlines())
    # An analysis command logs the warnings and prints the errors the same way.
    code, stdout, err = run(capsys, "profile", "--dataset", str(ds_copy), "--out", str(tmp_path / "out"))
    assert code == 1
    assert f"error {shown}: link references unknown paper {shown}" in stdout.splitlines()
    assert f"{shown}: context cites unknown paper {shown}" in caplog.messages
    printed = stdout.splitlines() + err.splitlines() + caplog.messages
    assert all(len(line.encode("utf-8")) < 200 for line in printed)


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
        cfg.write_text(settings)
        out = tmp_path / tag
        code, _, _ = run(capsys, "synth", "--out", str(out), "--config", str(cfg), *flags)
        assert code == 0
        outs[tag] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(outs["file"]) == 6
    assert outs["flag"] == outs["file"]


def test_config_keys_of_the_other_command_are_checked_and_ignored(tmp_path, demo_dir, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_papers = 7.5\n")
    out = tmp_path / "out"
    code, _, err = run(capsys, "profile", "--dataset", str(demo_dir), "--out", str(out), "--config", str(cfg))
    assert code == 1
    assert err.splitlines()[-1] == "error: config key 'n_papers' takes an integer, not '7.5'"
    cfg.write_text("n_papers = 30\nfraction=0.5\n")
    code, stdout, _ = run(capsys, "synth", "--out", str(tmp_path / "ds"), "--config", str(cfg))
    assert code == 0
    assert "30 papers" in stdout


@pytest.mark.parametrize(
    "name, corrupt, where",
    [
        ("papers.csv", lambda b: b.replace(b"Synthetic", b"Synth\xfftic", 1), "line 2: not valid UTF-8"),
        ("citations.csv", lambda b: b + b"p00001," + b"9" * 200_000 + b",1\n", "unreadable row"),
        ("contexts.jsonl", lambda b: b.replace(b"measurements", b"m\xe9asurements", 1), "line 1: not valid UTF-8"),
        ("contexts.jsonl", lambda b: b.replace(b'"year": 1989', b'"year": 1e400', 1), "line 1: year inf"),
        (
            "contexts.jsonl",
            lambda b: b.replace(b'"year": 1989', b'"year": 1' + b"0" * 5000, 1),
            "line 1: invalid JSON: number too long",
        ),
        (
            "contexts.jsonl",
            lambda b: b"[" * 200_000 + b"]" * 200_000 + b"\n" + b,
            "line 1: invalid JSON: maximum recursion depth exceeded",
        ),
        # A `where` that starts with "error: " is the whole final stderr line.
        # data/demo's papers.csv has 61 lines and patents.csv 97, so a repeated
        # first row is line 62 or 98.
        pytest.param(
            "papers.csv",
            lambda b: b + b.splitlines(keepends=True)[1],
            "error: line 62: duplicate id: 'p00000'",
            id="papers.csv-duplicate-id",
        ),
        # A 5,000-digit cell is echoed as its first 40 characters and its length.
        (
            "papers.csv",
            lambda b: b.replace(b",1977,", b"," + b"1" * 5000 + b",", 1),
            "error: line 2: pub_year '" + "1" * 40 + "'… (5000 characters) is not an integer",
        ),
        ("citations.csv", lambda b: b.replace(b",count", b",cnt", 1), "error: missing required column: 'count'"),
        # The row appended after data/demo's 1,025 lines is line 1026.
        pytest.param(
            "citations.csv",
            lambda b: b + b"p00000,2100,1\n",
            "error: line 1026: citation year 2100 for paper 'p00000' outside the observation window",
            id="citations.csv-year-outside-window",
        ),
        pytest.param(
            "patents.csv",
            lambda b: b + b.splitlines(keepends=True)[1],
            "error: line 98: duplicate id: 'f00000'",
            id="patents.csv-duplicate-id",
        ),
        # A 5,000-character id is echoed as its first 40 characters and its length.
        pytest.param(
            "citations.csv",
            lambda b: b + b"q" * 5000 + b",1990,1\n",
            "error: line 1026: citation row references unknown paper '" + "q" * 40 + "'… (5000 characters)",
            id="citations.csv-long-unknown-paper",
        ),
        pytest.param(
            "papers.csv",
            lambda b: b + (b"q" * 5000 + b",1990,,,,\n") * 2,
            "error: line 63: duplicate id: '" + "q" * 40 + "'… (5000 characters)",
            id="papers.csv-long-duplicate-id",
        ),
        # Python 3.10's csv module refuses a NUL byte and later versions read it;
        # every version refuses it here.
        (
            "papers.csv",
            lambda b: b.replace(b"Synthetic", b"Synth\x00etic", 1),
            "error: line 2: unreadable row: line contains NUL",
        ),
        # Past the first 64 KiB that the NUL scan reads: 1,025 lines, then blank ones.
        (
            "citations.csv",
            lambda b: b + b"\n" * 70_000 + b"p00000,\x001990,1\n",
            "error: line 71026: unreadable row: line contains NUL",
        ),
    ],
)
def test_undecodable_and_mistyped_input_exits_1(tmp_path, demo_dir, capsys, name, corrupt, where):
    ds_copy = tmp_path / "ds"
    shutil.copytree(demo_dir, ds_copy)
    path = ds_copy / name
    path.write_bytes(corrupt(path.read_bytes()))
    code, _, err = run(capsys, "validate", "--dataset", str(ds_copy))
    assert code == 1
    last = err.splitlines()[-1]
    assert len(last.encode("utf-8")) < 200
    if where.startswith("error: "):
        assert last == where
    else:
        assert err.startswith("error: ") and where in err


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


@pytest.mark.parametrize("form", INTEGER_FORMS.values(), ids=INTEGER_FORMS.keys())
@pytest.mark.parametrize(
    "name, column, cell, label", INTEGER_COLUMNS, ids=[f"{n}-{c}" for n, c, _, _ in INTEGER_COLUMNS]
)
def test_integer_cells_are_ascii_digits_only(tmp_path, demo_dir, capsys, name, column, cell, label, form):
    """Only '-?[0-9]+' is an integer cell; anything else on line 2 stops the load there."""
    ds_copy = tmp_path / "ds"
    shutil.copytree(demo_dir, ds_copy)
    path = ds_copy / name
    delimiter = "\t" if name.endswith(".tsv") else ","
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    rows[1][rows[0].index(column)] = cell.format(form)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter=delimiter, lineterminator="\n").writerows(rows)
    code, _, err = run(capsys, "validate", "--dataset", str(ds_copy))
    assert code == 1
    if column == "filing_years" and not form:
        # The empty cell lists no filing year; empty entries are skipped.
        assert err.splitlines()[-1] == "error: line 2: filing_years must be non-empty"
    else:
        assert err.splitlines()[-1] == f"error: line 2: {label} {form!r} is not an integer"


@pytest.mark.parametrize(
    "settings, line",
    [
        ("pub_from = 1800\npub_to = 1801\n", "error: no paper satisfies the eligibility filter"),
        ("fraction = 0.9\n", "error: cohort fraction 0.9 outside (0, 0.5]"),
    ],
)
def test_unusable_cohort_config_exits_1(tmp_path, demo_dir, capsys, settings, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(settings)
    code, _, err = run(
        capsys,
        "cohort",
        "--dataset", str(demo_dir),
        "--out", str(tmp_path / "out"),
        "--config", str(cfg),
    )
    assert code == 1
    assert err.splitlines()[-1] == line


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


def test_missing_required_flag_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "profile", "--out", str(tmp_path / "out"))
    assert code == 1
    assert "--dataset" in err


def test_unknown_config_key_exits_1(tmp_path, demo_dir, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("fractoin=0.1\n")
    code, _, err = run(
        capsys,
        "profile",
        "--dataset", str(demo_dir),
        "--out", str(tmp_path / "out"),
        "--config", str(cfg),
    )
    assert code == 1
    assert "fractoin" in err


def test_config_file_not_utf8_exits_1(tmp_path, demo_dir, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"fraction = 0.5\n# r\xe9sum\xe9\n")
    code, _, err = run(
        capsys, "profile", "--dataset", str(demo_dir), "--out", str(tmp_path / "out"), "--config", str(cfg)
    )
    assert code == 1
    assert err.splitlines() == [f"error: {cfg}: not valid UTF-8: invalid continuation byte"]


def test_config_parsing_units():
    assert cli._coerce("pub_from", "1980") == 1980
    assert cli._coerce("fraction", "0.25") == 0.25
    assert cli._coerce("terms", "refute, challenge") == ("refute", "challenge")
    with pytest.raises(ConfigError):
        cli._coerce("fraction", "lots")
    with pytest.raises(ConfigError):
        cli.RunConfig(pub_from=2010, pub_to=2000)
    with pytest.raises(ConfigError):
        cli.RunConfig(aagr_method="sideways")
    with pytest.raises(ConfigError):
        cli.RunConfig(terms=())


def test_load_config_coerces_synth_keys(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n_papers = 75\nlink_density = 0.3\n")
    spec = cli.load_config(synth.SynthSpec, cfg)
    assert (spec.n_papers, spec.link_density, spec.seed) == (75, 0.3, 0)
    assert type(spec.n_papers) is int and type(spec.link_density) is float
    cfg.write_text("n_papers = 7.5\n")
    with pytest.raises(ConfigError, match="config key 'n_papers' takes an integer, not '7.5'"):
        cli.load_config(synth.SynthSpec, cfg)
    cfg.write_text("link_density = dense\n")
    with pytest.raises(ConfigError, match="config key 'link_density' has non-numeric value 'dense'"):
        cli.load_config(synth.SynthSpec, cfg)


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n# comment line\npub_from = 1975\nfraction=0.02\nterms = refute, challenge\n"
    )
    config = cli.load_config(cli.RunConfig, cfg)
    assert config.pub_from == 1975
    assert config.fraction == 0.02
    assert config.terms == ("refute", "challenge")
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        cli.load_config(cli.RunConfig, bad)


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
            [sys.executable, "-m", "slumber.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )

    done = entry("validate", "--dataset", str(demo_dir))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith("0 errors,")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fraction=0.9\n")
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
    cfg.write_text("n_papers=2000\n")
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
