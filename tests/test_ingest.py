"""Parsers, writers, the citation reader, validation, and context flagging."""

from __future__ import annotations

import csv
import dataclasses
import re
import shutil
from datetime import date
from functools import partial

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import reference
from slumber import ingest, tables
from slumber.errors import DataError
from slumber.model import (
    CitationContextRecord,
    CitationSeries,
    ConcordanceEntry,
    Dataset,
    FieldOfStudy,
    PaperRecord,
    PatentCitationLink,
    PatentFamilyRecord,
)
from slumber.tables import read_rows


def tiny_dataset(**over) -> Dataset:
    paper = PaperRecord(
        paper_id="p1",
        pub_year=2000,
        fields_of_study=(FieldOfStudy("biology", 0),),
    )
    base = dict(
        papers={"p1": paper},
        series={"p1": reference.series_from_counts("p1", 2000, (1, 2, 3))},
        patents={"f1": PatentFamilyRecord("f1", 2005, (2005,), 3, ("A61B5/00",))},
        links=(PatentCitationLink("p1", "f1"),),
        concordance=(ConcordanceEntry("A61B", 13, "Medical technology", "Instruments"),),
        window_end=2002,
        contexts=None,
    )
    base.update(over)
    return Dataset(**base)


def test_paper_round_trip(tmp_path):
    papers = {
        "a1": PaperRecord(
            paper_id="a1",
            pub_year=1984,
            title="Sleeping sensors",
            doi="10.1/xyz",
            pmid="123",
            fields_of_study=(FieldOfStudy("biology", 0), FieldOfStudy("genomics", 2)),
        ),
        "a2": PaperRecord(paper_id="a2", pub_year=2001),
    }
    path = tmp_path / "papers.csv"
    ingest.write_papers(papers.values(), path)
    assert ingest.parse_papers(path) == papers


def test_fields_pack_round_trip():
    fields = (FieldOfStudy("materials science", 0), FieldOfStudy("odd@name", 2))
    packed = ingest.format_fields_of_study(fields)
    assert ingest.parse_fields_of_study(packed) == fields
    assert ingest.parse_fields_of_study("") == ()
    with pytest.raises(ValueError):
        ingest.parse_fields_of_study("no-level-marker")


def test_field_level_out_of_range(tmp_path):
    path = tmp_path / "papers.csv"
    path.write_text(
        "paper_id,pub_year,title,doi,pmid,fields_of_study\np1,2000,,,,biology@7\n"
    )
    with pytest.raises(DataError, match="^papers.csv line 2: field of study level 7 outside 0..5$"):
        ingest.parse_papers(path)


def test_papers_share_equal_fields_of_study_cells(tmp_path):
    path = tmp_path / "papers.csv"
    path.write_text(
        "paper_id,pub_year,title,doi,pmid,fields_of_study\n"
        "p1,2000,,,,biology@0;genomics@2\n"
        "p2,2001,,,,physics@0\n"
        "p3,2002,,,,biology@0;genomics@2\n"
    )
    papers = ingest.parse_papers(path)
    assert papers["p1"].fields_of_study == (FieldOfStudy("biology", 0), FieldOfStudy("genomics", 2))
    assert papers["p3"].fields_of_study is papers["p1"].fields_of_study
    assert papers["p2"].fields_of_study == (FieldOfStudy("physics", 0),)


def test_bad_fields_of_study_cell_names_its_line(tmp_path):
    path = tmp_path / "papers.csv"
    path.write_text(
        "paper_id,pub_year,title,doi,pmid,fields_of_study\n"
        "p1,2000,,,,biology@0\n"
        "p2,2001,,,,biology@0\n"
        "p3,2002,,,,biology@9\n"
    )
    with pytest.raises(DataError, match="^papers.csv line 4: field of study level 9"):
        ingest.parse_papers(path)


def test_non_integer_field_level_is_named_in_own_words(tmp_path):
    # A NUL after the level digit; Python's int() text would be passed through.
    with pytest.raises(ValueError) as exc:
        ingest.parse_fields_of_study("biology@0\x00")
    assert str(exc.value) == "field of study level '0\\x00' is not an integer"
    path = tmp_path / "papers.csv"
    path.write_text(
        "paper_id,pub_year,title,doi,pmid,fields_of_study\n"
        "p1,2000,,,,biology@0;physics@zero\n"
    )
    with pytest.raises(DataError) as exc:
        ingest.parse_papers(path)
    assert str(exc.value) == "papers.csv line 2: field of study level 'zero' is not an integer"


def test_missing_column(tmp_path):
    path = tmp_path / "papers.csv"
    path.write_text("paper_id,pub_year\np1,2000\n")
    with pytest.raises(DataError, match="^papers.csv: missing required column: 'title'$"):
        ingest.parse_papers(path)


def test_repeated_header_column(tmp_path):
    path = tmp_path / "links.csv"
    path.write_text("paper_id,family_id,paper_id\np1,f1,p2\n")
    with pytest.raises(DataError, match="^links.csv line 1: header names column 'paper_id' twice$"):
        ingest.parse_links(path)


def test_short_row(tmp_path):
    path = write_citation_text(tmp_path, "paper_id,year,count\np1,1999\n")
    with pytest.raises(DataError, match="^citations.csv line 2: row has fewer cells than the header$"):
        ingest.read_citations(path, PAPERS_1990, 2015)


def test_long_row_from_unquoted_comma_in_title(tmp_path):
    path = tmp_path / "papers.csv"
    path.write_text(
        "paper_id,pub_year,title,doi,pmid,fields_of_study\n"
        "p1,2000,Plain title,,,\n"
        "p2,2001,Sleeping beauties, revisited,,,\n"
    )
    with pytest.raises(DataError, match="^papers.csv line 3: row has more cells than the header$"):
        ingest.parse_papers(path)


def test_non_integer_cell(tmp_path):
    path = write_citation_text(tmp_path, "paper_id,year,count\np1,1999,2\np1,2000,many\n")
    with pytest.raises(DataError, match="^citations.csv line 3: count 'many' is not an integer$"):
        ingest.read_citations(path, PAPERS_1990, 2015)


# Texts near and far from the accepted ASCII '-?[0-9]+': any text, signs,
# '_', spaces and non-ASCII digits among ASCII ones, other scripts' digits,
# and digit runs around the int-string limit of 4,300 digits.
INT_CELL_TEXTS = st.one_of(
    st.text(max_size=8),
    st.text(st.sampled_from("0123456789-+_ \t\x00١٩߁０"), max_size=8),
    st.integers().map(str),
    st.text(st.characters(categories=("Nd",)), min_size=1, max_size=5),
    st.builds(
        lambda sign, digit, n: sign + digit * n,
        st.sampled_from(("", "-", "+")),
        st.sampled_from("19١"),
        st.integers(min_value=4290, max_value=5010),
    ),
)


@given(st.lists(INT_CELL_TEXTS, min_size=1, max_size=6))
@example(["1_990", " 1990", "1990 ", "+5", "١٩٩٠", "1e3", "0x7C6", ""])
@example(["-0", "007", "-12", "1" * 4300, "1" * 4301, "1990\x00"])
def test_int_cells_match_the_reference_parser(texts):
    """Accepted and rejected alike; a repeated text gives the identical int."""
    cells = tables._CellMemo(partial(tables.strict_int, "year"))
    first: dict[str, int] = {}
    for text in texts + texts:
        try:
            want = reference.int_cell(text, "year")
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                cells[text]
            assert str(got.value) == str(exc)
            continue
        got = cells[text]
        assert type(got) is int and got == want
        assert first.setdefault(text, got) is got


def test_cell_memo_stops_keeping_at_its_cap():
    """Past the cap, a new text is parsed on each lookup, with the same values and errors."""
    texts = [str(i) for i in range(tables._MEMO_CAP + 500)]
    texts[10::97] = [f"{i}x" for i in range(len(texts[10::97]))]  # rejected, never kept
    cells = tables._CellMemo(partial(tables.strict_int, "count"))
    for text in texts + texts[::-1]:
        try:
            want = reference.int_cell(text, "count")
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                cells[text]
            assert str(got.value) == str(exc)
            continue
        assert cells[text] == want
    assert len(cells) == tables._MEMO_CAP
    kept = [t for t in texts if not t.endswith("x")][: tables._MEMO_CAP]
    assert list(cells) == kept


def test_duplicate_paper_id(tmp_path):
    path = tmp_path / "papers.csv"
    path.write_text(
        "paper_id,pub_year,title,doi,pmid,fields_of_study\np1,2000,,,,\np1,2001,,,,\n"
    )
    with pytest.raises(DataError, match="^papers.csv line 3: duplicate id: 'p1'$"):
        ingest.parse_papers(path)


def test_citations_written_sparse(tmp_path):
    series = [reference.series_from_counts("p1", 2000, (0, 3, 0, 2))]
    path = tmp_path / "citations.csv"
    ingest.write_citations(series, path)
    lines = path.read_text().splitlines()
    assert lines == ["paper_id,year,count", "p1,2001,3", "p1,2003,2"]
    papers = {"p1": PaperRecord(paper_id="p1", pub_year=2000)}
    rebuilt = ingest.read_citations(path, papers, 2003)
    assert rebuilt["p1"] == series[0]


PAPERS_1990 = {"p1": PaperRecord(paper_id="p1", pub_year=1990)}


def write_citation_text(tmp_path, text: str):
    path = tmp_path / "citations.csv"
    path.write_text(text)
    return path


@st.composite
def citation_files(draw, duplicate: bool = False):
    """Random series, plus the text of a citations.csv that holds them.

    The file's rows come in random order or sorted, under a random column
    order, with some zero-count years written out explicitly. With
    `duplicate`, one row's (paper, year) is written again, with count 0 or
    its own count; the file is then malformed and `series` does not describe
    it. A sorted file holds the repeat out of order, at its end.
    """
    window_end = draw(st.integers(min_value=1990, max_value=2015))
    pub_years = draw(st.lists(st.integers(min_value=1980, max_value=window_end + 3), max_size=6))
    papers, series, rows = {}, {}, []
    for i, pub_year in enumerate(pub_years):
        pid = f"p{i}"
        papers[pid] = PaperRecord(paper_id=pid, pub_year=pub_year)
        if pub_year <= window_end:
            n = window_end - pub_year + 1
            counts = draw(st.lists(st.sampled_from((0, 0, 1, 7, 250)), min_size=n, max_size=n))
            series[pid] = reference.series_from_counts(pid, pub_year, counts)
            rows += [
                (pid, pub_year + t, count)
                for t, count in enumerate(counts)
                if count or draw(st.booleans())
            ]
    if duplicate and rows:
        pid, year, count = draw(st.sampled_from(rows))
        rows.append((pid, year, draw(st.sampled_from((0, count)))))
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    columns = draw(st.permutations(("paper_id", "year", "count")))
    order = [("paper_id", "year", "count").index(c) for c in columns]
    lines = [",".join(columns)] + [",".join(str(row[i]) for i in order) for row in rows]
    return papers, series, window_end, "\n".join(lines) + "\n"


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(citation_files())
def test_read_citations_round_trip(tmp_path, case):
    papers, series, window_end, text = case
    written = tmp_path / "written.csv"
    ingest.write_citations(series.values(), written)
    assert ingest.read_citations(written, papers, window_end) == series
    assert ingest.read_citations(write_citation_text(tmp_path, text), papers, window_end) == series


def read_or_error(read, path, papers, window_end):
    try:
        return read(path, papers, window_end)
    except DataError as exc:
        return str(exc)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(citation_files(), citation_files(duplicate=True)))
@example(
    (
        {"p0": PaperRecord(paper_id="p0", pub_year=2000)},
        {},
        2005,
        "paper_id,year,count\np0,2001,0\np0,2003,4\np0,2002,1\np0,2001,0\n",
    )
)
@example(
    (
        {"p0": PaperRecord(paper_id="p0", pub_year=2000)},
        {},
        2005,
        "paper_id,year,count\np0,2001,1\np0,2002,1\np0,2001,1\np0,2003,x\n",
    )
)
def test_read_citations_matches_dense_reference(tmp_path, case):
    """The sparse reader gives the dense reference's series, or its error message."""
    papers, _, window_end, text = case
    path = write_citation_text(tmp_path, text)
    got = read_or_error(ingest.read_citations, path, papers, window_end)
    assert got == read_or_error(reference.read_citations_dense, path, papers, window_end)


def test_read_citations_zero_fills_to_window_end(tmp_path):
    papers = {"p1": PaperRecord(paper_id="p1", pub_year=1970)}
    path = write_citation_text(tmp_path, "paper_id,year,count\np1,1971,3\n")
    series = ingest.read_citations(path, papers, 2015)
    assert series["p1"].t_m == 45
    counts = reference.dense_counts(series["p1"])
    assert len(counts) == 46
    assert counts[:3] == (0, 3, 0)
    assert sum(counts) == 3


def test_read_citations_keeps_only_cited_years(tmp_path):
    # A 200-year window with two cited years keeps two entries.
    papers = {"p1": PaperRecord(paper_id="p1", pub_year=1815)}
    path = write_citation_text(tmp_path, "paper_id,year,count\np1,2010,5\np1,1820,2\n")
    s = ingest.read_citations(path, papers, 2014)["p1"]
    assert (s.t_m, s.offsets, s.values) == (199, (5, 195), (2, 5))


def test_read_citations_rejects_out_of_window_rows(tmp_path):
    papers = {"p1": PaperRecord(paper_id="p1", pub_year=1970)}
    for year in (1969, 2016):
        path = write_citation_text(tmp_path, f"paper_id,year,count\np1,1980,1\np1,{year},1\n")
        with pytest.raises(
            DataError,
            match=f"^citations.csv line 3: citation year {year} for paper 'p1' outside the observation window$",
        ):
            ingest.read_citations(path, papers, 2015)


def test_read_citations_skips_papers_past_window_end(tmp_path):
    papers = {
        "old": PaperRecord(paper_id="old", pub_year=1990),
        "new": PaperRecord(paper_id="new", pub_year=2020),
    }
    path = write_citation_text(tmp_path, "paper_id,year,count\n")
    series = ingest.read_citations(path, papers, 2015)
    assert "old" in series and "new" not in series
    # A row for the paper with no window lies outside it.
    path = write_citation_text(tmp_path, "paper_id,year,count\nnew,2020,4\n")
    with pytest.raises(
        DataError, match="^citations.csv line 2: citation year 2020 for paper 'new' outside the observation window$"
    ):
        ingest.read_citations(path, papers, 2015)


def test_read_citations_missing_column(tmp_path):
    path = write_citation_text(tmp_path, "paper_id,year,cites\np1,1999,2\n")
    with pytest.raises(DataError, match="^citations.csv: missing required column: 'count'$"):
        ingest.read_citations(path, PAPERS_1990, 2015)


def test_read_citations_long_row_and_blank_lines(tmp_path):
    path = write_citation_text(tmp_path, "paper_id,year,count\n\np1,1999,2\n\np1,2000,1\n")
    assert reference.dense_counts(ingest.read_citations(path, PAPERS_1990, 2000)["p1"])[-3:] == (0, 2, 1)
    path = write_citation_text(tmp_path, "paper_id,year,count\n\np1,1999,2,5\n")
    with pytest.raises(DataError, match="^citations.csv line 3: row has more cells than the header$"):
        ingest.read_citations(path, PAPERS_1990, 2015)


def test_read_citations_non_integer_year(tmp_path):
    path = write_citation_text(tmp_path, "paper_id,year,count\np1,1999,2\n\np1,2k,x\n")
    with pytest.raises(DataError, match="^citations.csv line 4: year '2k' is not an integer$"):
        ingest.read_citations(path, PAPERS_1990, 2015)


def test_read_citations_negative_count(tmp_path):
    path = write_citation_text(tmp_path, "paper_id,year,count\np1,1999,2\np1,2000,-1\n")
    with pytest.raises(DataError, match="^citations.csv line 3: citation count -1 must be non-negative$"):
        ingest.read_citations(path, PAPERS_1990, 2015)


def test_read_citations_unknown_paper(tmp_path):
    path = write_citation_text(tmp_path, "paper_id,year,count\np2,1999,2\n")
    message = "^citations.csv line 2: citation row references unknown paper 'p2'$"
    with pytest.raises(DataError, match=message):
        ingest.read_citations(path, PAPERS_1990, 2015)


@pytest.mark.parametrize("second", [2, 0])
def test_read_citations_duplicate_row(tmp_path, second):
    path = write_citation_text(tmp_path, f"paper_id,year,count\np1,1999,0\np1,1999,{second}\n")
    message = "^citations.csv line 3: duplicate citation row for paper 'p1', year 1999$"
    with pytest.raises(DataError, match=message):
        ingest.read_citations(path, PAPERS_1990, 2015)


@pytest.mark.parametrize(
    "rows, line_no",
    [
        pytest.param("p1,1999,1\np1,2000,1\np1,1999,1\n", 4, id="repeat-last"),
        # The earlier of the pair is line 3.
        pytest.param("p1,2001,1\np1,1999,0\np1,2000,1\np1,1999,0\np1,2002,1\n", 5, id="zero-rows"),
        pytest.param("p1,1999,1\np2,1999,1\np1,2000,1\np1,1999,3\np2,2000,1\n", 5, id="other-paper"),
    ],
)
def test_read_citations_non_adjacent_duplicate_names_the_second_row(tmp_path, rows, line_no):
    path = write_citation_text(tmp_path, "paper_id,year,count\n" + rows)
    papers = {**PAPERS_1990, "p2": PaperRecord(paper_id="p2", pub_year=1990)}
    message = f"^citations.csv line {line_no}: duplicate citation row for paper 'p1', year 1999$"
    with pytest.raises(DataError, match=message):
        ingest.read_citations(path, papers, 2015)


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param("p1,1999,1\np1,2001,0\np1,2000,2\n", id="out-of-order"),
        pytest.param("p1,1999,1\np1,2000,1\np1,1999,1\n", id="non-adjacent-repeat"),
    ],
)
def test_read_citations_reads_the_file_once(tmp_path, monkeypatch, rows):
    calls = []

    def counted_read_rows(*args, **kwargs):
        calls.append(args)
        return read_rows(*args, **kwargs)

    monkeypatch.setattr(ingest, "read_rows", counted_read_rows)
    path = write_citation_text(tmp_path, "paper_id,year,count\n" + rows)
    read_or_error(ingest.read_citations, path, PAPERS_1990, 2015)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "name",
    [
        ingest.PAPERS_FILE,
        ingest.CITATIONS_FILE,
        ingest.PATENTS_FILE,
        ingest.LINKS_FILE,
        ingest.CONCORDANCE_FILE,
    ],
)
def test_tables_read_by_header_name(tmp_path, demo_dir, name):
    """Columns in reverse order, with an extra column among them, load the same."""
    delimiter = ingest.CONCORDANCE_DELIMITER if name == ingest.CONCORDANCE_FILE else ","
    with open(demo_dir / name, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    shuffled = tmp_path / "ds"
    shutil.copytree(demo_dir, shuffled)
    with open(shuffled / name, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        for i, row in enumerate(rows):
            row = row[::-1]
            out.writerow([*row[:1], "note" if i == 0 else f"extra {i}", *row[1:]])
    assert (shuffled / name).read_bytes() != (demo_dir / name).read_bytes()
    assert ingest.load_dataset(shuffled, 2015) == ingest.load_dataset(demo_dir, 2015)


def test_patents_round_trip(tmp_path):
    patents = {
        "f1": PatentFamilyRecord("f1", 1999, (1999, 2003), 12, ("A61B5/00", "G06F17/00")),
        "f2": PatentFamilyRecord("f2", 2004, (2004,), 0, ()),
    }
    path = tmp_path / "patents.csv"
    ingest.write_patents(patents.values(), path)
    assert ingest.parse_patents(path) == patents


def test_patent_bad_rows(tmp_path):
    path = tmp_path / "patents.csv"
    header = "family_id,earliest_priority_year,filing_years,forward_citation_count,ipc_codes\n"
    path.write_text(header + "f1,1999,,3,A61B\n")
    with pytest.raises(DataError, match="^patents.csv line 2: filing_years must be non-empty$"):
        ingest.parse_patents(path)
    path.write_text(header + "f1,1999,1999,-3,A61B\n")
    with pytest.raises(DataError, match="^patents.csv line 2: forward_citation_count must be non-negative$"):
        ingest.parse_patents(path)
    path.write_text(header + "f1,1999,1999,3,A61B\nf1,2000,2000,1,\n")
    with pytest.raises(DataError, match="^patents.csv line 3: duplicate id: 'f1'$"):
        ingest.parse_patents(path)


def test_links_round_trip_and_validation(tmp_path):
    links = (PatentCitationLink("p2", "f9"), PatentCitationLink("p1", "f3"))
    path = tmp_path / "links.csv"
    ingest.write_links(links, path)
    assert set(ingest.parse_links(path)) == set(links)
    path.write_text("paper_id,family_id\np1,\n")
    with pytest.raises(DataError, match="^links.csv line 2: link row has an empty id$"):
        ingest.parse_links(path)


def test_concordance_round_trip(tmp_path):
    entries = (
        ConcordanceEntry("A61B", 13, "Medical technology", "Instruments"),
        ConcordanceEntry("G01N 33", 11, "Analysis of biological materials", "Instruments"),
    )
    path = tmp_path / "concordance.tsv"
    ingest.write_concordance(entries, path)
    assert set(ingest.parse_concordance(path)) == set(entries)


def test_concordance_field_id_range(tmp_path):
    path = tmp_path / "concordance.tsv"
    header = "ipc_prefix\twipo_field_id\twipo_field_name\tsector\n"
    for bad in ("36", "0"):
        path.write_text(header + f"A61B\t{bad}\tX\tY\n")
        with pytest.raises(DataError, match=f"^concordance.tsv line 2: wipo_field_id {bad} outside 1..35$"):
            ingest.parse_concordance(path)


def test_contexts_round_trip(tmp_path):
    contexts = (
        CitationContextRecord("c1", "p1", 2003, "Results disagree with Møller et al."),
        CitationContextRecord("c2", "p1", 2004, "We build on this assay."),
    )
    path = tmp_path / "contexts.jsonl"
    ingest.write_contexts(contexts, path)
    assert set(ingest.parse_contexts(path)) == set(contexts)


def test_contexts_malformed_lines(tmp_path):
    path = tmp_path / "contexts.jsonl"
    path.write_text('{"citing_id": "c1", "cited_paper_id": "p1", "year": 2003}\n')
    with pytest.raises(DataError, match="^contexts.jsonl line 1: missing key 'sentence'$"):
        ingest.parse_contexts(path)
    path.write_text("not json\n")
    with pytest.raises(DataError, match="^contexts.jsonl line 1: invalid JSON: Expecting value$"):
        ingest.parse_contexts(path)
    path.write_text('["a", "list"]\n')
    with pytest.raises(DataError, match="^contexts.jsonl line 1: line is not a JSON object$"):
        ingest.parse_contexts(path)


def test_contexts_blank_lines_are_skipped(tmp_path, demo_dir):
    lines = (demo_dir / "contexts.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / "contexts.jsonl"
    path.write_text("\n" + "".join(line + " \t\n" for line in lines), encoding="utf-8")
    assert ingest.parse_contexts(path) == ingest.parse_contexts(demo_dir / "contexts.jsonl")


GOOD_CONTEXT = '{"citing_id": "c1", "cited_paper_id": "p1", "year": 2003, "sentence": "s"}\n'


@pytest.mark.parametrize("year", ["1.7", "true", '"2003"', "1e400", "null"])
def test_contexts_year_must_be_a_json_integer(tmp_path, year):
    path = tmp_path / "contexts.jsonl"
    path.write_text(GOOD_CONTEXT + GOOD_CONTEXT.replace("2003", year))
    with pytest.raises(DataError, match="^contexts.jsonl line 2: year .* is not a JSON integer$"):
        ingest.parse_contexts(path)


@pytest.mark.parametrize(
    "line,key",
    [
        # Every key but year is wrong; the first in record order is named.
        ('{"citing_id": null, "cited_paper_id": 17, "year": 2003, "sentence": ["a", "b"]}', "citing_id"),
        ('{"citing_id": true, "cited_paper_id": "p1", "year": 2003, "sentence": "s"}', "citing_id"),
        ('{"citing_id": "c1", "cited_paper_id": 17, "year": 2003, "sentence": "s"}', "cited_paper_id"),
        ('{"citing_id": "c1", "cited_paper_id": 1.5, "year": 2003, "sentence": "s"}', "cited_paper_id"),
        ('{"citing_id": "c1", "cited_paper_id": "p1", "year": 2003, "sentence": ["a", "b"]}', "sentence"),
        ('{"citing_id": "c1", "cited_paper_id": "p1", "year": 2003, "sentence": {"a": 1}}', "sentence"),
    ],
)
def test_contexts_ids_and_sentence_must_be_json_strings(tmp_path, line, key):
    path = tmp_path / "contexts.jsonl"
    path.write_text(GOOD_CONTEXT + line + "\n")
    with pytest.raises(DataError, match=f"^contexts.jsonl line 2: {key} .* is not a JSON string$"):
        ingest.parse_contexts(path)


def test_long_rejected_values_are_cut_short(tmp_path):
    path = tmp_path / "papers.csv"
    path.write_text("paper_id,pub_year,title,doi,pmid,fields_of_study\np1,2000,,,,biology@" + "1" * 4999 + "x\n")
    with pytest.raises(DataError) as exc:
        ingest.parse_papers(path)
    assert str(exc.value) == f"papers.csv line 2: field of study level '{'1' * 40}'… (5000 characters) is not an integer"
    path = tmp_path / "contexts.jsonl"
    path.write_text(GOOD_CONTEXT + GOOD_CONTEXT.replace('"s"', "[" + ", ".join(["1"] * 2000) + "]"))
    with pytest.raises(DataError) as exc:
        ingest.parse_contexts(path)
    assert str(exc.value) == f"contexts.jsonl line 2: sentence [{'1, ' * 13}… (6000 characters) is not a JSON string"


def test_undecodable_bytes_name_their_line(tmp_path):
    # The bad byte sits far past the first block the text layer decodes.
    rows = "".join(f"p1,{1990 + i % 26},1\n" for i in range(3000))
    path = tmp_path / "citations.csv"
    path.write_bytes(b"paper_id,year,count\n" + rows.encode() + b"p1,1999,\xff\n")
    with pytest.raises(DataError, match="^citations.csv line 3002: not valid UTF-8"):
        with read_rows(path, ingest.CITATION_COLUMNS) as rows:
            list(rows)
    path = tmp_path / "contexts.jsonl"
    path.write_bytes(b'{"year": 1}\n{"sentence": "caf\xe9"}\n')
    with pytest.raises(DataError, match="^contexts.jsonl line 2: not valid UTF-8"):
        ingest.parse_contexts(path)


def test_oversized_cell_names_its_line(tmp_path):
    path = write_citation_text(tmp_path, "paper_id,year,count\np1,1999,2\np1,2000," + "1" * 200_000 + "\n")
    with pytest.raises(DataError, match="^citations.csv line 3: unreadable row: field larger than field limit"):
        ingest.read_citations(path, PAPERS_1990, 2015)


@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        ("citations.csv", lambda t: t + "p00000,abc,1\n", "citations.csv line 1026: year 'abc' is not an integer"),
        ("papers.csv", lambda t: t.replace("title", "name", 1), "papers.csv: missing required column: 'title'"),
        (
            "patents.csv",
            lambda t: t + "f\0,1990,1990,0,\n",
            "patents.csv line 98: unreadable row: line contains NUL",
        ),
        ("links.csv", lambda t: t + "p00000,\n", "links.csv line 98: link row has an empty id"),
        ("concordance.tsv", lambda t: t + "A99\t36\tx\ty\n", "concordance.tsv line 12: wipo_field_id 36 outside 1..35"),
        ("contexts.jsonl", lambda t: t + "[]\n", "contexts.jsonl line 17: line is not a JSON object"),
    ],
)
def test_load_dataset_names_the_file(tmp_path, demo_dir, name, corrupt, message):
    ds_copy = tmp_path / "ds"
    shutil.copytree(demo_dir, ds_copy)
    path = ds_copy / name
    path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(DataError) as exc:
        ingest.load_dataset(ds_copy, 2015)
    assert str(exc.value) == message


def test_dataset_write_load_round_trip(tmp_path, table1):
    out = tmp_path / "ds"
    ingest.write_dataset(table1, out)
    reloaded = ingest.load_dataset(out, table1.window_end)
    assert reloaded.papers == table1.papers
    assert reloaded.series == table1.series
    assert reloaded.patents == table1.patents
    assert set(reloaded.links) == set(table1.links)
    assert set(reloaded.concordance) == set(table1.concordance)
    assert set(reloaded.contexts) == set(table1.contexts)


# Any text UTF-8 can encode, a carriage return and NUL included.
CELL_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
NONEMPTY_TEXT = CELL_TEXT.filter(bool)
# The ValueErrors of the records whose values the files cannot carry back:
# a ';' that a packed cell would split at; a carriage return or NUL, which no
# CSV cell carries alike on every Python version; an empty text that reads
# back as None; and a context value of another type than its JSON one.
UNWRITABLE = {
    "field of study name must not contain ';'",
    "each IPC code must be non-empty and must not contain ';'",
    "field of study name must not contain a carriage return or NUL",
    "paper_id, title, doi and pmid must not contain a carriage return or NUL",
    "family_id and IPC codes must not contain a carriage return or NUL",
    "link ids must not contain a carriage return or NUL",
    "ipc_prefix, wipo_field_name and sector must not contain a carriage return or NUL",
    "title, doi and pmid must be None or non-empty",
    "sentence must be non-empty",
}
# The type messages, and the blank-prefix one, echo the value.
MISTYPED = re.compile(
    r"(citing_id|cited_paper_id|sentence) .+ is not a JSON string|year .+ is not a JSON integer"
    r"|(field of study level|pub_year|base_year|offsets|values|earliest_priority_year|filing_years"
    r"|forward_citation_count|wipo_field_id) .+ is not an integer|ipc_prefix .+ is blank"
)


@st.composite
def dataset_values(draw):
    """The values of every record of a dataset, as plain tuples, for records_of.

    In half the datasets an integer field may draw a float or a bool instead,
    which the records refuse: written as '1990.0' or 'True', it would be
    refused at load.
    """
    window_end = 2015
    loose = draw(st.booleans())

    def whole(ints):
        return ints | ints.map(float) | st.booleans() if loose else ints

    fields = st.lists(st.tuples(NONEMPTY_TEXT, whole(st.integers(0, 5))), max_size=3)
    optional = st.none() | CELL_TEXT
    papers = draw(
        st.dictionaries(
            NONEMPTY_TEXT,
            st.tuples(whole(st.integers(1800, window_end + 2)), optional, optional, optional, fields),
            max_size=4,
        )
    )
    series = {}
    for pid, (pub_year, *_) in papers.items():
        if pub_year <= window_end:
            t_m = window_end - int(pub_year)
            offsets = sorted(draw(st.sets(whole(st.integers(0, t_m)), max_size=4)))
            values = [draw(whole(st.integers(1, 10**6))) for _ in offsets]
            series[pid] = (pub_year, t_m, tuple(offsets), tuple(values))
    ints = whole(st.integers(-(10**6), 10**6))
    filings, codes = st.lists(ints, min_size=1, max_size=3), st.lists(NONEMPTY_TEXT, max_size=3)
    patents = draw(
        st.dictionaries(NONEMPTY_TEXT, st.tuples(ints, filings, whole(st.integers(0, 10**6)), codes), max_size=4)
    )
    links = draw(st.lists(st.tuples(NONEMPTY_TEXT, NONEMPTY_TEXT), max_size=4))
    entry = st.tuples(NONEMPTY_TEXT, whole(st.integers(1, 35)), CELL_TEXT, CELL_TEXT)
    concordance = draw(st.lists(entry, max_size=4))
    # Half the contexts have their JSON types; the other half draw any type.
    json_value = CELL_TEXT | ints | st.booleans() | st.none()
    context = st.tuples(CELL_TEXT, CELL_TEXT, ints, NONEMPTY_TEXT) | st.tuples(*[json_value] * 4)
    contexts = draw(st.none() | st.lists(context, max_size=3))
    return window_end, papers, series, patents, links, concordance, contexts


def records_of(values) -> Dataset:
    window_end, papers, series, patents, links, concordance, contexts = values
    return Dataset(
        papers={
            pid: PaperRecord(pid, year, title, doi, pmid, tuple(FieldOfStudy(*f) for f in fields))
            for pid, (year, title, doi, pmid, fields) in papers.items()
        },
        series={pid: CitationSeries(pid, *args) for pid, args in series.items()},
        patents={
            fid: PatentFamilyRecord(fid, priority, tuple(filings), forward, tuple(codes))
            for fid, (priority, filings, forward, codes) in patents.items()
        },
        links=tuple(PatentCitationLink(*link) for link in links),
        concordance=tuple(ConcordanceEntry(*entry) for entry in concordance),
        window_end=window_end,
        contexts=None if contexts is None else tuple(CitationContextRecord(*c) for c in contexts),
    )


@given(dataset_values())
@example((2015, {}, {}, {"f1": (2000, [2000], 0, ["A61K;31/00"])}, [], [], None))
@example((2015, {"p1": (2000, None, None, None, [("arts; humanities", 0)])}, {}, {}, [], [], None))
@example((2015, {}, {}, {}, [("0", "0\r")], [], None))
@example((2015, {"p1": (2000, "\x00", None, None, [])}, {}, {}, [], [], None))
@example((2015, {}, {}, {}, [], [], [("c\r", "p\x00", 2000, "s\r\n\x00")]))
@example((2015, {}, {}, {}, [], [], [("c", "p", "2003", "s")]))
@example((2015, {}, {}, {}, [], [], [("c", "p", True, "s")]))
@example((2015, {}, {}, {}, [], [], [(None, "p", 2003, "s")]))
@example((2015, {"p1": (2000, "", None, None, [])}, {}, {}, [], [], None))
@example((2015, {"p1": (1990.0, None, None, None, [])}, {}, {}, [], [], None))
@example((2015, {}, {}, {"f": (1990.5, [1991.0], True, [])}, [], [], None))
@example((2015, {}, {"p1": (2000, 15, (1, 2), (3, True))}, {}, [], [], None))
@example((2015, {}, {}, {}, [], [(" \t", 35, "Catch-all", "Other fields")], None))
def test_write_dataset_then_load_dataset_returns_equal_records(tmp_path_factory, values):
    """What write_dataset writes, load_dataset reads back as equal records.

    A record holding a value the format cannot carry is refused when it is
    built: it would otherwise be written, then read back split or refused.
    """
    try:
        dataset = records_of(values)
    except ValueError as exc:
        assert str(exc) in UNWRITABLE or MISTYPED.fullmatch(str(exc))
        return
    out = tmp_path_factory.mktemp("ds")
    ingest.write_dataset(dataset, out)
    reloaded = ingest.load_dataset(out, dataset.window_end)
    assert reloaded.papers == dataset.papers
    assert reloaded.series == dataset.series
    assert reloaded.patents == dataset.patents
    for name in ("links", "concordance"):
        got, want = getattr(reloaded, name), getattr(dataset, name)
        assert sorted(map(dataclasses.astuple, got)) == sorted(map(dataclasses.astuple, want))
    assert reloaded.contexts == dataset.contexts


def test_dataset_writes_are_deterministic(tmp_path, table1):
    a, b = tmp_path / "a", tmp_path / "b"
    ingest.write_dataset(table1, a)
    ingest.write_dataset(table1, b)
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_contexts_file_is_optional(tmp_path, table1):
    out = tmp_path / "ds"
    ingest.write_dataset(table1, out)
    (out / ingest.CONTEXTS_FILE).unlink()
    assert ingest.load_dataset(out, table1.window_end).contexts is None


def test_writing_a_dataset_without_contexts_removes_an_old_contexts_file(tmp_path, demo_dir):
    """A directory rewritten with contexts=None reads back without the old file's contexts."""
    ds = ingest.load_dataset(demo_dir, 2015)
    assert ds.contexts
    ingest.write_dataset(ds, tmp_path)
    ingest.write_dataset(dataclasses.replace(ds, contexts=None), tmp_path)
    assert not (tmp_path / ingest.CONTEXTS_FILE).exists()
    assert ingest.load_dataset(tmp_path, 2015).contexts is None


def test_validator_clean_fixture(table1):
    report = ingest.validate_dataset(table1)
    assert report.issues == ()
    assert not report.has_errors()


def test_validator_unknown_link_targets():
    ds = tiny_dataset(links=(PatentCitationLink("p1", "f-missing"), PatentCitationLink("ghost", "f1")))
    report = ingest.validate_dataset(ds)
    errors = report.errors()
    assert {e.entity_id for e in errors} == {"f-missing", "ghost"}
    assert report.has_errors()


def test_validator_duplicate_link_warns():
    ds = tiny_dataset(links=(PatentCitationLink("p1", "f1"), PatentCitationLink("p1", "f1")))
    report = ingest.validate_dataset(ds)
    assert not report.has_errors()
    assert any("duplicate link" in w.message for w in report.warnings())


def test_validator_series_warnings():
    quiet = PaperRecord(paper_id="p1", pub_year=2000)
    late = PaperRecord(paper_id="p2", pub_year=2010)
    ds = tiny_dataset(
        papers={"p1": quiet, "p2": late},
        series={"p1": reference.series_from_counts("p1", 2000, (0, 0, 0))},
        links=(),
    )
    messages = {w.entity_id: w.message for w in ingest.validate_dataset(ds).warnings()}
    assert "no citations" in messages["p1"]
    assert "after the window end" in messages["p2"]


def test_paper_years_have_no_wall_clock_bound(tmp_path):
    with pytest.raises(ValueError):
        PaperRecord(paper_id="old", pub_year=1799)
    future = date.today().year + 1
    ds = tiny_dataset(papers={"p1": tiny_dataset().papers["p1"], "p2": PaperRecord("p2", future)})
    ingest.write_dataset(ds, tmp_path)
    loaded = ingest.load_dataset(tmp_path, window_end=2002)
    assert loaded.papers["p2"].pub_year == future
    assert "p2" not in loaded.series
    messages = {w.entity_id: w.message for w in ingest.validate_dataset(loaded).warnings()}
    assert messages["p2"] == f"published {future}, after the window end 2002"


def test_validator_priority_after_every_filing():
    late = PatentFamilyRecord("f1", 2010, (2000, 2004), 3, ("A61B5/00",))
    errors = ingest.validate_dataset(tiny_dataset(patents={"f1": late})).errors()
    assert [(e.entity_id, e.message) for e in errors] == [
        ("f1", "earliest priority year 2010 is after every filing year")
    ]
    on_time = PatentFamilyRecord("f1", 2004, (2000, 2004), 3, ("A61B5/00",))
    assert not ingest.validate_dataset(tiny_dataset(patents={"f1": on_time})).has_errors()


def test_validator_unmapped_ipc_warns_once_per_code():
    fam1 = PatentFamilyRecord("f1", 2005, (2005,), 3, ("Z99Z1/00",))
    fam2 = PatentFamilyRecord("f2", 2006, (2006,), 1, ("Z99Z1/00",))
    ds = tiny_dataset(patents={"f1": fam1, "f2": fam2}, links=(PatentCitationLink("p1", "f1"),))
    warned = [w for w in ingest.validate_dataset(ds).warnings() if "Z99Z1/00" in w.message]
    assert len(warned) == 1


def test_validator_conflicting_concordance():
    conc = (
        ConcordanceEntry("A61B", 13, "Medical technology", "Instruments"),
        ConcordanceEntry("A61B", 14, "Organic fine chemistry", "Chemistry"),
    )
    ds = tiny_dataset(concordance=conc)
    assert ingest.validate_dataset(ds).has_errors()
    twice = (
        ConcordanceEntry("A61B", 13, "Medical technology", "Instruments"),
        ConcordanceEntry("A61B", 13, "Medical technology", "Instruments"),
    )
    report = ingest.validate_dataset(tiny_dataset(concordance=twice))
    assert not report.has_errors()
    assert any("listed twice" in w.message for w in report.warnings())
    # Prefixes compare as IpcIndex compares them: case and whitespace aside.
    case_variant = (
        ConcordanceEntry("A61B", 13, "Medical technology", "Instruments"),
        ConcordanceEntry("a61b", 14, "Organic fine chemistry", "Chemistry"),
    )
    report = ingest.validate_dataset(tiny_dataset(concordance=case_variant))
    assert [e.message for e in report.errors()] == ["prefix 'a61b' maps to fields 13 and 14"]
    spaced_twice = (
        ConcordanceEntry("A61B", 13, "Medical technology", "Instruments"),
        ConcordanceEntry("A61 B", 13, "Medical technology", "Instruments"),
    )
    report = ingest.validate_dataset(tiny_dataset(concordance=spaced_twice))
    assert not report.has_errors()
    assert [w.message for w in report.warnings()] == ["prefix 'A61 B' listed twice"]


def test_validator_reports_repeated_prefixes_against_the_first():
    """Each repeat compares with the prefix's first entry, not with the one the lookup keeps."""
    conc = (
        ConcordanceEntry("A61B", 5, "Optics", "Instruments"),
        ConcordanceEntry("a61b", 3, "Telecommunications", "Electrical engineering"),
        ConcordanceEntry("A61 B", 5, "Optics", "Instruments"),
    )
    report = ingest.validate_dataset(tiny_dataset(concordance=conc))
    messages = [(i.severity, i.message) for i in report.issues]
    assert messages == [
        ("error", "prefix 'a61b' maps to fields 5 and 3"),
        ("warning", "prefix 'A61 B' listed twice"),
    ]


def test_validator_context_citing_unknown_paper():
    ctx = (CitationContextRecord("c1", "p-unknown", 2003, "A sentence."),)
    report = ingest.validate_dataset(tiny_dataset(contexts=ctx))
    assert not report.has_errors()
    assert any("unknown paper" in w.message for w in report.warnings())


def ctx(sentence: str, n: int = 0) -> CitationContextRecord:
    return CitationContextRecord(f"c{n}", "p1", 2003, sentence)


def test_flagger_whole_word_matching():
    records = [
        ctx("In contrast to earlier work, rates fell.", 0),
        ctx("These contrasting findings were ignored.", 1),
        ctx("Our data DISAGREE with the model.", 2),
        ctx("There was broad disagreement.", 3),
        ctx("The result is inconsistent, and we dispute it.", 4),
    ]
    flagged = ingest.flag_contexts(records)
    assert [(rec.citing_id, terms) for rec, terms in flagged] == [
        ("c0", ("contrast",)),
        ("c2", ("disagree",)),
        ("c4", ("dispute", "inconsistent")),
    ]


def test_flagger_custom_terms_and_punctuation():
    records = [ctx("The assay failed (inconclusive)."), ctx("Clean replication.", 1)]
    flagged = ingest.flag_contexts(records, terms=("inconclusive",))
    assert len(flagged) == 1
    assert flagged[0][1] == ("inconclusive",)


def test_flagger_preserves_input_order():
    records = [ctx("we dispute X", 3), ctx("we dispute Y", 1), ctx("we dispute Z", 2)]
    flagged = ingest.flag_contexts(records)
    assert [rec.citing_id for rec, _ in flagged] == ["c3", "c1", "c2"]

