"""Readers, writers, and validation for the on-disk dataset layout.

A dataset directory holds papers.csv, citations.csv (sparse: a row per
paper and cited year; missing years are 0), patents.csv, links.csv,
concordance.tsv (tab-separated) and, optionally, contexts.jsonl (one object
per line with the fields of CitationContextRecord). The *_COLUMNS constants
below name each table's columns; the file format itself, with its packed
cells fields_of_study (name@level pairs), filing_years and ipc_codes, belongs
to the tables module. Writers emit sorted rows, so rewriting an unchanged
dataset is byte-identical. A CitationSeries stays sparse in memory too:
read_citations builds each one straight from its paper's rows, with no list
over the window's years, and write_citations writes just the cited years.

Each integer column parses with tables.strict_int, as does each level of a
fields_of_study cell. Every such column goes through a tables._CellMemo, the
memo IpcIndex keeps its lookups in, for one file read: each of its first
_MEMO_CAP distinct cells is parsed once, and a repeat is one dict lookup.

Each parser reads its file in one tables reader block and raises a plain
ValueError for a bad row, which the reader turns into DataError 'FILE line
N: reason' (exit code 1); missing or unreadable files raise OSError (2).
The records refuse what a cell cannot carry, and a context of a wrong JSON type.
"""

from __future__ import annotations

import dataclasses
import re
from bisect import bisect_left
from functools import partial
from itertools import compress
from pathlib import Path
from typing import Iterable, Sequence

from .config import DEFAULT_DISPUTE_TERMS
from .errors import _shown
from .model import (
    CitationContextRecord,
    CitationSeries,
    ConcordanceEntry,
    Dataset,
    FieldOfStudy,
    PaperRecord,
    PatentCitationLink,
    PatentFamilyRecord,
    ValidationIssue,
    ValidationReport,
)
from .tables import (
    SEP, _CellMemo, read_json_lines, read_rows, split_cell, strict_int, write_json_lines, write_rows
)

PAPERS_FILE = "papers.csv"
CITATIONS_FILE = "citations.csv"
PATENTS_FILE = "patents.csv"
LINKS_FILE = "links.csv"
CONCORDANCE_FILE = "concordance.tsv"
CONTEXTS_FILE = "contexts.jsonl"

# Each file's columns, in the order the writers emit them.
PAPER_COLUMNS = ("paper_id", "pub_year", "title", "doi", "pmid", "fields_of_study")
CITATION_COLUMNS = ("paper_id", "year", "count")
PATENT_COLUMNS = (
    "family_id",
    "earliest_priority_year",
    "filing_years",
    "forward_citation_count",
    "ipc_codes",
)
LINK_COLUMNS = ("paper_id", "family_id")
CONCORDANCE_COLUMNS = ("ipc_prefix", "wipo_field_id", "wipo_field_name", "sector")
CONCORDANCE_DELIMITER = "\t"


def parse_fields_of_study(packed: str) -> tuple[FieldOfStudy, ...]:
    """Unpack a packed cell of name@level entries (an empty cell means no fields)."""
    fields = []
    for part in split_cell("fields_of_study", packed):
        name, sep, level = part.rpartition("@")
        if not sep:
            raise ValueError(f"field entry {_shown(part)} lacks an @level suffix")
        fields.append(FieldOfStudy(name=name, level=strict_int("field of study level", level)))
    return tuple(fields)


def format_fields_of_study(fields: Iterable[FieldOfStudy]) -> str:
    return SEP.join(f"{f.name}@{f.level}" for f in fields)


def parse_papers(path: Path) -> dict[str, PaperRecord]:
    papers: dict[str, PaperRecord] = {}
    years, fields = _CellMemo(partial(strict_int, "pub_year")), _CellMemo(parse_fields_of_study)
    with read_rows(path, PAPER_COLUMNS) as rows:
        for pid, pub_year, title, doi, pmid, cell in rows:
            if pid in papers:
                raise ValueError(f"duplicate id: {_shown(pid)}")
            papers[pid] = PaperRecord(
                paper_id=pid,
                pub_year=years[pub_year],
                title=title or None,
                doi=doi or None,
                pmid=pmid or None,
                fields_of_study=fields[cell],
            )
    return papers


def read_citations(
    path: Path, papers: dict[str, PaperRecord], window_end: int
) -> dict[str, CitationSeries]:
    """Per-paper series over [pub_year, window_end]; missing years are 0.

    One pass over the sparse rows keeps each paper's year offsets in
    ascending order, with their counts, so memory follows the rows, not the
    window years. A row past its paper's last offset is appended; an earlier
    one is inserted in place, so files in any row order are read the same.
    Zero-count rows are dropped after the pass, and each series is then
    built once from its two lists.

    Papers published after window_end have no observation window and get
    no series (the validator flags them); a paper with no rows gets the
    empty series. A row for an unknown paper, outside its paper's window,
    or repeating a (paper, year) pair, even with count 0, is an error,
    reported in the row pass at its own line like every other row error.
    """
    # Per paper: base year, then its rows' year offsets, ascending, and counts.
    slots: dict[str, tuple[int, list[int], list[int]]] = {
        pid: (paper.pub_year, [], [])
        for pid, paper in papers.items()
        if paper.pub_year <= window_end
    }
    zeroed: set[str] = set()  # papers with a zero-count row
    years, counts = _CellMemo(partial(strict_int, "year")), _CellMemo(partial(strict_int, "count"))
    with read_rows(path, CITATION_COLUMNS) as rows:
        for pid, year, count in rows:
            year = years[year]
            count = counts[count]
            if count < 0:
                raise ValueError(f"citation count {count} must be non-negative")
            slot = slots.get(pid)
            if slot is None and pid not in papers:
                raise ValueError(f"citation row references unknown paper {_shown(pid)}")
            if slot is None or not slot[0] <= year <= window_end:
                outside = f"citation year {year} for paper {_shown(pid)} outside the observation window"
                raise ValueError(outside)
            base, offsets, values = slot
            t = year - base
            if offsets and t <= offsets[-1]:
                i = bisect_left(offsets, t)
                if offsets[i] == t:
                    raise ValueError(f"duplicate citation row for paper {_shown(pid)}, year {year}")
                offsets.insert(i, t)
                values.insert(i, count)
            else:
                offsets.append(t)
                values.append(count)
            if not count:
                zeroed.add(pid)
    for pid in zeroed:
        _, offsets, values = slots[pid]
        offsets[:] = compress(offsets, values)
        values[:] = filter(None, values)
    return {
        pid: CitationSeries(pid, base, window_end - base, tuple(offsets), tuple(values))
        for pid, (base, offsets, values) in slots.items()
    }


def parse_patents(path: Path) -> dict[str, PatentFamilyRecord]:
    patents: dict[str, PatentFamilyRecord] = {}
    priorities = _CellMemo(partial(strict_int, "earliest_priority_year"))
    filings = _CellMemo(partial(strict_int, "filing_years"))
    forwards = _CellMemo(partial(strict_int, "forward_citation_count"))
    with read_rows(path, PATENT_COLUMNS) as rows:
        for fid, priority, filing, forward, ipc in rows:
            if fid in patents:
                raise ValueError(f"duplicate id: {_shown(fid)}")
            patents[fid] = PatentFamilyRecord(
                family_id=fid,
                earliest_priority_year=priorities[priority],
                filing_years=tuple([filings[y] for y in split_cell("filing_years", filing)]),
                forward_citation_count=forwards[forward],
                ipc_codes=tuple(split_cell("ipc_codes", ipc)),
            )
    return patents


def parse_links(path: Path) -> tuple[PatentCitationLink, ...]:
    with read_rows(path, LINK_COLUMNS) as rows:
        return tuple([PatentCitationLink(paper_id=pid, family_id=fid) for pid, fid in rows])


def parse_concordance(path: Path) -> tuple[ConcordanceEntry, ...]:
    field_ids = _CellMemo(partial(strict_int, "wipo_field_id"))
    with read_rows(path, CONCORDANCE_COLUMNS, CONCORDANCE_DELIMITER) as rows:
        return tuple(
            [ConcordanceEntry(prefix, field_ids[fid], name, sector) for prefix, fid, name, sector in rows]
        )


def parse_contexts(path: Path) -> tuple[CitationContextRecord, ...]:
    records = []
    keys = [f.name for f in dataclasses.fields(CitationContextRecord)]
    with read_json_lines(path) as objects:
        for obj in objects:
            for key in keys:
                if key not in obj:
                    raise ValueError(f"missing key {key!r}")
            records.append(CitationContextRecord(*(obj[key] for key in keys)))
    return tuple(records)


def load_dataset(directory: str | Path, window_end: int) -> Dataset:
    """Read one dataset directory into memory (contexts.jsonl is optional)."""
    root = Path(directory)
    papers = parse_papers(root / PAPERS_FILE)
    contexts_path = root / CONTEXTS_FILE
    return Dataset(
        papers=papers,
        series=read_citations(root / CITATIONS_FILE, papers, window_end),
        patents=parse_patents(root / PATENTS_FILE),
        links=parse_links(root / LINKS_FILE),
        concordance=parse_concordance(root / CONCORDANCE_FILE),
        window_end=window_end,
        contexts=parse_contexts(contexts_path) if contexts_path.exists() else None,
    )


def write_papers(papers: Iterable[PaperRecord], path: Path) -> None:
    rows = (
        (
            p.paper_id,
            p.pub_year,
            p.title or "",
            p.doi or "",
            p.pmid or "",
            format_fields_of_study(p.fields_of_study),
        )
        for p in sorted(papers, key=lambda p: p.paper_id)
    )
    write_rows(path, PAPER_COLUMNS, rows)


def write_citations(series: Iterable[CitationSeries], path: Path) -> None:
    """Write sparse rows: zero-count years are omitted."""
    rows = (
        (s.paper_id, year, count)
        for s in sorted(series, key=lambda s: s.paper_id)
        for year, count in s.year_counts()
    )
    write_rows(path, CITATION_COLUMNS, rows)


def write_patents(patents: Iterable[PatentFamilyRecord], path: Path) -> None:
    rows = (
        (
            rec.family_id,
            rec.earliest_priority_year,
            SEP.join(map(str, rec.filing_years)),
            rec.forward_citation_count,
            SEP.join(rec.ipc_codes),
        )
        for rec in sorted(patents, key=lambda r: r.family_id)
    )
    write_rows(path, PATENT_COLUMNS, rows)


def write_links(links: Iterable[PatentCitationLink], path: Path) -> None:
    rows = sorted((link.paper_id, link.family_id) for link in links)
    write_rows(path, LINK_COLUMNS, rows)


def write_concordance(entries: Iterable[ConcordanceEntry], path: Path) -> None:
    rows = (
        (e.ipc_prefix, e.wipo_field_id, e.wipo_field_name, e.sector)
        for e in sorted(entries, key=lambda e: (e.ipc_prefix, e.wipo_field_id))
    )
    write_rows(path, CONCORDANCE_COLUMNS, rows, CONCORDANCE_DELIMITER)


def context_object(rec: CitationContextRecord) -> dict[str, object]:
    """A context record's JSON object: one key per field, where asdict would deep-copy each."""
    return {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}


def write_contexts(contexts: Iterable[CitationContextRecord], path: Path) -> None:
    write_json_lines(path, map(context_object, contexts))


def write_dataset(dataset: Dataset, directory: str | Path) -> None:
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    write_papers(dataset.papers.values(), root / PAPERS_FILE)
    write_citations(dataset.series.values(), root / CITATIONS_FILE)
    write_patents(dataset.patents.values(), root / PATENTS_FILE)
    write_links(dataset.links, root / LINKS_FILE)
    write_concordance(dataset.concordance, root / CONCORDANCE_FILE)
    if dataset.contexts is not None:
        write_contexts(dataset.contexts, root / CONTEXTS_FILE)


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Cross-file consistency report; errors block analysis, warnings don't."""
    issues: list[ValidationIssue] = []

    def err(entity: str, message: str) -> None:
        issues.append(ValidationIssue("error", entity, message))

    def warn(entity: str, message: str) -> None:
        issues.append(ValidationIssue("warning", entity, message))

    for pid in sorted(dataset.papers):
        paper = dataset.papers[pid]
        series = dataset.series.get(pid)
        if series is None:
            warn(pid, f"published {paper.pub_year}, after the window end {dataset.window_end}")
        elif not series.values:
            warn(pid, "no citations inside the observation window")
        elif series.t_m == 0:
            warn(pid, "observation window spans a single year; curve undefined")

    seen_pairs = set()
    for link in dataset.links:
        pair = (link.paper_id, link.family_id)
        if link.paper_id not in dataset.papers:
            err(link.paper_id, f"link references unknown paper {_shown(link.paper_id)}")
        if link.family_id not in dataset.patents:
            err(link.family_id, f"link references unknown patent family {_shown(link.family_id)}")
        if pair in seen_pairs:
            warn(link.paper_id, f"duplicate link to family {_shown(link.family_id)}")
        seen_pairs.add(pair)

    index = dataset.ipc_index
    for first, entry in index.repeats:
        prefix, field_id = entry.ipc_prefix, entry.wipo_field_id
        if first.wipo_field_id != field_id:
            err(prefix, f"prefix {_shown(prefix)} maps to fields {first.wipo_field_id} and {field_id}")
        else:
            warn(prefix, f"prefix {_shown(prefix)} listed twice")

    unmapped = set()
    for fid in sorted(dataset.patents):
        family = dataset.patents[fid]
        if family.earliest_priority_year > max(family.filing_years):
            err(fid, f"earliest priority year {family.earliest_priority_year} is after every filing year")
        for code in family.ipc_codes:
            if code not in unmapped and index.lookup(code) is None:
                unmapped.add(code)
                warn(fid, f"IPC code {_shown(code)} matches no concordance prefix")

    if dataset.contexts:
        for rec in dataset.contexts:
            if rec.cited_paper_id not in dataset.papers:
                warn(rec.cited_paper_id, f"context cites unknown paper {_shown(rec.cited_paper_id)}")

    return ValidationReport(issues=tuple(issues))


def flag_contexts(
    contexts: Iterable[CitationContextRecord],
    terms: Sequence[str] = DEFAULT_DISPUTE_TERMS,
) -> list[tuple[CitationContextRecord, tuple[str, ...]]]:
    """Contexts whose sentence contains any term as a whole word.

    Returns (record, matched terms) pairs in input order; matched terms keep
    the order given in `terms`. Substring hits inside longer words do not
    count ("disagreement" does not match "disagree").
    """
    patterns = {t: re.compile(rf"(?<!\w){re.escape(t)}(?!\w)", re.IGNORECASE) for t in terms}
    flagged = []
    for rec in contexts:
        matched = tuple(t for t in terms if patterns[t].search(rec.sentence))
        if matched:
            flagged.append((rec, matched))
    return flagged
