"""Readers, writers, and validation for the on-disk dataset layout.

A dataset directory holds papers.csv, citations.csv (sparse: a row per
paper and cited year; missing years are 0), patents.csv, links.csv,
concordance.tsv (tab-separated) and, optionally, contexts.jsonl (one object
per line with the fields of CitationContextRecord). The *_COLUMNS constants
below name each table's columns; the file format itself belongs to the
tables module. A CitationSeries stays sparse in memory too: read_citations
builds each one straight from its paper's rows, with no list over the
window's years, and write_citations writes just the cited years.

Multi-valued cells (fields_of_study as name@level pairs, filing_years,
ipc_codes) pack with ';'. Writers emit sorted rows, so rewriting an
unchanged dataset is byte-identical.

An integer cell, or a fields_of_study level, is ASCII '-?[0-9]+' and
nothing else: no sign '+', no spaces, no '_', no non-ASCII digits. Each
distinct text of an integer column is checked and converted once per file
read, and each distinct fields_of_study cell is parsed once; repeats are
one dict lookup, and equal cells share one int object.

Malformed content raises DataError (exit code 1 territory);
missing or unreadable files surface as OSError (exit code 2).
"""

from __future__ import annotations

import dataclasses
import re
from operator import attrgetter
from pathlib import Path
from typing import Iterable, NoReturn, Sequence, get_type_hints

from .errors import DataError, MalformedRowError
from .interact import normalize_ipc
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
from .tables import read_json_lines, read_rows, write_json_lines, write_rows

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

DEFAULT_DISPUTE_TERMS = ("contradict", "contrast", "disagree", "dispute", "inconsistent")


# A rejected value is echoed in its error message up to this many characters.
_SHOWN_CHARS = 40


def _shown(value: object) -> str:
    """The repr of a rejected value for an error message, cut short when long.

    Past _SHOWN_CHARS characters (of a string, or of any other value's repr)
    it shows the first _SHOWN_CHARS, then '…' and the full length.
    """
    is_str = isinstance(value, str)
    text = value if is_str else repr(value)
    if len(text) <= _SHOWN_CHARS:
        return repr(value)
    head = text[:_SHOWN_CHARS]
    return f"{repr(head) if is_str else head}… ({len(text)} characters)"


_INTEGER = re.compile(r"-?[0-9]+")


def _strict_int(text: str, name: str) -> int:
    """The value of an ASCII '-?[0-9]+' text; ValueError names the column otherwise."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:
            # More digits than the int-string limit; Python's own text for it
            # differs between versions.
            pass
    raise ValueError(f"{name} {_shown(text)} is not an integer")


class _IntCells(dict):
    """One integer column's cells during one file read: cells[text] is its int.

    The first lookup of a text runs _strict_int and keeps the result; every
    repeat is a plain dict lookup. A rejected text raises _strict_int's
    ValueError and is not kept.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def __missing__(self, text: str) -> int:
        value = self[text] = _strict_int(text, self.name)
        return value


def parse_fields_of_study(packed: str) -> tuple[FieldOfStudy, ...]:
    """Unpack 'name@level;name@level' (empty string means no fields)."""
    if not packed:
        return ()
    fields = []
    for part in packed.split(";"):
        name, sep, level = part.rpartition("@")
        if not sep:
            raise ValueError(f"field entry {_shown(part)} lacks an @level suffix")
        fields.append(FieldOfStudy(name=name, level=_strict_int(level, "field of study level")))
    return tuple(fields)


def format_fields_of_study(fields: Iterable[FieldOfStudy]) -> str:
    return ";".join(f"{f.name}@{f.level}" for f in fields)


def parse_papers(path: Path) -> dict[str, PaperRecord]:
    papers: dict[str, PaperRecord] = {}
    # Each distinct fields_of_study cell is parsed once; equal cells share
    # one tuple.
    fields_by_cell: dict[str, tuple[FieldOfStudy, ...]] = {}
    years = _IntCells("pub_year")
    for line_no, (pid, pub_year, title, doi, pmid, cell) in read_rows(path, PAPER_COLUMNS):
        if pid in papers:
            raise MalformedRowError(line_no, f"duplicate id: {_shown(pid)}")
        try:
            year = years[pub_year]
            fields = fields_by_cell.get(cell)
            if fields is None:
                fields = fields_by_cell[cell] = parse_fields_of_study(cell)
            papers[pid] = PaperRecord(
                paper_id=pid,
                pub_year=year,
                title=title or None,
                doi=doi or None,
                pmid=pmid or None,
                fields_of_study=fields,
            )
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from None
    return papers


def read_citations(
    path: Path, papers: dict[str, PaperRecord], window_end: int
) -> dict[str, CitationSeries]:
    """Per-paper series over [pub_year, window_end]; missing years are 0.

    One pass over the sparse rows appends each row's year offset and count
    to its paper's two lists, so memory follows the rows, not the window
    years. A paper whose rows arrive out of year order or include a count
    of 0 is marked irregular; files written by write_citations are sorted
    and hold no zero rows, so none of their papers is. After the pass only
    the irregular papers are sorted and cleared of their zero rows. Each
    series is then built once from its two lists.

    Papers published after window_end have no observation window and get
    no series (the validator flags them); a paper with no rows gets the
    empty series. A row for an unknown paper, outside its paper's window,
    or repeating a (paper, year) pair, even with count 0, is an error. A
    row that repeats its paper's previous year is reported at once, with
    its line number like the other row errors; any other repeat is found as
    two equal neighbours after the sort, so only then is the file read
    again, to report the repeating row's line.
    """
    # Per paper: base year, then each row's year offset and count, in file order.
    slots: dict[str, tuple[int, list[int], list[int]]] = {
        pid: (paper.pub_year, [], [])
        for pid, paper in papers.items()
        if paper.pub_year <= window_end
    }
    irregular: set[str] = set()
    years, counts = _IntCells("year"), _IntCells("count")
    for line_no, (pid, year, count) in read_rows(path, CITATION_COLUMNS):
        try:
            year = years[year]
            count = counts[count]
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from None
        if count < 0:
            raise MalformedRowError(line_no, f"citation count {count} must be non-negative")
        slot = slots.get(pid)
        if slot is None and pid not in papers:
            raise MalformedRowError(line_no, f"citation row references unknown paper {_shown(pid)}")
        if slot is None or not slot[0] <= year <= window_end:
            raise MalformedRowError(
                line_no, f"citation year {year} for paper {_shown(pid)} outside the observation window"
            )
        base, offsets, values = slot
        t = year - base
        if offsets and t <= offsets[-1]:
            if t == offsets[-1]:
                raise MalformedRowError(
                    line_no, f"duplicate citation row for paper {_shown(pid)}, year {year}"
                )
            irregular.add(pid)
        elif not count:
            irregular.add(pid)
        offsets.append(t)
        values.append(count)
    for pid in sorted(irregular):
        base, offsets, values = slots[pid]
        rows = sorted(zip(offsets, values))
        for (t, _), (next_t, _) in zip(rows, rows[1:]):
            if t == next_t:
                _raise_repeat(path, pid, base + t)
        offsets[:] = [t for t, count in rows if count]
        values[:] = [count for _, count in rows if count]
    return {
        pid: CitationSeries(pid, base, window_end - base, tuple(offsets), tuple(values))
        for pid, (base, offsets, values) in slots.items()
    }


def _raise_repeat(path: Path, pid: str, year: int) -> NoReturn:
    """Raise the error for a repeated citations.csv (paper, year), at its second row."""
    message = f"duplicate citation row for paper {_shown(pid)}, year {year}"
    seen = False
    for line_no, (row_pid, row_year, _) in read_rows(path, CITATION_COLUMNS):
        # The first read has checked every year cell.
        if row_pid == pid and int(row_year) == year:
            if seen:
                raise MalformedRowError(line_no, message)
            seen = True
    raise DataError(message)  # the file changed after the first read


def parse_patents(path: Path) -> dict[str, PatentFamilyRecord]:
    patents: dict[str, PatentFamilyRecord] = {}
    priorities = _IntCells("earliest_priority_year")
    filings = _IntCells("filing_years")
    forwards = _IntCells("forward_citation_count")
    for line_no, (fid, priority, filing, forward, ipc) in read_rows(path, PATENT_COLUMNS):
        if fid in patents:
            raise MalformedRowError(line_no, f"duplicate id: {_shown(fid)}")
        codes = tuple(c for c in ipc.split(";") if c)
        try:
            years = tuple([filings[y] for y in filing.split(";") if y])
            patents[fid] = PatentFamilyRecord(
                family_id=fid,
                earliest_priority_year=priorities[priority],
                filing_years=years,
                forward_citation_count=forwards[forward],
                ipc_codes=codes,
            )
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from None
    return patents


def parse_links(path: Path) -> tuple[PatentCitationLink, ...]:
    links = []
    for line_no, (pid, fid) in read_rows(path, LINK_COLUMNS):
        if not pid or not fid:
            raise MalformedRowError(line_no, "link row has an empty id")
        links.append(PatentCitationLink(paper_id=pid, family_id=fid))
    return tuple(links)


def parse_concordance(path: Path) -> tuple[ConcordanceEntry, ...]:
    entries = []
    field_ids = _IntCells("wipo_field_id")
    rows = read_rows(path, CONCORDANCE_COLUMNS, CONCORDANCE_DELIMITER)
    for line_no, (prefix, field_id, field_name, sector) in rows:
        try:
            entries.append(
                ConcordanceEntry(
                    ipc_prefix=prefix,
                    wipo_field_id=field_ids[field_id],
                    wipo_field_name=field_name,
                    sector=sector,
                )
            )
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from None
    return tuple(entries)


def parse_contexts(path: Path) -> tuple[CitationContextRecord, ...]:
    records = []
    kinds = get_type_hints(CitationContextRecord)  # each key's type, str or int
    for line_no, obj in read_json_lines(path):
        for key in kinds:
            if key not in obj:
                raise MalformedRowError(line_no, f"missing key {key!r}")
        for key, kind in kinds.items():
            value = obj[key]
            # The JSON type only: int() would take 1.7 and true as 1 and fail
            # on 1e400, and str() would take null, numbers and lists.
            if type(value) is not kind:
                name = "integer" if kind is int else "string"
                raise MalformedRowError(line_no, f"{key} {_shown(value)} is not a JSON {name}")
        try:
            records.append(CitationContextRecord(*(obj[key] for key in kinds)))
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from None
    return tuple(records)


def load_dataset(directory: str | Path, window_end: int) -> Dataset:
    """Read one dataset directory into memory (contexts.jsonl is optional)."""
    root = Path(directory)
    papers = parse_papers(root / PAPERS_FILE)
    series = read_citations(root / CITATIONS_FILE, papers, window_end)
    patents = parse_patents(root / PATENTS_FILE)
    links = parse_links(root / LINKS_FILE)
    concordance = parse_concordance(root / CONCORDANCE_FILE)
    contexts_path = root / CONTEXTS_FILE
    contexts = parse_contexts(contexts_path) if contexts_path.exists() else None
    return Dataset(
        papers=papers,
        series=series,
        patents=patents,
        links=links,
        concordance=concordance,
        window_end=window_end,
        contexts=contexts,
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
            ";".join(str(y) for y in rec.filing_years),
            rec.forward_citation_count,
            ";".join(rec.ipc_codes),
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


def write_contexts(contexts: Iterable[CitationContextRecord], path: Path) -> None:
    # A flat dict per record; dataclasses.asdict would deep-copy each field.
    keys = tuple(f.name for f in dataclasses.fields(CitationContextRecord))
    fields_of = attrgetter(*keys)
    write_json_lines(path, (dict(zip(keys, fields_of(rec))) for rec in contexts))


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

    # Keyed like IpcIndex, so prefixes that differ only in case or
    # whitespace count as the same prefix.
    by_prefix: dict[str, int] = {}
    for entry in dataset.concordance:
        key = normalize_ipc(entry.ipc_prefix)
        prior = by_prefix.get(key)
        if prior is None:
            by_prefix[key] = entry.wipo_field_id
        elif prior != entry.wipo_field_id:
            message = f"prefix {_shown(entry.ipc_prefix)} maps to fields {prior} and {entry.wipo_field_id}"
            err(entry.ipc_prefix, message)
        else:
            warn(entry.ipc_prefix, f"prefix {_shown(entry.ipc_prefix)} listed twice")

    index = dataset.ipc_index
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
