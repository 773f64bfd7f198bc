"""Readers, writers, and validation for the on-disk dataset layout.

A dataset directory holds:

    papers.csv       paper_id,pub_year,title,doi,pmid,fields_of_study
    citations.csv    paper_id,year,count          (sparse; missing years = 0)
    patents.csv      family_id,earliest_priority_year,filing_years,
                     forward_citation_count,ipc_codes
    links.csv        paper_id,family_id
    concordance.tsv  ipc_prefix  wipo_field_id  wipo_field_name  sector
    contexts.jsonl   optional; one object per line with keys citing_id,
                     cited_paper_id, year, sentence

Multi-valued cells (fields_of_study as name@level pairs, filing_years,
ipc_codes) pack with ';'. Writers emit sorted rows and '\n' line endings so
rewriting an unchanged dataset is byte-identical.

Malformed content raises DataError subclasses (exit code 1 territory);
missing or unreadable files surface as OSError (exit code 2).
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    DataError,
    DuplicateIdError,
    FieldIdOutOfRangeError,
    MalformedRowError,
    MissingColumnError,
    RowOutOfWindowError,
)
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

PAPERS_FILE = "papers.csv"
CITATIONS_FILE = "citations.csv"
PATENTS_FILE = "patents.csv"
LINKS_FILE = "links.csv"
CONCORDANCE_FILE = "concordance.tsv"
CONTEXTS_FILE = "contexts.jsonl"

DEFAULT_DISPUTE_TERMS = ("contradict", "contrast", "disagree", "dispute", "inconsistent")


def _header(reader, required: Sequence[str]) -> list[str]:
    """The header row's cell names, once every required column is among them."""
    names = next(reader, [])
    for col in required:
        if col not in names:
            raise MissingColumnError(col)
    return names


def _width_error(line_no: int, row: list[str], width: int) -> MalformedRowError:
    side = "fewer" if len(row) < width else "more"
    return MalformedRowError(line_no, f"row has {side} cells than the header")


def _rows(path: Path, required: Sequence[str], delimiter: str = ","):
    """Yield (line_no, row_dict) from a delimited file, checking the header.

    Every non-blank row must have exactly as many cells as the header; an
    unquoted delimiter inside a cell would otherwise shift or drop values.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        names = _header(reader, required)
        width = len(names)
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise _width_error(reader.line_num, row, width)
            yield reader.line_num, dict(zip(names, row))


def _int_cell(value: str, name: str, line_no: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise MalformedRowError(line_no, f"{name} {value!r} is not an integer") from None


def parse_fields_of_study(packed: str) -> tuple[FieldOfStudy, ...]:
    """Unpack 'name@level;name@level' (empty string means no fields)."""
    if not packed:
        return ()
    fields = []
    for part in packed.split(";"):
        name, sep, level = part.rpartition("@")
        if not sep:
            raise ValueError(f"field entry {part!r} lacks an @level suffix")
        fields.append(FieldOfStudy(name=name, level=int(level)))
    return tuple(fields)


def format_fields_of_study(fields: Iterable[FieldOfStudy]) -> str:
    return ";".join(f"{f.name}@{f.level}" for f in fields)


def parse_papers(path: Path) -> dict[str, PaperRecord]:
    papers: dict[str, PaperRecord] = {}
    cols = ("paper_id", "pub_year", "title", "doi", "pmid", "fields_of_study")
    for line_no, row in _rows(path, cols):
        pid = row["paper_id"]
        if pid in papers:
            raise DuplicateIdError(pid)
        try:
            papers[pid] = PaperRecord(
                paper_id=pid,
                pub_year=_int_cell(row["pub_year"], "pub_year", line_no),
                title=row["title"] or None,
                doi=row["doi"] or None,
                pmid=row["pmid"] or None,
                fields_of_study=parse_fields_of_study(row["fields_of_study"]),
            )
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from None
    return papers


def read_citations(
    path: Path, papers: dict[str, PaperRecord], window_end: int
) -> dict[str, CitationSeries]:
    """Dense per-paper series over [pub_year, window_end]; missing years are 0.

    One pass over the sparse rows, each count written straight into its
    paper's preallocated list. Papers published after window_end have no
    observation window and get no series (the validator flags them). A row
    for an unknown paper, outside its paper's window, or repeating a
    (paper, year) pair, even with count 0, is an error.
    """
    # Per paper: base year, counts, and which offsets a row has set.
    slots: dict[str, tuple[int, list[int], bytearray]] = {}
    for pid, paper in papers.items():
        n = window_end - paper.pub_year + 1
        if n > 0:
            slots[pid] = (paper.pub_year, [0] * n, bytearray(n))
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        names = _header(reader, ("paper_id", "year", "count"))
        width = len(names)
        i_pid, i_year, i_count = names.index("paper_id"), names.index("year"), names.index("count")
        for row in reader:
            # The same row checks as _rows, without a dict per row.
            if len(row) != width:
                if not row:
                    continue
                raise _width_error(reader.line_num, row, width)
            pid = row[i_pid]
            year = _int_cell(row[i_year], "year", reader.line_num)
            count = _int_cell(row[i_count], "count", reader.line_num)
            if count < 0:
                raise MalformedRowError(reader.line_num, f"citation count {count} must be non-negative")
            slot = slots.get(pid)
            if slot is None:
                if pid not in papers:
                    raise DataError(f"citation row references unknown paper {pid!r}")
                raise RowOutOfWindowError(year, pid)
            base, counts, seen = slot
            t = year - base
            if t < 0 or year > window_end:
                raise RowOutOfWindowError(year, pid)
            if seen[t]:
                raise DataError(f"duplicate citation row for paper {pid!r}, year {year}")
            seen[t] = 1
            counts[t] = count
    return {
        pid: CitationSeries(paper_id=pid, base_year=base, counts=tuple(counts))
        for pid, (base, counts, _) in slots.items()
    }


def parse_patents(path: Path) -> dict[str, PatentFamilyRecord]:
    patents: dict[str, PatentFamilyRecord] = {}
    cols = (
        "family_id",
        "earliest_priority_year",
        "filing_years",
        "forward_citation_count",
        "ipc_codes",
    )
    for line_no, row in _rows(path, cols):
        fid = row["family_id"]
        if fid in patents:
            raise DuplicateIdError(fid)
        years = tuple(
            _int_cell(y, "filing_years", line_no) for y in row["filing_years"].split(";") if y
        )
        codes = tuple(c for c in row["ipc_codes"].split(";") if c)
        try:
            patents[fid] = PatentFamilyRecord(
                family_id=fid,
                earliest_priority_year=_int_cell(
                    row["earliest_priority_year"], "earliest_priority_year", line_no
                ),
                filing_years=years,
                forward_citation_count=_int_cell(
                    row["forward_citation_count"], "forward_citation_count", line_no
                ),
                ipc_codes=codes,
            )
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from None
    return patents


def parse_links(path: Path) -> tuple[PatentCitationLink, ...]:
    links = []
    for line_no, row in _rows(path, ("paper_id", "family_id")):
        if not row["paper_id"] or not row["family_id"]:
            raise MalformedRowError(line_no, "link row has an empty id")
        links.append(PatentCitationLink(paper_id=row["paper_id"], family_id=row["family_id"]))
    return tuple(links)


def parse_concordance(path: Path) -> tuple[ConcordanceEntry, ...]:
    entries = []
    cols = ("ipc_prefix", "wipo_field_id", "wipo_field_name", "sector")
    for line_no, row in _rows(path, cols, delimiter="\t"):
        field_id = _int_cell(row["wipo_field_id"], "wipo_field_id", line_no)
        if not 1 <= field_id <= 35:
            raise FieldIdOutOfRangeError(field_id)
        try:
            entries.append(
                ConcordanceEntry(
                    ipc_prefix=row["ipc_prefix"],
                    wipo_field_id=field_id,
                    wipo_field_name=row["wipo_field_name"],
                    sector=row["sector"],
                )
            )
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from None
    return tuple(entries)


def parse_contexts(path: Path) -> tuple[CitationContextRecord, ...]:
    records = []
    keys = ("citing_id", "cited_paper_id", "year", "sentence")
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRowError(line_no, f"invalid JSON: {exc.msg}") from None
            if not isinstance(obj, dict):
                raise MalformedRowError(line_no, "line is not a JSON object")
            for key in keys:
                if key not in obj:
                    raise MalformedRowError(line_no, f"missing key {key!r}")
            try:
                records.append(
                    CitationContextRecord(
                        citing_id=str(obj["citing_id"]),
                        cited_paper_id=str(obj["cited_paper_id"]),
                        year=int(obj["year"]),
                        sentence=str(obj["sentence"]),
                    )
                )
            except (TypeError, ValueError) as exc:
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


def _writer(fh, delimiter: str = ","):
    return csv.writer(fh, delimiter=delimiter, lineterminator="\n")


def write_papers(papers: Iterable[PaperRecord], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = _writer(fh)
        out.writerow(["paper_id", "pub_year", "title", "doi", "pmid", "fields_of_study"])
        for p in sorted(papers, key=lambda p: p.paper_id):
            out.writerow(
                [
                    p.paper_id,
                    p.pub_year,
                    p.title or "",
                    p.doi or "",
                    p.pmid or "",
                    format_fields_of_study(p.fields_of_study),
                ]
            )


def write_citations(series: Iterable[CitationSeries], path: Path) -> None:
    """Write sparse rows: zero-count years are omitted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = _writer(fh)
        out.writerow(["paper_id", "year", "count"])
        for s in sorted(series, key=lambda s: s.paper_id):
            for year, count in s.year_counts():
                if count:
                    out.writerow([s.paper_id, year, count])


def write_patents(patents: Iterable[PatentFamilyRecord], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = _writer(fh)
        out.writerow(
            [
                "family_id",
                "earliest_priority_year",
                "filing_years",
                "forward_citation_count",
                "ipc_codes",
            ]
        )
        for rec in sorted(patents, key=lambda r: r.family_id):
            out.writerow(
                [
                    rec.family_id,
                    rec.earliest_priority_year,
                    ";".join(str(y) for y in rec.filing_years),
                    rec.forward_citation_count,
                    ";".join(rec.ipc_codes),
                ]
            )


def write_links(links: Iterable[PatentCitationLink], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = _writer(fh)
        out.writerow(["paper_id", "family_id"])
        for link in sorted(links, key=lambda l: (l.paper_id, l.family_id)):
            out.writerow([link.paper_id, link.family_id])


def write_concordance(entries: Iterable[ConcordanceEntry], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = _writer(fh, delimiter="\t")
        out.writerow(["ipc_prefix", "wipo_field_id", "wipo_field_name", "sector"])
        for e in sorted(entries, key=lambda e: (e.ipc_prefix, e.wipo_field_id)):
            out.writerow([e.ipc_prefix, e.wipo_field_id, e.wipo_field_name, e.sector])


def write_contexts(contexts: Iterable[CitationContextRecord], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in contexts:
            fh.write(
                json.dumps(
                    {
                        "citing_id": rec.citing_id,
                        "cited_paper_id": rec.cited_paper_id,
                        "year": rec.year,
                        "sentence": rec.sentence,
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                )
                + "\n"
            )


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
        elif series.total == 0:
            warn(pid, "no citations inside the observation window")
        elif series.t_m == 0:
            warn(pid, "observation window spans a single year; curve undefined")

    seen_pairs = set()
    for link in dataset.links:
        pair = (link.paper_id, link.family_id)
        if link.paper_id not in dataset.papers:
            err(link.paper_id, f"link references unknown paper {link.paper_id!r}")
        if link.family_id not in dataset.patents:
            err(link.family_id, f"link references unknown patent family {link.family_id!r}")
        if pair in seen_pairs:
            warn(link.paper_id, f"duplicate link to family {link.family_id!r}")
        seen_pairs.add(pair)

    by_prefix: dict[str, int] = {}
    for entry in dataset.concordance:
        prior = by_prefix.get(entry.ipc_prefix)
        if prior is None:
            by_prefix[entry.ipc_prefix] = entry.wipo_field_id
        elif prior != entry.wipo_field_id:
            err(entry.ipc_prefix, f"prefix {entry.ipc_prefix!r} maps to fields {prior} and {entry.wipo_field_id}")
        else:
            warn(entry.ipc_prefix, f"prefix {entry.ipc_prefix!r} listed twice")

    index = dataset.ipc_index
    unmapped = set()
    for fid in sorted(dataset.patents):
        family = dataset.patents[fid]
        if family.earliest_priority_year > max(family.filing_years):
            err(fid, f"earliest priority year {family.earliest_priority_year} is after every filing year")
        for code in family.ipc_codes:
            if code not in unmapped and index.lookup(code) is None:
                unmapped.add(code)
                warn(fid, f"IPC code {code!r} matches no concordance prefix")

    if dataset.contexts:
        for rec in dataset.contexts:
            if rec.cited_paper_id not in dataset.papers:
                warn(rec.cited_paper_id, f"context cites unknown paper {rec.cited_paper_id!r}")

    return ValidationReport(issues=tuple(issues))


def compile_term_pattern(terms: Sequence[str]) -> re.Pattern[str]:
    """Whole-word, case-insensitive matcher for any of the given terms."""
    if not terms:
        raise ValueError("at least one term is required")
    alternation = "|".join(re.escape(t) for t in terms)
    return re.compile(rf"(?<!\w)(?:{alternation})(?!\w)", re.IGNORECASE)


def flag_contexts(
    contexts: Iterable[CitationContextRecord],
    terms: Sequence[str] = DEFAULT_DISPUTE_TERMS,
) -> list[tuple[CitationContextRecord, tuple[str, ...]]]:
    """Contexts whose sentence contains any term as a whole word.

    Returns (record, matched terms) pairs in input order; matched terms keep
    the order given in `terms`. Substring hits inside longer words do not
    count ("disagreement" does not match "disagree").
    """
    single = {t: compile_term_pattern([t]) for t in terms}
    flagged = []
    for rec in contexts:
        matched = tuple(t for t in terms if single[t].search(rec.sentence))
        if matched:
            flagged.append((rec, matched))
    return flagged
