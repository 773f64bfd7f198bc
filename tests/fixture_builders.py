"""Deterministic fixtures shared across test modules.

The flagship fixture is a 400-paper pool (200 delayed-curve papers, 200
instant-curve papers) whose patent links carry known marginal counts:

    DR block: 99 linked, 82 with forward cites on the earliest family,
              75 with durability >= 1; timing classes 69/5/25
              Earlier/Same/Later among the linked papers
    IR block: 70 linked, 57 forward, 41 durable; every linked paper's
              first patent sits two years before the falling year
    fields:   55 of the DR block tagged biology, 180 of the IR block

Running this module as a script rewrites data/table1_fixture/ in the repo.
"""

from __future__ import annotations

from pathlib import Path

from reference import series_from_counts
from slumber.ingest import write_dataset
from slumber.model import (
    CitationContextRecord,
    CitationSeries,
    Dataset,
    FieldOfStudy,
    PaperRecord,
    PatentCitationLink,
    PatentFamilyRecord,
)
from slumber.curve import profile
from slumber.synth import SAMPLE_CONCORDANCE

WINDOW_END = 2015

DR_LINKED, DR_FORWARD, DR_DURABLE = 99, 82, 75
IR_LINKED, IR_FORWARD, IR_DURABLE = 70, 57, 41
DR_EARLIER, DR_SAME, DR_LATER = 69, 5, 25
DR_BIOLOGY, IR_BIOLOGY = 55, 180

_OTHER_FIELDS = ("chemistry", "medicine", "physics", "materials science")
_IPC_CYCLE = (
    ("C12N15/09", "A61K31/4015"),
    ("G01N33/53",),
    ("C07D209/02", "G06F17/30"),
    ("H01L29/06",),
)


def _scale(counts: list[int], floor: int) -> tuple[int, ...]:
    total = sum(counts)
    k = -(-floor // total)
    return tuple(c * k for c in counts)


def delayed_series(pid: str, i: int) -> CitationSeries:
    """Zeros then a rising ramp; index strictly positive."""
    pub_year = 1970 + (i % 20)
    t_m = WINDOW_END - pub_year
    start = t_m - 6 - (i % 15)
    counts = [0] * start + list(range(1, t_m - start + 2))
    return series_from_counts(pid, pub_year, _scale(counts, 200))


def instant_series(pid: str, i: int) -> CitationSeries:
    """Early peak decaying to nothing; index strictly negative."""
    pub_year = 1970 + (i % 20)
    t_m = WINDOW_END - pub_year
    peak = 2 + (i % 8)
    counts = [max(peak - t, 0) for t in range(t_m + 1)]
    return series_from_counts(pid, pub_year, _scale(counts, 200))


def _fields(i: int, biology_cut: int) -> tuple[FieldOfStudy, ...]:
    if i < biology_cut:
        return (FieldOfStudy("biology", 0),)
    return (FieldOfStudy(_OTHER_FIELDS[i % len(_OTHER_FIELDS)], 0),)


def table1_dataset() -> Dataset:
    papers: dict[str, PaperRecord] = {}
    series: dict[str, CitationSeries] = {}
    patents: dict[str, PatentFamilyRecord] = {}
    links: list[PatentCitationLink] = []
    fam_seq = 0

    def add_family(pid: str, priority: int, forward: int, durable: bool) -> None:
        nonlocal fam_seq
        fid = f"t{fam_seq:04d}"
        fam_seq += 1
        filings = (priority, priority + 4) if durable else (priority,)
        patents[fid] = PatentFamilyRecord(
            family_id=fid,
            earliest_priority_year=priority,
            filing_years=filings,
            forward_citation_count=forward,
            ipc_codes=_IPC_CYCLE[fam_seq % len(_IPC_CYCLE)],
        )
        links.append(PatentCitationLink(paper_id=pid, family_id=fid))

    for i in range(200):
        pid = f"d{i:03d}"
        s = delayed_series(pid, i)
        papers[pid] = PaperRecord(
            paper_id=pid, pub_year=s.base_year, title=f"Delayed curve {i}",
            fields_of_study=_fields(i, DR_BIOLOGY),
        )
        series[pid] = s
        if i < DR_LINKED:
            turning = profile(s).turning_year
            if i < DR_EARLIER:
                priority = turning - 2
            elif i < DR_EARLIER + DR_SAME:
                priority = turning
            else:
                priority = turning + 2
            add_family(pid, priority, forward=40 + i if i < DR_FORWARD else 0, durable=i < DR_DURABLE)

    for i in range(200):
        pid = f"i{i:03d}"
        s = instant_series(pid, i)
        papers[pid] = PaperRecord(
            paper_id=pid, pub_year=s.base_year, title=f"Instant curve {i}",
            fields_of_study=_fields(i, IR_BIOLOGY),
        )
        series[pid] = s
        if i < IR_LINKED:
            falling = profile(s).turning_year
            add_family(pid, falling - 2, forward=30 + i if i < IR_FORWARD else 0, durable=i < IR_DURABLE)

    contexts = (
        CitationContextRecord("x0", "d000", 2006, "Our kinetics disagree with the constants in d000."),
        CitationContextRecord("x1", "d001", 2007, "The binding model of d001 guides our assay design."),
        CitationContextRecord("x2", "i000", 1985, "In contrast to i000, we find no activity at scale."),
        CitationContextRecord("x3", "i001", 1984, "Replication of i001 succeeds in both cell lines."),
        CitationContextRecord("x4", "d002", 2010, "These spectra are inconsistent with d002."),
        CitationContextRecord("x5", "d003", 2011, "We dispute the assignment made in d003."),
    )

    return Dataset(
        papers=papers,
        series=series,
        patents=patents,
        links=tuple(links),
        concordance=SAMPLE_CONCORDANCE,
        window_end=WINDOW_END,
        contexts=contexts,
    )


def two_family_paper() -> tuple[PaperRecord, list[PatentFamilyRecord]]:
    """1970 paper cited by families with priorities 1986 and 2002."""
    paper = PaperRecord(paper_id="p1970", pub_year=1970)
    families = [
        PatentFamilyRecord("f1", 1986, (1986, 1994), 64, ("C12N15/09",)),
        PatentFamilyRecord("f2", 2002, (2002,), 50, ("A61K31/4015",)),
    ]
    return paper, families


def write_table1_fixture(directory: Path) -> None:
    write_dataset(table1_dataset(), directory)


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "data" / "table1_fixture"
    write_table1_fixture(target)
    print(f"rewrote {target}")
