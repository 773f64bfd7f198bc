"""Deterministic fixtures, and a strategy of small drawn datasets, shared across test modules.

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

from hypothesis import strategies as st

from reference import series_from_counts
from slumber.ingest import write_dataset
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


# Tiny alphabets, so that drawn prefixes nest and some drawn codes match none;
# the prefixes are every text of one or two of A and B.
PREFIXES = sorted(a + b for a in "AB" for b in ("", *"AB"))
CODE_TEXT = st.text("AB1", min_size=1, max_size=3)
# The family ids of one or two of f, g and 1; drawn in shuffled order, they sort apart from it.
FAMILY_IDS = sorted(a + b for a in "fg1" for b in ("", *"fg1"))


@st.composite
def linked_datasets(draw) -> tuple[Dataset, list[str]]:
    """A small valid dataset of papers, families, links and concordance, and the paper ids to report on.

    Fields of study come at levels 0 and 1, repeats included; families tie on
    their priority year, and their ids sort apart from their draw order; links
    and reported ids repeat. Each prefix has its own field id, and its entry's
    name follows from that id, as the report keys names by id. Every paper
    has a curve, and a family's priority may come before, at or after a
    paper's publication and turning years.
    """
    window_end = 1982
    pids = [f"p{i}" for i in range(draw(st.integers(2, 4)))]
    field = st.builds(FieldOfStudy, st.sampled_from(("bio", "chem", "med")), st.integers(0, 1))
    fields = st.lists(field, max_size=3).map(tuple)
    papers = {pid: PaperRecord(pid, draw(st.integers(1976, 1981)), fields_of_study=draw(fields)) for pid in pids}
    series = {}
    for pid, paper in papers.items():
        n_years = window_end - paper.pub_year + 1
        counts = draw(st.lists(st.integers(0, 3), min_size=n_years, max_size=n_years))
        # One year forced to a citation, so that no draw is retried for an all-zero series.
        counts[draw(st.integers(0, n_years - 1))] = draw(st.integers(1, 3))
        series[pid] = series_from_counts(pid, paper.pub_year, counts)
    family = st.tuples(
        st.integers(1977, 1980),
        st.lists(st.integers(0, 3), max_size=2),
        st.integers(0, 2),
        st.lists(CODE_TEXT, min_size=1, max_size=3).map(tuple),
    )
    n_families = draw(st.integers(2, 6))
    ids = draw(st.permutations(FAMILY_IDS))[:n_families]
    drawn = draw(st.lists(family, min_size=n_families, max_size=n_families))
    families = {
        fid: PatentFamilyRecord(fid, year, (year, *sorted(year + d for d in later)), forward, codes)
        for fid, (year, later, forward, codes) in zip(ids, drawn)
    }
    link = st.tuples(st.sampled_from(pids), st.sampled_from(list(families)))
    links = draw(st.lists(link, min_size=3, max_size=12))
    prefixes = draw(st.permutations(PREFIXES))[: draw(st.integers(1, 4))]
    field_ids = draw(st.permutations(range(1, len(prefixes) + 1)))
    dataset = Dataset(
        papers=papers,
        series=series,
        patents=families,
        links=tuple(PatentCitationLink(*link) for link in links),
        concordance=tuple(ConcordanceEntry(p, i, f"field {i}", "sector") for p, i in zip(prefixes, field_ids)),
        window_end=window_end,
        contexts=None,
    )
    return dataset, draw(st.lists(st.sampled_from(pids), min_size=1, max_size=10))


def write_table1_fixture(directory: Path) -> None:
    write_dataset(table1_dataset(), directory)


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "data" / "table1_fixture"
    write_table1_fixture(target)
    print(f"rewrote {target}")
