"""Per-paper patent-linkage indicators.

A paper's citing patent families are resolved through the link table with
duplicate links collapsed. The earliest family is the one with the smallest
earliest priority year (ties by family id); its priority year anchors the
first-citation lag, the timing relative to the turning year, and durability
(years from that first priority to the last filing seen in any citing
family).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DataError, _shown
from .model import Dataset, PaperRecord, PatentFamilyRecord

EARLIER = "Earlier"
SAME = "Same"
LATER = "Later"

LAG_FROM_PUBLICATION = "publication"
LAG_FROM_TURNING = "turning"


@dataclass(frozen=True, slots=True)
class PatentIndicators:
    """Link-derived measures for one paper; all None when nothing cites it.

    earliest_filing_year is the earliest citing family's earliest priority
    year (the "first patent citing year"); latest_filing_year is the latest
    filing seen in any citing family.
    """

    paper_id: str
    n_families: int
    earliest_family_id: str | None = None
    earliest_filing_year: int | None = None
    latest_filing_year: int | None = None
    durability_years: int | None = None
    forward_cites_of_earliest: int | None = None
    first_citation_lag: int | None = None
    relative_timing: int | None = None
    timing_class: str | None = None


def families_by_paper(dataset: Dataset) -> dict[str, tuple[PatentFamilyRecord, ...]]:
    """Distinct citing families per paper, in family-id order."""
    grouped: dict[str, dict[str, PatentFamilyRecord]] = defaultdict(dict)
    for link in dataset.links:
        if link.paper_id not in dataset.papers:
            raise DataError(f"link references unknown paper {_shown(link.paper_id)}")
        family = dataset.patents.get(link.family_id)
        if family is None:
            raise DataError(f"link references unknown patent family {_shown(link.family_id)}")
        grouped[link.paper_id][family.family_id] = family
    return {pid: tuple(fams[k] for k in sorted(fams)) for pid, fams in grouped.items()}


def earliest_family(citing: Sequence[PatentFamilyRecord]) -> PatentFamilyRecord:
    return min(citing, key=lambda f: (f.earliest_priority_year, f.family_id))


def classify_timing(relative: int) -> str:
    if relative < 0:
        return EARLIER
    if relative == 0:
        return SAME
    return LATER


def indicators_for(
    paper: PaperRecord,
    citing: Sequence[PatentFamilyRecord],
    turning_year: int,
) -> PatentIndicators:
    """All indicators for one paper given its citing families."""
    if not citing:
        return PatentIndicators(paper_id=paper.paper_id, n_families=0)
    first = earliest_family(citing)
    earliest_filing = first.earliest_priority_year
    latest_filing = max(max(f.filing_years) for f in citing)
    relative = earliest_filing - turning_year
    return PatentIndicators(
        paper_id=paper.paper_id,
        n_families=len(citing),
        earliest_family_id=first.family_id,
        earliest_filing_year=earliest_filing,
        latest_filing_year=latest_filing,
        durability_years=latest_filing - earliest_filing,
        forward_cites_of_earliest=first.forward_citation_count,
        first_citation_lag=earliest_filing - paper.pub_year,
        relative_timing=relative,
        timing_class=classify_timing(relative),
    )


def compute_indicators(dataset: Dataset, paper_ids: Sequence[str]) -> dict[str, PatentIndicators]:
    """Indicators for each requested paper, keyed by paper id.

    Each paper must have a curve profile in dataset.profiles, whose turning
    year anchors the timing.
    """
    grouped, profiles = dataset.families, dataset.profiles
    return {
        pid: indicators_for(dataset.papers[pid], grouped.get(pid, ()), profiles[pid].turning_year)
        for pid in paper_ids
    }


def is_linked(ind: PatentIndicators) -> bool:
    return ind.n_families >= 1


def has_forward_citations(ind: PatentIndicators) -> bool:
    return ind.forward_cites_of_earliest is not None and ind.forward_cites_of_earliest >= 1


def is_durably_cited(ind: PatentIndicators) -> bool:
    return ind.durability_years is not None and ind.durability_years >= 1


# Binary indicators compared across cohorts, in report order.
BINARY_INDICATORS: tuple[tuple[str, object], ...] = (
    ("linked", is_linked),
    ("forward_cited", has_forward_citations),
    ("durably_cited", is_durably_cited),
)


def lag_trend_points(
    indicators: Iterable[PatentIndicators],
    dataset: Dataset,
    mode: str = LAG_FROM_PUBLICATION,
) -> list[tuple[int, float]]:
    """(publication year, lag) pairs for linked papers, for trend windows.

    publication mode: years from publication to the first citing family's
    priority. turning mode: years from that priority to the turning year,
    positive when the patent came first.
    """
    if mode not in (LAG_FROM_PUBLICATION, LAG_FROM_TURNING):
        raise DataError(f"unknown lag mode {mode!r}")
    points = []
    for ind in indicators:
        if ind.n_families == 0:
            continue
        pub_year = dataset.papers[ind.paper_id].pub_year
        if mode == LAG_FROM_PUBLICATION:
            lag = float(ind.first_citation_lag)
        else:
            lag = float(-ind.relative_timing)
        points.append((pub_year, lag))
    points.sort()
    return points
