"""Cohort selection: rank papers by delay index, take the two extremes.

Eligibility is a publication-year window plus a minimum citation total over
the observation window. Ranking is by descending index with ties broken by
ascending paper id, so the ordering is total and reproducible. The top
ceil(fraction * N) papers, the fraction as written, are the delayed-recognition
cohort (DR), the bottom ceil(fraction * N) the instant-recognition cohort (IR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter

from .errors import DataError
from .model import CurveProfile, Dataset

DR = "DR"
IR = "IR"
NONE = "NONE"


@dataclass(frozen=True, slots=True)
class CohortAssignment:
    paper_id: str
    rank: int  # 1-based, by descending delay index
    bcp: float
    cohort: str  # "DR" | "IR" | "NONE"


@dataclass(frozen=True)
class CohortResult:
    """The eligible papers' profiles in rank order, cut into the cohorts.

    ranked[:dr_cut] is DR, ranked[ir_cut:] is IR and the papers between
    them are NONE. Only the commands that report every eligible paper read
    a record per paper, so `assignments` is built on first access.
    """

    ranked: tuple[CurveProfile, ...]
    dr_cut: int
    ir_cut: int

    @property
    def eligible_count(self) -> int:
        return len(self.ranked)

    def members(self, cohort: str) -> tuple[str, ...]:
        """The paper ids of cohort DR, IR or NONE, in rank order."""
        bounds = {
            DR: (0, self.dr_cut),
            NONE: (self.dr_cut, self.ir_cut),
            IR: (self.ir_cut, len(self.ranked)),
        }
        if cohort not in bounds:
            raise DataError(f"unknown cohort {cohort!r}; expected {DR!r}, {IR!r} or {NONE!r}")
        start, stop = bounds[cohort]
        return tuple(p.paper_id for p in self.ranked[start:stop])

    @cached_property
    def assignments(self) -> tuple[CohortAssignment, ...]:
        """One record per eligible paper, in rank order."""
        dr_cut, ir_cut = self.dr_cut, self.ir_cut
        return tuple(
            CohortAssignment(
                paper_id=p.paper_id,
                rank=i + 1,
                bcp=p.bcp,
                cohort=DR if i < dr_cut else IR if i >= ir_cut else NONE,
            )
            for i, p in enumerate(self.ranked)
        )


def eligible_ids(
    dataset: Dataset,
    pub_from: int,
    pub_to: int,
    min_total_citations: int,
) -> list[str]:
    """Ids of the profiled papers inside the publication window and at the floor or above.

    The ids ascend, as the keys of dataset.profiles do.
    """
    if pub_to < pub_from:
        raise DataError(f"publication window {pub_from}..{pub_to} is empty")
    if min_total_citations < 1:
        raise DataError("minimum citation total must be at least 1")
    papers, series = dataset.papers, dataset.series
    return [
        pid
        for pid in dataset.profiles
        if pub_from <= papers[pid].pub_year <= pub_to and series[pid].total >= min_total_citations
    ]


def select_cohorts(
    dataset: Dataset,
    pub_from: int,
    pub_to: int,
    min_total_citations: int,
    fraction: float,
) -> CohortResult:
    """Assign every eligible paper to DR, IR, or NONE.

    Each cohort holds ceil(fraction * N) papers. With tiny pools the ceiling
    can make the cuts meet; DR wins the contested middle and IR comes up
    short rather than letting a paper carry two labels. The ranking reads
    the profiles cached on the dataset.
    """
    if not 0.0 < fraction <= 0.5:
        raise DataError(f"cohort fraction {fraction} outside (0, 0.5]")
    ids = eligible_ids(dataset, pub_from, pub_to, min_total_citations)
    if not ids:
        raise DataError("no paper satisfies the eligibility filter")
    profiles = dataset.profiles
    # ids ascend and the sort is stable under reverse, so papers tied on bcp
    # keep id order: the ranking is by (-bcp, paper_id) with no key tuples.
    ranked = [profiles[pid] for pid in ids]
    ranked.sort(key=attrgetter("bcp"), reverse=True)
    n = len(ranked)
    size = math.ceil(Fraction(str(fraction)) * n)  # 0.07 of 100 is 7, not ceil(7.000000000000001)
    return CohortResult(ranked=tuple(ranked), dr_cut=size, ir_cut=max(n - size, size))
