"""Canonical data model shared by every analysis stage.

All records are frozen dataclasses validated on construction; a loaded
Dataset is treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .interact import IpcIndex


@dataclass(frozen=True)
class FieldOfStudy:
    name: str
    level: int  # 0 (top level) .. 5

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("field of study name must be non-empty")
        if not 0 <= self.level <= 5:
            raise ValueError(f"field of study level {self.level} outside 0..5")


@dataclass(frozen=True)
class PaperRecord:
    paper_id: str
    pub_year: int
    title: str | None = None
    doi: str | None = None
    pmid: str | None = None
    fields_of_study: tuple[FieldOfStudy, ...] = ()

    def __post_init__(self) -> None:
        if not self.paper_id:
            raise ValueError("paper_id must be non-empty")
        # No upper bound: a paper after the dataset's window end is a
        # validation warning, not an unreadable record.
        if self.pub_year < 1800:
            raise ValueError(f"pub_year {self.pub_year} is before 1800")

    def top_level_fields(self) -> tuple[str, ...]:
        """Distinct level-0 field names, sorted for deterministic iteration."""
        return tuple(sorted({f.name for f in self.fields_of_study if f.level == 0}))


@dataclass(frozen=True)
class PatentFamilyRecord:
    family_id: str
    earliest_priority_year: int
    filing_years: tuple[int, ...]
    forward_citation_count: int
    ipc_codes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.family_id:
            raise ValueError("family_id must be non-empty")
        if not self.filing_years:
            raise ValueError("filing_years must be non-empty")
        if self.forward_citation_count < 0:
            raise ValueError("forward_citation_count must be non-negative")


@dataclass(frozen=True)
class PatentCitationLink:
    paper_id: str
    family_id: str


@dataclass(frozen=True)
class ConcordanceEntry:
    ipc_prefix: str
    wipo_field_id: int  # 1..35
    wipo_field_name: str
    sector: str

    def __post_init__(self) -> None:
        if not self.ipc_prefix:
            raise ValueError("ipc_prefix must be non-empty")
        if not 1 <= self.wipo_field_id <= 35:
            raise ValueError(f"wipo_field_id {self.wipo_field_id} outside 1..35")


@dataclass(frozen=True)
class CitationContextRecord:
    citing_id: str
    cited_paper_id: str
    year: int
    sentence: str

    def __post_init__(self) -> None:
        if not self.sentence:
            raise ValueError("sentence must be non-empty")


@dataclass(frozen=True)
class CitationSeries:
    """Dense yearly citation counts for one paper.

    counts[t] is the number of citations received t years after publication;
    index 0 is the publication year itself, the last index is the end of the
    observation window.
    """

    paper_id: str
    base_year: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("counts must be non-empty")
        if min(self.counts) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def t_m(self) -> int:
        return len(self.counts) - 1

    @cached_property
    def total(self) -> int:
        return sum(self.counts)

    def year_counts(self) -> list[tuple[int, int]]:
        """(calendar year, count) pairs across the whole window."""
        return [(self.base_year + t, c) for t, c in enumerate(self.counts)]


@dataclass(frozen=True)
class Dataset:
    papers: dict[str, PaperRecord]
    series: dict[str, CitationSeries]
    patents: dict[str, PatentFamilyRecord]
    links: tuple[PatentCitationLink, ...]
    concordance: tuple[ConcordanceEntry, ...]
    window_end: int
    contexts: tuple[CitationContextRecord, ...] | None = None

    @cached_property
    def ipc_index(self) -> IpcIndex:
        """The concordance's longest-prefix lookup, built once per dataset."""
        from .interact import IpcIndex

        return IpcIndex(self.concordance)


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    entity_id: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...] = ()

    def errors(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "error")

    def warnings(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "warning")

    def has_errors(self) -> bool:
        return any(i.severity == "error" for i in self.issues)

    def __bool__(self) -> bool:
        return bool(self.issues)


@dataclass(frozen=True)
class CurveProfile:
    """Shape summary of one paper's cumulative citation curve.

    A positive index means citations arrived late relative to a straight-line
    accumulation (delayed recognition); negative means they arrived early and
    then dried up (instant recognition). The turning year is where the curve
    is farthest from the straight reference line: the awakening year for
    positive curves, the falling year for negative ones.
    """

    paper_id: str
    bcp: float
    turning_t: int
    turning_year: int
    turning_type: str  # "awakening" | "falling" | "flat"
