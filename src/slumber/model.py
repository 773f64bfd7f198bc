"""Canonical data model shared by every analysis stage.

All records are frozen dataclasses validated on construction, and each is the
one home of its value rules: it refuses a value that write_dataset would write
and load_dataset not read back equal, by the cell rules of tables or a
context's JSON types, so the value fails where it is made. An integer field
takes an int, not a float or a bool, and an IPC prefix is not blank. A loaded
Dataset is treated as immutable. Every record but Dataset is slotted, so it has
no __dict__ (read one with dataclasses.asdict, not vars). The values every
analysis derives from a Dataset (its IPC lookup, each paper's curve profile and
each paper's citing patent families) are cached properties: computed on first
use and kept on that Dataset instance. A copy made with dataclasses.replace
starts with an empty cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import countOf, lt
from typing import TYPE_CHECKING

from .errors import _shown
from .tables import SEP, not_an_integer, refuse_unwritable

if TYPE_CHECKING:
    from .interact import IpcIndex

# The earliest publication year a paper record accepts.
MIN_PUB_YEAR = 1800


@dataclass(frozen=True, slots=True)
class FieldOfStudy:
    name: str
    level: int  # 0 (top level) .. 5

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("field of study name must be non-empty")
        if SEP in self.name:
            raise ValueError(f"field of study name must not contain {SEP!r}")
        refuse_unwritable("field of study name", self.name)
        if type(self.level) is not int:
            raise not_an_integer("field of study level", self.level)
        if not 0 <= self.level <= 5:
            raise ValueError(f"field of study level {self.level} outside 0..5")


@dataclass(frozen=True, slots=True)
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
        texts = (self.title, self.doi, self.pmid)
        if "" in texts:  # an empty cell reads back as None
            raise ValueError("title, doi and pmid must be None or non-empty")
        refuse_unwritable("paper_id, title, doi and pmid", self.paper_id + "".join(filter(None, texts)))
        if type(self.pub_year) is not int:
            raise not_an_integer("pub_year", self.pub_year)
        # No upper bound: a paper after the dataset's window end is a
        # validation warning, not an unreadable record.
        if self.pub_year < MIN_PUB_YEAR:
            raise ValueError(f"pub_year {self.pub_year} is before {MIN_PUB_YEAR}")

    def top_level_fields(self) -> tuple[str, ...]:
        """Distinct level-0 field names, sorted for deterministic iteration."""
        return tuple(sorted({f.name for f in self.fields_of_study if f.level == 0}))


@dataclass(frozen=True, slots=True)
class PatentFamilyRecord:
    family_id: str
    earliest_priority_year: int
    filing_years: tuple[int, ...]
    forward_citation_count: int
    ipc_codes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.family_id:
            raise ValueError("family_id must be non-empty")
        if type(self.earliest_priority_year) is not int:
            raise not_an_integer("earliest_priority_year", self.earliest_priority_year)
        if type(self.forward_citation_count) is not int:
            raise not_an_integer("forward_citation_count", self.forward_citation_count)
        if not (years := self.filing_years):
            raise ValueError("filing_years must be non-empty")
        if countOf(map(type, years), int) != len(years):
            raise not_an_integer("filing_years", next(y for y in years if type(y) is not int))
        if self.forward_citation_count < 0:
            raise ValueError("forward_citation_count must be non-negative")
        codes = "".join(self.ipc_codes)
        if "" in self.ipc_codes or SEP in codes:
            raise ValueError(f"each IPC code must be non-empty and must not contain {SEP!r}")
        refuse_unwritable("family_id and IPC codes", self.family_id + codes)


@dataclass(frozen=True, slots=True)
class PatentCitationLink:
    paper_id: str
    family_id: str

    def __post_init__(self) -> None:
        if not self.paper_id or not self.family_id:
            raise ValueError("link row has an empty id")
        refuse_unwritable("link ids", self.paper_id + self.family_id)


@dataclass(frozen=True, slots=True)
class ConcordanceEntry:
    ipc_prefix: str
    wipo_field_id: int  # 1..35
    wipo_field_name: str
    sector: str

    def __post_init__(self) -> None:
        if not self.ipc_prefix:
            raise ValueError("ipc_prefix must be non-empty")
        if self.ipc_prefix.isspace():  # normalized, it is "", which every IPC code starts with
            raise ValueError(f"ipc_prefix {_shown(self.ipc_prefix)} is blank")
        text = self.ipc_prefix + self.wipo_field_name + self.sector
        refuse_unwritable("ipc_prefix, wipo_field_name and sector", text)
        if type(self.wipo_field_id) is not int:
            raise not_an_integer("wipo_field_id", self.wipo_field_id)
        if not 1 <= self.wipo_field_id <= 35:
            raise ValueError(f"wipo_field_id {self.wipo_field_id} outside 1..35")


@dataclass(frozen=True, slots=True)
class CitationContextRecord:
    citing_id: str
    cited_paper_id: str
    year: int
    sentence: str

    def __post_init__(self) -> None:
        # The JSON type only: int() takes 1.7 and true, and str() takes null and lists.
        for key in ("citing_id", "cited_paper_id", "year", "sentence"):
            kind, name = (int, "integer") if key == "year" else (str, "string")
            if type(value := getattr(self, key)) is not kind:
                raise ValueError(f"{key} {_shown(value)} is not a JSON {name}")
        if not self.sentence:
            raise ValueError("sentence must be non-empty")


@dataclass(frozen=True, slots=True)
class CitationSeries:
    """Yearly citation counts for one paper, kept sparse.

    The observation window runs from offset 0, the publication year
    base_year, to offset t_m, its end. Only the years with citations are
    stored: offsets[i] is such a year's offset, ascending, and values[i] its
    count (at least 1). Every other year of the window counts 0, so a paper
    with no citations has two empty tuples.
    """

    paper_id: str
    base_year: int
    t_m: int
    offsets: tuple[int, ...] = ()
    values: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if type(self.base_year) is not int:
            raise not_an_integer("base_year", self.base_year)
        if type(self.t_m) is not int:
            raise not_an_integer("t_m", self.t_m)
        if self.t_m < 0:
            raise ValueError(f"window length t_m {self.t_m} is negative")
        offsets, values = self.offsets, self.values
        if len(offsets) != len(values):
            raise ValueError("offsets and values must have the same length")
        if not offsets:
            return
        entries = offsets + values  # both tuples' types in one pass
        if countOf(map(type, entries), int) != len(entries):
            i = next(i for i, v in enumerate(entries) if type(v) is not int)
            raise not_an_integer("offsets" if i < len(offsets) else "values", entries[i])
        if offsets[0] < 0 or offsets[-1] > self.t_m:
            raise ValueError(f"year offsets must lie in [0, {self.t_m}]")
        if not all(map(lt, offsets, offsets[1:])):
            raise ValueError("year offsets must be strictly ascending")
        if min(values) < 1:
            raise ValueError("stored counts must be positive; zero years are left out")

    @property
    def total(self) -> int:
        return sum(self.values)

    def year_counts(self) -> list[tuple[int, int]]:
        """(calendar year, count) pairs of the years with citations, ascending."""
        base = self.base_year
        return [(base + t, c) for t, c in zip(self.offsets, self.values)]


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

    @cached_property
    def profiles(self) -> dict[str, CurveProfile]:
        """Curve profiles of every paper with a computable curve, by ascending id.

        The papers left out, with no citations or a single-year window, are
        the ones validation warns about.
        """
        from . import curve

        series = self.series
        return {
            pid: curve.profile(series[pid])
            for pid in sorted(series)
            if series[pid].values and series[pid].t_m
        }

    @cached_property
    def families(self) -> dict[str, tuple[PatentFamilyRecord, ...]]:
        """Each linked paper's distinct citing families, in family-id order."""
        from . import patent

        return patent.families_by_paper(self)


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    entity_id: str
    message: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...] = ()

    def errors(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "error")

    def warnings(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "warning")

    def has_errors(self) -> bool:
        return any(i.severity == "error" for i in self.issues)


@dataclass(frozen=True, slots=True)
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
