"""Exception hierarchy for the slumber toolkit.

Everything raised on bad *data* derives from DataError so the CLI can map it
to exit code 1; genuine environment failures (unreadable files, full disks)
surface as OSError and map to exit code 2.
"""

from __future__ import annotations


class SlumberError(Exception):
    """Base class for all toolkit errors."""


class DataError(SlumberError):
    """Input data violates a documented contract."""


class DuplicateIdError(DataError):
    def __init__(self, entity_id: str):
        self.entity_id = entity_id
        super().__init__(f"duplicate id: {entity_id!r}")


class MalformedRowError(DataError):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class MissingColumnError(DataError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"missing required column: {name!r}")


class RowOutOfWindowError(DataError):
    def __init__(self, year: int, paper_id: str = ""):
        self.year = year
        self.paper_id = paper_id
        who = f" for paper {paper_id!r}" if paper_id else ""
        super().__init__(f"citation year {year}{who} outside the observation window")


class FieldIdOutOfRangeError(DataError):
    def __init__(self, value: int):
        self.value = value
        super().__init__(f"technology field id {value} outside 1..35")


class ZeroCitationsError(DataError):
    def __init__(self, paper_id: str):
        self.paper_id = paper_id
        super().__init__(f"paper {paper_id!r} has no citations; curve is undefined")


class EmptyEligibleSetError(DataError):
    def __init__(self) -> None:
        super().__init__("no paper satisfies the eligibility filter")


class UnresolvedFamilyError(DataError):
    def __init__(self, family_id: str):
        self.family_id = family_id
        super().__init__(f"link references unknown patent family {family_id!r}")


class NoPatentCitationsError(DataError):
    def __init__(self, paper_id: str):
        self.paper_id = paper_id
        super().__init__(f"paper {paper_id!r} has no citing patent families")


class InvalidCountsError(DataError):
    pass


class DegeneratePoolError(DataError):
    def __init__(self) -> None:
        super().__init__("pooled rate is 0 or 1; z statistic undefined")


class ZeroBaselineError(DataError):
    def __init__(self) -> None:
        super().__init__("baseline group has zero events; rate ratio undefined")


class InsufficientDataError(DataError):
    pass


class AllDenominatorsZeroError(DataError):
    def __init__(self) -> None:
        super().__init__("every year-over-year denominator is zero")


class ZeroBaseError(DataError):
    def __init__(self, base_year: int):
        self.base_year = base_year
        super().__init__(f"count in base year {base_year} is zero; compound growth undefined")


class ConfigError(SlumberError):
    """Bad run configuration (file contents or environment variables)."""
