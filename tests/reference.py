"""Slow, plain references that the tests pin the fast paths to.

Each function here is the straightforward form of something the package
does faster; the property tests compare the two on random inputs.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping

from slumber.cohort import DR, IR, NONE, CohortAssignment
from slumber.errors import DataError, MalformedRowError, RowOutOfWindowError
from slumber.ingest import CITATION_COLUMNS, _int_cell
from slumber.model import CitationSeries, CurveProfile, PaperRecord
from slumber.tables import read_rows


def read_citations_dense(
    path: Path, papers: dict[str, PaperRecord], window_end: int
) -> dict[str, CitationSeries]:
    """ingest.read_citations by a dense working list over each paper's window.

    Every count is written to its year's slot, a second list marks the
    years a row has set, and each list goes through the checked
    CitationSeries.from_counts at the end.
    """
    slots: dict[str, tuple[int, list[int], bytearray]] = {}
    for pid, paper in papers.items():
        n = window_end - paper.pub_year + 1
        if n > 0:
            slots[pid] = (paper.pub_year, [0] * n, bytearray(n))
    for line_no, (pid, year, count) in read_rows(path, CITATION_COLUMNS):
        year = _int_cell(year, "year", line_no)
        count = _int_cell(count, "count", line_no)
        if count < 0:
            raise MalformedRowError(line_no, f"citation count {count} must be non-negative")
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
        pid: CitationSeries.from_counts(pid, base, counts)
        for pid, (base, counts, _) in slots.items()
    }


def cohort_assignments(
    profiles: Mapping[str, CurveProfile], paper_ids: list[str], fraction: float
) -> list[CohortAssignment]:
    """cohort.select_cohorts' records, ranked by the key (-bcp, paper_id)."""
    ranked = sorted(paper_ids, key=lambda pid: (-profiles[pid].bcp, pid))
    n = len(ranked)
    size = math.ceil(fraction * n)
    ir_cut = max(n - size, size)
    return [
        CohortAssignment(
            paper_id=pid,
            rank=i + 1,
            bcp=profiles[pid].bcp,
            cohort=DR if i < size else IR if i >= ir_cut else NONE,
        )
        for i, pid in enumerate(ranked)
    ]
