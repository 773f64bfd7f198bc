"""Slow, plain references that the tests pin the fast paths to.

Each function here is the straightforward form of something the package
does faster; the property tests compare the two on random inputs.
"""

from __future__ import annotations

import math
from itertools import accumulate
from pathlib import Path
from typing import Mapping, Sequence

from slumber.cohort import DR, IR, NONE, CohortAssignment
from slumber.curve import AWAKENING, FALLING, FLAT
from slumber.errors import DataError, MalformedRowError, RowOutOfWindowError, ZeroCitationsError
from slumber.ingest import CITATION_COLUMNS, _int_cell
from slumber.interact import normalize_ipc
from slumber.model import CitationSeries, ConcordanceEntry, CurveProfile, PaperRecord
from slumber.tables import read_rows


def dense_counts(series: CitationSeries) -> tuple[int, ...]:
    """The series' count in every year of its window, zero years included."""
    counts = [0] * (series.t_m + 1)
    for t, c in zip(series.offsets, series.values):
        counts[t] = c
    return tuple(counts)


def deviation_numerators(counts: Sequence[int]) -> list[int]:
    """L_t - C_t for every year t, as integers over the denominator total * t_m.

    C_t is the share of citations through year t and L_t the straight line
    from (0, C_0) to (t_m, 1). Each magnitude is also the distance of
    (t, C_t) from that line, up to a constant factor.
    """
    t_m, total, c0 = len(counts) - 1, sum(counts), counts[0]
    return [c0 * t_m + (total - c0) * t - t_m * cum for t, cum in enumerate(accumulate(counts))]


def profile_dense(series: CitationSeries) -> CurveProfile:
    """curve.profile by a pass over every year of the window.

    The index is the numerators' sum over total * t_m, and the turning year
    is the earliest year whose numerator is largest in magnitude.
    """
    counts = dense_counts(series)
    total, t_m = sum(counts), series.t_m
    if total == 0:
        raise ZeroCitationsError(series.paper_id)
    if t_m < 1:
        raise ValueError("curve spans a single year; reference line undefined")
    nums = deviation_numerators(counts)
    dists = [abs(n) for n in nums]
    turning_t = dists.index(max(dists))
    num_sum = sum(nums)
    return CurveProfile(
        paper_id=series.paper_id,
        bcp=num_sum / (total * t_m),
        turning_t=turning_t,
        turning_year=series.base_year + turning_t,
        turning_type=AWAKENING if num_sum > 0 else FALLING if num_sum < 0 else FLAT,
    )


def wipo_field_for(code: str, concordance: Sequence[ConcordanceEntry]) -> ConcordanceEntry | None:
    """interact.IpcIndex.lookup by a scan over every concordance entry.

    The longest matching prefix wins, equal prefixes go to the lowest field
    id, and entries equal in both to the first in concordance order.
    """
    norm = normalize_ipc(code)
    best: ConcordanceEntry | None = None
    best_key: tuple[int, int] | None = None
    for entry in concordance:
        prefix = normalize_ipc(entry.ipc_prefix)
        if not norm.startswith(prefix):
            continue
        key = (-len(prefix), entry.wipo_field_id)
        if best_key is None or key < best_key:
            best, best_key = entry, key
    return best


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
