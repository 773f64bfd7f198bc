"""Slow, plain references that the tests pin the fast paths to.

Each function here is the straightforward form of something the package
does faster; the property tests compare the two on random inputs.
"""

from __future__ import annotations

import math
import random
import re
from itertools import accumulate
from pathlib import Path
from typing import Mapping, Sequence

from slumber.cohort import DR, IR, NONE, CohortAssignment
from slumber.curve import AWAKENING, FALLING, FLAT
from slumber.errors import DataError, MalformedRowError
from slumber.ingest import CITATION_COLUMNS, _shown
from slumber.interact import normalize_ipc
from slumber.model import CitationSeries, ConcordanceEntry, CurveProfile, PaperRecord
from slumber.synth import DELAYED, INSTANT, LINEAR, NOISE
from slumber.tables import read_rows


def int_cell(text: str, name: str) -> int:
    """ingest's integer-cell parser, with no memo: ASCII '-?[0-9]+' only.

    A rejected text, one past the int-string limit included, raises
    ValueError naming the column.
    """
    if re.fullmatch("-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:
            pass
    raise ValueError(f"{name} {_shown(text)} is not an integer")


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
        raise DataError(f"paper {series.paper_id!r} has no citations; curve is undefined")
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
    CitationSeries.from_counts at the end. A bad row raises at once, at its
    own line, so a repeated (paper, year) is reported at its second row.
    """
    slots: dict[str, tuple[int, list[int], bytearray]] = {}
    for pid, paper in papers.items():
        n = window_end - paper.pub_year + 1
        if n > 0:
            slots[pid] = (paper.pub_year, [0] * n, bytearray(n))
    for line_no, (pid, year, count) in read_rows(path, CITATION_COLUMNS):
        try:
            year = int_cell(year, "year")
            count = int_cell(count, "count")
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from None
        if count < 0:
            raise MalformedRowError(line_no, f"citation count {count} must be non-negative")
        slot = slots.get(pid)
        outside = f"citation year {year} for paper {_shown(pid)} outside the observation window"
        if slot is None:
            if pid not in papers:
                raise MalformedRowError(line_no, f"citation row references unknown paper {_shown(pid)}")
            raise MalformedRowError(line_no, outside)
        base, counts, seen = slot
        t = year - base
        if t < 0 or year > window_end:
            raise MalformedRowError(line_no, outside)
        if seen[t]:
            raise MalformedRowError(line_no, f"duplicate citation row for paper {_shown(pid)}, year {year}")
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


def delayed_counts_dense(rng: random.Random, t_m: int) -> list[int]:
    """synth's delayed curve as a count for every year: zeros, then a rising ramp."""
    if t_m == 1:
        return [0, 1]
    start = rng.randint(max(1, t_m // 2), t_m - 1)
    return [0] * start + list(range(1, t_m - start + 2))


def instant_counts_dense(rng: random.Random, t_m: int) -> list[int]:
    """synth's instant curve as a count for every year: a ramp falling to zero."""
    peak = rng.randint(2, 9)
    return [max(peak - t, 0) for t in range(t_m + 1)]


def linear_counts_dense(rng: random.Random, t_m: int) -> list[int]:
    """synth's linear curve as a count for every year: one constant count."""
    return [rng.randint(1, 9)] * (t_m + 1)


def noise_counts_dense(rng: random.Random, t_m: int) -> list[int]:
    """synth's noise curve as a count for every year, redrawn until one is non-zero."""
    while True:
        counts = [rng.randint(0, 50) for _ in range(t_m + 1)]
        if sum(counts) > 0:
            return counts


DENSE_SHAPE_BUILDERS = {
    DELAYED: delayed_counts_dense,
    INSTANT: instant_counts_dense,
    LINEAR: linear_counts_dense,
    NOISE: noise_counts_dense,
}


def scale_to_floor_dense(counts: list[int], floor: int) -> list[int]:
    """Every year's count times the least integer that lifts the total to the floor."""
    total = sum(counts)
    k = -(-floor // total)
    return [c * k for c in counts] if k > 1 else counts


def synth_series_dense(
    rng: random.Random, shape: str, paper_id: str, pub_year: int, t_m: int, floor: int
) -> CitationSeries:
    """synth._series by a dense list over every year of the window.

    It draws from rng exactly what synth does, in the same order, and the
    list goes through the checked CitationSeries.from_counts at the end.
    """
    counts = scale_to_floor_dense(DENSE_SHAPE_BUILDERS[shape](rng, t_m), floor)
    return CitationSeries.from_counts(paper_id, pub_year, counts)
