"""Cumulative citation curve, delay index, and turning year for one paper.

The cumulative fraction C_t (citations accumulated through year t divided by
the window total) is compared against the straight reference line L_t joining
(0, C_0) and (t_m, 1). The delay index is the sum of the per-year gaps
L_t - C_t: positive when the curve sits below the line (late accumulation),
negative when it sits above (early accumulation), zero for a straight curve.
The turning year is the offset where the point (t, C_t) is farthest from the
reference line, breaking ties toward the earliest year.

Everything is computed in exact integer arithmetic over the raw counts, so
results carry no float drift: multiplying every count by a constant leaves
the index and the turning year bit-for-bit unchanged.

profile walks only the years with citations of a sparse CitationSeries and
sums each run of zero years between them in closed form (an arithmetic
series), comparing distances only where the farthest year of a run can lie,
at its end. The tests pin it to a year-by-year reference over the dense
counts, which they keep in tests/reference.py.

Caveat for consumers: the index grows with the observation window, so values
for papers of different ages are not directly comparable. No age
normalization is applied here; compare within a fixed publication window.
"""

from __future__ import annotations

from itertools import chain

from .errors import ZeroCitationsError
from .model import CitationSeries, CurveProfile

AWAKENING = "awakening"
FALLING = "falling"
FLAT = "flat"


def _curve_type(index_numerator: int) -> str:
    if index_numerator > 0:
        return AWAKENING
    if index_numerator < 0:
        return FALLING
    return FLAT


def profile(series: CitationSeries) -> CurveProfile:
    """Full curve profile for one paper: index, turning year and curve class.

    It visits only the years with citations, in one pass. The deviation
    numerator of year t, c0 * t_m + rise * t - t_m * (citations through t)
    with rise = total - c0 >= 0, is L_t - C_t over the common denominator
    total * t_m, and its magnitude is the unnormalized turning distance. It
    is 0 at t = 0 and changes by rise - t_m * counts[t] from year t - 1 to
    year t.

    Across a run of zero years the numerator so grows by rise per year: the
    run adds an arithmetic series to the index sum, and its largest distance
    lies at one end of the run. Ties go to the earlier year, as everywhere,
    yet the run's first year never becomes the turning year, so each run
    needs one comparison, at its last year. If the first year's numerator is
    at most 0, the year before the run is at least as far (its numerator is
    lower by rise). If it is positive, rise is too, so the numerator grows to
    the run's last year, which is farther or the same year.
    """
    total = series.total
    if total == 0:
        raise ZeroCitationsError(series.paper_id)
    t_m = series.t_m
    if t_m < 1:
        raise ValueError("curve spans a single year; reference line undefined")
    offsets, values = series.offsets, series.values
    c0 = values[0] if offsets[0] == 0 else 0
    rise = total - c0
    steps = zip(offsets, values)
    if c0:
        next(steps)
    if offsets[-1] < t_m:
        # The window ends in zero years; the last of them closes the trailing run.
        steps = chain(steps, ((t_m, 0),))
    num = num_sum = best = best_t = prev = 0
    for t, c in steps:
        run = t - prev - 1
        if run:
            # Zero years prev + 1 .. t - 1.
            num_sum += run * num + rise * (run * (run + 1) // 2)
            num += run * rise
            dist = num if num >= 0 else -num
            if dist > best:
                best = dist
                best_t = t - 1
        num += rise - t_m * c
        num_sum += num
        dist = num if num >= 0 else -num
        if dist > best:
            best = dist
            best_t = t
        prev = t
    return CurveProfile(
        paper_id=series.paper_id,
        bcp=num_sum / (total * t_m),
        turning_t=best_t,
        turning_year=series.base_year + best_t,
        turning_type=_curve_type(num_sum),
    )
