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

Two paths compute the same values. profile, the one every command uses,
walks only the years with citations of a sparse CitationSeries and sums
each run of zero years between them in closed form (an arithmetic series),
comparing distances only where the farthest year of a run can lie, at its
end. cumulative_fraction, bcp and turning_point are the slow year-by-year
reference over the dense counts; the tests pin profile to them.

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


class CumulativeCurve:
    """Cumulative citation fractions C_0..C_{t_m}, kept exact internally.

    The raw running totals and the overall total are retained so downstream
    index and turning-point computations can stay in integer arithmetic;
    ``fractions`` surfaces the float view with the final entry exactly 1.
    """

    __slots__ = ("cumulative", "total")

    def __init__(self, cumulative: tuple[int, ...], total: int):
        if len(cumulative) < 1:
            raise ValueError("curve needs at least one point")
        if total <= 0:
            raise ValueError("curve total must be positive")
        if cumulative[-1] != total:
            raise ValueError("running totals must end at the overall total")
        self.cumulative = cumulative
        self.total = total

    @property
    def t_m(self) -> int:
        return len(self.cumulative) - 1

    @property
    def fractions(self) -> tuple[float, ...]:
        return tuple(c / self.total for c in self.cumulative)

    def __repr__(self) -> str:  # pragma: no cover
        return f"CumulativeCurve(t_m={self.t_m}, total={self.total})"


def cumulative_fraction(series: CitationSeries) -> CumulativeCurve:
    """Running citation share per year; requires at least one citation."""
    total = series.total
    if total == 0:
        raise ZeroCitationsError(series.paper_id)
    running = 0
    cumulative = []
    for c in series.counts:
        running += c
        cumulative.append(running)
    return CumulativeCurve(tuple(cumulative), total)


def _require_window(curve: CumulativeCurve) -> None:
    if curve.t_m < 1:
        raise ValueError("curve spans a single year; reference line undefined")


def reference_line(curve: CumulativeCurve) -> list[float]:
    """Straight line from (0, C_0) to (t_m, 1), evaluated at every year."""
    _require_window(curve)
    t_m, total = curve.t_m, curve.total
    c0 = curve.cumulative[0]
    # L_t = (c0 * t_m + (total - c0) * t) / (total * t_m), exact per entry.
    den = total * t_m
    return [(c0 * t_m + (total - c0) * t) / den for t in range(t_m + 1)]


def _deviation_numerators(curve: CumulativeCurve) -> list[int]:
    """Integer numerators of L_t - C_t over the common denominator total*t_m."""
    t_m = curve.t_m
    total = curve.total
    c0 = curve.cumulative[0]
    return [
        c0 * t_m + (total - c0) * t - t_m * cum
        for t, cum in enumerate(curve.cumulative)
    ]


def bcp(curve: CumulativeCurve) -> float:
    """Delay index: sum over years of (reference line - cumulative fraction)."""
    _require_window(curve)
    num = sum(_deviation_numerators(curve))
    return num / (curve.total * curve.t_m)


def turning_point(curve: CumulativeCurve) -> tuple[int, str]:
    """Year offset farthest from the reference line, plus the curve class.

    Distance is the unsigned perpendicular distance from (t, C_t) to the
    line; its constant normalization is dropped so the comparison is exact.
    Ties go to the earliest offset. The class follows the sign of the index:
    awakening for positive, falling for negative, flat for zero.
    """
    _require_window(curve)
    t_m = curve.t_m
    total = curve.total
    c0 = curve.cumulative[0]
    best_t = 0
    best = 0
    for t, cum in enumerate(curve.cumulative):
        d = abs((total - c0) * t - t_m * (cum - c0))
        if d > best:
            best = d
            best_t = t
    return best_t, _curve_type(sum(_deviation_numerators(curve)))


def _curve_type(index_numerator: int) -> str:
    if index_numerator > 0:
        return AWAKENING
    if index_numerator < 0:
        return FALLING
    return FLAT


def profile(series: CitationSeries) -> CurveProfile:
    """Full curve profile for one paper: index, turning year and curve class.

    Equal to composing cumulative_fraction with bcp and turning_point, but
    it visits only the years with citations, in one pass. The deviation
    numerator (see _deviation_numerators) is 0 at t = 0 and changes by
    rise - t_m * counts[t] from year t - 1 to year t, where
    rise = total - c0 >= 0; its magnitude is the unnormalized turning
    distance.

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
