"""Statistical kernels: proportion intervals, two-group tests, trends, growth.

Conventions are pinned for reproducibility:
  - 95% Wald interval for a binomial proportion, clamped to [0, 1].
  - Pooled two-proportion z-test, two-sided p via the standard normal CDF
    (stdlib NormalDist, erf-based, abs error far below 1e-7), no continuity
    correction.
  - Sample (n-1) standard deviation; median is the midpoint convention.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .errors import DataError

_NORMAL = statistics.NormalDist()

# The two-sided standard normal quantile of a 95% interval.
_Z95 = _NORMAL.inv_cdf(0.5 + 0.95 / 2.0)


@dataclass(frozen=True, slots=True)
class ProportionSummary:
    rate: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    group_a: ProportionSummary
    group_b: ProportionSummary
    rate_ratio: float | None
    z: float | None  # None, as is p_two_sided, when the pooled rate is 0 or 1
    p_two_sided: float | None


@dataclass(frozen=True, slots=True)
class TrendWindow:
    start_year: int
    end_year: int
    mean: float
    n_obs: int


@dataclass(frozen=True, slots=True)
class SummaryStats:
    min: float
    max: float
    median: float
    sd: float | None  # None when fewer than two values


@dataclass(frozen=True, slots=True)
class AagrResult:
    base_year: int
    end_year: int
    method: str  # "arithmetic" | "compound"
    value_percent: float
    skipped_years: int = 0  # arithmetic only: years dropped for a zero denominator


def proportion_ci(k: int, n: int) -> ProportionSummary:
    """95% Wald confidence interval for k successes out of n trials."""
    if n < 1 or not 0 <= k <= n:
        raise DataError(f"invalid counts k={k}, n={n}")
    rate = k / n
    half = _Z95 * (rate * (1.0 - rate) / n) ** 0.5
    return ProportionSummary(rate=rate, ci_low=max(0.0, rate - half), ci_high=min(1.0, rate + half))


def two_proportion_test(k1: int, n1: int, k2: int, n2: int) -> ComparisonResult:
    """Pooled z-test comparing k1/n1 against k2/n2 (two-sided).

    The rate ratio is group A relative to group B, or None when group B has
    zero events. z and p are None when the pooled rate is 0 or 1, where the
    test is undefined.
    """
    a = proportion_ci(k1, n1)
    b = proportion_ci(k2, n2)
    ratio = (a.rate / b.rate) if k2 > 0 else None
    z = p = None
    if 0 < k1 + k2 < n1 + n2:
        pooled = (k1 + k2) / (n1 + n2)
        se = (pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)) ** 0.5
        z = (a.rate - b.rate) / se
        p = 2.0 * (1.0 - _NORMAL.cdf(abs(z)))
    return ComparisonResult(group_a=a, group_b=b, rate_ratio=ratio, z=z, p_two_sided=p)


def moving_window_mean(points: Iterable[tuple[int, float]], width: int = 5) -> tuple[TrendWindow, ...]:
    """Means over successive, overlapping fixed-width year windows, in start order.

    Window starts run year by year from the earliest year to the latest year
    minus width + 1; windows containing no observations are omitted, so no
    points, or a span shorter than width, give an empty tuple.
    """
    if width < 1:
        raise DataError(f"window width {width} must be >= 1")
    pts = sorted(points)
    if not pts:
        return ()
    years = [y for y, _ in pts]
    lo, hi = years[0], years[-1]
    windows = []
    for start in range(lo, hi - width + 2):
        end = start + width - 1
        values = [v for y, v in pts if start <= y <= end]
        if not values:
            continue
        windows.append(
            TrendWindow(start_year=start, end_year=end, mean=sum(values) / len(values), n_obs=len(values))
        )
    return tuple(windows)


def summary_stats(values: Sequence[float]) -> SummaryStats:
    """Min, max, midpoint median, and sample standard deviation."""
    if not values:
        raise DataError("summary statistics need at least one value")
    sd = statistics.stdev(values) if len(values) >= 2 else None
    return SummaryStats(
        min=min(values),
        max=max(values),
        median=statistics.median(values),
        sd=sd,
    )


def aagr(
    annual_counts: Iterable[tuple[int, int]],
    base_year: int,
    end_year: int,
    method: Literal["arithmetic", "compound"] = "arithmetic",
) -> AagrResult:
    """Annual average growth rate over (base_year, end_year], in percent.

    arithmetic: mean of the year-over-year relative changes, in year order,
    from each year in [base_year, end_year) with a non-zero count (an uncited
    next year is a -100% change); skipped_years counts the other steps.
    compound: ((v_end / v_base) ** (1 / (end - base)) - 1).
    Years absent from the input count as zero; a repeated year's last count wins.
    """
    if end_year <= base_year:
        raise DataError(f"end year {end_year} must exceed base year {base_year}")
    by_year = dict(annual_counts)
    if method == "arithmetic":
        changes = [
            (by_year.get(y + 1, 0) - prev) / prev
            for y, prev in sorted(by_year.items())
            if prev and base_year <= y < end_year
        ]
        if not changes:
            raise DataError("every year-over-year denominator is zero")
        value = 100.0 * sum(changes) / len(changes)
        skipped = end_year - base_year - len(changes)
        return AagrResult(base_year, end_year, "arithmetic", value, skipped_years=skipped)
    if method == "compound":
        v_base = by_year.get(base_year, 0)
        v_end = by_year.get(end_year, 0)
        if v_base == 0:
            raise DataError(f"count in base year {base_year} is zero; compound growth undefined")
        value = 100.0 * ((v_end / v_base) ** (1.0 / (end_year - base_year)) - 1.0)
        return AagrResult(base_year, end_year, "compound", value)
    raise DataError(f"unknown growth method {method!r}")
