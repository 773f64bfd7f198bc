"""Proportion intervals, two-group tests, trend windows, and growth rates."""

from __future__ import annotations

import math
import random
import statistics

import pytest
from hypothesis import example, given, strategies as st

import reference
from slumber.errors import DataError
from slumber.stats import (
    TrendWindow,
    aagr,
    moving_window_mean,
    proportion_ci,
    summary_stats,
    two_proportion_test,
)

# Benchmark comparison of three binary indicators between two groups of 200
# papers each.  Frozen from hand-checked Wald/pooled-z arithmetic:
#   row = (k_a, k_b, ci_a, ci_b, ratio_3dp, z_4dp, p_6dp)
BENCHMARK_ROWS = (
    (99, 70, (0.426, 0.564), (0.284, 0.416), 1.414, 2.9355, 0.003330),
    (82, 57, (0.342, 0.478), (0.222, 0.348), 1.439, 2.6251, 0.008663),
    (75, 41, (0.308, 0.442), (0.149, 0.261), 1.829, 3.7465, 0.000179),
)


def test_benchmark_rates_and_intervals():
    for k_a, k_b, ci_a, ci_b, _, _, _ in BENCHMARK_ROWS:
        for k, (lo, hi) in ((k_a, ci_a), (k_b, ci_b)):
            got = proportion_ci(k, 200)
            assert got.rate == k / 200
            assert got.ci_low == pytest.approx(lo, abs=5e-4)
            assert got.ci_high == pytest.approx(hi, abs=5e-4)


def test_benchmark_tests_and_ratios():
    for k_a, k_b, _, _, ratio, z, p in BENCHMARK_ROWS:
        got = two_proportion_test(k_a, 200, k_b, 200)
        assert got.rate_ratio == pytest.approx(ratio, abs=5e-4)
        assert got.z == pytest.approx(z, abs=5.1e-5)
        assert got.p_two_sided == pytest.approx(p, abs=5.1e-7)


def test_ci_matches_direct_wald_formula():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 500)
        k = rng.randint(0, n)
        got = proportion_ci(k, n)
        p = k / n
        half = 1.959963984540054 * math.sqrt(p * (1 - p) / n)
        assert got.ci_low == pytest.approx(max(0.0, p - half), abs=1e-12)
        assert got.ci_high == pytest.approx(min(1.0, p + half), abs=1e-12)


def test_ci_clamps_to_unit_interval():
    assert proportion_ci(1, 10).ci_low == 0.0
    assert proportion_ci(9, 10).ci_high == 1.0
    assert proportion_ci(0, 10).ci_low == 0.0
    assert proportion_ci(0, 10).ci_high == 0.0


def test_ci_symmetry_under_complement():
    for k, n in ((3, 17), (0, 5), (41, 200), (99, 200)):
        a = proportion_ci(k, n)
        b = proportion_ci(n - k, n)
        assert a.ci_low == pytest.approx(1.0 - b.ci_high, abs=1e-12)
        assert a.ci_high == pytest.approx(1.0 - b.ci_low, abs=1e-12)


def test_ci_rejects_bad_inputs():
    with pytest.raises(DataError, match="invalid counts k=-1, n=10"):
        proportion_ci(-1, 10)
    with pytest.raises(DataError, match="invalid counts k=11, n=10"):
        proportion_ci(11, 10)
    with pytest.raises(DataError, match="invalid counts k=1, n=0"):
        proportion_ci(1, 0)


def test_two_proportion_swap_negates_z():
    a = two_proportion_test(99, 200, 70, 200)
    b = two_proportion_test(70, 200, 99, 200)
    assert b.z == pytest.approx(-a.z, abs=1e-12)
    assert b.p_two_sided == pytest.approx(a.p_two_sided, abs=1e-12)
    assert b.rate_ratio == pytest.approx(1.0 / a.rate_ratio, abs=1e-12)


def test_two_proportion_equal_groups():
    r = two_proportion_test(50, 200, 50, 200)
    assert r.z == 0.0
    assert r.p_two_sided == pytest.approx(1.0, abs=1e-12)
    assert r.rate_ratio == 1.0


def test_p_shrinks_as_groups_separate():
    last = None
    for k1 in (75, 80, 90, 99, 120):
        p = two_proportion_test(k1, 200, 70, 200).p_two_sided
        if last is not None:
            assert p < last
        last = p


@pytest.mark.parametrize("k", [0, 10])
def test_degenerate_pool_has_no_test_but_keeps_both_intervals(k):
    r = two_proportion_test(k, 10, k, 10)
    assert r.z is None and r.p_two_sided is None
    assert r.group_a == r.group_b == proportion_ci(k, 10)


def test_ratio_none_when_baseline_empty():
    r = two_proportion_test(5, 10, 0, 10)
    assert r.rate_ratio is None
    assert r.z > 0


def windows_oracle(points, width):
    """Set-based re-derivation of the expected windows."""
    by_year = {}
    for y, v in points:
        by_year.setdefault(y, []).append(v)
    years = sorted(by_year)
    out = []
    for start in range(years[0], years[-1] - width + 2):
        inside = [v for y in range(start, start + width) for v in by_year.get(y, [])]
        if inside:
            out.append((start, start + width - 1, sum(inside) / len(inside), len(inside)))
    return out


def test_constant_series_windows():
    points = [(y, 7.0) for y in range(1970, 1995)]
    trend = moving_window_mean(points, width=5)
    assert len(trend) == 21
    assert trend[0] == TrendWindow(1970, 1974, 7.0, 5)
    assert trend[-1] == TrendWindow(1990, 1994, 7.0, 5)
    assert all(w.mean == 7.0 and w.n_obs == 5 for w in trend)


def test_sparse_points_single_window():
    trend = moving_window_mean([(1970, 2.0), (1972, 4.0)], width=3)
    assert trend == (TrendWindow(1970, 1972, 3.0, 2),)


def test_span_shorter_than_width_gives_no_windows():
    assert moving_window_mean([(1970, 2.0), (1972, 4.0)], width=5) == ()
    assert moving_window_mean([(1980, 1.0)], width=2) == ()


def test_width_one_is_identity_on_observed_years():
    trend = moving_window_mean([(1970, 1.0), (1973, 5.0), (1974, 2.0)], width=1)
    assert trend == (
        TrendWindow(1970, 1970, 1.0, 1),
        TrendWindow(1973, 1973, 5.0, 1),
        TrendWindow(1974, 1974, 2.0, 1),
    )


def test_empty_windows_are_omitted():
    trend = moving_window_mean([(1970, 1.0), (1980, 3.0)], width=2)
    assert trend == (
        TrendWindow(1970, 1971, 1.0, 1),
        TrendWindow(1979, 1980, 3.0, 1),
    )


def test_windows_match_oracle():
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randint(1, 25)
        years = rng.sample(range(1960, 2020), n)
        points = [(y, rng.uniform(-30.0, 30.0)) for y in years]
        width = rng.randint(1, 8)
        got = [
            (w.start_year, w.end_year, w.mean, w.n_obs)
            for w in moving_window_mean(points, width=width)
        ]
        assert got == windows_oracle(points, width)


def test_empty_points_and_bad_widths():
    assert moving_window_mean([]) == ()
    with pytest.raises(DataError, match="window width 0 must be >= 1"):
        moving_window_mean([(1970, 1.0)], width=0)


def test_summary_stats_values():
    s = summary_stats([1.0, 2.0, 3.0, 4.0])
    assert (s.min, s.max, s.median) == (1.0, 4.0, 2.5)
    assert s.sd == pytest.approx(statistics.stdev([1.0, 2.0, 3.0, 4.0]))
    lags = summary_stats([16.0, -28.0, 4.0, 5.0])
    assert (lags.min, lags.max, lags.median) == (-28.0, 16.0, 4.5)


def test_summary_stats_edge_cases():
    single = summary_stats([5.0])
    assert (single.min, single.max, single.median, single.sd) == (5.0, 5.0, 5.0, None)
    with pytest.raises(DataError, match="summary statistics need at least one value"):
        summary_stats([])


def test_aagr_constant_series_is_zero():
    counts = [(y, 40) for y in range(2000, 2011)]
    assert aagr(counts, 2000, 2010, "arithmetic").value_percent == 0.0
    assert aagr(counts, 2000, 2010, "compound").value_percent == 0.0


def test_aagr_doubling_series():
    counts = [(2000 + i, 2**i) for i in range(6)]
    arith = aagr(counts, 2000, 2005, "arithmetic")
    comp = aagr(counts, 2000, 2005, "compound")
    assert arith.value_percent == pytest.approx(100.0, abs=1e-9)
    assert comp.value_percent == pytest.approx(100.0, abs=1e-9)
    assert arith.skipped_years == 0


def test_aagr_balanced_swings_cancel():
    counts = [(2000, 100), (2001, 150), (2002, 150), (2003, 75)]
    got = aagr(counts, 2000, 2003, "arithmetic")
    assert got.value_percent == pytest.approx(100.0 * (0.5 + 0.0 - 0.5) / 3, abs=1e-12)


def test_aagr_skips_zero_denominators():
    got = aagr([(2000, 0), (2001, 5), (2002, 10)], 2000, 2002, "arithmetic")
    assert got.value_percent == pytest.approx(100.0)
    assert got.skipped_years == 1


def test_aagr_missing_years_count_as_zero():
    got = aagr([(2000, 4), (2002, 6)], 2000, 2002, "arithmetic")
    assert got.value_percent == pytest.approx(-100.0)
    assert got.skipped_years == 1


def test_aagr_compound_round_trips():
    rng = random.Random(9)
    for _ in range(100):
        base, span = rng.randint(1950, 2000), rng.randint(1, 30)
        v_base, v_end = rng.randint(1, 500), rng.randint(0, 500)
        got = aagr([(base, v_base), (base + span, v_end)], base, base + span, "compound")
        grown = v_base * (1.0 + got.value_percent / 100.0) ** span
        assert grown == pytest.approx(v_end, rel=1e-9, abs=1e-9)


def test_aagr_error_paths():
    with pytest.raises(DataError, match="every year-over-year denominator is zero"):
        aagr([(2000, 0), (2001, 0)], 2000, 2001, "arithmetic")
    with pytest.raises(DataError, match="count in base year 2000 is zero; compound growth undefined"):
        aagr([(2001, 5)], 2000, 2001, "compound")
    with pytest.raises(DataError, match="end year 2000 must exceed base year 2000"):
        aagr([(2000, 1)], 2000, 2000)
    with pytest.raises(DataError, match="unknown growth method 'geometric'"):
        aagr([(2000, 1), (2001, 2)], 2000, 2001, "geometric")


def _outcome(fn, *args):
    """fn's result, or the text of the DataError it raised."""
    try:
        return fn(*args)
    except DataError as exc:
        return f"DataError: {exc}"


# A count per year, zero years and negative counts included.
_COUNTS = st.sampled_from((0, 0, 0, -3, 1, 2, 5, 40))
# Unsorted (year, count) pairs, some repeating a year and some outside the window.
_PAIRS = st.lists(st.tuples(st.integers(1990, 2025), _COUNTS), max_size=30)
# A count for every year of a run, in any order, so runs of zero years sit
# between cited ones.
_RUNS = st.builds(
    lambda start, counts: [(start + i, c) for i, c in enumerate(counts)],
    st.integers(1990, 2012),
    st.lists(_COUNTS, max_size=20),
).flatmap(st.permutations)


@example([(2000, 5), (2001, 0), (2002, 0), (2003, 4)], 2000, 3, "arithmetic")  # zero run
@example([(2009, 7)], 2009, 1, "arithmetic")  # turning year one step before the end
@example([(2000, 3)], 2000, 10, "arithmetic")  # a single cited year at the base
@example([(2003, 2), (2001, 4), (2002, 8), (2001, 0)], 2000, 3, "arithmetic")  # last repeat wins
@example([(2003, 1), (2002, 3), (2001, 1), (2000, 7)], 2000, 3, "arithmetic")  # summed in year order
@example([(2000, -2), (2001, 3), (2002, -1)], 2000, 2, "arithmetic")  # negative counts
@example([(1999, 4), (2000, 0), (2003, 6), (2004, 9)], 2000, 3, "arithmetic")  # outside years
@example([(2010, 5)], 2010, 0, "arithmetic")  # turning year at the window end
@example([(2000, 0), (2001, 0)], 2000, 1, "arithmetic")  # every denominator zero
@example([(2001, 5)], 2000, 1, "compound")  # zero base
@example([(2000, 1), (2001, 2)], 2000, 1, "geometric")  # unknown method
@example([(2000, 1)], 2000, -2, "compound")  # end before base
@given(
    st.one_of(_PAIRS, _RUNS),
    st.integers(1995, 2012),
    st.integers(-2, 14),
    st.sampled_from(("arithmetic", "compound", "geometric")),
)
def test_aagr_matches_dense_reference(counts, base_year, span, method):
    args = (counts, base_year, base_year + span, method)
    assert _outcome(aagr, *args) == _outcome(reference.aagr_dense, *args)
