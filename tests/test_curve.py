"""Curve index and turning-year behavior against exact rational oracles."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import reference
from slumber import curve
from slumber.errors import ZeroCitationsError
from slumber.model import CitationSeries, CurveProfile


def series(counts, pid="p", base_year=1970) -> CitationSeries:
    return CitationSeries.from_counts(pid, base_year, counts)


def oracle_bcp(counts) -> Fraction:
    """Direct rational evaluation of the summed line-minus-curve gaps."""
    total = sum(counts)
    t_m = len(counts) - 1
    cum, run = [], 0
    for c in counts:
        run += c
        cum.append(Fraction(run, total))
    c0 = cum[0]
    line = [c0 + (1 - c0) * Fraction(t, t_m) for t in range(t_m + 1)]
    return sum(l - c for l, c in zip(line, cum))


def oracle_turning_t(counts) -> int:
    """Exhaustive argmax of the squared point-to-line distance, earliest tie."""
    total = sum(counts)
    t_m = len(counts) - 1
    cum, run = [], 0
    for c in counts:
        run += c
        cum.append(Fraction(run, total))
    c0 = cum[0]
    denom = (1 - c0) ** 2 + t_m * t_m
    best_t, best = 0, Fraction(0)
    for t in range(t_m + 1):
        d2 = ((1 - c0) * t - t_m * (cum[t] - c0)) ** 2 / denom
        if d2 > best:
            best, best_t = d2, t
    return best_t


def random_counts(rng: random.Random) -> list[int]:
    t_m = rng.randint(2, 60)
    while True:
        counts = [rng.randint(0, 50) for _ in range(t_m + 1)]
        if sum(counts) > 0:
            return counts


def gaps(counts) -> list[Fraction]:
    """L_t - C_t for every year, from reference.deviation_numerators."""
    den = sum(counts) * (len(counts) - 1)
    return [Fraction(n, den) for n in reference.deviation_numerators(counts)]


def test_cumulative_fraction_examples():
    # C = (0, 1, 1) against L = (0, 1/2, 1): the curve jumps above the line.
    assert gaps([0, 3, 0]) == [0, Fraction(-1, 2), 0]
    assert curve.profile(series([0, 3, 0])) == CurveProfile("p", -0.5, 1, 1971, curve.FALLING)
    # C = (1/4, 1/2, 3/4, 1) is its own reference line.
    assert gaps([1, 1, 1, 1]) == [0, 0, 0, 0]
    assert curve.profile(series([1, 1, 1, 1])) == CurveProfile("p", 0.0, 0, 1970, curve.FLAT)


def test_all_zero_counts_rejected():
    with pytest.raises(ZeroCitationsError):
        curve.profile(series([0, 0, 0]))
    with pytest.raises(ZeroCitationsError):
        reference.profile_dense(series([0, 0, 0]))


def test_reference_line_examples():
    # L = (0, 1/4, 1/2, 3/4, 1) over C = (0, 0, 0, 0, 1).
    assert gaps([0, 0, 0, 0, 5]) == [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 0]
    assert curve.profile(series([0, 0, 0, 0, 5])) == CurveProfile("p", 1.5, 3, 1973, curve.AWAKENING)
    # L = (1, 1, 1) when every citation falls in year 0.
    assert gaps([5, 0, 0]) == [0, 0, 0]
    assert curve.profile(series([5, 0, 0])) == CurveProfile("p", 0.0, 0, 1970, curve.FLAT)
    # L = (1/2, 3/4, 1) over C = (1/2, 1/2, 1).
    assert gaps([2, 0, 2]) == [0, Fraction(1, 4), 0]
    assert curve.profile(series([2, 0, 2])) == CurveProfile("p", 0.25, 1, 1971, curve.AWAKENING)


def test_single_year_window_rejected():
    with pytest.raises(ValueError):
        curve.profile(series([4]))
    with pytest.raises(ValueError):
        reference.profile_dense(series([4]))


def test_extreme_identities():
    for t_m in range(2, 61):
        late = curve.profile(series([0] * t_m + [9]))
        assert math.isclose(late.bcp, (t_m - 1) / 2, abs_tol=1e-9)
        early = curve.profile(series([0, 9] + [0] * (t_m - 1)))
        assert math.isclose(early.bcp, -(t_m - 1) / 2, abs_tol=1e-9)


def test_uniform_is_zero_and_flat():
    for t_m in (2, 7, 45):
        prof = curve.profile(series([3] * (t_m + 1)))
        assert prof.bcp == 0.0
        assert (prof.turning_t, prof.turning_type) == (0, curve.FLAT)


def test_degenerate_all_in_year_zero_is_flat():
    prof = curve.profile(series([7, 0, 0, 0]))
    assert prof.bcp == 0.0
    assert (prof.turning_t, prof.turning_type) == (0, curve.FLAT)


def test_small_late_series_frozen_value():
    # t_m = 5, single citation in the final year.
    assert curve.profile(series([0, 0, 0, 0, 0, 1])).bcp == 2.0
    assert oracle_bcp([0, 0, 0, 0, 0, 1]) == 2


def test_bcp_matches_rational_oracle():
    rng = random.Random(101)
    for _ in range(300):
        counts = random_counts(rng)
        got = curve.profile(series(counts)).bcp
        assert math.isclose(got, float(oracle_bcp(counts)), rel_tol=0, abs_tol=1e-9)


def test_turning_matches_distance_oracle():
    rng = random.Random(202)
    for _ in range(300):
        counts = random_counts(rng)
        assert curve.profile(series(counts)).turning_t == oracle_turning_t(counts)


def test_turning_tie_breaks_to_earliest():
    # Symmetric staircase: distances at t=1 and t=2 are equal.
    counts = [0, 1, 0, 1]
    cum = [Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1)]
    d = lambda t: abs(1 * t - 3 * cum[t])  # noqa: E731 - unnormalized distance
    assert d(1) == d(2)
    assert curve.profile(series(counts)).turning_t == 1


def test_awakening_fixture_turns_in_2004():
    # 1971 paper, distance maximized 33 years out.
    counts = [0] * 33 + [2] + [18] * 11
    s = series(counts, base_year=1971)
    assert s.t_m == 44 and s.total == 200
    prof = curve.profile(s)
    assert prof.turning_t == 33
    assert prof.turning_year == 2004
    assert prof.turning_type == curve.AWAKENING
    assert prof.bcp > 0


def test_falling_fixture_turns_in_1977():
    # 1970 paper, cited hard for eight years and then ignored.
    counts = [25] * 8 + [0] * 38
    s = series(counts, base_year=1970)
    assert s.t_m == 45 and s.total == 200
    prof = curve.profile(s)
    assert prof.turning_t == 7
    assert prof.turning_year == 1977
    assert prof.turning_type == curve.FALLING
    assert prof.bcp < 0


def test_scale_invariance_bit_identical():
    rng = random.Random(303)
    for _ in range(200):
        counts = random_counts(rng)
        base = curve.profile(series(counts))
        for k in (2, 7, 100):
            scaled = curve.profile(series([c * k for c in counts]))
            assert scaled.bcp == base.bcp
            assert scaled.turning_t == base.turning_t
            assert scaled.turning_type == base.turning_type


def test_sign_coherence_for_monotone_counts():
    rng = random.Random(404)
    for _ in range(100):
        t_m = rng.randint(2, 40)
        steps = [rng.randint(0, 4) for _ in range(t_m)]
        # Positive first and last steps keep the cumulative curve strictly
        # bent in both orientations (all-equal tails would make it linear).
        steps[0] = rng.randint(1, 4)
        steps[-1] = rng.randint(1, 4)
        rising = [1]
        for step in steps:
            rising.append(rising[-1] + step)
        up = curve.profile(series(rising))
        assert up.bcp > 0
        assert up.turning_type == curve.AWAKENING
        down = curve.profile(series(rising[::-1]))
        assert down.bcp < 0
        assert down.turning_type == curve.FALLING


def test_reflection_negates_index_and_keeps_turning():
    # With C_0 = 0 and every t_m * c_t <= 2 * total, the reflection of the
    # curve across the reference line is itself an integer-count series with
    # total T * t_m.
    rng = random.Random(505)
    checked = 0
    while checked < 100:
        t_m = rng.randint(2, 8)
        counts = [0] + [rng.randint(0, 3) for _ in range(t_m)]
        total = sum(counts)
        if total == 0 or max(counts) * t_m > 2 * total:
            continue
        reflected = [0] + [2 * total - t_m * c for c in counts[1:]]
        assert sum(reflected) == total * t_m
        assert oracle_bcp(reflected) == -oracle_bcp(counts)
        base = curve.profile(series(counts))
        mirror = curve.profile(series(reflected))
        assert math.isclose(mirror.bcp, -base.bcp, abs_tol=1e-12)
        if base.turning_type != curve.FLAT:
            assert mirror.turning_t == base.turning_t
        checked += 1


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=61).filter(lambda c: sum(c) > 0))
def test_bound_property(counts):
    t_m = len(counts) - 1
    assert abs(curve.profile(series(counts)).bcp) <= (t_m - 1) / 2 + 1e-9


def test_profile_internal_consistency():
    rng = random.Random(606)
    for _ in range(100):
        counts = random_counts(rng)
        s = series(counts)
        prof = curve.profile(s)
        t_m, fractions = s.t_m, [cum / s.total for cum in itertools.accumulate(counts)]
        line = [fractions[0] + (1 - fractions[0]) * t / t_m for t in range(t_m + 1)]
        assert math.isclose(prof.bcp, sum(l - c for l, c in zip(line, fractions)), abs_tol=1e-9)
        assert prof.turning_year == 1970 + prof.turning_t
        if prof.bcp > 0:
            assert prof.turning_type == curve.AWAKENING
        elif prof.bcp < 0:
            assert prof.turning_type == curve.FALLING
        else:
            assert prof.turning_type == curve.FLAT


@st.composite
def single_nonzero_counts(draw) -> list[int]:
    counts = [0] * draw(st.integers(min_value=2, max_value=130))
    counts[draw(st.integers(min_value=0, max_value=len(counts) - 1))] = draw(st.integers(1, 10**6))
    return counts


@st.composite
def sparse_window_counts(draw) -> list[int]:
    """A window of up to 130 years with a few cited years among zero runs.

    Leading and trailing zero runs are common, and so are runs across which
    the deviation numerator changes sign.
    """
    counts = [0] * draw(st.integers(min_value=2, max_value=130))
    for t in draw(st.lists(st.integers(0, len(counts) - 1), min_size=1, max_size=8)):
        counts[t] = draw(st.sampled_from((1, 2, 3, 50, 10**6)))
    return counts


@st.composite
def mirrored_counts(draw) -> list[int]:
    """Equal counts at offsets t and t_m - t, with 1 <= t and a zero run of at
    least two years between them, whose two ends are equally far from the
    reference line (see test_mirrored_counts_tie_at_both_run_ends)."""
    t_m = draw(st.integers(min_value=5, max_value=129))
    t = draw(st.integers(min_value=1, max_value=(t_m - 3) // 2))
    counts = [0] * (t_m + 1)
    counts[t] = counts[t_m - t] = draw(st.integers(1, 50))
    return counts


profile_counts = st.one_of(
    st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=130),
    # Few distinct values: long zero runs and tied turning distances.
    st.lists(st.sampled_from((0, 0, 0, 1, 2)), min_size=2, max_size=130),
    single_nonzero_counts(),
    sparse_window_counts(),
    mirrored_counts(),
).filter(lambda c: sum(c) > 0)


def assert_profile_matches_reference(counts, base_year=1970):
    s = series(counts, base_year=base_year)
    assert curve.profile(s) == reference.profile_dense(s)


@given(profile_counts, st.integers(min_value=1800, max_value=2015))
def test_profile_matches_reference_composition(counts, base_year):
    assert_profile_matches_reference(counts, base_year)


@given(mirrored_counts())
def test_mirrored_counts_tie_at_both_run_ends(counts):
    t_m = len(counts) - 1
    t = counts.index(max(counts))
    nums = reference.deviation_numerators(counts)
    first, last = nums[t + 1], nums[t_m - t - 1]
    assert first == -last != 0
    assert_profile_matches_reference(counts)


def zero_run_ends(counts) -> list[tuple[int, int]]:
    """Deviation numerators at the first and last year of each run of two or
    more zero years after year 0."""
    nums = reference.deviation_numerators(counts)
    ends, start = [], None
    for t in range(1, len(counts) + 1):
        if t < len(counts) and counts[t] == 0:
            start = t if start is None else start
        else:
            if start is not None and t - 1 > start:
                ends.append((nums[start], nums[t - 1]))
            start = None
    return ends


def test_profile_matches_reference_on_every_small_series():
    # Every series of 2 to 8 years over the counts 0, 1 and 2.
    seen = {"leading run": 0, "trailing run": 0, "sign change": 0, "tied ends": 0}
    for n in range(2, 9):
        for counts in itertools.product((0, 1, 2), repeat=n):
            if not any(counts):
                continue
            assert_profile_matches_reference(counts)
            seen["leading run"] += counts[:3] == (0, 0, 0)
            seen["trailing run"] += counts[-2:] == (0, 0)
            for first, last in zero_run_ends(counts):
                seen["sign change"] += first * last < 0
                seen["tied ends"] += first == -last != 0
    assert min(seen.values()) > 0, seen
