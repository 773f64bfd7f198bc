"""CitationSeries: the sparse form, its checks and its dense view."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from slumber.model import CitationSeries


@given(st.lists(st.sampled_from((0, 0, 0, 1, 7, 10**6)), min_size=1, max_size=130))
def test_from_counts_round_trips_dense_counts(counts):
    s = CitationSeries.from_counts("p", 1900, counts)
    assert s.counts == tuple(counts)
    assert s.t_m == len(counts) - 1
    assert s.total == sum(counts)
    assert s.offsets == tuple(t for t, c in enumerate(counts) if c)
    assert s.values == tuple(c for c in counts if c)
    assert s.year_counts() == [(1900 + t, c) for t, c in enumerate(counts) if c]


def test_all_zero_series_is_allowed():
    s = CitationSeries.from_counts("p", 2000, (0, 0, 0))
    assert (s.t_m, s.offsets, s.values, s.total) == (2, (), (), 0)
    assert s.counts == (0, 0, 0)
    assert s == CitationSeries("p", 2000, 2)


@pytest.mark.parametrize(
    "t_m,offsets,values,message",
    [
        (3, (0, 2), (1, -4), "positive"),
        (3, (0, 2), (1, 0), "positive"),
        (3, (-1, 2), (1, 1), r"\[0, 3\]"),
        (3, (1, 4), (1, 1), r"\[0, 3\]"),
        (3, (2, 1), (1, 1), "ascending"),
        (3, (1, 1), (1, 1), "ascending"),
        (3, (0, 1, 2), (1, 1), "same length"),
        (3, (0,), (1, 1), "same length"),
        (-1, (), (), "negative"),
    ],
)
def test_construction_rejects_bad_entries(t_m, offsets, values, message):
    with pytest.raises(ValueError, match=message):
        CitationSeries("p", 2000, t_m, offsets, values)


def test_from_counts_rejects_negative_and_empty_counts():
    with pytest.raises(ValueError, match="positive"):
        CitationSeries.from_counts("p", 2000, (3, -1, 0))
    with pytest.raises(ValueError, match="negative"):
        CitationSeries.from_counts("p", 2000, ())
