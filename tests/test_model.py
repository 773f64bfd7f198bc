"""Model records: CitationSeries's sparse form and checks, and the slotted records."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

import reference
from slumber import cohort, interact, model, patent, stats
from slumber.model import CitationSeries


@given(st.lists(st.sampled_from((0, 0, 0, 1, 7, 10**6)), min_size=1, max_size=130))
def test_from_counts_round_trips_dense_counts(counts):
    s = reference.series_from_counts("p", 1900, counts)
    assert reference.dense_counts(s) == tuple(counts)
    assert s.t_m == len(counts) - 1
    assert s.total == sum(counts)
    assert s.offsets == tuple(t for t, c in enumerate(counts) if c)
    assert s.values == tuple(c for c in counts if c)
    assert s.year_counts() == [(1900 + t, c) for t, c in enumerate(counts) if c]


def test_all_zero_series_is_allowed():
    s = reference.series_from_counts("p", 2000, (0, 0, 0))
    assert (s.t_m, s.offsets, s.values, s.total) == (2, (), (), 0)
    assert reference.dense_counts(s) == (0, 0, 0)
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
        reference.series_from_counts("p", 2000, (3, -1, 0))
    with pytest.raises(ValueError, match="negative"):
        reference.series_from_counts("p", 2000, ())


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: model.FieldOfStudy("arts; humanities", 0), "field of study name must not contain ';'"),
        (lambda: model.PatentFamilyRecord("f", 2000, (2000,), 0, ("A61K;31/00",)), "IPC code"),
        (lambda: model.PatentFamilyRecord("f", 2000, (2000,), 0, ("A61K", "")), "IPC code"),
        (lambda: model.PatentCitationLink("", "f"), "empty id"),
        (lambda: model.PatentCitationLink("p", ""), "empty id"),
        (lambda: model.FieldOfStudy("arts\r", 0), "^field of study name must not contain a carriage return or NUL$"),
        (lambda: model.PaperRecord("p\r1", 2000), "^paper_id, title, doi and pmid must not contain a carriage"),
        (lambda: model.PaperRecord("p", 2000, pmid="1\x00"), "^paper_id, title, doi and pmid must not contain a"),
        (lambda: model.PatentFamilyRecord("f\x00", 2000, (2000,), 0), "^family_id and IPC codes must not"),
        (lambda: model.PatentFamilyRecord("f", 2000, (2000,), 0, ("A61K\r",)), "^family_id and IPC codes"),
        (lambda: model.PatentCitationLink("p", "f\r"), "^link ids must not contain a carriage return or NUL$"),
        (lambda: model.ConcordanceEntry("A61K", 16, "Pharma\rceuticals", "Chemistry"), "^ipc_prefix, wipo_field"),
    ],
    ids=[
        "field-semicolon",
        "ipc-semicolon",
        "ipc-empty",
        "link-paper",
        "link-family",
        "field-cr",
        "paper-id-cr",
        "pmid-nul",
        "family-nul",
        "ipc-cr",
        "link-cr",
        "concordance-cr",
    ],
)
def test_records_refuse_what_the_files_cannot_hold(build, message):
    """A ';' packs several values into one cell; an empty code is dropped on reading, an empty id refused.

    A carriage return or NUL is refused in every text written to a CSV cell:
    the csv module leaves a lone carriage return unquoted before Python 3.13.
    """
    with pytest.raises(ValueError, match=message):
        build()


_SUMMARY = stats.ProportionSummary(0.5, 0.25, 0.75)
SLOTTED_RECORDS = [
    model.FieldOfStudy("Biology", 0),
    model.PaperRecord("p", 2000),
    model.PatentFamilyRecord("f", 2000, (2001,), 0),
    model.PatentCitationLink("p", "f"),
    model.ConcordanceEntry("A61K", 16, "Pharmaceuticals", "Chemistry"),
    model.CitationContextRecord("x", "p", 2001, "s"),
    CitationSeries("p", 2000, 3),
    model.ValidationIssue("error", "p", "m"),
    model.ValidationReport(),
    model.CurveProfile("p", 0.0, 0, 2000, "flat"),
    cohort.CohortAssignment("p", 1, 0.0, cohort.DR),
    patent.PatentIndicators("p", 0),
    interact.InteractionCell("Biology", 16, "Pharmaceuticals", 1),
    interact.InteractionMatrix(()),
    interact.FieldDistribution((), 0),
    _SUMMARY,
    stats.ComparisonResult(_SUMMARY, _SUMMARY, None, 0.0, 1.0),
    stats.TrendWindow(2000, 2004, 1.0, 3),
    stats.SummaryStats(0.0, 1.0, 0.5, None),
    stats.AagrResult(2000, 2010, "arithmetic", 1.0),
]
# Their cached properties need an instance __dict__.
UNSLOTTED = {model.Dataset, cohort.CohortResult}


@pytest.mark.parametrize("record", SLOTTED_RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_slotted_and_frozen(record):
    assert not hasattr(record, "__dict__")
    first = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, first, getattr(record, first))
    assert dataclasses.replace(record) == record


def test_every_record_but_the_cached_ones_is_slotted():
    records = {
        obj
        for module in (model, cohort, patent, interact, stats)
        for obj in vars(module).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
    }
    assert records - UNSLOTTED == {type(r) for r in SLOTTED_RECORDS}
    assert all("__slots__" in vars(cls) for cls in records - UNSLOTTED)
    assert all("__dict__" in vars(cls) for cls in UNSLOTTED)
