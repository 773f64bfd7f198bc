"""Patent-linkage indicators: earliest family, durability, timing classes."""

from __future__ import annotations

import pytest

from fixture_builders import two_family_paper
from reference import series_from_counts
from slumber import patent
from slumber.errors import DataError
from slumber.model import (
    Dataset,
    PaperRecord,
    PatentCitationLink,
    PatentFamilyRecord,
)


def link_ds(papers, patents, links, series=()) -> Dataset:
    """Each paper gets a flat three-year series unless `series` holds its own."""
    by_id = {p.paper_id: series_from_counts(p.paper_id, p.pub_year, (1, 1, 1)) for p in papers}
    by_id.update((s.paper_id, s) for s in series)
    return Dataset(
        papers={p.paper_id: p for p in papers},
        series=by_id,
        patents={f.family_id: f for f in patents},
        links=tuple(links),
        concordance=(),
        window_end=max(p.pub_year for p in papers) + 2,
        contexts=None,
    )


def test_two_family_worked_example():
    paper, families = two_family_paper()
    ind = patent.indicators_for(paper, families, turning_year=1990)
    assert ind.n_families == 2
    assert ind.earliest_family_id == families[0].family_id
    assert ind.earliest_filing_year == 1986
    assert ind.latest_filing_year == 2002
    assert ind.durability_years == 16
    assert ind.forward_cites_of_earliest == 64
    assert ind.first_citation_lag == 16
    assert ind.relative_timing == -4
    assert ind.timing_class == patent.EARLIER


def test_unlinked_paper_gets_nones():
    paper = PaperRecord(paper_id="p1", pub_year=1970)
    ind = patent.indicators_for(paper, (), turning_year=1990)
    assert ind.n_families == 0
    assert ind.earliest_family_id is None
    assert ind.earliest_filing_year is None
    assert ind.durability_years is None
    assert ind.first_citation_lag is None
    assert ind.timing_class is None


def test_single_filing_has_zero_durability():
    paper = PaperRecord(paper_id="p1", pub_year=1980)
    fam = PatentFamilyRecord("f1", 1990, (1990,), 0, ())
    ind = patent.indicators_for(paper, (fam,), turning_year=1990)
    assert ind.durability_years == 0
    assert ind.latest_filing_year == 1990
    assert ind.timing_class == patent.SAME
    assert ind.forward_cites_of_earliest == 0


def test_duplicate_links_are_deduplicated():
    paper = PaperRecord(paper_id="p1", pub_year=1980)
    fam = PatentFamilyRecord("f1", 1990, (1990,), 2, ())
    ds = link_ds(
        [paper], [fam], [PatentCitationLink("p1", "f1"), PatentCitationLink("p1", "f1")]
    )
    grouped = patent.families_by_paper(ds)
    assert grouped == {"p1": (fam,)}


def test_families_sorted_by_id():
    paper = PaperRecord(paper_id="p1", pub_year=1980)
    f_b = PatentFamilyRecord("fb", 1991, (1991,), 0, ())
    f_a = PatentFamilyRecord("fa", 1995, (1995,), 0, ())
    ds = link_ds([paper], [f_b, f_a], [PatentCitationLink("p1", "fb"), PatentCitationLink("p1", "fa")])
    assert patent.families_by_paper(ds)["p1"] == (f_a, f_b)


def test_link_to_unknown_family_or_paper():
    paper = PaperRecord(paper_id="p1", pub_year=1980)
    fam = PatentFamilyRecord("f1", 1990, (1990,), 0, ())
    with pytest.raises(DataError, match="link references unknown patent family 'f2'"):
        patent.families_by_paper(link_ds([paper], [fam], [PatentCitationLink("p1", "f2")]))
    with pytest.raises(DataError, match="link references unknown paper 'p9'"):
        patent.families_by_paper(link_ds([paper], [fam], [PatentCitationLink("p9", "f1")]))


def test_long_ids_in_link_errors_are_cut_short():
    """A 5,000-character id is echoed as its first 40 characters and its length."""
    paper = PaperRecord(paper_id="p1", pub_year=1980)
    fam = PatentFamilyRecord("f1", 1990, (1990,), 0, ())
    shown = "'" + "q" * 40 + "'… (5000 characters)"
    for link, message in (
        (PatentCitationLink("p1", "q" * 5000), f"link references unknown patent family {shown}"),
        (PatentCitationLink("q" * 5000, "f1"), f"link references unknown paper {shown}"),
    ):
        with pytest.raises(DataError) as exc:
            patent.compute_indicators(link_ds([paper], [fam], [link]), ["p1"])
        assert str(exc.value) == message
        assert len(str(exc.value)) < 200


def test_earliest_family_breaks_priority_ties_by_id():
    f_b = PatentFamilyRecord("fb", 1990, (1990,), 5, ())
    f_a = PatentFamilyRecord("fa", 1990, (1992,), 1, ())
    assert patent.earliest_family((f_b, f_a)).family_id == "fa"
    with pytest.raises(ValueError):
        patent.earliest_family(())


def test_timing_classification_boundaries():
    assert patent.classify_timing(-7) == patent.EARLIER
    assert patent.classify_timing(-1) == patent.EARLIER
    assert patent.classify_timing(0) == patent.SAME
    assert patent.classify_timing(1) == patent.LATER
    assert patent.classify_timing(12) == patent.LATER


def test_fading_paper_cited_before_turning():
    # Interest faded in 1982; a family filed first in 1980 sits two years
    # ahead of the turning year.
    paper = PaperRecord(paper_id="p1", pub_year=1970)
    fam = PatentFamilyRecord("f1", 1980, (1980, 1983), 9, ())
    ind = patent.indicators_for(paper, (fam,), turning_year=1982)
    assert ind.relative_timing == -2
    assert ind.timing_class == patent.EARLIER
    assert ind.first_citation_lag == 10
    ds = link_ds([paper], [fam], [PatentCitationLink("p1", "f1")])
    points = patent.lag_trend_points([ind], ds, mode=patent.LAG_FROM_TURNING)
    assert points == [(1970, 2.0)]
    points = patent.lag_trend_points([ind], ds, mode=patent.LAG_FROM_PUBLICATION)
    assert points == [(1970, 10.0)]


def test_binary_indicator_flags():
    paper = PaperRecord(paper_id="p1", pub_year=1980)
    durable = patent.indicators_for(
        paper, (PatentFamilyRecord("f1", 1990, (1990, 1995), 3, ()),), 1990
    )
    dormant = patent.indicators_for(
        paper, (PatentFamilyRecord("f2", 1991, (1991,), 0, ()),), 1990
    )
    unlinked = patent.indicators_for(paper, (), 1990)
    names = [name for name, _ in patent.BINARY_INDICATORS]
    assert names == ["linked", "forward_cited", "durably_cited"]
    flags = {name: fn for name, fn in patent.BINARY_INDICATORS}
    assert flags["linked"](durable) and flags["linked"](dormant)
    assert not flags["linked"](unlinked)
    assert flags["forward_cited"](durable) and not flags["forward_cited"](dormant)
    assert flags["durably_cited"](durable) and not flags["durably_cited"](dormant)
    assert not flags["forward_cited"](unlinked) and not flags["durably_cited"](unlinked)


def test_compute_indicators_over_dataset():
    papers = [
        PaperRecord(paper_id="p1", pub_year=1980),
        PaperRecord(paper_id="p2", pub_year=1985),
    ]
    fam = PatentFamilyRecord("f1", 1992, (1992,), 4, ())
    # Cited yearly through 1990, then never again: the curve turns in 1990.
    fading = series_from_counts("p1", 1980, (5,) * 11 + (0,) * 10)
    ds = link_ds(papers, [fam], [PatentCitationLink("p1", "f1")], [fading])
    assert ds.profiles["p1"].turning_year == 1990
    got = patent.compute_indicators(ds, ["p1", "p2"])
    assert got["p1"].n_families == 1
    assert got["p1"].relative_timing == 2
    assert got["p1"].timing_class == patent.LATER
    assert got["p2"].n_families == 0


def test_lag_points_sorted_and_skip_unlinked():
    papers = [
        PaperRecord(paper_id="a", pub_year=1990),
        PaperRecord(paper_id="b", pub_year=1975),
        PaperRecord(paper_id="c", pub_year=1980),
    ]
    fams = [
        PatentFamilyRecord("f1", 1995, (1995,), 0, ()),
        PatentFamilyRecord("f2", 1985, (1985,), 0, ()),
    ]
    ds = link_ds(papers, fams, [PatentCitationLink("a", "f1"), PatentCitationLink("b", "f2")])
    inds = patent.compute_indicators(ds, ["a", "b", "c"])
    points = patent.lag_trend_points(inds.values(), ds)
    assert points == [(1975, 10.0), (1990, 5.0)]
    with pytest.raises(DataError):
        patent.lag_trend_points(inds.values(), ds, mode="sideways")


def test_more_families_never_raise_earliest_filing():
    paper = PaperRecord(paper_id="p1", pub_year=1970)
    fams = [PatentFamilyRecord(f"f{i}", 1990 + i, (1990 + i,), 0, ()) for i in range(5)]
    base = patent.indicators_for(paper, tuple(fams[:1]), 1990)
    for upto in range(2, 6):
        more = patent.indicators_for(paper, tuple(fams[:upto]), 1990)
        assert more.earliest_filing_year <= base.earliest_filing_year
        assert more.latest_filing_year >= base.latest_filing_year
        assert more.n_families == upto
