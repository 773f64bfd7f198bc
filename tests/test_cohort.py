"""Eligibility filtering and extreme-cohort selection."""

from __future__ import annotations

import dataclasses
import math
import random
import re
from collections import Counter

import pytest

import reference
from slumber import cohort, curve, interact, patent
from slumber.errors import DataError
from slumber.model import CurveProfile, Dataset, PaperRecord


def make_ds(entries: dict[str, tuple[int, tuple[int, ...]]], window_end: int = 2004) -> Dataset:
    """entries: paper id -> (pub_year, citation counts)."""
    papers = {pid: PaperRecord(paper_id=pid, pub_year=py) for pid, (py, _) in entries.items()}
    series = {pid: reference.series_from_counts(pid, py, counts) for pid, (py, counts) in entries.items()}
    return Dataset(
        papers=papers,
        series=series,
        patents={},
        links=(),
        concordance=(),
        window_end=window_end,
        contexts=None,
    )


def late_counts(total: int) -> tuple[int, ...]:
    return (0, 0, 0, 0, total)


def early_counts(total: int) -> tuple[int, ...]:
    return (0, total, 0, 0, 0)


def test_fixture_cohorts_are_pure_blocks(table1):
    result = cohort.select_cohorts(table1, 1970, 2005, 200, fraction=0.5)
    assert result.eligible_count == 400
    dr = result.members(cohort.DR)
    ir = result.members(cohort.IR)
    assert len(dr) == 200 and len(ir) == 200
    assert all(pid.startswith("d") for pid in dr)
    assert all(pid.startswith("i") for pid in ir)
    assert result.members(cohort.NONE) == ()
    cohorts = {a.paper_id: a.cohort for a in result.assignments}
    assert [cohorts[pid] for pid in dr + ir] == [cohort.DR] * 200 + [cohort.IR] * 200


def test_members_rejects_an_unknown_cohort_label(table1):
    result = cohort.select_cohorts(table1, 1970, 2005, 200, fraction=0.5)
    for label in ("dr", "Dr", "", "ALL"):
        with pytest.raises(DataError) as exc:
            result.members(label)
        assert str(exc.value) == f"unknown cohort {label!r}; expected 'DR', 'IR' or 'NONE'"


def test_derived_values_are_computed_once_per_dataset(table1, monkeypatch):
    ds = dataclasses.replace(table1)  # a new instance starts with an empty cache
    profiled = Counter()
    grouped = []
    profile, families_by_paper = curve.profile, patent.families_by_paper

    def counting_profile(series):
        profiled[series.paper_id] += 1
        return profile(series)

    def counting_families(dataset):
        grouped.append(dataset)
        return families_by_paper(dataset)

    monkeypatch.setattr(curve, "profile", counting_profile)
    monkeypatch.setattr(patent, "families_by_paper", counting_families)
    wide = cohort.select_cohorts(ds, 1970, 2005, 200, fraction=0.5)
    narrow = cohort.select_cohorts(ds, 1970, 2005, 200, fraction=0.1)
    ids = wide.members(cohort.DR) + wide.members(cohort.IR)
    patent.compute_indicators(ds, ids)
    interact.interaction_matrix(ds, narrow.members(cohort.DR))
    usable = [pid for pid, s in ds.series.items() if s.total > 0 and s.t_m >= 1]
    assert profiled == Counter(usable)
    assert len(grouped) == 1 and grouped[0] is ds


def test_ceiling_keeps_one_per_side_in_tiny_pools():
    entries = {f"p{i}": (2000, late_counts(10 + i)) for i in range(3)}
    entries["q0"] = (2000, early_counts(25))
    entries["q1"] = (2000, early_counts(30))
    ds = make_ds(entries)
    result = cohort.select_cohorts(ds, 1990, 2004, 1, fraction=0.01)
    assert result.eligible_count == 5
    assert len(result.members(cohort.DR)) == 1
    assert len(result.members(cohort.IR)) == 1
    assert len(result.members(cohort.NONE)) == 3


def test_dr_wins_contested_middle():
    entries = {
        "a": (2000, late_counts(10)),
        "b": (2000, (3, 1, 3, 1, 3)),
        "c": (2000, early_counts(10)),
    }
    result = cohort.select_cohorts(make_ds(entries), 1990, 2004, 1, fraction=0.5)
    # ceil(0.5 * 3) = 2 from each end would overlap on the middle paper.
    assert result.members(cohort.DR) == ("a", "b")
    assert result.members(cohort.IR) == ("c",)
    assert {a.paper_id: a.cohort for a in result.assignments}["b"] == cohort.DR


def test_ranks_are_descending_and_ties_break_by_id():
    entries = {
        "z": (2000, late_counts(10)),
        "a": (2000, late_counts(20)),
        "m": (2000, early_counts(9)),
    }
    result = cohort.select_cohorts(make_ds(entries), 1990, 2004, 1, fraction=0.5)
    assert [a.rank for a in result.assignments] == [1, 2, 3]
    bcps = [a.bcp for a in result.assignments]
    assert bcps == sorted(bcps, reverse=True)
    # identical curves: scale invariance makes "a" and "z" tie exactly
    assert result.assignments[0].paper_id == "a"
    assert result.assignments[1].paper_id == "z"


def test_ranking_matches_the_id_tiebreak_key():
    """Many ties, 0.0 and -0.0 among them, ids in shuffled order, pools from 1 paper up."""
    rng = random.Random(7)
    for n in range(1, 41):
        ids = [f"p{i}" for i in range(n)]
        rng.shuffle(ids)
        ds = make_ds({pid: (2000, late_counts(5)) for pid in ids})
        bcps = [rng.choice((0.25, 0.0, -0.0, -0.5)) for _ in ids]
        # Dataset.profiles holds its papers by ascending id; the ranking relies on it.
        profiles = {
            pid: CurveProfile(paper_id=pid, bcp=b, turning_t=4, turning_year=2004, turning_type="flat")
            for pid, b in sorted(zip(ids, bcps))
        }
        vars(ds)["profiles"] = profiles  # the slot where Dataset caches its profiles
        # At 0.28 a float product drifts up for n = 25.
        for fraction in (0.05, 0.28, 1 / 3, 0.5):
            result = cohort.select_cohorts(ds, 1990, 2004, 1, fraction=fraction)
            expected = reference.cohort_assignments(profiles, ids, fraction)
            assert list(result.assignments) == expected
            for label in (cohort.DR, cohort.IR, cohort.NONE):
                assert result.members(label) == tuple(a.paper_id for a in expected if a.cohort == label)
        if n == 1:
            # The cuts meet: the one paper is DR and IR is empty.
            assert result.members(cohort.IR) == ()


def test_cohort_size_is_the_ceiling_of_the_written_fraction():
    """In floats 0.07 * 100 is 7.000000000000001, whose ceiling would take 8 papers, not 7."""
    assert math.ceil(0.07 * 100) == 8
    ds = make_ds({f"p{i:03d}": (2000, late_counts(5 + i)) for i in range(100)})
    for fraction, size in ((0.07, 7), (0.14, 14), (0.28, 28), (0.01, 1), (0.05, 5), (0.5, 50)):
        result = cohort.select_cohorts(ds, 1990, 2004, 1, fraction=fraction)
        assert (len(result.members(cohort.DR)), len(result.members(cohort.IR))) == (size, size)


def test_fraction_bounds():
    ds = make_ds({"p": (2000, late_counts(5))})
    for bad in (0.0, -0.1, 0.51, 1.0):
        with pytest.raises(DataError, match=re.escape(f"cohort fraction {bad} outside (0, 0.5]")):
            cohort.select_cohorts(ds, 1990, 2004, 1, fraction=bad)
    assert cohort.select_cohorts(ds, 1990, 2004, 1, fraction=0.5).eligible_count == 1


def test_empty_eligible_set():
    ds = make_ds({"p": (2000, late_counts(5))})
    with pytest.raises(DataError, match="no paper satisfies the eligibility filter"):
        cohort.select_cohorts(ds, 1800, 1900, 1, fraction=0.1)


def test_eligibility_window_and_floor():
    entries = {
        "in": (2000, late_counts(200)),
        "early": (1960, tuple([0] * 44 + [200])),
        "late": (2003, (0, 200)),
        "thin": (2000, late_counts(199)),
    }
    ds = make_ds(entries)
    assert cohort.eligible_ids(ds, 1970, 2002, 200) == ["in"]
    assert cohort.eligible_ids(ds, 1960, 2003, 200) == ["early", "in", "late"]
    assert cohort.eligible_ids(ds, 1970, 2002, 199) == ["in", "thin"]
    with pytest.raises(DataError, match=r"publication window 2002\.\.1970 is empty"):
        cohort.eligible_ids(ds, 2002, 1970, 200)
    with pytest.raises(DataError, match="minimum citation total must be at least 1"):
        cohort.eligible_ids(ds, 1970, 2002, 0)


def test_eligibility_monotone_in_floor():
    rng = random.Random(15)
    entries = {
        f"p{i}": (2000, tuple(rng.randint(0, 60) for _ in range(5))) for i in range(40)
    }
    ds = make_ds(entries)
    previous = None
    for floor in (1, 50, 120, 200):
        ids = set(cohort.eligible_ids(ds, 1990, 2004, floor))
        if previous is not None:
            assert ids <= previous
        previous = ids


def test_single_year_series_not_eligible():
    ds = make_ds({"p": (2004, (300,))})
    assert cohort.eligible_ids(ds, 1990, 2004, 1) == []
