"""Synthetic dataset generator: determinism, quotas, curve shapes."""

from __future__ import annotations

from collections import Counter

import pytest

import reference
from slumber import curve, ingest, patent, synth
from slumber.errors import ConfigError


def test_largest_remainder_examples():
    assert synth.largest_remainder(99, [0.69, 0.05, 0.26]) == [68, 5, 26]
    assert synth.largest_remainder(99, [69 / 99, 5 / 99, 25 / 99]) == [69, 5, 25]
    assert synth.largest_remainder(10, [0.5, 0.5]) == [5, 5]
    assert synth.largest_remainder(7, [1.0]) == [7]
    # exact .5 remainders go to the earlier bucket
    assert synth.largest_remainder(1, [0.5, 0.5]) == [1, 0]


def test_largest_remainder_always_sums_to_total():
    import random

    rng = random.Random(8)
    for _ in range(200):
        k = rng.randint(1, 6)
        raw = [rng.random() for _ in range(k)]
        props = [r / sum(raw) for r in raw]
        total = rng.randint(0, 500)
        alloc = synth.largest_remainder(total, props)
        assert sum(alloc) == total
        assert all(a >= 0 for a in alloc)


def test_same_seed_reproduces_dataset(tmp_path):
    spec = synth.SynthSpec(n_papers=50, seed=9)
    a = synth.generate(spec)
    b = synth.generate(spec)
    assert a.dataset == b.dataset
    assert a.shapes == b.shapes
    assert a.timing_classes == b.timing_classes
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    ingest.write_dataset(a.dataset, dir_a)
    ingest.write_dataset(b.dataset, dir_b)
    for f in sorted(p.name for p in dir_a.iterdir()):
        assert (dir_a / f).read_bytes() == (dir_b / f).read_bytes()


def test_different_seed_changes_dataset():
    a = synth.generate(synth.SynthSpec(n_papers=50, seed=1))
    b = synth.generate(synth.SynthSpec(n_papers=50, seed=2))
    assert a.dataset != b.dataset


def test_shape_quotas():
    result = synth.generate(synth.SynthSpec(n_papers=97, seed=5))
    counts = Counter(result.shapes.values())
    assert counts == {
        synth.DELAYED: 25,
        synth.INSTANT: 24,
        synth.LINEAR: 24,
        synth.NOISE: 24,
    }


def test_shape_curve_signs():
    result = synth.generate(synth.SynthSpec(n_papers=80, seed=11))
    for pid, shape in result.shapes.items():
        series = result.dataset.series[pid]
        b = curve.profile(series).bcp
        if shape == synth.DELAYED:
            assert b > 0, pid
        elif shape == synth.INSTANT:
            assert b < 0, pid
        elif shape == synth.LINEAR:
            assert b == 0.0, pid


def test_generated_papers_meet_floor_and_window():
    spec = synth.SynthSpec(n_papers=60, seed=21, min_total_citations=150)
    ds = synth.generate(spec).dataset
    assert len(ds.papers) == 60
    for pid, paper in ds.papers.items():
        assert spec.pub_from <= paper.pub_year <= spec.pub_to
        series = ds.series[pid]
        assert series.total >= 150
        assert len(reference.dense_counts(series)) == spec.window_end - paper.pub_year + 1


def test_timing_quotas_exact():
    spec = synth.SynthSpec(
        n_papers=100,
        seed=3,
        share_delayed=1.0,
        share_instant=0.0,
        share_linear=0.0,
        share_noise=0.0,
        link_density=0.99,
        timing_earlier=69 / 99,
        timing_same=5 / 99,
        timing_later=25 / 99,
    )
    result = synth.generate(spec)
    assert len(result.timing_classes) == 99
    assert Counter(result.timing_classes.values()) == {
        patent.EARLIER: 69,
        patent.SAME: 5,
        patent.LATER: 25,
    }
    # the realized indicators classify exactly as constructed
    ds = result.dataset
    grouped = patent.families_by_paper(ds)
    for pid, planned in result.timing_classes.items():
        prof = curve.profile(ds.series[pid])
        ind = patent.indicators_for(ds.papers[pid], grouped[pid], prof.turning_year)
        assert ind.timing_class == planned, pid


def test_link_density_quota_per_block():
    result = synth.generate(synth.SynthSpec(n_papers=40, seed=13, link_density=0.6))
    # four blocks of 10; each contributes round(0.6 * 10) = 6 linked papers
    assert len(result.timing_classes) == 24
    linked = {link.paper_id for link in result.dataset.links}
    assert linked == set(result.timing_classes)


def test_zero_density_means_no_links():
    result = synth.generate(synth.SynthSpec(n_papers=20, seed=4, link_density=0.0))
    assert result.dataset.links == ()
    assert result.timing_classes == {}


def test_generated_dataset_validates_clean():
    ds = synth.generate(synth.SynthSpec(n_papers=60, seed=42, link_density=0.8)).dataset
    assert ingest.validate_dataset(ds).issues == ()


def test_spec_rejects_bad_configs():
    with pytest.raises(ConfigError):
        synth.SynthSpec(share_delayed=0.5, share_instant=0.5, share_linear=0.5, share_noise=0.5)
    with pytest.raises(ConfigError):
        synth.SynthSpec(link_density=1.5)
    with pytest.raises(ConfigError):
        synth.SynthSpec(pub_from=2000, pub_to=1990)
    with pytest.raises(ConfigError):
        synth.SynthSpec(pub_to=2020, window_end=2015)
    with pytest.raises(ConfigError):
        synth.SynthSpec(n_papers=0)
    with pytest.raises(ConfigError):
        synth.SynthSpec(timing_earlier=0.9, timing_same=0.2, timing_later=0.1)


def test_committed_demo_dataset_is_reproducible(tmp_path, demo_dir):
    spec = synth.SynthSpec(n_papers=60, seed=42, link_density=0.8)
    out = tmp_path / "demo"
    ingest.write_dataset(synth.generate(spec).dataset, out)
    committed = sorted(p.name for p in demo_dir.iterdir())
    assert sorted(p.name for p in out.iterdir()) == committed
    for name in committed:
        assert (out / name).read_bytes() == (demo_dir / name).read_bytes(), name
