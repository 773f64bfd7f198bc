"""Seeded synthetic dataset generator.

Papers come in four curve shapes: delayed (non-decreasing yearly counts, so
the index is strictly positive), instant (non-increasing, strictly negative),
linear (constant counts, exactly zero), and noise (unconstrained sign). Every
paper is scaled up to the eligibility floor, so cohort selection downstream
sees the full pool. Each curve is built sparse, as loading builds it: a shape
yields only its cited years and their counts, and the scaling multiplies
those counts. Only noise, which draws a count for every year, holds a list
per window year, and it drops the zeros at once. Patent links, timing
classes, and citation contexts are derived from the same single random
stream, so a given config.SynthSpec gives byte-identical directories.

Shape and timing-class counts are apportioned by largest remainder, so the
requested proportions are hit exactly after rounding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress

from . import curve
from .config import SynthSpec
from .errors import ConfigError
from .patent import EARLIER, LATER, SAME
from .model import (
    MIN_PUB_YEAR,
    CitationContextRecord,
    CitationSeries,
    ConcordanceEntry,
    Dataset,
    FieldOfStudy,
    PaperRecord,
    PatentCitationLink,
    PatentFamilyRecord,
)

DELAYED = "delayed"
INSTANT = "instant"
LINEAR = "linear"
NOISE = "noise"

# The 19 top-level fields of study.
TOP_LEVEL_FIELDS = (
    "art",
    "biology",
    "business",
    "chemistry",
    "computer science",
    "economics",
    "engineering",
    "environmental science",
    "geography",
    "geology",
    "history",
    "materials science",
    "mathematics",
    "medicine",
    "philosophy",
    "physics",
    "political science",
    "psychology",
    "sociology",
)

_SUBFIELDS = ("molecular biology", "immunology", "organic chemistry", "machine learning", "optics")

# One record per field, shared by every paper in it.
_TOP_LEVEL_RECORDS = tuple(FieldOfStudy(name, 0) for name in TOP_LEVEL_FIELDS)
_SUBFIELD_RECORDS = tuple(FieldOfStudy(name, 1) for name in _SUBFIELDS)

# Small concordance sample bundled with generated datasets; real analyses
# should supply the full published table.
SAMPLE_CONCORDANCE = (
    ConcordanceEntry("A61B", 13, "Medical technology", "Instruments"),
    ConcordanceEntry("A61K", 16, "Pharmaceuticals", "Chemistry"),
    ConcordanceEntry("C07D", 14, "Organic fine chemistry", "Chemistry"),
    ConcordanceEntry("C07K", 15, "Biotechnology", "Chemistry"),
    ConcordanceEntry("C12N", 15, "Biotechnology", "Chemistry"),
    ConcordanceEntry("C12Q", 15, "Biotechnology", "Chemistry"),
    ConcordanceEntry("G01N", 10, "Measurement", "Instruments"),
    ConcordanceEntry("G01N33", 11, "Analysis of biological materials", "Instruments"),
    ConcordanceEntry("G06F", 6, "Computer technology", "Electrical engineering"),
    ConcordanceEntry("H01L", 8, "Semiconductors", "Electrical engineering"),
)

_IPC_POOL = (
    "A61B5/00",
    "A61K31/4015",
    "C07D209/02",
    "C07K14/47",
    "C12N15/09",
    "C12Q1/68",
    "G01N21/64",
    "G01N33/53",
    "G06F17/30",
    "H01L29/06",
)

_SUPPORTIVE_SENTENCES = (
    "We build directly on the assay introduced in {ref}.",
    "The framework of {ref} guides our experimental design.",
    "Results in {ref} are confirmed across all three cell lines.",
)

_CRITICAL_SENTENCES = (
    "Our replication attempts disagree with the yields reported in {ref}.",
    "These measurements contradict the rate constants from {ref}.",
    "In contrast to {ref}, we observe no binding at low temperatures.",
    "The kinetics reported here are inconsistent with {ref}.",
    "We dispute the structural assignment proposed in {ref}.",
)


@dataclass(frozen=True)
class SynthResult:
    dataset: Dataset
    shapes: dict[str, str]  # paper_id -> shape
    timing_classes: dict[str, str]  # linked paper_id -> Earlier | Same | Later


def largest_remainder(total: int, proportions: list[float]) -> list[int]:
    """Integer counts summing to total, apportioned by largest remainder.

    Remainder ties go to the earlier bucket, so the split is deterministic.
    """
    if total < 0:
        raise ConfigError("total must be non-negative")
    quotas = [p * total for p in proportions]
    counts = [math.floor(q) for q in quotas]
    leftover = total - sum(counts)
    order = sorted(range(len(quotas)), key=lambda i: (counts[i] - quotas[i], i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


# A curve as the two tuples CitationSeries stores: the offsets of the years
# with citations, ascending, and their counts. Every other year of the window
# counts zero.
_Curve = tuple[tuple[int, ...], tuple[int, ...]]


def _delayed_counts(rng: random.Random, t_m: int) -> _Curve:
    # Zeros, then a rising ramp: non-decreasing and non-constant.
    if t_m == 1:
        return (1,), (1,)
    start = rng.randint(max(1, t_m // 2), t_m - 1)
    return tuple(range(start, t_m + 1)), tuple(range(1, t_m - start + 2))


def _instant_counts(rng: random.Random, t_m: int) -> _Curve:
    # A falling ramp from the peak that reaches zero, or the window end, first.
    peak = rng.randint(2, 9)
    n = min(peak, t_m + 1)
    return tuple(range(n)), tuple(range(peak, peak - n, -1))


def _linear_counts(rng: random.Random, t_m: int) -> _Curve:
    return tuple(range(t_m + 1)), (rng.randint(1, 9),) * (t_m + 1)


def _noise_counts(rng: random.Random, t_m: int) -> _Curve:
    while True:
        counts = [rng.randint(0, 50) for _ in range(t_m + 1)]
        if any(counts):
            return tuple(compress(range(t_m + 1), counts)), tuple(filter(None, counts))


_SHAPE_BUILDERS = {
    DELAYED: _delayed_counts,
    INSTANT: _instant_counts,
    LINEAR: _linear_counts,
    NOISE: _noise_counts,
}


def _scale_to_floor(values: tuple[int, ...], floor: int) -> tuple[int, ...]:
    # Integer scaling preserves the curve shape, index, and turning year.
    k = -(-floor // sum(values))
    return tuple([c * k for c in values]) if k > 1 else values


def _series(
    rng: random.Random, shape: str, paper_id: str, pub_year: int, t_m: int, floor: int
) -> CitationSeries:
    """One paper's curve of the given shape, scaled up to the citation floor."""
    offsets, values = _SHAPE_BUILDERS[shape](rng, t_m)
    return CitationSeries(paper_id, pub_year, t_m, offsets, _scale_to_floor(values, floor))


def generate(spec: SynthSpec) -> SynthResult:
    """Build the full in-memory dataset for a spec (pure, seed-deterministic)."""
    if spec.pub_from < MIN_PUB_YEAR:
        raise ConfigError(f"pub_from {spec.pub_from} is before {MIN_PUB_YEAR}")
    rng = random.Random(spec.seed)
    shape_counts = largest_remainder(
        spec.n_papers,
        [spec.share_delayed, spec.share_instant, spec.share_linear, spec.share_noise],
    )
    shapes: dict[str, str] = {}
    papers: dict[str, PaperRecord] = {}
    series: dict[str, CitationSeries] = {}
    linked: list[str] = []
    i = 0
    for shape, n_shape in zip((DELAYED, INSTANT, LINEAR, NOISE), shape_counts):
        # Patent linkage: the first round(density * n) papers of each shape block.
        n_linked = largest_remainder(n_shape, [spec.link_density, 1.0 - spec.link_density])[0]
        for j in range(n_shape):
            pid = f"p{i:05d}"
            pub_year = rng.randint(spec.pub_from, spec.pub_to)
            t_m = spec.window_end - pub_year
            series[pid] = _series(rng, shape, pid, pub_year, t_m, spec.min_total_citations)
            fields = rng.sample(_TOP_LEVEL_RECORDS, rng.randint(1, 2))
            if rng.random() < 0.3:
                fields.append(rng.choice(_SUBFIELD_RECORDS))
            papers[pid] = PaperRecord(
                paper_id=pid,
                pub_year=pub_year,
                title=f"Synthetic paper {i:05d}",
                doi=f"10.5555/synth.{i:05d}",
                pmid=None,
                fields_of_study=tuple(fields),
            )
            shapes[pid] = shape
            if j < n_linked:
                linked.append(pid)
            i += 1

    class_counts = largest_remainder(
        len(linked), [spec.timing_earlier, spec.timing_same, spec.timing_later]
    )
    class_pool = [EARLIER] * class_counts[0] + [SAME] * class_counts[1] + [LATER] * class_counts[2]
    rng.shuffle(class_pool)
    timing_classes = dict(zip(linked, class_pool))

    patents: dict[str, PatentFamilyRecord] = {}
    links: list[PatentCitationLink] = []
    fam_seq = 0
    for pid in linked:
        turning_year = curve.profile(series[pid]).turning_year
        cls = timing_classes[pid]
        if cls == EARLIER:
            priority = turning_year - rng.randint(1, 10)
        elif cls == SAME:
            priority = turning_year
        else:
            priority = turning_year + rng.randint(1, 10)
        n_fam = rng.randint(1, 3)
        for j in range(n_fam):
            fid = f"f{fam_seq:05d}"
            fam_seq += 1
            if j > 0:
                priority = priority + rng.randint(1, 8)
            filings = {priority}
            for _ in range(rng.randint(0, 2)):
                filings.add(priority + rng.randint(1, 12))
            patents[fid] = PatentFamilyRecord(
                family_id=fid,
                earliest_priority_year=priority,
                filing_years=tuple(sorted(filings)),
                forward_citation_count=rng.randint(0, 80) if j == 0 else rng.randint(0, 40),
                ipc_codes=tuple(rng.sample(_IPC_POOL, rng.randint(1, 3))),
            )
            links.append(PatentCitationLink(paper_id=pid, family_id=fid))

    contexts: list[CitationContextRecord] = []
    ctx_seq = 0
    for pid in papers:
        if rng.random() >= 0.15:
            continue
        for _ in range(rng.randint(1, 2)):
            template = rng.choice(
                _CRITICAL_SENTENCES if rng.random() < 0.4 else _SUPPORTIVE_SENTENCES
            )
            contexts.append(
                CitationContextRecord(
                    citing_id=f"x{ctx_seq:05d}",
                    cited_paper_id=pid,
                    year=min(papers[pid].pub_year + rng.randint(1, 10), spec.window_end),
                    sentence=template.format(ref=pid),
                )
            )
            ctx_seq += 1

    dataset = Dataset(
        papers=papers,
        series=series,
        patents=patents,
        links=tuple(links),
        concordance=SAMPLE_CONCORDANCE,
        window_end=spec.window_end,
        contexts=tuple(contexts),
    )
    return SynthResult(dataset=dataset, shapes=shapes, timing_classes=timing_classes)
