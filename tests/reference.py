"""Slow, plain references that the tests pin the fast paths to.

Each function here is the straightforward form of something the package
does faster; the property tests compare the two on random inputs.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from statistics import NormalDist
from typing import Iterable, Mapping, Sequence

from slumber.cohort import DR, IR, NONE, CohortAssignment
from slumber.curve import AWAKENING, FALLING, FLAT
from slumber.errors import DataError, _shown
from slumber.ingest import CITATION_COLUMNS
from slumber.interact import UNCLASSIFIED, FieldDistribution, InteractionCell, normalize_ipc
from slumber.model import (
    CitationContextRecord,
    CitationSeries,
    ConcordanceEntry,
    CurveProfile,
    Dataset,
    PaperRecord,
    PatentFamilyRecord,
)
from slumber.patent import EARLIER, LAG_FROM_PUBLICATION, LAG_FROM_TURNING, LATER, SAME, PatentIndicators
from slumber.stats import AagrResult, TrendWindow
from slumber.synth import DELAYED, INSTANT, LINEAR, NOISE
from slumber.tables import read_rows


def int_cell(text: str, name: str) -> int:
    """tables.strict_int, the integer-cell parser, as one plain match: ASCII '-?[0-9]+' only.

    A rejected text, one past the int-string limit included, raises
    ValueError naming the column.
    """
    if re.fullmatch("-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:
            pass
    raise ValueError(f"{name} {_shown(text)} is not an integer")


def series_from_counts(paper_id: str, base_year: int, counts: Sequence[int]) -> CitationSeries:
    """The series whose count t years after publication is counts[t].

    A negative count is kept among the stored values, so construction
    rejects it.
    """
    return CitationSeries(
        paper_id,
        base_year,
        len(counts) - 1,
        tuple(t for t, c in enumerate(counts) if c),
        tuple(c for c in counts if c),
    )


def dense_counts(series: CitationSeries) -> tuple[int, ...]:
    """The series' count in every year of its window, zero years included."""
    counts = [0] * (series.t_m + 1)
    for t, c in zip(series.offsets, series.values):
        counts[t] = c
    return tuple(counts)


def deviation_numerators(counts: Sequence[int]) -> list[int]:
    """L_t - C_t for every year t, as integers over the denominator total * t_m.

    C_t is the share of citations through year t and L_t the straight line
    from (0, C_0) to (t_m, 1). Each magnitude is also the distance of
    (t, C_t) from that line, up to a constant factor.
    """
    t_m, total, c0 = len(counts) - 1, sum(counts), counts[0]
    return [c0 * t_m + (total - c0) * t - t_m * cum for t, cum in enumerate(accumulate(counts))]


def profile_dense(series: CitationSeries) -> CurveProfile:
    """curve.profile by a pass over every year of the window.

    The index is the numerators' sum over total * t_m, and the turning year
    is the earliest year whose numerator is largest in magnitude.
    """
    counts = dense_counts(series)
    total, t_m = sum(counts), series.t_m
    if total == 0:
        raise DataError(f"paper {_shown(series.paper_id)} has no citations; curve is undefined")
    if t_m < 1:
        raise ValueError("curve spans a single year; reference line undefined")
    nums = deviation_numerators(counts)
    dists = [abs(n) for n in nums]
    turning_t = dists.index(max(dists))
    num_sum = sum(nums)
    return CurveProfile(
        paper_id=series.paper_id,
        bcp=num_sum / (total * t_m),
        turning_t=turning_t,
        turning_year=series.base_year + turning_t,
        turning_type=AWAKENING if num_sum > 0 else FALLING if num_sum < 0 else FLAT,
    )


def aagr_dense(
    annual_counts: Iterable[tuple[int, int]], base_year: int, end_year: int, method: str = "arithmetic"
) -> AagrResult:
    """stats.aagr by a step through every year of (base_year, end_year].

    The arithmetic mean takes each step's change over a non-zero previous
    count, in year order, and counts the other steps as skipped.
    """
    if end_year <= base_year:
        raise DataError(f"end year {end_year} must exceed base year {base_year}")
    by_year = dict(annual_counts)
    if method == "arithmetic":
        changes = []
        skipped = 0
        for year in range(base_year + 1, end_year + 1):
            prev = by_year.get(year - 1, 0)
            cur = by_year.get(year, 0)
            if prev == 0:
                skipped += 1
                continue
            changes.append((cur - prev) / prev)
        if not changes:
            raise DataError("every year-over-year denominator is zero")
        value = 100.0 * sum(changes) / len(changes)
        return AagrResult(base_year, end_year, "arithmetic", value, skipped_years=skipped)
    if method == "compound":
        v_base = by_year.get(base_year, 0)
        v_end = by_year.get(end_year, 0)
        if v_base == 0:
            raise DataError(f"count in base year {base_year} is zero; compound growth undefined")
        value = 100.0 * ((v_end / v_base) ** (1.0 / (end_year - base_year)) - 1.0)
        return AagrResult(base_year, end_year, "compound", value)
    raise DataError(f"unknown growth method {method!r}")


def wipo_field_for(code: str, concordance: Sequence[ConcordanceEntry]) -> ConcordanceEntry | None:
    """interact.IpcIndex.lookup by a scan over every concordance entry.

    The longest matching prefix wins, equal prefixes go to the lowest field
    id, and entries equal in both to the first in concordance order.
    """
    norm = normalize_ipc(code)
    best: ConcordanceEntry | None = None
    best_key: tuple[int, int] | None = None
    for entry in concordance:
        prefix = normalize_ipc(entry.ipc_prefix)
        if not norm.startswith(prefix):
            continue
        key = (-len(prefix), entry.wipo_field_id)
        if best_key is None or key < best_key:
            best, best_key = entry, key
    return best


def level0_fields(paper: PaperRecord) -> set[str]:
    """The distinct names of the paper's top-level (level 0) fields of study."""
    return {f.name for f in paper.fields_of_study if f.level == 0}


def earliest_citing_family(dataset: Dataset, paper_id: str) -> PatentFamilyRecord | None:
    """Of the families the paper's links name, each once, the least by (earliest_priority_year, family_id)."""
    family_ids = {link.family_id for link in dataset.links if link.paper_id == paper_id}
    families = [dataset.patents[fid] for fid in family_ids]
    return min(families, key=lambda f: (f.earliest_priority_year, f.family_id), default=None)


def interaction_cells(dataset: Dataset, paper_ids: Iterable[str]) -> list[InteractionCell]:
    """interact.interaction_matrix's cells by a count over each paper's (field, technology field) pairs.

    A paper pairs its level-0 fields with the technology fields that a scan
    of the concordance gives the IPC codes of its earliest citing family.
    """
    weights: Counter[tuple[str, int]] = Counter()
    names = {}
    for pid in set(paper_ids):
        family = earliest_citing_family(dataset, pid)
        entries = [wipo_field_for(code, dataset.concordance) for code in (family.ipc_codes if family else ())]
        techs = {e.wipo_field_id: e.wipo_field_name for e in entries if e is not None}
        names.update(techs)
        for field in level0_fields(dataset.papers[pid]):
            for tid in techs:
                weights[field, tid] += 1
    return [InteractionCell(field, tid, names[tid], w) for (field, tid), w in sorted(weights.items())]


def field_distribution(dataset: Dataset, paper_ids: Iterable[str]) -> FieldDistribution:
    """interact.field_distribution by a count over each paper's level-0 fields, or UNCLASSIFIED."""
    ids = set(paper_ids)
    counts: Counter[str] = Counter()
    for pid in ids:
        for field in level0_fields(dataset.papers[pid]) or {UNCLASSIFIED}:
            counts[field] += 1
    return FieldDistribution(tuple(sorted(counts.items())), len(ids))


def indicators(dataset: Dataset, paper_ids: Iterable[str]) -> dict[str, PatentIndicators]:
    """patent.compute_indicators by one family lookup per link, with the turning year of profile_dense.

    A paper's citing families are those its links name, each once. The
    earliest is the least by (earliest_priority_year, family_id); the latest
    filing year is the greatest of any citing family.
    """
    result = {}
    for pid in paper_ids:
        links = [link for link in dataset.links if link.paper_id == pid]
        families = {link.family_id: dataset.patents[link.family_id] for link in links}
        first = earliest_citing_family(dataset, pid)
        if first is None:
            result[pid] = PatentIndicators(pid, 0)
            continue
        start = first.earliest_priority_year
        latest = max(year for family in families.values() for year in family.filing_years)
        relative = start - profile_dense(dataset.series[pid]).turning_year
        timing = EARLIER if relative < 0 else SAME if relative == 0 else LATER
        lag = start - dataset.papers[pid].pub_year
        result[pid] = PatentIndicators(
            pid, len(families), first.family_id, start, latest, latest - start,
            first.forward_citation_count, lag, relative, timing,
        )
    return result


def lag_trend(
    inds: Iterable[PatentIndicators], dataset: Dataset, mode: str, width: int
) -> list[TrendWindow]:
    """patent.lag_trend_points, then stats.moving_window_mean, by a scan over every year of each window.

    A linked paper gives the point (publication year, lag): years from
    publication to its earliest family's priority, or in turning mode from
    that priority back to the turning year. A window of `width` years is
    kept when a point falls in it; starts run from the first year with a
    point to the last such year less width - 1.
    """
    by_year: dict[int, list[float]] = {}
    for ind in inds:
        if ind.n_families:
            lag = ind.first_citation_lag if mode == LAG_FROM_PUBLICATION else -ind.relative_timing
            by_year.setdefault(dataset.papers[ind.paper_id].pub_year, []).append(float(lag))
    windows = []
    for start in range(min(by_year, default=0), max(by_year, default=-1) - width + 2):
        values = [v for year in range(start, start + width) for v in sorted(by_year.get(year, ()))]
        if values:
            windows.append(TrendWindow(start, start + width - 1, sum(values) / len(values), len(values)))
    return windows


def read_citations_dense(
    path: Path, papers: dict[str, PaperRecord], window_end: int
) -> dict[str, CitationSeries]:
    """ingest.read_citations by a dense working list over each paper's window.

    Every count is written to its year's slot, a second list marks the
    years a row has set, and each list goes through the checked
    series_from_counts at the end. A bad row raises at once, at its
    own line, so a repeated (paper, year) is reported at its second row.
    """
    slots: dict[str, tuple[int, list[int], bytearray]] = {}
    for pid, paper in papers.items():
        n = window_end - paper.pub_year + 1
        if n > 0:
            slots[pid] = (paper.pub_year, [0] * n, bytearray(n))
    with read_rows(path, CITATION_COLUMNS) as rows:
        for pid, year, count in rows:
            year = int_cell(year, "year")
            count = int_cell(count, "count")
            if count < 0:
                raise ValueError(f"citation count {count} must be non-negative")
            slot = slots.get(pid)
            outside = f"citation year {year} for paper {_shown(pid)} outside the observation window"
            if slot is None:
                if pid not in papers:
                    raise ValueError(f"citation row references unknown paper {_shown(pid)}")
                raise ValueError(outside)
            base, counts, seen = slot
            t = year - base
            if t < 0 or year > window_end:
                raise ValueError(outside)
            if seen[t]:
                raise ValueError(f"duplicate citation row for paper {_shown(pid)}, year {year}")
            seen[t] = 1
            counts[t] = count
    return {
        pid: series_from_counts(pid, base, counts)
        for pid, (base, counts, _) in slots.items()
    }


def cohort_assignments(
    profiles: Mapping[str, CurveProfile], paper_ids: list[str], fraction: float
) -> list[CohortAssignment]:
    """cohort.select_cohorts' records, ranked by the key (-bcp, paper_id).

    Each cohort holds the ceiling of the exact product of n and the fraction
    as written (its shortest decimal text), so 0.07 of 100 papers is 7.
    """
    ranked = sorted(paper_ids, key=lambda pid: (-profiles[pid].bcp, pid))
    n = len(ranked)
    size = math.ceil(Fraction(str(fraction)) * n)
    ir_cut = max(n - size, size)
    return [
        CohortAssignment(
            paper_id=pid,
            rank=i + 1,
            bcp=profiles[pid].bcp,
            cohort=DR if i < size else IR if i >= ir_cut else NONE,
        )
        for i, pid in enumerate(ranked)
    ]


def flagged_contexts(
    contexts: Iterable[CitationContextRecord], terms: Sequence[str]
) -> list[tuple[CitationContextRecord, tuple[str, ...]]]:
    """ingest.flag_contexts by a scan of every position of each sentence, without re.

    A term is found where the lowercased sentence holds the lowercased term
    and neither neighbour is a word character (str.isalnum() or '_').
    Lowercasing keeps every position only in ASCII, so the tests draw ASCII.
    """

    def found(sentence: str, term: str) -> bool:
        text, word, n = sentence.lower(), term.lower(), len(term)
        for i in range(len(text) - n + 1):
            neighbours = text[max(i - 1, 0) : i] + text[i + n : i + n + 1]
            if text[i : i + n] == word and not any(c.isalnum() or c == "_" for c in neighbours):
                return True
        return False

    flagged = []
    for rec in contexts:
        matched = tuple(term for term in terms if found(rec.sentence, term))
        if matched:
            flagged.append((rec, matched))
    return flagged


def _fmt(x: float) -> str:
    return format(x, ".6f")


def profiled_ids(dataset: Dataset) -> list[str]:
    """The papers with a curve, by id: some citation, and a window of two years or more."""
    return sorted(pid for pid, s in dataset.series.items() if sum(dense_counts(s)) and s.t_m >= 1)


def profile_rows(dataset: Dataset) -> list[tuple]:
    """The `profile` report's rows, each from profile_dense."""
    rows = []
    for pid in profiled_ids(dataset):
        series = dataset.series[pid]
        prof = profile_dense(series)
        rows.append((
            pid, dataset.papers[pid].pub_year, series.t_m, sum(dense_counts(series)),
            _fmt(prof.bcp), prof.turning_t, prof.turning_year, prof.turning_type,
        ))
    return rows


def patent_rows(dataset: Dataset) -> list[tuple]:
    """The `patents` report's rows: indicators over the profiled papers, an empty cell for None."""
    rows = []
    for ind in indicators(dataset, profiled_ids(dataset)).values():
        cells = (
            ind.paper_id, ind.n_families, ind.earliest_filing_year, ind.latest_filing_year,
            ind.durability_years, ind.forward_cites_of_earliest, ind.first_citation_lag,
            ind.relative_timing, ind.timing_class,
        )
        rows.append(tuple("" if cell is None else cell for cell in cells))
    return rows


def eligible_assignments(
    dataset: Dataset, pub_from: int, pub_to: int, min_total_citations: int, fraction: float
) -> list[CohortAssignment]:
    """cohort_assignments over the profiled papers in the window and at the floor.

    No eligible paper raises DataError, as the commands that read cohorts do.
    """
    ids = [
        pid
        for pid in profiled_ids(dataset)
        if pub_from <= dataset.papers[pid].pub_year <= pub_to
        and sum(dense_counts(dataset.series[pid])) >= min_total_citations
    ]
    if not ids:
        raise DataError("no paper satisfies the eligibility filter")
    profiles = {pid: profile_dense(dataset.series[pid]) for pid in ids}
    return cohort_assignments(profiles, ids, fraction)


def cohort_rows(dataset: Dataset, *cohort_settings) -> list[tuple]:
    """The `cohort` report's rows, from eligible_assignments(dataset, *cohort_settings)."""
    return [(a.paper_id, a.rank, _fmt(a.bcp), a.cohort) for a in eligible_assignments(dataset, *cohort_settings)]


def cohort_ids(dataset: Dataset, *cohort_settings) -> dict[str, list[str]]:
    """The paper ids of cohorts DR and IR, in rank order, from eligible_assignments."""
    assignments = eligible_assignments(dataset, *cohort_settings)
    return {cohort: [a.paper_id for a in assignments if a.cohort == cohort] for cohort in (DR, IR)}


def wald_interval(k: int, n: int) -> tuple[float, float, float]:
    """The rate k/n and its 95% Wald interval, p -/+ z * sqrt(p (1 - p) / n), clamped to [0, 1]."""
    p = k / n
    half = NormalDist().inv_cdf(0.975) * math.sqrt(p * (1 - p) / n)
    return p, max(0.0, p - half), min(1.0, p + half)


def comparison_rows(dataset: Dataset, *cohort_settings) -> list[tuple]:
    """The `table1` report's rows: DR against IR on each binary indicator, from the textbook formulas.

    The DR row carries the rate ratio (empty when IR has no event) and the
    pooled two-proportion z test, z = (p1 - p2) / sqrt(p (1 - p) (1/n1 + 1/n2))
    with p = (k1 + k2) / (n1 + n2) and two-sided P = erfc(|z| / sqrt 2). A
    pooled rate of 0 or 1 leaves ratio and z empty and labels the p cell.
    An empty IR cohort raises DataError, as the command does.
    """
    ids = cohort_ids(dataset, *cohort_settings)
    if not ids[IR]:
        raise DataError("IR cohort is empty")
    inds = indicators(dataset, [*ids[DR], *ids[IR]])
    tests = {
        "linked": lambda ind: ind.n_families > 0,
        "forward_cited": lambda ind: (ind.forward_cites_of_earliest or 0) > 0,
        "durably_cited": lambda ind: (ind.durability_years or 0) > 0,
    }
    rows = []
    for name, test in tests.items():
        (k1, n1), (k2, n2) = ((sum(test(inds[pid]) for pid in ids[c]), len(ids[c])) for c in (DR, IR))
        pooled = (k1 + k2) / (n1 + n2)
        if pooled in (0, 1):
            ratio, z_cell, p_cell = "", "", "DegeneratePool"
        else:
            z = (k1 / n1 - k2 / n2) / math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
            ratio = _fmt((k1 / n1) / (k2 / n2)) if k2 else ""
            z_cell, p_cell = _fmt(z), _fmt(math.erfc(abs(z) / math.sqrt(2)))
        rows.append((name, DR, k1, n1 - k1, *map(_fmt, wald_interval(k1, n1)), ratio, z_cell, p_cell))
        rows.append((name, IR, k2, n2 - k2, *map(_fmt, wald_interval(k2, n2)), "", "", ""))
    return rows


def lag_rows(dataset: Dataset, width: int, *cohort_settings) -> tuple[list[tuple], list[tuple]]:
    """The `lag-trend` reports' rows: lag_trend's windows, then min, max, median and sample sd.

    DR lags run from publication and IR lags from the turning year; a cohort
    with no linked paper has no rows. The median of an even count is the
    mean of the middle two; the sd is empty for a single value.
    """
    ids = cohort_ids(dataset, *cohort_settings)
    trend, summary = [], []
    for cohort, mode in ((DR, LAG_FROM_PUBLICATION), (IR, LAG_FROM_TURNING)):
        inds = list(indicators(dataset, ids[cohort]).values())
        lags = sorted(
            float(ind.first_citation_lag if mode == LAG_FROM_PUBLICATION else -ind.relative_timing)
            for ind in inds
            if ind.n_families
        )
        if not lags:
            continue
        for w in lag_trend(inds, dataset, mode, width):
            trend.append((cohort, mode, w.start_year, w.end_year, _fmt(w.mean), w.n_obs))
        n, mid = len(lags), len(lags) // 2
        median = lags[mid] if n % 2 else (lags[mid - 1] + lags[mid]) / 2
        mean = sum(lags) / n
        sd = _fmt(math.sqrt(sum((x - mean) ** 2 for x in lags) / (n - 1))) if n > 1 else ""
        summary.append((cohort, mode, n, _fmt(lags[0]), _fmt(lags[-1]), _fmt(median), sd))
    return trend, summary


def interaction_rows(dataset: Dataset, paper_ids: list[str]) -> dict[str, list[tuple]]:
    """The rows of one cohort's `interactions` reports, by file stem.

    interactions: interaction_cells. interaction_marginals: each field of
    study's summed weight, by name, then each technology field's, by id.
    field_distribution: field_distribution's counts with their share of the
    cohort's papers.
    """
    cells = interaction_cells(dataset, paper_ids)
    by_field: Counter[str] = Counter()
    by_tech: Counter[int] = Counter()
    for cell in cells:
        by_field[cell.field_of_study] += cell.weight
        by_tech[cell.wipo_field_id] += cell.weight
    names = {cell.wipo_field_id: cell.wipo_field_name for cell in cells}
    dist = field_distribution(dataset, paper_ids)
    return {
        "interactions": [(c.field_of_study, c.wipo_field_id, c.wipo_field_name, c.weight) for c in cells],
        "interaction_marginals": [
            *(("field_of_study", field, "", w) for field, w in sorted(by_field.items())),
            *(("wipo_field", tid, names[tid], w) for tid, w in sorted(by_tech.items())),
        ],
        "field_distribution": [(f, count, _fmt(count / dist.total_papers)) for f, count in dist.counts],
    }


def aagr_rows(dataset: Dataset, method: str) -> list[tuple]:
    """The `aagr` report's rows: aagr_dense over every year from each turning year to the window end.

    A paper whose growth rate raises DataError is left out, as the command skips it.
    """
    rows = []
    for pid in profiled_ids(dataset):
        series = dataset.series[pid]
        years = [(series.base_year + t, c) for t, c in enumerate(dense_counts(series))]
        try:
            res = aagr_dense(years, profile_dense(series).turning_year, dataset.window_end, method)
        except DataError:
            continue
        growth = _fmt(res.value_percent)
        rows.append((pid, res.base_year, res.end_year, res.method, growth, res.skipped_years))
    return rows


def delayed_counts_dense(rng: random.Random, t_m: int) -> list[int]:
    """synth's delayed curve as a count for every year: zeros, then a rising ramp."""
    if t_m == 1:
        return [0, 1]
    start = rng.randint(max(1, t_m // 2), t_m - 1)
    return [0] * start + list(range(1, t_m - start + 2))


def instant_counts_dense(rng: random.Random, t_m: int) -> list[int]:
    """synth's instant curve as a count for every year: a ramp falling to zero."""
    peak = rng.randint(2, 9)
    return [max(peak - t, 0) for t in range(t_m + 1)]


def linear_counts_dense(rng: random.Random, t_m: int) -> list[int]:
    """synth's linear curve as a count for every year: one constant count."""
    return [rng.randint(1, 9)] * (t_m + 1)


def noise_counts_dense(rng: random.Random, t_m: int) -> list[int]:
    """synth's noise curve as a count for every year, redrawn until one is non-zero."""
    while True:
        counts = [rng.randint(0, 50) for _ in range(t_m + 1)]
        if sum(counts) > 0:
            return counts


DENSE_SHAPE_BUILDERS = {
    DELAYED: delayed_counts_dense,
    INSTANT: instant_counts_dense,
    LINEAR: linear_counts_dense,
    NOISE: noise_counts_dense,
}


def scale_to_floor_dense(counts: list[int], floor: int) -> list[int]:
    """Every year's count times the least integer that lifts the total to the floor."""
    total = sum(counts)
    k = -(-floor // total)
    return [c * k for c in counts] if k > 1 else counts


def synth_series_dense(
    rng: random.Random, shape: str, paper_id: str, pub_year: int, t_m: int, floor: int
) -> CitationSeries:
    """synth._series by a dense list over every year of the window.

    It draws from rng exactly what synth does, in the same order, and the
    list goes through the checked series_from_counts at the end.
    """
    counts = scale_to_floor_dense(DENSE_SHAPE_BUILDERS[shape](rng, t_m), floor)
    return series_from_counts(paper_id, pub_year, counts)
