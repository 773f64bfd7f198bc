"""Report writers: fixed column orders, sorted rows, 6-decimal floats.

Every float is rendered with format(x, ".6f") (correctly rounded, half to
even) and every file ends lines with '\n', so two runs over the same inputs
are byte-identical regardless of platform.
"""

from __future__ import annotations

from dataclasses import asdict
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .cohort import CohortResult
from .errors import DegeneratePoolError
from .interact import FieldDistribution, InteractionMatrix
from .model import CitationContextRecord, CurveProfile, Dataset
from .patent import BINARY_INDICATORS, PatentIndicators
from .stats import AagrResult, SummaryStats, WindowedTrend, proportion_ci, two_proportion_test
from .tables import write_json_lines, write_rows

DEGENERATE_LABEL = "DegeneratePool"


def fmt(x: float) -> str:
    return format(x, ".6f")


def _opt(value) -> str:
    return "" if value is None else str(value)


def write_profiles(dataset: Dataset, profiles: Iterable[CurveProfile], path: Path) -> None:
    columns = (
        "paper_id",
        "pub_year",
        "t_m",
        "total_citations",
        "bcp",
        "turning_t",
        "turning_year",
        "turning_type",
    )
    rows = (
        (
            prof.paper_id,
            dataset.papers[prof.paper_id].pub_year,
            dataset.series[prof.paper_id].t_m,
            dataset.series[prof.paper_id].total,
            fmt(prof.bcp),
            prof.turning_t,
            prof.turning_year,
            prof.turning_type,
        )
        for prof in sorted(profiles, key=lambda p: p.paper_id)
    )
    write_rows(path, columns, rows)


def write_cohorts(result: CohortResult, path: Path) -> None:
    rows = ((a.paper_id, a.rank, fmt(a.bcp), a.cohort) for a in result.assignments)
    write_rows(path, ("paper_id", "rank", "bcp", "cohort"), rows)


def write_indicators(indicators: Iterable[PatentIndicators], path: Path) -> None:
    columns = (
        "paper_id",
        "n_families",
        "earliest_filing_year",
        "latest_filing_year",
        "durability_years",
        "forward_cites_of_earliest",
        "first_citation_lag",
        "relative_timing",
        "timing_class",
    )
    rows = (
        (
            ind.paper_id,
            ind.n_families,
            _opt(ind.earliest_filing_year),
            _opt(ind.latest_filing_year),
            _opt(ind.durability_years),
            _opt(ind.forward_cites_of_earliest),
            _opt(ind.first_citation_lag),
            _opt(ind.relative_timing),
            _opt(ind.timing_class),
        )
        for ind in sorted(indicators, key=lambda i: i.paper_id)
    )
    write_rows(path, columns, rows)


def comparison_rows(
    dr: Sequence[PatentIndicators], ir: Sequence[PatentIndicators]
) -> list[list[str]]:
    """Six rows (three binary indicators x two groups), DR carrying the test.

    When the pooled rate is degenerate (0 or 1) the z test is undefined; the
    per-group rates and intervals still go out, with the p cell labelled
    instead of a number.
    """
    rows = []
    for name, predicate in BINARY_INDICATORS:
        k1 = sum(1 for i in dr if predicate(i))
        k2 = sum(1 for i in ir if predicate(i))
        n1, n2 = len(dr), len(ir)
        try:
            res = two_proportion_test(k1, n1, k2, n2)
            ratio = "" if res.rate_ratio is None else fmt(res.rate_ratio)
            z, p = fmt(res.z), fmt(res.p_two_sided)
            a, b = res.group_a, res.group_b
        except DegeneratePoolError:
            ratio, z, p = "", "", DEGENERATE_LABEL
            a, b = proportion_ci(k1, n1), proportion_ci(k2, n2)
        rows.append(
            [name, "DR", str(k1), str(n1 - k1), fmt(a.rate), fmt(a.ci_low), fmt(a.ci_high), ratio, z, p]
        )
        rows.append(
            [name, "IR", str(k2), str(n2 - k2), fmt(b.rate), fmt(b.ci_low), fmt(b.ci_high), "", "", ""]
        )
    return rows


def write_comparison(dr: Sequence[PatentIndicators], ir: Sequence[PatentIndicators], path: Path) -> None:
    columns = ("indicator", "group", "yes", "no", "rate", "ci_low", "ci_high", "rate_ratio", "z", "p")
    write_rows(path, columns, comparison_rows(dr, ir))


def write_lag_trend(trends: Mapping[tuple[str, str], WindowedTrend], path: Path) -> None:
    """One row per (cohort, lag mode, window); keys iterate in sorted order."""
    rows = (
        (cohort, mode, w.start_year, w.end_year, fmt(w.mean), w.n_obs)
        for cohort, mode in sorted(trends)
        for w in trends[(cohort, mode)].windows
    )
    write_rows(path, ("cohort", "mode", "window_start", "window_end", "mean_lag", "n_obs"), rows)


def write_lag_summary(summaries: Mapping[tuple[str, str], tuple[int, SummaryStats]], path: Path) -> None:
    rows = (
        (cohort, mode, n, fmt(s.min), fmt(s.max), fmt(s.median), "" if s.sd is None else fmt(s.sd))
        for (cohort, mode), (n, s) in sorted(summaries.items())
    )
    write_rows(path, ("cohort", "mode", "n", "min", "max", "median", "sd"), rows)


def write_interactions(matrix: InteractionMatrix, path: Path) -> None:
    rows = ((c.field_of_study, c.wipo_field_id, c.wipo_field_name, c.weight) for c in matrix.cells)
    write_rows(path, ("field_of_study", "wipo_field_id", "wipo_field_name", "weight"), rows)


def write_interaction_marginals(matrix: InteractionMatrix, path: Path) -> None:
    """Row and column sums in one long-form file, axis column telling which."""
    names = {c.wipo_field_id: c.wipo_field_name for c in matrix.cells}
    rows = chain(
        (("field_of_study", field, "", weight) for field, weight in matrix.field_marginals().items()),
        (("wipo_field", tid, names[tid], weight) for tid, weight in matrix.wipo_marginals().items()),
    )
    write_rows(path, ("axis", "key", "label", "weight"), rows)


def write_field_distribution(dist: FieldDistribution, path: Path) -> None:
    rows = ((field, count, fmt(dist.share(field))) for field, count in dist.counts)
    write_rows(path, ("field_of_study", "papers", "share"), rows)


def write_growth(rows: Iterable[tuple[str, AagrResult]], path: Path) -> None:
    cells = (
        (pid, res.base_year, res.end_year, res.method, fmt(res.value_percent), res.skipped_years)
        for pid, res in sorted(rows, key=lambda r: r[0])
    )
    columns = ("paper_id", "base_year", "end_year", "method", "aagr_percent", "skipped_years")
    write_rows(path, columns, cells)


def write_flagged_contexts(
    flagged: Iterable[tuple[CitationContextRecord, tuple[str, ...]]], path: Path
) -> None:
    write_json_lines(path, ({**asdict(rec), "matched_terms": list(terms)} for rec, terms in flagged))
