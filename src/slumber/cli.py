"""Command-line orchestration over a dataset directory.

The analysis commands read `--dataset DIR` and write reports under
`--out DIR`, made at the first report, so a refused command leaves none;
`validate` reads a dataset and writes nothing, and `synth` writes a dataset
under `--out DIR`. Before any file is read, the settings file
`--config FILE` (config.load_config) included, main checks the flags the
command table names. Exit codes: 0 success, 1 bad data or configuration
(a missing flag too), 2 I/O failure, or a command line that does not parse.

Each analysis command builds its own report rows in a fixed column order and
writes them with the tables module. Every float is rendered with
format(x, ".6f") (correctly rounded, half to even) and every line ends with
'\n', so two runs over the same inputs are byte-identical regardless of
platform. Commands never modify the dataset directory.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import replace
from functools import cached_property
from operator import attrgetter
from pathlib import Path

from . import ingest, synth
from .cohort import DR, IR, CohortResult, select_cohorts
from .config import SynthSpec, load_config
from .errors import _SHOWN_CHARS, ConfigError, DataError, SlumberError, _shown
from .interact import field_distribution, interaction_matrix
from .model import Dataset, ValidationIssue, ValidationReport
from .patent import (
    BINARY_INDICATORS,
    LAG_FROM_PUBLICATION,
    LAG_FROM_TURNING,
    PatentIndicators,
    compute_indicators,
    lag_trend_points,
)
from .stats import aagr, moving_window_mean, summary_stats, two_proportion_test
from .tables import write_json_lines, write_rows

# The p cell of a Table-1 row whose pooled rate makes the z test undefined.
DEGENERATE_LABEL = "DegeneratePool"


def _load_and_validate(args) -> tuple[SynthSpec, Dataset, ValidationReport]:
    """The settings, then the `--dataset` they read, then the dataset's validation report."""
    config = load_config(args.config)
    dataset = ingest.load_dataset(args.dataset, config.window_end)
    return config, dataset, ingest.validate_dataset(dataset)


def _id_text(entity: str) -> str:
    """An id at the head of a line: whole, or cut short like a rejected value when too long."""
    return _shown(entity) if len(entity) > _SHOWN_CHARS else entity


def _issue_text(issue: ValidationIssue) -> str:
    return f"{_id_text(issue.entity_id)}: {issue.message}"


def _warn(message: str) -> None:
    """Print a warning line to the current stderr, as the error lines are printed."""
    print(f"WARNING slumber: {message}", file=sys.stderr)


class Run:
    """One analysis command: its config and validated dataset, loaded once.

    The values derived from the dataset alone (profiles, citing families)
    are cached on the Dataset instance. Run keeps the values that also
    depend on the config, the cohort result and the cohort indicators, and
    computes each on first use, so a command that needs one of them twice,
    directly or through another, computes it once.
    """

    def __init__(self, args) -> None:
        self.config, self.dataset, report = _load_and_validate(args)
        for issue in report.warnings():
            _warn(_issue_text(issue))
        if report.has_errors():
            for issue in report.errors():
                print(f"error {_issue_text(issue)}")
            raise DataError(f"dataset failed validation with {len(report.errors())} errors")
        self.out = args.out

    @cached_property
    def cohorts(self) -> CohortResult:
        return select_cohorts(
            self.dataset,
            pub_from=self.config.pub_from,
            pub_to=self.config.pub_to,
            min_total_citations=self.config.min_total_citations,
            fraction=self.config.fraction,
        )

    @cached_property
    def cohort_indicators(self) -> tuple[list[PatentIndicators], list[PatentIndicators]]:
        """Patent indicators of the DR and the IR cohort, in rank order."""
        dr_ids, ir_ids = self.cohorts.members(DR), self.cohorts.members(IR)
        by_id = compute_indicators(self.dataset, [*dr_ids, *ir_ids])
        return [by_id[p] for p in dr_ids], [by_id[p] for p in ir_ids]

    def write(self, name: str, writer, *payload) -> None:
        """Write one report under `--out`, made here so that a refused command writes nothing."""
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        writer(path, *payload)
        print(f"wrote {path}")


def _fmt(x: float) -> str:
    return format(x, ".6f")


def cmd_profile(run: Run) -> None:
    papers, series = run.dataset.papers, run.dataset.series
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
            pid,
            papers[pid].pub_year,
            series[pid].t_m,
            series[pid].total,
            _fmt(prof.bcp),
            prof.turning_t,
            prof.turning_year,
            prof.turning_type,
        )
        for pid, prof in run.dataset.profiles.items()
    )
    run.write("profiles.csv", write_rows, columns, rows)


def cmd_cohort(run: Run) -> None:
    rows = ((a.paper_id, a.rank, _fmt(a.bcp), a.cohort) for a in run.cohorts.assignments)
    run.write("cohort.csv", write_rows, ("paper_id", "rank", "bcp", "cohort"), rows)


def cmd_patents(run: Run) -> None:
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
    indicators = compute_indicators(run.dataset, list(run.dataset.profiles))
    # The csv writer leaves a None cell empty.
    run.write("patent_indicators.csv", write_rows, columns, map(attrgetter(*columns), indicators.values()))


def cmd_table1(run: Run) -> None:
    """Three binary indicators by two groups, the DR row carrying the test.

    When the pooled rate is degenerate (0 or 1) the z test is undefined; the
    per-group rates and intervals still go out, with the p cell labelled
    instead of a number.
    """
    dr, ir = run.cohort_indicators
    if not ir:
        raise DataError(
            f"IR cohort is empty: {run.cohorts.eligible_count} eligible papers"
            f" at fraction {run.config.fraction} leave none after DR"
        )
    n1, n2 = len(dr), len(ir)
    rows = []
    for name, predicate in BINARY_INDICATORS:
        k1 = sum(1 for i in dr if predicate(i))
        k2 = sum(1 for i in ir if predicate(i))
        res = two_proportion_test(k1, n1, k2, n2)
        if res.z is None:
            ratio, z, p = "", "", DEGENERATE_LABEL
        else:
            ratio = "" if res.rate_ratio is None else _fmt(res.rate_ratio)
            z, p = _fmt(res.z), _fmt(res.p_two_sided)
        a, b = res.group_a, res.group_b
        rows.append((name, DR, k1, n1 - k1, _fmt(a.rate), _fmt(a.ci_low), _fmt(a.ci_high), ratio, z, p))
        rows.append((name, IR, k2, n2 - k2, _fmt(b.rate), _fmt(b.ci_low), _fmt(b.ci_high), "", "", ""))
    columns = ("indicator", "group", "yes", "no", "rate", "ci_low", "ci_high", "rate_ratio", "z", "p")
    run.write("comparison.csv", write_rows, columns, rows)


def cmd_lag_trend(run: Run) -> None:
    dr_inds, ir_inds = run.cohort_indicators
    trend_rows, summary_rows = [], []
    for cohort, inds, mode in ((DR, dr_inds, LAG_FROM_PUBLICATION), (IR, ir_inds, LAG_FROM_TURNING)):
        points = lag_trend_points(inds, run.dataset, mode)
        if not points:
            continue
        for w in moving_window_mean(points, width=run.config.window_width):
            trend_rows.append((cohort, mode, w.start_year, w.end_year, _fmt(w.mean), w.n_obs))
        values = [v for _, v in points]
        s = summary_stats(values)
        sd = "" if s.sd is None else _fmt(s.sd)
        summary_rows.append((cohort, mode, len(values), _fmt(s.min), _fmt(s.max), _fmt(s.median), sd))
    columns = ("cohort", "mode", "window_start", "window_end", "mean_lag", "n_obs")
    run.write("lag_trend.csv", write_rows, columns, trend_rows)
    columns = ("cohort", "mode", "n", "min", "max", "median", "sd")
    run.write("lag_summary.csv", write_rows, columns, summary_rows)


def cmd_interactions(run: Run) -> None:
    for tag, cohort in (("dr", DR), ("ir", IR)):
        ids = run.cohorts.members(cohort)
        matrix = interaction_matrix(run.dataset, ids)
        dist = field_distribution(run.dataset, ids)
        cells = ((c.field_of_study, c.wipo_field_id, c.wipo_field_name, c.weight) for c in matrix.cells)
        columns = ("field_of_study", "wipo_field_id", "wipo_field_name", "weight")
        run.write(f"interactions_{tag}.csv", write_rows, columns, cells)
        # Row and column sums in one long-form file, the axis column telling which.
        names = {c.wipo_field_id: c.wipo_field_name for c in matrix.cells}
        marginals = [
            *(("field_of_study", field, "", weight) for field, weight in matrix.field_marginals().items()),
            *(("wipo_field", tid, names[tid], weight) for tid, weight in matrix.wipo_marginals().items()),
        ]
        columns = ("axis", "key", "label", "weight")
        run.write(f"interaction_marginals_{tag}.csv", write_rows, columns, marginals)
        shares = ((field, count, _fmt(dist.share(field))) for field, count in dist.counts)
        run.write(f"field_distribution_{tag}.csv", write_rows, ("field_of_study", "papers", "share"), shares)


def cmd_aagr(run: Run) -> None:
    dataset, method = run.dataset, run.config.aagr_method
    rows = []
    for pid, prof in dataset.profiles.items():
        try:
            res = aagr(dataset.series[pid].year_counts(), prof.turning_year, dataset.window_end, method)
        except DataError as exc:
            _warn(f"{_id_text(pid)}: {exc}; skipped")
            continue
        growth = _fmt(res.value_percent)
        rows.append((pid, res.base_year, res.end_year, res.method, growth, res.skipped_years))
    columns = ("paper_id", "base_year", "end_year", "method", "aagr_percent", "skipped_years")
    run.write("aagr.csv", write_rows, columns, rows)


def cmd_flag_contexts(run: Run) -> None:
    contexts = run.dataset.contexts
    if contexts is None:
        _warn("dataset has no contexts file; writing an empty report")
        contexts = ()
    flagged = ingest.flag_contexts(contexts, run.config.terms)
    records = ({**ingest.context_object(rec), "matched_terms": list(terms)} for rec, terms in flagged)
    run.write("flagged_contexts.jsonl", write_json_lines, records)


def cmd_synth(args) -> int:
    spec = load_config(args.config)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    result = synth.generate(spec)
    ingest.write_dataset(result.dataset, args.out)
    print(f"wrote dataset with {spec.n_papers} papers to {args.out}")
    return 0


def cmd_validate(args) -> int:
    _, _, report = _load_and_validate(args)
    for issue in report.issues:
        print(f"{issue.severity} {_issue_text(issue)}")
    errors = len(report.errors())
    print(f"{errors} errors, {len(report.warnings())} warnings")
    return 1 if errors else 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--dataset", type=Path, help="dataset directory to read")
    shared.add_argument("--out", type=Path, help="directory for generated files")
    shared.add_argument("--config", type=Path, help="key=value overrides file")

    parser = argparse.ArgumentParser(
        prog="slumber",
        description="Delayed- vs instant-recognition citation analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analysis = ("dataset", "out")  # the flags each command needs, which main checks first
    for name, handler, required, blurb in (
        ("profile", cmd_profile, analysis, "per-paper curve profiles"),
        ("cohort", cmd_cohort, analysis, "rank papers and pick the DR/IR cohorts"),
        ("patents", cmd_patents, analysis, "per-paper patent-linkage indicators"),
        ("table1", cmd_table1, analysis, "DR vs IR binary-indicator comparison"),
        ("lag-trend", cmd_lag_trend, analysis, "moving-window lag trends and summaries"),
        ("interactions", cmd_interactions, analysis, "field-of-study x technology-field matrices"),
        ("aagr", cmd_aagr, analysis, "per-paper citation growth from the turning year"),
        ("flag-contexts", cmd_flag_contexts, analysis, "flag citation sentences by term list"),
        ("synth", cmd_synth, ("out",), "generate a synthetic dataset directory"),
        ("validate", cmd_validate, ("dataset",), "check a dataset and print issues"),
    ):
        p = sub.add_parser(name, parents=[shared], help=blurb)
        p.set_defaults(func=handler, required=required)
    sub.choices["synth"].add_argument("--seed", type=int, default=None, help="random seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Safe: a command builds only acyclic records, all kept until it returns.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if missing := [flag for flag in args.required if getattr(args, flag) is None]:
            raise ConfigError(f"this command requires --{missing[0]}")  # before any file is read
        if args.command in ("synth", "validate"):
            return args.func(args)
        args.func(Run(args))
        return 0
    except SlumberError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
