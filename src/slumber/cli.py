"""Command-line orchestration over a dataset directory.

Every command reads `--dataset DIR`, writes reports under `--out DIR`, and
takes overrides from `--config FILE` (plain key=value lines; keys mirror
RunConfig, plus the synth generator's spec fields for `synth`). Exit codes:
0 success, 1 bad data or configuration, 2 I/O failure, or a command line that
does not parse.

Commands never modify the dataset directory, and re-running one over
unchanged inputs rewrites byte-identical reports.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

from . import ingest, reports, synth
from .cohort import DR, IR, CohortResult, select_cohorts
from .errors import ConfigError, DataError, SlumberError
from .interact import field_distribution, interaction_matrix
from .model import Dataset, ValidationReport
from .patent import (
    LAG_FROM_PUBLICATION,
    LAG_FROM_TURNING,
    PatentIndicators,
    compute_indicators,
    lag_trend_points,
)
from .stats import aagr, moving_window_mean, summary_stats

log = logging.getLogger("slumber")


@dataclass(frozen=True)
class RunConfig:
    pub_from: int = 1970
    pub_to: int = 2005
    window_end: int = 2015
    min_total_citations: int = 200
    fraction: float = 0.01
    window_width: int = 5
    aagr_method: str = "arithmetic"
    terms: tuple[str, ...] = ingest.DEFAULT_DISPUTE_TERMS

    def __post_init__(self) -> None:
        if not self.pub_from <= self.pub_to < self.window_end:
            raise ConfigError(
                f"need pub_from <= pub_to < window_end, got {self.pub_from}, {self.pub_to}, {self.window_end}"
            )
        if self.aagr_method not in ("arithmetic", "compound"):
            raise ConfigError(f"aagr_method must be arithmetic or compound, not {self.aagr_method!r}")
        if not self.terms:
            raise ConfigError("terms must name at least one word")


# Each config key's type, from the defaults of the dataclasses it fills.
_KEY_TYPES = {f.name: type(f.default) for cls in (RunConfig, synth.SynthSpec) for f in fields(cls)}


def _coerce(key: str, raw: str):
    kind = _KEY_TYPES[key]
    if kind is tuple:
        return tuple(t.strip() for t in raw.split(",") if t.strip())
    try:
        return kind(raw)
    except ValueError:
        if kind is int:
            raise ConfigError(f"config key {key!r} takes an integer, not {raw!r}") from None
        raise ConfigError(f"config key {key!r} has non-numeric value {raw!r}") from None


def load_config(cls, path: Path | None):
    """A RunConfig or SynthSpec from a file of key=value lines, or the defaults without one.

    Blank lines and # comments are ignored. One file may serve both classes,
    so every key is checked and coerced, also the keys that only the other
    class takes, and then `cls` keeps its own.
    """
    try:
        lines = path.read_text(encoding="utf-8").splitlines() if path else []
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8: {exc.reason}") from None
    pairs: dict[str, str] = {}
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
        pairs[key.strip()] = value.strip()
    for key in pairs:
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
    typed = {k: _coerce(k, v) for k, v in pairs.items()}
    return cls(**{f.name: typed[f.name] for f in fields(cls) if f.name in typed})


def _require(value, flag: str):
    if value is None:
        raise ConfigError(f"this command requires {flag}")
    return value


def _load_and_validate(args) -> tuple[RunConfig, Dataset, ValidationReport]:
    """The run config, then the `--dataset` it reads, then the dataset's validation report."""
    config = load_config(RunConfig, args.config)
    dataset = ingest.load_dataset(_require(args.dataset, "--dataset"), config.window_end)
    return config, dataset, ingest.validate_dataset(dataset)


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
            log.warning("%s: %s", issue.entity_id, issue.message)
        if report.has_errors():
            for issue in report.errors():
                print(f"error {issue.entity_id}: {issue.message}")
            raise DataError(f"dataset failed validation with {len(report.errors())} errors")
        self.out = Path(_require(args.out, "--out"))
        self.out.mkdir(parents=True, exist_ok=True)

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
        path = self.out / name
        writer(*payload, path)
        print(f"wrote {path}")


def cmd_profile(run: Run) -> None:
    run.write("profiles.csv", reports.write_profiles, run.dataset, run.dataset.profiles.values())


def cmd_cohort(run: Run) -> None:
    run.write("cohort.csv", reports.write_cohorts, run.cohorts)


def cmd_patents(run: Run) -> None:
    indicators = compute_indicators(run.dataset, list(run.dataset.profiles))
    run.write("patent_indicators.csv", reports.write_indicators, indicators.values())


def cmd_table1(run: Run) -> None:
    run.write("comparison.csv", reports.write_comparison, *run.cohort_indicators)


def cmd_lag_trend(run: Run) -> None:
    dr_inds, ir_inds = run.cohort_indicators
    trends = {}
    summaries = {}
    for cohort, inds, mode in ((DR, dr_inds, LAG_FROM_PUBLICATION), (IR, ir_inds, LAG_FROM_TURNING)):
        points = lag_trend_points(inds, run.dataset, mode)
        if not points:
            continue
        trends[(cohort, mode)] = moving_window_mean(points, width=run.config.window_width)
        values = [v for _, v in points]
        summaries[(cohort, mode)] = (len(values), summary_stats(values))
    run.write("lag_trend.csv", reports.write_lag_trend, trends)
    run.write("lag_summary.csv", reports.write_lag_summary, summaries)


def cmd_interactions(run: Run) -> None:
    for tag, cohort in (("dr", DR), ("ir", IR)):
        ids = run.cohorts.members(cohort)
        matrix = interaction_matrix(run.dataset, ids)
        dist = field_distribution(run.dataset, ids)
        run.write(f"interactions_{tag}.csv", reports.write_interactions, matrix)
        run.write(f"interaction_marginals_{tag}.csv", reports.write_interaction_marginals, matrix)
        run.write(f"field_distribution_{tag}.csv", reports.write_field_distribution, dist)


def cmd_aagr(run: Run) -> None:
    dataset, method = run.dataset, run.config.aagr_method
    rows = []
    for pid, prof in dataset.profiles.items():
        if prof.turning_year >= dataset.window_end:
            log.warning("%s: turning year is the window end; growth undefined; skipped", pid)
            continue
        try:
            rows.append(
                (pid, aagr(dataset.series[pid].year_counts(), prof.turning_year, dataset.window_end, method))
            )
        except DataError as exc:
            log.warning("%s: %s; skipped", pid, exc)
    run.write("aagr.csv", reports.write_growth, rows)


def cmd_flag_contexts(run: Run) -> None:
    contexts = run.dataset.contexts
    if contexts is None:
        log.warning("dataset has no contexts file; writing an empty report")
        contexts = ()
    flagged = ingest.flag_contexts(contexts, run.config.terms)
    run.write("flagged_contexts.jsonl", reports.write_flagged_contexts, flagged)


def cmd_synth(args) -> int:
    spec = load_config(synth.SynthSpec, args.config)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    out = Path(_require(args.out, "--out"))
    result = synth.generate(spec)
    ingest.write_dataset(result.dataset, out)
    print(f"wrote dataset with {spec.n_papers} papers to {out}")
    return 0


def cmd_validate(args) -> int:
    _, _, report = _load_and_validate(args)
    for issue in report.issues:
        print(f"{issue.severity} {issue.entity_id}: {issue.message}")
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
    for name, handler, blurb in (
        ("profile", cmd_profile, "per-paper curve profiles"),
        ("cohort", cmd_cohort, "rank papers and pick the DR/IR cohorts"),
        ("patents", cmd_patents, "per-paper patent-linkage indicators"),
        ("table1", cmd_table1, "DR vs IR binary-indicator comparison"),
        ("lag-trend", cmd_lag_trend, "moving-window lag trends and summaries"),
        ("interactions", cmd_interactions, "field-of-study x technology-field matrices"),
        ("aagr", cmd_aagr, "per-paper citation growth from the turning year"),
        ("flag-contexts", cmd_flag_contexts, "flag citation sentences by term list"),
        ("synth", cmd_synth, "generate a synthetic dataset directory"),
        ("validate", cmd_validate, "check a dataset and print issues"),
    ):
        p = sub.add_parser(name, parents=[shared], help=blurb)
        p.set_defaults(func=handler)
    sub.choices["synth"].add_argument("--seed", type=int, default=None, help="random seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
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


if __name__ == "__main__":
    raise SystemExit(main())
