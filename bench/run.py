"""Benchmark of the slumber CLI on seeded synthetic datasets.

    python3 bench/run.py --workload pool-5k --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The benchmark writes the workload's
dataset under .bench_work/ (set-up), then runs the workload's commands the
way an analyst does: one command at a time, each in a fresh
``python -m slumber.cli`` process, the next only after the last has exited
(a closed loop with one client). It repeats that pass of commands while
another fits in --seconds, and checks every report each command writes.

Times are scaled to a reference machine speed. The benchmark times
bench/calibration.py, fixed work that does not use slumber, in a fresh
interpreter: before each step of set-up and once after the last, and before
each command (and at the end, until it has MIN_CALIBRATIONS of them). It
multiplies each set-up time by CALIBRATION_REFERENCE_S over the median of the
set-up timings, and each command time by the same over the median of the
command timings. A run made while other load slows the machine then reports
about the same times as one made on a quiet machine. The unscaled times and
the calibration timings are on the `run ` line of the output.

--trace 0 prints the end-to-end metrics. --trace 1 instead alternates a plain
pass with a pass whose commands run under bench/spans.py, and prints
per-layer metrics from the spans, plus the tracing overhead: the traced
pass's wall time over the plain one's, less one.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The line before it, starting `run `, records the environment, the
calibration timings and the unscaled metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3  # at least this many set-ups, and more while SETUP_SECONDS have not passed
SETUP_SECONDS = 10.0
MIN_CALIBRATIONS = 15  # a run with few commands tops up its calibration timings at the end
CALIBRATION_REFERENCE_S = 0.26  # a typical calibration.py time on a 2-vCPU Xeon VM, Python 3.11; sets the unit only

sys.path.insert(0, str(SRC))

from checks import Oracle, check_reports, load_digests, record_digests, report_digests  # noqa: E402
from spans import summarize  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ingest.load_dataset_s": "s",
    "ingest.parse_citations_s": "s",
    "ingest.parse_papers_s": "s",
    "ingest.parse_patents_s": "s",
    "ingest.build_series_s": "s",
    "ingest.citation_rows": "count",
    "ingest.us_per_citation_row": "us",
    "ingest.load_rss_mb": "MB",
    "ingest.validate_dataset_self_s": "s",
    "ingest.write_dataset_s": "s",
    "synth.generate_s": "s",
    "curve.profile_calls": "count",
    "curve.profile_calls_per_paper": "ratio",
    "curve.profile_s": "s",
    "curve.us_per_curve_year": "us",
    "parallel.parallel_map_s": "s",
    "parallel.items": "count",
    "parallel.worker_threads": "count",
    "cohort.select_cohorts_s": "s",
    "cohort.select_cohorts_self_s": "s",
    "cohort.eligible_papers": "count",
    "patent.families_by_paper_calls": "count",
    "patent.families_by_paper_s": "s",
    "patent.compute_indicators_s": "s",
    "interact.wipo_field_for_calls": "count",
    "interact.wipo_field_for_s": "s",
    "interact.us_per_ipc_lookup": "us",
    "interact.interaction_matrix_self_s": "s",
    "interact.unmapped_codes": "count",
    "stats.s": "s",
    "reports.write_s": "s",
    "reports.bytes_written": "B",
    "cli.table1_s": "s",
    "cli.commands_s": "s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
    "trace.absent_targets": "count",
}
SETUP_METRICS = {"setup_s", "ingest.write_dataset_s", "synth.generate_s"}  # scaled by the set-up calibration


@dataclass
class CommandRun:
    command: str
    wall_s: float
    rss_mb: float
    exit_code: int
    digests: dict[str, str]
    report_bytes: int
    problems: list[str]
    spans: dict | None = None  # summarize() of the command's spans, when traced
    import_s: float | None = None
    absent: list[str] = field(default_factory=list)


@dataclass
class Setup:
    generate_s: list[float]
    write_s: list[float]
    calibration_s: list[float]
    oracle: Oracle


def child_env() -> dict[str, str]:
    """The user's environment with this checkout's sources first on the path.

    SLUMBER_THREADS is removed: users leave it unset, so the program picks its
    own worker count.
    """
    env = dict(os.environ)
    env.pop("SLUMBER_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def calibrate(env: dict[str, str], samples: list[float]) -> None:
    """Append the wall time of bench/calibration.py in a fresh interpreter to samples."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "calibration.py")], env=env, check=True)
    samples.append(time.perf_counter() - start)


def scaled(
    metrics: dict[str, float], units: dict[str, str], setup_calibration_s: list[float], calibration_s: list[float]
) -> dict[str, float]:
    """Times (units s and us) at the reference speed; other metrics unchanged.

    Set-up times are scaled by the set-up's calibration timings, command times
    by the commands' ones.
    """

    def scale(key: str) -> float:
        if units[key] not in ("s", "us"):
            return 1.0
        return CALIBRATION_REFERENCE_S / median(setup_calibration_s if key in SETUP_METRICS else calibration_s)

    return {key: value * scale(key) for key, value in metrics.items()}


def set_up(workload, seed: int, data_dir: Path) -> Setup:
    """Generate and write the dataset several times, timing each step.

    The workload's changes to the generated dataset (Workload.finish) are made
    between the two timed steps, so they count in neither.
    """
    from slumber import ingest, synth

    env = child_env()
    generate_s, write_s, calibration_s = [], [], []
    began = time.perf_counter()
    while len(generate_s) < SETUP_REPS or time.perf_counter() - began < SETUP_SECONDS:
        calibrate(env, calibration_s)
        start = time.perf_counter()
        result = synth.generate(workload.synth_spec(seed))
        generate_s.append(time.perf_counter() - start)
        dataset = workload.finish(result.dataset, seed)
        calibrate(env, calibration_s)
        start = time.perf_counter()
        ingest.write_dataset(dataset, data_dir)
        write_s.append(time.perf_counter() - start)
        oracle = workload.oracle(result)
        del result, dataset
    calibrate(env, calibration_s)
    (data_dir.parent / "run.cfg").write_text(workload.config_text(), encoding="utf-8")
    return Setup(generate_s, write_s, calibration_s, oracle)


class Runner:
    """Runs CLI commands in fresh processes and checks what they write."""

    def __init__(self, workload, seed: int, run_dir: Path, setup: Setup, calibration_s: list[float]):
        self.workload = workload
        self.run_dir = run_dir
        self.setup = setup
        self.calibration_s = calibration_s
        self.env = child_env()
        self.recorded = load_digests().get(workload.name, {}).get(str(seed))
        self.count = 0

    def run(self, command: str, traced: bool) -> CommandRun:
        self.count += 1
        out_dir = self.run_dir / "out" / f"{self.count:04d}-{command}"
        spans_path = self.run_dir / "spans.json"
        stdout_path, stderr_path = self.run_dir / "stdout", self.run_dir / "stderr"
        if traced:
            argv = [sys.executable, str(BENCH / "spans.py"), str(spans_path), "--"]
        else:
            argv = [sys.executable, "-m", "slumber.cli"]
        argv += [
            command,
            "--dataset", str(self.run_dir / "data"),
            "--out", str(out_dir),
            "--config", str(self.run_dir / "run.cfg"),
        ]  # fmt: skip
        calibrate(self.env, self.calibration_s)
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            with subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT) as proc:
                _, status, usage = os.wait4(proc.pid, 0)
                wall_s = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = stdout_path.read_bytes()
        digests = report_digests(command, out_dir, stdout)
        run = CommandRun(
            command=command,
            wall_s=wall_s,
            rss_mb=usage.ru_maxrss / 1024,
            exit_code=proc.returncode,
            digests=digests,
            report_bytes=sum(p.stat().st_size for p in out_dir.glob("*")) if out_dir.is_dir() else 0,
            problems=[],
        )
        if proc.returncode != 0:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            run.problems.append(f"{command} exited with {proc.returncode}: {tail}")
        else:
            recorded = None if self.recorded is None else self.recorded.get(command)
            run.problems += check_reports(command, out_dir, stdout, self.setup.oracle, digests, recorded)
        if traced and spans_path.is_file():
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            run.spans = summarize(trace["spans"], trace["main_thread"])
            run.import_s = trace["import_s"]
            run.absent = trace["absent"]
            spans_path.unlink()
        shutil.rmtree(out_dir, ignore_errors=True)
        return run

    def run_pass(self, traced: bool = False) -> list[CommandRun]:
        return [self.run(command, traced) for command in self.workload.commands]


def repeat_within(seconds: float, body) -> list:
    """Call body() until another call would not fit in the time left; at least once."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(body())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def end_to_end_metrics(passes: list[list[CommandRun]], setup: Setup) -> dict[str, float]:
    return {
        "setup_s": median(g + w for g, w in zip(setup.generate_s, setup.write_s)),
        "pipeline_s": median(sum(run.wall_s for run in p) for p in passes),
        "peak_rss_mb": max(run.rss_mb for p in passes for run in p),
    }


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(traced: list[CommandRun], untraced: list[CommandRun], setup: Setup) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its commands unless noted."""
    runs = [r for r in traced if r.spans is not None]

    def name(span_name: str, key: str) -> float:
        return sum(r.spans["names"].get(span_name, {}).get(key, 0) for r in runs)

    def values(span_name: str) -> list:
        return [v for r in runs for v in r.spans["names"].get(span_name, {}).get("values", [])]

    def layer(layer_name: str) -> float:
        return sum(r.spans["layers"].get(layer_name, 0.0) for r in runs)

    def cli_self() -> float:
        return sum(v["self_s"] for r in runs for n, v in r.spans["names"].items() if n.startswith("cli."))

    table1 = [r for r in runs if r.command == "table1"]
    table1_profiles = sum(r.spans["names"].get("curve.profile", {}).get("calls", 0) for r in table1)
    rows = values("ingest.parse_citations")
    curve_years = sum(values("curve.profile"))
    unmapped = [
        len({v for v in r.spans["names"].get("interact.wipo_field_for", {}).get("values", []) if v})
        for r in runs
    ]
    untraced_s = sum(r.wall_s for r in untraced)
    return {
        "ingest.load_dataset_s": name("ingest.load_dataset", "total_s"),
        "ingest.parse_citations_s": name("ingest.parse_citations", "total_s"),
        "ingest.parse_papers_s": name("ingest.parse_papers", "total_s"),
        "ingest.parse_patents_s": name("ingest.parse_patents", "total_s"),
        "ingest.build_series_s": name("ingest.build_series", "total_s"),
        "ingest.citation_rows": max(rows, default=0),
        "ingest.us_per_citation_row": _per(name("ingest.parse_citations", "total_s"), sum(rows), 1e6),
        "ingest.load_rss_mb": max(values("ingest.load_dataset"), default=0.0),
        "ingest.validate_dataset_self_s": name("ingest.validate_dataset", "self_s"),
        "ingest.write_dataset_s": median(setup.write_s),
        "synth.generate_s": median(setup.generate_s),
        "curve.profile_calls": name("curve.profile", "calls"),
        "curve.profile_calls_per_paper": _per(table1_profiles, len(table1) * setup.oracle.usable),
        "curve.profile_s": name("curve.profile", "total_s"),
        "curve.us_per_curve_year": _per(name("curve.profile", "total_s"), curve_years, 1e6),
        "parallel.parallel_map_s": name("parallel.parallel_map", "total_s"),
        "parallel.items": sum(values("parallel.parallel_map")),
        "parallel.worker_threads": max((r.spans["worker_threads"] for r in runs), default=0),
        "cohort.select_cohorts_s": name("cohort.select_cohorts", "total_s"),
        "cohort.select_cohorts_self_s": name("cohort.select_cohorts", "self_s"),
        "cohort.eligible_papers": max(values("cohort.select_cohorts"), default=0),
        "patent.families_by_paper_calls": name("patent.families_by_paper", "calls"),
        "patent.families_by_paper_s": name("patent.families_by_paper", "total_s"),
        "patent.compute_indicators_s": name("patent.compute_indicators", "total_s"),
        "interact.wipo_field_for_calls": name("interact.wipo_field_for", "calls"),
        "interact.wipo_field_for_s": name("interact.wipo_field_for", "total_s"),
        "interact.us_per_ipc_lookup": _per(
            name("interact.wipo_field_for", "total_s"), name("interact.wipo_field_for", "calls"), 1e6
        ),
        "interact.interaction_matrix_self_s": name("interact.interaction_matrix", "self_s"),
        "interact.unmapped_codes": max(unmapped, default=0),
        "stats.s": layer("stats"),
        "reports.write_s": layer("reports"),
        "reports.bytes_written": sum(r.report_bytes for r in traced),
        "cli.table1_s": sum(r.spans["names"].get("cli.main", {}).get("total_s", 0.0) for r in table1),
        "cli.commands_s": name("cli.main", "total_s"),
        "cli.self_s": cli_self(),
        "cli.import_s": median(r.import_s for r in runs) if runs else 0.0,
        "trace.overhead_share": _per(sum(r.wall_s for r in traced) - untraced_s, untraced_s),
        "trace.spans": sum(r.spans["spans"] for r in runs),
        "trace.absent_targets": len({t for r in runs for t in r.absent}),
    }


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "SLUMBER_THREADS": "unset",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="store this seed's report digests in bench/digests.json if every check passed",
    )
    args = parser.parse_args(argv)
    if not (SRC / "slumber" / "cli.py").is_file():
        print(f"run.py: no slumber sources at {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"run.py: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    calibration_s: list[float] = []
    try:
        setup = set_up(workload, args.seed, run_dir / "data")
        runner = Runner(workload, args.seed, run_dir, setup, calibration_s)
        if args.trace:
            pairs = repeat_within(args.seconds, lambda: (runner.run_pass(), runner.run_pass(traced=True)))
            runs = [r for untraced, traced in pairs for r in (*untraced, *traced)]
            for untraced, traced in pairs:
                for u, t in zip(untraced, traced):
                    if u.digests != t.digests:
                        t.problems.append(f"{t.command}: traced reports differ from untraced ones")
            per_pass = [layer_metrics(traced, untraced, setup) for untraced, traced in pairs]
            metrics = {key: median(m[key] for m in per_pass) for key in PER_LAYER}
            units = PER_LAYER
            root_s = {
                r.command: r.spans["names"].get("cli.main", {}).get("total_s", 0.0)
                for _, traced in pairs[:1]
                for r in traced
                if r.spans is not None
            }
            print("unscaled cli.<command>_s " + json.dumps(root_s))
        else:
            passes = repeat_within(args.seconds, runner.run_pass)
            runs = [r for p in passes for r in p]
            metrics = end_to_end_metrics(passes, setup)
            units = END_TO_END
        while len(calibration_s) < MIN_CALIBRATIONS:
            calibrate(runner.env, calibration_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [r for r in runs if r.problems]
    for r in failed:
        for problem in r.problems[:5]:
            print(f"FAIL {problem}", file=sys.stderr)
    if args.record_digests and not failed:
        record_digests(workload.name, args.seed, {r.command: r.digests for r in runs})
    record = {
        **environment(),
        "workload": workload.name,
        "seed": args.seed,
        "runs": len(runs),
        "setup_calibration_s": setup.calibration_s,
        "calibration_s": calibration_s,
        "unscaled": metrics,
    }
    print("run " + json.dumps(record))
    metrics = scaled(metrics, units, setup.calibration_s, calibration_s)
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(runs),
                "failed": len(failed),
                "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
