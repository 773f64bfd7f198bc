"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 --seconds 25 [--workloads a,b] [--trace 1] [--out FILE [--note TEXT]]

For every workload and seed it runs bench/run.py once, seed by seed so the
workloads interleave. For each metric it prints the median of the runs and
the distance between the first and third quartile as a share of the median
(statistics.quantiles with n=4). With --out it also writes the commit and
every run's result and environment line as JSON, so a result can be compared
with later ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid if mid else 0.0}


def commit() -> str:
    result = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return result.stdout.strip() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true", help="passed on to run.py")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--note", default="", help="a line saying how the --out file was made")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    runs = []
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            argv = [
                sys.executable, str(BENCH / "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]  # fmt: skip
            if args.record_digests:
                argv.append("--record-digests")
            start = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            took = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            record = json.loads(lines[-2].removeprefix("run "))
            result = json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed, "wall_s": took, "run": record, **result})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(
                f"{workload} seed {seed}: {took:.1f}s correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} {values}",
                flush=True,
            )

    summary = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload] = {}
        columns = {metric: [r["metrics"][metric]["value"] for r in mine] for metric in mine[0]["metrics"]}
        for metric in mine[0]["run"]["unscaled"]:
            columns[f"unscaled.{metric}"] = [r["run"]["unscaled"][metric] for r in mine]
        for metric, values in columns.items():
            summary[workload][metric] = spread(values) if len(values) > 1 else {"median": values[0]}
            s = summary[workload][metric]
            print(f"{workload:12s} {metric:36s} median {s['median']:.6g}  spread {s.get('spread', 0):.4f}")
    if args.out:
        record = {
            "note": args.note,
            "commit": commit(),
            "seconds": args.seconds,
            "trace": args.trace,
            "summary": summary,
            "runs": runs,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
