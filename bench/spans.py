"""Span tracing for one slumber CLI process, and the per-layer summary of its spans.

Run as a script, it stands in for ``python -m slumber.cli``:

    python3 bench/spans.py SPANS.json -- table1 --dataset DIR --out DIR

It imports ``slumber.cli``, wraps the public functions of every layer module
at every module binding of them (``slumber.curve.profile``, and
``select_cohorts`` as imported into ``slumber.cli``), runs the command, and
writes the recorded spans to SPANS.json when the command ends. Spans stay in
memory until then. The exit code is the command's.

A span is (id, parent id, name, start, end, thread id, value). The parent is
the innermost open span on the same thread; a span opened on a worker thread
with none open there takes the main thread's innermost open span, which is the
call that handed it the work. The value is an optional count taken from the
call's arguments or result (rows parsed, curve years, the eligible pool).
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import resource
import sys
import threading
import time
from collections import defaultdict

# Modules under src/slumber/ that form the layers; model and errors hold only
# record and exception types.
LAYERS = ("cli", "ingest", "synth", "curve", "parallel", "cohort", "patent", "interact", "stats", "reports")

# Per-element helpers called in the inner loop of a traced function. A span
# around each call would cost more than the call and swamp its caller's time.
UNTRACED = frozenset(
    {
        "curve.cumulative_fraction",  # steps of curve.profile, once per paper
        "curve.turning_point",
        "curve.bcp",
        "curve.reference_line",
        "interact.normalize_ipc",  # once per concordance entry per IPC lookup
        "reports.fmt",  # once per float cell written
        "ingest.parse_fields_of_study",  # once per papers.csv row
        "ingest.format_fields_of_study",  # once per papers.csv row written
    }
)


def _rss_mb(args, result):
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _unmapped_code(args, result):
    return args[0] if result is None else None


# Counts recorded with a span, keyed by span name.
MEASURES = {
    "ingest.load_dataset": _rss_mb,  # peak RSS of the process once loading is done
    "ingest.parse_citations": lambda args, result: len(result),
    "curve.profile": lambda args, result: len(args[0].counts),
    "parallel.parallel_map": lambda args, result: len(result),
    "cohort.select_cohorts": lambda args, result: result.eligible_count,
    "interact.wipo_field_for": _unmapped_code,
}

# Functions the per-layer metrics are computed from; a missing one is reported
# as absent, and its metrics read 0.
TARGETS = (
    "cli.main",
    "ingest.load_dataset",
    "ingest.parse_papers",
    "ingest.parse_citations",
    "ingest.parse_patents",
    "ingest.build_series",
    "ingest.validate_dataset",
    "curve.profile",
    "parallel.parallel_map",
    "cohort.select_cohorts",
    "patent.families_by_paper",
    "patent.compute_indicators",
    "interact.wipo_field_for",
    "interact.interaction_matrix",
)

_NO_RESULT = object()


class Tracer:
    """Collects spans from every thread of the process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.wrapped: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn):
        measure = MEASURES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # Slicing cannot fail if the main thread pops its stack meanwhile.
            parent = (stack[-1:] or tracer._main_stack[-1:] or [0])[0]
            sid = next(tracer._ids)
            stack.append(sid)
            result = _NO_RESULT
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = None
                if measure is not None and result is not _NO_RESULT:
                    try:
                        value = measure(args, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        value = None
                tracer.spans.append((sid, parent, name, start, end, threading.get_ident(), value))

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap each layer's public functions wherever a slumber module binds them."""
        replacements = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"slumber.{layer}")
            except ModuleNotFoundError:
                continue
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or name in UNTRACED
                ):
                    continue
                replacements[id(fn)] = self.wrap(name, fn)
                self.wrapped.add(name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "slumber" and not mod_name.startswith("slumber."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def absent(self) -> list[str]:
        return [t for t in TARGETS if t not in self.wrapped]


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list, main_thread: int) -> dict:
    """Per-name totals of a command's spans.

    "names" maps each span name to its calls, total_s (summed durations;
    spans on parallel threads overlap, so this can exceed wall time), self_s
    (each duration minus the part of it covered by the union of its child
    spans) and the recorded values. "layers" maps each layer to the summed
    duration of its spans whose parent belongs to another layer, so nested
    calls within a layer count once. "worker_threads" is the number of
    threads other than the main one that recorded a span.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, name, start, end, thread, value in spans:
        if parent:
            children[parent].append((start, end))
    names: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "values": []})
    layers: dict[str, float] = defaultdict(float)
    threads = set()
    for sid, parent, name, start, end, thread, value in spans:
        if thread != main_thread:
            threads.add(thread)
        entry = names[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - _covered(start, end, children.get(sid, []))
        if value is not None:
            entry["values"].append(value)
        layer = name.partition(".")[0]
        parent_span = by_id.get(parent)
        if parent_span is None or parent_span[2].partition(".")[0] != layer:
            layers[layer] += end - start
    return {"names": dict(names), "layers": dict(layers), "worker_threads": len(threads), "spans": len(spans)}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS.json -- <slumber command and flags>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    start = time.perf_counter()
    import slumber.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return slumber.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "import_s": import_s,
                    "absent": tracer.absent(),
                    "main_thread": threading.main_thread().ident,
                    "spans": tracer.spans,
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
