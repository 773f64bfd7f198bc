"""Acceptance checks for the toolkit's headline guarantees.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them) and
then asserts, so the transcript doubles as a checklist. Oracles are computed
inside this module with exact rational arithmetic or brute-force counting,
independent of the library code under test.
"""

from __future__ import annotations

import csv
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from reference import series_from_counts
from slumber import cli, curve, synth
from slumber.cohort import DR, IR, select_cohorts
from slumber.interact import interaction_matrix
from slumber.model import (
    CitationSeries,
    Dataset,
    FieldOfStudy,
    PaperRecord,
    PatentCitationLink,
    PatentFamilyRecord,
)
from slumber.patent import (
    LAG_FROM_TURNING,
    compute_indicators,
    families_by_paper,
    indicators_for,
    lag_trend_points,
)
from slumber.stats import moving_window_mean


def report(num: int, label: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"{status} {num:02d} {label}{suffix}")


def make_series(counts, pid="p", base_year=1970) -> CitationSeries:
    return series_from_counts(pid, base_year, counts)


def seeded_series(seed: int, n: int) -> list[list[int]]:
    """n random count vectors: lengths 3..61 (t_m 2..60), counts 0..50, total > 0."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        t_m = rng.randint(2, 60)
        counts = [rng.randint(0, 50) for _ in range(t_m + 1)]
        if sum(counts) > 0:
            out.append(counts)
    return out


def oracle_turning_t(counts) -> int:
    """Exhaustive rational argmax of point-to-line distance, earliest tie."""
    total = sum(counts)
    t_m = len(counts) - 1
    cum, run = [], 0
    for c in counts:
        run += c
        cum.append(Fraction(run, total))
    c0 = cum[0]
    best_t, best = 0, Fraction(0)
    for t in range(t_m + 1):
        d2 = ((1 - c0) * t - t_m * (cum[t] - c0)) ** 2
        if d2 > best:
            best, best_t = d2, t
    return best_t


def run_cli(tmp_path: Path, *argv: str) -> int:
    return cli.main(list(argv))


def fixture_dir() -> Path:
    return Path(__file__).resolve().parent.parent / "data" / "table1_fixture"


def half_config(tmp_path: Path) -> Path:
    cfg = tmp_path / "half.cfg"
    cfg.write_text("fraction=0.5\n", encoding="utf-8")
    return cfg


def read_comparison(path: Path) -> dict[tuple[str, str], dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {(r["indicator"], r["group"]): r for r in csv.DictReader(fh)}


def test_c01_benchmark_comparison_table(tmp_path, capsys):
    out = tmp_path / "out"
    started = time.perf_counter()
    code = run_cli(
        tmp_path,
        "table1",
        "--dataset", str(fixture_dir()),
        "--out", str(out),
        "--config", str(half_config(tmp_path)),
    )
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    rows = read_comparison(out / "comparison.csv")

    targets = {
        ("linked", "DR"): (0.495, (0.426, 0.564)),
        ("linked", "IR"): (0.350, (0.284, 0.416)),
        ("forward_cited", "DR"): (0.410, (0.342, 0.478)),
        ("forward_cited", "IR"): (0.285, (0.222, 0.348)),
        ("durably_cited", "DR"): (0.375, (0.308, 0.442)),
        ("durably_cited", "IR"): (0.205, (0.149, 0.261)),
    }
    checks = [code == 0, elapsed < 1.0]
    for key, (rate, (lo, hi)) in targets.items():
        row = rows[key]
        checks.append(abs(float(row["rate"]) - rate) <= 1e-9)
        checks.append(abs(float(row["ci_low"]) - lo) <= 0.0005)
        checks.append(abs(float(row["ci_high"]) - hi) <= 0.0005)
    p_linked = float(rows[("linked", "DR")]["p"])
    p_forward = float(rows[("forward_cited", "DR")]["p"])
    p_durable = float(rows[("durably_cited", "DR")]["p"])
    checks.append(abs(p_linked - 0.003) <= 0.0005)
    checks.append(abs(p_forward - 0.009) <= 0.0005)
    checks.append(p_durable < 0.001)

    ok = all(checks)
    report(1, "benchmark comparison table: rates, CIs, p-values", ok, f"{elapsed:.2f}s")
    assert ok


def test_c02_extreme_value_identities():
    started = time.perf_counter()
    ok = True
    for t_m in range(2, 61):
        late = curve.profile(make_series([0] * t_m + [9])).bcp
        early = curve.profile(make_series([0, 9] + [0] * (t_m - 1))).bcp
        ok = ok and abs(late - (t_m - 1) / 2) <= 1e-9
        ok = ok and abs(early + (t_m - 1) / 2) <= 1e-9
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report(2, "extreme series hit +/-(t_m - 1)/2 within 1e-9", ok, f"{elapsed:.2f}s")
    assert ok


def test_c03_uniform_series_scores_zero():
    ok = True
    for t_m in range(2, 61):
        prof = curve.profile(make_series([3] * (t_m + 1)))
        ok = ok and abs(prof.bcp) <= 1e-12
        ok = ok and prof.turning_type == curve.FLAT
    report(3, "uniform series score 0 within 1e-12 and type flat", ok)
    assert ok


def test_c04_turning_point_oracle_equivalence():
    started = time.perf_counter()
    mismatches = 0
    for counts in seeded_series(1404, 1000):
        if curve.profile(make_series(counts)).turning_t != oracle_turning_t(counts):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 5.0
    report(
        4,
        "turning point matches exhaustive argmax on 1000 random series",
        ok,
        f"{mismatches} mismatches, {elapsed:.2f}s",
    )
    assert ok


def test_c05_scale_invariance_bit_identical():
    ok = True
    for counts in seeded_series(1505, 200):
        base = curve.profile(make_series(counts))
        for k in (2, 7, 100):
            scaled = curve.profile(make_series([c * k for c in counts]))
            ok = ok and scaled.bcp == base.bcp
            ok = ok and scaled.turning_t == base.turning_t
            ok = ok and scaled.turning_type == base.turning_type
    report(5, "index and turning bit-identical under count scaling", ok)
    assert ok


def test_c06_bound_property():
    ok = True
    for counts in seeded_series(1404, 1000):
        t_m = len(counts) - 1
        b = curve.profile(make_series(counts)).bcp
        ok = ok and abs(b) <= (t_m - 1) / 2 + 1e-9
    report(6, "|index| bounded by (t_m - 1)/2 on the same 1000 series", ok)
    assert ok


def test_c07_cohort_sizing():
    dataset = synth.generate(synth.SynthSpec(n_papers=20000, seed=77)).dataset
    started = time.perf_counter()
    profiles = [curve.profile(s) for s in dataset.series.values()]
    result = select_cohorts(dataset, 1970, 2005, 200, fraction=0.01)
    elapsed = time.perf_counter() - started
    big_ok = (
        len(profiles) == 20000
        and result.eligible_count == 20000
        and len(result.members(DR)) == 200
        and len(result.members(IR)) == 200
    )

    papers = {
        f"p{i}": PaperRecord(paper_id=f"p{i}", pub_year=2000, fields_of_study=())
        for i in range(5)
    }
    series = {
        pid: series_from_counts(pid, 2000, (0, i, 5 - i, 0, 10)) for i, pid in enumerate(papers)
    }
    tiny = Dataset(
        papers=papers, series=series, patents={}, links=(), concordance=(),
        window_end=2004, contexts=None,
    )
    tiny_result = select_cohorts(tiny, 1990, 2004, 1, fraction=0.01)
    tiny_ok = (
        len(tiny_result.members(DR)) == 1 and len(tiny_result.members(IR)) == 1
    )

    ok = big_ok and tiny_ok and elapsed < 10.0
    report(
        7,
        "cohorts: 20000 papers at 1% -> 200/200; 5 papers -> 1/1",
        ok,
        f"{elapsed:.2f}s",
    )
    assert ok


def test_c08_timing_classes_and_worked_lag_example(table1):
    result = select_cohorts(table1, 1970, 2005, 200, fraction=0.5)
    grouped = families_by_paper(table1)
    dr_inds = compute_indicators(table1, result.members(DR))
    counts = Counter(
        ind.timing_class for ind in dr_inds.values() if ind.timing_class is not None
    )
    fixture_ok = counts == {"Earlier": 69, "Same": 5, "Later": 25}

    # A paper cited steadily through 1982 and then dropped; its first citing
    # family filed in 1980, two years before the turning year.
    paper = PaperRecord(paper_id="w", pub_year=1970)
    series = make_series([25] * 13 + [0] * 33, pid="w")
    prof = curve.profile(series)
    family = PatentFamilyRecord("fw", 1980, (1980,), 5, ())
    ind = indicators_for(paper, (family,), prof.turning_year)
    ds = Dataset(
        papers={"w": paper}, series={"w": series}, patents={"fw": family},
        links=(PatentCitationLink("w", "fw"),), concordance=(), window_end=2015,
        contexts=None,
    )
    points = lag_trend_points([ind], ds, mode=LAG_FROM_TURNING)
    worked_ok = (
        prof.turning_year == 1982
        and prof.turning_type == curve.FALLING
        and points == [(1970, 2.0)]
    )

    # every linked IR paper in the fixture is built to the same +2 pattern
    ir_inds = compute_indicators(table1, result.members(IR))
    ir_points = lag_trend_points(
        [i for i in ir_inds.values() if i.n_families], table1, mode=LAG_FROM_TURNING
    )
    ir_ok = len(ir_points) == 70 and all(lag == 2.0 for _, lag in ir_points)

    ok = fixture_ok and worked_ok and ir_ok
    report(
        8,
        "timing classes 69/5/25 and worked falling/patent lag of +2",
        ok,
        f"classes={dict(counts)}",
    )
    assert ok


def test_c09_moving_window_oracle():
    rng = random.Random(1909)
    mismatches = 0
    for _ in range(500):
        n = rng.randint(1, 30)
        years = rng.sample(range(1950, 2020), n)
        points = [(y, rng.uniform(-40.0, 40.0)) for y in years]
        width = rng.randint(1, 9)
        got = [
            (w.start_year, w.end_year, w.mean, w.n_obs)
            for w in moving_window_mean(points, width=width)
        ]
        by_year = {y: v for y, v in points}
        lo, hi = min(by_year), max(by_year)
        expected = []
        for start in range(lo, hi - width + 2):
            vals = [by_year[y] for y in range(start, start + width) if y in by_year]
            if vals:
                expected.append((start, start + width - 1, sum(vals) / len(vals), len(vals)))
        if got != expected:
            mismatches += 1

    span = moving_window_mean([(y, 1.0) for y in range(1970, 1995)], width=5)
    enumeration_ok = (
        (span[0].start_year, span[0].end_year) == (1970, 1974)
        and (span[-1].start_year, span[-1].end_year) == (1990, 1994)
        and len(span) == 21
    )
    ok = mismatches == 0 and enumeration_ok
    report(
        9,
        "moving windows equal brute force on 500 sets; 1970-1994 enumeration",
        ok,
        f"{mismatches} mismatches",
    )
    assert ok


def test_c10_interaction_weight_conservation():
    rng = random.Random(2010)
    concordance = synth.SAMPLE_CONCORDANCE
    mapped = {
        "A61B5/00": 13, "C07K14/47": 15, "C12N15/09": 15, "G01N33/48": 11,
        "G01N27/00": 10, "G06F17/00": 6, "H01L21/00": 8,
    }
    code_pool = list(mapped) + ["Z99Z9/99"]
    field_pool = ("biology", "chemistry", "medicine", "physics", "engineering")
    mismatches = 0
    empties_ok = True
    for _ in range(100):
        papers, series, families, links = {}, {}, {}, []
        for i in range(rng.randint(1, 15)):
            pid = f"p{i}"
            fields = tuple(
                FieldOfStudy(n, 0) for n in rng.sample(field_pool, rng.randint(0, 3))
            )
            papers[pid] = PaperRecord(paper_id=pid, pub_year=1980, fields_of_study=fields)
            series[pid] = series_from_counts(pid, 1980, (1, 1, 1))
            for j in range(rng.randint(0, 2)):
                fid = f"f{i}_{j}"
                families[fid] = PatentFamilyRecord(
                    fid, rng.randint(1985, 2000), (rng.randint(1985, 2000),), 0,
                    tuple(rng.sample(code_pool, rng.randint(0, 3))),
                )
                links.append(PatentCitationLink(pid, fid))
        ds = Dataset(
            papers=papers, series=series, patents=families, links=tuple(links),
            concordance=concordance, window_end=1982, contexts=None,
        )
        matrix = interaction_matrix(ds, list(papers))

        expected = 0
        for pid, paper in papers.items():
            fams = [families[l.family_id] for l in links if l.paper_id == pid]
            if not fams or not paper.fields_of_study:
                continue
            first = min(fams, key=lambda f: (f.earliest_priority_year, f.family_id))
            techs = {mapped[c] for c in first.ipc_codes if c in mapped}
            expected += len({f.name for f in paper.fields_of_study if f.level == 0}) * len(techs)
        if sum(c.weight for c in matrix.cells) != expected:
            mismatches += 1

        no_links = Dataset(
            papers=papers, series=series, patents=families, links=(),
            concordance=concordance, window_end=1982, contexts=None,
        )
        if interaction_matrix(no_links, list(papers)).cells != ():
            empties_ok = False

    ok = mismatches == 0 and empties_ok
    report(
        10,
        "matrix weight equals triple count on 100 datasets; no links, no cells",
        ok,
        f"{mismatches} mismatches",
    )
    assert ok


def test_c11_cli_determinism(tmp_path, capsys):
    cfg = half_config(tmp_path)
    fixture = fixture_dir()
    analysis = (
        "profile", "cohort", "patents", "table1", "lag-trend",
        "interactions", "aagr", "flag-contexts",
    )
    ok = True
    for out_name in ("a", "b"):
        out = tmp_path / out_name
        for command in analysis:
            code = run_cli(
                tmp_path, command,
                "--dataset", str(fixture), "--out", str(out), "--config", str(cfg),
            )
            ok = ok and code == 0
        code = run_cli(
            tmp_path, "synth", "--out", str(out / "synth"), "--seed", "5",
            "--config", str(cfg),
        )
        ok = ok and code == 0
    capsys.readouterr()  # drop the accumulated "wrote ..." lines
    validate_outputs = []
    for _ in range(2):
        code = run_cli(tmp_path, "validate", "--dataset", str(fixture))
        validate_outputs.append(capsys.readouterr().out)
        ok = ok and code == 0
    ok = ok and validate_outputs[0] == validate_outputs[1]

    a, b = tmp_path / "a", tmp_path / "b"
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    ok = ok and files_a == files_b and len(files_a) >= 16
    for rel in files_a:
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            ok = False
    report(11, "all CLI commands byte-identical across reruns", ok, f"{len(files_a)} files")
    assert ok
