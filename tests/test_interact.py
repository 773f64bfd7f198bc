"""IPC concordance matching and field-interaction matrices."""

from __future__ import annotations

import dataclasses
import random

from hypothesis import given, strategies as st

import reference
from fixture_builders import DR_BIOLOGY, IR_BIOLOGY
from slumber import ingest, interact
from slumber.model import (
    ConcordanceEntry,
    Dataset,
    FieldOfStudy,
    PaperRecord,
    PatentCitationLink,
    PatentFamilyRecord,
)
from slumber.synth import SAMPLE_CONCORDANCE

MAPPED_CODES = {
    "A61B5/00": 13,
    "C07K14/47": 15,
    "C12N15/09": 15,
    "G01N33/48": 11,
    "G01N27/00": 10,
    "G06F17/00": 6,
    "H01L21/00": 8,
}
UNMAPPED_CODES = ("Z99Z9/99", "X00X0/00")


def build_ds(paper_fields, families, links) -> Dataset:
    papers = {
        pid: PaperRecord(
            paper_id=pid,
            pub_year=1980,
            fields_of_study=tuple(FieldOfStudy(name, 0) for name in fields),
        )
        for pid, fields in paper_fields.items()
    }
    return Dataset(
        papers=papers,
        series={pid: reference.series_from_counts(pid, 1980, (1, 1, 1)) for pid in papers},
        patents={f.family_id: f for f in families},
        links=tuple(links),
        concordance=SAMPLE_CONCORDANCE,
        window_end=1982,
        contexts=None,
    )


def fam(fid: str, year: int, codes: tuple[str, ...]) -> PatentFamilyRecord:
    return PatentFamilyRecord(fid, year, (year,), 0, codes)


def test_normalization():
    assert interact.normalize_ipc("c12n 15/09") == "C12N15/09"
    assert interact.normalize_ipc("  G01N\t33/48 ") == "G01N33/48"
    assert interact.normalize_ipc("A61B") == "A61B"


def test_longest_prefix_wins():
    index = interact.IpcIndex(SAMPLE_CONCORDANCE)
    assert index.lookup("G01N33/48").wipo_field_id == 11
    assert index.lookup("G01N27/00").wipo_field_id == 10
    assert index.lookup("C12N15/09").wipo_field_id == 15
    assert index.lookup("g01n 33/00").wipo_field_id == 11


def test_equal_length_prefix_ties_are_stable():
    entries = (
        ConcordanceEntry("A61B", 13, "Medical technology", "Instruments"),
        ConcordanceEntry("A61B", 9, "Optics", "Instruments"),
    )
    assert interact.IpcIndex(entries).lookup("A61B5/00").wipo_field_id == 9
    assert interact.IpcIndex(reversed(entries)).lookup("A61B5/00").wipo_field_id == 9


def test_unmapped_code():
    assert interact.IpcIndex(SAMPLE_CONCORDANCE).lookup("Z99Z9/99") is None


def test_a_code_looked_up_twice_is_probed_once(monkeypatch):
    probes = []
    probe = interact._longest_prefix

    def counting(by_prefix, lengths, code):
        probes.append(code)
        return probe(by_prefix, lengths, code)

    monkeypatch.setattr(interact, "_longest_prefix", counting)
    index = interact.IpcIndex(SAMPLE_CONCORDANCE)
    assert index.lookup("G01N33/48") is index.lookup("G01N33/48")
    assert index.lookup("Z99Z9/99") is index.lookup("Z99Z9/99") is None
    assert probes == ["G01N33/48", "Z99Z9/99"]


PREFIX_POOL = ("A", "A6", "A61", "A61B", "A61B5", "A61B5/0", "G01N", "G01N33", "C12N", "")
CODE_POOL = ("A61B5/00", "A61B6/00", "A62C3/00", "G01N33/48", "G01N27/00", "C12N15/09", "Z99Z9/99", "B01D1/00")


@st.composite
def spelling(draw, text: str) -> str:
    """The text in random case, with spaces or a tab put in at random places."""
    chars = [c.lower() if draw(st.booleans()) else c for c in text]
    for _ in range(draw(st.integers(0, 2))):
        chars.insert(draw(st.integers(0, len(chars))), draw(st.sampled_from((" ", "\t"))))
    return "".join(chars)


@st.composite
def concordances(draw) -> tuple[ConcordanceEntry, ...]:
    """Nested and repeated prefixes, spelled variously, with few distinct field ids.

    A blank prefix normalizes to "" and so matches every code.
    """
    entries = []
    for i in range(draw(st.integers(0, 12))):
        prefix = draw(spelling(draw(st.sampled_from(PREFIX_POOL))))
        if not prefix:
            prefix = draw(st.sampled_from((" ", "\t", "A")))
        field_id = draw(st.integers(min_value=1, max_value=4))
        entries.append(ConcordanceEntry(prefix, field_id, f"field {field_id} entry {i}", "sector"))
    return tuple(entries)


@given(concordances(), st.lists(st.sampled_from(CODE_POOL).flatmap(spelling), min_size=1, max_size=8))
def test_prefix_index_matches_linear_scan(concordance, codes):
    for entries in (concordance, tuple(reversed(concordance))):
        index = interact.IpcIndex(entries)
        # Each code again, after the others: the kept answer, None included.
        for code in codes + codes[::-1]:
            assert index.lookup(code) is reference.wipo_field_for(code, entries)


def test_singleton_matrix():
    ds = build_ds(
        {"p1": ("biology",)},
        [fam("f1", 1990, ("C12N15/09",))],
        [PatentCitationLink("p1", "f1")],
    )
    matrix = interact.interaction_matrix(ds, ["p1"])
    assert len(matrix.cells) == 1
    cell = matrix.cells[0]
    assert (cell.field_of_study, cell.wipo_field_id, cell.weight) == ("biology", 15, 1)
    assert cell.wipo_field_name == "Biotechnology"


def test_cross_product_and_code_dedup():
    # Two codes land in the same technology field; it still counts once.
    ds = build_ds(
        {"p1": ("biology", "chemistry")},
        [fam("f1", 1990, ("C07K14/47", "C12N15/09", "A61B5/00"))],
        [PatentCitationLink("p1", "f1")],
    )
    matrix = interact.interaction_matrix(ds, ["p1"])
    got = {(c.field_of_study, c.wipo_field_id): c.weight for c in matrix.cells}
    assert got == {
        ("biology", 13): 1,
        ("biology", 15): 1,
        ("chemistry", 13): 1,
        ("chemistry", 15): 1,
    }
    assert sum(c.weight for c in matrix.cells) == 4


def test_only_earliest_family_contributes():
    ds = build_ds(
        {"p1": ("biology",)},
        [fam("f1", 1990, ("C12N15/09",)), fam("f2", 1995, ("G06F17/00",))],
        [PatentCitationLink("p1", "f1"), PatentCitationLink("p1", "f2")],
    )
    matrix = interact.interaction_matrix(ds, ["p1"])
    assert [c.wipo_field_id for c in matrix.cells] == [15]


def test_unmapped_codes_are_skipped_not_fatal():
    ds = build_ds(
        {"p1": ("biology",), "p2": ("physics",)},
        [fam("f1", 1990, ("C12N15/09", "Z99Z9/99")), fam("f2", 1991, ("X00X0/00",))],
        [PatentCitationLink("p1", "f1"), PatentCitationLink("p2", "f2")],
    )
    matrix = interact.interaction_matrix(ds, ["p1", "p2"])
    # p2's only code maps nowhere, so p2 contributes nothing.
    assert [(c.field_of_study, c.wipo_field_id, c.weight) for c in matrix.cells] == [("biology", 15, 1)]
    # Validation is where unmapped codes are reported.
    warned = [w.message for w in ingest.validate_dataset(ds).warnings()]
    assert [code for code in UNMAPPED_CODES if any(code in m for m in warned)] == list(UNMAPPED_CODES)


def test_weights_accumulate_across_papers():
    families = [fam("f1", 1990, ("C12N15/09",)), fam("f2", 1991, ("C07K14/47",))]
    ds = build_ds(
        {"p1": ("biology",), "p2": ("biology",)},
        families,
        [PatentCitationLink("p1", "f1"), PatentCitationLink("p2", "f2")],
    )
    matrix = interact.interaction_matrix(ds, ["p1", "p2"])
    assert len(matrix.cells) == 1
    assert matrix.cells[0].weight == 2
    assert matrix.field_marginals() == {"biology": 2}
    assert matrix.wipo_marginals() == {15: 2}


def test_matrix_conservation_against_triple_count():
    rng = random.Random(47)
    field_pool = ("biology", "chemistry", "medicine", "physics")
    code_pool = list(MAPPED_CODES) + list(UNMAPPED_CODES)
    for _ in range(30):
        paper_fields = {
            f"p{i}": tuple(
                rng.sample(field_pool, rng.randint(0, 3))
            )
            for i in range(rng.randint(1, 12))
        }
        families, links = [], []
        for pid in paper_fields:
            for j in range(rng.randint(0, 2)):
                fid = f"f_{pid}_{j}"
                codes = tuple(rng.sample(code_pool, rng.randint(0, 3)))
                families.append(fam(fid, rng.randint(1990, 2005), codes))
                links.append(PatentCitationLink(pid, fid))
        ds = build_ds(paper_fields, families, links)
        matrix = interact.interaction_matrix(ds, list(paper_fields))

        by_paper = {}
        for link in links:
            by_paper.setdefault(link.paper_id, []).append(
                next(f for f in families if f.family_id == link.family_id)
            )
        expected, contributing = 0, 0
        for pid, fields in paper_fields.items():
            fams = by_paper.get(pid)
            if not fields or not fams:
                continue
            first = min(fams, key=lambda f: (f.earliest_priority_year, f.family_id))
            techs = {MAPPED_CODES[c] for c in first.ipc_codes if c in MAPPED_CODES}
            if not techs:
                continue
            contributing += 1
            expected += len(set(fields)) * len(techs)
        assert sum(c.weight for c in matrix.cells) == expected
        assert bool(matrix.cells) == (contributing > 0)
        assert sum(matrix.field_marginals().values()) == expected
        assert sum(matrix.wipo_marginals().values()) == expected
        assert list(matrix.cells) == sorted(
            matrix.cells, key=lambda c: (c.field_of_study, c.wipo_field_id)
        )


def test_removing_links_empties_matrix_but_not_distribution(table1):
    dr_ids = [f"d{i:03d}" for i in range(200)]
    assert interact.interaction_matrix(table1, dr_ids).cells
    unlinked = dataclasses.replace(table1, links=())
    matrix = interact.interaction_matrix(unlinked, dr_ids)
    assert matrix.cells == ()
    before = interact.field_distribution(table1, dr_ids)
    after = interact.field_distribution(unlinked, dr_ids)
    assert before == after


def test_fixture_field_shares(table1):
    dr = interact.field_distribution(table1, [f"d{i:03d}" for i in range(200)])
    ir = interact.field_distribution(table1, [f"i{i:03d}" for i in range(200)])
    assert dr.total_papers == 200 and ir.total_papers == 200
    assert dr.share("biology") == DR_BIOLOGY / 200 == 0.275
    assert ir.share("biology") == IR_BIOLOGY / 200 == 0.9
    assert dr.share("no-such-field") == 0.0


def test_unclassified_bucket():
    ds = build_ds({"p1": (), "p2": ("biology",)}, [], [])
    dist = interact.field_distribution(ds, ["p1", "p2"])
    counts = dict(dist.counts)
    assert counts[interact.UNCLASSIFIED] == 1
    assert counts["biology"] == 1
    assert dist.total_papers == 2
    empty = interact.field_distribution(ds, [])
    assert empty.share("biology") == 0.0
