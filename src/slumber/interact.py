"""Science-technology field interactions.

IPC codes map to technology fields through longest-prefix concordance
matching (codes and prefixes are compared uppercased with whitespace
removed). For each paper the cross product of its distinct top-level fields
of study and the distinct technology fields of its earliest citing patent
family contributes weight 1 per pair; the matrix sums these over papers, so
total weight is conserved as the sum over papers of |fields| * |tech fields|.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Iterable

from .model import ConcordanceEntry, Dataset
from .patent import earliest_family
from .tables import _CellMemo

UNCLASSIFIED = "unclassified"


def normalize_ipc(code: str) -> str:
    """Uppercase and strip all whitespace, e.g. 'a61k 31/00' -> 'A61K31/00'."""
    return "".join(code.split()).upper()


class IpcIndex:
    """Longest-prefix lookup over a concordance: each IPC code's entry, if any.

    The entry whose normalized prefix is the longest that the normalized code
    starts with wins. Of entries whose prefixes normalize alike, the lowest
    field id is kept, and of those the first in concordance order. A lookup
    probes the code's own prefix at each distinct prefix length, longest
    first, so it costs O(number of lengths) rather than O(number of entries).
    Answers, None included, are kept per raw code in a bounded _CellMemo.
    The tests pin lookups to a scan over every entry, which they keep in
    tests/reference.py. `repeats` pairs each entry whose normalized prefix
    an earlier one has with that first entry: (first, entry), in order.
    """

    __slots__ = ("_by_code", "repeats")

    def __init__(self, concordance: Iterable[ConcordanceEntry]):
        groups: dict[str, list[ConcordanceEntry]] = {}  # entries by normalized prefix
        repeats = []
        for entry in concordance:
            group = groups.setdefault(normalize_ipc(entry.ipc_prefix), [])
            if group:
                repeats.append((group[0], entry))
            group.append(entry)
        by_prefix = {prefix: min(group, key=attrgetter("wipo_field_id")) for prefix, group in groups.items()}
        lengths = sorted({len(p) for p in by_prefix}, reverse=True)
        # Not a bound method: commands pause the cycle collector, so the index holds no cycle.
        self._by_code = _CellMemo(partial(_longest_prefix, by_prefix, lengths))
        self.repeats: tuple[tuple[ConcordanceEntry, ConcordanceEntry], ...] = tuple(repeats)

    def lookup(self, code: str) -> ConcordanceEntry | None:
        return self._by_code[code]


def _longest_prefix(by_prefix: dict, lengths: list[int], code: str) -> ConcordanceEntry | None:
    norm = normalize_ipc(code)
    for n in lengths:
        entry = by_prefix.get(norm[:n])
        if entry is not None:
            return entry
    return None


@dataclass(frozen=True, slots=True)
class InteractionCell:
    field_of_study: str
    wipo_field_id: int
    wipo_field_name: str
    weight: int


@dataclass(frozen=True, slots=True)
class InteractionMatrix:
    cells: tuple[InteractionCell, ...]  # sorted by (field_of_study, wipo_field_id)

    def field_marginals(self) -> dict[str, int]:
        sums: Counter[str] = Counter()
        for c in self.cells:
            sums[c.field_of_study] += c.weight
        return dict(sorted(sums.items()))

    def wipo_marginals(self) -> dict[int, int]:
        sums: Counter[int] = Counter()
        for c in self.cells:
            sums[c.wipo_field_id] += c.weight
        return dict(sorted(sums.items()))


def interaction_matrix(
    dataset: Dataset,
    paper_ids: Iterable[str],
) -> InteractionMatrix:
    """Field-of-study by technology-field weights over the given papers.

    A paper contributes only if it has top-level fields, a citing family, and
    at least one mappable IPC code on its earliest citing family. Unmapped
    codes are skipped; validate_dataset reports each one as a warning.
    """
    grouped = dataset.families
    index = dataset.ipc_index
    weights: Counter[tuple[str, int]] = Counter()
    names: dict[int, str] = {}
    for pid in sorted(set(paper_ids)):
        fields = dataset.papers[pid].top_level_fields()
        families = grouped.get(pid)
        if not fields or not families:
            continue
        first = earliest_family(families)
        tech_ids = set()
        for code in first.ipc_codes:
            entry = index.lookup(code)
            if entry is None:
                continue
            tech_ids.add(entry.wipo_field_id)
            names[entry.wipo_field_id] = entry.wipo_field_name
        if not tech_ids:
            continue
        for field in fields:
            for tid in tech_ids:
                weights[(field, tid)] += 1
    cells = tuple(
        InteractionCell(
            field_of_study=field,
            wipo_field_id=tid,
            wipo_field_name=names[tid],
            weight=w,
        )
        for (field, tid), w in sorted(weights.items())
    )
    return InteractionMatrix(cells=cells)


@dataclass(frozen=True, slots=True)
class FieldDistribution:
    """Papers per top-level field; multi-field papers count once per field.

    Papers with no top-level field land in the "unclassified" bucket.
    """

    counts: tuple[tuple[str, int], ...]  # sorted by field name
    total_papers: int

    def share(self, field: str) -> float:
        if self.total_papers == 0:
            return 0.0
        return dict(self.counts).get(field, 0) / self.total_papers


def field_distribution(dataset: Dataset, paper_ids: Iterable[str]) -> FieldDistribution:
    """Distribution of the given papers over top-level fields of study."""
    ids = sorted(set(paper_ids))
    counts: Counter[str] = Counter()
    for pid in ids:
        counts.update(dataset.papers[pid].top_level_fields() or (UNCLASSIFIED,))
    return FieldDistribution(counts=tuple(sorted(counts.items())), total_papers=len(ids))
