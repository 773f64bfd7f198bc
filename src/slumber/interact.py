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
from typing import Iterable

from .model import ConcordanceEntry, Dataset
from .patent import earliest_family

UNCLASSIFIED = "unclassified"

_UNSEEN = object()  # IpcIndex.lookup's mark for a code not looked up yet


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
    Each distinct code is looked up once: the answer, None included, is kept
    per raw code, and a repeat is one dict lookup. The tests pin it to a scan
    over every entry, which they keep in tests/reference.py.
    """

    __slots__ = ("_by_prefix", "_lengths", "_by_code")

    def __init__(self, concordance: Iterable[ConcordanceEntry]):
        by_prefix: dict[str, ConcordanceEntry] = {}
        for entry in concordance:
            prefix = normalize_ipc(entry.ipc_prefix)
            kept = by_prefix.get(prefix)
            if kept is None or entry.wipo_field_id < kept.wipo_field_id:
                by_prefix[prefix] = entry
        self._by_prefix = by_prefix
        self._lengths = sorted({len(p) for p in by_prefix}, reverse=True)
        self._by_code: dict[str, ConcordanceEntry | None] = {}

    def lookup(self, code: str) -> ConcordanceEntry | None:
        entry = self._by_code.get(code, _UNSEEN)
        if entry is _UNSEEN:
            entry = self._by_code[code] = self._longest_prefix(code)
        return entry

    def _longest_prefix(self, code: str) -> ConcordanceEntry | None:
        norm = normalize_ipc(code)
        by_prefix = self._by_prefix
        for n in self._lengths:
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
