"""The benchmark's workloads: seeded synthetic datasets and the commands run on them.

Each workload builds its dataset from ``slumber.synth`` and a seed, writes it
with ``slumber.ingest.write_dataset`` and names the CLI commands an analyst
runs over it, in order. The program only ever sees the written files.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from checks import Oracle
from slumber import synth
from slumber.model import ConcordanceEntry, Dataset

ALL_COMMANDS = (
    "validate",
    "profile",
    "cohort",
    "patents",
    "table1",
    "lag-trend",
    "interactions",
    "aagr",
    "flag-contexts",
)
FRACTION = 0.05  # the DR/IR cohort share, the same on every workload


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # SynthSpec fields other than the seed
    commands: tuple[str, ...]
    wide_ipc: bool = False

    def synth_spec(self, seed: int) -> synth.SynthSpec:
        return synth.SynthSpec(seed=seed, **self.spec)

    def config_text(self) -> str:
        """The --config file: the cohort pool is the generator's whole window and floor."""
        spec = self.synth_spec(0)
        return "".join(
            f"{key}={value}\n"
            for key, value in (
                ("fraction", FRACTION),
                ("pub_from", spec.pub_from),
                ("pub_to", spec.pub_to),
                ("window_end", spec.window_end),
                ("min_total_citations", spec.min_total_citations),
            )
        )

    def finish(self, dataset: Dataset, seed: int) -> Dataset:
        """The generated dataset as this workload writes it."""
        return widen_ipc(dataset, seed) if self.wide_ipc else dataset

    def build(self, seed: int) -> Dataset:
        return self.finish(synth.generate(self.synth_spec(seed)).dataset, seed)

    def oracle(self, result: synth.SynthResult) -> Oracle:
        # synth scales every paper to the citation floor inside the
        # publication window, and config_text uses that window and floor, so
        # every paper has a curve and every paper is in the cohort pool.
        n = len(result.dataset.papers)
        return Oracle(
            shapes=result.shapes,
            timing_classes=result.timing_classes,
            usable=n,
            eligible=n,
            fraction=FRACTION,
        )


# WIPO technology-field sectors by field id range.
_SECTORS = (
    (8, "Electrical engineering"),
    (13, "Instruments"),
    (24, "Chemistry"),
    (32, "Mechanical engineering"),
    (35, "Other fields"),
)

IPC_SUBCLASS_PREFIXES = 600
IPC_GROUP_PREFIXES = 150
IPC_CODES = 4000
IPC_UNMAPPED_CODES = 40


def _sector(field_id: int) -> str:
    return next(name for last, name in _SECTORS if field_id <= last)


def _entry(prefix: str, rng: random.Random) -> ConcordanceEntry:
    field_id = rng.randint(1, 35)
    return ConcordanceEntry(prefix, field_id, f"Technology field {field_id:02d}", _sector(field_id))


def widen_ipc(dataset: Dataset, seed: int) -> Dataset:
    """Swap in a concordance of subclass and main-group prefixes, and new family codes.

    Main-group prefixes sit under listed subclasses, so a code under one is
    matched by two prefixes and the longer must win. A few codes use
    subclasses the concordance lacks, so they stay unmapped (a validation
    warning, not an error).
    """
    rng = random.Random(f"ipc-wide:{seed}")
    subclasses = [
        f"{section}{klass:02d}{letter}"
        for section in "ABCDEFGH"
        for klass in range(1, 100)
        for letter in "ABCDEFGHJKLMNPQRSTUVWXYZ"
    ]
    chosen = rng.sample(subclasses, IPC_SUBCLASS_PREFIXES + 5)
    mapped, unmapped = chosen[:IPC_SUBCLASS_PREFIXES], chosen[IPC_SUBCLASS_PREFIXES:]
    groups = set()
    while len(groups) < IPC_GROUP_PREFIXES:
        groups.add(f"{rng.choice(mapped)}{rng.randint(1, 99)}")
    groups = sorted(groups)
    concordance = tuple(_entry(p, rng) for p in (*mapped, *groups))

    codes: set[str] = set()
    while len(codes) < IPC_UNMAPPED_CODES:
        codes.add(f"{rng.choice(unmapped)}{rng.randint(1, 99)}/{rng.randint(0, 99):02d}")
    while len(codes) < IPC_CODES:
        if rng.random() < 0.3:
            codes.add(f"{rng.choice(groups)}/{rng.randint(0, 99):02d}")
        else:
            codes.add(f"{rng.choice(mapped)}{rng.randint(1, 99)}/{rng.randint(0, 99):02d}")
    pool = sorted(codes)
    patents = {
        fid: dataclasses.replace(rec, ipc_codes=tuple(rng.sample(pool, len(rec.ipc_codes))))
        for fid, rec in sorted(dataset.patents.items())
    }
    return dataclasses.replace(dataset, patents=patents, concordance=concordance)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pool-5k",
            spec={"n_papers": 5000},
            commands=ALL_COMMANDS,
        ),
        Workload(
            name="sparse-52k",
            spec={
                "n_papers": 52000,
                "share_delayed": 0.1,
                "share_instant": 0.9,
                "share_linear": 0.0,
                "share_noise": 0.0,
                "pub_from": 1900,
                "pub_to": 1960,
                "link_density": 0.2,
            },
            commands=("table1",),
        ),
        Workload(
            name="ipc-wide",
            spec={"n_papers": 1000, "link_density": 1.0},
            commands=("validate", "patents", "interactions", "table1"),
            wide_ipc=True,
        ),
    )
}
