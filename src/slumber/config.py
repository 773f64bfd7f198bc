"""Every setting of a run, one SynthSpec field per key of a `--config FILE`.

load_config reads the file's key=value lines through tables, as a dataset
file is read, so a bad byte or line is a ConfigError 'FILE line N: reason'.
generate reads the fields up to min_total_citations, the analysis commands
the window, the floor and the rest; each bound is checked when a SynthSpec
is built, so every command refuses every bad key, also one it does not read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, DataError, _shown
from .tables import _at_line, _text, strict_int

DEFAULT_DISPUTE_TERMS = ("contradict", "contrast", "disagree", "dispute", "inconsistent")


@dataclass(frozen=True)
class SynthSpec:
    n_papers: int = 400
    seed: int = 0
    share_delayed: float = 0.25
    share_instant: float = 0.25
    share_linear: float = 0.25
    share_noise: float = 0.25
    link_density: float = 0.6
    timing_earlier: float = 0.70
    timing_same: float = 0.05
    timing_later: float = 0.25
    pub_from: int = 1970
    pub_to: int = 2005
    window_end: int = 2015
    min_total_citations: int = 200
    fraction: float = 0.01
    window_width: int = 5
    aagr_method: str = "arithmetic"
    terms: tuple[str, ...] = DEFAULT_DISPUTE_TERMS

    def __post_init__(self) -> None:
        if self.n_papers < 1:
            raise ConfigError("n_papers must be at least 1")
        shares = (self.share_delayed, self.share_instant, self.share_linear, self.share_noise)
        timing = (self.timing_earlier, self.timing_same, self.timing_later)
        # Each comparison is written so that NaN fails it.
        for name, values in (("shape shares", shares), ("timing targets", timing)):
            if not all(v >= 0 for v in values):
                raise ConfigError(f"{name} must be non-negative numbers")
            if not abs(sum(values) - 1.0) <= 1e-9:
                raise ConfigError(f"{name} must sum to 1, got {sum(values)!r}")
        if not 0.0 <= self.link_density <= 1.0:
            raise ConfigError(f"link density {self.link_density} outside [0, 1]")
        if not self.pub_from <= self.pub_to < self.window_end:
            raise ConfigError(
                f"need pub_from <= pub_to < window_end, got {self.pub_from}, {self.pub_to}, {self.window_end}"
            )
        if self.min_total_citations < 1:
            raise ConfigError("minimum citation total must be at least 1")
        if not 0.0 < self.fraction <= 0.5:
            raise ConfigError(f"cohort fraction {self.fraction} outside (0, 0.5]")
        if self.window_width < 1:
            raise ConfigError(f"window width {self.window_width} must be >= 1")
        if self.aagr_method not in ("arithmetic", "compound"):
            method = _shown(self.aagr_method)
            raise ConfigError(f"aagr_method must be arithmetic or compound, not {method}")
        if type(self.terms) is not tuple or not all(type(t) is str for t in self.terms):
            raise ConfigError(f"terms must be a tuple of words, not {_shown(self.terms)}")
        if not self.terms:
            raise ConfigError("terms must name at least one word")


# Each config key's type, from the default of the SynthSpec field it fills.
_KEY_TYPES = {f.name: type(f.default) for f in fields(SynthSpec)}


def _coerce(key: str, raw: str):
    kind = _KEY_TYPES[key]
    if kind is tuple:
        entries = tuple(t.strip() for t in raw.split(",")) if raw else ()
        if "" in entries:
            raise ConfigError(f"config key {key!r} has an empty entry: {_shown(raw)}")
        return entries
    try:
        if kind is int:
            return strict_int(key, raw)
        # A float key takes float()'s ASCII text without '_'; nan and inf
        # pass here and fail the bounds.
        if kind is float and (not raw.isascii() or "_" in raw):
            raise ValueError
        return kind(raw)
    except ValueError:
        if kind is int:
            raise ConfigError(f"config key {key!r} takes an integer, not {_shown(raw)}") from None
        raise ConfigError(f"config key {key!r} has non-numeric value {_shown(raw)}") from None


def load_config(path: Path | None) -> SynthSpec:
    """The settings of a file of key=value lines, or the defaults without one.

    Blank lines and # comments are ignored; a key given twice is an error,
    and a rejected text is echoed cut short, like a rejected data cell.
    """
    if path is None:
        return SynthSpec()
    pairs: dict[str, str] = {}
    line_no = 0
    try:
        with _text(path) as fh, _at_line(path, lambda: line_no):
            for line_no, line in enumerate(map(str.strip, fh), start=1):
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ValueError(f"expected key=value, got {_shown(line)}")
                key = key.strip()
                if key in pairs:
                    raise ValueError(f"config key {_shown(key)} given twice")
                pairs[key] = value.strip()
    except DataError as exc:  # the file's line errors are config errors
        raise ConfigError(str(exc)) from None
    for key in pairs:
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown config key {_shown(key)}")
    return SynthSpec(**{k: _coerce(k, v) for k, v in pairs.items()})
