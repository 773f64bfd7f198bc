"""Exception hierarchy for the slumber toolkit.

Everything raised on bad *data* is a DataError, whose message is its only
content, so the CLI can map it to exit code 1; genuine I/O failures
(unreadable files, full disks) surface as OSError and map to exit code 2.
A value echoed in any message is cut short by _shown.
"""

from __future__ import annotations


class SlumberError(Exception):
    """Base class for all toolkit errors."""


class DataError(SlumberError):
    """Input data violates a documented contract."""


class ConfigError(SlumberError):
    """Bad run configuration: a config file's contents or a missing flag."""


# A rejected value is echoed in its error message up to this many characters.
_SHOWN_CHARS = 40


def _shown(value: object) -> str:
    """The repr of a rejected value for an error message, cut short when long.

    Past _SHOWN_CHARS characters (of a string, or of any other value's repr)
    it shows the first _SHOWN_CHARS, then '…' and the full length.
    """
    is_str = isinstance(value, str)
    text = value if is_str else repr(value)
    if len(text) <= _SHOWN_CHARS:
        return repr(value)
    head = text[:_SHOWN_CHARS]
    return f"{repr(head) if is_str else head}… ({len(text)} characters)"
