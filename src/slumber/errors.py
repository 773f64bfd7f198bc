"""Exception hierarchy for the slumber toolkit.

Everything raised on bad *data* is a DataError, whose message is its only
content, so the CLI can map it to exit code 1; genuine I/O failures
(unreadable files, full disks) surface as OSError and map to exit code 2.
"""

from __future__ import annotations


class SlumberError(Exception):
    """Base class for all toolkit errors."""


class DataError(SlumberError):
    """Input data violates a documented contract."""


class MalformedRowError(DataError):
    """A bad row: 'FILE line N: reason', or 'line N: reason' when the file is not named."""

    def __init__(self, line_no: int, reason: str, file: str = ""):
        self.line_no, self.reason = line_no, reason
        super().__init__(f"{file} line {line_no}: {reason}".lstrip())


class ConfigError(SlumberError):
    """Bad run configuration: a config file's contents or a missing flag."""
