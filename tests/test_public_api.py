"""The public surface: the error types and the names README documents."""

from __future__ import annotations

import dataclasses
import fnmatch
import re
from itertools import takewhile
from pathlib import Path

import slumber
from slumber import config, errors

README = Path(__file__).resolve().parent.parent / "README.md"


def test_error_types_and_public_names_match_readme():
    defined = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, errors.SlumberError)
        and obj.__module__ == errors.__name__
    }
    assert defined == {
        "SlumberError",
        "DataError",
        "ConfigError",
    }
    # README's paragraph that begins with `slumber.__all__` names every public name once.
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    paragraph = next(p for p in paragraphs if p.startswith("`slumber.__all__`"))
    documented = re.findall(r"`(\w+)`", paragraph)
    assert sorted(documented) == sorted(slumber.__all__)


def test_readme_configuration_table_names_every_settings_field():
    """The first column of README's configuration table names each SynthSpec field once."""
    fields = [f.name for f in dataclasses.fields(config.SynthSpec)]
    lines = README.read_text(encoding="utf-8").splitlines()
    body = lines[lines.index("| key | default | used by |") + 2 :]
    named = []
    for row in takewhile(lambda line: line.startswith("|"), body):
        for key in re.findall(r"`([\w*]+)`", row.split("|")[1]):
            named += fnmatch.filter(fields, key) or [key]
    assert sorted(named) == sorted(fields)
