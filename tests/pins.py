"""The golden values of whole runs, kept in `pins.json` beside this file.

A pinned test compares what it computes with `pin(name)`. The function that
computes each value lives beside its test, and the module's
`pinned_values()` calls it for every name the module pins;
`tools/repin.py` calls those and rewrites the file with `dumps`, so a
change that moves a value on purpose re-pins it in one step.
"""

import json
from pathlib import Path

PATH = Path(__file__).with_name("pins.json")


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def pin(name: str):
    """The value pinned under `name`."""
    return load()[name]


def dumps(pins: dict) -> str:
    """The file's bytes: sorted keys, one space of indent, floats as their
    repr (so each reads back exactly), and a trailing newline."""
    return json.dumps(pins, indent=1, sort_keys=True) + "\n"
