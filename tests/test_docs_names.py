"""Every ``repro.…`` dotted name the prose puts in backticks exists.

A module or class that is deleted or renamed must not linger in
``docs/*.md``, ``README.md`` or ``DESIGN.md``: each backticked name
starting ``repro.`` must import as a module, or resolve as attributes
of the longest prefix that does.
"""

import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROSE = sorted((ROOT / "docs").glob("*.md")) + [
    ROOT / "README.md", ROOT / "DESIGN.md"]
NAME = re.compile(r"`(repro(?:\.\w+)+)")


def resolves(name):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def test_every_backticked_repro_name_resolves():
    names = [(path.relative_to(ROOT).as_posix(), name)
             for path in PROSE
             for name in NAME.findall(path.read_text())]
    assert len(names) > 50  # the pattern still finds the prose's names
    assert [(path, name) for path, name in names
            if not resolves(name)] == []


def test_a_deleted_name_does_not_resolve():
    assert resolves("repro.metrics.latency.exchange_durations")
    assert not resolves("repro.metrics.no_such_module")
    assert not resolves("repro.metrics.latency.no_such_function")
