"""Every name the prose gives to code, a file or a command exists.

A module, file or subcommand that is deleted or renamed must not linger
in ``docs/*.md``, ``README.md`` or ``DESIGN.md``:

- each backticked name starting ``repro.`` must import as a module, or
  resolve as attributes of the longest prefix that does;
- each repository path (``benchmarks/…``, ``tests/…``, ``examples/…``,
  ``src/repro/…``, ``BENCH_*.json``) must exist, a ``*`` in it matching
  at least one file;
- each backticked ``knactor …`` command must parse with the CLI's own
  parser.
"""

import contextlib
import importlib
import io
import pathlib
import re
import shlex

from repro.cli.main import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROSE = sorted((ROOT / "docs").glob("*.md")) + [
    ROOT / "README.md", ROOT / "DESIGN.md"]
NAME = re.compile(r"`(repro(?:\.\w+)+)")
PATH = re.compile(
    r"(?<![\w/.-])((?:benchmarks|tests|examples|src/repro)/[\w./*-]*"
    r"|BENCH_[\w*]+\.json)")
COMMAND = re.compile(r"`knactor ([^`]+)`")


def _found(pattern):
    return [(path.relative_to(ROOT).as_posix(), match)
            for path in PROSE
            for match in pattern.findall(path.read_text())]


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


def exists(path):
    path = path.rstrip(".")
    return any(ROOT.glob(path)) if "*" in path else (ROOT / path).exists()


def parses(command):
    """``--help`` stands in for the arguments the prose leaves out
    (`knactor serve`): argparse exits 0 once every word given is a
    valid subcommand, choice or option, and 2 on the first that is not."""
    words = shlex.split(command) + ["--help"]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            build_parser().parse_args(words)
        except SystemExit as exit_:
            return exit_.code == 0
    return False


def test_every_backticked_repro_name_resolves():
    names = _found(NAME)
    assert len(names) > 50  # the pattern still finds the prose's names
    assert [(path, name) for path, name in names
            if not resolves(name)] == []


def test_a_deleted_name_does_not_resolve():
    assert resolves("repro.metrics.latency.exchange_durations")
    assert not resolves("repro.metrics.no_such_module")
    assert not resolves("repro.metrics.latency.no_such_function")


def test_every_repository_path_exists():
    paths = _found(PATH)
    assert len(paths) > 50  # the pattern still finds the prose's paths
    assert [(path, name) for path, name in paths if not exists(name)] == []


def test_every_backticked_knactor_command_parses():
    commands = _found(COMMAND)
    assert len(commands) > 5
    assert [(path, command) for path, command in commands
            if not parses(command)] == []


def test_a_retired_path_or_command_is_caught():
    assert exists("benchmarks/perf/run.py")
    assert exists("benchmarks/bench_*.py")
    assert not exists("benchmarks/no_such_bench.py")
    assert not exists("BENCH_no_such_*.json")
    assert parses("trace request")
    assert parses("demo retail --telemetry")
    assert not parses("no-such-subcommand")
    assert not parses("demo no-such-app")
