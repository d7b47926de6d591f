"""The README's code runs as written, its flag table matches the parser, and its prose quotes no
host measurement."""

import contextlib
import io
import re
import shlex
from dataclasses import fields
from pathlib import Path

from itboost.boosting import BoostConfig
from itboost.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(tmp_path, monkeypatch):
    """The "Library quickstart" block runs without an exception, writing its files under ``tmp_path``."""
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, f"{README}:Library quickstart", "exec"), {})


def test_command_line_block_parses():
    """Each ``itboost`` command in the "Command line" block, joined across its ``\\`` continuations,
    parses with ``build_parser`` as written: a renamed or removed flag is a usage error."""
    section = README.read_text(encoding="utf-8").split("## Command line\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert [argv[1] for argv in commands] == ["synth", "train", "evaluate", "noise-sweep", "ablate", "trajectory",
                                              "verify-bounds"]
    for argv in commands:
        assert argv[0] == "itboost"
        build_parser().parse_args(argv[1:])


def _flag_table():
    """The "Command line" table as (subcommand names, flags cell) rows, "every one" naming them all."""
    section = README.read_text(encoding="utf-8").split("## Command line\n", 1)[1].split("```", 1)[0]
    subparsers = build_parser()._subparsers._group_actions[0].choices
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|") or cells[0] == "Subcommand" or set(cells[0]) <= {"-"}:
            continue
        names = list(subparsers) if cells[0] == "every one" else re.findall(r"`([a-z-]+)`", cells[0])
        rows.append(([subparsers[name] for name in names], cells[1]))
    assert rows
    return subparsers, rows


def _flags(text):
    return set(re.findall(r"`(--[a-z][a-z-]*)`", text))


def test_flag_table_flags_exist_on_their_subcommands():
    """Each backticked ``--flag`` in a row of the "Command line" table is an option of every
    subcommand the row names; a cell that opens ``no `--flag`:`` names flags the row's
    subcommands do not take."""
    _, rows = _flag_table()
    for parsers, cell in rows:
        absent, _, present = cell.partition(":") if cell.startswith("no ") else ("", "", cell)
        for parser in parsers:
            options = parser._option_string_actions
            assert _flags(present) <= options.keys(), (parser.prog, cell)
            assert not _flags(absent) & options.keys(), (parser.prog, cell)


def test_every_option_is_in_the_flag_table():
    """Every option ``build_parser()`` defines (argparse's ``--help`` aside) is named in a row of
    the table for its subcommand, or is a ``BoostConfig`` field's flag on a subcommand whose row
    says it takes them."""
    subparsers, rows = _flag_table()
    field_flags = {"--" + f.name.replace("_", "-") for f in fields(BoostConfig)}
    for name, parser in subparsers.items():
        cells = [cell for parsers, cell in rows if parser in parsers]
        named = set().union(*map(_flags, cells))
        if any("one flag per `BoostConfig` field" in cell for cell in cells):
            named |= field_flags
        defined = {option for action in parser._actions for option in action.option_strings} - {"-h", "--help"}
        assert defined <= named, (name, sorted(defined - named))


HOST_MEASUREMENT = re.compile(r"20\d\d-\d\d-\d\d|vCPU|alternating|\d\s*(?:s|ms|µs|ns|MB)\b")


def test_readme_quotes_no_host_measurement():
    """Outside fenced code blocks the README holds no ISO date, no ``vCPU`` or ``alternating``, and
    no number followed by ``s``, ``ms``, ``µs``, ``ns`` or ``MB``: timings, memory and their dates
    depend on the host, so they live in CHANGES.md and the benchmark's metrics, not in the guide."""
    found, fenced = [], False
    for number, line in enumerate(README.read_text(encoding="utf-8").splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif not fenced:
            found += [f"line {number}: {match.group()!r}" for match in HOST_MEASUREMENT.finditer(line)]
    assert found == []
