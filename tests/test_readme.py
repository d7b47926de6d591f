"""The README's code runs as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

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
