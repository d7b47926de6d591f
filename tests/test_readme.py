"""The README's code runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(tmp_path, monkeypatch):
    """The "Library quickstart" block runs without an exception, writing its files under ``tmp_path``."""
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, f"{README}:Library quickstart", "exec"), {})
