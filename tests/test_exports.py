"""The package's public names: ``__all__`` and the imports of ``__init__.py`` agree."""

import ast
from pathlib import Path

import itboost


def imported_public_names() -> set:
    tree = ast.parse(Path(itboost.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_exported_name_resolves():
    missing = [name for name in itboost.__all__ if not hasattr(itboost, name)]
    assert missing == []


def test_every_public_import_is_exported_once():
    assert sorted(itboost.__all__) == sorted(imported_public_names())
