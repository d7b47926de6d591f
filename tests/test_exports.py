"""The package's public names: ``__all__`` and the imports of ``__init__.py`` agree, and a program
uses each of them."""

import ast
from pathlib import Path

import itboost

ROOT = Path(__file__).resolve().parents[1]


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


def used_names(path: Path) -> set:
    """Every name a module reads: its bare names and the attribute names it looks up."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_is_used_by_a_program():
    package = Path(itboost.__file__).parent
    programs = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    programs += [path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_")]
    used = set().union(*map(used_names, programs))
    unused = sorted(set(itboost.__all__) - used)
    assert unused == []
