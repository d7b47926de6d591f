"""The package's public names: ``__all__`` and the imports of ``__init__.py`` agree, and a program
uses each of them, each of the package's definitions and each dataclass field, only ``boosting``
names a loss, and importing the package loads no scipy module and no process-pool module."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import itboost

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(itboost.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
PROGRAMS = MODULES + [path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_")]


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


def names_read(path: Path) -> tuple[set, set]:
    """The bare names a module reads and the attribute names it reads."""
    bare, attributes = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return bare, attributes


def programs_read() -> tuple[set, set]:
    reads = [names_read(path) for path in PROGRAMS]
    return set().union(*(bare for bare, _ in reads)), set().union(*(attributes for _, attributes in reads))


def definitions(path: Path):
    """``(qualified name, is_method)`` for each top-level function, class and UPPER_CASE constant
    of a module and each non-dunder function in those classes' bodies."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (*defs, ast.ClassDef)):
            yield node.name, False
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id):
                yield target.id, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", True


def test_every_export_is_used_by_a_program():
    bare, attributes = programs_read()
    unused = sorted(set(itboost.__all__) - bare - attributes)
    assert unused == []


def test_every_definition_is_used_by_a_program():
    # a method counts only when read as an attribute, so a local variable of
    # the same name does not hide it
    bare, attributes = programs_read()
    unused = [
        f"{path.name}:{name}"
        for path in MODULES
        for name, is_method in definitions(path)
        if name.rpartition(".")[2] not in (attributes if is_method else bare | attributes)
    ]
    assert unused == []


def dataclass_fields(path: Path):
    """``(class name, field name)`` for each annotated field in the body of each ``@dataclass`` of a
    module, whether the decorator is bare or called."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_dataclass_field_is_read_by_a_program():
    """Every annotated field of every ``@dataclass`` in ``src/itboost`` is read as an attribute by a
    module of the package or by ``perfbench``, with no exception list.  It matches by attribute name
    only, so a field that shares its name with another attribute a program reads (``seed``,
    ``kind``, ``k``) passes either way."""
    _, attributes = programs_read()
    fields = [(path.name, cls, name) for path in MODULES for cls, name in dataclass_fields(path)]
    assert fields
    unread = [f"{module}:{cls}.{name}" for module, cls, name in fields if name not in attributes]
    assert unread == []


def test_only_boosting_names_a_loss():
    # the losses are one module's decision: no other module branches on a loss or passes one by name
    named = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "boosting.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in ("logistic", "squared")
    ]
    assert named == []


def modules_loaded_on_import(*packages) -> list:
    """The loaded modules that are one of ``packages`` or inside one, after a fresh
    interpreter imports ``itboost`` and ``itboost.cli``; a fresh interpreter sees a
    transitive import as well as a direct one."""
    code = ("import sys, itboost, itboost.cli; "
            f"print(*sorted(m for m in sys.modules if m.partition('.')[0] in {packages!r}))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return run.stdout.split()


def test_importing_the_package_loads_no_scipy():
    # the package's one dependency is numpy: scipy would load about 290 more modules
    # (24 MB) into every process that imports it
    assert modules_loaded_on_import("scipy") == []


def test_importing_the_package_loads_no_pool_module():
    # cross_validate imports the fork pool when it starts one, so a serial run
    # or a CLI command that forks no worker never loads its modules
    assert modules_loaded_on_import("multiprocessing", "concurrent") == []
