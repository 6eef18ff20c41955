"""Every module of the package uses each name it imports.

A static check by the standard library's `ast`: the names an import
binds at any level of a module must each be read somewhere in it, in
code or in an annotation (string annotations are parsed too).
`__init__.py` is exempt: its imports are the package's exports.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dctk"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict:
    """name -> line of each import binding; `import a.b` binds `a`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def used_names(tree: ast.Module) -> set:
    """Names read anywhere, string annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_import():
    src = (
        "from typing import List, Optional\n"
        "import os.path\n"
        "def f(x: 'List[int]') -> None:\n"
        "    return None\n"
    )
    assert unused_imports(src) == [(1, "Optional"), (2, "os")]
