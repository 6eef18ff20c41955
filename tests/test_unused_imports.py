"""Every module of the package uses each name it imports, every
private function, class and method is used, every function has a caller
or is an entry point, and the code names README cites exist.

Static checks by the standard library's `ast`: the names an import
binds at any level of a module must each be read somewhere in it, in
code or in an annotation (string annotations are parsed too).
`__init__.py` is exempt: its imports are the package's exports.  A
module-level function or class, or a method, whose name starts with one
underscore must be referenced somewhere in the package outside its own
body (so a recursive leftover counts as unused).  A module-level
function must also be referenced outside its own body, exported by
`__init__.py` or listed in ENTRY_POINTS.  In README's
backticked spans, each `_private` name must be bound somewhere in the
package, and each `Head.attr` whose head is a module or class of the
package must be bound at the top level of that module or in that
class.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dctk"
README = PACKAGE.parent.parent / "README.md"
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


def private_definitions(tree: ast.Module) -> list:
    """The module-level functions and classes and the methods of its
    classes whose names start with one underscore (dunders excluded)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nodes = [n for n in tree.body if isinstance(n, defs)]
    nodes += [m for c in tree.body if isinstance(c, ast.ClassDef) for m in c.body if isinstance(m, defs)]
    return [n for n in nodes if n.name.startswith("_") and not n.name.startswith("__")]


def references(node: ast.AST) -> list:
    """Every name read or attribute taken under node, and every name
    imported there."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out += [alias.name for alias in sub.names]
    return out


def unused_private(sources: dict) -> list:
    """(module, name) of each private definition that nothing outside its
    own body refers to, across all the sources."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    everywhere = [r for tree in trees.values() for r in references(tree)]
    return sorted((module, d.name) for module, tree in trees.items() for d in private_definitions(tree)
                  if everywhere.count(d.name) == references(d).count(d.name))


def test_no_unused_private_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unused_private(sources) == []


def test_check_sees_an_unused_private_definition():
    sources = {
        "a.py": (
            "def _used(): return 1\n"
            "def _recursive(k): return _recursive(k - 1) if k else 0\n"
            "class _C:\n"
            "    def _m(self): return self._m()\n"
            "    def __init__(self): pass\n"
        ),
        "b.py": "from .a import _used\nx = _C\n",
    }
    assert unused_private(sources) == [("a.py", "_m"), ("a.py", "_recursive")]


# Public functions the package calls nowhere itself, reached by module
# path: the min-max certificate check, the mu-form dual and the
# disjoint-pair test (acceptance criteria 7 and 8, perfbench's criterion-7
# call), and the builders of linear and inverse-deviation objectives.
ENTRY_POINTS = ("verify_certificate", "mu_form_dual_search", "feasibility_condition",
                "linear_cost", "l1_deviation", "weighted_l1_deviation", "box_deviation")


def uncalled_functions(sources: dict, entry_points=ENTRY_POINTS) -> list:
    """(module, name) of each module-level function that nothing outside
    its own body refers to, that __init__.py does not import and that is
    not an entry point."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    exported = {alias.asname or alias.name for alias in
                (a for n in ast.walk(trees["__init__.py"]) if isinstance(n, ast.ImportFrom) for a in n.names)}
    everywhere = [r for name, tree in trees.items() if name != "__init__.py" for r in references(tree)]
    return sorted((module, d.name) for module, tree in trees.items() for d in tree.body
                  if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and d.name not in exported and d.name not in entry_points
                  and everywhere.count(d.name) == references(d).count(d.name))


def test_every_src_function_has_a_caller():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert uncalled_functions(sources) == []


def test_check_sees_an_uncalled_function():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": (
            "def exported(): return 1\n"
            "def called(): return 2\n"
            "def orphan(k): return orphan(k - 1) if k else called()\n"
            "def entry(): return 3\n"
        ),
        "b.py": "from .a import called\n",
    }
    assert uncalled_functions(sources, entry_points=("entry",)) == [("a.py", "orphan")]


def bound_names(nodes) -> set:
    """Every name the nodes bind, at any depth: defs, classes, imports,
    assignment targets and attributes assigned to (self.x = ...)."""
    out = set()
    for sub in (s for node in nodes for s in ast.walk(node)):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(sub.name)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            out |= {alias.asname or alias.name.split(".")[0] for alias in sub.names}
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
            out.add(sub.attr)
    return out


def stale_readme_names(readme: str, sources: dict) -> list:
    """The `_private` names and `Head.attr` names in the readme's inline
    code spans (fenced blocks aside) that the sources (module name ->
    text) do not define; a head counts when it names a module or a class
    of the sources."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    # A module's names are its top-level bindings, a class's its bindings anywhere in it.
    scopes = {name: {s.name for s in tree.body if isinstance(s, defs)}
              | bound_names(s for s in tree.body if not isinstance(s, defs))
              for name, tree in trees.items()}
    scopes.update((c.name, bound_names(c.body)) for tree in trees.values()
                  for c in ast.walk(tree) if isinstance(c, ast.ClassDef))
    everywhere = bound_names(trees.values())
    stale = set()
    for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.S)):
        stale.update(n for n in re.findall(r"(?<![^\s.(])_[A-Za-z]\w*", span) if n not in everywhere)
        stale.update(f"{head}.{attr}" for head, attr in re.findall(r"(?<![\w.])(\w+)\.(\w+)", span)
                     if head in scopes and attr not in scopes[head])
    return sorted(stale)


def test_readme_names_are_defined():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert stale_readme_names(README.read_text(encoding="utf-8"), sources) == []


def test_check_sees_a_stale_readme_name():
    sources = {
        "a": (
            "import math as _m\n"
            "def _f(): return 1\n"
            "class C:\n"
            "    x: int = 0\n"
            "    def m(self): self._y = 1\n"
        ),
    }
    readme = ("`_f`, `_m` and `C._y`, `C.x`, `a.C` and `math.pi`; "
              "stale: `_g`, `a._y`, `C.z` and `a.b.c`, a span over a\nline `a.\n_k`;"
              " _h outside spans, ```\n_i\n``` in a fenced block and `p̂_j`, no name")
    assert stale_readme_names(readme, sources) == ["C.z", "_g", "_k", "a._y", "a.b"]
