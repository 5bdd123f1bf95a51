"""Every name a package module imports is used in that module, and every
function, class and public method it defines is referenced by name in
`src/`, `tests/` or `perfbench/`.

`__init__.py` is exempt: its imports are the package's re-exports, and a
re-export is not a use. Dunder methods, and methods that override a base
class's, are called by the language or the base class.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qelectra"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds the name `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    source = "import os\nimport numpy as np\nfrom typing import List\n" \
             "x: List[int] = np.zeros(2)\n"
    assert unused_imports(source) == [(1, "os")]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


# ---- every definition is used ----------------------------------------------

ROOT = PACKAGE.parents[1]
SEARCHED = {path: ast.parse(path.read_text())
            for folder in ("src", "tests", "perfbench")
            for path in sorted((ROOT / folder).rglob("*.py"))
            # a re-export is not a use
            if path != PACKAGE / "__init__.py"}


def definitions(tree):
    """Top-level functions and classes, and the public methods of each
    class, as (name, node, class name or None)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield item.name, item, node.name


def referenced_names(tree, skip=None):
    """Names read or attributes accessed anywhere in the tree outside the
    `skip` node."""
    names = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return names


def overrides(module, class_name, name):
    """Whether the method overrides one of a base class, which calls it."""
    cls = getattr(importlib.import_module(f"qelectra.{module[:-3]}"),
                  class_name)
    return any(hasattr(base, name) for base in cls.__mro__[1:])


def unreferenced(module, source, others):
    """Definitions in `source` that neither it, outside their own
    definition, nor any of the `others` trees refers to by name."""
    tree = ast.parse(source)
    used_elsewhere = set().union(*(referenced_names(t) for t in others))
    missing = []
    for name, node, owner in definitions(tree):
        if name.startswith("__") and name.endswith("__"):
            continue
        if name in used_elsewhere or name in referenced_names(tree, node):
            continue
        if owner is not None and overrides(module, owner, name):
            continue
        missing.append(name)
    return missing


def test_the_check_sees_an_unreferenced_definition():
    source = ("def used():\n    return 1\n\n"
              "def unused():\n    return unused()\n\n"
              "class Thing:\n    def method(self):\n        return used()\n")
    caller = ast.parse("Thing().method()\n")
    assert unreferenced("none.py", source, [caller]) == ["unused"]


@pytest.mark.parametrize("module", MODULES)
def test_every_definition_is_referenced(module):
    path = PACKAGE / module
    others = [tree for other, tree in SEARCHED.items() if other != path]
    assert unreferenced(module, path.read_text(), others) == []
