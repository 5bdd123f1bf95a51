"""Every name a package module imports is used in that module, every
function, class and public method it defines is referenced by name in
`src/` or `perfbench/` (or, for the few listed in `TEST_ONLY` with their
reasons, only in `tests/` and by other listed definitions), every
dataclass field it declares is read as an attribute in one of the three,
every parameter or field with a default is passed by some call in `src/`
or `perfbench/` and left out by some call in any of the three, and every
module-level constant is read in `src/` or `perfbench/`, outside its own
assignment.

A top-level function, class or constant is referenced only by its bare
name, an import of that name, or an attribute whose root object is an
imported module (`oracle.pauli_to_sparse`): an attribute `obj.name` of
any other object does not use it. A method is referenced only by such an
attribute `obj.name`: a local variable `result` or a call
`np.linalg.norm` does not use a method `result` or `norm`. The match is
by name alone, so a method still passes when a same-named method of
another class is used, and a field when a same-named field is read. So
every field, method or property name that more than one class in `src/`
declares is listed in `SHARED_NAMES` with the readers of each
declaration, and a newly shared name fails until it is listed.

`__init__.py` is exempt: its imports are the package's re-exports, and a
re-export is not a use. Dunder methods, and methods that override a base
class's, are called by the language or the base class.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import qelectra

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


def is_module(name):
    try:
        return importlib.util.find_spec(name) is not None
    except ImportError:     # a parent that is not a package
        return False


def imported_modules(tree):
    """Names the tree's imports bind to modules: each `import a.b` binds
    `a`, and `from p import m` binds `m` when p.m is a module (a relative
    import is from the package)."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0]
                           for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parent = ".".join(filter(None, [
                "qelectra" if node.level else None, node.module]))
            modules.update(alias.asname or alias.name for alias in node.names
                           if is_module(f"{parent}.{alias.name}"))
    return modules


def module_rooted(node, modules):
    """Whether an attribute's root object is one of the `modules` names."""
    root = node.value
    while isinstance(root, ast.Attribute):
        root = root.value
    return isinstance(root, ast.Name) and root.id in modules


def referenced_names(tree, skip=()):
    """Names read and attributes accessed anywhere in the tree outside the
    `skip` nodes, as (names, methods): `names` holds every bare name, every
    name an import binds from a module and every attribute whose root
    object is an imported module, `methods` the other attributes."""
    modules = imported_modules(tree)
    names, methods = set(), set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if any(node is skipped for skipped in skip):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            (names if module_rooted(node, modules) else methods).add(
                node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return names, methods


def overrides(module, class_name, name):
    """Whether the method overrides one of a base class, which calls it;
    a class outside the package's modules overrides nothing."""
    if module not in MODULES:
        return False
    cls = getattr(importlib.import_module(f"qelectra.{module[:-3]}"),
                  class_name)
    return any(hasattr(base, name) for base in cls.__mro__[1:])


def unreferenced(module, source, others, listed=()):
    """Definitions in `source` that neither it, outside their own
    definition and the `listed` ones, nor any of the `others` trees
    refers to: by a bare name, an import or an attribute of an imported
    module for a function or class, by an attribute of an object that is
    not an imported module for a method."""
    tree = ast.parse(source)
    elsewhere = [referenced_names(t) for t in others]
    names_elsewhere = set().union(*(names for names, _ in elsewhere))
    methods_elsewhere = set().union(*(methods for _, methods in elsewhere))
    found = list(definitions(tree))
    skipped = [node for name, node, _ in found if name in listed]
    missing = []
    for name, node, owner in found:
        if name.startswith("__") and name.endswith("__"):
            continue
        names, methods = referenced_names(tree, [node, *skipped])
        if owner is None and name in names_elsewhere | names:
            continue
        if owner is not None and name in methods_elsewhere | methods:
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


def test_the_check_sees_a_method_hidden_by_a_name_or_a_module_attribute():
    source = ("class Vector:\n    def norm(self):\n        return 1.0\n\n"
              "    def result(self):\n        return 2.0\n\n"
              "    def scan(self):\n        return 3.0\n\n"
              "    def size(self):\n        return 4.0\n")
    caller = ast.parse("import numpy as np\nfrom qelectra import cli\n\n"
                       "result = np.linalg.norm([3.0, 4.0])\n"
                       "print(cli.scan, Vector().size)\n")
    assert unreferenced("none.py", source, [caller]) == [
        "norm", "result", "scan"]
    # a function is still used by its name, or as a module's attribute
    assert unreferenced("none.py", "def norm():\n    return 1.0\n",
                        [caller]) == []


def test_the_check_sees_a_function_hidden_by_an_attribute():
    # `row.scan` is an attribute of a variable, not of a module, so it
    # does not use the function `scan`
    source = "def scan():\n    return 1\n\ndef render():\n    return 2\n"
    caller = ast.parse("from qelectra import cli\n\n"
                       "row = cli.render()\nprint(row.scan)\n")
    assert unreferenced("none.py", source, [caller]) == ["scan"]
    # a bare name, an import or a module's attribute uses it
    for use in ("print(scan)\n", "from qelectra.cli import scan\n",
                "import qelectra.cli\nqelectra.cli.scan()\n"):
        assert unreferenced("none.py", source, [caller, ast.parse(use)]) \
            == []


@pytest.mark.parametrize("module", MODULES)
def test_every_definition_is_referenced(module):
    path = PACKAGE / module
    others = [tree for other, tree in SEARCHED.items() if other != path]
    assert unreferenced(module, path.read_text(), others) == []


# ---- no definition serves the tests alone ------------------------------------

TESTS = ROOT / "tests"

# definitions that only `tests/` refers to, by module, each with the reason
# it stays in the package
TEST_ONLY = {
    "simulator.py": {
        "expectation": "perfbench/tracing.py patches it by its name"},
}


def serving_tests_alone(module, source, trees, listed=()):
    """Definitions in `source` that only trees under `tests/` refer to, or
    the `listed` definitions, which serve the tests alone; `trees` maps
    the paths of the other files to their syntax trees."""
    outside = [tree for path, tree in trees.items()
               if TESTS not in path.parents]
    return unreferenced(module, source, outside, listed)


def test_the_check_sees_a_definition_only_tests_use():
    source = "def run():\n    return 1\n\ndef probe():\n    return 2\n"
    trees = {PACKAGE / "caller.py": ast.parse("run()\n"),
             TESTS / "test_thing.py": ast.parse("run()\nprobe()\n")}
    assert serving_tests_alone("none.py", source, trees) == ["probe"]


def test_the_check_sees_a_definition_only_listed_ones_use():
    source = ("def run():\n    return 1\n\ndef helper():\n    return 2\n\n"
              "def probe():\n    return helper()\n")
    trees = {PACKAGE / "caller.py": ast.parse("run()\n"),
             TESTS / "test_thing.py": ast.parse("probe()\n")}
    assert serving_tests_alone("none.py", source, trees) == ["probe"]
    assert serving_tests_alone("none.py", source, trees, ["probe"]) == [
        "helper", "probe"]


def test_no_export_serves_the_tests_alone():
    listed = set().union(*TEST_ONLY.values())
    assert listed.isdisjoint(qelectra.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_only_the_listed_definitions_serve_the_tests_alone(module):
    path = PACKAGE / module
    others = {other: tree for other, tree in SEARCHED.items() if other != path}
    # equality: a listed name that the package now uses, or that is gone,
    # leaves the list too
    listed = TEST_ONLY.get(module, {})
    assert set(serving_tests_alone(module, path.read_text(), others,
                                   listed)) == set(listed)


# ---- every dataclass field is read -------------------------------------------

def dataclass_fields(tree):
    """Annotated fields of every class decorated with @dataclass, with or
    without arguments, in order, as (class name, annotated assignment)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass"
                   for d in decorators):
            continue
        for item in node.body:
            if (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                yield node.name, item


def attributes_read(trees):
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_fields(source, others):
    """Dataclass fields in `source` that neither it nor any of the
    `others` trees reads as an attribute; a write is not a read."""
    tree = ast.parse(source)
    read = attributes_read([tree, *others])
    return [f"{owner}.{item.target.id}"
            for owner, item in dataclass_fields(tree)
            if item.target.id not in read]


def test_the_check_sees_an_unread_field():
    source = ("from dataclasses import dataclass\n\n"
              "@dataclass(frozen=True)\nclass Row:\n"
              "    energy: float\n    wall_time: float = 0.0\n\n"
              "class Plain:\n    note: str\n")
    caller = ast.parse("row = Row(1.0)\nrow.wall_time = 2.0\n"
                       "print(row.energy)\n")
    assert unread_fields(source, [caller]) == ["Row.wall_time"]


@pytest.mark.parametrize("module", MODULES)
def test_every_dataclass_field_is_read(module):
    path = PACKAGE / module
    others = [tree for other, tree in SEARCHED.items() if other != path]
    assert unread_fields(path.read_text(), others) == []


# ---- every shared name has a reader per class --------------------------------

# field, method and property names declared by more than one class in
# `src/`, each with the package code that reads every declaration: a
# reader of one class's name also passes the other's in the checks above
SHARED_NAMES = {
    "active_space": "AssembledSystem: cli.execute; ComparisonReport: "
                    "the three report renderers",
    "converged": "MethodResult: the renderers; ScfResult and VqeResult: "
                 "cli.execute",
    "energy": "MethodResult: the renderers; VqeResult: cli.execute",
    "iterations": "MethodResult: the renderers; SpsaSchedule: vqe._spsa",
    "mapping": "AssembledSystem: its qubit_hamiltonian and "
               "encoded_sector; RunSpec: cli.execute and the renderers",
    "molecule": "AssembledSystem and RunSpec: cli.execute",
    "n_electrons": "Molecule: pipeline.assemble; SpinOrbitalIntegrals: "
                   "AssembledSystem.sector; UccsdAnsatz: vqe.run_vqe",
    "n_iterations": "ScfResult and VqeResult, each a property read off "
                    "its trajectory: cli.execute",
    "n_parameters": "Circuit: Circuit.run; UccsdAnsatz: vqe.run_vqe",
    "n_qubits": "AssembledSystem: cli.execute, vqe.run_vqe; "
                "ComparisonReport: the renderers",
}


def declared_names(trees):
    """For each field, method or property name that a class declares in
    its body (dunder methods aside), the classes that declare it."""
    owners = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    name = item.target.id
                elif (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    name = item.name
                else:
                    continue
                owners.setdefault(name, set()).add(f"{module}.{node.name}")
    return owners


def shared_names(trees):
    return sorted(name for name, owners in declared_names(trees).items()
                  if len(owners) > 1)


def test_the_check_sees_a_shared_name():
    first = ast.parse("class Row:\n    energy: float\n    order: int\n\n"
                      "    def run(self):\n        return 1\n\n"
                      "    def __len__(self):\n        return 1\n")
    second = ast.parse("class Step:\n    @property\n"
                       "    def order(self):\n        return 2\n\n"
                       "    def __len__(self):\n        return 2\n\n"
                       "class Plan:\n    run: bool\n")
    assert shared_names({"a": first, "b": second}) == ["order", "run"]


def test_every_shared_name_is_reviewed():
    # equality: a name that a second class starts to declare fails until
    # each declaration's reader is checked and listed; a name no longer
    # shared leaves the list
    trees = {path.stem: tree for path, tree in SEARCHED.items()
             if path.parent == PACKAGE}
    assert shared_names(trees) == sorted(SHARED_NAMES)


# ---- every default is passed by the package ----------------------------------

# parameters and fields with a default that no call in `src/` or
# `perfbench/` passes, by module, each with the reason it stays
UNPASSED = {}


def is_init_false(value):
    """Whether a field's default is `field(..., init=False, ...)`."""
    return (isinstance(value, ast.Call)
            and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in value.keywords))


def defaulted(tree):
    """Parameters and dataclass fields with a default, as (name a call
    uses, position of its argument in that call or None for a keyword-only
    one, parameter name). A class's `__init__` and a dataclass's fields
    are called by the class name, and a method's `self` takes no
    argument; fields declared init=False take none either. Other dunder
    methods are called by the language."""
    positions = {}
    for owner, item in dataclass_fields(tree):
        if is_init_false(item.value):
            continue
        positions[owner] = positions.get(owner, -1) + 1
        if item.value is not None:
            yield owner, positions[owner], item.target.id
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            methods.update((item, node.name) for item in node.body
                           if isinstance(item, ast.FunctionDef))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield from parameters(node, methods.get(node))


def parameters(function, owner):
    """The defaulted parameters of a function, or of a method of the class
    named `owner`, as `defaulted` lists them."""
    name = function.name
    if owner is not None and name == "__init__":
        name = owner
    elif name.startswith("__") and name.endswith("__"):
        return
    # a method's first parameter is bound by the call, not passed
    bound = owner is not None
    positional = function.args.posonlyargs + function.args.args
    first = len(positional) - len(function.args.defaults)
    for index in range(first, len(positional)):
        yield name, index - bound, positional[index].arg
    for arg, default in zip(function.args.kwonlyargs,
                            function.args.kw_defaults):
        if default is not None:
            yield name, None, arg.arg


def passed_arguments(trees):
    """For each called name, the (positional count, keywords) of its
    calls. A `*args` may fill every position, so it counts as infinitely
    many; a `**kwargs` may pass any keyword, and shows as None."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            count = (float("inf") if any(isinstance(arg, ast.Starred)
                                         for arg in node.args)
                     else len(node.args))
            passed.setdefault(name, []).append(
                (count, {kw.arg for kw in node.keywords}))
    return passed


def unpassed_defaults(source, trees):
    """Parameters and fields with a default in `source` that no call in
    the trees outside `tests/` passes, by keyword or by position, as
    "name.parameter"; `trees` maps the paths of the files to their syntax
    trees."""
    passed = passed_arguments(tree for path, tree in trees.items()
                              if TESTS not in path.parents)
    missing = []
    for name, position, parameter in defaulted(ast.parse(source)):
        if not any(parameter in keywords or None in keywords
                   or (position is not None and position < count)
                   for count, keywords in passed.get(name, [])):
            missing.append(f"{name}.{parameter}")
    return missing


def test_the_check_sees_a_default_only_tests_pass():
    source = ("from dataclasses import dataclass, field\n\n"
              "def solve(block, k=1, tol=1e-9, *, dense=False):\n"
              "    return block\n\n"
              "@dataclass\nclass Report:\n    name: str\n    seed: int = 0\n"
              "    notes: list = field(default_factory=list)\n"
              "    rows: list = field(default_factory=list, init=False)\n\n"
              "class Solver:\n    def __init__(self, size=4):\n"
              "        self.size = size\n\n"
              "    def run(self, steps=10):\n        return steps\n")
    trees = {PACKAGE / "caller.py": ast.parse(
                 "solve(b, 2)\nReport('x', 3)\nSolver(8).run()\n"),
             TESTS / "test_thing.py": ast.parse(
                 "solve(b, tol=0.1, dense=True)\n"
                 "Report('x', notes=[])\nSolver().run(5)\n")}
    assert sorted(unpassed_defaults(source, trees)) == [
        "Report.notes", "run.steps", "solve.dense", "solve.tol"]
    # a package call that passes them by position, by keyword or by a
    # starred argument clears them
    trees[PACKAGE / "more.py"] = ast.parse(
        "solve(b, 2, 1e-6, dense=True)\nReport('x', 3, [])\n"
        "Solver(8).run(*steps)\n")
    assert unpassed_defaults(source, trees) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_default_is_passed_by_the_package(module):
    path = PACKAGE / module
    # equality: a listed parameter that the package now passes, or that is
    # gone, leaves the list too
    listed = UNPASSED.get(module, {})
    assert set(unpassed_defaults(path.read_text(), SEARCHED)) == set(listed)


# ---- every default is omitted by some call -----------------------------------

def unomitted_defaults(source, trees):
    """Parameters and fields with a default in `source` that every call in
    the trees passes, by keyword or by position, so that no call uses the
    default, as "name.parameter"; a `**kwargs` may pass any keyword, and a
    `*args` may fill every position. A parameter nothing calls has no call
    to omit it either. `trees` maps the paths of the files to their syntax
    trees."""
    passed = passed_arguments(trees.values())
    return [f"{name}.{parameter}"
            for name, position, parameter in defaulted(ast.parse(source))
            if not any(parameter not in keywords and None not in keywords
                       and (position is None or position >= count)
                       for count, keywords in passed.get(name, []))]


def test_the_check_sees_a_default_every_call_passes():
    source = ("from dataclasses import dataclass, field\n\n"
              "def solve(block, k=1, tol=1e-9, *, dense=False):\n"
              "    return block\n\n"
              "@dataclass\nclass Report:\n    name: str\n    seed: int = 0\n"
              "    notes: list = field(default_factory=list)\n"
              "    rows: list = field(default_factory=list, init=False)\n\n"
              "class Solver:\n    def __init__(self, size=4):\n"
              "        self.size = size\n\n"
              "    def run(self, steps=10):\n        return steps\n")
    trees = {PACKAGE / "caller.py": ast.parse(
                 "solve(b, 2, dense=True)\nReport('x', 3, [])\n"
                 "Solver(8).run(*steps)\n"),
             TESTS / "test_thing.py": ast.parse(
                 "solve(b, 5, tol=0.1, dense=True)\nReport('x', notes=[])\n"
                 "Solver(**options).run(5)\n")}
    # a test call that omits a parameter clears it too
    assert sorted(unomitted_defaults(source, trees)) == [
        "Report.notes", "Solver.size", "run.steps", "solve.dense",
        "solve.k"]
    trees[PACKAGE / "more.py"] = ast.parse(
        "solve(b)\nReport('x')\nSolver().run()\n")
    assert unomitted_defaults(source, trees) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_default_is_omitted_by_some_call(module):
    # a default that every call overrides is a required parameter in
    # disguise
    path = PACKAGE / module
    assert unomitted_defaults(path.read_text(), SEARCHED) == []


# ---- every module-level constant is read -------------------------------------

def module_constants(tree):
    """Names the module's top-level assignments bind, with the assignment
    that binds each."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node


def loaded_names(trees, skip=None):
    """Bare names loaded, names imported from a module, and attributes of
    an imported module loaded, anywhere in the trees outside the `skip`
    node; a store is not a load."""
    loaded = set()
    for tree in trees:
        modules = imported_modules(tree)
        todo = [tree]
        while todo:
            node = todo.pop()
            if node is skip:
                continue
            loaded_here = isinstance(getattr(node, "ctx", None), ast.Load)
            if loaded_here and isinstance(node, ast.Name):
                loaded.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
            elif (loaded_here and isinstance(node, ast.Attribute)
                    and module_rooted(node, modules)):
                loaded.add(node.attr)
            todo.extend(ast.iter_child_nodes(node))
    return loaded


def unread_constants(source, trees):
    """Module-level constants in `source` that neither it, outside their
    own assignment, nor any tree outside `tests/` loads as a bare name, an
    import or an attribute of an imported module, matched by name alone;
    `trees` maps the paths of the other files to their syntax trees."""
    tree = ast.parse(source)
    read = loaded_names(tree for path, tree in trees.items()
                        if TESTS not in path.parents)
    return [name for name, node in module_constants(tree)
            if name not in read and name not in loaded_names([tree], node)]


def test_the_check_sees_a_constant_only_tests_read():
    source = ("LIMIT = 4\n_SCALE, _SHIFT = 2.0, 1.0\n"
              "RATIO: float = _SCALE / LIMIT\nPROBE = 1\nSPARE = 2\n\n"
              "def run():\n    return _SHIFT\n")
    trees = {PACKAGE / "caller.py": ast.parse(
                 "from thing import RATIO\nimport thing\n\n"
                 "print(RATIO)\nthing.SPARE = 3\n"),
             TESTS / "test_thing.py": ast.parse(
                 "import thing\n\nprint(thing.PROBE, thing.SPARE)\n")}
    # a store elsewhere is no read
    assert unread_constants(source, trees) == ["PROBE", "SPARE"]


def test_the_check_sees_a_constant_hidden_by_an_attribute():
    source = "LIMIT = 4\nSCALE = 2.0\n"
    trees = {PACKAGE / "caller.py": ast.parse(
                 "import thing\n\nprint(thing.LIMIT, config.SCALE)\n")}
    # `config` is not an imported module
    assert unread_constants(source, trees) == ["SCALE"]
    trees[PACKAGE / "more.py"] = ast.parse("from thing import SCALE\n")
    assert unread_constants(source, trees) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_module_constant_is_read(module):
    path = PACKAGE / module
    others = {other: tree for other, tree in SEARCHED.items() if other != path}
    assert unread_constants(path.read_text(), others) == []
