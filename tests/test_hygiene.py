"""Source hygiene: every name a package module imports is referenced, only
`quotients._kept` touches an action's memo store and no module names a
second one, only `cones` calls the `Cone` constructor, and every public
definition is used inside the package or exported."""

import ast
from pathlib import Path

import pytest

import toricgit

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toricgit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Imported names that no expression of the module refers to; an
    attribute chain such as `json.dump` refers to its leading name, and
    `__future__` imports are compiler directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\nimport os\nimport sys\n"
        "from json import dump as d, loads\nsys.exit(d)\n"
    )
    assert unused_imports(source) == ["loads (line 4)", "os (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


# the names of the second stores an action once held beside its memos
SECOND_STORES = {"_cache", "results"}


def memo_store_touches(source):
    """Lines that read or write an attribute named `memos` outside the body
    of a top-level `_kept`, and lines that name a second store (`_cache`,
    `results`) as an attribute, a variable or a string."""
    tree = ast.parse(source)
    kept = [range(node.lineno, node.end_lineno + 1) for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "_kept"]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "memos":
            if not any(node.lineno in body for body in kept):
                found.add(node.lineno)
        elif (
            (isinstance(node, ast.Attribute) and node.attr in SECOND_STORES)
            or (isinstance(node, ast.Name) and node.id in SECOND_STORES)
            or (isinstance(node, ast.Constant) and node.value in SECOND_STORES)
        ):
            found.add(node.lineno)
    return sorted(found)


def test_the_scan_finds_a_memo_store_touch():
    source = (
        "def _kept(fn):\n    return act.memos.get(fn)\n"
        "x = act.memos[fn]\ny = act._cache.get(key)\n"
        "object.__setattr__(act, '_cache', {})\n_cache = {}\n"
        "object.__setattr__(act, 'memos', {})\nz = act.memo\n"
        "w = act.results.get(mask)\nobject.__setattr__(act, 'results', {})\n"
        "act.results[mask] = w\nv = act.result\n"
    )
    assert memo_store_touches(source) == [3, 4, 5, 6, 9, 10, 11]


# Every per-action fact of the engine and the oracles goes through
# `quotients._kept`, one table per function keyed by its arguments, so no
# hand-written key and no second store comes back.
@pytest.mark.parametrize("module", MODULES)
def test_only_the_memo_rule_touches_the_memo_store(module):
    assert memo_store_touches((PACKAGE / module).read_text(encoding="utf-8")) == []


def cone_constructor_calls(source):
    """Lines that call `Cone(...)` or `<module>.Cone(...)` directly."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "Cone")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "Cone")
        )
    )


def test_the_scan_finds_a_cone_constructor_call():
    source = (
        "a = Cone(2, g, f)\nb = cones.Cone(2, g, f)\n"
        "c = Cone.from_generators(g, 2)\nd = isinstance(x, Cone)\n"
    )
    assert cone_constructor_calls(source) == [1, 2]


# Every canonical cone outside `cones` goes through the interned classmethods,
# so one vector set never gets a second double description while it is held.
@pytest.mark.parametrize("module", [m for m in MODULES if m != "cones.py"])
def test_only_cones_calls_the_cone_constructor(module):
    assert cone_constructor_calls((PACKAGE / module).read_text(encoding="utf-8")) == []


def unreferenced_definitions(sources, exported):
    """Public top-level functions, classes and constants of the modules
    (module name -> source) that no expression of any module refers to and
    `exported` does not list; a name or the last part of an attribute chain
    refers to a definition of that name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{module}.{name}" for name in names
                      if not name.startswith("_") and name not in referenced | exported]
    return sorted(found)


def test_the_scan_finds_an_unreferenced_definition():
    sources = {
        "a": "LIMIT = 3\nKEPT = 4\ndef used():\n    return KEPT\ndef dead():\n    pass\n"
             "def _private():\n    pass\nclass Exported:\n    pass\n",
        "b": "from .a import used\nfrom .a import dead\nx = used() + m.LIMIT\n",
    }
    assert unreferenced_definitions(sources, {"Exported"}) == ["a.dead"]


# Library code that nothing in the package calls is either exported on
# purpose or dead; the names `__init__` imports count only through `__all__`.
def test_every_public_definition_is_referenced_or_exported():
    sources = {module.removesuffix(".py"): (PACKAGE / module).read_text(encoding="utf-8")
               for module in MODULES}
    assert unreferenced_definitions(sources, set(toricgit.__all__)) == []
