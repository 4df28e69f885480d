"""Source hygiene: every name a package module imports is referenced, only
the oracles touch an action's `_cache` memo and only through `_memo`, only
`cones` calls the `Cone` constructor, and every public definition is used
inside the package or exported."""

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


def cache_touches(source):
    """Lines that read or write an attribute named `_cache`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "_cache")


def test_the_scan_finds_a_cache_touch():
    source = (
        "x = act._cache.get(key)\nact._cache[key] = 1\n"
        "object.__setattr__(act, '_cache', {})\ny = act.cache\n"
    )
    assert cache_touches(source) == [1, 2]


# The engine keeps its memos in the action's `memos`; `_cache` is left to
# the oracles, so they stay independent of the code they audit.
@pytest.mark.parametrize("module", [m for m in MODULES if m != "oracles.py"])
def test_only_the_oracles_touch_the_action_cache(module):
    assert cache_touches((PACKAGE / module).read_text(encoding="utf-8")) == []


def memo_body_lines(source):
    """Line span of the oracles' `_memo` decorator."""
    memo = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == "_memo")
    return range(memo.lineno, memo.end_lineno + 1)


# Inside the oracles every memo goes through `_memo`, one table per helper
# keyed by its arguments, so no hand-written string-tagged key comes back.
def test_only_the_memo_decorator_touches_the_cache_in_the_oracles():
    source = (PACKAGE / "oracles.py").read_text(encoding="utf-8")
    touches = cache_touches(source)
    assert touches
    assert [line for line in touches if line not in memo_body_lines(source)] == []


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
