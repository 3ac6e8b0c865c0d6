"""Source hygiene of the package, checked with the standard library's ast.

An import a module never uses, a private module-level name nothing in the package
references and a config field nothing reads are dead code, and a class built while the
package runs is a type each process makes again; each test names every offender with its
file and line.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gravlink"
MODULES = sorted(PACKAGE.glob("*.py"))
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def loaded_names(node):
    """Every name read under node: bare names and the first name of each dotted chain."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
            and not isinstance(n.ctx, ast.Store)}


def unused_imports(path):
    """(line, name) of each name an import binds that its enclosing function, or the
    module for a top-level import, never reads; from __future__ imports and lines marked
    noqa: F401 are skipped."""
    tree = parse(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    scopes = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        scope = node
        while not isinstance(scope, _SCOPES):
            scope = scopes[scope]
        used = loaded_names(scope)
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def references(tree):
    """Every name tree reads, as a bare name, an attribute or a from-import."""
    names = loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def private_definitions(tree):
    """(line, name) of each _name a module binds at its top level, dunders excluded."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def classes_built_at_run_time(tree):
    """(line, form) of each class tree builds while it runs: a make_dataclass call, a
    three-argument type(...) or a class statement inside a function, in line order."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "make_dataclass" or (name == "type" and len(node.args) == 3):
                found.add((node.lineno, f"{name}(...)"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update((n.lineno, f"class {n.name}") for n in ast.walk(node)
                         if isinstance(n, ast.ClassDef))
    return sorted(found)


def field_table(tree):
    """The module's top-level _FIELDS assignment, or None."""
    return next((node for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "_FIELDS" for t in node.targets)), None)


def config_fields(tree):
    """(line, attribute) of each row of the module's _FIELDS table: its third entry."""
    table = field_table(tree)
    return [] if table is None else [(row.lineno, row.elts[2].value) for row in table.value.elts]


def field_reads(tree):
    """Every name tree reads as a field outside its _FIELDS table: an attribute it loads, and
    a string key it subscripts or passes to .get, as the dict-held sweep and grid values."""
    table = field_table(tree)
    inside = set() if table is None else {id(n) for n in ast.walk(table)}
    names, keys = set(), []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Subscript):
            keys.append(node.slice)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get" and node.args:
            keys.append(node.args[0])
    return names | {key.value for key in keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)}


# Fields that nothing reads, each with the reason it stays in the schema
UNREAD_FIELDS = {
    # perfbench's weak_scan generator writes duration_s; ROADMAP item 1 removes it
    "duration",
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = unused_imports(path)
    assert not unused, ", ".join(f"{path.name}:{line} imports {name} and never uses it"
                                 for line, name in unused)


def test_every_private_module_name_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    referenced = set().union(*(references(tree) for tree in trees.values()))
    dead = [f"{name}:{line} {private}" for name, tree in trees.items()
            for line, private in private_definitions(tree) if private not in referenced]
    assert not dead, "defined and never referenced in the package: " + ", ".join(dead)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_class_is_built_at_run_time(path):
    built = classes_built_at_run_time(parse(path))
    assert not built, ", ".join(f"{path.name}:{line} builds a class with {form}"
                                for line, form in built)


def test_every_config_field_is_read():
    reads = set().union(*(field_reads(parse(path)) for path in MODULES))
    fields = config_fields(parse(PACKAGE / "config.py"))
    assert {name for _, name in fields} >= UNREAD_FIELDS, "an allowlisted field left the table"
    assert not reads & UNREAD_FIELDS, "an allowlisted field is read now"
    unread = [f"config.py:{line} {name}" for line, name in fields
              if name not in reads | UNREAD_FIELDS]
    assert not unread, "a config field nothing in the package reads: " + ", ".join(unread)


def test_the_checks_catch_what_they_look_for(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import math\n"
                      "import os.path\n"
                      "from dataclasses import dataclass\n"
                      "from .errors import BadAxis, reject  # noqa: F401\n"
                      "import numpy as np\n"
                      "_USED = np.pi\n"
                      "_DEAD, _ALSO = 1, _USED\n\n"
                      "def f():\n"
                      "    from json import dumps\n"
                      "    return math.tau\n\n"
                      "def _helper():\n"
                      "    return dataclass, dumps\n\n"
                      "def g(name):\n"
                      "    from dataclasses import make_dataclass\n"
                      "    class Local:\n"
                      "        pass\n"
                      "    return type(name, (Local,), {}), make_dataclass(name, []), type(name)\n"
                      "\n_FIELDS = ((None, 'kept', 'kept', None),\n"
                      "           ('grid', 'start', 'start', None),\n"
                      "           ('grid', 'stop', 'stop', None),\n"
                      "           (None, 'dead', 'dead', lambda v: v.dead))\n\n"
                      "def h(cfg, grid):\n"
                      "    cfg.dead = grid['start'] + grid.get('stop')\n"
                      "    return cfg.kept, _FIELDS\n")
    assert unused_imports(module) == [(3, "os"), (11, "dumps")]
    tree = parse(module)
    assert [name for _, name in private_definitions(tree)
            if name not in references(tree)] == ["_DEAD", "_ALSO", "_helper"]
    assert classes_built_at_run_time(tree) == [
        (19, "class Local"), (21, "make_dataclass(...)"), (21, "type(...)")]
    # dead is only stored, and read only inside the table
    assert config_fields(tree) == [(23, "kept"), (24, "start"), (25, "stop"), (26, "dead")]
    assert {"kept", "start", "stop"} <= field_reads(tree) and "dead" not in field_reads(tree)
