"""Every name a polyvis module or a test module imports is read somewhere in
that module, and the oracles take no solver walk from polyvis.

``__init__.py`` is left out: it imports names to re-export them.  The check
uses only the stdlib ``ast`` module, so it runs wherever the tests do.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "polyvis"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))

# The mask helpers and solver walks that ``tests/oracles.py`` re-implements
# on plain sets.  An oracle that called one would check it against itself.
SOLVER_WALKS = frozenset({
    "members", "low", "view_of", "bfs_layers", "NbrView",
    "walk_levels", "carriers", "level_sets", "extract_tail", "hang_tail",
    "extract_cap", "split_parts", "part_paths",
})


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    names = (n for n in ast.walk(tree) if isinstance(n, ast.Name))
    read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == [
        "os (line 1)",
        "c (line 2)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def polyvis_names(source: str) -> set[str]:
    """The names the module imports from polyvis, plus every attribute it
    reads, which covers a name read off an imported polyvis module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("polyvis"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_polyvis_names_are_found():
    source = (
        "from polyvis.graph import members as m\nfrom polyvis import tower\n"
        "from os import low\ntower.walk_levels(m)\n"
    )
    assert polyvis_names(source) & SOLVER_WALKS == {"members", "walk_levels"}


def test_oracles_take_no_solver_walk():
    assert polyvis_names((TESTS / "oracles.py").read_text()) & SOLVER_WALKS == set()
