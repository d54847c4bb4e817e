"""Every name a polyvis, test or benchmark module imports is read somewhere
in that module, the oracles take no solver walk from polyvis, and every
function that the benchmark's tracer looks up keeps its parameters.

``__init__.py`` is left out: it imports names to re-export them.  The checks
read the sources with the stdlib ``ast`` module, so they run wherever the
tests do, and the benchmark's tracer is read without being imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "polyvis"
PERFBENCH = TESTS.parent / "perfbench"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))
MODULES += sorted(PERFBENCH.glob("*.py"))

# The mask helpers and solver walks that ``tests/oracles.py`` re-implements
# on plain sets.  An oracle that called one would check it against itself.
SOLVER_WALKS = frozenset({
    "members", "low", "view_of", "bfs_layers", "NbrView",
    "walk_levels", "carriers", "level_sets", "extract_tail", "hang_tail",
    "extract_cap", "split_parts", "part_paths",
    "bordering_constraints", "enumerate_borderings", "bordering_chains", "tower_readings",
})

# The parameters of each function that ``perfbench/tracing.py`` wraps by
# name (its ``LAYERS``).  The tracer passes calls through positionally, and
# the benchmark's runs are compared across commits, so a traced function
# keeps its name and its parameters.
TRACED = {
    "kernels.visibility_edges": ("coords",),
    "kernels.has_collinear_triple": ("coords",),
    "geometry.gen_tower": ("n", "seed"),
    "geometry.gen_pseudo_tower": ("n", "seed"),
    "geometry.gen_pseudo_triangle": ("n", "seed", "degenerate"),
    "geometry.visibility_graph": ("poly",),
    "graph.parse_graph": ("text",),
    "graph.induced_subgraph": ("g", "vertices"),
    "graph.canonicalize": ("order",),
    "tower.solve_tower": ("g",),
    "tower.compute_leveling": ("g", "top"),
    "tower.level_sets": ("nbrs", "top"),
    "tower.bordering_constraints": ("nbrs", "lv"),
    "tower.bordering_graph": ("g", "lv"),
    "tower.enumerate_borderings": ("bg",),
    "tower.check_strong_ordering": ("g", "h"),
    "pseudotower.solve_pseudo_tower": ("nbrs",),
    "pseudotower.extract_tail": ("nbrs", "top"),
    "pseudotriangle.solve": ("g", "stats"),
    "pseudotriangle.top_joint_candidates": ("g",),
    "pseudotriangle.extract_cap": ("g", "top", "e"),
    "pseudotriangle.split_parts": ("g", "cap", "e"),
    "pseudotriangle.part_paths": ("g", "part", "end"),
    "pseudotriangle.assemble_hamiltonian": ("g", "cap_chains", "path_a", "path_b"),
    "pseudotriangle.verify_candidate": ("g", "sol"),
    "pseudotriangle.verify_cycle": ("g", "order"),
    "cli.main": ("argv",),
}


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


def traced_names(source: str) -> list[str]:
    """``layer.function`` for every function in the module's ``LAYERS``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            layers = ast.literal_eval(node.value)
            return [f"{layer}.{name}" for layer, names in layers.items() for name in names]
    raise AssertionError("no LAYERS assignment")


def test_traced_names_are_found():
    source = 'import x\nLAYERS: dict = {"tower": ("a", "b"), "cli": ("main",)}\n'
    assert traced_names(source) == ["tower.a", "tower.b", "cli.main"]


def test_traced_functions_keep_their_parameters():
    names = traced_names((PERFBENCH / "tracing.py").read_text())
    assert sorted(names) == sorted(TRACED)
    for name in names:
        layer, _, func = name.partition(".")
        found = getattr(importlib.import_module(f"polyvis.{layer}"), func, None)
        assert callable(found), name
        assert tuple(inspect.signature(found).parameters) == TRACED[name], name
