"""The graph sets that the tests share, each built and solved once per session.

``graph_set(name)`` builds the named set on its first call and returns the
same records on every later one:

- ``auto-mixed``: the benchmark's 59 stored graphs, in manifest order;
- ``mutated``: criterion 7's 200 graphs, each one edge away from a generated
  pseudo-triangle's visibility graph;
- ``random``: criterion 7's 1,000 random connected graphs;
- ``towers``: criterion 2's 300 towers;
- ``pseudo-towers``: criterion 2's 300 pseudo-towers;
- ``sweep``: criterion 6's 80 pseudo-triangles, n in 20, 40, 80 and 160,
  seeds 0-19;
- ``corpus``: criterion 1's 500 pseudo-triangles, 50 of them degenerate.

Every graph is read by ``solve_tower`` and ``solve_pseudo_tower``, and every
graph outside the two tower sets by ``solve_pseudo_triangle`` too.  Tests
that spy on the solver or patch it run their own solves on ``record.graph``.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterator

from polyvis import (
    Graph,
    NotPseudoTowerError,
    PseudoTowerSolution,
    gen_pseudo_tower,
    gen_pseudo_triangle,
    gen_tower,
    parse_graph,
    solve_pseudo_tower,
    solve_pseudo_triangle,
    solve_tower,
    visibility_graph,
)
from polyvis.pseudotriangle import PseudoTriangleSolution

from oracles import mutated_pseudo_triangle, random_connected_graph

AUTO_MIXED = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "auto-mixed"


@dataclass(frozen=True)
class Record:
    """One graph of a set and what the solvers made of it.

    ``source`` is what the graph was made from: its polygon, its
    pseudo-tower instance or its auto-mixed manifest item.  ``triangles``,
    ``stats`` and ``solve_s`` are None on the tower sets, and ``triangles``
    is None where ``solve_pseudo_triangle`` raised ``error``.  Every test
    reads the same records, so none may change them.
    """

    id: str
    graph: Graph
    source: Any
    build_s: float  # making the graph, visibility graph included
    towers: list[tuple[int, ...]]
    pseudo_towers: list[PseudoTowerSolution] | str  # or "rejected: <message>"
    triangles: list[PseudoTriangleSolution] | None = None
    stats: dict[str, int] | None = None
    solve_s: float | None = None  # solve_pseudo_triangle's wall time
    error: Exception | None = None


def _auto_mixed() -> Iterator[tuple[str, Graph, Any]]:
    for item in json.loads(AUTO_MIXED.with_suffix(".json").read_text())["items"]:
        yield item["id"], parse_graph((AUTO_MIXED / item["file"]).read_text()), item


def _mutated() -> Iterator[tuple[str, Graph, Any]]:
    for i in range(200):
        yield f"mutated-{i}", mutated_pseudo_triangle(i), None


def _random() -> Iterator[tuple[str, Graph, Any]]:
    rng = random.Random("fuzz-suite")
    for i in range(1000):
        n = rng.randint(3, 20)
        yield f"random-{i}", random_connected_graph(n, rng.randint(0, n), i), None


def _towers() -> Iterator[tuple[str, Graph, Any]]:
    for i in range(300):
        n, seed = 4 + i % 27, 3000 + i // 27
        poly = gen_tower(n, seed)
        yield f"tower-n{n}-s{seed}", visibility_graph(poly), poly


def _pseudo_towers() -> Iterator[tuple[str, Graph, Any]]:
    for i in range(300):
        n, seed = 5 + i % 26, 4000 + i // 26
        inst = gen_pseudo_tower(n, seed)
        yield f"pseudo-tower-n{n}-s{seed}", inst.graph, inst


def _pseudo_triangles(cases) -> Iterator[tuple[str, Graph, Any]]:
    for n, seed, degenerate in cases:
        poly = gen_pseudo_triangle(n, seed, degenerate)
        kind = "degenerate" if degenerate else "pseudo-triangle"
        yield f"{kind}-n{n}-s{seed}", visibility_graph(poly), poly


def _sweep() -> Iterator[tuple[str, Graph, Any]]:
    return _pseudo_triangles((n, seed, False) for n in (20, 40, 80, 160) for seed in range(20))


def _corpus() -> Iterator[tuple[str, Graph, Any]]:
    cases = [(4 + i % 27, 1000 + i // 27, False) for i in range(450)]
    cases += [(6 + i % 12, 2000 + i // 12, True) for i in range(50)]
    return _pseudo_triangles(cases)


SETS: dict[str, Callable[[], Iterator[tuple[str, Graph, Any]]]] = {
    "auto-mixed": _auto_mixed,
    "mutated": _mutated,
    "random": _random,
    "towers": _towers,
    "pseudo-towers": _pseudo_towers,
    "sweep": _sweep,
    "corpus": _corpus,
}


def _solve(id: str, g: Graph, source: Any, build_s: float, triangles: bool) -> Record:
    towers = [c.order for c in solve_tower(g)]
    try:
        pseudo_towers = solve_pseudo_tower(g)
    except NotPseudoTowerError as exc:
        pseudo_towers = f"rejected: {exc}"
    if not triangles:
        return Record(id, g, source, build_s, towers, pseudo_towers)
    stats: dict[str, int] = {}
    t0 = time.perf_counter()
    try:
        sols, error = solve_pseudo_triangle(g, stats), None
    except Exception as exc:  # criterion 7 reports any exception
        sols, error = None, exc
    return Record(id, g, source, build_s, towers, pseudo_towers, sols, stats, time.perf_counter() - t0, error)


@cache
def graph_set(name: str) -> tuple[Record, ...]:
    """The named set's records, built and solved on the first call."""
    triangles = name not in ("towers", "pseudo-towers")
    records = []
    t0 = time.perf_counter()
    for id, g, source in SETS[name]():
        records.append(_solve(id, g, source, time.perf_counter() - t0, triangles))
        t0 = time.perf_counter()
    return tuple(records)
