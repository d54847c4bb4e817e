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
graph outside the pseudo-tower set by ``solve_pseudo_triangle`` too.

The stage tests read auto-mixed and ``brute_force_graphs``, 101 small graphs
kept out of ``SETS`` and so out of the answer store, through two more
records: ``stage_log(name)``, one solve per graph that keeps every call of
five stages with its arguments and result, and ``cap_cases(name)``,
``extract_cap`` on every (top, split edge).  A test that replaces a stage,
rather than reading it, patches the solver and runs its own solve.
"""

from __future__ import annotations

import gc
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, wraps
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
from polyvis import pseudotriangle, tower
from polyvis.pseudotriangle import CapWalk, PseudoTriangleSolution, _top_pairs, extract_cap

from oracles import mutated_pseudo_triangle, random_connected_graph

AUTO_MIXED = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "auto-mixed"


@dataclass(frozen=True)
class Record:
    """One graph of a set and what the solvers made of it.

    ``source`` is what the graph was made from: its polygon, its
    pseudo-tower instance or its auto-mixed manifest item.  ``triangles``,
    ``stats`` and ``solve_s`` are None on the pseudo-tower set, and
    ``triangles`` is None where ``solve_pseudo_triangle`` raised ``error``.
    Every test reads the same records, so none may change them.
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


def _shared(build: Callable) -> Callable:
    """Cache ``build``, and freeze what it returns: the records live for the
    whole session, so ``gc.freeze()`` takes them, and everything else alive
    by then, out of every later collection's scan."""

    @cache
    @wraps(build)
    def built(*args):
        records = build(*args)
        gc.freeze()
        return records

    return built


@_shared
def graph_set(name: str) -> tuple[Record, ...]:
    """The named set's records, built and solved on the first call."""
    triangles = name != "pseudo-towers"
    records = []
    t0 = time.perf_counter()
    for id, g, source in SETS[name]():
        records.append(_solve(id, g, source, time.perf_counter() - t0, triangles))
        t0 = time.perf_counter()
    return tuple(records)


@_shared
def brute_force_graphs() -> tuple[Graph, ...]:
    """Small random graphs and pseudo-triangles, n <= 10, for the oracles that
    list every Hamiltonian cycle."""
    graphs = [
        random_connected_graph(n, extra, seed)
        for n in range(4, 9)
        for extra in (0, 2, 4, 6)
        for seed in range(4)
    ]
    graphs += [visibility_graph(gen_pseudo_triangle(n, seed)) for n in range(5, 10) for seed in range(4)]
    # Chains (0, 1, 2), (2, ..., 8) and (0, 9, 8), where 0, 1 and 9 all see
    # 3..7: both side neighbors of the top see more than 4 of its neighbors.
    wide = [(0, 1), (1, 2), (8, 9), (9, 0), (1, 9), *zip(range(2, 8), range(3, 9))]
    graphs.append(Graph.from_edges(10, wide + [(u, v) for u in (0, 1, 9) for v in range(3, 8)]))
    return tuple(graphs)


STAGES = [(pseudotriangle, "_cap_context"), (pseudotriangle, "bordering_chains"), (pseudotriangle, "part_paths"),
          (pseudotriangle, "assemble_hamiltonian"), (tower, "bordering_constraints")]


@dataclass
class Stages:
    """One graph's recorded ``solve_pseudo_triangle``.  ``calls`` maps each
    stage in ``STAGES`` to its calls in call order, each its arguments and
    its result, or None where it raised (NotTowerError: an odd cycle of
    constraints)."""

    graph: Graph
    calls: dict[str, list[tuple[tuple, Any]]] = field(default_factory=lambda: {n: [] for _, n in STAGES})
    triangles: list[PseudoTriangleSolution] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)


@contextmanager
def _recording(log: list[Stages]) -> Iterator[None]:
    """Wrap each stage so that its calls go to ``log[-1]``; the wrappers only
    record, and the stages are restored on exit."""

    def recorded(name: str, stage: Callable) -> Callable:
        def wrapper(*args):
            result = None  # kept if the stage raises
            try:
                result = stage(*args)
            finally:
                log[-1].calls[name].append((args, result))
            return result

        return wrapper

    originals = [getattr(module, name) for module, name in STAGES]
    try:
        for (module, name), stage in zip(STAGES, originals):
            setattr(module, name, recorded(name, stage))
        yield
    finally:
        for (module, name), stage in zip(STAGES, originals):
            setattr(module, name, stage)


def _stage_graphs(name: str) -> tuple[Graph, ...]:
    return brute_force_graphs() if name == "brute-force" else tuple(r.graph for r in graph_set(name))


@_shared
def stage_log(name: str) -> tuple[Stages, ...]:
    """``brute-force``'s or a ``SETS`` entry's graphs, each solved once with
    its stages recorded."""
    graphs = _stage_graphs(name)  # graph_set's own solves go unrecorded
    log: list[Stages] = []
    with _recording(log):
        for g in graphs:
            log.append(Stages(g))
            log[-1].triangles = solve_pseudo_triangle(g, log[-1].stats)
    return tuple(log)


CapCase = tuple[Graph, int, tuple[int, int], tuple[tuple[int, CapWalk | None], ...]]


@_shared
def cap_cases(name: str) -> tuple[CapCase, ...]:
    """``extract_cap``'s caps, vertex masks in walk order, each paired with
    its walk, on every (graph, top, split edge) of the named graphs, the top
    off the edge.  A walk is kept only for a cap that the tests resume: one
    that fits a joint pair of the top (``_top_pairs``' corollary) or in
    which the top sees one vertex.  Every other cap's walk is None: keeping
    every walk of auto-mixed's 194,903 caps, in a dict per case, took
    Tier-1's peak memory from 172 to 228 MB."""
    graphs = _stage_graphs(name)
    # The cases only grow, so a collection finds nothing to free; each full one
    # rescans every case built so far, which took a third of auto-mixed's
    # build even with the shared sets frozen.
    gc.disable()
    try:
        cases = []
        for g in graphs:
            for top in range(g.n):
                pairs, nb = _top_pairs(g, top), g.bits[top]
                for e in g.edges:
                    if top not in e:
                        caps = extract_cap(g, top, e).items()
                        kept = tuple((cap, walk if _resumed(nb & cap, pairs) else None) for cap, walk in caps)
                        cases.append((g, top, e, kept))
        return tuple(cases)
    finally:
        gc.enable()


def _resumed(seen: int, pairs: list[int]) -> bool:
    """Does a cap in which the top sees the vertex mask ``seen`` keep its walk?"""
    return seen.bit_count() == 1 or any(not seen & ~p for p in pairs)
