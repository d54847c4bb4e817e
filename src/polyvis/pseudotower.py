"""Pseudo-tower graphs: a tower graph with an induced path (tail) hanging off
the bottom of one chain.

The tail's outermost vertex has degree 1; walking through degree-2 vertices
recovers the whole tail, and the rest of the graph is solved with the tower
machinery.  All output refers to the input vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, induced_subgraph, is_connected
from .tower import (
    Bordering,
    Leveling,
    NotTowerError,
    bordering_graph,
    chains_from_bordering,
    compute_leveling,
    enumerate_borderings,
    tower_top_candidates,
)


class NotPseudoTowerError(ValueError):
    """The input cannot be the visibility graph of a pseudo-tower polygon."""


@dataclass(frozen=True)
class PseudoTowerSolution:
    """One consistent boundary reading: two chains from the shared top vertex
    down, with the tail already appended to its attachment chain.

    ``tail`` is ordered outermost vertex first and is empty for pure towers.
    """

    tail: tuple[int, ...]
    chains: tuple[tuple[int, ...], tuple[int, ...]]

    def chain_key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.chains))


def extract_tail(g: Graph) -> tuple[tuple[int, ...], frozenset[int]]:
    """Split off the tail: start at the unique degree-1 vertex and walk through
    degree-2 vertices; the first vertex of degree >= 3 stays in the residual.

    No degree-1 vertex means an empty tail (the input is treated as a tower).
    Two or more degree-1 vertices reject the input.
    """
    deg_one = [v for v in range(g.n) if g.degree(v) == 1]
    if len(deg_one) >= 2:
        raise NotPseudoTowerError(f"{len(deg_one)} degree-1 vertices, expected at most 1")
    if not deg_one:
        return (), frozenset(range(g.n))

    tail = [deg_one[0]]
    visited = {deg_one[0]}
    current = g.neighbors(deg_one[0])[0]
    while g.degree(current) == 2:
        if current in visited:
            raise NotPseudoTowerError("tail walk revisited a vertex")
        tail.append(current)
        visited.add(current)
        a, b = g.neighbors(current)
        nxt = b if a in visited else a
        if nxt in visited:
            raise NotPseudoTowerError("tail walk closed a cycle")
        current = nxt
    if g.degree(current) < 3:
        raise NotPseudoTowerError("tail consumed the whole graph")
    residual = frozenset(range(g.n)) - set(tail)
    return tuple(tail), residual


def solve_pseudo_tower(g: Graph) -> list[PseudoTowerSolution]:
    """All consistent chain pairs: extract the tail, run tower leveling and
    borderings on the residual for every apex candidate, and append the tail
    to the chain ending at its attachment vertex.
    """
    if g.n < 3:
        raise NotPseudoTowerError("pseudo-tower graphs need at least 3 vertices")
    if not is_connected(g):
        raise NotPseudoTowerError("graph is not connected")

    tail, residual = extract_tail(g)
    if len(residual) < 3:
        raise NotPseudoTowerError("residual tower part has fewer than 3 vertices")
    sub, old_of = induced_subgraph(g, residual)
    attachment = None
    if tail:
        (attachment,) = set(g.neighbors(tail[-1])) - set(tail)

    try:
        tops = tower_top_candidates(sub)
    except NotTowerError as exc:
        raise NotPseudoTowerError(f"residual is not a tower graph: {exc}") from exc

    solutions: list[PseudoTowerSolution] = []
    seen: set[tuple[tuple[int, ...], ...]] = set()
    any_leveling = False
    for top in sorted(tops):
        try:
            lv = compute_leveling(sub, top)
            bg = bordering_graph(sub, lv)
        except NotTowerError:
            continue
        any_leveling = True
        for b in enumerate_borderings(bg):
            chains = _original_chains(lv, b, old_of)
            if tail:
                chains = _attach_tail(chains, attachment, tail)
                if chains is None:
                    continue
            sol = PseudoTowerSolution(tail, chains)
            key = sol.chain_key()
            if key not in seen:
                seen.add(key)
                solutions.append(sol)
    if not any_leveling:
        raise NotPseudoTowerError("residual fails tower leveling from every apex candidate")
    solutions.sort(key=PseudoTowerSolution.chain_key)
    return solutions


def _original_chains(
    lv: Leveling, b: Bordering, old_of: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    c1, c2 = chains_from_bordering(lv, b)
    return tuple(old_of[v] for v in c1), tuple(old_of[v] for v in c2)


def _attach_tail(
    chains: tuple[tuple[int, ...], tuple[int, ...]],
    attachment: int,
    tail: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    c1, c2 = chains
    suffix = tuple(reversed(tail))  # innermost tail vertex first
    if c1 and c1[-1] == attachment:
        return c1 + suffix, c2
    if c2 and c2[-1] == attachment:
        return c1, c2 + suffix
    return None  # attachment is not at a chain bottom: bordering inconsistent
