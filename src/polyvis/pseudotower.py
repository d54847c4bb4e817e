"""Pseudo-tower graphs: a tower graph with an induced path (tail) hanging off
the bottom of one chain.

The tail's outermost vertex has degree 1; walking through degree-2 vertices
recovers the whole tail, and the rest of the graph is solved with the tower
machinery.  The solver reads neighbor views (``graph.NbrView``) in the
caller's own ids, a ``Graph``'s or a neighbor-set mapping's; the residual
below the tail is the view with the tail's bits cleared from its vertex mask,
so no subgraph is built and nothing is renumbered.  All output refers to the
input vertex ids.

``extract_tail`` walks the tail, ``hang_tail`` walks it and restricts the
view to the residual, and ``tower.tower_readings`` reads the residual with
the tail hung below its attachment chain.  The pseudo-triangle solver hangs
its caps' tails walked from the known top, and reads its side parts with
``_read_pseudo_tower`` from the tail that it has hung.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import NbrSets, NbrView, is_connected, low, view_of
from .tower import NotTowerError, tower_readings


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


def extract_tail(nbrs: NbrView, top: int | None = None) -> tuple[tuple[int, ...], int]:
    """Split off the tail: start at the unique degree-1 vertex and walk through
    degree-2 vertices; the first vertex of degree >= 3 stays in the residual,
    a vertex mask.  A known ``top`` is never a tail end, whatever its degree,
    and the walk stops on reaching it, so the residual always keeps it (a
    chordless path ending at ``top`` leaves the residual ``{top}``).  No
    degree-1 vertex means an empty tail (the input is treated as a tower);
    two or more reject the input.  The walk never meets a visited vertex
    again (each already has all its neighbours on the walk), and it cannot
    stop at a second degree-1 vertex, so it ends at ``top`` or at degree >= 3.
    """
    bits, within = nbrs
    deg_one, rest = [], within if top is None else within & ~(1 << top)
    while rest:
        bit = rest & -rest
        if (bits[v := bit.bit_length() - 1] & within).bit_count() == 1:
            deg_one.append(v)
        rest ^= bit
    if len(deg_one) >= 2:
        raise NotPseudoTowerError(f"{len(deg_one)} degree-1 vertices, expected at most 1")
    if not deg_one:
        return (), within

    tail = [deg_one[0]]
    visited = 1 << tail[0]
    current = low(bits[tail[0]] & within)
    while current != top and (nb := bits[current] & within).bit_count() == 2:
        tail.append(current)
        visited |= 1 << current
        current = low(nb & ~visited)
    return tuple(tail), within & ~visited


def solve_pseudo_tower(nbrs: NbrSets) -> list[PseudoTowerSolution]:
    """All consistent chain pairs: hang the tail, then read the residual from
    every apex candidate with ``tower.tower_readings``, which appends the tail
    to the chain ending at its attachment vertex.

    ``nbrs`` is a graph or a neighbor-set mapping; the chains use its ids.
    No chain pair comes twice: pairs from different apex candidates start at
    different vertices, and one apex's borderings are distinct bipartitions
    of the residual below it, counted up to a left/right swap.
    """
    view = view_of(nbrs)
    if view[1].bit_count() < 3:
        raise NotPseudoTowerError("pseudo-tower graphs need at least 3 vertices")
    if not is_connected(view):
        raise NotPseudoTowerError("graph is not connected")
    return _read_pseudo_tower(*hang_tail(view))


def _read_pseudo_tower(
    tail: tuple[int, ...], attachment: int | None, res: NbrView
) -> list[PseudoTowerSolution]:
    """``solve_pseudo_tower`` on a connected view whose tail ``hang_tail``
    has hung without a known top."""
    if res[1].bit_count() < 3:
        raise NotPseudoTowerError("residual tower part has fewer than 3 vertices")
    try:
        readings = tower_readings(res, tail, attachment)
    except NotTowerError as exc:
        raise NotPseudoTowerError(f"residual is not a tower graph: {exc}") from exc
    if readings is None:
        raise NotPseudoTowerError("residual fails tower leveling from every apex candidate")
    solutions = [PseudoTowerSolution(tail, chains) for chains in readings]
    return sorted(solutions, key=PseudoTowerSolution.chain_key)


def hang_tail(
    nbrs: NbrView, top: int | None = None
) -> tuple[tuple[int, ...], int | None, NbrView]:
    """Walk the tail of ``nbrs`` with ``extract_tail``, ``top`` as known, and
    hang it: the tail, the residual vertex it hangs from (None without a
    tail) and the residual's view.  Without a tail the view is ``nbrs``
    itself.
    """
    tail, residual = extract_tail(nbrs, top)
    if not tail:
        return tail, None, nbrs
    bits = nbrs[0]
    return tail, low(bits[tail[-1]] & residual), (bits, residual)
