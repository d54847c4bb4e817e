"""Tower-polygon visibility graphs: leveling, borderings and Hamiltonian cycles.

A tower's visibility graph is covered by ordered level sets grown greedily from
the apex.  A 2-coloring of the constraint graph over those levels assigns every
vertex to the left or right boundary chain.  ``bordering_chains`` builds that
graph for a leveled view and reads each consistent assignment as two chains
from the apex down, a pseudo-tower's tail hung below one of them; it is the
one chain reading that all three solvers share.  ``tower_readings`` is the
one loop over apex candidates, which the tower and pseudo-tower solvers run.
Down one chain and back up the other is one Hamiltonian cycle candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .graph import (
    CycleCandidate,
    Graph,
    NbrView,
    bfs_layers,
    canonicalize,
    is_connected,
    is_cycle_in_graph,
)


class NotTowerError(ValueError):
    """The input cannot be the visibility graph of a tower polygon."""


@dataclass(frozen=True)
class Leveling:
    """Ordered level sets l_1..l_k grown from the apex.

    A vertex can belong to two consecutive levels (when a level is completed by
    re-using a vertex of the previous one); ``level_of`` maps each vertex to the
    first level containing it (1-based).
    """

    levels: tuple[frozenset[int], ...]
    level_of: dict[int, int] = field(compare=False)

    @property
    def top(self) -> int:
        return next(iter(self.levels[0]))


@dataclass(frozen=True)
class BorderingGraph:
    """Constraint graph whose edges force opposite chain assignments."""

    constraint_edges: frozenset[tuple[int, int]]
    components: tuple[frozenset[int], ...]
    coloring: dict[int, int] = field(compare=False)  # 0/1 within each component


@dataclass(frozen=True)
class Bordering:
    """Assignment of the non-apex vertices to the two boundary chains."""

    left: frozenset[int]
    right: frozenset[int]


def tower_top_candidates(nbrs: NbrView) -> frozenset[int]:
    """Vertices of degree 2 whose two neighbors are adjacent to each other.

    A genuine tower graph has one or two such vertices (the apex, and possibly
    one base corner); anything the filter admits is tried downstream.
    """
    if len(nbrs) < 3:
        raise NotTowerError("tower graphs need at least 3 vertices")
    out = []
    for v, nb in nbrs.items():
        if len(nb) == 2:
            a, b = nb
            if a in nbrs[b]:
                out.append(v)
    if not out:
        raise NotTowerError("no apex candidate: not a tower visibility graph")
    return frozenset(out)


def level_sets(nbrs: NbrView, top: int) -> Leveling:
    """Ordered level sets of a graph or neighbor-set view from ``top``.

    Runs ``walk_levels``, the package's one leveling loop, from ``top`` until
    every vertex is placed: l_2 = N(top), then each level is closed from the
    unplaced common neighbors of the one before.  Every level places a
    vertex, so there are at most n.  Raises NotTowerError on any structural
    violation.
    """
    levels: list[frozenset[int]] = [frozenset({top})]
    for _ in walk_levels(nbrs, levels, {top}):
        pass
    level_of: dict[int, int] = {}
    for i, lvl in enumerate(levels, start=1):
        for v in lvl:
            level_of.setdefault(v, i)
    return Leveling(tuple(levels), level_of)


def walk_levels(
    nbrs: NbrView,
    levels: list[frozenset[int]],
    placed: set[int],
) -> Iterator[frozenset[int]]:
    """The one leveling loop: grow ``levels`` greedily below its last level.

    ``nbrs[v]`` is v's neighbor set and ``len(nbrs)`` the number of vertices.
    Each candidate level is the set of unplaced common neighbors of the last
    level, which has one or two vertices.  It is yielded before it is closed
    by one rule: more than two vertices reject the walk, a pair must be a
    clique, and a single vertex needs exactly one carrier (see ``carriers``)
    unless it is the last unplaced vertex.
    ``levels`` and ``placed`` are extended in place, so a consumer reads the
    walk's state from them between steps.  Vertices already in ``placed`` at
    the start are outside the walk: the candidate and carrier tests skip them.
    Every closed level places at least one vertex, so the walk ends within n
    levels.  Raises NotTowerError on any structural violation.
    """
    total = len(nbrs)
    while len(placed) < total:
        current = levels[-1]
        if len(current) == 1:
            (a,) = current
            cand = nbrs[a] - placed
        else:
            a, b = current
            cand = (nbrs[a] & nbrs[b]) - placed
        if not cand:
            raise NotTowerError("leveling stalled: no common neighbor outside placed levels")
        yield cand
        if len(cand) > 2:
            raise NotTowerError(f"level would have {len(cand)} vertices")
        if len(cand) == 2:
            a, b = cand
            if a not in nbrs[b]:
                raise NotTowerError("two-vertex level is not a clique")
        elif len(placed) + 1 < total:  # a single vertex, not the last one
            (p,) = cand
            xs = carriers(nbrs, current, placed, p)
            if len(xs) != 1:
                raise NotTowerError(
                    f"{len(xs)} level vertices reach below a single-vertex level"
                )
            cand = frozenset({p, xs[0]})
        levels.append(cand)
        placed |= cand


def carriers(nbrs: NbrView, current: frozenset[int], placed: set[int], p: int) -> list[int]:
    """The single-vertex rule's test: the vertices of ``current`` with an
    unplaced neighbor other than ``p``.  Below the candidate level {p} the
    next level is {p, x} for the one carrier x; none or several reject the
    leveling, so callers read only the count and the single carrier.
    """
    return [x for x in current if not nbrs[x] - placed <= {p}]


def compute_leveling(g: Graph, top: int) -> Leveling:
    """Leveling of a whole graph from ``top``; see level_sets."""
    return level_sets(g, top)


def bordering_constraints(nbrs: NbrView, lv: Leveling) -> BorderingGraph:
    """Constraint graph over the non-apex vertices.

    Two kinds of constraint edges force opposite chains: graph edges whose
    endpoints' levels are at least 2 apart, and the pair inside every
    two-vertex level.  Raises NotTowerError if 2-coloring fails.
    """
    top = lv.top
    nodes = nbrs.keys() - {top}
    # A vertex sits in a run of consecutive levels (a carrier stays on into
    # the next level), so two vertices' levels are 2 or more apart exactly
    # when one run ends at least 2 levels before the other starts.  Runs
    # start at ``level_of``; one pass, later levels overwriting, ends them.
    first = lv.level_of
    last = {v: i for i, lvl in enumerate(lv.levels, start=1) for v in lvl}

    constraints: set[tuple[int, int]] = set()
    for u in nodes:
        first_u, last_u = first[u], last[u]
        for v in nbrs[u]:
            if v <= u or v == top:
                continue
            if first[v] - last_u >= 2 or first_u - last[v] >= 2:
                constraints.add((u, v))
    constraints.update(tuple(sorted(lvl)) for lvl in lv.levels if len(lvl) == 2)

    adj: dict[int, set[int]] = {v: set() for v in nodes}
    for a, b in constraints:
        adj[a].add(b)
        adj[b].add(a)

    # Color by BFS layer parity; the graph is bipartite iff no edge joins two
    # vertices of one layer.
    coloring: dict[int, int] = {}
    comps: list[frozenset[int]] = []
    unvisited = set(nodes)
    for start in sorted(nodes):
        if start not in unvisited:
            continue
        layers = bfs_layers(adj.__getitem__, start, unvisited)
        for depth, layer in enumerate(layers):
            for u in layer:
                if adj[u] & layer:
                    raise NotTowerError("constraint graph has an odd cycle")
                coloring[u] = depth & 1
        comps.append(frozenset().union(*layers))
    return BorderingGraph(frozenset(constraints), tuple(comps), coloring)


def bordering_graph(g: Graph, lv: Leveling) -> BorderingGraph:
    """Constraint graph of a whole graph's leveling; see bordering_constraints."""
    return bordering_constraints(g, lv)


def enumerate_borderings(bg: BorderingGraph) -> list[Bordering]:
    """All chain assignments up to global left/right swap: exactly 2^(c-1) of
    them for c constraint components (one when there are no nodes).
    """
    comps = bg.components
    c = len(comps)
    if c == 0:
        return [Bordering(frozenset(), frozenset())]
    out: list[Bordering] = []
    for bits in range(1 << (c - 1)):
        left: set[int] = set()
        right: set[int] = set()
        for idx, comp in enumerate(comps):
            flip = 0 if idx == 0 else (bits >> (idx - 1)) & 1
            for v in comp:
                if bg.coloring[v] ^ flip:
                    right.add(v)
                else:
                    left.add(v)
        out.append(Bordering(frozenset(left), frozenset(right)))
    return out


def bordering_chains(
    nbrs: NbrView,
    lv: Leveling,
    tail: tuple[int, ...] = (),
    attachment: int | None = None,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The chain pair of every bordering of a leveled view, in
    ``enumerate_borderings`` order: each chain runs from the apex down,
    ordered by ``(level_of, v)``.  Raises NotTowerError if the constraint
    graph has an odd cycle.

    No chain holds two vertices of one level: two vertices with the same
    ``level_of`` first meet in a two-vertex level, whose pair is a constraint
    edge.  The constraint components cover every vertex but the apex, so the
    two chains hold all of them.  A ``tail`` (outermost vertex first) hangs
    below the chain that ends at ``attachment``; a bordering that leaves the
    attachment above the bottom of its chain is inconsistent and dropped.
    """
    bg = bordering_constraints(nbrs, lv)
    top = lv.top
    suffix = tuple(reversed(tail))  # innermost tail vertex first

    def chain(side: frozenset[int]) -> tuple[int, ...]:
        return (top, *sorted(side, key=lambda v: (lv.level_of[v], v)))

    out = []
    for b in enumerate_borderings(bg):
        c1, c2 = chain(b.left), chain(b.right)
        if tail:
            if c1[-1] == attachment:
                c1 += suffix
            elif c2[-1] == attachment:
                c2 += suffix
            else:
                continue
        out.append((c1, c2))
    return out


def tower_readings(
    nbrs: NbrView, tail: tuple[int, ...] = (), attachment: int | None = None
) -> list[tuple[tuple[int, ...], tuple[int, ...]]] | None:
    """The one loop over apex candidates: the ``bordering_chains`` of every
    candidate whose leveling and constraint graph succeed, in candidate
    order, or None if none does.  Raises NotTowerError if there is no apex
    candidate.
    """
    readings, leveled = [], False
    for top in sorted(tower_top_candidates(nbrs)):
        try:
            readings += bordering_chains(nbrs, level_sets(nbrs, top), tail, attachment)
        except NotTowerError:
            continue
        leveled = True
    return readings if leveled else None


def check_strong_ordering(g: Graph, h: CycleCandidate) -> bool:
    """Tower recognition criterion for a Hamiltonian cycle ``h`` of ``g``.

    Removing the cycle edges must leave only isolated vertices at the apex (and
    possibly one base corner), and a connected bipartite rest whose sides are
    contiguous arcs of the cycle and whose orderings along the cycle form a
    strong ordering: crossing edges imply both straightening edges.
    """
    n = g.n
    if len(h.order) != n or not is_cycle_in_graph(g, h):
        return False
    cycle_edges = {
        tuple(sorted((h.order[i], h.order[(i + 1) % n]))) for i in range(n)
    }
    residual = Graph(n, g.edges - cycle_edges)
    if not residual.edges:
        return True

    isolated = [v for v in residual if not residual[v]]
    if not 1 <= len(isolated) <= 2:
        return False

    # The rest, the vertices that keep a residual edge, must be connected.
    if not is_connected({v: nb for v, nb in residual.items() if nb}):
        return False

    return any(_strong_from_top(g, h, residual.edges, t) for t in isolated)


def _strong_from_top(
    g: Graph,
    h: CycleCandidate,
    residual: frozenset[tuple[int, int]],
    top: int,
) -> bool:
    n = len(h.order)
    k = h.order.index(top)
    walk = list(h.order[k + 1 :] + h.order[:k])  # the cycle minus the top
    pos = {v: i for i, v in enumerate(walk)}

    # A split puts the residual graph's sides on the two chains; every residual
    # edge must cross it.  Isolated vertices float, so several splits can work.
    lo_max, hi_min = 0, len(walk) - 1
    for u, v in residual:
        a, b = sorted((pos[u], pos[v]))
        lo_max = max(lo_max, a)
        hi_min = min(hi_min, b)
    if lo_max + 1 > hi_min:
        return False
    return any(
        _strong_with_split(g, walk, split) for split in range(lo_max + 1, hi_min + 1)
    )


def _strong_with_split(g: Graph, walk: list[int], split: int) -> bool:
    # The ordering condition quantifies over visibility edges of the whole
    # graph: the base edge joining the two chain bottoms takes part even
    # though it belongs to the Hamiltonian cycle.
    side_u = walk[:split]  # ordered from the top
    side_w = walk[split:][::-1]  # ordered from the top along the other chain
    nu, nw = len(side_u), len(side_w)
    adj = [[g.has_edge(u, w) for w in side_w] for u in side_u]

    min_u = [nu] * nw  # per W column: smallest adjacent U index
    max_u = [-1] * nw
    min_w = [nw] * nu
    max_w = [-1] * nu
    for i in range(nu):
        for j in range(nw):
            if adj[i][j]:
                min_u[j] = min(min_u[j], i)
                max_u[j] = max(max_u[j], i)
                min_w[i] = min(min_w[i], j)
                max_w[i] = max(max_w[i], j)

    for i in range(nu):
        for j in range(nw):
            if adj[i][j]:
                continue
            # (u', w') missing with u < u', w < w', (u, w') and (u', w) present
            if min_u[j] < i and min_w[i] < j:
                return False
            # (u, w) missing with (u', w) and (u, w') present deeper down
            if max_u[j] > i and max_w[i] > j:
                return False
    return True


def solve_tower(g: Graph) -> list[CycleCandidate]:
    """All tower boundary candidates: down one chain of each reading of
    ``tower_readings`` and back up the other is a cycle, kept if it passes
    the strong ordering criterion.  Deterministically sorted, deduplicated.
    """
    try:
        readings = tower_readings(g) or []
    except NotTowerError:
        return []
    # check_strong_ordering first tests that a walk is a cycle of g.
    cycles = {canonicalize((*c1, *reversed(c2[1:]))) for c1, c2 in readings}
    return sorted((c for c in cycles if check_strong_ordering(g, c)), key=lambda c: c.order)
