"""Tower-polygon visibility graphs: leveling, borderings and Hamiltonian cycles.

A tower's visibility graph is covered by ordered level sets grown greedily from
the apex.  A 2-coloring of the constraint graph over those levels assigns every
vertex to the left or right boundary chain.  ``bordering_chains`` builds that
graph for a leveled view and reads each consistent assignment as two chains
from the apex down, a pseudo-tower's tail hung below one of them; it is the
one chain reading that all three solvers share.  ``tower_readings`` is the
one loop over apex candidates, which the tower and pseudo-tower solvers run.
Down one chain and back up the other is one Hamiltonian cycle candidate.
Levels, constraint components and chain sides are all vertex masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graph import (
    CycleCandidate,
    Graph,
    NbrView,
    bfs_layers,
    canonicalize,
    is_connected,
    is_cycle_in_graph,
    low,
    members,
    view_of,
)


class NotTowerError(ValueError):
    """The input cannot be the visibility graph of a tower polygon."""


@dataclass(frozen=True)
class BorderingGraph:
    """Constraint graph whose edges force opposite chain assignments, as
    vertex masks: each non-apex vertex's constraint neighbours, the
    components in order of their least vertex, and each component's
    colour-1 vertices, the odd layers of its BFS."""

    adj: dict[int, int]
    components: tuple[int, ...]
    odd: tuple[int, ...]


def tower_top_candidates(nbrs: NbrView) -> frozenset[int]:
    """Vertices of degree 2 whose two neighbors are adjacent to each other.

    A genuine tower graph has one or two such vertices (the apex, and possibly
    one base corner); anything the filter admits is tried downstream.
    """
    bits, within = nbrs
    if within.bit_count() < 3:
        raise NotTowerError("tower graphs need at least 3 vertices")
    out = []
    for v in members(within):
        nb = bits[v] & within
        if nb.bit_count() == 2 and bits[low(nb)] & nb:
            out.append(v)
    if not out:
        raise NotTowerError("no apex candidate: not a tower visibility graph")
    return frozenset(out)


def level_sets(nbrs: NbrView, top: int) -> tuple[int, ...]:
    """Ordered level sets l_1..l_k of a view from ``top``, as vertex masks.

    Runs ``walk_levels``, the package's one leveling loop, from ``top`` until
    every vertex is placed: l_2 = N(top), then each level is closed from the
    unplaced common neighbors of the one before.  Every level places a
    vertex, so there are at most n.  A vertex can belong to a run of
    consecutive levels, each completed by re-using a vertex of the one
    before.  Raises NotTowerError on any structural violation.
    """
    levels = [1 << top]
    for _ in walk_levels(nbrs, levels, 1 << top):
        pass
    return tuple(levels)


def walk_levels(nbrs: NbrView, levels: list[int], placed: int) -> Iterator[tuple[int, int]]:
    """The one leveling loop: grow ``levels``, a list of vertex masks,
    greedily below its last level.

    Each candidate level is the mask of unplaced common neighbors of the last
    level, which has one or two vertices.  It is yielded, with the mask of
    the vertices placed so far, before it is closed by one rule: more than
    two vertices reject the walk, a pair must be a clique, and a single
    vertex needs exactly one carrier (see ``carriers``) unless it is the
    last unplaced vertex.  ``levels`` is extended in place, so a consumer
    reads the last closed level from it between steps.  Vertices in
    ``placed`` at the start are outside the walk: the candidate and carrier
    tests skip them.  Every closed level places at least one vertex, so the
    walk ends within n levels.  Raises NotTowerError on any structural
    violation.
    """
    bits, within = nbrs
    while rest := within & ~placed:
        current = levels[-1]
        a = current & -current
        cand = bits[a.bit_length() - 1] & rest
        if b := current ^ a:
            cand &= bits[b.bit_length() - 1]
        if not cand:
            raise NotTowerError("leveling stalled: no common neighbor outside placed levels")
        yield cand, placed
        size = cand.bit_count()
        if size > 2:
            raise NotTowerError(f"level would have {size} vertices")
        p = (cand & -cand).bit_length() - 1
        if size == 2:
            if not bits[p] & cand:
                raise NotTowerError("two-vertex level is not a clique")
        elif cand != rest:  # a single vertex, not the last one
            xs = carriers(nbrs, current, placed, p)
            if len(xs) != 1:
                raise NotTowerError(
                    f"{len(xs)} level vertices reach below a single-vertex level"
                )
            cand |= 1 << xs[0]
        levels.append(cand)
        placed |= cand


def carriers(nbrs: NbrView, current: int, placed: int, p: int) -> list[int]:
    """The single-vertex rule's test: the vertices of the level mask
    ``current`` with an unplaced neighbor other than ``p``.  Below the
    candidate level {p} the next level is {p, x} for the one carrier x; none
    or several reject the leveling, so callers read only the count and the
    single carrier.
    """
    bits, within = nbrs
    rest = within & ~placed & ~(1 << p)
    out = []
    while current:
        bit = current & -current
        if bits[x := bit.bit_length() - 1] & rest:
            out.append(x)
        current ^= bit
    return out


def compute_leveling(g: Graph, top: int) -> tuple[int, ...]:
    """Leveling of a whole graph from ``top``; see level_sets."""
    return level_sets(view_of(g), top)


def bordering_constraints(nbrs: NbrView, lv: tuple[int, ...]) -> BorderingGraph:
    """Constraint graph over the non-apex vertices of the leveling ``lv``.

    Two kinds of constraint edges force opposite chains: graph edges whose
    endpoints' levels are at least 2 apart, and the pair inside every
    two-vertex level.  Raises NotTowerError if 2-coloring fails.
    """
    bits, within = nbrs
    nodes = within & ~lv[0]
    # A vertex sits in a run of consecutive levels (a carrier stays on into
    # the next level), so two vertices' levels are 2 or more apart exactly
    # when one run ends at least 2 levels before the other starts.  With the
    # levels numbered from 1, ``starts[i]`` holds the runs that start at
    # level i or later, and ``ended[i]`` those that end at level i or before.
    k = len(lv)
    levels = (0, *lv, 0)
    starts, ended = [0] * (k + 3), [0] * (k + 1)
    for i in range(k, 0, -1):
        starts[i] = starts[i + 1] | (levels[i] & ~levels[i - 1])
    for i in range(1, k + 1):
        ended[i] = ended[i - 1] | (levels[i] & ~levels[i + 1])
    adj = {}
    for i in range(2, k + 1):  # level 1 is the apex
        for u in members(levels[i] & ~levels[i - 1]):
            last = i
            while levels[last + 1] >> u & 1:
                last += 1
            adj[u] = bits[u] & nodes & (starts[last + 2] | ended[i - 2])
    for lvl in lv:
        if lvl.bit_count() == 2:
            a, b = members(lvl)
            adj[a] |= 1 << b
            adj[b] |= 1 << a

    # Color by BFS layer parity; the graph is bipartite iff no edge joins two
    # vertices of one layer.
    comps, odd = [], []
    while nodes:
        layers = bfs_layers(adj, low(nodes), nodes)
        for layer in layers:
            for u in members(layer):
                if adj[u] & layer:
                    raise NotTowerError("constraint graph has an odd cycle")
        comps.append(sum(layers))
        odd.append(sum(layers[1::2]))
        nodes ^= comps[-1]
    return BorderingGraph(adj, tuple(comps), tuple(odd))


def bordering_graph(g: Graph, lv: tuple[int, ...]) -> BorderingGraph:
    """Constraint graph of a whole graph's leveling; see bordering_constraints."""
    return bordering_constraints(view_of(g), lv)


def enumerate_borderings(bg: BorderingGraph) -> list[tuple[int, int]]:
    """All chain assignments up to global left/right swap, each a (left,
    right) pair of vertex masks: exactly 2^(c-1) of them for c constraint
    components (one, both sides empty, when there are no nodes).  Each
    component puts its colour-1 vertices on the right unless bit i of the
    even number ``flips`` flips component i, so the first never flips.
    """
    comps, odd = bg.components, bg.odd
    nodes = sum(comps)
    out = []
    for flips in range(0, 1 << len(comps), 2):
        right = 0
        for i, (comp, o) in enumerate(zip(comps, odd)):
            right |= comp ^ o if flips >> i & 1 else o
        out.append((nodes ^ right, right))
    return out


def bordering_chains(
    nbrs: NbrView,
    lv: tuple[int, ...],
    tail: tuple[int, ...] = (),
    attachment: int | None = None,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The chain pair of every bordering of a leveled view, in
    ``enumerate_borderings`` order: each chain runs from the apex down
    through its side's first-comer of each level in turn, a first-comer
    being a vertex that no earlier level holds.  Raises NotTowerError if
    the constraint graph has an odd cycle.

    No chain holds two first-comers of one level: two vertices that first
    appear in one level make it a two-vertex level, whose pair is a
    constraint edge.  The constraint components cover every vertex but the
    apex, so the two chains hold all of them.  A ``tail`` (outermost vertex
    first) hangs below the chain that ends at ``attachment``; a bordering
    that leaves the attachment above the bottom of its chain is
    inconsistent and dropped.
    """
    bg = bordering_constraints(nbrs, lv)
    top = low(lv[0])
    suffix = tuple(reversed(tail))  # innermost tail vertex first
    firsts = [lv[i] & ~lv[i - 1] for i in range(1, len(lv))]

    def chain(side: int) -> tuple[int, ...]:
        return (top, *[low(new & side) for new in firsts if new & side])

    out = []
    for left, right in enumerate_borderings(bg):
        c1, c2 = chain(left), chain(right)
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
    if not is_connected(view_of({v: nb for v, nb in residual.items() if nb})):
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
        readings = tower_readings(view_of(g)) or []
    except NotTowerError:
        return []
    # check_strong_ordering first tests that a walk is a cycle of g.
    cycles = {canonicalize((*c1, *reversed(c2[1:]))) for c1, c2 in readings}
    return sorted((c for c in cycles if check_strong_ordering(g, c)), key=lambda c: c.order)
