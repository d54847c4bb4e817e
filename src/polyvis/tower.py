"""Tower-polygon visibility graphs: leveling, borderings and Hamiltonian cycles.

A tower's visibility graph is covered by ordered level sets grown greedily from
the apex.  A 2-coloring of the constraint graph over those levels assigns every
vertex to the left or right boundary chain; each consistent assignment yields
one Hamiltonian cycle candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import CycleCandidate, Graph, bfs_layers, canonicalize, is_cycle_in_graph


class NotTowerError(ValueError):
    """The input cannot be the visibility graph of a tower polygon."""


LEFT = "L"
RIGHT = "R"


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

    def memberships(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, lvl in enumerate(self.levels, start=1):
            for v in lvl:
                out.setdefault(v, []).append(i)
        return out


@dataclass(frozen=True)
class BorderingGraph:
    """Constraint graph whose edges force opposite chain assignments."""

    nodes: frozenset[int]
    constraint_edges: frozenset[tuple[int, int]]
    components: tuple[frozenset[int], ...]
    coloring: dict[int, int] = field(compare=False)  # 0/1 within each component


@dataclass(frozen=True)
class Bordering:
    """Assignment of the non-apex vertices to the two boundary chains."""

    left: frozenset[int]
    right: frozenset[int]

    def side(self, v: int) -> str:
        if v in self.left:
            return LEFT
        if v in self.right:
            return RIGHT
        raise KeyError(v)


def tower_top_candidates(g: Graph) -> frozenset[int]:
    """Vertices of degree 2 whose two neighbors are adjacent to each other.

    A genuine tower graph has one or two such vertices (the apex, and possibly
    one base corner); anything the filter admits is tried downstream.
    """
    if g.n < 3:
        raise NotTowerError("tower graphs need at least 3 vertices")
    out = []
    for v in range(g.n):
        nb = g.neighbors(v)
        if len(nb) == 2 and g.has_edge(nb[0], nb[1]):
            out.append(v)
    if not out:
        raise NotTowerError("no apex candidate: not a tower visibility graph")
    return frozenset(out)


def level_sets(nbrs: dict[int, frozenset[int]], top: int) -> Leveling:
    """Leveling core over a neighbor-set view (keys are the vertex universe).

    Grow levels from ``top``: l_2 = N(top), then each new level is the set of
    unplaced common neighbors of the current one, closed by the three rules
    for exhaustion, two-vertex levels, and single-vertex levels.  Raises
    NotTowerError on any structural violation.
    """
    total = len(nbrs)
    levels: list[frozenset[int]] = [frozenset({top})]
    placed: set[int] = {top}
    current: frozenset[int] = levels[0]

    while len(placed) < total:
        cand = frozenset.intersection(*(nbrs[v] for v in current)) - placed
        remaining = total - len(placed)
        if not cand:
            raise NotTowerError("leveling stalled: no common neighbor outside placed levels")
        if len(cand) == remaining:
            if len(cand) > 2:
                raise NotTowerError(f"last level would have {len(cand)} vertices")
            if len(cand) == 2:
                a, b = cand
                if a not in nbrs[b]:
                    raise NotTowerError("last level is not a clique")
            levels.append(cand)
            placed |= cand
            break
        if len(cand) > 2:
            raise NotTowerError(f"level would have {len(cand)} vertices")
        if len(cand) == 2:
            a, b = cand
            if a not in nbrs[b]:
                raise NotTowerError("two-vertex level is not a clique")
            levels.append(cand)
            placed |= cand
            current = cand
        else:
            (p,) = cand
            carriers = [
                x
                for x in sorted(current)
                if any(w != p and w not in placed for w in nbrs[x])
            ]
            if len(carriers) != 1:
                raise NotTowerError(
                    f"{len(carriers)} level vertices reach below a single-vertex level"
                )
            new = frozenset({p, carriers[0]})
            levels.append(new)
            placed.add(p)
            current = new

    level_of: dict[int, int] = {}
    for i, lvl in enumerate(levels, start=1):
        for v in lvl:
            level_of.setdefault(v, i)
    return Leveling(tuple(levels), level_of)


def compute_leveling(g: Graph, top: int) -> Leveling:
    """Leveling of a whole graph from ``top``; see level_sets."""
    if not (0 <= top < g.n):
        raise ValueError(f"top {top} out of range")
    return level_sets({v: g.nbr_set(v) for v in range(g.n)}, top)


def bordering_constraints(
    nbrs: dict[int, frozenset[int]], lv: Leveling
) -> BorderingGraph:
    """Constraint-graph core over a neighbor-set view; see bordering_graph."""
    top = lv.top
    nodes = frozenset(v for v in nbrs if v != top)
    # A vertex sits in a run of consecutive levels (a carrier stays on into
    # the next level), so two vertices' levels are 2 or more apart exactly
    # when one run ends at least 2 levels before the other starts.
    member = lv.memberships()
    first = {v: lvls[0] for v, lvls in member.items()}
    last = {v: lvls[-1] for v, lvls in member.items()}

    constraints: set[tuple[int, int]] = set()
    for u in nodes:
        for v in nbrs[u]:
            if v <= u or v == top:
                continue
            if first[v] - last[u] >= 2 or first[u] - last[v] >= 2:
                constraints.add((u, v))
    for lvl in lv.levels:
        if len(lvl) == 2:
            a, b = sorted(lvl)
            constraints.add((a, b))

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
    return BorderingGraph(nodes, frozenset(constraints), tuple(comps), coloring)


def bordering_graph(g: Graph, lv: Leveling) -> BorderingGraph:
    """Constraint graph over the non-apex vertices.

    Two kinds of constraint edges force opposite chains: graph edges whose
    endpoints' levels are at least 2 apart, and the pair inside every
    two-vertex level.  Raises NotTowerError if 2-coloring fails.
    """
    return bordering_constraints({v: g.nbr_set(v) for v in range(g.n)}, lv)


def enumerate_borderings(bg: BorderingGraph, limit: int | None = None) -> list[Bordering]:
    """All chain assignments up to global left/right swap: exactly 2^(c-1) of
    them for c constraint components (one when there are no nodes).

    ``limit`` truncates the enumeration deterministically; the public count
    contract only holds when it is None.
    """
    comps = bg.components
    c = len(comps)
    if c == 0:
        return [Bordering(frozenset(), frozenset())]
    total = 1 << (c - 1)
    if limit is not None:
        total = min(total, limit)
    out: list[Bordering] = []
    for bits in range(total):
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


def tower_hamiltonian(g: Graph, lv: Leveling, b: Bordering) -> CycleCandidate | None:
    """Cycle: apex, left chain by increasing level, right chain by decreasing
    level.  Returns None when the bordering does not close into a cycle of g
    (the bordering is discarded, not an error).
    """
    top = lv.top
    left = sorted(b.left, key=lambda v: (lv.level_of[v], v))
    right = sorted(b.right, key=lambda v: (lv.level_of[v], v), reverse=True)
    for side in (left, right):
        seen_levels = [lv.level_of[v] for v in side]
        if len(set(seen_levels)) != len(seen_levels):
            return None
    order = [top] + left + right
    if len(order) != g.n:
        return None
    cand = canonicalize(order)
    return cand if is_cycle_in_graph(g, cand) else None


def chains_from_bordering(lv: Leveling, b: Bordering) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two top-to-bottom chains, each beginning at the apex."""
    top = lv.top
    left = sorted(b.left, key=lambda v: (lv.level_of[v], v))
    right = sorted(b.right, key=lambda v: (lv.level_of[v], v))
    return (top, *left), (top, *right)


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
    residual = [e for e in g.edges if e not in cycle_edges]
    if not residual:
        return True

    res_adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in residual:
        res_adj[u].add(v)
        res_adj[v].add(u)
    isolated = [v for v in range(n) if not res_adj[v]]
    if not 1 <= len(isolated) <= 2:
        return False

    # The rest is connected iff one BFS leaves no active vertex unvisited.
    active = {v for v in range(n) if res_adj[v]}
    bfs_layers(res_adj.__getitem__, min(active), active)
    if active:
        return False

    return any(_strong_from_top(g, h, residual, t) for t in isolated)


def _strong_from_top(
    g: Graph,
    h: CycleCandidate,
    residual: list[tuple[int, int]],
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
    """All tower boundary candidates: every apex candidate is leveled, all
    borderings enumerated, and the resulting cycles filtered by the strong
    ordering criterion.  Deterministically sorted, deduplicated.
    """
    try:
        tops = tower_top_candidates(g)
    except NotTowerError:
        return []
    found: set[tuple[int, ...]] = set()
    out: list[CycleCandidate] = []
    for top in sorted(tops):
        try:
            lv = compute_leveling(g, top)
            bg = bordering_graph(g, lv)
        except NotTowerError:
            continue
        for b in enumerate_borderings(bg):
            cand = tower_hamiltonian(g, lv, b)
            if cand is None or cand.order in found:
                continue
            if check_strong_ordering(g, cand):
                found.add(cand.order)
                out.append(cand)
    out.sort(key=lambda c: c.order)
    return out
