"""Independent oracles for the acceptance suite.

Brute-force Hamiltonian enumeration, convex-polygon sampling and the plain
scans that the pruned or hashed library routines must agree with stay
separate from the code they are used to check.  The scans read neighbor
sets, never the solvers' vertex masks: the leveling walk and the tail walk
that they share are set-based copies of the library's mask-based ones.
"""

from __future__ import annotations

import math
import random

from polyvis import (
    Graph,
    Point,
    Polygon,
    PolygonError,
    canonicalize,
    convex_vertex_indices,
    gen_pseudo_triangle,
    is_cycle_in_graph,
    visibility_graph,
)
from polyvis.geometry import _segments_touch
from polyvis.kernels import has_collinear_triple
from polyvis.pseudotower import NotPseudoTowerError, solve_pseudo_tower
from polyvis.tower import NotTowerError


def brute_hamiltonian_cycles(g: Graph) -> list[tuple[int, ...]]:
    """All Hamiltonian cycles of g in canonical form, by exhaustive DFS."""
    n = g.n
    if n < 3:
        return []
    found: set[tuple[int, ...]] = set()
    path = [0]
    used = [False] * n
    used[0] = True

    def dfs() -> None:
        if len(path) == n:
            if g.has_edge(path[-1], 0):
                found.add(canonicalize(path).order)
            return
        for w in sorted(g[path[-1]]):
            if not used[w]:
                used[w] = True
                path.append(w)
                dfs()
                path.pop()
                used[w] = False

    dfs()
    return sorted(found)


def random_convex_polygon(n: int, seed: int) -> Polygon:
    """Strictly convex polygon with integer coordinates: random integer edge
    vectors with distinct directions, summed in angular order.
    """
    rng = random.Random(f"convex:{n}:{seed}")
    while True:
        vecs: dict[tuple[int, int], tuple[int, int]] = {}
        while len(vecs) < n:
            dx = rng.randint(-30, 30)
            dy = rng.randint(-30, 30)
            if dx == 0 and dy == 0:
                continue
            g = math.gcd(abs(dx), abs(dy))
            vecs[(dx // g, dy // g)] = (dx, dy)
        chosen = list(vecs.values())
        sx = sum(v[0] for v in chosen)
        sy = sum(v[1] for v in chosen)
        # close the fan exactly; retry if that collapses or repeats a direction
        chosen[-1] = (chosen[-1][0] - sx, chosen[-1][1] - sy)
        if chosen[-1] == (0, 0):
            continue
        g = math.gcd(abs(chosen[-1][0]), abs(chosen[-1][1]))
        dirs = {(v[0] // math.gcd(abs(v[0]), abs(v[1])),
                 v[1] // math.gcd(abs(v[0]), abs(v[1]))) for v in chosen}
        if len(dirs) < n:
            continue
        chosen.sort(key=lambda v: math.atan2(v[1], v[0]))
        pts = [(0, 0)]
        for dx, dy in chosen[:-1]:
            pts.append((pts[-1][0] + dx, pts[-1][1] + dy))
        try:
            return Polygon(tuple(Point(x, y) for x, y in pts))
        except ValueError:
            continue


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """Random connected simple graph: a random spanning tree plus extras."""
    rng = random.Random(f"fuzz:{n}:{extra_edges}:{seed}")
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        edges.add(tuple(sorted((order[i], order[rng.randrange(i)]))))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(pool)
    for e in pool[:extra_edges]:
        edges.add(e)
    return Graph(n, frozenset(edges))


def mutated_pseudo_triangle(i: int) -> Graph:
    """Criterion 7's i-th mutated graph: a generated pseudo-triangle's
    visibility graph (n from 5 to 20) with one edge removed or one added."""
    n = 5 + (i % 16)
    edges = set(visibility_graph(gen_pseudo_triangle(n, 6000 + i)).edges)
    mutate = random.Random(f"mutate:{i}")
    if mutate.random() < 0.5:
        edges.discard(mutate.choice(sorted(edges)))
    else:
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
        if non_edges:
            edges.add(mutate.choice(non_edges))
    return Graph(n, frozenset(edges))


def arc_pseudo_triangle(n: int, seed: int) -> Polygon:
    """A pseudo-triangle from a family apart from ``gen_pseudo_triangle``'s:
    three concave arcs between three corners, vertex 0 a corner.

    The corners are random integer points in [-10^6, 10^6]^2, taken
    counterclockwise, with twice the area at least 2.5e11.  The other n - 3
    vertices are split at random among the three sides.  On side AB each is
    A + t(B - A) + 2h t(1 - t) (-(B - A)_y, (B - A)_x), rounded, for sorted
    uniform t and one uniform h in [0.05, 0.9] per side, so the side bows
    into the triangle.  An attempt is kept if it has no collinear triple, is
    a valid ``Polygon`` and has exactly 3 convex vertices.
    """
    rng = random.Random(f"arc:{n}:{seed}")
    while True:
        corners = [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(3)]
        (ax, ay), (bx, by), (cx, cy) = corners
        twice_area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if abs(twice_area) < 2.5e11:
            continue
        if twice_area < 0:
            corners.reverse()
        counts = [0, 0, 0]
        for _ in range(n - 3):
            counts[rng.randrange(3)] += 1
        pts = []
        for (a, b), k in zip(zip(corners, corners[1:] + corners[:1]), counts):
            h = rng.uniform(0.05, 0.9)
            dx, dy = b[0] - a[0], b[1] - a[1]
            pts.append(a)
            for t in sorted(rng.random() for _ in range(k)):
                bow = 2 * h * t * (1 - t)
                pts.append((round(a[0] + t * dx - bow * dy), round(a[1] + t * dy + bow * dx)))
        if has_collinear_triple(pts):
            continue
        try:
            poly = Polygon(tuple(Point(x, y) for x, y in pts))
        except PolygonError:
            continue
        if len(convex_vertex_indices(poly)) == 3:
            return poly


def collinear_triple_scan(coords) -> bool:
    """True iff some three distinct vertices are collinear, by trying every
    triple."""
    n = len(coords)
    for i in range(n):
        ax, ay = coords[i]
        for j in range(i + 1, n):
            bx, by = coords[j]
            for k in range(j + 1, n):
                cx, cy = coords[k]
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0:
                    return True
    return False


def _positions_contiguous(chain: tuple[int, ...], members: frozenset[int]) -> bool:
    pos = [i for i, v in enumerate(chain) if v in members]
    return not pos or pos[-1] - pos[0] == len(pos) - 1


def _chain_concave(g: Graph, chain: tuple[int, ...]) -> bool:
    """Non-consecutive vertices of one concave chain must be mutually invisible."""
    k = len(chain)
    for i in range(k):
        for j in range(i + 2, k):
            if g.has_edge(chain[i], chain[j]):
                return False
    return True


def _chains_structurally_ok(chains: tuple[tuple[int, ...], ...], n: int) -> bool:
    left, bottom, right = chains
    if not (left and bottom and right):
        return False
    if left[0] != right[0] or left[-1] != bottom[0] or bottom[-1] != right[-1]:
        return False
    sl, sb, sr = set(left), set(bottom), set(right)
    if sl & sb != {left[-1]} or sb & sr != {bottom[-1]} or sl & sr != {left[0]}:
        return False
    return len(sl | sb | sr) == n


def chain_conditions_scan(g: Graph, chains: tuple[tuple[int, ...], ...]) -> bool:
    """The pseudo-triangle chain conditions by pairwise scans: the chains
    meet at their joints and cover every vertex, no chain has a chord, and
    every cross-chain neighborhood is one run of positions."""
    if not _chains_structurally_ok(chains, g.n):
        return False
    if not all(_chain_concave(g, ch) for ch in chains):
        return False
    for v in range(g.n):
        owners = [ch for ch in chains if v in ch]
        for ch in chains:
            if any(ch is o for o in owners):
                continue
            if not _positions_contiguous(ch, g[v]):
                return False
    return True


def verify_cycle_scan(g: Graph, order) -> bool:
    """``verify_cycle`` without pruning: ``chain_conditions_scan`` is checked
    for every joint triple of the cycle."""
    seq = list(order)
    n = g.n
    if sorted(seq) != list(range(n)):
        return False
    cand = canonicalize(seq)
    if not is_cycle_in_graph(g, cand):
        return False
    seq = list(cand.order)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                left = tuple(seq[i : j + 1])
                bottom = tuple(seq[j : k + 1])
                right = tuple(reversed(seq[k:] + seq[: i + 1]))  # top joint first
                if chain_conditions_scan(g, (left, bottom, right)):
                    return True
    return False


def spec_cycles(g: Graph) -> set[tuple[int, ...]]:
    """The pseudo-triangle readings of g by definition: every Hamiltonian
    cycle that some joint triple splits into chains passing the scans."""
    return {h for h in brute_hamiltonian_cycles(g) if verify_cycle_scan(g, h)}


def _orient(ax, ay, bx, by, cx, cy) -> int:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_open_segment(px, py, qx, qy, rx, ry) -> bool:
    """r strictly inside the segment p-q (collinear and strictly between)."""
    if _orient(px, py, qx, qy, rx, ry) != 0:
        return False
    if px != qx:
        lo, hi = (px, qx) if px < qx else (qx, px)
        return lo < rx < hi
    lo, hi = (py, qy) if py < qy else (qy, py)
    return lo < ry < hi


def _proper_cross(px, py, qx, qy, ax, ay, bx, by) -> bool:
    d1 = _orient(ax, ay, bx, by, px, py)
    d2 = _orient(ax, ay, bx, by, qx, qy)
    d3 = _orient(px, py, qx, qy, ax, ay)
    d4 = _orient(px, py, qx, qy, bx, by)
    return d1 * d2 < 0 and d3 * d4 < 0


def _point_inside_doubled(coords, qx: int, qy: int) -> bool:
    """Strict interior test for (qx, qy) against the polygon scaled by 2."""
    n = len(coords)
    for k in range(n):
        ax, ay = coords[k]
        bx, by = coords[(k + 1) % n]
        ax, ay, bx, by = 2 * ax, 2 * ay, 2 * bx, 2 * by
        if (qx == ax and qy == ay) or _on_open_segment(ax, ay, bx, by, qx, qy):
            return False
    inside = False
    jx, jy = 2 * coords[-1][0], 2 * coords[-1][1]
    for k in range(n):
        kx, ky = 2 * coords[k][0], 2 * coords[k][1]
        if (jy > qy) != (ky > qy):
            t = (kx - jx) * (qy - jy) - (qx - jx) * (ky - jy)
            if (t > 0) if ky > jy else (t < 0):
                inside = not inside
        jx, jy = kx, ky
    return inside


def segment_visible_scan(coords, i: int, j: int) -> bool:
    """Vertices i and j see each other, by three scans of the boundary: no
    other vertex on the open segment, no proper crossing with an edge
    disjoint from {i, j}, and a strictly interior midpoint."""
    n = len(coords)
    if i == j:
        return False
    if (i + 1) % n == j or (j + 1) % n == i:
        return True
    px, py = coords[i]
    qx, qy = coords[j]
    for k in range(n):
        if k != i and k != j and _on_open_segment(px, py, qx, qy, *coords[k]):
            return False
    for a in range(n):
        b = (a + 1) % n
        if a in (i, j) or b in (i, j):
            continue
        if _proper_cross(px, py, qx, qy, *coords[a], *coords[b]):
            return False
    return _point_inside_doubled(coords, px + qx, py + qy)


def polygon_edges_touch_scan(points):
    """The first pair (i, j), i < j, of boundary edges that share no vertex
    and touch, trying every pair in order; None when no two touch.  Edge i
    runs from point i to point i+1 (wrapping round)."""
    pts = [Point(int(x), int(y)) for x, y in points]
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = pts[j], pts[(j + 1) % n]
            if _segments_touch(a, b, c, d):
                return i, j
    return None


def _carriers(nbrs, current: frozenset[int], placed: set[int], p: int) -> list[int]:
    """The vertices of ``current`` with an unplaced neighbor other than ``p``."""
    return [x for x in current if not nbrs[x] - placed <= {p}]


def walk_levels_scan(nbrs, levels: list[frozenset[int]], placed: set[int]):
    """``tower.walk_levels`` on neighbor sets: each candidate level, the
    unplaced common neighbors of the last level, is yielded and then closed
    (more than two vertices or a pair that is no clique reject the walk, and
    a single vertex that is not the last unplaced one is closed with its one
    carrier).  ``levels`` and ``placed`` grow in place."""
    while len(placed) < len(nbrs):
        current = levels[-1]
        cand = frozenset.intersection(*(nbrs[v] for v in current)) - placed
        if not cand:
            raise NotTowerError("leveling stalled")
        yield cand
        if len(cand) > 2:
            raise NotTowerError("level too wide")
        if len(cand) == 2:
            a, b = cand
            if a not in nbrs[b]:
                raise NotTowerError("two-vertex level is not a clique")
        elif len(placed) + 1 < len(nbrs):
            (p,) = cand
            xs = _carriers(nbrs, current, placed, p)
            if len(xs) != 1:
                raise NotTowerError("not one carrier")
            cand = frozenset({p, xs[0]})
        levels.append(cand)
        placed |= cand


def tail_scan(nbrs, top: int) -> tuple[tuple[int, ...], frozenset[int]]:
    """``pseudotower.extract_tail`` on neighbor sets with ``top`` known: the
    walk from the one degree-1 vertex other than ``top`` through degree-2
    vertices, stopping at ``top``, and the residual."""
    ends = [v for v, nb in nbrs.items() if len(nb) == 1 and v != top]
    if len(ends) >= 2:
        raise NotPseudoTowerError("two loose ends")
    if not ends:
        return (), frozenset(nbrs)
    tail, visited = [ends[0]], {ends[0]}
    (current,) = nbrs[ends[0]]
    while current != top and len(nbrs[current]) == 2:
        tail.append(current)
        visited.add(current)
        (current,) = nbrs[current] - visited
    return tuple(tail), frozenset(nbrs) - visited


def extract_cap_walk(g: Graph, top: int, e: tuple[int, int]) -> list[frozenset[int]]:
    """``pseudotriangle.extract_cap`` with every cap read off the leveling
    walk, however wide the top's first level: the caps are read wherever a
    candidate level meets the base, with the flank rule, each once, in the
    order the walk first reads it."""
    w0, w1 = e
    base = (g[w0] & g[w1]) - {w0, w1}
    if not base:
        return []
    if top in base:
        return [base]
    cut = frozenset(e)
    levels = [frozenset({top})]
    placed = {top, w0, w1}
    caps: dict[frozenset[int], None] = {}
    try:
        for cand in walk_levels_scan(g, levels, placed):
            if not cand & base:
                continue
            caps[(base | placed) - cut] = None
            if cand <= base:
                break
            if len(cand) == 2 and g.has_edge(*cand):
                (p,) = cand - base
                if len(_carriers(g, levels[-1], placed, p)) == 1:
                    caps[(base | placed | {p}) - cut] = None
    except NotTowerError:
        pass
    return list(caps)


def split_parts_scan(
    g: Graph, cap: frozenset[int], e: tuple[int, int]
) -> tuple[frozenset[int], frozenset[int]] | None:
    """``pseudotriangle.split_parts`` from its definition: the components of
    g minus ``cap`` and minus the edge ``e``, found by a plain search, if
    there are exactly two and one holds each endpoint."""
    w0, w1 = e
    rest = set(range(g.n)) - cap
    if w0 not in rest or w1 not in rest:
        return None
    comps = []
    while rest:
        seen, stack = set(), [min(rest)]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(
                v for v in g[u] & rest if v not in seen and {u, v} != {w0, w1}
            )
        rest -= seen
        comps.append(frozenset(seen))
    if len(comps) != 2:
        return None
    a, b = comps if w0 in comps[0] else comps[::-1]
    return (a, b) if w0 in a and w1 in b else None


def induces_path(g: Graph, vertices) -> bool:
    """Do ``vertices`` induce a chordless path in g?  The empty set counts as
    one; otherwise the induced graph is connected, no vertex has more than two
    neighbours in it, and it has one edge fewer than vertices."""
    vs = sorted(vertices)
    if not vs:
        return True
    edges = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :] if g.has_edge(u, v)]
    if len(edges) != len(vs) - 1:
        return False
    if any(sum(v in uv for uv in edges) > 2 for v in vs):
        return False
    seen, stack = {vs[0]}, [vs[0]]
    while stack:
        u = stack.pop()
        for v in vs:
            if v not in seen and g.has_edge(u, v):
                seen.add(v)
                stack.append(v)
    return len(seen) == len(vs)


def top_pairs_scan(g: Graph, top: int) -> set[frozenset[int]]:
    """The pairs {a, b} of ``top``'s neighbours for which N(top) - {a, b}
    induces a chordless path, by trying every pair."""
    nb = sorted(g[top])
    return {
        frozenset((a, b))
        for i, a in enumerate(nb)
        for b in nb[i + 1 :]
        if induces_path(g, set(nb) - {a, b})
    }


def hangs_path(g: Graph, cap: frozenset[int], top: int) -> bool:
    """Does ``cap`` induce a chordless path with ``top`` at one end?"""
    return induces_path(g, cap) and len(g[top] & cap) == 1


def bordering_constraints_scan(
    nbrs, levels: list[frozenset[int]]
) -> tuple[frozenset[tuple[int, int]], tuple[frozenset[int], ...], dict[int, int]] | None:
    """``tower.bordering_constraints`` from its definition: the constraint
    edges, the components and the 2-colouring, or None on an odd cycle.
    ``nbrs`` maps each vertex to its neighbor set, and ``levels`` are the
    leveling's sets, the apex alone first.

    Over the vertices but the apex, a graph edge is a constraint when some
    level of one endpoint and some level of the other are 2 or more apart,
    trying every pair of levels, and so is the pair of each two-vertex level.
    Components come in order of their smallest vertex, and each is coloured
    by a depth-first walk that gives its smallest vertex colour 0.
    """
    (top,) = levels[0]
    levels_of: dict[int, list[int]] = {}
    for i, lvl in enumerate(levels):
        for v in lvl:
            levels_of.setdefault(v, []).append(i)
    nodes = sorted(v for v in nbrs if v != top)
    edges = {
        (u, v)
        for i, u in enumerate(nodes)
        for v in nodes[i + 1 :]
        if v in nbrs[u]
        and min(abs(a - b) for a in levels_of[u] for b in levels_of[v]) >= 2
    }
    edges |= {tuple(sorted(lvl)) for lvl in levels if len(lvl) == 2}
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    coloring: dict[int, int] = {}
    comps = []
    for start in nodes:
        if start in coloring:
            continue
        coloring[start] = 0
        comp, stack = {start}, [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in coloring:
                    coloring[v] = 1 - coloring[u]
                    comp.add(v)
                    stack.append(v)
                elif coloring[v] == coloring[u]:
                    return None
        comps.append(frozenset(comp))
    return frozenset(edges), tuple(comps), coloring


def bordering_chains_scan(nbrs, levels: list[frozenset[int]], tail=(), attachment=None):
    """``tower.bordering_chains`` on sets: every bordering of
    ``bordering_constraints_scan``, in ``tower.enumerate_borderings`` order,
    read as two chains from the top down, sorted by first level and then by
    vertex, with the ``tail`` (outermost vertex first) hung below the chain
    that ends at its ``attachment`` and a bordering dropped where neither
    does.  ``nbrs`` maps each vertex to its neighbor set, and ``levels``
    are the leveling's sets, the apex alone first.  None if the constraint
    graph has an odd cycle.
    """
    found = bordering_constraints_scan(nbrs, levels)
    if found is None:
        return None
    _, comps, coloring = found
    (top,) = levels[0]
    level_of: dict[int, int] = {}
    for i, lvl in enumerate(levels):
        for v in lvl:
            level_of.setdefault(v, i)
    out = []
    for flips in range(1 << max(len(comps) - 1, 0)):
        sides: tuple[list[int], list[int]] = ([], [])
        for i, comp in enumerate(comps):
            flip = flips >> (i - 1) & 1 if i else 0
            for v in comp:
                sides[coloring[v] ^ flip].append(v)
        c1, c2 = ((top, *sorted(side, key=lambda v: (level_of[v], v))) for side in sides)
        if tail:
            if c1[-1] == attachment:
                c1 += tail[::-1]
            elif c2[-1] == attachment:
                c2 += tail[::-1]
            else:
                continue
        out.append((c1, c2))
    return out


def cap_context_scan(g: Graph, cap: frozenset[int], top: int):
    """A cap leveled from the top, as the pseudo-triangle search once leveled
    every cap: the tail walk with ``top`` known, then leveling of the
    residual from ``top`` with no shortcut for a one-vertex top
    neighbourhood and no walk to resume.  The residual's neighbor sets, its
    levels, the tail and its attachment, or None if the cap does not level.
    """
    view = {v: g[v] & cap for v in cap}
    levels = [frozenset({top})]
    attachment = None
    try:
        tail, residual = tail_scan(view, top)
        if tail:
            (attachment,) = view[tail[-1]] & residual
            view = {v: view[v] & residual for v in residual}
        for _ in walk_levels_scan(view, levels, {top}):
            pass
    except (NotPseudoTowerError, NotTowerError):
        return None
    return view, levels, tail, attachment


def cap_chains_scan(g: Graph, cap: frozenset[int], top: int):
    """A cap's chain pairs read eagerly: ``bordering_chains_scan`` on its
    ``cap_context_scan``, the tail hung.  None if the cap does not level or
    its constraint graph has an odd cycle.
    """
    context = cap_context_scan(g, cap, top)
    return None if context is None else bordering_chains_scan(*context)


def part_paths_scan(g: Graph, part: frozenset[int], end: int) -> list[tuple[int, ...]]:
    """``pseudotriangle.part_paths`` without its shortcuts: the tail walk with
    ``end`` as top, and anything but a path ending at ``end`` goes to the
    full ``solve_pseudo_tower``, connectivity check included, whose chains
    ending at ``end`` are unfolded around the apex."""
    if end not in part:
        return []
    inner = {v: g[v] & part for v in part}
    try:
        tail, residual = tail_scan(inner, end)
        if residual == {end}:
            return [(*tail, end)]
        sols = solve_pseudo_tower(inner)
    except NotPseudoTowerError:
        return []
    paths = set()
    for s in sols:
        for chain, other in (s.chains, s.chains[::-1]):
            if chain[-1] == end:
                paths.add((*reversed(other), *chain[1:]))
    return sorted(paths)
