"""Independent oracles for the acceptance suite.

Brute-force Hamiltonian enumeration, convex-polygon sampling and the plain
scans that the pruned or hashed library routines must agree with stay
separate from the code they are used to check.
"""

from __future__ import annotations

import math
import random

from polyvis import Graph, Point, Polygon, canonicalize, is_cycle_in_graph
from polyvis.pseudotriangle import _necessary_conditions


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
        for w in g.neighbors(path[-1]):
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


def verify_cycle_scan(g: Graph, order) -> bool:
    """``verify_cycle`` without pruning: the necessary conditions are checked
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
                if _necessary_conditions(g, (left, bottom, right)):
                    return True
    return False
