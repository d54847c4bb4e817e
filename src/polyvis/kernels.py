"""Exact-arithmetic kernels for polygon visibility.

The one visibility kernel of polyvis, in pure Python.  All predicates are
exact over integer coordinates of any size (Python integers do not overflow):
every decision is the sign of an integer orientation or dot product.

Contract, given the CCW vertex list of a simple polygon:

* boundary-adjacent vertices are visible;
* otherwise i sees j iff the segment (i, j) leaves both i and j strictly
  inside their interior angles, no other vertex lies on the open segment, and
  no boundary edge crosses it properly.

The open segment then starts into the interior and touches no boundary point,
so it lies in the interior.  A segment grazing a vertex strictly between its
endpoints counts as blocked.

``visibility_edges`` reads the whole graph from one triangulation.
``_triangulate`` clips ears (Meisters, "Polygons have ears", 1975): a vertex
b is an ear when it turns strictly left and no other remaining vertex lies in
the closed triangle (prev, b, next); its docstring gives the O(n^2) bound.
Then, from every vertex p, a walk through the dual tree of the triangulation
(after Guibas, Hershberger, Leven, Sharir and Tarjan, "Linear-time
algorithms for visibility and shortest path problems inside triangulated
simple polygons", 1987) starts in p's fan of triangles, whose vertices are
p's neighbours in the triangulation and so are visible.  It carries a
window: the directions strictly between two rays from p, each through a
vertex.  On entering the triangle beyond an edge, its apex c is visible iff
it lies strictly inside the window, and each of the triangle's two far
edges is entered with the window narrowed to that edge while the window is
not empty.

That is the contract.  Every direction strictly inside the window reaches
the entered edge through open triangles and the relative interiors of the
edges crossed so far, all interior to the polygon; so a segment to an apex
strictly inside the window leaves p into p's angle, arrives at c from the
open triangle, and touches no boundary point between.  Conversely, the open
segment of a visible pair lies in the interior and passes no vertex, so it
crosses a path of diagonals of the dual tree, each at an interior point, and
stays strictly inside every window on the way.  An apex exactly on a window
ray lies beyond the vertex that fixes the ray (that vertex is on an edge
already crossed), so the segment grazes that vertex: blocked.

The walk from p enters each triangle at most once, so it costs O(n), and the
graph O(n^2) in the worst case, whatever its edge count.  Measured on Python
3.11.7, one core of a busy 2-CPU KVM guest, best of 7 interleaved with the
boundary-scan kernel this one replaced (O(n) per pair, O(n^3) on a convex
polygon): the 80 criterion-6 pseudo-triangles (n 20-160) take 0.36 s in all
against 2.9 s, and 13 ms median at n=160 (8-19 ms) against 146 ms; a convex
polygon at n=160 14 ms against 395 ms; towers at n=160 9-12 ms against 9-42
ms.

``segment_visible`` is the one-pair predicate, for the generators'
early-exit queries: an O(1) test that the segment leaves each endpoint
strictly inside its interior angle, then, only for a pair that passes, one
O(n) scan of the boundary for a grazed vertex or a properly crossing edge.

An input that is not a simple CCW polygon either runs out of ears, and
``visibility_edges`` raises ``ValueError`` (a clockwise or zero-area input
always does), or is clipped and walked, in bounded time, to an answer that
means nothing.  ``geometry.Polygon`` validates in front.

``has_collinear_triple`` buckets, from each vertex, the slopes to the later
vertices as floats.  Int/int division is correctly rounded, so equal slopes
always give equal floats and a row without a repeated float has no collinear
pair; a row with one, or with a slope too large for a float, is decided by
the exact integer scan, so a "collinear" answer never rests on floats.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

Coords = Sequence[tuple[int, int]]


def _inward(coords: Coords, i: int, dx: int, dy: int) -> bool:
    """The direction (dx, dy) leaves vertex i strictly inside its interior
    angle: left of the edge to the next vertex and right of the edge to the
    previous one, both at a convex (or straight) vertex, either at a reflex
    one (CCW polygon, interior left of each edge)."""
    px, py = coords[i]
    bx, by = coords[(i + 1) % len(coords)]
    ax, ay = coords[i - 1]
    ux, uy, vx, vy = bx - px, by - py, ax - px, ay - py
    left, right = ux * dy > uy * dx, dx * vy > dy * vx
    return (left and right) if ux * vy >= uy * vx else (left or right)


def segment_visible(coords: Coords, i: int, j: int) -> bool:
    """Exact visibility predicate between polygon vertices i and j."""
    n = len(coords)
    if i == j:
        return False
    if (i + 1) % n == j or (j + 1) % n == i:
        return True
    px, py = coords[i]
    qx, qy = coords[j]
    dx, dy = qx - px, qy - py
    if not (_inward(coords, i, dx, dy) and _inward(coords, j, -dx, -dy)):
        return False
    # The boundary scan: side(b) = orient(p, q, b) is 0 on the line pq and
    # > 0 to its left.
    c = dy * px - dx * py
    span = dx * dx + dy * dy
    ax, ay = coords[-1]
    sa = dx * ay - dy * ax + c
    for bx, by in coords:
        sb = dx * by - dy * bx + c
        if sb == 0:
            # b on the line: strictly between p and q it grazes the segment.
            if 0 < dx * (bx - px) + dy * (by - py) < span:
                return False
        elif sa * sb < 0:
            # Edge ab straddles the line (so it is not incident to p or q); it
            # crosses pq properly iff p and q are strictly on opposite sides
            # of ab.
            ex, ey = bx - ax, by - ay
            d1 = ex * (py - ay) - ey * (px - ax)
            d2 = ex * (qy - ay) - ey * (qx - ax)
            if (d1 < 0 < d2) or (d2 < 0 < d1):
                return False
        ax, ay, sa = bx, by, sb
    return True


def _triangulate(coords: Coords) -> list[tuple[int, int, int]]:
    """CCW triangles (a, b, c) of the polygon by ear clipping.

    b is an ear when it turns strictly left and no other remaining vertex
    lies in the closed triangle (a, b, c).  Only the vertices that are not
    strictly convex need testing: if the triangle holds a vertex, the one
    nearest b (farthest from the line ac) has the open triangle beyond it
    free of the boundary and both its neighbours behind it, so its interior
    angle is at least 180 degrees.  Clipping b shrinks the angles at a and c
    and changes no other vertex's triangle; a vertex it took out of another
    triangle was strictly convex, so that triangle still holds the vertex
    the argument above finds.  So a vertex found blocked stays blocked until
    a neighbour is clipped: the walk round the remaining vertices makes at
    most 4n ear tests of O(n) each (a test clips a vertex or blocks one, and
    a clip unblocks at most two), and at most one lap of O(1) steps per
    clip, so the whole is O(n^2).  A lap without an ear raises
    ``ValueError``: every clipped triangle has positive area and their areas
    sum to the polygon's, so a clockwise or zero-area input always does.
    """
    n = len(coords)
    if n < 3:
        raise ValueError(f"a polygon needs at least 3 vertices, got {n}")
    xs = [x for x, _ in coords]
    ys = [y for _, y in coords]
    nxt = [*range(1, n), 0]
    prv = [n - 1, *range(n - 1)]

    def convex(b: int) -> bool:
        a, c = prv[b], nxt[b]
        return (xs[b] - xs[a]) * (ys[c] - ys[a]) > (ys[b] - ys[a]) * (xs[c] - xs[a])

    reflex = {b for b in range(n) if not convex(b)}
    blocked: set[int] = set()  # convex, with a reflex vertex in the triangle
    tris: list[tuple[int, int, int]] = []
    b, left, misses = 0, n, 0
    while left > 3:
        a, c = prv[b], nxt[b]
        if b not in blocked and convex(b):
            ax, ay, bx, by, cx, cy = xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]
            for r in reflex:
                rx, ry = xs[r], ys[r]
                if (
                    (bx - ax) * (ry - ay) >= (by - ay) * (rx - ax)
                    and (cx - bx) * (ry - by) >= (cy - by) * (rx - bx)
                    and (ax - cx) * (ry - cy) >= (ay - cy) * (rx - cx)
                    and r != a
                    and r != c
                ):
                    blocked.add(b)
                    break
            else:
                tris.append((a, b, c))
                nxt[a], prv[c] = c, a
                left -= 1
                misses = 0
                for v in (a, c):
                    blocked.discard(v)
                    if v in reflex and convex(v):
                        reflex.discard(v)
                b = c
                continue
        misses += 1
        if misses == left:
            raise ValueError("no ear: the vertices are not a simple CCW polygon")
        b = c
    if not convex(b):
        raise ValueError("no ear: the vertices are not a simple CCW polygon")
    tris.append((prv[b], b, nxt[b]))
    return tris


def visibility_edges(coords: Coords) -> list[tuple[int, int]]:
    """All visible vertex pairs (i < j), sorted."""
    n = len(coords)
    # apex[u * n + w] is the third vertex of the triangle left of u -> w;
    # fan[p] holds (u, w) for each triangle (p, u, w).
    apex: dict[int, int] = {}
    fan: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, c in _triangulate(coords):
        apex[a * n + b], apex[b * n + c], apex[c * n + a] = c, a, b
        fan[a].append((b, c))
        fan[b].append((c, a))
        fan[c].append((a, b))
    get = apex.get
    xs = [x for x, _ in coords]
    ys = [y for _, y in coords]
    out: list[tuple[int, int]] = []
    for p in range(n):
        px, py = xs[p], ys[p]
        # The fan's vertices are p's triangulation neighbours: each is the
        # first far vertex of one fan triangle, except p - 1.
        seen = [(p - 1) % n]
        # (u, w, r, l): enter the triangle beyond the edge u -> w, seen from
        # p with u on the right, through the window of directions strictly
        # between r and l (vectors from p).  A triangle whose apex is outside
        # the window has one far edge left to enter, and the walk goes on
        # through it without the stack.
        stack = []
        for u, w in fan[p]:
            seen.append(u)
            stack.append((u, w, xs[u] - px, ys[u] - py, xs[w] - px, ys[w] - py))
        while stack:
            u, w, rx, ry, lx, ly = stack.pop()
            while (c := get(w * n + u)) is not None:  # None: u -> w is a boundary edge
                cx, cy = xs[c] - px, ys[c] - py
                if rx * cy <= ry * cx:  # c on or right of the right ray
                    u = c
                elif cx * ly <= cy * lx:  # c on or left of the left ray
                    w = c
                else:
                    seen.append(c)
                    stack.append((c, w, cx, cy, lx, ly))
                    w, lx, ly = c, cx, cy
        out += [(p, j) for j in sorted(seen) if j > p]
    return out


def _collinear_from(ax: int, ay: int, rest: Coords) -> bool:
    """Exact: two points of ``rest``, none equal to (ax, ay), lie on one line
    through it, found as two directions that reduce to the same primitive
    vector."""
    seen: set[tuple[int, int]] = set()
    for bx, by in rest:
        dx, dy = bx - ax, by - ay
        g = gcd(dx, dy)
        if dx < 0 or (dx == 0 and dy < 0):
            g = -g
        d = (dx // g, dy // g)
        if d in seen:
            return True
        seen.add(d)
    return False


def has_collinear_triple(coords: Coords) -> bool:
    """True iff any three distinct vertices are collinear (a repeated point
    counts as collinear with any third).

    Each collinear triple is found from its first vertex: the slopes from
    there to the two later vertices are equal.
    """
    n = len(coords)
    if n < 3:
        return False
    # Plain tuples: the loops below unpack every pair, and CPython unpacks an
    # exact tuple faster than a subclass such as ``geometry.Point``.
    coords = [(x, y) for x, y in coords]
    if len(set(coords)) < n:
        return True
    for i in range(n - 2):
        ax, ay = coords[i]
        rest = coords[i + 1:]
        try:
            slopes = {(by - ay) / (bx - ax) if bx != ax else None for bx, by in rest}
            shared = len(slopes) < len(rest)
        except OverflowError:
            shared = True
        if shared and _collinear_from(ax, ay, rest):
            return True
    return False
