"""Exact-arithmetic kernels for polygon visibility.

The one visibility kernel of polyvis, in pure Python.  All predicates are
exact over integer coordinates of any size (Python integers do not overflow).

Visibility is read from one cone row per vertex: its point, the vectors to
its two neighbours and whether it is convex.  ``visibility_edges`` builds the
rows once per polygon, ``segment_visible`` builds the two it needs, and both
run the same pair test: in O(1), the segment must leave each endpoint
strictly inside that vertex's interior angle; only a pair that passes at
both ends gets one O(n) scan of the boundary.  On generated polygons nearly
every pair that passes is an edge of the graph, so ``visibility_edges`` costs
about O(m*n) for m edges; the dense worst case, a convex polygon, is O(n^3).
At n=160 (Python 3.11.7, one core of a busy 2-CPU KVM guest, best of 5) the
20 criterion-6 pseudo-triangles take 0.18 s median (0.03-0.26 s), a tower
0.01-0.03 s and a convex polygon 0.39 s; the boundary scans are nearly all of
it.

Contract, given the CCW vertex list of a simple polygon:

* boundary-adjacent vertices are visible;
* otherwise i sees j iff the segment (i, j) leaves both i and j strictly
  inside their interior angles, no other vertex lies on the open segment, and
  no boundary edge crosses it properly.

The open segment then starts into the interior and touches no boundary point,
so it lies in the interior.  A segment grazing a vertex strictly between its
endpoints counts as blocked.

``has_collinear_triple`` buckets, from each vertex, the slopes to the later
vertices as floats.  Int/int division is correctly rounded, so equal slopes
always give equal floats and a row without a repeated float has no collinear
pair; a row with one, or with a slope too large for a float, is decided by
the exact integer scan, so a "collinear" answer never rests on floats.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

Coords = Sequence[tuple[int, int]]


def _cone(coords: Coords, i: int) -> tuple:
    """Vertex i's cone row: (px, py, ux, uy, vx, vy, convex), where u and v
    lead to the next and the previous vertex and ``convex`` includes a
    straight vertex."""
    px, py = coords[i]
    bx, by = coords[(i + 1) % len(coords)]
    ax, ay = coords[i - 1]
    ux, uy, vx, vy = bx - px, by - py, ax - px, ay - py
    return px, py, ux, uy, vx, vy, ux * vy - uy * vx >= 0


def _seen_from(coords: Coords, cone: tuple, targets: Iterable[tuple[int, tuple]]) -> list[int]:
    """The vertices j that the vertex with cone row ``cone`` sees, among
    ``targets``: (j, cone row of j) pairs, none boundary-adjacent to it."""
    px, py, ux, uy, vx, vy, convex = cone
    seen: list[int] = []
    for j, (qx, qy, wx, wy, zx, zy, convex_q) in targets:
        dx, dy = qx - px, qy - py
        # Inward at p (CCW polygon, interior left of each edge): d is left of
        # u and right of v, both at a convex vertex, either at a reflex one.
        # At q the direction is -d.
        left, right = ux * dy > uy * dx, dx * vy > dy * vx
        if not ((left and right) if convex else (left or right)):
            continue
        left, right = wy * dx > wx * dy, dy * zx > dx * zy
        if not ((left and right) if convex_q else (left or right)):
            continue
        # The boundary scan: side(b) = orient(p, q, b) is 0 on the line pq
        # and > 0 to its left.
        c = dy * px - dx * py
        span = dx * dx + dy * dy
        ax, ay = coords[-1]
        sa = dx * ay - dy * ax + c
        for bx, by in coords:
            sb = dx * by - dy * bx + c
            if sb == 0:
                # b on the line: strictly between p and q it grazes the segment.
                if 0 < dx * (bx - px) + dy * (by - py) < span:
                    break
            elif sa * sb < 0:
                # Edge ab straddles the line (so it is not incident to p or
                # q); it crosses pq properly iff p and q are strictly on
                # opposite sides of ab.
                ex, ey = bx - ax, by - ay
                d1 = ex * (py - ay) - ey * (px - ax)
                d2 = ex * (qy - ay) - ey * (qx - ax)
                if (d1 < 0 < d2) or (d2 < 0 < d1):
                    break
            ax, ay, sa = bx, by, sb
        else:
            seen.append(j)
    return seen


def segment_visible(coords: Coords, i: int, j: int) -> bool:
    """Exact visibility predicate between polygon vertices i and j."""
    n = len(coords)
    if i == j:
        return False
    if (i + 1) % n == j or (j + 1) % n == i:
        return True
    return bool(_seen_from(coords, _cone(coords, i), ((j, _cone(coords, j)),)))


def visibility_edges(coords: Coords) -> list[tuple[int, int]]:
    """All visible vertex pairs (i < j), sorted."""
    n = len(coords)
    cones = [_cone(coords, i) for i in range(n)]
    out: list[tuple[int, int]] = []
    for i in range(n - 1):
        stop = n - 1 if i == 0 else n  # (0, n - 1) is a boundary edge
        targets = zip(range(i + 2, stop), cones[i + 2:stop])
        out.append((i, i + 1))
        out += [(i, j) for j in _seen_from(coords, cones[i], targets)]
        if i == 0 and n > 2:
            out.append((0, n - 1))
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
