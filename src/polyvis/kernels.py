"""Exact-arithmetic kernels for polygon visibility.

The one visibility kernel of polyvis, in pure Python.  All predicates are
exact over integer coordinates of any size (Python integers do not overflow).
``segment_visible`` first checks, in O(1), that the segment leaves each
endpoint strictly inside that vertex's interior angle; only a pair that
passes at both ends gets one O(n) scan of the boundary.  On generated
polygons nearly every pair that passes is an edge of the graph, so
``visibility_edges`` costs about O(m*n) for m edges; the dense worst case, a
convex polygon, is O(n^3).  At n=160 (Python 3.11, one core) a pseudo-triangle
takes 0.11-0.15 s and a convex polygon 0.26 s.

Contract, given the CCW vertex list of a simple polygon:

* boundary-adjacent vertices are visible;
* otherwise i sees j iff the segment (i, j) leaves both i and j strictly
  inside their interior angles, no other vertex lies on the open segment, and
  no boundary edge crosses it properly.

The open segment then starts into the interior and touches no boundary point,
so it lies in the interior.  A segment grazing a vertex strictly between its
endpoints counts as blocked.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

Coords = Sequence[tuple[int, int]]


def _orient(ax: int, ay: int, bx: int, by: int, cx: int, cy: int) -> int:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _leaves_inward(coords: Coords, i: int, qx: int, qy: int) -> bool:
    """The segment from vertex i towards q starts strictly inside i's interior
    angle (CCW polygon: the interior lies left of each boundary edge)."""
    n = len(coords)
    ax, ay = coords[i - 1]
    px, py = coords[i]
    bx, by = coords[(i + 1) % n]
    left_of_next = _orient(px, py, bx, by, qx, qy) > 0
    right_of_prev = _orient(px, py, qx, qy, ax, ay) > 0
    if _orient(ax, ay, px, py, bx, by) >= 0:  # convex (or straight) vertex
        return left_of_next and right_of_prev
    return left_of_next or right_of_prev


def segment_visible(coords: Coords, i: int, j: int) -> bool:
    """Exact visibility predicate between polygon vertices i and j."""
    n = len(coords)
    if i == j:
        return False
    if (i + 1) % n == j or (j + 1) % n == i:
        return True
    px, py = coords[i]
    qx, qy = coords[j]
    if not (_leaves_inward(coords, i, qx, qy) and _leaves_inward(coords, j, px, py)):
        return False
    # side(x, y) = orient(p, q, (x, y)): 0 on the line pq, > 0 to its left.
    dx, dy = qx - px, qy - py
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
            # Edge ab straddles the line (so it is not incident to i or j);
            # it crosses pq properly iff p and q are strictly on opposite
            # sides of ab.
            d1 = _orient(ax, ay, bx, by, px, py)
            d2 = _orient(ax, ay, bx, by, qx, qy)
            if (d1 < 0 < d2) or (d2 < 0 < d1):
                return False
        ax, ay, sa = bx, by, sb
    return True


def visibility_edges(coords: Coords) -> list[tuple[int, int]]:
    """All visible vertex pairs (i < j), sorted."""
    n = len(coords)
    out: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if segment_visible(coords, i, j):
                out.append((i, j))
    return out


def has_collinear_triple(coords: Coords) -> bool:
    """True iff any three distinct vertices are collinear (a repeated point
    counts as collinear with any third).

    Each collinear triple is found from its first vertex: the directions from
    there to the two later vertices reduce to the same primitive vector.
    """
    n = len(coords)
    if n < 3:
        return False
    for i in range(n - 2):
        ax, ay = coords[i]
        seen: set[tuple[int, int]] = set()
        for j in range(i + 1, n):
            dx = coords[j][0] - ax
            dy = coords[j][1] - ay
            if dx == 0 and dy == 0:
                return True
            g = gcd(dx, dy)
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            d = (dx // g, dy // g)
            if d in seen:
                return True
            seen.add(d)
    return False
