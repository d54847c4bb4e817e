"""Exact-arithmetic kernels for polygon visibility.

The one visibility kernel of polyvis, in pure Python.  All predicates are
exact over integer coordinates of any size (Python integers do not overflow).
``visibility_edges`` tests every vertex pair against every boundary edge,
O(n^3) in total: about 4 s for a graph at n=160 on one core (Python 3.11).

Contract, given the CCW vertex list of a simple polygon:

* boundary-adjacent vertices are visible;
* otherwise i sees j iff no other vertex lies on the open segment (i, j),
  no boundary edge disjoint from {i, j} crosses it, and its midpoint is
  strictly interior (tested exactly on the doubled polygon).

A segment grazing a vertex strictly between its endpoints counts as blocked.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

Coords = Sequence[tuple[int, int]]


def _orient(ax: int, ay: int, bx: int, by: int, cx: int, cy: int) -> int:
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
    return ((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0 and (
        (d3 > 0) != (d4 > 0)
    ) and d3 != 0 and d4 != 0


def _point_inside_doubled(coords: Coords, qx: int, qy: int) -> bool:
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
            if ky > jy:
                if t > 0:
                    inside = not inside
            else:
                if t < 0:
                    inside = not inside
        jx, jy = kx, ky
    return inside


def segment_visible(coords: Coords, i: int, j: int) -> bool:
    """Exact visibility predicate between polygon vertices i and j."""
    n = len(coords)
    if i == j:
        return False
    if (i + 1) % n == j or (j + 1) % n == i:
        return True
    px, py = coords[i]
    qx, qy = coords[j]
    for k in range(n):
        if k == i or k == j:
            continue
        rx, ry = coords[k]
        if _on_open_segment(px, py, qx, qy, rx, ry):
            return False
    for a in range(n):
        b = (a + 1) % n
        if a == i or a == j or b == i or b == j:
            continue
        ax, ay = coords[a]
        bx, by = coords[b]
        if _proper_cross(px, py, qx, qy, ax, ay, bx, by):
            return False
    return _point_inside_doubled(coords, px + qx, py + qy)


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
