"""Ground-truth geometry: exact polygons, visibility graphs and generators.

Everything here works on an integer grid with exact arithmetic, so the
visible/blocked predicate is two-valued.  Visibility comes from ``kernels``,
the one exact visibility kernel (pure Python, about O(m*n) per graph with m
edges, O(n^3) for a convex polygon).  Generators enforce general position (no
three vertices collinear anywhere) by resampling, and are deterministic per
(n, seed).  They build no graph beyond the one they return: a pseudo-triangle
attempt tests its side visibility, and a pseudo-tower attempt the degrees of
its cut's two flanks, on those vertex pairs alone, so a pseudo-tower costs one
kernel pass and a pseudo-triangle none.  Polygon validation runs the exact
edge-touch test only on edge pairs whose bounding boxes meet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from . import kernels
from .graph import CycleCandidate, Graph, canonicalize, induced_subgraph
from .pseudotower import extract_tail


class Point(NamedTuple):
    x: int
    y: int


class PolygonError(ValueError):
    """The point sequence does not describe a valid simple CCW polygon."""


class PolygonParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _orient(a: Point, b: Point, c: Point) -> int:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _on_closed_segment(a: Point, b: Point, r: Point) -> bool:
    return (
        _orient(a, b, r) == 0
        and min(a.x, b.x) <= r.x <= max(a.x, b.x)
        and min(a.y, b.y) <= r.y <= max(a.y, b.y)
    )


def _segments_touch(p: Point, q: Point, a: Point, b: Point) -> bool:
    """Closed intersection test: any shared point counts."""
    d1 = _orient(a, b, p)
    d2 = _orient(a, b, q)
    d3 = _orient(p, q, a)
    d4 = _orient(p, q, b)
    if ((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0 and (
        (d3 > 0) != (d4 > 0)
    ) and d3 != 0 and d4 != 0:
        return True
    if d1 == 0 and _on_closed_segment(a, b, p):
        return True
    if d2 == 0 and _on_closed_segment(a, b, q):
        return True
    if d3 == 0 and _on_closed_segment(p, q, a):
        return True
    if d4 == 0 and _on_closed_segment(p, q, b):
        return True
    return False


@dataclass(frozen=True)
class Polygon:
    """Simple polygon, counterclockwise, integer coordinates.

    Construction validates: n >= 3, distinct vertices, positive signed area,
    no three consecutive collinear vertices, and no boundary self-intersection.
    """

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        pts = tuple(Point(int(p[0]), int(p[1])) for p in self.points)
        object.__setattr__(self, "points", pts)
        n = len(pts)
        if n < 3:
            raise PolygonError("a polygon needs at least 3 vertices")
        if len(set(pts)) != n:
            raise PolygonError("duplicate vertices")
        area2 = sum(
            pts[i].x * pts[(i + 1) % n].y - pts[(i + 1) % n].x * pts[i].y
            for i in range(n)
        )
        if area2 <= 0:
            raise PolygonError("vertices must be in counterclockwise order")
        for i in range(n):
            if _orient(pts[i - 1], pts[i], pts[(i + 1) % n]) == 0:
                raise PolygonError(f"three consecutive collinear vertices at {i}")
        # Edges whose axis-aligned boxes are apart cannot touch, so only the
        # pairs with overlapping boxes get the exact test.
        ends = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
        lo_x = [min(a.x, b.x) for a, b in ends]
        hi_x = [max(a.x, b.x) for a, b in ends]
        lo_y = [min(a.y, b.y) for a, b in ends]
        hi_y = [max(a.y, b.y) for a, b in ends]
        for i in range(n):
            a, b = ends[i]
            lx, hx, ly, hy = lo_x[i], hi_x[i], lo_y[i], hi_y[i]
            # Skip the next edge, and edge n-1 for edge 0: they share a vertex,
            # and consecutive collinearity is already excluded.
            for j in range(i + 2, n if i else n - 1):
                if lo_x[j] > hx or hi_x[j] < lx or lo_y[j] > hy or hi_y[j] < ly:
                    continue
                if _segments_touch(a, b, *ends[j]):
                    raise PolygonError(f"boundary edges {i} and {j} intersect")

    @property
    def n(self) -> int:
        return len(self.points)

    def coords(self) -> tuple[tuple[int, int], ...]:
        return tuple((p.x, p.y) for p in self.points)


def visibility_graph(poly: Polygon) -> Graph:
    """Exact visibility graph; always contains the boundary cycle."""
    return Graph(poly.n, frozenset(kernels.visibility_edges(poly.coords())))


def boundary_cycle(poly: Polygon) -> CycleCandidate:
    return canonicalize(range(poly.n))


def convex_vertex_indices(poly: Polygon) -> tuple[int, ...]:
    """Indices of strictly convex vertices (left turns on the CCW boundary)."""
    pts = poly.points
    n = poly.n
    return tuple(
        i for i in range(n) if _orient(pts[i - 1], pts[i], pts[(i + 1) % n]) > 0
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

_MAX_ATTEMPTS = 400


def _nondecreasing_parts(rng: random.Random, count: int, total: int) -> list[int]:
    if count == 0:
        return []
    cuts = sorted(rng.randint(0, total) for _ in range(count - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(total - prev)
    parts.sort()
    return parts


def _increasing_ints(rng: random.Random, count: int, total: int, start: int) -> list[int]:
    """Strictly increasing integers d_1 < ... < d_count, d_1 >= start, sum = total."""
    minimal = count * start + count * (count - 1) // 2
    if total < minimal:
        raise ValueError("total too small for a strictly increasing sequence")
    bumps = _nondecreasing_parts(rng, count, total - minimal)
    return [start + i + bumps[i] for i in range(count)]


def _prefix(values: Iterable[int]) -> list[int]:
    out = [0]
    for v in values:
        out.append(out[-1] + v)
    return out


def _funnel_points(rng: random.Random, m_left: int, m_right: int, k_bottom: int) -> list[Point]:
    """One sampled tower / pseudo-triangle shape.

    Two strictly convex side staircases from the base corners up to a shared
    apex, plus an optional strictly concave bottom dent of ``k_bottom``
    vertices.  The base is stretched horizontally when the dent needs more
    integer columns than the sides span; slope bookkeeping keeps the dent
    strictly below both sides.
    """
    width = m_left + m_right

    bottom_cols: list[int] = []
    bottom_heights: list[int] = []
    dent_cap = 0
    stretch = 1
    if k_bottom > 0:
        stretch = max(1, -(-(k_bottom + 1) // width))
        span = stretch * width
        up = rng.randint(1, span - 1)
        down = span - up
        base_area = max(up * (up + 1) // 2, down * (down + 1) // 2)
        area = base_area + rng.randint(0, base_area)
        rises = _increasing_ints(rng, up, area, 1)[::-1]
        falls = _increasing_ints(rng, down, area, 1)
        increments = rises + [-f for f in falls]
        profile = _prefix(increments)
        dent_cap = max(rises[0], falls[-1])
        bottom_cols = sorted(rng.sample(range(1, span), k_bottom))
        bottom_heights = [profile[c] for c in bottom_cols]

    span = stretch * width
    slope_start = stretch * dent_cap + 1  # side slope per column beats the dent's
    min_left = m_left * slope_start + m_left * (m_left - 1) // 2
    min_right = m_right * slope_start + m_right * (m_right - 1) // 2
    height = max(min_left, min_right) + rng.randint(0, 2 * width + 4)
    dy_left = _increasing_ints(rng, m_left, height, slope_start)
    dy_right = _increasing_ints(rng, m_right, height, slope_start)
    y_left = _prefix(dy_left)
    y_right = _prefix(dy_right)

    pts: list[Point] = [Point(stretch * m_left, height)]  # apex
    for t in range(m_left - 1, 0, -1):  # left side, walking down
        pts.append(Point(stretch * t, y_left[t]))
    pts.append(Point(0, 0))  # left base corner
    for c, h in zip(bottom_cols, bottom_heights):
        pts.append(Point(c, h))
    pts.append(Point(span, 0))  # right base corner
    for t in range(1, m_right):  # right side, walking up
        pts.append(Point(span - stretch * t, y_right[t]))

    return [Point(p.x - stretch * m_left, p.y) for p in pts]


def gen_tower(n: int, seed: int) -> Polygon:
    """Random tower polygon: apex, two strictly concave side chains, flat base.

    Deterministic per (n, seed); resamples until general position holds.
    """
    if n < 4:
        raise ValueError("towers need at least 4 vertices")
    rng = random.Random(f"tower:{n}:{seed}")
    for _ in range(_MAX_ATTEMPTS):
        m_left = rng.randint(1, n - 2)
        m_right = n - 1 - m_left
        pts = _funnel_points(rng, m_left, m_right, 0)
        if kernels.has_collinear_triple(pts):
            continue
        return Polygon(tuple(pts))
    raise RuntimeError(f"tower generation failed for n={n}, seed={seed}")


def _sees_both_sides(poly: Polygon, chains: dict[str, tuple[int, ...]]) -> list[int]:
    """The bottom vertices that see some vertex of each side chain (a side
    chain without its base corner), tested pair by pair without a graph.
    """
    coords = poly.coords()
    left_targets = chains["left"][:-1]
    right_targets = chains["right"][:-1]
    return [
        w
        for w in chains["bottom"]
        if any(kernels.segment_visible(coords, w, t) for t in left_targets)
        and any(kernels.segment_visible(coords, w, t) for t in right_targets)
    ]


def _degenerate_points(rng: random.Random, n: int) -> list[Point] | None:
    """A pinched shape: shallow-start side chains hide the corners' long
    sightlines behind their own steepening walls, and one tall central dent
    under the apex blocks the low sightlines, leaving the dent top as the only
    bottom vertex that can look up both sides.
    """
    m_left = (n - 2) // 2 + rng.randint(0, 1)
    m_left = max(2, min(n - 4, m_left))
    m_right = n - 2 - m_left
    span = m_left + m_right
    start_left = rng.randint(1, 3)
    start_right = rng.randint(1, 3)
    height = m_left * start_left + m_left * (m_left - 1) // 2
    height = max(height, m_right * start_right + m_right * (m_right - 1) // 2)
    height += rng.randint(0, 3 * n)
    dy_left = _increasing_ints(rng, m_left, height, start_left)
    dy_right = _increasing_ints(rng, m_right, height, start_right)
    # Place the dent where both corner-convexity slope caps balance, so its
    # faces block each corner's view as tightly as the caps allow.
    x_d = round(span * dy_right[0] / (dy_left[0] + dy_right[0])) + rng.randint(-1, 1)
    x_d = max(1, min(span - 1, x_d))
    cap = min(dy_left[0] * x_d, dy_right[0] * (span - x_d)) - 1
    if cap < 1:
        return None
    h_d = max(1, cap - rng.randint(0, 1))

    y_left = _prefix(dy_left)
    y_right = _prefix(dy_right)
    pts: list[Point] = [Point(m_left, height)]
    for t in range(m_left - 1, 0, -1):
        pts.append(Point(t, y_left[t]))
    pts.append(Point(0, 0))
    pts.append(Point(x_d, h_d))
    pts.append(Point(span, 0))
    for t in range(1, m_right):
        pts.append(Point(span - t, y_right[t]))
    return [Point(p.x - m_left, p.y) for p in pts]


def gen_pseudo_triangle(n: int, seed: int, degenerate: bool = False) -> Polygon:
    """Random pseudo-triangle: exactly three convex vertices (the joints), all
    other vertices reflex.

    With ``degenerate`` set, exactly one bottom-chain vertex sees both side
    chains (so no two adjacent bottom vertices both do).  Deterministic per
    (n, seed, degenerate).
    """
    if n < 3:
        raise ValueError("pseudo-triangles need at least 3 vertices")
    if degenerate and n < 6:
        # With fewer vertices some base corner is adjacent to the apex, so a
        # second bottom vertex always sees both side chains.
        raise ValueError("degenerate pseudo-triangles need at least 6 vertices")
    rng = random.Random(f"pseudo-triangle:{n}:{seed}:{degenerate}")
    for _ in range(_MAX_ATTEMPTS):
        if degenerate:
            pts = _degenerate_points(rng, n)
            if pts is None:
                continue
        else:
            k_bottom = rng.randint(0, n - 3)
            m_left = rng.randint(1, n - 2 - k_bottom)
            m_right = n - 1 - k_bottom - m_left
            pts = _funnel_points(rng, m_left, m_right, k_bottom)
        if kernels.has_collinear_triple(pts):
            continue
        try:
            poly = Polygon(tuple(pts))
            chains = pseudo_triangle_chains(poly)  # raises unless 3 convex vertices
        except PolygonError:
            continue
        both = _sees_both_sides(poly, chains)
        if degenerate:
            if len(both) == 1:
                return poly
        elif any(v + 1 in both for v in both):  # two adjacent bottom vertices
            return poly
    raise RuntimeError(
        f"pseudo-triangle generation failed for n={n}, seed={seed}, degenerate={degenerate}"
    )


def pseudo_triangle_chains(poly: Polygon) -> dict[str, tuple[int, ...]]:
    """Recover the three chains of a generated pseudo-triangle from its convex
    vertices (the joints); each chain runs between two joints, and index 0 is
    the apex.
    """
    joints = convex_vertex_indices(poly)
    if len(joints) != 3:
        raise PolygonError(f"expected 3 convex vertices, found {len(joints)}")
    a, b, c = sorted(joints)
    n = poly.n
    return {
        "left": tuple(range(a, b + 1)),
        "bottom": tuple(range(b, c + 1)),
        "right": tuple(range(a, -1, -1)) + tuple(range(n - 1, c - 1, -1)),
    }


@dataclass(frozen=True)
class PseudoTowerInstance:
    """A pseudo-tower sample: a parent tower polygon plus the bottom vertices
    removed from one chain.

    The pseudo-tower's graph is the parent's visibility graph induced on the
    kept vertices (relabeled 0..n-1 in boundary order); a closed polygon's own
    visibility graph can never contain the required degree-1 tail end, which is
    why the instance carries the parent polygon rather than a truncated one.
    """

    parent: Polygon
    kept: tuple[int, ...]
    graph: Graph
    chains: tuple[tuple[int, ...], ...]  # ground-truth chain pair, relabeled
    tail: tuple[int, ...]  # relabeled, outermost vertex first


def _kept_degree_upto_2(coords: kernels.Coords, v: int, kept: tuple[int, ...]) -> int:
    """How many kept vertices v sees, counting no further than 2."""
    seen = 0
    for w in kept:
        if w != v and kernels.segment_visible(coords, v, w):
            seen += 1
            if seen == 2:
                break
    return seen


def gen_pseudo_tower(n: int, seed: int) -> PseudoTowerInstance:
    """Random pseudo-tower with a nonempty tail; its graph has exactly one
    degree-1 vertex.  Deterministic per (n, seed).
    """
    if n < 5:
        raise ValueError("pseudo-towers need at least 5 vertices")
    rng = random.Random(f"pseudo-tower:{n}:{seed}")
    for _ in range(_MAX_ATTEMPTS):
        removed = rng.randint(1, min(3, n - 3))
        parent_n = n + removed
        cut_left = rng.random() < 0.5
        m_left = rng.randint(removed + 1, parent_n - 2 - removed)
        m_right = parent_n - 1 - m_left
        if not cut_left:
            m_left, m_right = m_right, m_left
        pts = _funnel_points(rng, m_left, m_right, 0)
        if kernels.has_collinear_triple(pts):
            continue
        parent = Polygon(tuple(pts))
        left_corner, right_corner = m_left, m_left + 1  # no bottom vertices
        if cut_left:
            cut = range(left_corner - removed + 1, left_corner + 1)
        else:
            cut = range(right_corner, right_corner + removed)
        kept = tuple(v for v in range(parent_n) if v not in cut)
        # The cut is a run without the apex, so every kept vertex but its two
        # flanks keeps both boundary neighbours: only a flank can have degree 1.
        flanks = (cut.start - 1, cut.stop)
        coords = parent.coords()
        if [_kept_degree_upto_2(coords, f, kept) for f in flanks].count(1) != 1:
            continue
        relabel = {old: new for new, old in enumerate(kept)}

        sub, _ = induced_subgraph(visibility_graph(parent), kept)
        try:
            tail, residual = extract_tail(sub)
        except ValueError:
            continue
        if not tail or len(residual) < 3:
            continue

        left_old = list(range(0, left_corner + 1))
        right_old = [0] + list(range(parent_n - 1, right_corner - 1, -1))
        chain_a = tuple(relabel[v] for v in left_old if v in relabel)
        chain_b = tuple(relabel[v] for v in right_old if v in relabel)
        return PseudoTowerInstance(parent, kept, sub, (chain_a, chain_b), tail)
    raise RuntimeError(f"pseudo-tower generation failed for n={n}, seed={seed}")


# ---------------------------------------------------------------------------
# polygon files and rendering
# ---------------------------------------------------------------------------


def parse_polygon(text: str) -> Polygon:
    """Parse a polygon file: first line ``n``, then n lines ``x y``, CCW."""
    data: list[tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data.append((line_no, stripped))
    if not data:
        raise PolygonParseError(1, "missing vertex count")
    head_no, head = data[0]
    try:
        n = int(head)
    except ValueError:
        raise PolygonParseError(head_no, f"expected vertex count, got {head!r}") from None
    body = data[1:]
    if len(body) != n:
        where = body[-1][0] if body else head_no
        raise PolygonParseError(where, f"expected {n} vertex lines, found {len(body)}")
    pts = []
    for line_no, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise PolygonParseError(line_no, f"expected 'x y', got {line!r}")
        try:
            pts.append(Point(int(parts[0]), int(parts[1])))
        except ValueError:
            raise PolygonParseError(line_no, f"expected integers, got {line!r}") from None
    try:
        return Polygon(tuple(pts))
    except PolygonError as exc:
        raise PolygonParseError(head_no, str(exc)) from exc


def write_polygon(poly: Polygon) -> str:
    lines = [str(poly.n)]
    lines.extend(f"{p.x} {p.y}" for p in poly.points)
    return "\n".join(lines) + "\n"


def render_svg(poly: Polygon, g: Graph | None = None) -> str:
    """Deterministic SVG: the boundary as one closed path, plus one line per
    graph edge when a graph overlay is given.  ViewBox fits the bounding box
    with a 5% margin.
    """
    pts = poly.points
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    margin = max(1, ((maxx - minx) * 5 + 99) // 100, ((maxy - miny) * 5 + 99) // 100)

    def fy(y: int) -> int:  # SVG y axis points down
        return maxy + miny - y

    vb = (
        minx - margin,
        fy(maxy) - margin,
        (maxx - minx) + 2 * margin,
        (maxy - miny) + 2 * margin,
    )
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{vb[0]} {vb[1]} {vb[2]} {vb[3]}">'
    ]
    path = "M " + " L ".join(f"{p.x} {fy(p.y)}" for p in pts) + " Z"
    out.append(f'<path d="{path}" fill="none" stroke="black" stroke-width="0.3"/>')
    if g is not None:
        for u, v in sorted(g.edges):
            a, b = pts[u], pts[v]
            out.append(
                f'<line x1="{a.x}" y1="{fy(a.y)}" x2="{b.x}" y2="{fy(b.y)}" '
                'stroke="gray" stroke-width="0.15"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
