"""Ground-truth geometry: exact polygons, visibility graphs and generators.

Everything here works on an integer grid with exact arithmetic, so the
visible/blocked predicate is two-valued.  Visibility comes from ``kernels``,
the one exact visibility kernel (pure Python: one ear-clipping triangulation
and a window walk from each vertex, O(n^2) per graph in the worst case).
Generators enforce general position (no three vertices collinear anywhere)
by resampling, and are deterministic per (n, seed).  They build no graph
beyond the one they return: a pseudo-triangle attempt tests its side
visibility, and a pseudo-tower attempt the degrees of its cut's two flanks,
on those vertex pairs alone with ``kernels.segment_visible``, so a
pseudo-tower costs one kernel pass and a pseudo-triangle none.  An attempt
is a list of plain ``(x, y)`` int tuples until it has passed every test that
can reject it before a graph: ``kernels.has_collinear_triple``, then for a
pseudo-triangle its three convex vertices and its side visibility, for a
pseudo-tower its flank degrees.  Only then does ``Polygon`` validate it and
build its ``Point``s, so a rejected attempt costs its random draws and those
tests.  The bulk of the draws, the cut points of ``_nondecreasing_parts``,
come from ``_draws_below``, which replicates the bits CPython's
``Random._randbelow_with_getrandbits`` draws for ``randrange`` without its
call frames; ``tests/test_geometry.py::test_draws_below_match_random`` pins
it against ``random``.  Each generator's draw stream (its polygons, its
attempts in order and its failures) is pinned by
``tests/test_geometry.py::test_generator_outputs_pinned`` and by the
benchmark stores that ``tests/test_oracle_store.py`` regenerates.  Polygon
validation runs the exact edge-touch test only on edge pairs whose bounding
boxes meet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from operator import index, sub
from typing import Iterable, NamedTuple, Sequence

from . import kernels
from .graph import CycleCandidate, Graph, canonicalize, data_lines, induced_subgraph
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


# The predicates below take any (x, y) pairs: ``Point``s or plain int tuples.
XY = tuple[int, int]


def _orient(a: XY, b: XY, c: XY) -> int:
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_closed_segment(a: XY, b: XY, r: XY) -> bool:
    return (
        _orient(a, b, r) == 0
        and min(a[0], b[0]) <= r[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= r[1] <= max(a[1], b[1])
    )


def _segments_touch(p: XY, q: XY, a: XY, b: XY) -> bool:
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

    Construction validates: integer coordinates, n >= 3, distinct vertices,
    positive signed area, no three consecutive collinear vertices, and no
    boundary self-intersection.  It accepts any (x, y) pairs, checks them as
    plain int tuples and stores them both as ``Point``s and, for ``coords``,
    as those plain tuples.
    """

    points: tuple[Point, ...]
    _coords: tuple[XY, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = []
        for i, p in enumerate(self.points):
            try:
                pts.append((index(p[0]), index(p[1])))
            except TypeError:
                raise PolygonError(f"vertex {i} has non-integer coordinates {p!r}") from None
        object.__setattr__(self, "points", tuple(Point._make(p) for p in pts))
        object.__setattr__(self, "_coords", tuple(pts))
        n = len(pts)
        if n < 3:
            raise PolygonError("a polygon needs at least 3 vertices")
        if len(set(pts)) != n:
            raise PolygonError("duplicate vertices")
        area2 = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))
        if area2 <= 0:
            raise PolygonError("vertices must be in counterclockwise order")
        for i in range(n):
            if _orient(pts[i - 1], pts[i], pts[(i + 1) % n]) == 0:
                raise PolygonError(f"three consecutive collinear vertices at {i}")
        # Edges whose axis-aligned boxes are apart cannot touch, so only the
        # pairs with overlapping boxes get the exact test.
        ends = list(zip(pts, pts[1:] + pts[:1]))
        lo_x = [min(ax, bx) for (ax, _), (bx, _) in ends]
        hi_x = [max(ax, bx) for (ax, _), (bx, _) in ends]
        lo_y = [min(ay, by) for (_, ay), (_, by) in ends]
        hi_y = [max(ay, by) for (_, ay), (_, by) in ends]
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

    def coords(self) -> tuple[XY, ...]:
        return self._coords


def visibility_graph(poly: Polygon) -> Graph:
    """Exact visibility graph; always contains the boundary cycle."""
    return Graph(poly.n, frozenset(kernels.visibility_edges(poly.coords())))


def boundary_cycle(poly: Polygon) -> CycleCandidate:
    return canonicalize(range(poly.n))


def _convex_indices(pts: Sequence[XY]) -> tuple[int, ...]:
    n = len(pts)
    return tuple(
        i for i in range(n) if _orient(pts[i - 1], pts[i], pts[(i + 1) % n]) > 0
    )


def convex_vertex_indices(poly: Polygon) -> tuple[int, ...]:
    """Indices of strictly convex vertices (left turns on the CCW boundary)."""
    return _convex_indices(poly.coords())


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

_MAX_ATTEMPTS = 400


def _draws_below(rng: random.Random, stop: int, count: int) -> list[int]:
    """``count`` values of ``rng.randrange(stop)``, drawn as CPython's
    ``Random._randbelow_with_getrandbits`` draws them: ``stop.bit_length()``
    random bits until the value is below ``stop``.  Same values, same
    generator state after, without randrange's argument checks and frames.
    ``randint(a, b)`` equals ``a`` plus one such draw below ``b - a + 1``.
    """
    if stop < 1:
        raise ValueError(f"empty range below {stop}")
    bits = rng.getrandbits
    k = stop.bit_length()
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= stop:
            r = bits(k)
        out.append(r)
    return out


def _nondecreasing_parts(rng: random.Random, count: int, total: int) -> list[int]:
    if count == 0:
        return []
    cuts = sorted(_draws_below(rng, total + 1, count - 1))
    return sorted(map(sub, [*cuts, total], [0, *cuts]))


def _increasing_ints(rng: random.Random, count: int, total: int, start: int) -> list[int]:
    """Strictly increasing integers d_1 < ... < d_count, d_1 >= start, sum = total."""
    minimal = count * start + count * (count - 1) // 2
    if total < minimal:
        raise ValueError("total too small for a strictly increasing sequence")
    bumps = _nondecreasing_parts(rng, count, total - minimal)
    return [start + i + b for i, b in enumerate(bumps)]


def _prefix(values: Iterable[int]) -> list[int]:
    return list(accumulate(values, initial=0))


def _funnel_points(rng: random.Random, m_left: int, m_right: int, k_bottom: int) -> list[XY]:
    """One sampled tower / pseudo-triangle shape, apex at x = 0.

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

    slope_start = stretch * dent_cap + 1  # side slope per column beats the dent's
    min_left = m_left * slope_start + m_left * (m_left - 1) // 2
    min_right = m_right * slope_start + m_right * (m_right - 1) // 2
    height = max(min_left, min_right) + rng.randint(0, 2 * width + 4)
    dy_left = _increasing_ints(rng, m_left, height, slope_start)
    dy_right = _increasing_ints(rng, m_right, height, slope_start)
    return _outline(stretch, _prefix(dy_left), _prefix(dy_right), zip(bottom_cols, bottom_heights))


def _outline(stretch: int, y_left: list[int], y_right: list[int], dent: Iterable[XY]) -> list[XY]:
    """The funnel's points counterclockwise from its apex at x = 0: the left
    side walking down, the left base corner, the dent's (column, height)
    points, columns counted from that corner, the right base corner and the
    right side walking up.  ``y_left`` and ``y_right`` are the sides' prefix
    heights, 0 at the base up to the apex's, one per side vertex, and each
    side step spans ``stretch`` columns.  It draws no random numbers.
    """
    m_left, m_right = len(y_left) - 1, len(y_right) - 1
    span = stretch * (m_left + m_right)
    shift = stretch * m_left
    pts = [(0, y_left[-1])]  # apex
    for t in range(m_left - 1, 0, -1):
        pts.append((stretch * t - shift, y_left[t]))
    pts.append((-shift, 0))
    for c, h in dent:
        pts.append((c - shift, h))
    pts.append((span - shift, 0))
    for t in range(1, m_right):
        pts.append((span - stretch * t - shift, y_right[t]))
    return pts


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


def _sees_both_sides(coords: kernels.Coords, chains: dict[str, tuple[int, ...]]) -> list[int]:
    """The bottom vertices that see some vertex of each side chain (a side
    chain without its base corner), tested pair by pair without a graph.
    """
    left_targets = chains["left"][:-1]
    right_targets = chains["right"][:-1]
    return [
        w
        for w in chains["bottom"]
        if any(kernels.segment_visible(coords, w, t) for t in left_targets)
        and any(kernels.segment_visible(coords, w, t) for t in right_targets)
    ]


def _degenerate_points(rng: random.Random, n: int) -> list[XY] | None:
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

    return _outline(1, _prefix(dy_left), _prefix(dy_right), [(x_d, h_d)])


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
        joints = _convex_indices(pts)
        if len(joints) != 3:
            continue
        both = _sees_both_sides(pts, _chains(joints, n))
        if degenerate:
            if len(both) != 1:
                continue
        elif not any(v + 1 in both for v in both):  # two adjacent bottom vertices
            continue
        # Validation comes last: every test rejects by ``continue``, so their
        # order does not change which attempt is kept.
        try:
            return Polygon(tuple(pts))
        except PolygonError:
            continue
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
    return _chains(joints, poly.n)


def _chains(joints: tuple[int, ...], n: int) -> dict[str, tuple[int, ...]]:
    a, b, c = joints  # ascending
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
        left_corner, right_corner = m_left, m_left + 1  # no bottom vertices
        if cut_left:
            cut = range(left_corner - removed + 1, left_corner + 1)
        else:
            cut = range(right_corner, right_corner + removed)
        kept = tuple(v for v in range(parent_n) if v not in cut)
        # The cut is a run without the apex, so every kept vertex but its two
        # flanks keeps both boundary neighbours: only a flank can have degree 1.
        flanks = (cut.start - 1, cut.stop)
        if [_kept_degree_upto_2(pts, f, kept) for f in flanks].count(1) != 1:
            continue
        parent = Polygon(tuple(pts))
        relabel = {old: new for new, old in enumerate(kept)}

        sub, _ = induced_subgraph(visibility_graph(parent), kept)
        tail, residual = extract_tail(sub)  # a tail, as sub has one degree-1 vertex
        if len(residual) < 3:
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
    """Parse a polygon file: first line ``n``, then n lines ``x y``, CCW;
    ``#`` lines are comments."""
    data = data_lines(text)
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
