"""The exact visibility kernel, checked against its own pairwise predicate,
the three-scan visibility oracle and the triple-loop collinearity oracle, on
polygons that need not be in general position."""

import math
import threading
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyvis import Polygon, PolygonError, gen_pseudo_triangle, gen_tower, kernels

from conftest import PT6_EDGES, PT6_POINTS, T5_EDGES, T5_POINTS
from oracles import collinear_triple_scan, random_convex_polygon, segment_visible_scan

# A rectangle with a notch from the top whose tip, vertex 4, lies on the
# diagonal 0-2 (not at its midpoint): the diagonal grazes the tip.
GRAZED = ((0, 0), (12, 0), (12, 6), (5, 6), (4, 2), (3, 6), (0, 6))

# An arrowhead with its notch at vertex 1: the chord 0-2 runs below the notch,
# outside the polygon, and every edge shares an endpoint with it.
ARROWHEAD = ((0, 0), (4, 2), (8, 0), (4, 6))


def _spiral(turns: float, steps: int, scale: int):
    """A corridor between two rounded Archimedean spirals, ``steps`` vertices
    a turn, winding ``turns`` times around vertex (0, 0), where its inner wall
    starts.  Coarse enough that many vertices are collinear with others."""
    outer, inner = [], []
    for k in range(int(turns * steps) + 1):
        t = 2 * math.pi * k / steps
        r = scale * k / steps
        outer.append((round((r + 0.35 * scale) * math.cos(t)), round((r + 0.35 * scale) * math.sin(t))))
        inner.append((round(r * math.cos(t)), round(r * math.sin(t))))
    return tuple(outer + inner[::-1])


def _orient(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


@st.composite
def grid_polygons(draw) -> Polygon:
    """Simple polygons on a small grid, so that non-consecutive vertices are
    often collinear: distinct points sorted by angle around their centroid,
    with the middle vertex of each consecutive collinear triple dropped.
    """
    pts = draw(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            min_size=8, max_size=24, unique=True,
        )
    )
    cx = sum(x for x, _ in pts) / len(pts)
    cy = sum(y for _, y in pts) / len(pts)
    pts.sort(key=lambda p: (math.atan2(p[1] - cy, p[0] - cx), (p[0] - cx) ** 2 + (p[1] - cy) ** 2))
    i = 0
    while len(pts) >= 3 and i < len(pts):
        if _orient(pts[i - 1], pts[i], pts[(i + 1) % len(pts)]) == 0:
            del pts[i]
            i = 0
        else:
            i += 1
    try:
        return Polygon(tuple(pts))
    except PolygonError:
        assume(False)


def _sample_polygons() -> list[tuple[tuple[int, int], ...]]:
    polys = [T5_POINTS, PT6_POINTS, GRAZED]
    for n, seed in [(6, 0), (9, 3), (12, 5), (20, 1)]:
        polys.append(gen_tower(n, seed).coords())
        polys.append(gen_pseudo_triangle(n, seed).coords())
    return polys


def _pairwise(coords, visible=kernels.segment_visible) -> list[tuple[int, int]]:
    n = len(coords)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if visible(coords, i, j)]


def _scaled(coords):
    """The same polygon with coordinates near 2^48, far past 64-bit products."""
    big = 1 << 45
    return [(x * big + 3, y * big - 7) for x, y in coords]


def test_segment_visible_t5_chord():
    assert kernels.segment_visible(T5_POINTS, 1, 4)  # chord between the reflex vertices


def test_segment_visible_t5_blocked():
    assert not kernels.segment_visible(T5_POINTS, 0, 2)  # exits above reflex vertex 1


def test_segment_visible_t5_adjacent():
    for i in range(5):  # boundary neighbours, both ways round
        assert kernels.segment_visible(T5_POINTS, i, (i + 1) % 5)
        assert kernels.segment_visible(T5_POINTS, (i + 1) % 5, i)


def test_visibility_edges_matches_segment_visible():
    for coords in _sample_polygons():
        edges = kernels.visibility_edges(coords)
        assert edges == _pairwise(coords)
        assert edges == _pairwise(coords, segment_visible_scan)
    assert set(kernels.visibility_edges(T5_POINTS)) == T5_EDGES
    assert set(kernels.visibility_edges(PT6_POINTS)) == PT6_EDGES


@settings(max_examples=150, deadline=None, derandomize=True)
@given(grid_polygons())
def test_visibility_edges_matches_segment_visible_on_grid(poly):
    coords = poly.coords()
    edges = kernels.visibility_edges(coords)
    assert edges == _pairwise(coords)
    assert edges == _pairwise(coords, segment_visible_scan)
    assert kernels.visibility_edges(_scaled(coords)) == edges
    assert all(kernels.segment_visible(coords, j, i) for i, j in edges)
    n = len(coords)
    assert all(tuple(sorted((i, (i + 1) % n))) in edges for i in range(n))


def _rotations_relabel(coords) -> None:
    """Starting the vertex list at k relabels the graph by i -> (i - k) mod n.

    The walk from p skips what holds no vertex later than p, so its output
    depends on the numbering; the wrap from n - 1 to 0 moves with k.
    """
    n = len(coords)
    edges = kernels.visibility_edges(coords)
    for k in range(1, n):
        rotated = tuple(coords[k:]) + tuple(coords[:k])
        relabelled = sorted(
            tuple(sorted(((i - k) % n, (j - k) % n))) for i, j in edges
        )
        assert kernels.visibility_edges(rotated) == relabelled, k


def test_visibility_edges_rotations_relabel():
    for coords in [*_sample_polygons(), ARROWHEAD, _spiral(2, 8, 8)]:
        _rotations_relabel(coords)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid_polygons())
def test_visibility_edges_rotations_relabel_on_grid(poly):
    _rotations_relabel(poly.coords())


def test_visibility_edges_matches_segment_visible_large_n():
    polys = [gen(n, seed) for gen in (gen_tower, gen_pseudo_triangle)
             for n in (80, 160) for seed in (0, 1)]
    polys.append(gen_pseudo_triangle(40, 0, degenerate=True))
    for poly in polys:
        coords = poly.coords()
        assert kernels.visibility_edges(coords) == _pairwise(coords)


def test_grazing_segment_blocked():
    Polygon(GRAZED)  # a valid simple polygon
    assert (0, 2) not in kernels.visibility_edges(GRAZED)
    # One unit higher, the tip clears the diagonal.
    lifted = GRAZED[:4] + ((4, 3),) + GRAZED[5:]
    assert (0, 2) in kernels.visibility_edges(lifted)
    for coords in (GRAZED, lifted, _scaled(GRAZED), _scaled(lifted)):
        assert kernels.visibility_edges(coords) == _pairwise(coords, segment_visible_scan)


def test_exterior_chord_blocked():
    # No vertex lies on the chord and no edge disjoint from it crosses it, so
    # only the angle test at its ends can reject it.
    Polygon(ARROWHEAD)
    assert not kernels.segment_visible(ARROWHEAD, 0, 2)
    assert not segment_visible_scan(ARROWHEAD, 0, 2)
    assert kernels.visibility_edges(ARROWHEAD) == [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_visibility_edges_huge_coordinates():
    big = 1 << 31
    square = [(0, 0), (big, 0), (big, big), (0, big)]
    assert len(kernels.visibility_edges(square)) == 6  # convex square: complete
    for coords in (T5_POINTS, PT6_POINTS, GRAZED):
        scaled = [(x * big + big, y * big - big) for x, y in coords]
        assert kernels.visibility_edges(scaled) == kernels.visibility_edges(coords)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=9),
    st.lists(st.integers(0, 8), max_size=3),
)
def test_has_collinear_triple_matches_scan(pts, repeats):
    # Repeats copy earlier points; the small grid makes collinear runs common.
    for r in repeats:
        if pts:
            pts.append(pts[r % len(pts)])
    assert kernels.has_collinear_triple(pts) == collinear_triple_scan(pts)


def test_has_collinear_triple_cases():
    assert kernels.has_collinear_triple([(0, 0), (2, 2), (4, 4), (1, 5)])
    assert kernels.has_collinear_triple([(5, 0), (0, 0), (1, 7), (-5, 0)])
    assert kernels.has_collinear_triple([(1, 1), (3, 2), (1, 1)])
    assert not kernels.has_collinear_triple([(1, 1), (1, 1)])
    assert not kernels.has_collinear_triple([(0, 0), (1, 0), (0, 1)])
    for coords in _sample_polygons():
        assert kernels.has_collinear_triple(coords) == collinear_triple_scan(coords)


def test_has_collinear_triple_planted_at_every_position():
    # Points on a parabola are in general position.  Moving one point of a
    # triple onto the line through the other two plants a collinear triple
    # at that index triple, whichever row order the kernel scans in.  The
    # affine maps keep collinearity exactly: the first leaves small floats,
    # the second gives coordinates and slopes near 2^60, which all round to
    # one float (every row goes to the exact scan), and the third slopes
    # past the float range (the overflow fallback).
    big, huge = 2**60, 2**1100
    maps = (
        lambda x, y: (x, y),
        lambda x, y: (x + big, x * big + y + big),
        lambda x, y: (x, y * huge + x),
    )
    for n in range(3, 10):
        base = [(t, t * t) for t in range(1, n + 1)]
        for f in maps:
            assert not kernels.has_collinear_triple([f(x, y) for x, y in base])
        for triple in combinations(range(n), 3):
            for moved in triple:
                a, b = (base[i] for i in triple if i != moved)
                pts = list(base)
                pts[moved] = (2 * a[0] - b[0], 2 * a[1] - b[1])
                for f in maps:
                    planted = [f(x, y) for x, y in pts]
                    assert kernels.has_collinear_triple(planted), (n, triple, moved)


def test_has_collinear_triple_float_slopes_collide():
    # Distinct slopes 1/2^60 and 1/(2^60 + 1) round to one float, so the row
    # of (0, 0) goes to the exact scan, which finds no collinear pair.
    assert 1 / 2**60 == 1 / (2**60 + 1)
    pts = [(0, 0), (2**60, 1), (2**60 + 1, 1)]
    assert not kernels.has_collinear_triple(pts)
    assert not collinear_triple_scan(pts)


def test_has_collinear_triple_horizontal_both_ways():
    # From (0, 0) the horizontal slope is 0.0 to the right and -0.0 to the
    # left; the two compare equal, so the row is checked exactly.
    for pts, expected in (
        ([(0, 0), (5, 0), (1, 7), (-3, 0)], True),
        ([(0, 0), (5, 0), (1, 7), (-3, 1)], False),
    ):
        assert kernels.has_collinear_triple(pts) == collinear_triple_scan(pts) == expected


def test_has_collinear_triple_vertical():
    # Vertical directions have no float slope; they share the key None.
    for pts, expected in (
        ([(0, 0), (0, 3), (2, 1), (0, -5)], True),
        ([(0, 0), (0, 3), (2, 1), (1, -5)], False),
    ):
        assert kernels.has_collinear_triple(pts) == collinear_triple_scan(pts) == expected


def test_has_collinear_triple_slope_overflow():
    # A slope near 2^1100 overflows a float: the row falls back to the exact
    # scan.
    big = 2**1100
    for pts, expected in (
        ([(0, 0), (1, big), (2, 2 * big), (5, 3)], True),
        ([(0, 0), (1, big), (2, 2 * big + 1), (5, 3)], False),
        ([(3, big), (0, 0), (1, -big), (4, 7)], False),
    ):
        assert kernels.has_collinear_triple(pts) == collinear_triple_scan(pts) == expected


def test_visibility_edges_dense_convex():
    for seed in range(3):
        coords = random_convex_polygon(30, seed).coords()
        edges = kernels.visibility_edges(coords)
        assert edges == _pairwise(coords, segment_visible_scan)
        assert len(edges) == 30 * 29 // 2  # a convex polygon sees everything


def test_visibility_edges_dense_convex_n60():
    for seed in range(2):
        coords = random_convex_polygon(60, seed).coords()
        edges = kernels.visibility_edges(coords)
        assert len(edges) == 60 * 59 // 2
        assert edges == _pairwise(coords) == _pairwise(coords, segment_visible_scan)


def test_visibility_edges_spirals():
    # Sightlines down a spiral corridor cross many triangles, each narrowing
    # the window.  Each of these spirals has sightlines that end exactly on a
    # window ray, on either side (grazed), and a diagonal that would run
    # through a vertex were ears tested on open triangles.
    spirals = [_spiral(2, 8, 8), _spiral(3.5, 8, 8), _spiral(3, 12, 16)]
    for coords in spirals:
        Polygon(coords)  # a valid simple CCW polygon
        edges = kernels.visibility_edges(coords)
        assert edges == _pairwise(coords) == _pairwise(coords, segment_visible_scan)
        assert kernels.visibility_edges(_scaled(coords)) == edges


def _raises_value_error_promptly(coords) -> bool:
    """visibility_edges(coords) raises ValueError, within a few seconds."""
    raised = []

    def run():
        try:
            kernels.visibility_edges(coords)
        except ValueError:
            raised.append(True)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(10)
    assert not worker.is_alive(), "visibility_edges did not return"
    return bool(raised)


def test_visibility_edges_rejects_non_polygons():
    clockwise = [GRAZED[::-1], T5_POINTS[::-1], random_convex_polygon(30, 0).coords()[::-1]]
    bowtie = ((0, 0), (4, 4), (4, 0), (0, 4))
    pentagram = ((0, 10), (-6, -8), (10, 3), (-10, 3), (6, -8))
    for coords in [*clockwise, bowtie, pentagram]:
        with pytest.raises(PolygonError):
            Polygon(coords)
        assert _raises_value_error_promptly(coords)
