import hashlib
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyvis import (
    Point,
    Polygon,
    PolygonError,
    boundary_cycle,
    convex_vertex_indices,
    gen_pseudo_tower,
    gen_pseudo_triangle,
    gen_tower,
    render_svg,
    visibility_graph,
    write_polygon,
)
from polyvis import geometry, kernels
from polyvis.geometry import parse_polygon, pseudo_triangle_chains, PolygonParseError

from conftest import PT6_EDGES, T5_EDGES
from oracles import polygon_edges_touch_scan


def test_visibility_graph_t5(t5_polygon):
    assert visibility_graph(t5_polygon).edges == T5_EDGES


def test_visibility_graph_pt6(pt6_polygon):
    assert visibility_graph(pt6_polygon).edges == PT6_EDGES


def test_visibility_graph_convex_quad():
    quad = Polygon(((0, 0), (4, 1), (5, 5), (-1, 4)))
    g = visibility_graph(quad)
    assert g.m == 6  # complete graph on 4 vertices


def test_boundary_cycle():
    quad = Polygon(((0, 0), (4, 1), (5, 5), (-1, 4)))
    assert boundary_cycle(quad).order == (0, 1, 2, 3)


def test_polygon_validation_errors():
    with pytest.raises(PolygonError):
        Polygon(((0, 0), (1, 0)))  # too few
    with pytest.raises(PolygonError):
        Polygon(((0, 0), (1, 0), (2, 0), (1, 1)))  # consecutive collinear
    with pytest.raises(PolygonError):
        Polygon(((0, 0), (0, 3), (3, 0)))  # clockwise
    with pytest.raises(PolygonError):
        Polygon(((0, 0), (4, 0), (0, 3), (4, 3)))  # self-intersecting
    with pytest.raises(PolygonError):
        Polygon(((0, 0), (4, 0), (4, 0), (0, 3)))  # duplicate point
    with pytest.raises(PolygonError, match="vertex 0 has non-integer coordinates"):
        Polygon(((0.7, 0), (4, 0), (0, 3.9)))  # no silent truncation
    with pytest.raises(PolygonError, match="vertex 2 "):
        Polygon(((0, 0), (4, 0), ("0", 3)))


def test_gen_tower_shape_properties():
    for seed in range(5):
        poly = gen_tower(9, seed)
        assert poly.n == 9
        assert len(convex_vertex_indices(poly)) == 3  # apex plus two base corners
        g = visibility_graph(poly)
        apex_like = [
            v
            for v in range(9)
            if g.degree(v) == 2 and g.has_edge(*sorted(g[v]))
        ]
        assert apex_like  # the apex always qualifies


def test_gen_tower_min_size():
    with pytest.raises(ValueError):
        gen_tower(3, 0)


def test_gen_tower_deterministic():
    a = gen_tower(12, 7)
    b = gen_tower(12, 7)
    assert write_polygon(a) == write_polygon(b)
    assert write_polygon(a) != write_polygon(gen_tower(12, 8))


def test_gen_pseudo_triangle_shapes():
    assert gen_pseudo_triangle(3, 1).n == 3
    for n, seed in [(6, 0), (11, 2), (17, 5)]:
        poly = gen_pseudo_triangle(n, seed)
        assert poly.n == n
        assert len(convex_vertex_indices(poly)) == 3


def test_gen_pseudo_triangle_degenerate_property():
    from polyvis.geometry import pseudo_triangle_chains

    poly = gen_pseudo_triangle(8, 1, degenerate=True)
    g = visibility_graph(poly)
    chains = pseudo_triangle_chains(poly)
    left = set(chains["left"][:-1])
    right = set(chains["right"][:-1])
    both = [
        w for w in chains["bottom"] if g[w] & left and g[w] & right
    ]
    assert len(both) == 1


def test_gen_pseudo_triangle_degenerate_too_small():
    with pytest.raises(ValueError):
        gen_pseudo_triangle(5, 0, degenerate=True)


def test_gen_pseudo_tower_instance():
    inst = gen_pseudo_tower(10, 4)
    assert inst.graph.n == 10
    degs = [inst.graph.degree(v) for v in range(10)]
    assert degs.count(1) == 1
    assert inst.tail
    c1, c2 = inst.chains
    assert c1[0] == c2[0]  # shared top
    assert sorted(list(c1) + list(c2[1:])) == list(range(10))


def test_gen_pseudo_tower_deterministic():
    a = gen_pseudo_tower(9, 2)
    b = gen_pseudo_tower(9, 2)
    assert a.graph == b.graph and a.kept == b.kept


def test_general_position_of_generators():
    from polyvis import kernels

    for poly in (gen_tower(10, 3), gen_pseudo_triangle(12, 3)):
        assert not kernels.has_collinear_triple(poly.coords())


def test_visibility_symmetric_on_random_polygons():
    from polyvis import kernels

    checked = 0
    for poly in (
        gen_pseudo_triangle(15, 9),
        gen_pseudo_triangle(26, 4),
        gen_tower(24, 7),
        gen_tower(30, 2),
    ):
        coords = poly.coords()
        for i in range(poly.n):
            for j in range(i + 1, poly.n):
                assert kernels.segment_visible(
                    coords, i, j
                ) == kernels.segment_visible(coords, j, i)
                checked += 1
    assert checked >= 1000


def test_polygon_file_round_trip(t5_polygon):
    text = write_polygon(t5_polygon)
    assert parse_polygon(text) == t5_polygon


def test_polygon_parse_errors():
    cases = [
        ("", "missing vertex count"),
        ("2\n0 0\n1 1\n", "at least 3 vertices"),
        ("3\n0 0\nbad line\n2 2\n", "line 3: expected integers"),
        ("3\n0 0\n1 0\n", "line 3: expected 3 vertex lines, found 2"),
        ("x\n", "expected vertex count, got 'x'"),
        # Comments and blank lines are skipped but keep their line numbers.
        ("# tri\n\n3\n0 0\n# c\n1 0\n", "line 6: expected 3 vertex lines, found 2"),
        ("3\n0 0\n1\n2 2\n", "line 3: expected 'x y', got '1'"),
        ("3\n0 0\n1 0 2\n2 2\n", "line 3: expected 'x y', got '1 0 2'"),
    ]
    for text, fragment in cases:
        with pytest.raises(PolygonParseError) as exc:
            parse_polygon(text)
        assert fragment in str(exc.value), (text, str(exc.value))


def test_render_svg_t5(t5_polygon, t5_graph):
    svg = render_svg(t5_polygon, t5_graph)
    assert svg.count("<line") == 8  # 5 boundary edges + 3 chords
    assert 'Z"' in svg and svg.startswith("<svg")


def test_render_svg_polygon_only(t5_polygon):
    svg = render_svg(t5_polygon)
    assert "<line" not in svg
    assert svg.count("<path") == 1


def test_render_svg_empty_overlay(t5_polygon):
    from polyvis import Graph

    svg = render_svg(t5_polygon, Graph(5, frozenset()))
    assert "<line" not in svg


def test_render_svg_deterministic(pt6_polygon, pt6_graph):
    assert render_svg(pt6_polygon, pt6_graph) == render_svg(pt6_polygon, pt6_graph)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 14), st.integers(0, 10**6))
def test_generated_towers_always_valid(n, seed):
    poly = gen_tower(n, seed)
    g = visibility_graph(poly)
    assert g.n == n
    # boundary edges are always present
    for i in range(n):
        assert g.has_edge(i, (i + 1) % n)


def _check_edge_validation(pts) -> bool:
    """Polygon(pts) accepts iff the all-pairs scan finds no touching edges,
    and otherwise names the scan's first pair; False when pts fails an
    earlier check."""
    touching = polygon_edges_touch_scan(pts)
    try:
        Polygon(tuple(pts))
    except PolygonError as exc:
        message = str(exc)
        if not message.startswith("boundary edges"):
            return False
        assert touching is not None
        assert message == f"boundary edges {touching[0]} and {touching[1]} intersect"
    else:
        assert touching is None
    return True


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=9,
             unique=True),
    st.booleans(),
)
def test_polygon_edge_validation_matches_scan(pts, around_centre):
    # On a small grid many sequences cross or touch themselves; sorting by
    # angle round the centroid gives mostly simple ones, often with a vertex
    # resting on an edge.
    if around_centre:
        cx = sum(x for x, _ in pts) / len(pts)
        cy = sum(y for _, y in pts) / len(pts)
        pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    area2 = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))
    if area2 < 0:
        pts.reverse()
    # Each quarter turn moves a touch onto another side of the boxes, and each
    # starting vertex changes which touching pair comes first.
    checked = False
    for _ in range(4):
        pts = [(-y, x) for x, y in pts]
        for start in range(len(pts)):
            checked |= _check_edge_validation(pts[start:] + pts[:start])
    assume(checked)  # otherwise rejected before the edge test


# oracle-gen's generator mix: (n, seeds) per size.
_ORACLE_GEN_SIZES = ((20, range(8)), (40, range(4)), (80, (0,)))


def _count_kernel_passes(monkeypatch) -> list[int]:
    calls = [0]
    full_pass = kernels.visibility_edges

    def counted(coords):
        calls[0] += 1
        return full_pass(coords)

    monkeypatch.setattr(kernels, "visibility_edges", counted)
    return calls


def test_gen_pseudo_triangle_builds_no_graph(monkeypatch):
    calls = _count_kernel_passes(monkeypatch)
    polys = []
    for degenerate, sizes in ((False, _ORACLE_GEN_SIZES), (True, _ORACLE_GEN_SIZES[:2])):
        for n, seeds in sizes:
            for seed in seeds:
                polys.append((gen_pseudo_triangle(n, seed, degenerate), degenerate))
    assert calls[0] == 0
    for poly, degenerate in polys:
        chains = pseudo_triangle_chains(poly)
        g = visibility_graph(poly)
        left = set(chains["left"][:-1])
        right = set(chains["right"][:-1])
        want = [w for w in chains["bottom"] if g[w] & left and g[w] & right]
        assert geometry._sees_both_sides(poly.coords(), chains) == want
        if degenerate:
            assert len(want) == 1
        else:
            pos = {v: i for i, v in enumerate(chains["bottom"])}
            assert any(pos[b] == pos[a] + 1 for a in want for b in want)


def test_gen_pseudo_tower_builds_one_graph(monkeypatch):
    calls = _count_kernel_passes(monkeypatch)
    for n, seeds in _ORACLE_GEN_SIZES:
        for seed in seeds:
            before = calls[0]
            inst = gen_pseudo_tower(n, seed)
            assert calls[0] == before + 1
            # The removed vertices are one run without the apex; the degree-1
            # vertex sits next to it.
            cut = sorted(set(range(inst.parent.n)) - set(inst.kept))
            assert cut == list(range(cut[0], cut[-1] + 1)) and cut[0] > 0
            deg_one = [v for v in range(inst.graph.n) if inst.graph.degree(v) == 1]
            assert len(deg_one) == 1
            assert inst.kept[deg_one[0]] in (cut[0] - 1, cut[-1] + 1)


DRAW_SEEDS = ("tower:20:0", "pseudo-triangle:40:1:False", "pseudo-tower:80:3", "x")


def test_draws_below_match_random():
    """The generators' bounded draws give what ``randrange(stop)`` and
    ``randint(a, b)`` give, and leave the generator in the same state, so a
    Python whose ``random`` draws differently fails here first."""
    stops = {*range(1, 301)}
    for j in range(71):
        stops |= {2**j - 1, 2**j, 2**j + 1}
    stops.discard(0)
    spans = [(-1, 0), (-5, 5), (-300, -1), (-(2**40), 2**40), (-7, -7)]
    for seed in DRAW_SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for stop in sorted(stops):
            assert geometry._draws_below(ours, stop, 3) == [theirs.randrange(stop) for _ in range(3)]
        for a, b in spans:
            assert a + geometry._draws_below(ours, b - a + 1, 1)[0] == theirs.randint(a, b)
        assert ours.getstate() == theirs.getstate()
    assert geometry._draws_below(random.Random(0), 5, 0) == []
    with pytest.raises(ValueError):
        geometry._draws_below(random.Random(0), 0, 1)


EXPECTED_GENERATORS = "2cef221182b549dedbee17eba8960247fc6a5cd7465aded609b2b8f315ff46ba"


def _generator_outcome(gen, *args):
    try:
        out = gen(*args)
    except RuntimeError as exc:
        return f"RuntimeError: {exc}"
    if isinstance(out, geometry.PseudoTowerInstance):
        return out.parent.coords(), out.kept, out.tail, out.chains
    return out.coords()


def _generator_outcomes():
    for seed in range(5):
        for n in range(4, 20):
            yield ("tower", n, seed), _generator_outcome(gen_tower, n, seed)
        for n in range(3, 20):
            yield ("pt", n, seed), _generator_outcome(gen_pseudo_triangle, n, seed)
        for n in range(6, 20):
            yield ("pt-degenerate", n, seed), _generator_outcome(
                gen_pseudo_triangle, n, seed, True
            )
        for n in range(5, 20):
            yield ("pseudo-tower", n, seed), _generator_outcome(gen_pseudo_tower, n, seed)
    for seed in range(8):
        yield ("pt-degenerate", 80, seed), _generator_outcome(
            gen_pseudo_triangle, 80, seed, True
        )


def _generator_digest() -> tuple[str, list]:
    h = hashlib.sha256()
    failed = []
    for key, out in _generator_outcomes():
        if isinstance(out, str):
            failed.append(key)
        h.update(f"{key!r}: {out!r}\n".encode())
    return h.hexdigest(), failed


def test_generator_outputs_pinned():
    """Every generator gives the same polygons, and fails the same way, as
    before: towers at n 4-19, plain pseudo-triangles at n 3-19, degenerate
    ones at n 6-19 and pseudo-towers at n 5-19 (coordinates, ``kept``,
    ``tail`` and ``chains``), each for seeds 0-4, where the benchmark stores
    (n >= 8 and n >= 20) do not reach.  Degenerate n=80 seeds 0-7 add six
    runs that fail after all their attempts, which pins the whole draw
    stream.  The digest is only read: when a change is meant to alter
    generator output, recompute it with ``_generator_digest`` and say why in
    CHANGES.md.
    """
    digest, failed = _generator_digest()
    assert failed == [("pt-degenerate", 80, s) for s in (0, 1, 2, 3, 6, 7)]
    assert digest == EXPECTED_GENERATORS
