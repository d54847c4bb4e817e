import random

import pytest
from hypothesis import given, strategies as st

from polyvis import (
    Graph,
    GraphParseError,
    NotTowerError,
    canonicalize,
    connected_components,
    gen_pseudo_tower,
    gen_tower,
    is_cycle_in_graph,
    parse_graph,
    serialize_graph,
    solve_pseudo_tower,
    verify_cycle,
    visibility_graph,
)
from polyvis.graph import CycleCandidate, bfs_layers, induced_subgraph, low, members, view_of
from polyvis.pseudotower import extract_tail
from polyvis.tower import bordering_constraints, level_sets, tower_top_candidates

from conftest import PT6_EDGES, T5_EDGES, vertex_mask, vertex_set
from corpora import SETS, brute_force_graphs, graph_set


def test_parse_k3():
    g = parse_graph("3 3\n0 1\n1 2\n2 0\n")
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})


def test_parse_comments_and_blanks():
    g = parse_graph("# a triangle\n\n3 3\n0 1\n# chord\n1 2\n2 0\n")
    assert g.m == 3


def test_parse_self_loop_names_line():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("2 1\n0 0\n")
    assert "line 2" in str(exc.value)
    assert "self-loop" in str(exc.value)


def test_parse_t5_degrees():
    lines = ["5 8"] + [f"{u} {v}" for u, v in sorted(T5_EDGES)]
    g = parse_graph("\n".join(lines))
    assert [g.degree(v) for v in range(5)] == [2, 4, 3, 3, 4]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("2 1\n0 5\n", "out of range"),
        ("3 2\n0 1\n0 1\n", "duplicate"),
        ("3 1\nnope\n", "expected"),
        ("3 2\n0 1\n", "edge lines"),
        ("", "header"),
        ("3\n", "expected 'n m', got '3'"),
        ("1 2 3\n", "expected 'n m', got '1 2 3'"),
        ("a b\n", "expected integers in header"),
        ("-1 0\n", "must be non-negative"),
        ("3 -1\n", "must be non-negative"),
        ("3 1\n0 x\n", "line 2: expected integers, got '0 x'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert fragment in str(exc.value)


@given(
    st.integers(min_value=0, max_value=12).flatmap(
        lambda n: st.sets(
            st.tuples(
                st.integers(0, max(0, n - 1)), st.integers(0, max(0, n - 1))
            ).filter(lambda e: e[0] != e[1]),
            max_size=20,
        ).map(lambda edges: (n, edges))
    )
)
def test_parse_serialize_round_trip(case):
    n, raw = case
    norm = {tuple(sorted(e)) for e in raw}
    g = Graph(n, frozenset(norm))
    assert parse_graph(serialize_graph(g)) == g


def test_graph_maps_each_vertex_to_its_neighbor_set(t5_graph):
    g = t5_graph
    assert len(g) == g.n
    assert list(g) == list(range(g.n))
    assert g[0] == frozenset({1, 4})
    assert dict(g) == {v: frozenset(w for e in T5_EDGES if v in e for w in e if w != v) for v in g}


def test_bits_match_neighbor_sets():
    # Bit u of bits[v] is set iff u is in g[v], on every graph that the
    # shared sets and the brute-force oracles read.
    graphs = [r.graph for name in SETS for r in graph_set(name)] + list(brute_force_graphs())
    for g in graphs:
        assert g.bits == tuple(vertex_mask(g[v]) for v in g), g.edges


def test_parsing_drawing_and_verifying_leave_bits_unbuilt(pt6_polygon):
    # The masks are built on first use, so visibility graphs and the verify
    # command never pay for them.
    lines = ["6 12"] + [f"{u} {v}" for u, v in sorted(PT6_EDGES)]
    parsed, drawn = parse_graph("\n".join(lines)), visibility_graph(pt6_polygon)
    assert parsed == drawn
    assert verify_cycle(parsed, range(6)) and verify_cycle(drawn, range(6))
    assert "bits" not in vars(parsed) and "bits" not in vars(drawn)
    assert parsed.bits and "bits" in vars(parsed)


def test_graph_has_no_vertex_outside_its_range(t5_graph):
    g = t5_graph
    assert -1 not in g and g.n not in g
    # A tuple behind the mapping would wrap -1 round to the last vertex.
    for v in (-1, g.n):
        with pytest.raises(KeyError):
            g[v]


def test_graph_equality_and_hash_follow_the_edges(t5_graph):
    same = Graph.from_edges(5, sorted(T5_EDGES, reverse=True))
    assert same == t5_graph and hash(same) == hash(t5_graph)
    assert len({same, t5_graph}) == 1
    fewer = Graph(5, T5_EDGES - {(1, 3)})
    assert fewer != t5_graph and Graph(6, T5_EDGES) != t5_graph
    assert t5_graph != dict(t5_graph)


def _tower_readings(view):
    """What the tower readers give on one view; a rejection reads as its message."""
    out = [extract_tail(view)]
    try:
        tops = tower_top_candidates(view)
    except NotTowerError as exc:
        return [*out, str(exc)]
    out.append(tops)
    for top in sorted(tops):
        out.append(extract_tail(view, top))
        try:
            lv = level_sets(view, top)
            out.append((lv, lv.level_of))
            bg = bordering_constraints(view, lv)
            out.append((bg, bg.coloring))
        except NotTowerError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("n", [5, 8, 13, 21])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_graph_reads_like_its_plain_dict(n, seed):
    for g in (visibility_graph(gen_tower(n, seed)), gen_pseudo_tower(n, seed).graph):
        readings = _tower_readings(view_of(g))
        assert readings == _tower_readings(view_of(dict(g)))
        assert len(readings) > 1
    # A pseudo-tower's whole graph does not level; its residual is leveled
    # on a view restricted from the Graph or from the dict alike.
    assert solve_pseudo_tower(g) == solve_pseudo_tower(dict(g)) != []


def test_components_k3(k3):
    assert connected_components(k3) == [frozenset({0, 1, 2})]


def test_components_edgeless():
    g = Graph(3, frozenset())
    assert connected_components(g) == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_components_t5_minus_vertices(t5_graph):
    sub, old_of = induced_subgraph(t5_graph, {2, 3})
    comps = connected_components(sub)
    assert [frozenset(old_of[v] for v in c) for c in comps] == [frozenset({2, 3})]


def test_components_partition_property(t5_graph):
    comps = connected_components(t5_graph)
    seen = set()
    for c in comps:
        assert not (seen & c)
        seen |= c
    assert seen == set(range(t5_graph.n))


def _bin_members(mask: int) -> list[int]:
    """The set bits of ``mask``, least first, read off its binary string."""
    return [i for i, digit in enumerate(reversed(bin(mask)[2:])) if digit == "1"]


@given(st.one_of(st.just(0), st.integers(0, 2**64 - 1), st.integers(2**64, 2**300)))
def test_members_and_low_match_binary_digits(mask):
    assert type(members(mask)) is list
    assert members(mask) == _bin_members(mask)
    if mask:
        assert low(mask) == _bin_members(mask)[0]


def _bfs_distances(g: Graph, start: int, within: set[int]) -> dict[int, int]:
    """Plain breadth-first search on neighbor sets: each vertex reached from
    ``start`` (distance 0, in ``within`` or not) through ``within``, with
    its distance."""
    dist, frontier = {start: 0}, [start]
    while frontier:
        reached = []
        for u in frontier:
            for w in g[u]:
                if w in within and w not in dist:
                    dist[w] = dist[u] + 1
                    reached.append(w)
        frontier = reached
    return dist


@pytest.mark.parametrize("name", SETS)
def test_bfs_layers_match_plain_bfs(name):
    # From vertex 0 through the whole graph, then from a random vertex
    # through a random half of it, which the start may lie outside.
    rng = random.Random(name)
    for record in graph_set(name):
        g = record.graph
        half = {v for v in range(g.n) if rng.random() < 0.5}
        for start, within in ((0, set(range(g.n))), (rng.randrange(g.n), half)):
            layers = bfs_layers(g.bits, start, vertex_mask(within))
            dist = _bfs_distances(g, start, within)
            assert sum(layer.bit_count() for layer in layers) == len(dist), record.id
            assert sum(layers) == vertex_mask(dist), record.id
            by_depth = [{v for v, d in dist.items() if d == depth} for depth in range(len(layers))]
            assert [vertex_set(layer) for layer in layers] == by_depth, record.id


def test_induced_single_edge(k3):
    sub, old_of = induced_subgraph(k3, {0, 1})
    assert sub.edges == frozenset({(0, 1)})
    assert old_of == (0, 1)


def test_induced_empty(k3):
    sub, old_of = induced_subgraph(k3, set())
    assert sub.n == 0 and sub.m == 0 and old_of == ()


def test_induced_t5(t5_graph):
    sub, old_of = induced_subgraph(t5_graph, {1, 2, 3, 4})
    back = {tuple(sorted((old_of[u], old_of[v]))) for u, v in sub.edges}
    assert back == {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)}


def test_canonicalize_examples():
    assert canonicalize((1, 2, 0)).order == (0, 1, 2)
    assert canonicalize((0, 2, 1)).order == (0, 1, 2)
    assert canonicalize((3, 4, 0, 1, 2)).order == (0, 1, 2, 3, 4)


def test_canonicalize_rejects_non_permutation():
    with pytest.raises(ValueError):
        canonicalize((0, 2, 2))


@given(st.permutations(range(6)), st.integers(0, 5), st.booleans())
def test_canonicalize_invariance(perm, rot, flip):
    seq = list(perm)
    seq = seq[rot:] + seq[:rot]
    if flip:
        seq = seq[::-1]
    assert canonicalize(seq) == canonicalize(perm)
    assert canonicalize(canonicalize(seq).order) == canonicalize(seq)


def test_is_cycle(k3, t5_graph):
    assert is_cycle_in_graph(k3, canonicalize((0, 1, 2)))
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert not is_cycle_in_graph(path, canonicalize((0, 1, 2)))
    assert is_cycle_in_graph(t5_graph, canonicalize((0, 1, 2, 3, 4)))


def test_is_cycle_rejects_repeated_vertex():
    # A closed walk of length n along edges that visits a vertex twice is
    # not a Hamiltonian cycle, and ids outside the graph are rejected, not
    # looked up.
    square = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert is_cycle_in_graph(square, CycleCandidate((0, 1, 2, 3)))
    for order in [(0, 1, 0, 1), (0, 1, 2, 1), (5, 0, 1, 2), (-1, 0, 1, 2), (0, 1, 2)]:
        assert not is_cycle_in_graph(square, CycleCandidate(order))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 5)}))
