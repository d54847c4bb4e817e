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
    visibility_graph,
)
from polyvis.graph import CycleCandidate, induced_subgraph
from polyvis.pseudotower import extract_tail
from polyvis.tower import bordering_constraints, level_sets, tower_top_candidates

from conftest import T5_EDGES


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


def _tower_readings(nbrs):
    """What the tower readers give on one view; a rejection reads as its message."""
    out = [extract_tail(nbrs)]
    try:
        tops = tower_top_candidates(nbrs)
    except NotTowerError as exc:
        return [*out, str(exc)]
    out.append(tops)
    for top in sorted(tops):
        out.append(extract_tail(nbrs, top))
        try:
            lv = level_sets(nbrs, top)
            out.append((lv, lv.level_of))
            bg = bordering_constraints(nbrs, lv)
            out.append((bg, bg.coloring))
        except NotTowerError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("n", [5, 8, 13, 21])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_graph_reads_like_its_plain_dict(n, seed):
    for g in (visibility_graph(gen_tower(n, seed)), gen_pseudo_tower(n, seed).graph):
        readings = _tower_readings(g)
        assert readings == _tower_readings(dict(g))
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
