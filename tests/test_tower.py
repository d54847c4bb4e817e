import pytest

from polyvis import (
    Graph,
    NotTowerError,
    canonicalize,
    check_strong_ordering,
    gen_tower,
    solve_pseudo_triangle,
    solve_tower,
    visibility_graph,
    boundary_cycle,
)
from polyvis.graph import view_of
from polyvis.tower import (
    bordering_chains,
    bordering_constraints,
    bordering_graph,
    compute_leveling,
    enumerate_borderings,
    tower_top_candidates,
)

from conftest import vertex_set
from corpora import stage_log
from oracles import bordering_chains_scan, bordering_constraints_scan, brute_hamiltonian_cycles


def test_top_candidates_t5(t5_graph):
    assert tower_top_candidates(view_of(t5_graph)) == frozenset({0})


def test_top_candidates_k3(k3):
    assert tower_top_candidates(view_of(k3)) == frozenset({0, 1, 2})


def test_top_candidates_path_rejected():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NotTowerError):
        tower_top_candidates(view_of(path))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_top_candidates_too_few_vertices_rejected(n):
    g = Graph.from_edges(n, [(0, 1)] if n == 2 else [])
    with pytest.raises(NotTowerError, match="at least 3 vertices"):
        tower_top_candidates(view_of(g))


def test_leveling_t5(t5_graph):
    lv = compute_leveling(t5_graph, 0)
    assert [vertex_set(l) for l in lv] == [{0}, {1, 4}, {2, 3}]


def test_leveling_k3(k3):
    lv = compute_leveling(k3, 0)
    assert [vertex_set(l) for l in lv] == [{0}, {1, 2}]


def test_leveling_star_rejected():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NotTowerError):
        compute_leveling(star, 0)


def test_leveling_clique_property(t5_graph):
    lv = compute_leveling(t5_graph, 0)
    for a, b in zip(lv, lv[1:]):
        merged = sorted(vertex_set(a | b))
        for i, u in enumerate(merged):
            for v in merged[i + 1 :]:
                assert t5_graph.has_edge(u, v)


def _constraint_edges(bg) -> frozenset[tuple[int, int]]:
    """The constraint edges (u, v), u < v, read off the neighbour masks."""
    return frozenset((u, v) for u, near in bg.adj.items() for v in vertex_set(near) if u < v)


def _scan_form(bg):
    """A constraint graph as ``bordering_constraints_scan`` gives it: its
    edges, its components as sets and each vertex's colour, read off the
    masks; None stays None."""
    if bg is None:
        return None
    sides = list(zip(bg.components, bg.odd, strict=True))
    assert all(odd & ~comp == 0 for comp, odd in sides)
    coloring = {v: odd >> v & 1 for comp, odd in sides for v in vertex_set(comp)}
    return _constraint_edges(bg), tuple(vertex_set(c) for c in bg.components), coloring


def test_bordering_graph_t5(t5_graph):
    lv = compute_leveling(t5_graph, 0)
    bg = bordering_graph(t5_graph, lv)
    assert _constraint_edges(bg) == frozenset({(1, 4), (2, 3)})
    assert [vertex_set(c) for c in bg.components] == [{1, 4}, {2, 3}]


def test_bordering_graph_k3(k3):
    lv = compute_leveling(k3, 0)
    bg = bordering_graph(k3, lv)
    assert _constraint_edges(bg) == frozenset({(1, 2)})
    assert len(bg.components) == 1


def _odd_cycle_tower_like() -> Graph:
    # Valid leveling [{0},{1,2},{3,4},{5,6},{7,8},{9,10}], plus distant
    # constraint chords 2-5, 6-9, 1-9 closing an odd (5-)cycle with the level
    # pairing edges 1-2, 5-6, 9-10.
    edges = [(0, 1), (0, 2), (1, 2)]
    pairs = [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]
    for (a, b), (c, d) in zip(pairs, pairs[1:]):
        edges += [(a, c), (a, d), (b, c), (b, d), (c, d)]
    edges += [(2, 5), (6, 9), (1, 9)]
    return Graph.from_edges(11, edges)


def test_bordering_graph_odd_cycle_rejected():
    g = _odd_cycle_tower_like()
    lv = compute_leveling(g, 0)  # the leveling itself is fine
    assert [vertex_set(l) for l in lv][:3] == [{0}, {1, 2}, {3, 4}]
    with pytest.raises(NotTowerError):
        bordering_graph(g, lv)


def test_bordering_constraints_match_scan_on_solver_levelings():
    # Every constraint graph that the pseudo-triangle search builds on the
    # benchmark's auto-mixed store, caps and side parts alike, odd cycles
    # included.  A cap's is built only once its chains are needed, so every
    # cap that the search levels is checked too.
    log = stage_log("auto-mixed")

    def constraints(nbrs, lv):
        try:
            return bordering_constraints(nbrs, lv)
        except NotTowerError:
            return None

    seen = [(nbrs, lv, bg) for s in log for (nbrs, lv), bg in s.calls["bordering_constraints"]]
    rejected = sum(bg is None for _, _, bg in seen)
    # 651 and 36 of them are caps', the rest side parts'; the search levels
    # 1,770 caps, of which 128 have an odd cycle.
    assert (len(seen) - rejected, rejected) == (1508, 42)
    leveled = [ctx for s in log for _, ctx in s.calls["_cap_context"] if ctx]
    caps = [(view, lv, constraints(view, lv)) for view, lv, _, _ in leveled]
    assert (len(caps), sum(bg is None for _, _, bg in caps)) == (1770, 128)
    for (bits, within), lv, bg in seen + caps:
        nbrs = {v: vertex_set(bits[v] & within) for v in vertex_set(within)}
        want = bordering_constraints_scan(nbrs, [vertex_set(lvl) for lvl in lv])
        assert _scan_form(bg) == want


@pytest.mark.parametrize("graphs", ["brute-force", "auto-mixed"])
def test_bordering_chains_match_scan(graphs):
    # Every leveled view whose constraint graph the pseudo-triangle search
    # builds, caps, side parts and tower residuals alike, odd cycles
    # included, is read as the set-based reference reads it.
    seen = [args for s in stage_log(graphs) for args, _ in s.calls["bordering_constraints"]]
    odd = 0
    for (bits, within), lv in seen:
        nbrs = {v: vertex_set(bits[v] & within) for v in vertex_set(within)}
        want = bordering_chains_scan(nbrs, [vertex_set(lvl) for lvl in lv])
        try:
            got = bordering_chains((bits, within), lv)
        except NotTowerError:
            got = None
        assert got == want, (nbrs, want)
        odd += want is None
    assert (len(seen), odd) == {"brute-force": (500, 0), "auto-mixed": (1550, 42)}[graphs]


def test_enumerate_borderings_counts(t5_graph):
    lv = compute_leveling(t5_graph, 0)
    bg = bordering_graph(t5_graph, lv)
    bs = enumerate_borderings(bg)
    assert len(bs) == 2 ** (len(bg.components) - 1) == 2
    assert [(vertex_set(l), vertex_set(r)) for l, r in bs] == [({1, 2}, {3, 4}), ({1, 3}, {2, 4})]


def test_enumerate_borderings_three_components():
    # Three independent level pairs below the top: 2^(3-1) = 4 borderings.
    edges = [(0, 1), (0, 2), (1, 2)]
    pairs = [(1, 2), (3, 4), (5, 6)]
    for (a, b), (c, d) in zip(pairs, pairs[1:]):
        edges += [(a, c), (a, d), (b, c), (b, d), (c, d)]
    g = Graph.from_edges(7, edges)
    lv = compute_leveling(g, 0)
    bg = bordering_graph(g, lv)
    assert len(bg.components) == 3
    assert len(enumerate_borderings(bg)) == 4


def test_enumerate_borderings_single_component(k3):
    lv = compute_leveling(k3, 0)
    bg = bordering_graph(k3, lv)
    assert len(enumerate_borderings(bg)) == 1


def test_bordering_chains_t5(t5_graph):
    # Each bordering's chain pair, read down one chain and back up the other.
    lv = compute_leveling(t5_graph, 0)
    pairs = bordering_chains(view_of(t5_graph), lv)
    assert pairs == [((0, 1, 2), (0, 4, 3)), ((0, 1, 3), (0, 4, 2))]
    cycles = [canonicalize((*c1, *reversed(c2[1:]))) for c1, c2 in pairs]
    assert [c.order for c in cycles] == [(0, 1, 2, 3, 4), (0, 1, 3, 2, 4)]


def test_bordering_chains_k3(k3):
    lv = compute_leveling(k3, 0)
    ((c1, c2),) = bordering_chains(view_of(k3), lv)
    assert (c1, c2) == ((0, 1), (0, 2))
    assert canonicalize((*c1, *reversed(c2[1:]))).order == (0, 1, 2)


def test_strong_ordering_t5(t5_graph):
    assert check_strong_ordering(t5_graph, canonicalize((0, 1, 2, 3, 4)))


def test_strong_ordering_k3(k3):
    assert check_strong_ordering(k3, canonicalize((0, 1, 2)))


def test_strong_ordering_crossing_counterexample():
    # Crossing pair 1-4 and 2-5 with 1-5 present but 2-4 missing.
    g = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4), (2, 5), (1, 5)]
    )
    assert not check_strong_ordering(g, canonicalize((0, 1, 2, 3, 4, 5)))


def test_strong_ordering_four_vertex_tower():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
    assert check_strong_ordering(g, canonicalize((0, 1, 2, 3)))


def test_solve_tower_t5(t5_graph):
    assert [c.order for c in solve_tower(t5_graph)] == [
        (0, 1, 2, 3, 4),
        (0, 1, 3, 2, 4),
    ]


def test_solve_tower_non_tower():
    g = Graph.from_edges(6, [(u, v + 3) for u in range(3) for v in range(3)])
    assert solve_tower(g) == []


@pytest.mark.parametrize("n", [4, 5, 7, 10, 16, 23, 30])
@pytest.mark.parametrize("seed", [0, 1])
def test_generated_tower_round_trip(n, seed):
    poly = gen_tower(n, seed)
    g = visibility_graph(poly)
    cycles = solve_tower(g)
    assert boundary_cycle(poly).order in [c.order for c in cycles]
    # every returned candidate satisfies the recognition criterion
    for c in cycles:
        assert check_strong_ordering(g, c)


@pytest.mark.parametrize("seed", range(6))
def test_generated_tower_bordering_count_law(seed):
    poly = gen_tower(12, seed)
    g = visibility_graph(poly)
    (top,) = [v for v in sorted(tower_top_candidates(view_of(g))) if g.degree(v) == 2][:1]
    lv = compute_leveling(g, top)
    bg = bordering_graph(g, lv)
    assert len(enumerate_borderings(bg)) == 2 ** (len(bg.components) - 1)


@pytest.mark.parametrize("n", range(5, 11))
def test_solve_tower_matches_brute_force(n):
    # Exact oracle: the readings are the Hamiltonian cycles that pass the
    # strong ordering criterion, no more and no fewer.
    for seed in range(10):
        g = visibility_graph(gen_tower(n, seed))
        strong = {
            h for h in brute_hamiltonian_cycles(g) if check_strong_ordering(g, canonicalize(h))
        }
        assert {c.order for c in solve_tower(g)} == strong


@pytest.mark.parametrize("n", range(5, 41, 5))
def test_tower_readings_are_pseudo_triangle_readings(n):
    # A tower is a pseudo-triangle whose base is one edge, so the
    # pseudo-triangle solver must find every tower reading too.
    for seed in range(20):
        g = visibility_graph(gen_tower(n, seed))
        triangles = {s.cycle.order for s in solve_pseudo_triangle(g)}
        assert {c.order for c in solve_tower(g)} <= triangles
