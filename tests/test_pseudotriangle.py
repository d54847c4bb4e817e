import pytest

from polyvis import (
    Chain,
    Graph,
    NotPseudoTriangleError,
    PartSolution,
    apply_bordering_constraints,
    assemble_hamiltonian,
    boundary_cycle,
    canonicalize,
    extract_cap,
    gen_pseudo_triangle,
    solve_pseudo_triangle,
    split_parts,
    top_joint_candidates,
    verify_candidate,
    verify_cycle,
    visibility_graph,
)
from polyvis.pseudotriangle import (
    PseudoTriangleSolution,
    SplitDecomposition,
    _cap_context,
    _LevelTree,
)
from polyvis.tower import enumerate_borderings

from conftest import PT6_EDGES


def test_top_candidates_k3(k3):
    assert top_joint_candidates(k3) == frozenset({0, 1, 2})


def test_top_candidates_pt6(pt6_graph):
    cands = top_joint_candidates(pt6_graph)
    assert cands == frozenset({0, 2, 4})  # the three joints, bound tight
    assert len(cands) <= 3


def test_top_candidates_too_many_rejected():
    g = Graph.from_edges(6, [(u, v + 3) for u in range(3) for v in range(3)])
    with pytest.raises(NotPseudoTriangleError):
        top_joint_candidates(g)  # six minimum-degree vertices


def test_extract_cap_pt6(pt6_graph):
    assert extract_cap(pt6_graph, 0, (3, 4)) == [frozenset({0, 1, 5})]


def test_extract_cap_top_in_base(k3):
    caps = extract_cap(k3, 0, (1, 2))
    assert caps == [frozenset({0})]


def test_extract_cap_rejects_without_common_neighbor():
    # Path-like graph: edge (2, 3) has no common neighbor.
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert extract_cap(g, 0, (2, 3)) == []


def test_extract_cap_shared_tree_matches_fresh():
    # One level tree serves every split edge of a top with the same caps as
    # a tree built for that edge alone.
    g = visibility_graph(gen_pseudo_triangle(24, 3))
    for top in sorted(top_joint_candidates(g)):
        tree = _LevelTree(g, top)
        for u, v in sorted(g.edges):
            if top in (u, v):
                continue
            for e in ((u, v), (v, u)):
                assert extract_cap(g, top, e, tree) == extract_cap(g, top, e)
        assert tree.truncated == 0


def test_split_parts_pt6(pt6_graph):
    parts = split_parts(pt6_graph, frozenset({0, 1, 5}), (3, 4))
    assert parts is not None
    a, b = parts
    assert a == frozenset({2, 3})
    assert b == frozenset({4})


def test_split_parts_rejects_connected_rest(pt6_graph):
    # Removing too small a cap leaves one connected blob.
    assert split_parts(pt6_graph, frozenset({0}), (2, 3)) is None


def _pt6_true_decomposition(pt6_graph):
    (cap,) = extract_cap(pt6_graph, 0, (3, 4))
    part_a, part_b = split_parts(pt6_graph, cap, (3, 4))
    dec = SplitDecomposition(0, (3, 4), cap, part_a, part_b)
    sol_a = PartSolution((2, 3), 2)
    sol_b = PartSolution((4,), 4)
    return dec, sol_a, sol_b


def test_apply_bordering_constraints_rejects_no_shared_view(pt6_graph):
    dec, _, _ = _pt6_true_decomposition(pt6_graph)
    ctx = _cap_context(pt6_graph, dec.cap, 0)
    (start,) = enumerate_borderings(ctx.bg)
    # 1 and 5 are the deepest cap vertices of the two sides.  With every edge
    # from 1 into the parts cut, they share no neighbor there, so either
    # orientation of the one constraint component is rejected.
    parts = dec.part_a | dec.part_b
    g2 = Graph(6, frozenset(set(pt6_graph.edges) - {(1, 2), (1, 3), (1, 4)}))
    assert pt6_graph.nbr_set(1) & pt6_graph.nbr_set(5) & parts
    assert not g2.nbr_set(1) & g2.nbr_set(5) & parts
    assert apply_bordering_constraints(pt6_graph, dec, ctx, start) == [start]
    assert apply_bordering_constraints(g2, dec, ctx, start) == []


def test_apply_bordering_constraints_pt6(pt6_graph):
    dec, sol_a, sol_b = _pt6_true_decomposition(pt6_graph)
    ctx = _cap_context(pt6_graph, dec.cap, 0)
    (start,) = enumerate_borderings(ctx.bg)
    accepted = apply_bordering_constraints(pt6_graph, dec, ctx, start)
    assert len(accepted) == 1
    sols = assemble_hamiltonian(pt6_graph, dec, ctx, accepted[0], sol_a, sol_b)
    assert any(s.cycle.order == (0, 1, 2, 3, 4, 5) for s in sols)
    assert any(verify_candidate(pt6_graph, s) for s in sols)


def test_assemble_rejects_missing_edge(pt6_graph):
    dec, sol_a, sol_b = _pt6_true_decomposition(pt6_graph)
    ctx = _cap_context(pt6_graph, dec.cap, 0)
    (b,) = enumerate_borderings(ctx.bg)
    broken = Graph(6, frozenset(set(pt6_graph.edges) - {(4, 5)}))
    assert assemble_hamiltonian(broken, dec, ctx, b, sol_a, sol_b) == []


def test_solve_k3(k3):
    sols = solve_pseudo_triangle(k3)
    assert [s.cycle.order for s in sols] == [(0, 1, 2)]


def test_solve_pt6_contains_boundary(pt6_graph):
    sols = solve_pseudo_triangle(pt6_graph)
    orders = [s.cycle.order for s in sols]
    assert (0, 1, 2, 3, 4, 5) in orders
    for s in sols:
        assert verify_candidate(pt6_graph, s)


def test_solve_k33_empty():
    g = Graph.from_edges(6, [(u, v + 3) for u in range(3) for v in range(3)])
    assert solve_pseudo_triangle(g) == []


def test_solve_missing_edge_no_crash(pt6_graph):
    # Deleting a boundary edge leaves no Hamiltonian boundary to find.
    edges = set(pt6_graph.edges) - {(2, 3)}
    g = Graph(6, frozenset(edges))
    sols = solve_pseudo_triangle(g)
    assert (0, 1, 2, 3, 4, 5) not in [s.cycle.order for s in sols]


def test_verify_candidate_rejects_same_chain_chord(pt6_graph):
    # Claim a wrong chain split for the true cycle: bottom chain (1, 2, 3)
    # carries the visibility chord 1-3, violating concavity.
    dec = SplitDecomposition(
        5, (2, 3), frozenset({5, 0, 1}), frozenset({2}), frozenset({3, 4})
    )
    sol = PseudoTriangleSolution(
        canonicalize((0, 1, 2, 3, 4, 5)),
        (Chain((5, 0, 1)), Chain((1, 2, 3)), Chain((5, 4, 3))),
        (5, 1, 3),
        dec,
    )
    assert not verify_candidate(pt6_graph, sol)


def test_verify_cycle_corrupted_graph_flagged(pt6_graph):
    assert verify_cycle(pt6_graph, (0, 1, 2, 3, 4, 5))
    corrupted = Graph(6, frozenset(set(PT6_EDGES) - {(1, 3)}))
    assert not verify_cycle(corrupted, (0, 1, 2, 3, 4, 5))


def test_verify_cycle_rejects_non_cycle(pt6_graph):
    assert not verify_cycle(pt6_graph, (0, 2, 4, 1, 3, 5))


@pytest.mark.parametrize("n", [4, 6, 9, 13, 18, 24, 30])
@pytest.mark.parametrize("seed", [0, 1])
def test_generated_round_trip(n, seed):
    poly = gen_pseudo_triangle(n, seed)
    g = visibility_graph(poly)
    sols = solve_pseudo_triangle(g)
    assert boundary_cycle(poly).order in [s.cycle.order for s in sols]
    for s in sols:
        assert verify_candidate(g, s)


@pytest.mark.parametrize("n", [6, 9, 14, 21, 30])
def test_generated_degenerate_round_trip(n):
    poly = gen_pseudo_triangle(n, 0, degenerate=True)
    g = visibility_graph(poly)
    sols = solve_pseudo_triangle(g)
    assert boundary_cycle(poly).order in [s.cycle.order for s in sols]


def test_solution_partition_invariant(pt6_graph):
    for s in solve_pseudo_triangle(pt6_graph):
        dec = s.decomposition
        assert dec.cap | dec.part_a | dec.part_b == frozenset(range(6))
        assert not dec.cap & dec.part_a
        assert not dec.cap & dec.part_b
        assert not dec.part_a & dec.part_b
        assert dec.split_edge[0] in dec.part_a
        assert dec.split_edge[1] in dec.part_b
        assert dec.top in dec.cap


def test_solution_chains_concatenate_to_cycle(pt6_graph):
    for s in solve_pseudo_triangle(pt6_graph):
        left, bottom, right = (c.vertices for c in s.chains)
        walk = list(left) + list(bottom[1:]) + list(reversed(right))[1:-1]
        assert canonicalize(walk) == s.cycle


def _ladder(levels: int) -> Graph:
    # Top 0 sees 1 and 2; each level {2i+1, 2i+2} is a clique and consecutive
    # levels are completely joined.
    edges = [(0, 1), (0, 2)]
    for i in range(levels):
        a, b = 2 * i + 1, 2 * i + 2
        edges.append((a, b))
        if i + 1 < levels:
            edges += [(x, y) for x in (a, b) for y in (a + 2, b + 2)]
    return Graph.from_edges(2 * levels + 1, edges)


def test_solve_counts_bordering_sweeps():
    # Eight levels stay within the exhaustive bordering check; ten give caps
    # with more constraint components, whose borderings the sweep cuts down
    # to at most one per decomposition, and the stats say so.
    stats: dict[str, int] = {}
    assert len(solve_pseudo_triangle(_ladder(8), stats)) == 128
    assert "bordering_swept" not in stats
    stats = {}
    g = _ladder(10)
    sols = solve_pseudo_triangle(g, stats)
    assert sols and all(verify_candidate(g, s) for s in sols)
    assert stats["bordering_swept"] > 0
