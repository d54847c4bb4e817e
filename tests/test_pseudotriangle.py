import dataclasses
import random
from itertools import combinations

import pytest

from polyvis import (
    Graph,
    NotPseudoTriangleError,
    Point,
    Polygon,
    boundary_cycle,
    canonicalize,
    convex_vertex_indices,
    gen_pseudo_triangle,
    gen_tower,
    solve_pseudo_triangle,
    solve_tower,
    verify_candidate,
    verify_cycle,
    visibility_graph,
)
from polyvis import pseudotriangle, tower
from polyvis.graph import CycleCandidate, is_cycle_in_graph
from polyvis.tower import NotTowerError, bordering_chains, bordering_constraints
from polyvis.pseudotriangle import (
    PseudoTriangleSolution,
    _cap_context,
    _necessary_conditions,
    _reading,
    _split_edges,
    _top_pairs,
    assemble_hamiltonian,
    extract_cap,
    part_paths,
    split_parts,
    top_joint_candidates,
)

from conftest import PT6_EDGES, T5_EDGES, vertex_mask, vertex_set
from corpora import SETS, brute_force_graphs, cap_cases, graph_set, stage_log
from oracles import (
    arc_pseudo_triangle,
    brute_hamiltonian_cycles,
    cap_chains_scan,
    cap_context_scan,
    chain_conditions_scan,
    extract_cap_walk,
    hangs_path,
    part_paths_scan,
    random_connected_graph,
    spec_cycles,
    split_parts_scan,
    top_pairs_scan,
    verify_cycle_scan,
)


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


@pytest.mark.parametrize("n", [0, 1, 2])
def test_top_candidates_too_few_vertices_rejected(n):
    g = Graph.from_edges(n, [(0, 1)] if n == 2 else [])
    with pytest.raises(NotPseudoTriangleError, match="at least 3 vertices"):
        top_joint_candidates(g)


def _caps(g: Graph, top: int, e: tuple[int, int]) -> list[frozenset[int]]:
    """``extract_cap``'s caps as sets."""
    return [vertex_set(cap) for cap in extract_cap(g, top, e)]


def _split(g: Graph, cap, e: tuple[int, int]):
    """``split_parts`` on the cap ``cap``, a set, with the parts as sets."""
    parts = split_parts(g, vertex_mask(cap), e)
    return None if parts is None else tuple(map(vertex_set, parts))


def test_extract_cap_pt6(pt6_graph):
    assert _caps(pt6_graph, 0, (3, 4)) == [frozenset({0, 1, 5})]


def test_extract_cap_top_in_base(k3):
    caps = _caps(k3, 0, (1, 2))
    assert caps == [frozenset({0})]


def test_extract_cap_rejects_without_common_neighbor():
    # Path-like graph: edge (2, 3) has no common neighbor.
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert _caps(g, 0, (2, 3)) == []


@pytest.mark.parametrize(
    "n, edges, e, caps",
    [
        # Flank rule: the candidate {2, 4} meets the base {2} in 2 only, and 4
        # alone would have one carrier, so {0, 2, 4} is a cap besides {0, 2}.
        (5, [(0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4)], (1, 3), [{0, 2}, {0, 2, 4}]),
        # The candidate {1, 3} meets the base {3, 5} in 3 only: it gives {0, 3, 5}
        # and the flank cap {0, 1, 3, 5}, and the walk goes on below it to
        # {0, 1, 3, 5, 6}.  Caps come in walk order.
        (
            7,
            [(0, 1), (0, 3), (1, 3), (1, 6), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5),
             (3, 6), (4, 5), (5, 6)],
            (2, 4),
            [{0, 3, 5}, {0, 1, 3, 5}, {0, 1, 3, 5, 6}],
        ),
    ],
    ids=["flank", "below-base"],
)
def test_extract_cap_walk_past_base(n, edges, e, caps):
    g = Graph.from_edges(n, edges)
    assert _caps(g, 0, e) == [frozenset(c) for c in caps]


def test_split_parts_pt6(pt6_graph):
    parts = _split(pt6_graph, {0, 1, 5}, (3, 4))
    assert parts is not None
    a, b = parts
    assert a == frozenset({2, 3})
    assert b == frozenset({4})


def test_split_parts_rejects_connected_rest(pt6_graph):
    # Removing too small a cap leaves one connected blob.
    assert _split(pt6_graph, {0}, (2, 3)) is None


def test_split_parts_rejects_w1_reached_around_the_edge():
    # Cap {0}, split edge (1, 2): w0's side {1, 3} sees w1 through 3, so the
    # edge does not separate the rest.  Without the chord 2-3 it does.
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert _split(g, {0}, (1, 2)) is None
    h = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (0, 3)])
    assert _split(h, {0}, (1, 2)) == (frozenset({1, 3}), frozenset({2}))
    assert _split(h, {0}, (2, 1)) == (frozenset({2}), frozenset({1, 3}))


def test_split_parts_rejects_third_component():
    # Vertex 3 hangs off the cap alone: the rest has three components.
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    assert _split(g, {0}, (1, 2)) is None
    assert _split(g, {0, 3}, (1, 2)) == (frozenset({1}), frozenset({2}))


def test_split_parts_rejects_endpoint_in_cap(pt6_graph):
    assert _split(pt6_graph, {0, 1, 5}, (4, 5)) is None
    assert _split(pt6_graph, {0, 1, 5}, (5, 4)) is None
    assert _split(pt6_graph, {0, 1, 2}, (2, 3)) is None


def test_split_parts_matches_scan():
    # Every edge of small random graphs against every cap of up to two
    # vertices off the edge.
    rng = random.Random("split-parts")
    for i in range(60):
        n = rng.randint(4, 9)
        g = random_connected_graph(n, rng.randint(0, n), i)
        caps = [frozenset({a}) for a in range(n)]
        caps += [frozenset({a, b}) for a in range(n) for b in range(a + 1, n)]
        for e in sorted(g.edges):
            for cap in caps:
                assert _split(g, cap, e) == split_parts_scan(g, cap, e), (i, cap, e)


def _from_top(g: Graph, cap: frozenset[int], top: int):
    """``_cap_context`` on the cap ``cap``, a set, leveled from the top."""
    return _cap_context(g, vertex_mask(cap), top, ((1 << top,), 1 << top))


def _cap_chains(g: Graph, cap: frozenset[int], top: int):
    """The cap's chain pairs as ``solve`` reads them from its context: the
    residual's view and leveling, with the tail hung."""
    view, lv, tail, attachment = _from_top(g, cap, top)
    return bordering_chains(view, lv, tail, attachment)


def _pt6_true_decomposition(pt6_graph):
    # The true boundary's cap chains and part paths for top 0, split edge (3, 4).
    (cap,) = _caps(pt6_graph, 0, (3, 4))
    (cap_chains,) = _cap_chains(pt6_graph, cap, 0)
    return cap_chains, (2, 3), (4,)


def test_cap_borderings_pt6(pt6_graph):
    cap_chains, path_a, path_b = _pt6_true_decomposition(pt6_graph)
    assert cap_chains == ((0, 1), (0, 5))
    cycle = assemble_hamiltonian(pt6_graph, cap_chains, path_a, path_b)
    assert cycle.order == (0, 1, 2, 3, 4, 5)
    # Decided from the top 0: the left chain runs on to the joint 2.
    chains = _reading(pt6_graph, cycle.order, (0,))
    assert chains == ((0, 1, 2), (2, 3, 4), (0, 5, 4))
    assert verify_candidate(pt6_graph, PseudoTriangleSolution(cycle, chains))


def test_assemble_rejects_missing_edge(pt6_graph):
    cap_chains, path_a, path_b = _pt6_true_decomposition(pt6_graph)
    broken = Graph(6, frozenset(set(pt6_graph.edges) - {(4, 5)}))
    assert assemble_hamiltonian(broken, cap_chains, path_a, path_b) is None


def test_cap_context_hangs_tail_below_its_attachment():
    # Cap {0, 1, 2, 3}: the triangle 0-1-2 levels from the top 0, and 3 hangs
    # off 2 as a tail, so it goes below 2 on 2's side.
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert _cap_chains(g, frozenset(range(4)), 0) == [((0, 1), (0, 2, 3))]


def test_cap_context_tail_at_the_top():
    # Cap {0, 1}: the top 0 has degree 1 too, but is never a tail end, so 1
    # is the tail and hangs below the top on the first side.
    g = Graph.from_edges(2, [(0, 1)])
    assert _cap_chains(g, frozenset({0, 1}), 0) == [((0, 1), (0,))]


def test_cap_context_two_loose_ends_rejected():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert _from_top(g, frozenset(range(4)), 0) is None


@pytest.mark.parametrize(
    "edges, part, end, want",
    [
        # A chordless path ending at ``end``, read from its other end.
        ([(0, 1), (1, 2), (2, 3)], {1, 2, 3}, 3, [(1, 2, 3)]),
        ([(0, 1), (1, 2), (2, 3)], {1, 2, 3}, 1, [(3, 2, 1)]),
        # ``end`` inside the path: no reading ends there.
        ([(0, 1), (1, 2), (2, 3)], {1, 2, 3}, 2, []),
        ([(0, 1)], {1}, 1, [(1,)]),
        ([(0, 1)], {1}, 0, []),
    ],
    ids=["path", "path-reversed", "interior-end", "singleton", "end-outside"],
)
def test_part_paths_direct_readings(edges, part, end, want):
    g = Graph.from_edges(4, edges)
    assert part_paths(g, vertex_mask(part), end) == want


def test_part_paths_pseudo_tower_part():
    # The part {1, .., 5} is the tower 1-2-3-4 (1 is its apex) with the tail 5
    # hanging off 4; it goes to the pseudo-tower solver.  Its two readings
    # have chains ending at 5, 2 and 3, never at 4.
    edges = [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5)]
    g = Graph.from_edges(6, edges)
    part = vertex_mask(range(1, 6))

    assert part_paths(g, part, 5) == [(2, 1, 3, 4, 5), (3, 1, 2, 4, 5)]
    assert part_paths(g, part, 3) == [(5, 4, 2, 1, 3)]
    assert part_paths(g, part, 4) == []


def test_odd_cycle_cap_counted_once(monkeypatch):
    # The cap {0, .., 6} levels from 0 as {0}, {1, 2}, {3, 4}, {5, 6}, but 1
    # sees 5 and 6 two levels down, so the constraints 1-5, 1-6 and 5-6 make
    # a triangle.  The split edge (7, 8) leaves two one-vertex parts, which
    # have paths, so the cap is rejected only when its chains are read.
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (1, 5), (1, 6)]
    edges += [(3, 5), (3, 6), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7), (5, 8), (6, 8), (7, 8)]
    g = Graph.from_edges(9, edges)
    cap = frozenset(range(7))
    walked = extract_cap(g, 0, (7, 8))
    assert list(map(vertex_set, walked)) == [cap]
    assert _from_top(g, cap, 0) is not None
    assert cap_chains_scan(g, cap, 0) is None
    with pytest.raises(NotTowerError):
        _cap_chains(g, cap, 0)
    assert _split(g, cap, (7, 8)) == ({7}, {8})

    # Only this (split edge, cap) reaches the search; every other edge of
    # every top is cap_rejected.
    monkeypatch.setattr(
        pseudotriangle, "extract_cap",
        lambda g, top, e: walked if (top, e) == (0, (7, 8)) else {},
    )
    stats: dict[str, int] = {}
    assert solve_pseudo_triangle(g, stats) == []
    assert stats["cap_not_tower"] == 1
    assert not {"split_rejected", "part_rejected", "assembly_rejected"} & stats.keys()


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
    sol = PseudoTriangleSolution(
        canonicalize((0, 1, 2, 3, 4, 5)), ((5, 0, 1), (1, 2, 3), (5, 4, 3))
    )
    assert sol.joints == (5, 1, 3)
    assert not verify_candidate(pt6_graph, sol)


def test_verify_candidate_rejects_chains_off_the_cycle():
    # The chains pass the chain conditions, but only the first of g's 6
    # Hamiltonian cycles is their walk; every other cycle is rejected.  By
    # the witness rule the left chain runs from the top 2 in the canonical
    # direction.
    g = visibility_graph(gen_pseudo_triangle(7, 1))
    sol = solve_pseudo_triangle(g)[0]
    assert sol.cycle.order == tuple(range(7))
    assert sol.chains == ((2, 3, 4, 5, 6), (6, 0), (2, 1, 0))
    assert sol.joints == (2, 6, 0)
    assert verify_candidate(g, sol)
    others = [c for c in brute_hamiltonian_cycles(g) if c != sol.cycle.order]
    assert len(others) == 5 and (0, 3, 2, 1, 4, 5, 6) in others
    for cycle in others:
        assert not verify_candidate(g, dataclasses.replace(sol, cycle=canonicalize(cycle)))


def test_verify_cycle_corrupted_graph_flagged(pt6_graph):
    assert verify_cycle(pt6_graph, (0, 1, 2, 3, 4, 5))
    corrupted = Graph(6, frozenset(set(PT6_EDGES) - {(1, 3)}))
    assert not verify_cycle(corrupted, (0, 1, 2, 3, 4, 5))


def test_verify_cycle_rejects_non_cycle(pt6_graph):
    assert not verify_cycle(pt6_graph, (0, 2, 4, 1, 3, 5))


def _toggle_chords(g: Graph, seed: int) -> Graph:
    # Add or remove one or two non-boundary edges, so that the boundary order
    # stays a cycle of the graph and every joint triple is in play.
    rng = random.Random(f"chords:{g.n}:{seed}")
    edges = set(g.edges)
    chords = [(u, v) for u in range(g.n) for v in range(u + 2, g.n) if (u, v) != (0, g.n - 1)]
    for e in rng.sample(chords, rng.randint(1, 2)):
        edges ^= {e}
    return Graph(g.n, frozenset(edges))


def test_verify_cycle_matches_scan():
    # The pruned scan gives the verdict of the full triple scan.
    verdicts = []
    for n, seed in [(5, 0), (8, 1), (11, 2), (14, 3), (17, 4), (20, 5)]:
        for poly in (gen_tower(n, seed), gen_pseudo_triangle(n, seed)):
            g = visibility_graph(poly)
            for h in [g] + [_toggle_chords(g, s) for s in range(4)]:
                verdict = verify_cycle(h, range(n))
                assert verdict == verify_cycle_scan(h, range(n))
                verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def _splits(cycle: tuple[int, ...]):
    """Every (left, bottom, right) split of a cycle, top joint first."""
    n = len(cycle)
    ring = cycle + cycle
    for i in range(n):
        for j in range(i + 1, i + n - 1):
            for k in range(j + 1, i + n):
                yield ring[i : j + 1], ring[j : k + 1], ring[k : i + n + 1][::-1]


def test_top_neighborhood_admits_every_top_joint():
    # Brute force: whatever split of whatever Hamiltonian cycle passes the
    # necessary conditions, its side chains' first vertices are a pair of its
    # top joint.
    passed = rejected = 0
    for g in brute_force_graphs():
        pairs = [[vertex_set(p) for p in _top_pairs(g, v)] for v in range(g.n)]
        rejected += pairs.count([])
        for cycle in brute_hamiltonian_cycles(g):
            for left, bottom, right in _splits(cycle):
                if _necessary_conditions(g, (left, bottom, right)):
                    passed += 1
                    assert frozenset((left[1], right[1])) in pairs[left[0]], (g.edges, left, right)
    assert passed > 200 and rejected > 100


def test_top_pairs_match_scan():
    # Every pair, once, on every vertex, against a scan of every pair.
    found = 0
    for g in brute_force_graphs():
        for v in range(g.n):
            pairs = [vertex_set(p) for p in _top_pairs(g, v)]
            assert len(set(pairs)) == len(pairs)
            assert set(pairs) == top_pairs_scan(g, v), (g.edges, v)
            found += len(pairs)
    assert found > 1000


def _arcs_beside(order: tuple[int, ...], top: int, cap: int, e: tuple[int, int]):
    """If the cap mask ``cap`` is an arc of the cycle ``order`` through the
    top and ``e`` an edge of the arc left over, the two arcs beside ``e``,
    each as a vertex set, ``e[0]``'s first; else None."""
    at = order.index(top)
    rest = [v for v in order[at:] + order[:at] if not cap >> v & 1]
    if not cap >> top & 1 or not set(e) <= set(rest):
        return None
    ring = order + order
    start = ring.index(rest[0], at)
    if ring[start : start + len(rest)] != tuple(rest):  # the rest is no arc
        return None
    i, j = rest.index(e[0]), rest.index(e[1])
    if abs(i - j) != 1:
        return None
    if i < j:
        return frozenset(rest[: i + 1]), frozenset(rest[j:])
    return frozenset(rest[i:]), frozenset(rest[: j + 1])


def test_admitted_split_edge_carries_every_reading():
    # The split-edge lemma of the module docstring: for every stored reading
    # whose top has degree 3 or more, some edge that the top's joint pairs
    # admit has a cap that is an arc of the cycle through the top, and
    # split_parts cuts the rest into the two arcs beside the edge.
    checked = {3: 0, 4: 0}
    for r in (r for name in SETS for r in graph_set(name)):
        g = r.graph
        for s in r.triangles or ():
            top = s.chains[0][0]
            if g.degree(top) < 3:
                continue
            admitted = _split_edges(g, top, _top_pairs(g, top), sorted(g.edges))
            splits = [(_arcs_beside(s.cycle.order, top, cap, e), _split(g, vertex_set(cap), e))
                      for e in admitted for cap in extract_cap(g, top, e)]
            assert any(arcs is not None and arcs == parts for arcs, parts in splits), (r.id, s.chains)
            checked[min(g.degree(top), 4)] += 1
    assert checked[3] > 100 and checked[4] > 50, checked


@pytest.mark.parametrize("graphs", ["brute-force", "auto-mixed"])
def test_extract_cap_matches_walk(graphs):
    # Every split edge of every top gets the caps that the walk reads, however
    # wide the first level; and a cap in which the top sees one vertex levels
    # iff it is a chordless path hanging from the top.
    wide = hanging = not_hanging = 0
    for g, top, e, caps in cap_cases(graphs):
        walked = [vertex_mask(cap) for cap in extract_cap_walk(g, top, e)]
        assert [cap for cap, _ in caps] == walked, (g.edges, top, e)
        wide += len(g[top] - set(e)) > 2 and bool(caps)
        for cap, walk in caps:
            cap_set = vertex_set(cap)
            if len(g[top] & cap_set) == 1:
                levels = _cap_context(g, cap, top, walk) is not None
                assert levels == hangs_path(g, cap_set, top), (g.edges, top, cap_set)
                hanging += levels
                not_hanging += not levels
    assert wide > 100 and hanging > 100 and not_hanging > 100


@pytest.mark.parametrize("graphs", ["brute-force", "auto-mixed"])
def test_resumed_cap_context_matches_scan(graphs):
    # Every cap that passes the joint-pair test, leveled on from the walk
    # that read it, gets the context that the set-based tail walk and
    # leveling from the top give it: the residual, its levels, the tail and
    # the attachment.  Among them are caps read below level 2, with and
    # without a loose end off the walk's placed vertices.
    resumed = loose = 0
    pairs = {}
    for g, top, _, caps in cap_cases(graphs):
        if (id(g), top) not in pairs:
            pairs[id(g), top] = [vertex_set(p) for p in _top_pairs(g, top)]
        for cap, walk in caps:
            cap_set = vertex_set(cap)
            if not any(g[top] & cap_set <= p for p in pairs[id(g), top]):
                continue
            levels, placed = walk
            want = cap_context_scan(g, cap_set, top)
            if want is not None:
                view, lv, tail, attachment = want
                want = frozenset(view), lv, tail, attachment
            got = _cap_context(g, cap, top, walk)
            if got is not None:
                (_, within), lv, tail, attachment = got
                got = vertex_set(within), [vertex_set(lvl) for lvl in lv], tail, attachment
            assert got == want, (g.edges, top, cap_set)
            if len(levels) > 1 and want is not None:
                ends = [v for v in vertex_set(cap & ~placed) if len(g[v] & cap_set) == 1]
                resumed += not ends
                loose += bool(ends)
    assert resumed > 100 and loose > 10, (resumed, loose)


@pytest.mark.parametrize("graphs", ["brute-force", "auto-mixed"])
def test_two_firm_top_neighbors_never_level(graphs):
    # Wherever the top sees two non-adjacent cap vertices that each have
    # three or more cap neighbors, the cap does not level, so leveling alone
    # rejects it as cap_not_tower.  The caps are leveled from the top, since
    # ``cap_cases`` keeps no walk for most of them.
    fired = 0
    for g, top, _, caps in cap_cases(graphs):
        for cap, _ in caps:
            cap_set = vertex_set(cap)
            firm = [v for v in g[top] & cap_set if len(g[v] & cap_set) > 2]
            if any(not g.has_edge(a, b) for a, b in combinations(firm, 2)):
                assert _from_top(g, cap_set, top) is None, (g.edges, top, cap_set)
                fired += 1
    assert fired > 30, fired


@pytest.mark.parametrize("graphs", ["brute-force", "auto-mixed"])
def test_lazy_cap_chains_match_eager(graphs):
    # Every cap that solve levels has the chains that an eager reading gives,
    # and every cap whose chains solve reads gets them, or none on an odd
    # cycle of constraints.  A chain read is tied to its cap by its leveling.
    caps = reads = odd = 0
    for s in stage_log(graphs):
        read = {id(lv): pairs for (_, lv, _, _), pairs in s.calls["bordering_chains"]}
        leveled = [(top, cap, ctx) for (_, cap, top, _), ctx in s.calls["_cap_context"] if ctx]
        for top, cap, ctx in leveled:
            eager = cap_chains_scan(s.graph, vertex_set(cap), top)
            try:
                lazy = bordering_chains(*ctx)
            except NotTowerError:
                lazy = None
            assert lazy == eager, (s.graph.edges, top, cap)
            if id(ctx[1]) in read:
                assert read[id(ctx[1])] == eager, (s.graph.edges, top, cap)
        caps += len(leveled)
        reads += len(read)
        odd += list(read.values()).count(None)
    assert caps > 1.5 * reads > 300, (caps, reads)
    if graphs == "auto-mixed":
        assert odd > 0


@pytest.mark.parametrize("graphs", ["brute-force", "auto-mixed"])
def test_part_paths_match_scan(graphs):
    # Every (part, end) that solve reads gets the readings of the full
    # pseudo-tower solve, connectivity check and all.
    total = found = 0
    for s in stage_log(graphs):
        for (g, part, end), paths in s.calls["part_paths"]:
            assert paths == part_paths_scan(g, vertex_set(part), end), (g.edges, part, end)
            found += bool(paths)
        total += len(s.calls["part_paths"])
    assert total > found > 100, (total, found)


@pytest.mark.parametrize(
    "tail, end, want",
    [
        ([(3, 5), (5, 6)], 5, []),
        ([(3, 5), (5, 6), (6, 7)], 6, []),
        ([(3, 5), (5, 6), (6, 7)], 5, []),
        ([(3, 5)], 5, [(2, 1, 0, 4, 3, 5), (2, 4, 0, 1, 3, 5)]),
        ([(3, 5), (5, 6)], 3, []),
    ],
    ids=["through-degree-2", "through-long", "through-above", "only-loose-end", "tail-stops-at-end"],
)
def test_part_paths_where_walks_differ(tail, end, want):
    # The tower on 0..4 (apex 0, base 2-3) with a path hanging off 3, and
    # ``end`` on, above, below or at the foot of the path.  A tail through
    # ``end`` leaves no chain ending there.
    g = Graph(8, T5_EDGES | frozenset(tail))
    part = frozenset(v for v in range(8) if g[v])
    assert part_paths(g, vertex_mask(part), end) == part_paths_scan(g, part, end) == want


def _is_path(g: Graph, path: tuple[int, ...]) -> bool:
    return len(set(path)) == len(path) and all(g.has_edge(u, v) for u, v in zip(path, path[1:]))


@pytest.mark.parametrize("graphs", ["brute-force", "auto-mixed"])
def test_assembly_checks_only_junctions(graphs):
    # Every walk that solve assembles is a cycle of g iff its two junctions
    # are edges: the cap chains and part paths never leave g, and they
    # partition its vertices.
    verdicts = {True: 0, False: 0}
    for s in stage_log(graphs):
        for (g, cap_chains, path_a, path_b), cycle in s.calls["assemble_hamiltonian"]:
            left, right = cap_chains
            for path in (left, right, path_a, path_b):
                assert _is_path(g, path), (g.edges, cap_chains, path_a, path_b)
            walk = CycleCandidate((*left, *path_a, *reversed(path_b), *reversed(right[1:])))
            assert (cycle is not None) == is_cycle_in_graph(g, walk), (g.edges, walk)
            assert cycle is None or cycle == canonicalize(walk.order)
            verdicts[cycle is not None] += 1
    assert verdicts[True] > 400 and verdicts[False] > 400, verdicts


@pytest.mark.parametrize("graphs", ["brute-force", "auto-mixed"])
def test_stage_log_only_records(graphs):
    # The log's answers and stats, field for field, are those of a solve
    # without its wrappers, and the wrapped stages are restored.
    logged = [(s.triangles, s.stats) for s in stage_log(graphs)]
    if graphs == "auto-mixed":
        plain = [(r.triangles, r.stats) for r in graph_set(graphs)]
    else:
        plain = []
        for g in brute_force_graphs():
            stats: dict[str, int] = {}
            plain.append((solve_pseudo_triangle(g, stats), stats))
    assert logged == plain
    stages = (pseudotriangle._cap_context, pseudotriangle.bordering_chains, pseudotriangle.part_paths,
              pseudotriangle.assemble_hamiltonian, tower.bordering_constraints)
    assert stages == (_cap_context, bordering_chains, part_paths, assemble_hamiltonian, bordering_constraints)


def test_chain_conditions_match_scan():
    # Every split of every Hamiltonian cycle gets the pairwise scan's verdict,
    # from the chain check and from ``verify_candidate``; n <= 8 keeps it to
    # about 16,000 splits.  Once per graph, chains that pass are paired with
    # another of its Hamiltonian cycles, which they do not walk.
    verdicts = {True: 0, False: 0}
    off_cycle = 0
    for g in (g for g in brute_force_graphs() if g.n <= 8):
        cycles = brute_hamiltonian_cycles(g)
        passing = None
        for cycle in cycles:
            for chains in _splits(cycle):
                verdict = _necessary_conditions(g, chains)
                assert verdict == chain_conditions_scan(g, chains), (g.edges, chains)
                sol = PseudoTriangleSolution(canonicalize(cycle), chains)
                assert verify_candidate(g, sol) == verdict, (g.edges, chains)
                verdicts[verdict] += 1
                if verdict and passing is None:
                    passing = sol
        if passing is not None and len(cycles) > 1:
            other = next(c for c in cycles if c != passing.cycle.order)
            assert not verify_candidate(g, dataclasses.replace(passing, cycle=canonicalize(other)))
            off_cycle += 1
    assert verdicts[True] > 200 and verdicts[False] > 10000 and off_cycle > 10


@pytest.mark.parametrize(
    "chains",
    [
        ((0,), (0, 1, 2, 3, 4), (0, 5, 4)),  # a one-vertex side chain
        ((0, 1, 2), (2,), (0, 5, 4, 3, 2)),  # a one-vertex bottom chain
        ((0, 1, 2), (2, 3, 4), (0, 4)),  # 5 is on no chain
        ((0, 1, 2), (2, 1, 3, 4), (0, 5, 4)),  # 1 is on two chains, not as a joint
        ((0, 1, 2, 3), (3, 4), (0, 5, 3, 4)),  # 3 is on all three chains
        ((0, 1, 2), (3, 2, 4), (0, 5, 4)),  # the left chain ends off the bottom's start
        ((0, 1, 2), (2, 3, 4), (5, 0, 4)),  # the side chains start apart
        ((), (0, 1, 2, 3, 4), (0, 5, 4)),  # an empty chain
    ],
    ids=["one-vertex-side", "one-vertex-bottom", "uncovered", "overlap", "overlap-all",
         "wrong-joint", "wrong-top", "empty"],
)
def test_chain_conditions_reject_malformed(pt6_graph, chains):
    # Without edges, no chord or split neighborhood can reject the triple,
    # so only the structure test is left to do it.
    for g in (pt6_graph, Graph(6, frozenset())):
        assert chain_conditions_scan(g, chains) is False
        assert _necessary_conditions(g, chains) is False


def test_chain_conditions_reject_repeated_vertex(k3):
    # Without edges the scan has no chord to find and accepts the repeat;
    # ``_necessary_conditions`` rejects it on any graph.
    edgeless = Graph(3, frozenset())
    chains = ((0, 1), (1, 2, 1, 2), (0, 2))
    assert chain_conditions_scan(edgeless, chains)
    for g in (edgeless, k3):
        assert _necessary_conditions(g, chains) is False
    assert _necessary_conditions(edgeless, ((0, 1), (1, 2), (0, 2)))


def _top_with(nbr_edges: list[tuple[int, int]], d: int) -> Graph:
    # Vertex 0 sees 1..d, which see each other along ``nbr_edges``.
    return Graph.from_edges(d + 1, [(0, v) for v in range(1, d + 1)] + nbr_edges)


@pytest.mark.parametrize(
    "g",
    [
        # After any two neighbors are taken out, a path and a disjoint edge
        # (or more pieces) are left.
        _top_with([(1, 2), (2, 3), (4, 5), (6, 7)], 7),
        # The pairs whose removal leaves the right edge count leave a
        # triangle beside an isolated vertex.
        _top_with([(1, 2), (2, 3), (1, 3)], 6),
        # ... or a claw.
        _top_with([(1, 2), (1, 3), (1, 4)], 6),
        # A degree-1 top has no two neighbors to start its side chains.
        Graph.from_edges(3, [(0, 1), (1, 2)]),
    ],
    ids=["path-and-edge", "triangle", "claw", "degree-1"],
)
def test_top_neighborhood_rejects(g):
    assert _top_pairs(g, 0) == []


@pytest.mark.parametrize("degenerate", [False, True])
def test_solve_matches_brute_force(degenerate):
    # Exact oracle: the readings are the Hamiltonian cycles that pass the
    # reference chain conditions for some joint triple, no more and no fewer.
    for n in range(6 if degenerate else 5, 11):
        for seed in range(10):
            g = visibility_graph(gen_pseudo_triangle(n, seed, degenerate))
            assert {s.cycle.order for s in solve_pseudo_triangle(g)} == spec_cycles(g), (n, seed)


def test_solve_matches_spec_on_mutated_graphs():
    # Criterion 7's mutated graphs lie one edge away from a generated
    # visibility graph, so they check the answer set beyond that family.
    small = [r for r in graph_set("mutated") if r.graph.n <= 10]
    for r in small:
        assert {s.cycle.order for s in r.triangles} == spec_cycles(r.graph), r.id
    assert len(small) == 78


def test_solve_matches_spec_on_random_graphs():
    for n in range(4, 9):
        for extra in range(0, 2 * n + 1, 2):
            for seed in range(5):
                g = random_connected_graph(n, extra, seed)
                solved = {s.cycle.order for s in solve_pseudo_triangle(g)}
                assert solved == spec_cycles(g), (n, extra, seed)


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


# Pseudo-triangles outside the generators' family, true boundary ``range(n)``;
# joints 0, 4, 7 and 0, 6, 12.  The n=8 one is assembled from a top that
# ``solve`` tries, with a side joint inside a chordless-path part.  The top
# rule misses the n=16 one (ROADMAP item 1).
_TOP_RULE_MISSES = {
    8: ((11, 20), (9, 14), (6, 8), (3, 4), (-5, -2), (-4, -3), (2, -10), (3, -15)),
    16: (
        (273188, 410723), (62938, -37094), (-37689, -172557), (-214758, -351888),
        (-721044, -643936), (-741420, -651385), (-804458, -672891), (-648794, -630835),
        (-508103, -608162), (-507557, -608102), (-189524, -609788), (-168680, -612424),
        (-3487, -644161), (3895, -588769), (37454, -385368), (181834, 165119),
    ),
}


def _top_rule_miss(n: int) -> Polygon:
    return Polygon(tuple(Point(x, y) for x, y in _TOP_RULE_MISSES[n]))


@pytest.mark.parametrize("n", sorted(_TOP_RULE_MISSES))
def test_top_rule_misses_are_pseudo_triangles(n):
    poly = _top_rule_miss(n)
    assert poly.n == n and len(convex_vertex_indices(poly)) == 3
    assert verify_cycle_scan(visibility_graph(poly), range(n))


@pytest.mark.parametrize(
    "n",
    [
        8,
        pytest.param(
            16,
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1: top rule misses the joint"),
        ),
    ],
)
def test_top_rule_misses_recovered(n):
    poly = _top_rule_miss(n)
    sols = solve_pseudo_triangle(visibility_graph(poly))
    assert boundary_cycle(poly).order in [s.cycle.order for s in sols]


@pytest.mark.parametrize("n", [8, 12, 16, 24, 32, 48])
def test_arc_pseudo_triangles_recovered(n):
    # A second family: three concave arcs between random corners, 40 fixed
    # seeds per size.  The truth is among the readings.
    misses = []
    for seed in range(40):
        poly = arc_pseudo_triangle(n, seed)
        sols = solve_pseudo_triangle(visibility_graph(poly))
        if boundary_cycle(poly).order not in [s.cycle.order for s in sols]:
            misses.append(seed)
    assert misses == []


def test_solution_witness_rule():
    # Each reading's chains are those that ``_reading`` finds from its top
    # joint, with the cycle rotated so that the top comes first.
    checked = 0
    for n, seed in [(9, 0), (12, 1), (16, 2), (24, 3)]:
        g = visibility_graph(gen_pseudo_triangle(n, seed))
        for s in solve_pseudo_triangle(g):
            order = s.cycle.order
            at = order.index(s.joints[0])
            assert s.chains == _reading(g, order[at:] + order[:at], (0,))
            checked += 1
    assert checked >= 4


def test_solution_chains_concatenate_to_cycle(pt6_graph):
    for s in solve_pseudo_triangle(pt6_graph):
        left, bottom, right = s.chains
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
    # Every cap bordering is checked, however many constraint components the
    # cap has, and no stat reports a sweep: the ten-level ladder keeps all 512
    # readings, the same cycles as the tower solver finds.
    stats: dict[str, int] = {}
    assert len(solve_pseudo_triangle(_ladder(8), stats)) == 128
    g = _ladder(10)
    sols = solve_pseudo_triangle(g, stats)
    assert "bordering_swept" not in stats
    assert len(sols) == 512
    assert all(verify_candidate(g, s) for s in sols)
    assert [s.cycle for s in sols] == solve_tower(g)
