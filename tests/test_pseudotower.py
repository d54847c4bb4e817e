import pytest

from polyvis import (
    Graph,
    NotPseudoTowerError,
    PseudoTowerSolution,
    gen_pseudo_tower,
    solve_pseudo_tower,
)
from polyvis.graph import view_of
from polyvis.pseudotower import extract_tail

from conftest import T5_EDGES, vertex_set


def _tail(nbrs, top=None):
    """``extract_tail`` on the view of a graph or neighbor-set mapping, with
    the residual as a set."""
    tail, residual = extract_tail(view_of(nbrs), top)
    return tail, vertex_set(residual)


def _t5_with_pendant() -> Graph:
    return Graph.from_edges(7, sorted(T5_EDGES) + [(2, 5), (5, 6)])


def test_extract_tail_pure_tower(t5_graph):
    tail, residual = _tail(t5_graph)
    assert tail == ()
    assert residual == frozenset(range(5))


def test_extract_tail_pendant():
    g = _t5_with_pendant()
    tail, residual = _tail(g)
    assert tail == (6, 5)
    assert residual == frozenset({0, 1, 2, 3, 4})


def test_extract_tail_star_rejected():
    # The scan counts every degree-1 vertex, not only the first two.
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NotPseudoTowerError, match="3 degree-1 vertices, expected at most 1"):
        _tail(star)


def test_extract_tail_top_of_degree_one():
    # The cap {top, p}: both ends have degree 1, but the top is never a tail
    # end, so p is the tail and the residual keeps the top alone.
    view = {4: frozenset({9}), 9: frozenset({4})}
    assert _tail(view, 4) == ((9,), frozenset({4}))
    with pytest.raises(NotPseudoTowerError):
        _tail(view)


def test_extract_tail_stops_at_degree_two_top():
    # 5 - 4 - 0 - 1 with the triangle 1-2-3 below: without a top the walk
    # runs on through the degree-2 vertex 0; with top 0 it stops there.
    g = Graph.from_edges(6, [(0, 1), (0, 4), (4, 5), (1, 2), (1, 3), (2, 3)])
    assert _tail(g) == ((5, 4, 0), frozenset({1, 2, 3}))
    assert _tail(g, 0) == ((5, 4), frozenset({0, 1, 2, 3}))


def test_extract_tail_top_ends_chordless_path():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert _tail(path, 3) == ((0, 1, 2), frozenset({3}))
    with pytest.raises(NotPseudoTowerError):
        _tail(path, 1)  # two loose ends besides the top


def test_extract_tail_cycle_is_empty():
    cycle = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert _tail(cycle) == ((), frozenset(range(6)))
    assert _tail(cycle, 2) == ((), frozenset(range(6)))


def test_extract_tail_path_rejected():
    path = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    with pytest.raises(NotPseudoTowerError, match="2 degree-1 vertices"):
        _tail(path)


def test_solve_pure_tower_two_solutions(t5_graph):
    sols = solve_pseudo_tower(t5_graph)
    assert len(sols) == 2
    assert {s.chain_key() for s in sols} == {
        ((0, 1, 2), (0, 4, 3)),
        ((0, 1, 3), (0, 4, 2)),
    }
    assert all(s.tail == () for s in sols)


def test_solve_pendant_fixture():
    g = _t5_with_pendant()
    sols = solve_pseudo_tower(g)
    assert len(sols) == 2
    for s in sols:
        assert s.tail == (6, 5)
        tail_chain = next(c for c in s.chains if c[-1] == 6)
        assert tail_chain[-3:] == (2, 5, 6)
    # chains cover the vertex set and share only the top
    for s in sols:
        c1, c2 = s.chains
        assert set(c1) | set(c2) == set(range(7))
        assert set(c1) & set(c2) == {c1[0]} == {c2[0]}


@pytest.mark.parametrize("n", [0, 1, 2])
def test_solve_too_few_vertices_rejected(n):
    g = Graph.from_edges(n, [(0, 1)] if n == 2 else [])
    with pytest.raises(NotPseudoTowerError, match="at least 3 vertices"):
        solve_pseudo_tower(g)


def test_solve_disconnected_rejected():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(NotPseudoTowerError):
        solve_pseudo_tower(g)


@pytest.mark.parametrize("n", [5, 8, 12, 19, 26, 30])
@pytest.mark.parametrize("seed", [0, 1])
def test_generated_round_trip(n, seed):
    inst = gen_pseudo_tower(n, seed)
    degrees = [inst.graph.degree(v) for v in range(inst.graph.n)]
    assert degrees.count(1) == 1
    assert inst.tail
    sols = solve_pseudo_tower(inst.graph)
    truth = tuple(sorted(inst.chains))
    assert any(tuple(sorted(s.chains)) == truth for s in sols)


def test_generated_chains_reconstruct_vertices():
    inst = gen_pseudo_tower(14, 3)
    for s in solve_pseudo_tower(inst.graph):
        c1, c2 = s.chains
        combined = list(c1) + list(c2[1:])
        assert sorted(combined) == list(range(inst.graph.n))


def _relabel_inputs() -> list[tuple[str, Graph]]:
    """Generated pseudo-towers, the tower fixtures, and every one-edge flip
    (an edge removed or a non-edge added) of each."""
    bases = [(f"gen-n{n}-s{seed}", gen_pseudo_tower(n, seed).graph)
             for n in (8, 12, 20) for seed in range(5)]
    bases += [("t5", Graph(5, T5_EDGES)), ("t5-pendant", _t5_with_pendant())]
    out = list(bases)
    for name, g in bases:
        for u in range(g.n):
            for v in range(u + 1, g.n):
                out.append((f"{name}-flip{u}-{v}", Graph(g.n, g.edges ^ {(u, v)})))
    return out


def _mapped(v: int) -> int:
    return 3 * v + 1  # monotone and sparse: ids keep their order, not their values


def _outcome(fn, arg):
    try:
        return fn(arg)
    except NotPseudoTowerError:
        return "rejected"


def test_view_solver_ignores_vertex_ids():
    """On a relabelled neighbor-set view (keys in descending order, so no
    answer can lean on insertion order) both entry points give exactly the
    relabelled answers of the Graph call, or both reject."""
    solved = 0
    for name, g in _relabel_inputs():
        view = {
            _mapped(v): frozenset(_mapped(w) for w in g[v])
            for v in reversed(range(g.n))
        }

        want = _outcome(solve_pseudo_tower, g)
        if want != "rejected":
            solved += 1
            want = [
                PseudoTowerSolution(
                    tuple(map(_mapped, s.tail)),
                    tuple(tuple(map(_mapped, c)) for c in s.chains),
                )
                for s in want
            ]
        assert _outcome(solve_pseudo_tower, view) == want, name

        want_tail = _outcome(_tail, g)
        if want_tail != "rejected":
            tail, residual = want_tail
            want_tail = (tuple(map(_mapped, tail)), frozenset(map(_mapped, residual)))
        assert _outcome(_tail, view) == want_tail, name
    assert solved >= 17  # every generated instance and both fixtures at least
