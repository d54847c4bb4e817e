import pytest

from polyvis import Graph, Polygon


def vertex_set(mask: int) -> frozenset[int]:
    """The vertices of a vertex mask (bit v set iff v is in it), so that a
    test compares the solvers' masks with plain sets."""
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def vertex_mask(vertices) -> int:
    """The vertex mask of a set of vertices; the inverse of ``vertex_set``."""
    return sum(1 << v for v in set(vertices))


# Hand-checked tower: apex 0, base corners 2 and 3.
T5_POINTS = ((0, 4), (-1, 2), (-3, 0), (3, 0), (1, 2))
T5_EDGES = frozenset(
    {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4), (1, 3), (2, 4)}
)

# Hand-checked pseudo-triangle: joints 0 (apex), 2 and 4; one bottom dent at 3.
PT6_POINTS = ((0, 6), (-1, 3), (-4, 0), (0, 1), (4, 0), (1, 3))
PT6_EDGES = frozenset(
    {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
     (0, 3), (1, 3), (1, 4), (1, 5), (2, 5), (3, 5)}
)


@pytest.fixture
def t5_polygon() -> Polygon:
    return Polygon(T5_POINTS)


@pytest.fixture
def t5_graph() -> Graph:
    return Graph(5, T5_EDGES)


@pytest.fixture
def pt6_polygon() -> Polygon:
    return Polygon(PT6_POINTS)


@pytest.fixture
def pt6_graph() -> Graph:
    return Graph(6, PT6_EDGES)


@pytest.fixture
def k3() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
