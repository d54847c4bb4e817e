"""Undirected simple graphs, graph-file parsing and Hamiltonian-cycle utilities.

Vertices are dense 0-based integers.  Graphs are immutable after construction;
every operation here is a pure function, so values can be shared freely across
threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping
from functools import cached_property
from typing import AbstractSet, Iterable, Iterator, Sequence


class GraphParseError(ValueError):
    """A graph file is malformed; the message names the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


NbrSets = Mapping[int, AbstractSet[int]]  # each vertex, in any ids, to its neighbor set
NbrView = tuple[Sequence[int] | Mapping[int, int], int]
"""A graph's neighbor view, ``(bits, within)``, in its caller's vertex ids:
bit u of ``bits[v]`` is set iff u and v are adjacent, and the view is the
subgraph that the vertex mask ``within`` induces, so v's neighbors in it are
``bits[v] & within``.  Restricting it to a vertex mask ``part`` is one ``&``,
``(bits, within & part)``, and renumbers nothing."""


def low(mask: int) -> int:
    """The least vertex of a nonempty vertex mask."""
    return (mask & -mask).bit_length() - 1


def members(mask: int) -> list[int]:
    """The vertices of a vertex mask, least first, as a list.  The
    innermost loops write this bit walk inline instead."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return out


@dataclass(frozen=True)
class Graph(Mapping[int, frozenset[int]]):
    """Undirected simple graph on vertices 0..n-1.

    ``edges`` holds each edge once as a sorted pair.  The graph is also a
    read-only mapping from each vertex to its neighbor set (``g[v]``), built
    on construction; hot kernels read the plain dict ``_nbrs``, sparing a
    ``__getitem__`` call per lookup.  The solvers' views read ``bits``,
    built on first use, so parsing and verifying never pay for it.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    _nbrs: dict[int, frozenset[int]] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) not stored in sorted order")
            nbrs[u].add(v)
            nbrs[v].add(u)
        object.__setattr__(self, "_nbrs", {v: frozenset(s) for v, s in enumerate(nbrs)})

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        seen: set[tuple[int, int]] = set()
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = _norm(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        return cls(n, frozenset(seen))

    @property
    def m(self) -> int:
        return len(self.edges)

    def __getitem__(self, v: int) -> frozenset[int]:
        return self._nbrs[v]

    def __iter__(self) -> Iterator[int]:
        return iter(self._nbrs)

    def __len__(self) -> int:
        return self.n

    @cached_property
    def bits(self) -> tuple[int, ...]:
        """Bit u of ``bits[v]`` is set iff u and v are adjacent."""
        bit = [1 << u for u in range(self.n)]
        return tuple(sum(map(bit.__getitem__, nb)) for nb in self._nbrs.values())

    def degree(self, v: int) -> int:
        return len(self._nbrs[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._nbrs[u]


@dataclass(frozen=True)
class CycleCandidate:
    """A Hamiltonian cycle in canonical (rotation/reflection-normalized) form.

    Canonical form: starts at the smallest id, and the second element is the
    smaller of the first element's two cyclic neighbors.
    """

    order: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(self.order)


def canonicalize(order: Sequence[int]) -> CycleCandidate:
    """Normalize a vertex sequence describing an undirected cycle.

    Two sequences describing the same cycle up to rotation and reflection
    canonicalize identically.  Raises ValueError if ``order`` is not a
    permutation of 0..len-1.
    """
    n = len(order)
    if sorted(order) != list(range(n)):
        raise ValueError("not a permutation of 0..n-1")
    if n == 0:
        return CycleCandidate(())
    seq = list(order)
    k = seq.index(0)
    seq = seq[k:] + seq[:k]
    if n >= 3 and seq[-1] < seq[1]:
        seq = [seq[0]] + seq[:0:-1]
    return CycleCandidate(tuple(seq))


def is_cycle_in_graph(g: Graph, c: CycleCandidate) -> bool:
    """True iff ``c`` is a permutation of g's n >= 3 vertices and every
    cyclically consecutive pair of it is an edge of ``g``."""
    order = c.order
    if g.n < 3 or sorted(order) != list(range(g.n)):
        return False
    nbr = g._nbrs
    return all(b in nbr[a] for a, b in zip(order, order[1:] + order[:1]))


def view_of(nbrs: NbrSets) -> NbrView:
    """The ``NbrView`` of a graph or of any ``NbrSets`` mapping."""
    if isinstance(nbrs, Graph):
        return nbrs.bits, (1 << nbrs.n) - 1
    return {v: sum(1 << u for u in nb) for v, nb in nbrs.items()}, sum(1 << v for v in nbrs)


def bfs_layers(bits: Sequence[int] | Mapping[int, int], start: int, within: int) -> list[int]:
    """Breadth-first layers, as vertex masks, from ``start`` (the first
    layer, in ``within`` or not) through the vertices of the mask ``within``.
    The layers are disjoint, so their sum is the component of ``start``.
    """
    layer = 1 << start
    rest = within & ~layer
    layers = [layer]
    while True:
        reached = 0
        while layer:
            bit = layer & -layer
            reached |= bits[bit.bit_length() - 1]
            layer ^= bit
        layer = reached & rest
        if not layer:
            return layers
        rest ^= layer
        layers.append(layer)


def connected_components(nbrs: NbrSets) -> list[frozenset[int]]:
    """Partition of the vertex set into maximal connected sets, sorted by smallest member."""
    bits, rest = view_of(nbrs)
    comps: list[frozenset[int]] = []
    while rest:
        comp = sum(bfs_layers(bits, low(rest), rest))
        comps.append(frozenset(members(comp)))
        rest ^= comp
    return comps


def is_connected(view: NbrView) -> bool:
    bits, within = view
    return not within or sum(bfs_layers(bits, low(within), within)) == within


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices`` plus the id map back to ``g``.

    Returns ``(sub, old_of)`` where ``old_of[new_id] = old_id``; new ids follow
    the sorted order of the old ones.
    """
    old_of = tuple(sorted(set(vertices)))
    for v in old_of:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    new_of = {old: new for new, old in enumerate(old_of)}
    keep = set(old_of)
    edges = frozenset(
        (new_of[u], new_of[v]) for u, v in g.edges if u in keep and v in keep
    )
    return Graph(len(old_of), edges), old_of


def data_lines(text: str) -> list[tuple[int, str]]:
    """The lines of a graph or polygon file that carry data, stripped, each
    with its 1-based line number; blank lines and ``#`` comments are skipped.
    """
    return [
        (line_no, stripped)
        for line_no, raw in enumerate(text.splitlines(), start=1)
        if (stripped := raw.strip()) and not stripped.startswith("#")
    ]


def parse_graph(text: str) -> Graph:
    """Parse a graph file: ``n m`` then m lines ``u v``; ``#`` lines are comments."""
    data = data_lines(text)
    if not data:
        raise GraphParseError(1, "missing header 'n m'")

    head_no, head = data[0]
    parts = head.split()
    if len(parts) != 2:
        raise GraphParseError(head_no, f"expected 'n m', got {head!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError(head_no, f"expected integers in header, got {head!r}") from None
    if n < 0 or m < 0:
        raise GraphParseError(head_no, "n and m must be non-negative")

    body = data[1:]
    if len(body) != m:
        where = body[-1][0] if body else head_no
        raise GraphParseError(where, f"expected {m} edge lines, found {len(body)}")

    edges: set[tuple[int, int]] = set()
    for line_no, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(line_no, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(line_no, f"expected integers, got {line!r}") from None
        if u == v:
            raise GraphParseError(line_no, f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(line_no, f"vertex id out of range in ({u}, {v})")
        e = _norm(u, v)
        if e in edges:
            raise GraphParseError(line_no, f"duplicate edge {e}")
        edges.add(e)
    return Graph(n, frozenset(edges))


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph up to comment/ordering normalization."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
