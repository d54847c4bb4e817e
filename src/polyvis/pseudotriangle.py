"""Pseudo-triangle boundary recovery from a visibility graph.

Pipeline: pick the minimum-degree vertices as top-joint candidates, try every
ordered non-incident edge as the split edge, carve the cap (the tower above
the split edge), split the remainder into two pseudo-tower parts, solve the
parts, prune the cap's chain assignments with the cross-visibility
constraints, and assemble + verify the boundary cycle.  Everything that fails
a necessary condition is dropped; the result is the deduplicated, canonically
sorted list of surviving boundary candidates.

Cap discovery is done once per top.  The levels grown from the top by the
rules of ``tower.level_sets`` form a branching tree whose states do not
depend on the split edge, so each state is expanded once and shared by every
edge (``_LevelTree``).  Each edge walks that tree without its own endpoints
and reads its caps off the states where its base shows up; ``extract_cap``
returns them as a sorted list of vertex sets.  Obeying the leveling rules
keeps the walk from emitting most of the caps that would then fail to level
as a tower.  Each walk has a state budget, which no corpus graph reaches; the
stats of ``solve`` count every walk it cuts short as ``cap_truncated``.

The cap's borderings are filtered once per decomposition.  Up to
``_EXHAUSTIVE_COMPONENTS`` constraint components every bordering is checked;
beyond that a sweep keeps at most one, and the stats of ``solve`` count each
such decomposition as ``bordering_swept``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .graph import (
    CycleCandidate,
    Graph,
    bfs_layers,
    canonicalize,
    induced_subgraph,
    is_connected,
    is_cycle_in_graph,
)
from .pseudotower import NotPseudoTowerError, solve_pseudo_tower
from .tower import (
    Bordering,
    BorderingGraph,
    Leveling,
    NotTowerError,
    bordering_constraints,
    enumerate_borderings,
    level_sets,
)


class NotPseudoTriangleError(ValueError):
    """The input cannot be the visibility graph of a pseudo-triangle."""


_BRANCH_CAP = 64  # cap-discovery states per split-edge walk: max(this, 4n)
_PART_LIMIT = 64  # boundary readings kept per side part
_EXHAUSTIVE_COMPONENTS = 7  # up to this, check every cap bordering directly


@dataclass(frozen=True)
class Chain:
    """One concave chain of the boundary; its endpoints are joints."""

    vertices: tuple[int, ...]

    @property
    def joints(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)


@dataclass(frozen=True)
class SplitDecomposition:
    """A split-edge decomposition: the cap above the split edge plus the two
    flanking parts.  Together they partition the vertices, ``top`` lies in the
    cap and ``split_edge[0]`` in ``part_a``.
    """

    top: int
    split_edge: tuple[int, int]
    cap: frozenset[int]
    part_a: frozenset[int]
    part_b: frozenset[int]


@dataclass(frozen=True)
class PartSolution:
    """A boundary reading of one side part: a Hamiltonian path of the part
    ending at its split-edge endpoint, plus the joint where the part's two
    chains meet (for chordless path parts the joint position is not determined
    by the graph and defaults to the path start).
    """

    path: tuple[int, ...]
    top: int


@dataclass(frozen=True)
class PseudoTriangleSolution:
    cycle: CycleCandidate
    chains: tuple[Chain, Chain, Chain]  # (left, bottom, right)
    joints: tuple[int, int, int]
    decomposition: SplitDecomposition


@dataclass(frozen=True)
class _CapContext:
    leveling: Leveling
    bg: BorderingGraph


def top_joint_candidates(g: Graph) -> frozenset[int]:
    """All minimum-degree vertices; in a pseudo-triangle graph they are joints
    and there are at most three of them.
    """
    if g.n < 3:
        raise NotPseudoTriangleError("need at least 3 vertices")
    dmin = min(g.degree(v) for v in range(g.n))
    cands = frozenset(v for v in range(g.n) if g.degree(v) == dmin)
    if len(cands) > 3:
        raise NotPseudoTriangleError(
            f"{len(cands)} minimum-degree vertices: not a pseudo-triangle visibility graph"
        )
    return cands


class _LevelTree:
    """The branching leveling from one top, shared by all its split edges.

    A state is ``(placed, current)``: the vertices leveled so far and the last
    level.  Its candidate next level (the unplaced common neighbors of
    ``current``) and its single-vertex successors do not depend on the split
    edge.  Both are computed once per state and read by every edge's walk,
    which also reuses the same state objects.  ``truncated`` counts the walks
    that the state budget cut short.
    """

    def __init__(self, g: Graph, top: int) -> None:
        self.g = g
        self.root = (frozenset({top}), frozenset({top}))
        self.truncated = 0
        self._cand: dict[tuple[frozenset[int], frozenset[int]], frozenset[int]] = {}
        self._singles: dict[tuple, tuple] = {}

    def cand(self, state: tuple[frozenset[int], frozenset[int]]) -> frozenset[int]:
        out = self._cand.get(state)
        if out is None:
            placed, current = state
            nbr = self.g.nbr_set
            out = frozenset.intersection(*(nbr(v) for v in current)) - placed
            self._cand[state] = out
        return out

    def singles(
        self, state: tuple[frozenset[int], frozenset[int]], p: int
    ) -> tuple[tuple[frozenset[int], tuple[frozenset[int], frozenset[int]]], ...]:
        """For each x in current: the unplaced neighbors of x other than p,
        and the state after the single-vertex level {p, x}.
        """
        key = (state, p)
        out = self._singles.get(key)
        if out is None:
            placed, current = state
            below = placed | {p}
            out = tuple(
                (self.g.nbr_set(x) - below, (below, frozenset({p, x})))
                for x in sorted(current)
            )
            self._singles[key] = out
        return out


def extract_cap(
    g: Graph, top: int, e: tuple[int, int], tree: _LevelTree | None = None
) -> list[frozenset[int]]:
    """Candidate caps for split edge ``e``, sorted by their sorted members.

    base = vertices adjacent to both endpoints of e; if the top is among them
    the cap is just the base.  Otherwise levels are grown from the top inside
    the graph minus e's endpoints by the rules of ``tower.level_sets``: a
    candidate level of more than two vertices ends the walk, a two-vertex
    level must be a clique, and a single-vertex level needs exactly one
    carrier.  A two-vertex candidate may also hold a flank vertex that sees
    the whole current level, so each member is tried alone as well.  Wherever
    a candidate level meets the base, everything placed so far plus the base
    is a cap.  An empty list rejects the edge.

    ``tree`` is the top's shared level tree; solve passes one per top so that
    the states are expanded once for all edges.  Each edge's walk expands at
    most max(_BRANCH_CAP, 4n) states; a walk cut short counts in
    ``tree.truncated``.
    """
    w0, w1 = e
    if top in e:
        raise ValueError("split edge must not touch the top")
    if not g.has_edge(w0, w1):
        raise ValueError("split edge must be an edge of the graph")
    base = (g.nbr_set(w0) & g.nbr_set(w1)) - {w0, w1}
    if not base:
        return []
    if top in base:
        return [base]
    if tree is None:
        tree = _LevelTree(g, top)

    cut = frozenset(e)
    caps: set[frozenset[int]] = set()
    stack = [tree.root]
    visited: set[tuple[frozenset[int], frozenset[int]]] = set()
    budget = max(_BRANCH_CAP, 4 * g.n)
    while stack:
        state = stack.pop()
        if state in visited:
            continue
        if len(visited) >= budget:
            tree.truncated += 1
            break
        visited.add(state)
        placed, current = state
        cand = tree.cand(state) - cut
        if not cand:
            continue
        if cand & base:
            # The leveling reached the base.  A candidate level that also holds
            # non-base vertices may be a flank intruder's doing, so the descent
            # goes on below it as well.
            caps.add(placed | base)
            if cand <= base:
                continue
        if len(cand) > 2:
            continue
        for p in sorted(cand, reverse=True):
            carried = [child for below, child in tree.singles(state, p) if below - cut]
            if len(carried) == 1:
                stack.append(carried[0])
        if len(cand) == 2 and g.has_edge(*cand):
            # Pushed last so that the pair reading, the usual one, is followed
            # first should the budget cut the walk.
            stack.append((placed | cand, cand))

    # The cap must level as a tower from the top, so the top needs at most two
    # cap neighbors forming a clique.
    results = []
    top_nbrs = g.nbr_set(top)
    for cap in caps:
        tn = top_nbrs & cap
        if len(tn) > 2 or (len(tn) == 2 and not g.has_edge(*tn)):
            continue
        results.append(cap)
    return sorted(results, key=sorted)


def split_parts(
    g: Graph, cap: frozenset[int], e: tuple[int, int]
) -> tuple[frozenset[int], frozenset[int]] | None:
    """Components of the graph minus the cap, with the split edge itself cut:
    accepted iff there are exactly two and they separate e's endpoints.
    """
    w0, w1 = e
    rest = set(range(g.n)) - cap
    if w0 not in rest or w1 not in rest:
        return None
    cut = {w0: {w1}, w1: {w0}}  # the split edge itself is cut

    def nbr(u: int) -> frozenset[int]:
        nb = g.nbr_set(u)
        return nb - cut[u] if u in cut else nb

    part_a = frozenset().union(*bfs_layers(nbr, w0, rest))
    if w1 not in rest:
        return None
    part_b = frozenset().union(*bfs_layers(nbr, w1, rest))
    if rest:  # a third component
        return None
    return part_a, part_b


def part_paths(g: Graph, part: frozenset[int], end: int) -> list[PartSolution]:
    """Boundary readings of a side part as Hamiltonian paths ending at its
    split-edge endpoint.

    Singletons and chordless paths are read directly; anything else is solved
    as a pseudo-tower and unfolded around its joint.
    """
    if end not in part:
        return []
    if len(part) == 1:
        return [PartSolution((end,), end)]
    inner = {v: g.nbr_set(v) & part for v in part}
    degs = [len(nb) for nb in inner.values()]
    if max(degs) <= 2 and degs.count(1) == 2 and sum(degs) == 2 * (len(part) - 1):
        ends = sorted(v for v, nb in inner.items() if len(nb) == 1)
        if end not in ends:
            return []
        walk = [ends[0] if ends[1] == end else ends[1]]
        seen = {walk[0]}
        while len(walk) < len(part):
            nxt = inner[walk[-1]] - seen
            if not nxt:
                return []
            walk.append(min(nxt))
            seen.add(walk[-1])
        if walk[-1] != end:
            return []
        return [PartSolution(tuple(walk), walk[0])]

    sub, old_of = induced_subgraph(g, part)
    new_end = old_of.index(end)
    try:
        sols = solve_pseudo_tower(sub, bordering_limit=1024)
    except NotPseudoTowerError:
        return []
    out: list[PartSolution] = []
    seen_paths: set[tuple[int, ...]] = set()
    for s in sols:
        c1, c2 = s.chains
        for chain_w, chain_other in ((c1, c2), (c2, c1)):
            if not chain_w or chain_w[-1] != new_end:
                continue
            walk = list(reversed(chain_other)) + list(chain_w[1:])
            if len(walk) != sub.n:
                continue
            path = tuple(old_of[v] for v in walk)
            if path in seen_paths:
                continue
            seen_paths.add(path)
            out.append(PartSolution(path, old_of[chain_w[0]]))
            if len(out) >= _PART_LIMIT:
                return sorted(out, key=lambda p: p.path)
    return sorted(out, key=lambda p: p.path)


def _sides(ctx: _CapContext, b: Bordering) -> tuple[list[int], list[int]]:
    key = lambda v: (ctx.leveling.level_of[v], v)
    return sorted(b.left, key=key), sorted(b.right, key=key)


def _find_violation(
    g: Graph,
    dec: SplitDecomposition,
    ctx: _CapContext,
    left: list[int],
    right: list[int],
) -> tuple[int | None, bool]:
    """First constraint violation in top-to-bottom order, or (None, ok).

    The deepest cap vertices of the two sides must share a neighbor in the
    parts; if they share none, the left side's deepest vertex (the right
    side's when the left is empty) is the violation.
    """
    pa = left[-1] if left else dec.top
    pb = right[-1] if right else dec.top
    if not g.nbr_set(pa) & g.nbr_set(pb) & (dec.part_a | dec.part_b):
        if left:
            return left[-1], False
        if right:
            return right[-1], False
        return None, False

    # The one cross-visibility constraint that held on every generated
    # instance: walking a side of the cap downward, visibility into that
    # side's own part grows monotonically (nested neighborhoods).  Stricter
    # published constraints (side-chain invisibility of the far window,
    # blocker domination) misfire on genuine polygons, so wrong borderings
    # are left to the assembly and verification stages instead.
    level = ctx.leveling.level_of
    merged = sorted(set(left) | set(right), key=lambda v: (level[v], v))
    left_set = frozenset(left)
    prev: dict[bool, int] = {}
    for v in merged:
        on_left = v in left_set
        nb = g.nbr_set(v)
        own_part = dec.part_a if on_left else dec.part_b
        p = prev.get(on_left)
        if p is not None and not (nb & own_part) >= (g.nbr_set(p) & own_part):
            return v, False
        prev[on_left] = v
    return None, True


def apply_bordering_constraints(
    g: Graph,
    dec: SplitDecomposition,
    ctx: _CapContext,
    cb: Bordering,
) -> list[Bordering]:
    """Sweep the cap top-to-bottom from the given bordering; on a violation the
    violating vertex's whole constraint component is swapped.   A component
    asked to swap twice rejects the run.  Returns the surviving bordering (at
    most one from a given start).
    """
    comps = ctx.bg.components
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    left, right = set(cb.left), set(cb.right)
    swaps = [0] * len(comps)
    for _ in range(2 * len(comps) + 2):
        ls, rs = _sides(ctx, Bordering(frozenset(left), frozenset(right)))
        bad, ok = _find_violation(g, dec, ctx, ls, rs)
        if ok:
            return [Bordering(frozenset(left), frozenset(right))]
        if bad is None:
            return []
        ci = comp_of[bad]
        swaps[ci] += 1
        if swaps[ci] >= 2:
            return []
        comp = comps[ci]
        left, right = (left - comp) | (right & comp), (right - comp) | (left & comp)
    return []


def assemble_hamiltonian(
    g: Graph,
    dec: SplitDecomposition,
    ctx: _CapContext,
    b: Bordering,
    sol_a: PartSolution,
    sol_b: PartSolution,
) -> list[PseudoTriangleSolution]:
    """Close the boundary: top, the cap's a-side by level, part a down to the
    split edge, across to part b and back up, then the cap's b-side upward.

    Returns one solution per plausible joint placement (all share the same
    cycle): normally the joint of a side is its part's pseudo-tower top, but
    when the part carries no chain remnant the joint may equally be the
    deepest cap vertex of that side (corner splits put it there).  Empty list
    when the walk is not a cycle of g.
    """
    left, right = _sides(ctx, b)
    order = [dec.top, *left, *sol_a.path, *reversed(sol_b.path), *reversed(right)]
    if len(order) != g.n or len(set(order)) != g.n:
        return []
    cand = canonicalize(order)
    if not is_cycle_in_graph(g, cand):
        return []
    ia = sol_a.path.index(sol_a.top)
    ib = sol_b.path.index(sol_b.top)

    walk_left = (dec.top, *left, *sol_a.path)  # top joint .. split endpoint
    walk_right = (dec.top, *right, *sol_b.path)
    cut_a = [1 + len(left) + ia]
    if ia == 0:
        cut_a.append(len(left))  # joint taken from the cap side
    cut_b = [1 + len(right) + ib]
    if ib == 0:
        cut_b.append(len(right))

    out = []
    for ca in cut_a:
        for cb_ in cut_b:
            chain_left = walk_left[: ca + 1]
            chain_right = walk_right[: cb_ + 1]
            chain_bottom = (*walk_left[ca:], *reversed(walk_right[cb_:]))
            out.append(
                PseudoTriangleSolution(
                    cand,
                    (Chain(chain_left), Chain(chain_bottom), Chain(chain_right)),
                    (dec.top, chain_left[-1], chain_right[-1]),
                    dec,
                )
            )
    return out


def _positions_contiguous(chain: tuple[int, ...], members: frozenset[int]) -> bool:
    pos = [i for i, v in enumerate(chain) if v in members]
    return not pos or pos[-1] - pos[0] == len(pos) - 1


def _chain_concave(g: Graph, chain: tuple[int, ...]) -> bool:
    """Non-consecutive vertices of one concave chain must be mutually invisible."""
    k = len(chain)
    for i in range(k):
        for j in range(i + 2, k):
            if g.has_edge(chain[i], chain[j]):
                return False
    return True


def _chains_structurally_ok(chains: tuple[tuple[int, ...], ...], n: int) -> bool:
    left, bottom, right = chains
    if not (left and bottom and right):
        return False
    if left[0] != right[0] or left[-1] != bottom[0] or bottom[-1] != right[-1]:
        return False
    sl, sb, sr = set(left), set(bottom), set(right)
    if sl & sb != {left[-1]} or sb & sr != {bottom[-1]} or sl & sr != {left[0]}:
        return False
    return len(sl | sb | sr) == n


def _necessary_conditions(g: Graph, chains: tuple[tuple[int, ...], ...]) -> bool:
    if not _chains_structurally_ok(chains, g.n):
        return False
    if not all(_chain_concave(g, ch) for ch in chains):
        return False
    for v in range(g.n):
        owners = [ch for ch in chains if v in ch]
        for ch in chains:
            if any(ch is o for o in owners):
                continue
            if not _positions_contiguous(ch, g.nbr_set(v)):
                return False
    return True


def verify_candidate(g: Graph, sol: PseudoTriangleSolution) -> bool:
    """Necessary structural conditions: the cycle is in g, chains are concave
    (no same-chain chords), cross-chain neighborhoods are contiguous, visibility
    into each side part grows monotonically down the cap, and the joints are
    the chain endpoints.
    """
    chains = tuple(ch.vertices for ch in sol.chains)
    return (
        is_cycle_in_graph(g, sol.cycle)
        and _necessary_conditions(g, chains)
        and _decomposition_ok(g, sol)
    )


def _decomposition_ok(g: Graph, sol: PseudoTriangleSolution) -> bool:
    """The conditions of verify_candidate that read the decomposition: the
    joints are the chain endpoints, and visibility into each side part grows
    monotonically down the cap.
    """
    left, _, right = (ch.vertices for ch in sol.chains)
    dec = sol.decomposition
    if sol.joints != (left[0], left[-1], right[-1]):
        return False
    for side_chain, part in ((left, dec.part_a), (right, dec.part_b)):
        inside_cap = [v for v in side_chain if v in dec.cap and v != dec.top]
        for a, b in zip(inside_cap, inside_cap[1:]):
            if not (g.nbr_set(b) & part) >= (g.nbr_set(a) & part):
                return False
    return True


def verify_cycle(g: Graph, order) -> bool:
    """Can some joint triple make this vertex order a plausible pseudo-triangle
    boundary?  Checks the decomposition-free necessary conditions over all
    cyclic chain splits; used by the CLI and as the brute-force filter.
    """
    seq = list(order)
    n = g.n
    if sorted(seq) != list(range(n)):
        return False
    cand = canonicalize(seq)
    if not is_cycle_in_graph(g, cand):
        return False
    seq = list(cand.order)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                left = tuple(seq[i : j + 1])
                bottom = tuple(seq[j : k + 1])
                right = tuple(reversed(seq[k:] + seq[: i + 1]))  # top joint first
                if _necessary_conditions(g, (left, bottom, right)):
                    return True
    return False


def solve(g: Graph, stats: dict[str, int] | None = None) -> list[PseudoTriangleSolution]:
    """All verified pseudo-triangle boundary candidates, canonically sorted.

    Every (top, split-edge) candidate is tried with fast rejection; candidates
    surviving decomposition, part solving, bordering constraints, assembly and
    verification are collected and deduplicated by canonical cycle.  An empty
    list means no pseudo-triangle reading exists.
    """
    st = stats if stats is not None else {}

    def bump(key: str, k: int = 1) -> None:
        st[key] = st.get(key, 0) + k

    if g.n < 3 or not is_connected(g):
        return []
    try:
        tops = top_joint_candidates(g)
    except NotPseudoTriangleError:
        bump("top_candidates_rejected")
        return []

    found: dict[tuple[int, ...], PseudoTriangleSolution] = {}
    ctx_cache: dict[tuple[int, frozenset[int]], _CapContext | None] = {}
    path_cache: dict[tuple[frozenset[int], int], list[PartSolution]] = {}
    # Many decompositions assemble the same chains; their decomposition-free
    # verdict is computed once.
    chain_cache: dict[tuple[tuple[int, ...], ...], bool] = {}
    caches = (ctx_cache, path_cache, chain_cache)
    _solve_from_tops(g, sorted(tops), found, *caches, bump)
    if not found:
        # The minimum-degree joint can face an opposite chain too short to
        # carry a workable split edge; retry from the next-smallest-degree
        # vertices, which include the other joints.
        fallback = sorted(range(g.n), key=lambda v: (g.degree(v), v))
        extra = [v for v in fallback if v not in tops][:6]
        if extra:
            bump("fallback_tops")
            _solve_from_tops(g, extra, found, *caches, bump)
    return [found[k] for k in sorted(found)]


def _solve_from_tops(
    g: Graph,
    tops: list[int],
    found: dict[tuple[int, ...], PseudoTriangleSolution],
    ctx_cache: dict[tuple[int, frozenset[int]], _CapContext | None],
    path_cache: dict[tuple[frozenset[int], int], list[PartSolution]],
    chain_cache: dict[tuple[tuple[int, ...], ...], bool],
    bump,
) -> None:
    for top in tops:
        tree = _LevelTree(g, top)
        pairs = sorted({(u, v) for u, v in g.edges if top != u and top != v})
        for pair in pairs:
            caps = extract_cap(g, top, pair, tree)
            if not caps:
                bump("cap_rejected")
                continue
            for cap in caps:
                ctx_key = (top, cap)
                if ctx_key not in ctx_cache:
                    ctx_cache[ctx_key] = _cap_context(g, cap, top)
                cap_ctx = ctx_cache[ctx_key]
                if cap_ctx is None:
                    bump("cap_not_tower")
                    continue
                split = split_parts(g, cap, pair)
                for e in (pair, (pair[1], pair[0])):
                    if split is None:
                        bump("split_rejected")
                        continue
                    part_a, part_b = split if e == pair else (split[1], split[0])
                    dec = SplitDecomposition(top, e, cap, part_a, part_b)
                    key_a = (part_a, e[0])
                    if key_a not in path_cache:
                        path_cache[key_a] = part_paths(g, part_a, e[0])
                    sols_a = path_cache[key_a]
                    sols_b: list[PartSolution] = []
                    if sols_a:
                        key_b = (part_b, e[1])
                        if key_b not in path_cache:
                            path_cache[key_b] = part_paths(g, part_b, e[1])
                        sols_b = path_cache[key_b]
                    if not sols_a or not sols_b:
                        bump("part_rejected")
                        continue
                    if len(cap_ctx.bg.components) > _EXHAUSTIVE_COMPONENTS:
                        bump("bordering_swept")
                    borderings = _cap_borderings(g, dec, cap_ctx)
                    for sol_a, sol_b, b in product(sols_a, sols_b, borderings):
                        variants = assemble_hamiltonian(g, dec, cap_ctx, b, sol_a, sol_b)
                        if not variants:
                            bump("assembly_rejected")
                            continue
                        # The cycle is in g; verify_candidate's other checks
                        # are the cached chain verdict and _decomposition_ok.
                        for sol in variants:
                            chains = tuple(c.vertices for c in sol.chains)
                            if chains not in chain_cache:
                                chain_cache[chains] = _necessary_conditions(g, chains)
                            if not chain_cache[chains] or not _decomposition_ok(g, sol):
                                bump("verify_rejected")
                                continue
                            bump("accepted")
                            found.setdefault(sol.cycle.order, sol)
                            break
        if tree.truncated:
            bump("cap_truncated", tree.truncated)


def _cap_context(g: Graph, cap: frozenset[int], top: int) -> _CapContext | None:
    """Leveling and bordering structure of a cap.

    A cap may be a pseudo-tower rather than a tower: a run of bottom vertices
    that see nothing of the cap's short side forms a tail hanging off one
    chain.  The tail is split off first, the residual is leveled as a tower,
    and the tail vertices rejoin as deeper single-vertex levels glued to their
    attachment's constraint component (same chain, so same color).
    """
    nbrs = {v: g.nbr_set(v) & cap for v in cap}

    tail: list[int] = []  # outermost vertex first
    attachment = top
    ends = [v for v in cap if v != top and len(nbrs[v]) == 1]
    if len(ends) > 1:
        return None
    if ends:
        seen = {ends[0]}
        cur = ends[0]
        while cur != top and len(nbrs[cur]) <= 2:
            tail.append(cur)
            nxt = [w for w in nbrs[cur] if w not in seen]
            if not nxt:
                return None
            cur = nxt[0]
            seen.add(cur)
        attachment = cur

    residual = cap - set(tail)
    res_nbrs = {v: nbrs[v] & residual for v in residual}
    try:
        lv = level_sets(res_nbrs, top)
        bg = bordering_constraints(res_nbrs, lv)
    except NotTowerError:
        return None
    if not tail:
        return _CapContext(lv, bg)

    inner_first = list(reversed(tail))
    levels = lv.levels + tuple(frozenset({v}) for v in inner_first)
    level_of = dict(lv.level_of)
    for i, v in enumerate(inner_first, start=len(lv.levels) + 1):
        level_of[v] = i

    coloring = dict(bg.coloring)
    comps = list(bg.components)
    if attachment == top:
        comps.append(frozenset(tail))
        for v in tail:
            coloring[v] = 0
    else:
        idx = next(i for i, c in enumerate(comps) if attachment in c)
        comps[idx] = comps[idx] | frozenset(tail)
        for v in tail:
            coloring[v] = coloring[attachment]
    bg2 = BorderingGraph(
        bg.nodes | frozenset(tail), bg.constraint_edges, tuple(comps), coloring
    )
    return _CapContext(Leveling(levels, level_of), bg2)


def _cap_borderings(
    g: Graph, dec: SplitDecomposition, ctx: _CapContext
) -> list[Bordering]:
    """The cap borderings that pass the constraints: every one of them up to
    _EXHAUSTIVE_COMPONENTS constraint components, and beyond that the at
    most one that the sweep from the first bordering keeps.
    """
    if len(ctx.bg.components) > _EXHAUSTIVE_COMPONENTS:
        start = enumerate_borderings(ctx.bg, limit=1)[0]
        return apply_bordering_constraints(g, dec, ctx, start)
    out = []
    for b in enumerate_borderings(ctx.bg):
        ls, rs = _sides(ctx, b)
        if _find_violation(g, dec, ctx, ls, rs)[1]:
            out.append(b)
    return out
