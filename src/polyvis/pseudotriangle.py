"""Pseudo-triangle boundary recovery from a visibility graph.

A reading of g is a Hamiltonian cycle of g with a joint triple whose chains
pass ``_necessary_conditions``, the one O(n + m) statement of the chain
conditions.  ``verify_cycle`` asks whether a cycle is a reading; ``solve``
returns the readings that its split-edge search reaches.  By brute force,
those are all the readings on mutated pseudo-triangles with n <= 10 and on
random connected graphs with n <= 8.

Pipeline: pick the minimum-degree vertices as top-joint candidates, try every
non-incident edge as the split edge, carve the cap (the tower above the split
edge), split the remainder into two pseudo-tower parts, read each part's
boundary paths once, ending at its endpoint of the split edge, and assemble
every pair of part paths with every cap chain pair, taken in both orders,
into a cycle.  One orientation of the split edge is enough: the reversed
edge's walks are these, reflected.  A walk is a cycle of g iff its two
junctions, where the cap chains meet the part paths, are edges (the lemma
of ``assemble_hamiltonian``).  If no top yields a reading, the search runs
once more from the 6 next-lowest-degree vertices.

Decision: assembly fixes the cycle but not the side joints (on a part that
is a chordless path, the graph does not say where the joint sits), so each
distinct (cycle, top) is decided once by ``_reading``, the same
reach-pruned joint search that ``verify_cycle`` runs from every position,
here from the top alone.  A solution is one reading: the canonical cycle
and its three chains, plain vertex tuples each running joint to joint; the
joints are read off the chains.  The witness rule: the top is the first
top in search order that assembles the cycle and accepts it, the left chain
runs from it in the canonical direction, and the first passing (j, k)
wins.

Cap discovery runs the package's one leveling loop, ``tower.walk_levels``
(the loop of ``tower.level_sets``), once per (top, split edge): the levels
grow from the top in the graph without the edge's endpoints, and the caps
are read off the candidate levels that meet the edge's base.  The walk does
not branch: where a candidate pair meets the base in one vertex, one flank
rule also reads the cap that leveling the other vertex alone would give (see
``extract_cap``).  Every closed level places a vertex, so a walk ends within
n levels and needs no budget.

Three exact rules decide a cap from what its top sees before it is leveled;
none changes an answer, and each is kept for the share of ``solve``'s time
that it saves, measured as the median of paired passes over the auto-mixed
benchmark graphs with and without it:

1. Wide first level.  If N(top) minus the split edge has more than two
   vertices, the walk would stop at that level, so ``extract_cap`` reads the
   one cap, base plus top, without walking.
2. Joint pair.  Every reading's top joint has two neighbors, its side
   chains' first vertices, that leave the rest of its neighborhood inducing a
   chordless path (``_top_pairs``).  A top without such a pair is skipped,
   and so is a cap whose vertices the top sees are not those of one pair.
   Since a pair lies in N(top), a cap C fits the pair p iff N(top) & C is a
   subset of p.  The test turns away 5,132 of the 19,446 caps of one
   auto-mixed benchmark pass before they are leveled, which saves about 5%
   of ``solve``'s time.
3. One top neighbor.  A cap in which the top sees one vertex levels only as
   a chordless path hanging from the top, and ``_cap_context`` walks that
   path before any leveling.

Caps and side parts are read by the pseudo-tower code, whose chains come
from ``tower.bordering_chains``, the package's one reading of a leveled
view: ``_cap_context`` walks the cap's tail up to the known top, hangs it
with ``pseudotower.hang_tail`` and levels the residual, once per (top,
cap); once some split of the cap has two parts that solve, ``solve`` reads
the residual's chain pairs, the top first, with ``bordering_chains``, the
tail hung below them.  ``part_paths`` hangs a side part's tail once, with
its split-edge endpoint as the known top, and reads a chordless path off
that walk and any other part from it with
``pseudotower._read_pseudo_tower``, which runs ``tower.tower_readings``.
Caps, side parts and residuals are vertex masks, each view ``(g.bits,
mask)``, and caps, chain pairs and part paths are memoized per ``solve``,
keyed by those masks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, product
from typing import Sequence

from .graph import (
    CycleCandidate,
    Graph,
    NbrView,
    bfs_layers,
    canonicalize,
    is_connected,
    is_cycle_in_graph,
    low,
    members,
    view_of,
)
from .pseudotower import NotPseudoTowerError, _read_pseudo_tower, hang_tail
from .tower import NotTowerError, bordering_chains, carriers, level_sets, walk_levels


class NotPseudoTriangleError(ValueError):
    """The input cannot be the visibility graph of a pseudo-triangle."""


@dataclass(frozen=True)
class PseudoTriangleSolution:
    """A reading: the canonical cycle and its chains, which walk it."""

    cycle: CycleCandidate
    chains: tuple[tuple[int, ...], ...]  # (left, bottom, right), joint to joint

    @property
    def joints(self) -> tuple[int, int, int]:
        """The top joint, then the ends of the left and right chains."""
        left, _, right = self.chains
        return left[0], left[-1], right[-1]


CapContext = tuple[NbrView, tuple[int, ...], tuple[int, ...], int | None]
"""A leveled cap: its residual's view and level masks, then its tail and the
tail's attachment; ``solve`` reads its chains with ``bordering_chains``."""


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


def extract_cap(g: Graph, top: int, e: tuple[int, int]) -> list[int]:
    """Candidate caps for split edge ``e``, vertex masks in sorted-members order.

    base = vertices adjacent to both endpoints of e; if the top is among them
    the cap is just the base.  Otherwise the levels are grown from the top by
    ``tower.walk_levels``, the loop of ``tower.level_sets``, with e's
    endpoints placed beforehand so that the walk runs in the graph without
    them.  Wherever a candidate level meets the base, everything placed so
    far plus the base is a cap, and the walk stops once a candidate lies
    inside the base.  A flank rule stands in for branching: a two-vertex
    clique candidate {p, q} with only q in the base also gives the cap with
    p added, provided p alone would have exactly one carrier.  The walk ends
    within n levels or where leveling fails.  An empty list rejects the edge.

    The walk's first candidate is N(top) - e.  With more than two vertices
    it is too wide for a level, so the walk ends there, and its only cap,
    base | {top} when the candidate meets the base, is read without walking.
    Of the 15,904 walks that one auto-mixed benchmark pass asks for, 11,578
    end so, and reading them unwalked saves about 6% of ``solve``'s time.

    ``solve``, not this walk, filters a cap by the vertices the top sees in
    it (rules 2 and 3), and splits each (split edge, cap) once.
    """
    w0, w1 = e
    if top in e:
        raise ValueError("split edge must not touch the top")
    bits = g.bits
    if not bits[w0] >> w1 & 1:
        raise ValueError("split edge must be an edge of the graph")
    base = bits[w0] & bits[w1]  # no self-loops: neither endpoint is in it
    if not base:
        return []
    top_bit = 1 << top
    if base & top_bit:
        return [base]

    cut = (1 << w0) | (1 << w1)
    first = bits[top] & ~cut
    caps: set[int] = set()
    if first.bit_count() > 2:
        if first & base:
            caps.add(base | top_bit)
    else:
        view = view_of(g)
        levels = [top_bit]
        try:
            for cand, placed in walk_levels(view, levels, top_bit | cut):
                if not cand & base:
                    continue
                caps.add((base | placed) & ~cut)
                if not cand & ~base:
                    break
                if cand.bit_count() == 2 and bits[low(cand)] & cand:
                    p = cand & ~base
                    if len(carriers(view, levels[-1], placed, low(p))) == 1:
                        caps.add((base | placed | p) & ~cut)
        except NotTowerError:
            pass
    return sorted(caps, key=members) if len(caps) > 1 else list(caps)


def split_parts(g: Graph, cap: int, e: tuple[int, int]) -> tuple[int, int] | None:
    """Components, as vertex masks, of the graph minus the cap mask, with the
    split edge ``e`` (an edge of g) cut: accepted iff there are exactly two
    and they separate e's endpoints.  w0's side grows without w1, which cuts
    the edge; w1 would join it iff w1 has a neighbor there other than w0.
    """
    w0, w1 = e
    if (cap >> w0 | cap >> w1) & 1:
        return None
    bits = g.bits
    rest = ((1 << g.n) - 1) & ~cap & ~(1 << w1)
    part_a = sum(bfs_layers(bits, w0, rest))
    if (bits[w1] & part_a).bit_count() > 1:
        return None
    rest &= ~part_a
    part_b = sum(bfs_layers(bits, w1, rest))
    if rest & ~part_b:  # a third component
        return None
    return part_a, part_b


def part_paths(g: Graph, part: int, end: int) -> list[tuple[int, ...]]:
    """Boundary readings of a side part as Hamiltonian paths ending at its
    split-edge endpoint, sorted.

    The part is a connected vertex mask, a component from ``split_parts``.
    Its view, ``(g.bits, part)``, has its tail hung by
    ``pseudotower.hang_tail`` with ``end`` as its top: a residual of
    ``{end}`` means a chordless path ending at ``end`` (``(end,)`` for a
    singleton), read as it stands.  A walk that fails, or has a tail while
    ``end`` has degree 1, shows two loose ends, which no pseudo-tower has.
    Any other part is read as a pseudo-tower by ``_read_pseudo_tower`` from
    the same tail, unless a walk without a known top would put ``end`` on
    its tail (as the degree-1 outer end, or a degree-2 vertex that the walk
    reaches); only then is the part walked again, without a top.
    Each solution whose chain ends at ``end`` is unfolded around its joint:
    the other chain upward, then this chain downward.  The unfolded path
    covers the part, because the bordering chains cover the residual and the
    tail is hung below one of them.  Where a side joint sits on the path is
    left to the decision of the assembled cycle (see ``solve``).
    """
    if not part >> end & 1:
        return []
    view = (g.bits, part)
    try:
        hung = hang_tail(view, end)
        tail, attachment, (_, residual) = hung
        if residual == 1 << end:
            return [(*tail, end)]
        deg = (g.bits[end] & part).bit_count()
        if deg == 1 and tail:
            return []
        if deg == 1 or deg == 2 and attachment == end:
            hung = hang_tail(view)
        sols = _read_pseudo_tower(*hung)
    except NotPseudoTowerError:
        return []
    paths = {
        (*reversed(other), *chain[1:])
        for c1, c2 in (s.chains for s in sols)
        for chain, other in ((c1, c2), (c2, c1))
        if chain and chain[-1] == end
    }
    return sorted(paths)


def assemble_hamiltonian(
    g: Graph,
    cap_chains: tuple[tuple[int, ...], tuple[int, ...]],
    path_a: tuple[int, ...],
    path_b: tuple[int, ...],
) -> CycleCandidate | None:
    """Close the boundary: the cap's a-side chain from the top down, part a
    down to the split edge, across to part b and back up, then the cap's
    b-side chain upward.  ``cap_chains`` is one chain pair of the cap, the top
    first, as ``tower.bordering_chains`` reads it, and each path is one of
    ``part_paths``.

    Returns the canonical cycle, or None unless both junctions, ``left[-1]``
    to ``path_a[0]`` and ``right[-1]`` to ``path_b[0]``, are edges of g.
    Lemma: with both junctions edges, the walk is a Hamiltonian cycle of g,
    which ``_reading`` needs.
    - Every new vertex of a level is a common neighbor of the level above it.
    - Every level below the top's but the last has two vertices (a one-vertex
      candidate is closed with its carrier), one on each chain, since the
      pair is a constraint edge.  So a new vertex's predecessor on its chain
      is its chain's vertex in the level above, and consecutive vertices on
      a bordering chain are adjacent.
    - Tails and ``extract_tail`` paths walk edges, a tail hangs from a
      neighbor of its inner end, and an unfolded part reading (see
      ``part_paths``) joins two bordering chains at their apex.
    - The split edge, ``path_a[-1]`` to ``path_b[-1]``, is an edge.
    - The cap and the two parts partition the vertices; the chains cover the
      cap, meeting only at the top, and each part path covers its part once.
    So the junctions are the only pairs of the walk that can fail.
    """
    left, right = cap_chains
    if not (g.has_edge(left[-1], path_a[0]) and g.has_edge(right[-1], path_b[0])):
        return None
    return canonicalize([*left, *path_a, *reversed(path_b), *reversed(right[1:])])


def _necessary_conditions(g: Graph, chains: tuple[tuple[int, ...], ...]) -> bool:
    """Do (left, bottom, right) pass the decomposition-free chain conditions?

    Structure: no chain is empty or repeats a vertex, consecutive chains meet
    end to start, each pair shares only its joint, and all n vertices are
    covered.  Concavity: no vertex sees one of its own chain more than one
    position away.  Contiguity: a vertex's neighbors on another chain hold
    one run of positions.  Chain sets and position dicts make it O(n + m).
    """
    left, bottom, right = chains
    if not (left and bottom and right):
        return False
    if left[0] != right[0] or left[-1] != bottom[0] or bottom[-1] != right[-1]:
        return False
    sl, sb, sr = sets = [frozenset(ch) for ch in chains]
    if any(len(s) != len(ch) for s, ch in zip(sets, chains)):
        return False
    if sl & sb != {left[-1]} or sb & sr != {bottom[-1]} or sl & sr != {left[0]}:
        return False
    if len(sl | sb | sr) != g.n:
        return False
    pos = [{v: i for i, v in enumerate(ch)} for ch in chains]
    # Each chord is seen from its earlier end, so looking forward is enough.
    for p, s in zip(pos, sets):
        for v, i in p.items():
            for w in g[v] & s:
                if p[w] > i + 1:
                    return False
    for v in range(g.n):
        nb = g[v]
        for p, s in zip(pos, sets):
            if v not in s:
                at = [p[w] for w in nb & s]
                if at and max(at) - min(at) != len(at) - 1:
                    return False
    return True


def _top_pairs(g: Graph, top: int) -> list[int]:
    """Every pair {a, b} of ``top``'s neighbors, as a vertex mask, that
    leaves N(top) - {a, b} inducing a chordless path, possibly empty.

    Lemma: if ``top`` is the top joint of chains (left, bottom, right) that
    pass ``_necessary_conditions``, then {left[1], right[1]} is such a pair.
    The chains are read off a Hamiltonian cycle on n >= 3 vertices, with
    ``left[0] == right[0] == top``.  Each chain has 2 or more vertices: a
    one-vertex ``bottom`` lies on both side chains, and a one-vertex side
    chain makes ``bottom`` start and end at the top, with the top's cycle
    neighbor before the end a chord.  So the top is off ``bottom``.
    Concavity gives it one neighbor on each side chain, ``left[1]`` and
    ``right[1]``; contiguity makes its ``bottom`` neighbors one run, a
    chordless path by concavity, which ``left[1]`` can join only as
    ``bottom[0]``, its end, and ``right[1]`` only as ``bottom[-1]``.  So
    N(top) minus the pair is that run, possibly empty, and a top with no
    pair is the top joint of no reading.

    Corollary: in a reading assembled from a cap C with this top,
    N(top) & C == p & C for p = {left[1], right[1]}.  The cap's sides put all
    of C minus the top on the two side chains, where concavity leaves the top
    no neighbor but ``left[1]`` and ``right[1]``.  A cap that no pair fits so
    starts no reading.

    With d = |N(top)|, the path's d - 3 edges fix deg(a) + deg(b) - [a~b]
    in N(top).  That degree sum is part of the test, not a filter: a rest of
    maximum degree 2 that is connected is a chordless path or a cycle, and
    only the path has d - 3 edges.
    """
    bits = g.bits
    nb = bits[top]
    inner = {v: bits[v] & nb for v in members(nb)}
    twice_edges = sum(s.bit_count() for s in inner.values())
    target = twice_edges // 2 - max(nb.bit_count() - 3, 0)
    pairs = []
    for a, b in combinations(inner, 2):
        if inner[a].bit_count() + inner[b].bit_count() - (inner[a] >> b & 1) != target:
            continue
        pair = (1 << a) | (1 << b)
        path = nb & ~pair
        if all((inner[v] & path).bit_count() <= 2 for v in members(path)):
            if is_connected((bits, path)):
                pairs.append(pair)
    return pairs


def verify_candidate(g: Graph, sol: PseudoTriangleSolution) -> bool:
    """Is ``sol`` a reading of g?  Its cycle is in g, its chains pass
    ``_necessary_conditions``, and walking the chains (left down, bottom
    across, right back up) gives its cycle.
    """
    left, bottom, right = sol.chains
    return (
        is_cycle_in_graph(g, sol.cycle)
        and _necessary_conditions(g, sol.chains)
        and canonicalize((*left, *bottom[1:], *reversed(right[1:-1]))) == sol.cycle
    )


def _reading(
    g: Graph, order: tuple[int, ...], starts: Sequence[int]
) -> tuple[tuple[int, ...], ...] | None:
    """The first joint triple that makes ``order``, a Hamiltonian cycle of g,
    a reading: its chains (left, bottom, right), or None if no triple passes.

    The top joint is tried at each position i of ``starts`` in turn, and the
    other joints at positions i < j < k < n.  left = order[i..j] runs from
    the top along ``order``, bottom = order[j..k], and right runs from the
    top backward to k.  Every triple of positions is reached from its least
    one, and ``_necessary_conditions`` does not depend on which of the three
    joints is the top, so ``range(n)`` decides the cycle.

    A chain with a chord is not concave and fails ``_necessary_conditions``,
    so the triples that give one are never visited.  On the doubled cycle,
    ``reach[p]`` is the least q' >= p' + 2 over the positions p' >= p whose
    vertices see each other: the arc from p to q is chordless iff
    q < reach[p].  Every other triple gets the full check, in order of j,
    then k.
    """
    n = len(order)
    ring = order + order
    # Every bound below is min(reach, n) or a test reach > n + i, so reach is
    # kept no higher than n + max(starts) + 1, and a chord of p that reaches
    # no nearer than reach[p + 1] is not looked for.
    reach = [n + max(starts) + 1] * (2 * n + 1)
    for p in range(2 * n - 1, -1, -1):
        nb = g[ring[p]]
        reach[p] = next((q for q in range(p + 2, reach[p + 1]) if ring[q] in nb), reach[p + 1])
    for i in starts:
        # reach is nondecreasing, so the right arc k..n+i is chordless from
        # k_lo on.
        k_lo = bisect_right(reach, n + i)
        for j in range(i + 1, min(reach[i], n)):
            for k in range(max(j + 1, k_lo), min(reach[j], n)):
                left, bottom = order[i : j + 1], order[j : k + 1]
                right = (order[k:] + order[: i + 1])[::-1]  # top joint first
                if _necessary_conditions(g, (left, bottom, right)):
                    return left, bottom, right
    return None


def verify_cycle(g: Graph, order) -> bool:
    """Can some joint triple make this vertex order a plausible pseudo-triangle
    boundary?  The order must be a Hamiltonian cycle of g, and ``_reading``
    tries every position of its canonical form as the top; used by the CLI
    and as the brute-force filter.
    """
    seq = list(order)
    if sorted(seq) != list(range(g.n)):
        return False
    cand = canonicalize(seq)
    return is_cycle_in_graph(g, cand) and _reading(g, cand.order, range(g.n)) is not None


def solve(g: Graph, stats: dict[str, int] | None = None) -> list[PseudoTriangleSolution]:
    """All pseudo-triangle readings that the split-edge search reaches,
    canonically sorted; an empty list means none was found.

    Every (top, split edge) is tried with fast rejection: a top without
    ``_top_pairs`` starts no reading and is skipped in both rounds
    (``top_rejected``), and so is a cap C that no pair p fits with
    ``N(top) & C == p & C`` (``_top_pairs``' corollary), before it is
    leveled (``cap_pair_rejected``).  On masks that test reads
    ``seen & ~p == 0`` for ``seen = N(top) & C``, the same since p lies in
    N(top).  A cap's chain pairs are read only once
    some split of it has two parts that solve.  Each (split edge, cap) is
    split and its parts read once, in one orientation, and assembly joins
    each chain pair, in both orders, to each pair of part paths and returns
    only the cycle.

    Decision: each distinct (cycle, top) is decided once, by ``_reading``
    on the canonical cycle rotated so that the top is first, with the top
    as the only start; the assemblies do not fix the side joints.  An
    accepted cycle is kept in ``found`` and a refused (top, cycle) in
    ``rejected``, so neither is read again.  The
    witness rule: a cycle's chains come from the first top, in search order,
    that assembles the cycle and accepts it; the left chain runs from that
    top in the canonical direction, and the first (j, k) that passes wins.

    Stats: each (split edge, cap) counts once as ``cap_not_tower`` if the
    cap does not level, ``split_rejected`` if its rest is not two parts split
    by the edge, ``part_rejected`` if a part has no path, or ``cap_not_tower``
    if its constraint graph, built only then, has an odd cycle;
    ``assembly_rejected`` counts walks with a junction that is not an edge,
    ``verify_rejected`` the distinct (cycle, top) pairs, of cycles not yet
    accepted, that no triple with that top accepts, and ``accepted`` the
    assemblies of accepted cycles.
    """
    st = stats if stats is not None else {}

    def bump(key: str) -> None:
        st[key] = st.get(key, 0) + 1

    if g.n < 3 or not is_connected(view_of(g)):
        return []
    try:
        tops = top_joint_candidates(g)
    except NotPseudoTriangleError:
        bump("top_candidates_rejected")
        return []

    found: dict[tuple[int, ...], PseudoTriangleSolution] = {}
    rejected: set[tuple[int, tuple[int, ...]]] = set()  # (top, cycle) that _reading refused
    read_part = cache(partial(part_paths, g))

    context = cache(partial(_cap_context, g))

    @cache
    def cap_chains(top: int, cap: int) -> list[tuple[tuple[int, ...], ...]] | None:
        view, lv, tail, attachment = context(cap, top)
        try:
            return bordering_chains(view, lv, tail, attachment)
        except NotTowerError:  # an odd cycle of constraints
            return None

    # The minimum-degree joint can face an opposite chain too short to carry a
    # workable split edge; if nothing is found, the search runs again from the
    # 6 next-smallest-degree vertices.  They need not include the other joints:
    # on some pseudo-triangles outside the generators' family the fallback
    # misses the joint that the true boundary needs.
    nbrs = g._nbrs
    by_degree = sorted(range(g.n), key=lambda v: (len(nbrs[v]), v))
    fallback = [v for v in by_degree if v not in tops][:6]
    edges = sorted(g.edges)
    for attempt, round_tops in enumerate((sorted(tops), fallback)):
        if found or not round_tops:
            break
        if attempt:
            bump("fallback_tops")
        for top in round_tops:
            joint_pairs = _top_pairs(g, top)
            if not joint_pairs:
                bump("top_rejected")
                continue
            top_nbrs = g.bits[top]
            for pair in edges:
                if top in pair:
                    continue
                caps = extract_cap(g, top, pair)
                if not caps:
                    bump("cap_rejected")
                    continue
                for cap in caps:
                    seen = top_nbrs & cap
                    for p in joint_pairs:
                        if not seen & ~p:
                            break
                    else:
                        bump("cap_pair_rejected")
                        continue
                    if context(cap, top) is None:
                        bump("cap_not_tower")
                        continue
                    split = split_parts(g, cap, pair)
                    if split is None:
                        bump("split_rejected")
                        continue
                    paths_a = read_part(split[0], pair[0])
                    paths_b = read_part(split[1], pair[1]) if paths_a else []
                    if not paths_b:
                        bump("part_rejected")
                        continue
                    if (chain_pairs := cap_chains(top, cap)) is None:
                        bump("cap_not_tower")
                        continue
                    # The reversed split edge's walks are these, reflected,
                    # with the chain pair swapped: each pair goes both ways.
                    for path_a, path_b, (c1, c2) in product(paths_a, paths_b, chain_pairs):
                        for chains in ((c1, c2), (c2, c1)):
                            cycle = assemble_hamiltonian(g, chains, path_a, path_b)
                            if cycle is None:
                                bump("assembly_rejected")
                                continue
                            order = cycle.order
                            if order not in found:
                                if (top, order) in rejected:
                                    continue
                                at = order.index(top)
                                reading = _reading(g, order[at:] + order[:at], (0,))
                                if reading is None:
                                    rejected.add((top, order))
                                    bump("verify_rejected")
                                    continue
                                found[order] = PseudoTriangleSolution(cycle, reading)
                            bump("accepted")
    return [found[k] for k in sorted(found)]


def _cap_context(g: Graph, cap: int, top: int) -> CapContext | None:
    """The leveled cap, given as a vertex mask, or None if the cap does not
    level.

    A cap may be a pseudo-tower rather than a tower: a run of bottom vertices
    that see nothing of the cap's short side forms a tail hanging off one
    chain.  The cap is read by the pseudo-tower code with its apex known:
    ``hang_tail`` walks the tail up to the top at most and hangs it, and the
    residual is leveled from the top as a tower; ``solve`` reads its
    borderings later.

    A top with one cap neighbor u makes {u} level 2, and a one-vertex level
    needs a carrier among the top's level, but the top has no neighbor left
    to carry.  So such a cap levels only as a chordless path hanging from the
    top, which is then the whole tail.  That path is walked down from u
    first, and the cap is rejected at the first vertex with two onward cap
    neighbors, or if the path does not cover the cap.  Of the 12,645 caps
    that one auto-mixed benchmark pass levels, 5,700 take this walk and 5,312
    are rejected by it, which saves about 4% of ``solve``'s time.
    """
    bits = g.bits
    below = bits[top] & cap
    if below.bit_count() == 1:
        path, prev = [low(below)], top
        while onward := bits[path[-1]] & cap & ~(1 << prev):
            if onward.bit_count() > 1:
                return None
            prev = path[-1]
            path.append(low(onward))
        if len(path) + 1 < cap.bit_count():
            return None
        # The path is the whole tail; the top alone is left to level.
        tail, attachment, view = tuple(reversed(path)), top, (bits, 1 << top)
    else:
        try:
            tail, attachment, view = hang_tail((bits, cap), top)
        except NotPseudoTowerError:
            return None
    try:
        return view, level_sets(view, top), tail, attachment
    except NotTowerError:
        return None
