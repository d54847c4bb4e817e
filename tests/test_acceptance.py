"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Criteria 1, 2, 4, 5, 6 and 7 read the graph sets of ``corpora.py``, which are
generated and solved once per session.
"""

from __future__ import annotations

import math

from polyvis import (
    Polygon,
    boundary_cycle,
    canonicalize,
    convex_vertex_indices,
    gen_tower,
    verify_candidate,
    verify_cycle,
    visibility_graph,
)
from polyvis.graph import view_of
from polyvis.tower import bordering_graph, compute_leveling, enumerate_borderings, tower_top_candidates

from conftest import PT6_EDGES, PT6_POINTS, T5_EDGES, T5_POINTS
from corpora import graph_set
from oracles import brute_hamiltonian_cycles, random_convex_polygon


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_pseudo_triangle_round_trip():
    records = graph_set("corpus")
    misses = [
        r.id
        for r in records
        if boundary_cycle(r.source).order not in [s.cycle.order for s in r.triangles]
    ]
    degen_count = sum(r.id.startswith("degenerate") for r in records)
    total = sum(r.build_s + r.solve_s for r in records)
    ok = not misses and len(records) == 500 and degen_count == 50 and total < 120.0
    _report(
        "criterion 1 (pseudo-triangle round-trip)",
        ok,
        f"{len(records) - len(misses)}/500 recovered "
        f"({degen_count} degenerate), {total:.1f}s < 120s, misses={misses[:5]}",
    )


def test_criterion_2_tower_and_pseudo_tower_round_trip():
    tower_ok = sum(
        boundary_cycle(r.source).order in r.towers for r in graph_set("towers")
    )
    ptower_ok = sum(
        tuple(sorted(r.source.chains)) in [tuple(sorted(s.chains)) for s in r.pseudo_towers]
        for r in graph_set("pseudo-towers")
    )
    ok = tower_ok == 300 and ptower_ok == 300
    _report(
        "criterion 2 (tower/pseudo-tower round-trip)",
        ok,
        f"towers {tower_ok}/300, pseudo-towers {ptower_ok}/300",
    )


def test_criterion_3_bordering_count_law():
    checked = failures = 0
    for i in range(100):
        n = 4 + (i % 27)
        poly = gen_tower(n, 5000 + i // 27)
        g = visibility_graph(poly)
        for top in sorted(tower_top_candidates(view_of(g))):
            lv = compute_leveling(g, top)
            bg = bordering_graph(g, lv)
            checked += 1
            if len(enumerate_borderings(bg)) != 2 ** (len(bg.components) - 1):
                failures += 1
            break
    _report(
        "criterion 3 (bordering count law)",
        failures == 0 and checked == 100,
        f"{checked - failures}/{checked} towers match 2^(c-1) exactly",
    )


def test_criterion_4_top_candidate_bound():
    records = graph_set("corpus")
    bad = []
    for r in records:
        degrees = [r.graph.degree(v) for v in range(r.graph.n)]
        dmin = min(degrees)
        cands = {v for v in range(r.graph.n) if degrees[v] == dmin}
        joints = set(convex_vertex_indices(r.source))
        if len(cands) > 3 or not (cands & joints):
            bad.append(r.id)
    _report(
        "criterion 4 (top-candidate bound)",
        not bad,
        f"{len(records) - len(bad)}/{len(records)} instances have a "
        f"<=3-vertex minimum-degree set containing a true joint, bad={bad[:5]}",
    )


def test_criterion_5_small_instance_oracle_equivalence():
    small = [r for r in graph_set("corpus") if r.graph.n <= 9]
    assert small, "corpus has no small instances"
    bad = []
    for r in small:
        plausible = {
            order for order in brute_hamiltonian_cycles(r.graph)
            if verify_cycle(r.graph, order)
        }
        returned = {s.cycle.order for s in r.triangles}
        truth = boundary_cycle(r.source).order
        if not returned <= plausible or truth not in returned:
            bad.append(r.id)
    _report(
        "criterion 5 (small-instance oracle equivalence)",
        not bad,
        f"{len(small) - len(bad)}/{len(small)} instances with n<=9 agree "
        f"with brute-force enumeration, bad={bad[:5]}",
    )


def test_criterion_6_scaling():
    points: list[tuple[int, float]] = []
    worst_160 = 0.0
    misses = 0
    slowest: dict[int, tuple[float, str]] = {}  # n -> (seconds, id)
    for r in graph_set("sweep"):
        n, dt = r.graph.n, r.solve_s
        slowest[n] = max(slowest.get(n, (0.0, r.id)), (dt, r.id))
        if n == 160:
            worst_160 = max(worst_160, dt)
        if boundary_cycle(r.source).order not in [s.cycle.order for s in r.triangles]:
            misses += 1
        points.append((r.graph.m, dt))

    xs = [math.log(m) for m, _ in points]
    ys = [math.log(max(t, 1e-9)) for _, t in points]
    k = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    slope = (k * sxy - sx * sy) / (k * sxx - sx * sx)

    ok = slope <= 2.3 and worst_160 < 10.0 and misses == 0
    slow = ", ".join(f"{id} {t:.2f}s" for t, id in slowest.values())
    _report(
        "criterion 6 (scaling consistency)",
        ok,
        f"log-log slope {slope:.2f} <= 2.3, worst n=160 solve {worst_160:.2f}s < 10s, "
        f"misses={misses}; slowest: {slow}",
    )


def test_criterion_7_robustness_fuzz():
    problems = []
    for name in ("random", "mutated"):
        for r in graph_set(name):
            if r.error is not None:  # no crash allowed, whatever the input
                problems.append((r.id, repr(r.error)))
                continue
            for s in r.triangles:
                if name == "mutated" and not verify_candidate(r.graph, s):
                    problems.append((r.id, "unverified candidate"))
                if canonicalize(s.cycle.order) != s.cycle:
                    problems.append((r.id, "non-canonical output"))

    _report(
        "criterion 7 (robustness fuzz)",
        not problems,
        f"1000 random + 200 mutated graphs, problems={problems[:5]}",
    )


def test_criterion_8_oracle_sanity():
    incomplete = []
    for seed in range(50):
        n = 4 + seed % 9
        poly = random_convex_polygon(n, seed)
        g = visibility_graph(poly)
        if g.m != n * (n - 1) // 2:
            incomplete.append(seed)

    t5_ok = visibility_graph(Polygon(T5_POINTS)).edges == T5_EDGES
    pt6_ok = visibility_graph(Polygon(PT6_POINTS)).edges == PT6_EDGES

    ok = not incomplete and t5_ok and pt6_ok
    _report(
        "criterion 8 (oracle sanity)",
        ok,
        f"50 convex polygons complete ({50 - len(incomplete)}/50), "
        f"tower fixture exact: {t5_ok}, pseudo-triangle fixture exact: {pt6_ok}",
    )
