"""The solvers still give the answers they gave before.

On the benchmark's auto-mixed graphs, one sha256 over every tower candidate,
every pseudo-tower solution (a rejection counts as an answer) and every
pseudo-triangle reading (cycle, chains and joints) pins the candidate lists,
rejection path included.  The store is only read.  A second sha256
pins the pseudo-triangle candidates on criterion 7's 200 mutated graphs, most
of which reach the search from the fallback tops.  A third pins
``verify_cycle``'s verdicts on auto-mixed's 49 verify orders.  A fourth pins
the pseudo-triangle search's work: ``solve``'s stats dict on every graph of
both sets, so a change meant only to speed the search up cannot move a
count.  A fifth pins the tower and pseudo-tower solvers on their own
inputs: criterion 2's 300 towers and 300 pseudo-towers and criterion 7's
1,000 random and 200 mutated graphs.  A sixth and a seventh pin the
pseudo-triangle readings and ``solve``'s stats on criterion 6's 80 sweep
graphs (n 20 to 160), where the search is largest.  ``test_acceptance.py`` pins the
criterion-1 corpus's readings and stats in the same way.  When a change is
meant to alter these answers or counts, recompute every digest with

    PYTHONPATH=src python tests/test_solver_store.py

and say why in CHANGES.md.
"""

import hashlib
import json
import random
from pathlib import Path

from polyvis import (
    NotPseudoTowerError,
    gen_pseudo_tower,
    gen_tower,
    parse_graph,
    solve_pseudo_tower,
    solve_pseudo_triangle,
    solve_tower,
    verify_cycle,
    visibility_graph,
)

from oracles import mutated_pseudo_triangle, random_connected_graph

STORE = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "auto-mixed"

EXPECTED = "56e21e8f2370ad634fe08e652702ca4292278aee3fd5afdc8574f5d9eea97a85"

EXPECTED_MUTATED = "9017aaa6d9a0a639f3cf4c4b788d8381022d70647b356e2c25f5d421a80bf718"

EXPECTED_VERIFY = "5c7f429fb42a5fc69b43b46dd673aed83bae1ffc0d197451710ceddf664c93cd"

EXPECTED_STATS = "3c37d22f47cc11e3d5f01619b1420ea54c9c19267b06c4c813589d72583d6e2d"

EXPECTED_TOWERS = "97fb37d142380c72ebd5c6de42ce4ae17586713a88a356ebfa9fe902793e1ead"

EXPECTED_SWEEP = "f763287a49166ca2b8b8bdf0ef9488f68180a8907f2ad0db8c2c5a40ca7957ef"

EXPECTED_SWEEP_STATS = "a8b749006fe40228a282a2eb82f8d4590c04168650fdab6e24b0960f00e7c4f5"


def _answers(g) -> tuple:
    return (*_tower_answers(g), _triangles(g))


def _tower_answers(g, message: bool = False) -> tuple:
    towers = [c.order for c in solve_tower(g)]
    try:
        pseudo = [(s.tail, s.chains) for s in solve_pseudo_tower(g)]
    except NotPseudoTowerError as exc:
        pseudo = f"rejected: {exc}" if message else "rejected"
    return towers, pseudo


def _triangles(g, stats: dict[str, int] | None = None) -> list:
    return [(s.cycle.order, s.chains, s.joints) for s in solve_pseudo_triangle(g, stats)]


def _digest(files: list[Path]) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(f"{f.name}: {_answers(parse_graph(f.read_text()))!r}\n".encode())
    return h.hexdigest()


def test_auto_mixed_candidates_unchanged():
    files = sorted(STORE.glob("*.graph"))
    assert len(files) == 59
    assert _digest(files) == EXPECTED


def _mutated_digest() -> str:
    h = hashlib.sha256()
    for i in range(200):
        h.update(f"{i}: {_triangles(mutated_pseudo_triangle(i))!r}\n".encode())
    return h.hexdigest()


def test_mutated_criterion_7_candidates_unchanged():
    assert _mutated_digest() == EXPECTED_MUTATED


def _verify_digest() -> tuple[int, str]:
    # The benchmark's verify requests: every graph but the pseudo-towers, with
    # its true boundary, or the identity order when there is none.
    items = json.loads((STORE.parent / "auto-mixed.json").read_text())["items"]
    h = hashlib.sha256()
    count = 0
    for item in items:
        if item["kind"] == "pseudo-tower":
            continue
        g = parse_graph((STORE / item["file"]).read_text())
        order = item["truth"] if item["truth"] is not None else range(item["n"])
        h.update(f"{item['file']}: {verify_cycle(g, order)!r}\n".encode())
        count += 1
    return count, h.hexdigest()


def test_auto_mixed_verify_verdicts_unchanged():
    assert _verify_digest() == (49, EXPECTED_VERIFY)


def _stats_digest() -> str:
    graphs = [(f.name, parse_graph(f.read_text())) for f in sorted(STORE.glob("*.graph"))]
    graphs += [(f"mut{i}", mutated_pseudo_triangle(i)) for i in range(200)]
    h = hashlib.sha256()
    for name, g in graphs:
        stats: dict[str, int] = {}
        solve_pseudo_triangle(g, stats)
        h.update(f"{name}: {sorted(stats.items())!r}\n".encode())
    return h.hexdigest()


def test_solve_stats_unchanged():
    assert _stats_digest() == EXPECTED_STATS


def _tower_graphs():
    # Criterion 2's inputs, then criterion 7's, with the same n and seeds.
    for i in range(300):
        yield f"tower{i}", visibility_graph(gen_tower(4 + i % 27, 3000 + i // 27))
    for i in range(300):
        yield f"ptower{i}", gen_pseudo_tower(5 + i % 26, 4000 + i // 26).graph
    rng = random.Random("fuzz-suite")
    for i in range(1000):
        n = rng.randint(3, 20)
        yield f"fuzz{i}", random_connected_graph(n, rng.randint(0, n), i)
    for i in range(200):
        yield f"mut{i}", mutated_pseudo_triangle(i)


def _tower_digest() -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for name, g in _tower_graphs():
        h.update(f"{name}: {_tower_answers(g, message=True)!r}\n".encode())
        count += 1
    return count, h.hexdigest()


def test_tower_and_pseudo_tower_answers_unchanged():
    assert _tower_digest() == (1800, EXPECTED_TOWERS)


def _sweep_digests(sweep) -> tuple[str, str]:
    readings, work = hashlib.sha256(), hashlib.sha256()
    for n, seed, _, g in sweep:
        stats: dict[str, int] = {}
        readings.update(f"{n} {seed}: {_triangles(g, stats)!r}\n".encode())
        work.update(f"{n} {seed}: {sorted(stats.items())!r}\n".encode())
    return readings.hexdigest(), work.hexdigest()


def test_criterion_6_sweep_unchanged(criterion_6_sweep):
    assert len(criterion_6_sweep) == 80
    assert _sweep_digests(criterion_6_sweep) == (EXPECTED_SWEEP, EXPECTED_SWEEP_STATS)


if __name__ == "__main__":
    import test_acceptance
    from conftest import criterion_6_instances

    files = sorted(STORE.glob("*.graph"))
    corpus, _ = test_acceptance.build_corpus()
    sweep, sweep_stats = _sweep_digests(criterion_6_instances())
    digests = {
        "EXPECTED": _digest(files),
        "EXPECTED_MUTATED": _mutated_digest(),
        "EXPECTED_VERIFY": _verify_digest()[1],
        "EXPECTED_STATS": _stats_digest(),
        "EXPECTED_TOWERS": _tower_digest()[1],
        "EXPECTED_SWEEP": sweep,
        "EXPECTED_SWEEP_STATS": sweep_stats,
        "CORPUS_EXPECTED": test_acceptance._corpus_digest(corpus),
        "CORPUS_STATS_EXPECTED": test_acceptance._corpus_stats_digest(corpus),
    }
    pins = globals() | vars(test_acceptance)
    for name, value in digests.items():
        print(f'{name} = "{value}"' + ("" if value == pins[name] else "  # differs from the pin"))
