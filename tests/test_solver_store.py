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
count.  When a change is meant to alter these answers or counts, recompute
the digests with ``_digest``, ``_mutated_digest``, ``_verify_digest`` and
``_stats_digest`` and say why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

from polyvis import (
    NotPseudoTowerError,
    parse_graph,
    solve_pseudo_tower,
    solve_pseudo_triangle,
    solve_tower,
    verify_cycle,
)

from oracles import mutated_pseudo_triangle

STORE = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "auto-mixed"

EXPECTED = "56e21e8f2370ad634fe08e652702ca4292278aee3fd5afdc8574f5d9eea97a85"

EXPECTED_MUTATED = "9017aaa6d9a0a639f3cf4c4b788d8381022d70647b356e2c25f5d421a80bf718"

EXPECTED_VERIFY = "5c7f429fb42a5fc69b43b46dd673aed83bae1ffc0d197451710ceddf664c93cd"

EXPECTED_STATS = "3c37d22f47cc11e3d5f01619b1420ea54c9c19267b06c4c813589d72583d6e2d"


def _answers(g) -> tuple:
    towers = [c.order for c in solve_tower(g)]
    try:
        pseudo = [(s.tail, s.chains) for s in solve_pseudo_tower(g)]
    except NotPseudoTowerError:
        pseudo = "rejected"
    return towers, pseudo, _triangles(g)


def _triangles(g) -> list:
    return [(s.cycle.order, s.chains, s.joints) for s in solve_pseudo_triangle(g)]


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
