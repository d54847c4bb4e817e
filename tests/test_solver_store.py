"""The three solvers still give the answers they gave on the benchmark's
auto-mixed graphs: one sha256 over every tower candidate, every pseudo-tower
solution (a rejection counts as an answer) and every pseudo-triangle
candidate with its split decomposition pins the candidate lists, rejection
path included.  The store is only read.  When a change is meant to alter
these answers, recompute the digest with ``_digest`` and say why in
CHANGES.md.
"""

import hashlib
from pathlib import Path

from polyvis import (
    NotPseudoTowerError,
    parse_graph,
    solve_pseudo_tower,
    solve_pseudo_triangle,
    solve_tower,
)

STORE = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "auto-mixed"

EXPECTED = "edf89acf545ebdc2f9ede1765f66bbac4261d09a7598a41e8885ac02dcd1e385"


def _dec(d) -> tuple:
    # Sorted members: a frozenset's repr follows its insertion history.
    return d.top, d.split_edge, sorted(d.cap), sorted(d.part_a), sorted(d.part_b)


def _answers(g) -> tuple:
    towers = [c.order for c in solve_tower(g)]
    try:
        pseudo = [(s.tail, s.chains) for s in solve_pseudo_tower(g)]
    except NotPseudoTowerError:
        pseudo = "rejected"
    triangles = [
        (s.cycle.order, s.chains, s.joints, _dec(s.decomposition))
        for s in solve_pseudo_triangle(g)
    ]
    return towers, pseudo, triangles


def _digest(files: list[Path]) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(f"{f.name}: {_answers(parse_graph(f.read_text()))!r}\n".encode())
    return h.hexdigest()


def test_auto_mixed_candidates_unchanged():
    files = sorted(STORE.glob("*.graph"))
    assert len(files) == 59
    assert _digest(files) == EXPECTED
