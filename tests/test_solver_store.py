"""The solvers still give the answers they gave before.

``tests/answers/<set>.jsonl`` holds one line per graph of each set in
``corpora.py``, in the set's order: a compact JSON object with sorted keys
and these fields:

- ``id``: the graph's id in its set;
- ``towers``: ``solve_tower``'s cycles;
- ``pseudo_towers``: ``solve_pseudo_tower``'s readings, each its tail and
  its two chains, or ``"rejected: <message>"``;
- ``triangles``: ``solve_pseudo_triangle``'s readings, each its cycle and
  its three chains, whose ends are the joints, or ``"raised: <exception>"``;
- ``stats``: the stats dict of that solve, so that a change meant only to
  speed the search up cannot move a count;
- ``verify``, on auto-mixed only: ``verify_cycle``'s verdict on the
  manifest's order.

The tower sets have no ``triangles`` or ``stats``.  Each set's lines must
equal the stored ones exactly; a failure names only the graphs that differ,
with the stored and the new line of each.  When a change is meant to alter
these answers or counts, rewrite the store with

    PYTHONPATH=src python tests/test_solver_store.py

read the change with ``git diff tests/answers``, and say why in CHANGES.md.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from polyvis import verify_cycle

from corpora import SETS, Record, graph_set

ANSWERS = Path(__file__).resolve().parent / "answers"


def store_line(name: str, r: Record) -> str:
    line = {"id": r.id, "towers": r.towers}
    if isinstance(r.pseudo_towers, str):
        line["pseudo_towers"] = r.pseudo_towers
    else:
        line["pseudo_towers"] = [{"tail": s.tail, "chains": s.chains} for s in r.pseudo_towers]
    if r.error is not None:
        line["triangles"] = f"raised: {r.error!r}"
    elif r.triangles is not None:
        line["triangles"] = [{"cycle": s.cycle.order, "chains": s.chains} for s in r.triangles]
    if r.stats is not None:
        line["stats"] = r.stats
    if name == "auto-mixed":
        order = r.source["truth"]
        line["verify"] = verify_cycle(r.graph, range(r.graph.n) if order is None else order)
    return json.dumps(line, sort_keys=True, separators=(",", ":"))


def differences(stored: list[str], fresh: list[str]) -> dict[str, tuple[str | None, str | None]]:
    """Each id whose stored and fresh lines differ, with both lines; None
    stands for a line that one side lacks."""
    old = {json.loads(line)["id"]: line for line in stored}
    new = {json.loads(line)["id"]: line for line in fresh}
    return {id: (old.get(id), new.get(id)) for id in old | new if old.get(id) != new.get(id)}


def check_store(name: str, records: tuple[Record, ...] | list[Record]) -> None:
    stored = (ANSWERS / f"{name}.jsonl").read_text().splitlines()
    diff = differences(stored, [store_line(name, r) for r in records])
    if diff:
        report = (f"{id}\n  stored: {old}\n  new:    {new}" for id, (old, new) in diff.items())
        pytest.fail(f"{len(diff)} of {name}'s lines differ:\n" + "\n".join(report), pytrace=False)


@pytest.mark.parametrize("name", SETS)
def test_answers_match_store(name):
    check_store(name, graph_set(name))


def test_store_names_only_the_graphs_that_differ():
    records = list(graph_set("mutated"))
    k = next(i for i, r in enumerate(records) if r.triangles)
    changed = records[k]
    records[k] = dataclasses.replace(changed, triangles=changed.triangles[1:])
    with pytest.raises(pytest.fail.Exception) as failure:
        check_store("mutated", records)
    named = [line for line in str(failure.value).splitlines()[1:] if not line.startswith(" ")]
    assert named == [changed.id]


def test_store_in_step_with_sets():
    lines = {p.stem: len(p.read_text().splitlines()) for p in ANSWERS.glob("*.jsonl")}
    assert lines == {
        "auto-mixed": 59,
        "mutated": 200,
        "random": 1000,
        "towers": 300,
        "pseudo-towers": 300,
        "sweep": 80,
        "corpus": 500,
    }
    assert sorted(lines) == sorted(SETS)


if __name__ == "__main__":
    ANSWERS.mkdir(exist_ok=True)
    for name in SETS:
        lines = [store_line(name, r) + "\n" for r in graph_set(name)]
        (ANSWERS / f"{name}.jsonl").write_text("".join(lines))
