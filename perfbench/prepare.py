#!/usr/bin/env python3
"""Build the benchmark's input store with polyvis's own generators.

    python3 perfbench/prepare.py                      # (re)build every workload
    python3 perfbench/prepare.py --workload pt-sweep  # one workload
    python3 perfbench/prepare.py --check              # regenerate, compare digests

Every stored input carries the sha256 of its text.  ``run.py`` only loads the
store and checks those digests, so the timed runs never pay for generation (a
pure-kernel n=160 pseudo-triangle costs several seconds to generate and turn
into a graph).  The digests in ``oracle-gen.json`` are the edge lists the
generators produced when the store was built; a later generator or kernel
change that alters any of them fails ``oracle-gen``.  Likewise the mutated
graphs of ``auto-mixed``, which have no known truth, carry the answers
``polyvis solve`` and ``polyvis verify`` gave on them when the store was built.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
STORE = HERE / "inputs"
sys.path.insert(0, str(HERE.parent / "src"))

from polyvis import cli, geometry  # noqa: E402
from polyvis.graph import Graph, serialize_graph  # noqa: E402
from workloads import (  # noqa: E402
    digest, items_digest, oracle_instance, pseudo_tower_order, run_cli, solve_reference,
)

# pt-sweep: the criterion-6 sweep of the acceptance suite, without n=20.
PT_SWEEP_SIZES = (40, 80, 160)
PT_SWEEP_SEEDS = tuple(range(20))

# oracle-gen: (n, generator seeds) per kind; small sizes get more seeds so the
# mix has enough samples for a tail without n=80 dominating the pass.
# The degenerate generator gives up on most seeds from n=60 on, so its mix
# stops at n=40.
ORACLE_MIX = {
    "tower": ((20, tuple(range(8))), (40, tuple(range(4))), (80, (0,))),
    "pseudo-tower": ((20, tuple(range(8))), (40, tuple(range(4))), (80, (0,))),
    "pseudo-triangle": ((20, tuple(range(8))), (40, tuple(range(4))), (80, (0,))),
    "pseudo-triangle-degenerate": ((20, tuple(range(8))), (40, tuple(range(4)))),
}

# auto-mixed: generated classes at n <= 30, mutated pseudo-triangles up to 60.
AUTO_CLASS_SIZES = (8, 14, 20, 26, 30)
AUTO_CLASS_SEEDS = (0, 1)
AUTO_MUTATED = ((12, 4), (20, 4), (30, 4), (40, 3), (50, 2), (60, 2))  # (n, count)


def _graph_item(item_id: str, g: Graph, truth, **meta) -> tuple[dict, str]:
    text = serialize_graph(g)
    item = {"id": item_id, "file": f"{item_id}.graph", "n": g.n, "m": g.m, **meta}
    item["sha256"] = digest(text)
    item["truth"] = truth
    return item, text


def build_pt_sweep(sizes=PT_SWEEP_SIZES, seeds=PT_SWEEP_SEEDS) -> tuple[list[dict], dict[str, str]]:
    items, files = [], {}
    for n in sizes:
        for seed in seeds:
            g = geometry.visibility_graph(geometry.gen_pseudo_triangle(n, seed))
            item, text = _graph_item(f"n{n}-s{seed}", g, list(range(n)), gen_seed=seed)
            items.append(item)
            files[item["file"]] = text
    return items, files


def build_oracle_gen(mixes=ORACLE_MIX) -> tuple[list[dict], dict[str, str]]:
    items = []
    for kind, mix in mixes.items():
        for n, seeds in mix:
            for seed in seeds:
                g, _ = oracle_instance(geometry, kind, n, seed)
                items.append({
                    "id": f"{kind}-n{n}-s{seed}", "kind": kind, "n": n, "gen_seed": seed,
                    "m": g.m, "edges_sha256": digest(serialize_graph(g)),
                })
    return items, {}


def mutate(g: Graph, rng: random.Random) -> tuple[Graph, str]:
    """Drop one edge or add one non-edge, chosen by ``rng``."""
    edges = sorted(g.edges)
    if rng.random() < 0.5:
        e = edges[rng.randrange(len(edges))]
        return Graph(g.n, frozenset(edges) - {e}), f"drop {e[0]} {e[1]}"
    while True:
        u, v = sorted(rng.sample(range(g.n), 2))
        if not g.has_edge(u, v):
            return Graph(g.n, frozenset(edges) | {(u, v)}), f"add {u} {v}"


def reference_answers(g: Graph) -> dict:
    """What ``polyvis solve --kind auto`` and ``polyvis verify`` (identity
    order) answer on a graph with no known truth, so that a run can tell a
    changed answer from the one polyvis gave when the store was built.
    """
    text = serialize_graph(g)
    code, out, _ = run_cli(cli, ["solve", "-", "--kind", "auto", "--json"], stdin=text)
    report = json.loads(out)
    vcode, vout, _ = run_cli(cli, ["verify", "-", *map(str, range(g.n))], stdin=text)
    return {"solve": solve_reference(code, report["kind"], report["candidates"]),
            "verify": [vcode, vout.strip()]}


def build_auto_mixed(
    class_sizes=AUTO_CLASS_SIZES, class_seeds=AUTO_CLASS_SEEDS, mutated=AUTO_MUTATED
) -> tuple[list[dict], dict[str, str]]:
    items, files = [], {}

    def add(item_id: str, g: Graph, truth, **meta) -> None:
        item, text = _graph_item(item_id, g, truth, **meta)
        items.append(item)
        files[item["file"]] = text

    for n in class_sizes:
        for seed in class_seeds:
            add(f"tower-n{n}-s{seed}", geometry.visibility_graph(geometry.gen_tower(n, seed)),
                list(range(n)), kind="tower", gen_seed=seed)
            inst = geometry.gen_pseudo_tower(n, seed)
            add(f"pseudo-tower-n{n}-s{seed}", inst.graph, pseudo_tower_order(inst.chains),
                kind="pseudo-tower", gen_seed=seed, chains=[list(c) for c in inst.chains])
            add(f"pseudo-triangle-n{n}-s{seed}",
                geometry.visibility_graph(geometry.gen_pseudo_triangle(n, seed)),
                list(range(n)), kind="pseudo-triangle", gen_seed=seed)
            add(f"degenerate-n{n}-s{seed}",
                geometry.visibility_graph(geometry.gen_pseudo_triangle(n, seed, True)),
                list(range(n)), kind="pseudo-triangle-degenerate", gen_seed=seed)
    rng = random.Random("auto-mixed:mutations")
    for n, count in mutated:
        for seed in range(count):
            base = geometry.visibility_graph(geometry.gen_pseudo_triangle(n, 100 + seed))
            g, how = mutate(base, rng)
            add(f"mutated-n{n}-s{100 + seed}", g, None, kind="mutated",
                gen_seed=100 + seed, mutation=how, reference=reference_answers(g))
    return items, files


MAKE_STORE = {
    "pt-sweep": build_pt_sweep,
    "oracle-gen": build_oracle_gen,
    "auto-mixed": build_auto_mixed,
}


def write_store(workload: str, items: list[dict], files: dict[str, str], root: Path = STORE) -> None:
    if files:
        folder = root / workload
        folder.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (folder / name).write_text(text, encoding="utf-8")
    manifest = {"workload": workload, "items_sha256": items_digest(items), "items": items}
    (root / f"{workload}.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")


def check_store(workload: str, items: list[dict], root: Path = STORE) -> list[str]:
    """Ids whose freshly generated digest differs from the stored one."""
    stored = json.loads((root / f"{workload}.json").read_text(encoding="utf-8"))["items"]
    keys = ("edges_sha256",) if workload == "oracle-gen" else ("sha256", "reference")
    old = {it["id"]: [it.get(k) for k in keys] for it in stored}
    return [it["id"] for it in items if old.get(it["id"]) != [it.get(k) for k in keys]] + sorted(
        set(old) - {it["id"] for it in items}
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(MAKE_STORE), action="append")
    ap.add_argument("--check", action="store_true", help="compare against the store, write nothing")
    args = ap.parse_args()
    bad = 0
    for workload in args.workload or sorted(MAKE_STORE):
        items, files = MAKE_STORE[workload]()
        if args.check:
            diff = check_store(workload, items)
            bad += len(diff)
            print(f"{workload}: {len(items)} inputs, {len(diff)} differ {diff[:10]}")
        else:
            write_store(workload, items, files)
            print(f"{workload}: wrote {len(items)} inputs")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
