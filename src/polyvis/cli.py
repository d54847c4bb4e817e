"""Command-line interface: solve, gen, visgraph, verify, render, bench.

Exit codes: 0 with at least one candidate, 2 with none (or a failed
verification), 1 on I/O, format or usage errors.  Candidate orders go to
stdout one per line; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from . import geometry, pseudotriangle, pseudotower, tower
from .graph import Graph, GraphParseError, parse_graph, serialize_graph


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit 2; we reserve that
        raise _UsageError(message)


@dataclass
class RunReport:
    input_id: str
    kind: str
    candidates: list[list[int]]
    millis: float
    rejections: dict[str, int] = field(default_factory=dict)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _solve_kind(g: Graph, kind: str, stats: dict[str, int]) -> tuple[str, list[list[int]]]:
    """Candidate boundary orders for one solver class, or for the first class
    that yields any in auto mode.
    """
    orders: dict[str, callable] = {
        "tower": _solve_tower,
        "pseudo-tower": _solve_pseudo_tower,
        "pseudo-triangle": _solve_pseudo_triangle,
    }
    if kind != "auto":
        return kind, orders[kind](g, stats)
    for name in ("tower", "pseudo-tower", "pseudo-triangle"):
        got = orders[name](g, stats)
        if got:
            return name, got
    return "none", []


def _solve_tower(g: Graph, stats: dict[str, int]) -> list[list[int]]:
    return [list(c.order) for c in tower.solve_tower(g)]


def _solve_pseudo_tower(g: Graph, stats: dict[str, int]) -> list[list[int]]:
    try:
        sols = pseudotower.solve_pseudo_tower(g)
    except pseudotower.NotPseudoTowerError:
        return []
    out = []
    for s in sols:
        c1, c2 = s.chains
        out.append(list(c1) + list(reversed(c2[1:])))  # boundary order, top first
    return out


def _solve_pseudo_triangle(g: Graph, stats: dict[str, int]) -> list[list[int]]:
    return [list(s.cycle.order) for s in pseudotriangle.solve(g, stats)]


def cmd_solve(args) -> int:
    try:
        g = parse_graph(_read(args.graph))
    except (OSError, GraphParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stats: dict[str, int] = {}
    t0 = time.perf_counter()
    kind, candidates = _solve_kind(g, args.kind, stats)
    millis = (time.perf_counter() - t0) * 1000.0
    if args.json:
        report = RunReport(args.graph, kind, candidates, millis, stats)
        print(json.dumps(asdict(report), sort_keys=True))
    else:
        print(f"kind: {kind}", file=sys.stderr)
        for cand in candidates:
            print(" ".join(str(v) for v in cand))
    return 0 if candidates else 2


def cmd_gen(args) -> int:
    try:
        if args.kind == "tower":
            poly = geometry.gen_tower(args.n, args.seed)
            _write_out(geometry.write_polygon(poly), args.output)
        elif args.kind == "pseudo-triangle":
            poly = geometry.gen_pseudo_triangle(args.n, args.seed, args.degenerate)
            _write_out(geometry.write_polygon(poly), args.output)
        else:
            # A pseudo-tower exists only at graph level (its graph needs a
            # degree-1 vertex, impossible for a closed polygon), so this kind
            # emits a graph file.
            inst = geometry.gen_pseudo_tower(args.n, args.seed)
            chains = ", ".join(" ".join(map(str, c)) for c in inst.chains)
            text = f"# pseudo-tower chains: {chains}\n" + serialize_graph(inst.graph)
            _write_out(text, args.output)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_visgraph(args) -> int:
    try:
        poly = geometry.parse_polygon(_read(args.polygon))
        g = geometry.visibility_graph(poly)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_out(serialize_graph(g), args.output)
    return 0


def cmd_verify(args) -> int:
    try:
        g = parse_graph(_read(args.graph))
    except (OSError, GraphParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ok = pseudotriangle.verify_cycle(g, args.cycle)
    print("ok" if ok else "rejected")
    return 0 if ok else 2


def cmd_render(args) -> int:
    try:
        poly = geometry.parse_polygon(_read(args.polygon))
        g = parse_graph(_read(args.graph)) if args.graph else None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_out(geometry.render_svg(poly, g), args.output)
    return 0


def _bench_one(task: tuple[str, int, int]) -> tuple[str, int, int, float, int]:
    kind, n, seed = task
    if kind == "tower":
        g = geometry.visibility_graph(geometry.gen_tower(n, seed))
        t0 = time.perf_counter()
        cands = tower.solve_tower(g)
    elif kind == "pseudo-tower":
        g = geometry.gen_pseudo_tower(n, seed).graph
        t0 = time.perf_counter()
        cands = pseudotower.solve_pseudo_tower(g)
    else:
        g = geometry.visibility_graph(geometry.gen_pseudo_triangle(n, seed))
        t0 = time.perf_counter()
        cands = pseudotriangle.solve(g)
    millis = (time.perf_counter() - t0) * 1000.0
    return kind, n, g.m, millis, len(cands)


def cmd_bench(args) -> int:
    tasks = [
        (args.kind, n, seed)
        for n in args.sizes
        for seed in range(args.seed, args.seed + args.repeat)
    ]
    print("kind,n,m,millis,candidates")
    if args.threads > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(_bench_one, tasks))
    else:
        rows = [_bench_one(t) for t in tasks]
    for kind, n, m, millis, cands in rows:
        print(f"{kind},{n},{m},{millis:.3f},{cands}")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="polyvis", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="recover boundary candidates from a graph file")
    sp.add_argument("graph")
    sp.add_argument("--kind", choices=["tower", "pseudo-tower", "pseudo-triangle", "auto"],
                    default="auto")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_solve)

    gp = sub.add_parser("gen", help="generate a polygon (or pseudo-tower graph) file")
    gp.add_argument("--kind", choices=["tower", "pseudo-tower", "pseudo-triangle"],
                    required=True)
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--degenerate", action="store_true")
    gp.add_argument("-o", "--output", default=None)
    gp.set_defaults(func=cmd_gen)

    vp = sub.add_parser("visgraph", help="polygon file -> visibility graph file")
    vp.add_argument("polygon")
    vp.add_argument("-o", "--output", default=None)
    vp.set_defaults(func=cmd_visgraph)

    vf = sub.add_parser("verify", help="check a cycle against a graph")
    vf.add_argument("graph")
    vf.add_argument("cycle", type=int, nargs="+")
    vf.set_defaults(func=cmd_verify)

    rp = sub.add_parser("render", help="polygon (and optional graph) -> SVG")
    rp.add_argument("polygon")
    rp.add_argument("--graph", default=None)
    rp.add_argument("-o", "--output", default=None)
    rp.set_defaults(func=cmd_render)

    bp = sub.add_parser("bench", help="size sweep, CSV on stdout")
    bp.add_argument("--kind", choices=["tower", "pseudo-tower", "pseudo-triangle"],
                    default="pseudo-triangle")
    bp.add_argument("--sizes", type=int, nargs="+", default=[10, 20, 40])
    bp.add_argument("--repeat", type=int, default=3)
    bp.add_argument("--seed", type=int, default=0)
    bp.add_argument("--threads", type=int, default=1)
    bp.set_defaults(func=cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
