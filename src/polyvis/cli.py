"""Command-line interface: solve, gen, visgraph, verify, render, bench.

Exit codes: 0 with at least one candidate, 2 with none (or a failed
verification), 1 on usage, file, format or generator errors, which every
command reports as ``error: <message>`` on stderr.  Candidate orders go to
stdout one per line; diagnostics go to stderr.  ``bench`` times the same
solver dispatch as ``solve --kind``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import geometry, pseudotriangle, pseudotower, tower
from .graph import Graph, parse_graph, serialize_graph


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit 2; we reserve that
        raise _UsageError(message)


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
    that yields any in auto mode.  Only the pseudo-triangle solver fills
    ``stats``.
    """
    for name in ("tower", "pseudo-tower", "pseudo-triangle") if kind == "auto" else (kind,):
        if name == "tower":
            got = [list(c.order) for c in tower.solve_tower(g)]
        elif name == "pseudo-tower":
            try:
                sols = pseudotower.solve_pseudo_tower(g)
            except pseudotower.NotPseudoTowerError:
                sols = []
            # Boundary order, top first: down one chain and back up the other.
            got = [[*s.chains[0], *reversed(s.chains[1][1:])] for s in sols]
        else:
            got = [list(s.cycle.order) for s in pseudotriangle.solve(g, stats)]
        if got or kind != "auto":
            return name, got
    return "none", []


def cmd_solve(args) -> int:
    g = parse_graph(_read(args.graph))
    stats: dict[str, int] = {}
    t0 = time.perf_counter()
    kind, candidates = _solve_kind(g, args.kind, stats)
    millis = (time.perf_counter() - t0) * 1000.0
    if args.json:
        report = {"input_id": args.graph, "kind": kind, "candidates": candidates,
                  "millis": millis, "rejections": stats}
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"kind: {kind}", file=sys.stderr)
        for cand in candidates:
            print(" ".join(str(v) for v in cand))
    return 0 if candidates else 2


def cmd_gen(args) -> int:
    if args.degenerate and args.kind != "pseudo-triangle":
        raise _UsageError("--degenerate applies only to --kind pseudo-triangle")
    if args.kind == "tower":
        text = geometry.write_polygon(geometry.gen_tower(args.n, args.seed))
    elif args.kind == "pseudo-triangle":
        text = geometry.write_polygon(
            geometry.gen_pseudo_triangle(args.n, args.seed, args.degenerate))
    else:
        # A pseudo-tower exists only at graph level (its graph needs a
        # degree-1 vertex, impossible for a closed polygon), so this kind
        # emits a graph file.
        inst = geometry.gen_pseudo_tower(args.n, args.seed)
        chains = ", ".join(" ".join(map(str, c)) for c in inst.chains)
        text = f"# pseudo-tower chains: {chains}\n" + serialize_graph(inst.graph)
    _write_out(text, args.output)
    return 0


def cmd_visgraph(args) -> int:
    poly = geometry.parse_polygon(_read(args.polygon))
    _write_out(serialize_graph(geometry.visibility_graph(poly)), args.output)
    return 0


def cmd_verify(args) -> int:
    ok = pseudotriangle.verify_cycle(parse_graph(_read(args.graph)), args.cycle)
    print("ok" if ok else "rejected")
    return 0 if ok else 2


def cmd_render(args) -> int:
    poly = geometry.parse_polygon(_read(args.polygon))
    g = parse_graph(_read(args.graph)) if args.graph else None
    _write_out(geometry.render_svg(poly, g), args.output)
    return 0


def cmd_bench(args) -> int:
    print("kind,n,m,millis,candidates")
    for n in args.sizes:
        for seed in range(args.seed, args.seed + args.repeat):
            if args.kind == "tower":
                g = geometry.visibility_graph(geometry.gen_tower(n, seed))
            elif args.kind == "pseudo-tower":
                g = geometry.gen_pseudo_tower(n, seed).graph
            else:
                g = geometry.visibility_graph(geometry.gen_pseudo_triangle(n, seed))
            t0 = time.perf_counter()
            _, cands = _solve_kind(g, args.kind, {})
            millis = (time.perf_counter() - t0) * 1000.0
            print(f"{args.kind},{n},{g.m},{millis:.3f},{len(cands)}")
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on first use and shared by every later call:
    each parse fills a fresh namespace, so no option carries over.
    """
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
    bp.set_defaults(func=cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
