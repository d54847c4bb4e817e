"""The benchmark's workloads: how each loads its stored inputs, runs one
request, and checks the answer.

Nothing here imports polyvis at module level.  Every function takes the
polyvis modules it needs as arguments, so the benchmark can time a fresh
import during set-up and trace the very modules the requests go through.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pseudo_tower_order(chains) -> list[int]:
    """A pseudo-tower reading as ``polyvis solve`` prints it: down one chain
    and back up the other, without repeating the shared top.
    """
    c1, c2 = chains
    return list(c1) + list(reversed(c2[1:]))


def run_cli(cli, args, stdin: str = "") -> tuple[int, str, str]:
    """``cli.main(args)`` in-process: (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        saved, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            code = cli.main(list(args))
        finally:
            sys.stdin = saved
    return code, stdout.getvalue(), stderr.getvalue()


def solve_reference(code: int, kind: str, candidates) -> dict:
    """What ``solve --kind auto --json`` answered, independent of candidate order."""
    listed = json.dumps(sorted(list(c) for c in candidates), separators=(",", ":"))
    return {"code": code, "kind": kind, "candidates_sha256": digest(listed)}


def is_boundary(g, order, gaps: int) -> bool:
    """Whether ``order`` visits every vertex of ``g`` once and, going round
    back to its start, steps along an edge at all but at most ``gaps`` places.
    """
    if sorted(order) != list(range(g.n)):
        return False
    steps = zip(order, order[1:] + order[:1])
    return sum(not g.has_edge(u, v) for u, v in steps) <= gaps


def oracle_instance(geometry, kind: str, n: int, seed: int):
    """Generate one oracle-gen instance: (graph, polygon or None)."""
    if kind == "pseudo-tower":
        return geometry.gen_pseudo_tower(n, seed).graph, None
    if kind == "tower":
        poly = geometry.gen_tower(n, seed)
    else:
        poly = geometry.gen_pseudo_triangle(n, seed, kind == "pseudo-triangle-degenerate")
    return geometry.visibility_graph(poly), poly


@dataclass
class Request:
    """One unit of the closed loop: the next starts when this one is done."""

    id: str
    item: dict  # the manifest entry
    payload: object = None  # parsed graph, graph file path, or None
    digest_ok: bool = True
    has_truth: bool = True
    args: tuple = field(default_factory=tuple)


@dataclass
class Verdict:
    ok: bool
    recovered: bool | None  # None: no known truth for this request
    reason: str = ""


def items_digest(items: list[dict]) -> str:
    return digest(json.dumps(items, sort_keys=True, separators=(",", ":")))


def _manifest(store: Path, name: str) -> tuple[list[dict], bool]:
    """The stored items and whether they still match the manifest's digest."""
    doc = json.loads((store / f"{name}.json").read_text(encoding="utf-8"))
    return doc["items"], items_digest(doc["items"]) == doc["items_sha256"]


def _read_checked(store: Path, name: str, item: dict) -> tuple[str, bool]:
    text = (store / name / item["file"]).read_text(encoding="utf-8")
    return text, digest(text) == item["sha256"]


class PtSweep:
    """solve_pseudo_triangle on the stored criterion-6 sweep graphs."""

    name = "pt-sweep"

    def load(self, pv: SimpleNamespace, store: Path) -> list[Request]:
        items, intact = _manifest(store, self.name)
        out = []
        for item in items:
            text, ok = _read_checked(store, self.name, item)
            try:
                g = pv.graph.parse_graph(text)
            except pv.graph.GraphParseError:
                g, ok = None, False  # the request fails when it runs
            out.append(Request(item["id"], item, g, ok and intact))
        return out

    def execute(self, pv: SimpleNamespace, req: Request):
        return pv.pseudotriangle.solve(req.payload)

    def check(self, pv: SimpleNamespace, req: Request, sols) -> Verdict:
        g = req.payload
        truth = tuple(req.item["truth"])
        recovered = truth in [s.cycle.order for s in sols]
        for s in sols:
            if pv.graph.canonicalize(s.cycle.order).order != s.cycle.order:
                return Verdict(False, recovered, "candidate not canonical")
            if not pv.pseudotriangle.verify_candidate(g, s):
                return Verdict(False, recovered, "candidate fails verify_candidate")
        return Verdict(recovered, recovered, "" if recovered else "truth not among candidates")


class OracleGen:
    """Generators plus visibility graphs; the stored digests are the truth."""

    name = "oracle-gen"

    def load(self, pv: SimpleNamespace, store: Path) -> list[Request]:
        items, intact = _manifest(store, self.name)
        return [Request(item["id"], item, None, intact) for item in items]

    def execute(self, pv: SimpleNamespace, req: Request):
        it = req.item
        return oracle_instance(pv.geometry, it["kind"], it["n"], it["gen_seed"])

    def check(self, pv: SimpleNamespace, req: Request, out) -> Verdict:
        g, poly = out
        same = digest(pv.graph.serialize_graph(g)) == req.item["edges_sha256"]
        if not same:
            return Verdict(False, False, "edge list differs from the stored digest")
        if poly is not None and req.item["kind"].startswith("pseudo-triangle"):
            convex = len(pv.geometry.convex_vertex_indices(poly))
            if convex != 3:
                return Verdict(False, True, f"{convex} convex vertices")
        return Verdict(True, True)


class AutoMixed:
    """In-process ``polyvis solve --kind auto --json`` and ``polyvis verify``
    requests on stored graph files.
    """

    name = "auto-mixed"

    def load(self, pv: SimpleNamespace, store: Path) -> list[Request]:
        items, intact = _manifest(store, self.name)
        out = []
        for item in items:
            _, ok = _read_checked(store, self.name, item)
            ok = ok and intact
            path = str(store / self.name / item["file"])
            known = item["truth"] is not None
            out.append(Request(f"{item['id']}:solve", item, path, ok, known,
                               ("solve", path, "--kind", "auto", "--json")))
            if item["kind"] == "pseudo-tower":
                continue  # a pseudo-tower has no boundary cycle to verify
            order = item["truth"] if item["truth"] is not None else range(item["n"])
            out.append(Request(f"{item['id']}:verify", item, path, ok, known,
                               ("verify", path, *map(str, order))))
        return out

    def execute(self, pv: SimpleNamespace, req: Request):
        return run_cli(pv.cli, req.args)

    def check(self, pv: SimpleNamespace, req: Request, out) -> Verdict:
        code, stdout, stderr = out
        if "Traceback" in stderr:
            return Verdict(False, None, "traceback on stderr")
        if code not in (0, 2):
            return Verdict(False, None, f"exit code {code}")
        truth = req.item["truth"]
        if req.args[0] == "verify":
            if truth is None:
                ok = [code, stdout.strip()] == req.item["reference"]["verify"]
                return Verdict(ok, None, "" if ok else "verify answer differs from the reference")
            ok = code == 0 and stdout.strip() == "ok"
            return Verdict(ok, ok, "" if ok else "boundary rejected by verify")
        report = json.loads(stdout)
        kind, candidates = report["kind"], report["candidates"]
        if (code == 0) != bool(candidates):
            return Verdict(False, None, "exit code disagrees with the candidate list")
        g = pv.graph.parse_graph(Path(req.payload).read_text(encoding="utf-8"))
        gaps = 1 if kind == "pseudo-tower" else 0  # the two chains' ends need not be adjacent
        if not all(is_boundary(g, c, gaps) for c in candidates):
            return Verdict(False, None if truth is None else False, "a candidate is not a boundary of the graph")
        if truth is None:
            ok = solve_reference(code, kind, candidates) == req.item["reference"]["solve"]
            return Verdict(ok, None, "" if ok else "solve answer differs from the reference")
        if req.item["kind"] == "pseudo-tower":
            chains = req.item["chains"]
            accepted = [pseudo_tower_order(chains), pseudo_tower_order(chains[::-1])]
            recovered = any(c in accepted for c in candidates)
        else:
            want = tuple(truth)
            recovered = any(pv.graph.canonicalize(c).order == want for c in candidates)
        return Verdict(recovered, recovered, "" if recovered else "truth not among candidates")


WORKLOADS = {w.name: w for w in (PtSweep(), OracleGen(), AutoMixed())}
