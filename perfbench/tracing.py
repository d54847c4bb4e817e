"""Outside-in tracing of polyvis: spans around calls into each module's public
functions, recorded from the benchmark's side by rebinding the names.

A function imported by name into another module (``from .tower import
level_sets``) is rebound there too; otherwise calls through that binding
would go unrecorded.  Spans (name, start, end, parent, instance) and counts
stay in memory; the benchmark writes them out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# The layers and the public functions traced in each.
LAYERS: dict[str, tuple[str, ...]] = {
    "kernels": ("visibility_edges", "has_collinear_triple"),
    "geometry": ("gen_tower", "gen_pseudo_tower", "gen_pseudo_triangle", "visibility_graph"),
    "graph": ("parse_graph", "induced_subgraph", "canonicalize"),
    "tower": (
        "solve_tower", "compute_leveling", "level_sets", "bordering_constraints",
        "bordering_graph", "enumerate_borderings", "check_strong_ordering",
    ),
    "pseudotower": ("solve_pseudo_tower", "extract_tail"),
    "pseudotriangle": (
        "solve", "top_joint_candidates", "extract_cap", "split_parts", "part_paths",
        "assemble_hamiltonian", "verify_candidate", "verify_cycle",
    ),
    "cli": ("main",),
}

# Keys that pseudotriangle.solve(g, stats) fills.
SOLVE_STATS = (
    "accepted", "assembly_rejected", "cap_not_tower", "cap_rejected", "fallback_tops",
    "part_rejected", "split_rejected", "top_candidates_rejected", "verify_rejected",
)

# Per-layer counts beyond calls, all reported per pass.
COUNTS = (
    "kernels.visibility_edges.pairs",
    "pseudotriangle.extract_cap.caps",
    "pseudotriangle.extract_cap.empty",
    "pseudotriangle.split_parts.rejected",
    "pseudotriangle.assemble_hamiltonian.empty",
    "pseudotriangle.verify_candidate.rejected",
    "pseudotriangle.cap_context.built",
    "tower.enumerate_borderings.yielded",
    "pseudotower.solve_pseudo_tower.rejected",
)

GENERATORS = ("geometry.gen_tower", "geometry.gen_pseudo_tower", "geometry.gen_pseudo_triangle")

# Counts taken from a call's arguments and result, keyed by span name.
_RESULT_COUNTS = {
    "kernels.visibility_edges": lambda a, r: (
        ("kernels.visibility_edges.pairs", len(a[0]) * (len(a[0]) - 1) // 2),),
    "pseudotriangle.extract_cap": lambda a, r: (
        ("pseudotriangle.extract_cap.caps", len(r)),
        ("pseudotriangle.extract_cap.empty", int(not r))),
    "pseudotriangle.split_parts": lambda a, r: (
        ("pseudotriangle.split_parts.rejected", int(r is None)),),
    "pseudotriangle.assemble_hamiltonian": lambda a, r: (
        ("pseudotriangle.assemble_hamiltonian.empty", int(not r)),),
    "pseudotriangle.verify_candidate": lambda a, r: (
        ("pseudotriangle.verify_candidate.rejected", int(not r)),),
    "tower.enumerate_borderings": lambda a, r: (
        ("tower.enumerate_borderings.yielded", len(r)),),
    "pseudotower.solve_pseudo_tower": lambda a, r: (
        ("pseudotower.solve_pseudo_tower.rejected", int(not r)),),
    **{name: (lambda a, r: (("geometry.polygons", 1),)) for name in GENERATORS},
}
# Counts taken when a call raises.
_ERROR_COUNTS = {"pseudotower.solve_pseudo_tower": "pseudotower.solve_pseudo_tower.rejected"}
# Counts of calls made through one module's binding of another's function.
_BINDING_COUNTS = {("pseudotriangle", "level_sets"): "pseudotriangle.cap_context.built"}


class Tracer:
    """Rebinds the traced functions in every loaded polyvis module."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_instance = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.instance_counts: dict[int, Counter[str]] = {}
        self.instance = -1
        self.enabled = True
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "polyvis" or name.startswith("polyvis."))
        }
        for layer, funcs in LAYERS.items():
            home = modules[f"polyvis.{layer}"]
            for fname in funcs:
                orig = getattr(home, fname)
                span = f"{layer}.{fname}"
                for modname, mod in modules.items():
                    short = modname.rpartition(".")[2]
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            extra = _BINDING_COUNTS.get((short, fname))
                            self._undo.append((mod, attr, orig))
                            setattr(mod, attr, self._wrap(span, orig, extra))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own answer checks are not traced."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- recording ----------------------------------------------------------

    def _count(self, key: str, value: int) -> None:
        if value:
            self.counts[key] += value
            self.instance_counts.setdefault(self.instance, Counter())[key] += value

    def _wrap(self, span: str, fn, binding_count: str | None):
        ix = self._name_ix.setdefault(span, len(self.names))
        if ix == len(self.names):
            self.names.append(span)
        result_counts = _RESULT_COUNTS.get(span)
        error_count = _ERROR_COUNTS.get(span)
        is_solve = span == "pseudotriangle.solve"
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stats = None
            if is_solve:
                # Give solve a stats dict when the caller passed none, and keep
                # only what this call added to a dict the caller reuses.
                if len(args) < 2 and kwargs.get("stats") is None:
                    kwargs["stats"] = {}
                stats = args[1] if len(args) > 1 else kwargs["stats"]
                before = dict(stats)
            i = len(self.s_name)
            self.s_name.append(ix)
            self.s_parent.append(stack[-1] if stack else -1)
            self.s_instance.append(self.instance)
            self.s_end.append(0.0)
            stack.append(i)
            if binding_count:
                self._count(binding_count, 1)
            self.s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.s_end[i] = clock()
                stack.pop()
                if error_count:
                    self._count(error_count, 1)
                raise
            self.s_end[i] = clock()
            stack.pop()
            if result_counts:
                for key, value in result_counts(args, result):
                    self._count(key, value)
            if stats is not None:
                for key, value in stats.items():
                    self._count(f"pseudotriangle.stats.{key}", value - before.get(key, 0))
            return result

        return functools.wraps(fn)(traced)

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time (span minus its child spans) and call count per span name."""
        n = len(self.s_name)
        child = [0.0] * n
        self_t = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n - 1, -1, -1):
            dur = self.s_end[i] - self.s_start[i]
            self_t[self.s_name[i]] += dur - child[i]
            calls[self.s_name[i]] += 1
            p = self.s_parent[i]
            if p >= 0:
                child[p] += dur
        return dict(zip(self.names, self_t)), dict(zip(self.names, calls))

    def per_instance(self) -> dict[int, dict[str, int]]:
        """Calls (as ``<span>.calls``) and counts per instance."""
        out: dict[int, Counter[str]] = {}
        for ix, inst in zip(self.s_name, self.s_instance):
            out.setdefault(inst, Counter())[f"{self.names[ix]}.calls"] += 1
        for inst, counts in self.instance_counts.items():
            out.setdefault(inst, Counter()).update(counts)
        return {inst: dict(sorted(c.items())) for inst, c in out.items()}

    def write_spans(self, path, instances: list[str], t0: float) -> None:
        """All spans as columns, times in seconds from ``t0``, gzip-compressed JSON."""
        doc = {
            "names": self.names,
            "instances": instances,
            "name": list(self.s_name),
            "start": [round(t - t0, 7) for t in self.s_start],
            "end": [round(t - t0, 7) for t in self.s_end],
            "parent": list(self.s_parent),
            "instance": list(self.s_instance),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over an untraced one, measured here."""
    def noop(x):
        return x

    probe = Tracer()
    wrapped = probe._wrap("probe.noop", noop, None)
    clock = time.perf_counter
    t = clock()
    for k in range(calls):
        noop(k)
    plain = clock() - t
    t = clock()
    for k in range(calls):
        wrapped(k)
    traced = clock() - t
    return max(traced - plain, 0.0) / calls
