#!/usr/bin/env python3
"""polyvis benchmark: one workload in one single-threaded process, driven by
one closed-loop client (the next request starts when the previous one is done).

    python3 perfbench/run.py --workload auto-mixed --seed 1 --seconds 40 --trace 0

Set-up imports polyvis from ``src/``, loads the workload's stored inputs and
checks their digests.  It is timed before the timed phase and again after
every pass (at least ``SETUP_REPEATS`` times), and the median is ``setup_s``;
spreading the set-ups over the run keeps a busy moment on a shared machine
from deciding the figure.  The timed phase runs whole passes over the
inputs, each pass in an order drawn from ``--seed``, until ``--seconds`` have
gone by.  Whole passes keep every run at the workload's stated mix, so a
workload whose pass is longer than ``--seconds`` runs exactly one pass.
Every answer is checked.

``pt-sweep`` is such a workload: one pass takes a minute or more with the
pure kernel, so it is run by hand and is not among the workloads that
BENCHMARK.json declares.

Timings are reported at a reference machine speed.  A fixed pure-Python
task that does not use polyvis is timed every ``PROBE_EVERY_S`` seconds of
requests, and each timing is scaled by the probes around it (see ``Speed``);
the unscaled figures are in the metadata.  On a shared machine the speed can
halve for minutes at a time, which would otherwise move every figure of a run
together.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` polyvis's public functions are rebound to record spans and the
result carries the per-layer metrics instead (per pass, so counts repeat
exactly).  The last line of stdout is the result, the line before it the
run's metadata; both are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from tracing import COUNTS, LAYERS, SOLVE_STATS, Tracer, span_cost
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STORE = HERE / "inputs"
OUT = HERE / "out"

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
PROBE_EVERY_S = 0.2  # seconds in polyvis between two speed probes
REFERENCE_PROBE_S = 0.004  # a speed probe's duration at the reference speed
MODULES = ("graph", "kernels", "geometry", "tower", "pseudotower", "pseudotriangle", "cli")

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "recovered_ratio": "ratio",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _polyvis_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "polyvis" or k.startswith("polyvis.")}


def import_polyvis() -> SimpleNamespace:
    """A fresh import of polyvis and the modules the workloads call into."""
    for name in _polyvis_modules():
        del sys.modules[name]
    pkg = importlib.import_module("polyvis")
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module(f"polyvis.{m}") for m in MODULES})


def setup(workload, store: Path) -> tuple[SimpleNamespace, list, float]:
    """Import polyvis, load and check the stored inputs; returns the seconds taken."""
    t = time.perf_counter()
    pv = import_polyvis()
    requests = workload.load(pv, store)
    return pv, requests, time.perf_counter() - t


def setup_again(workload, store: Path) -> float:
    """Time one more set-up, then put back the modules the run is using."""
    live = _polyvis_modules()
    seconds = setup(workload, store)[2]
    for name in _polyvis_modules():
        del sys.modules[name]
    sys.modules.update(live)
    return seconds


def _probe_task() -> int:
    rng = random.Random(12345)
    sets = [frozenset(rng.sample(range(200), 40)) for _ in range(100)]
    table: dict[frozenset, int] = {}
    acc = 0
    for i, a in enumerate(sets):
        common = a & sets[(i * 7) % len(sets)]
        table[common] = table.get(common, 0) + len(a | common)
        for x in common:
            acc += (x * 31 + i) % 97
    return acc + sum(sorted(table.values())[:10])


class Speed:
    """The machine's speed through the run, from a fixed pure-Python task that
    does not use polyvis.

    On a shared machine a neighbour can halve the speed for minutes, moving
    every timing by the same factor.  Each timing is scaled by the probes
    taken around it to what it would be at the reference speed, the speed at
    which one probe takes ``REFERENCE_PROBE_S``.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []

    def probe(self) -> None:
        t = time.perf_counter()
        _probe_task()
        self.probes.append(time.perf_counter() - t)

    def mark(self) -> int:
        return len(self.probes)

    def scale(self, mark: int) -> float:
        """Factor to the reference speed for a timing taken at ``mark``."""
        near = self.probes[max(mark - 3, 0): mark + 2]
        return REFERENCE_PROBE_S / statistics.median(near)


def run_phase(workload, pv, requests, seconds: float, rng: random.Random, tracer=None,
              after_pass=None, speed: Speed | None = None) -> dict:
    """Closed loop over whole passes; returns samples, counts and failures.

    Each sample is (seconds, speed mark).
    """
    speed = speed if speed is not None else Speed()
    samples: dict[str, list[tuple[float, int]]] = {r.id: [] for r in requests}
    index = {r.id: i for i, r in enumerate(requests)}
    attempted = failed = with_truth = recovered = passes = 0
    busy = 0.0
    failures: list[dict] = []
    clock = time.perf_counter
    t0 = clock()
    speed.probe()
    since_probe = 0.0
    while True:
        order = list(requests)
        rng.shuffle(order)
        for req in order:
            if tracer is not None:
                tracer.instance = index[req.id]
            attempted += 1
            error = None
            t = clock()
            try:
                out = workload.execute(pv, req)
            except Exception:  # any exception is a failed request, never skipped
                error = traceback.format_exc(limit=3)
            dt = clock() - t
            busy += dt
            samples[req.id].append((dt, speed.mark()))
            since_probe += dt
            if since_probe >= PROBE_EVERY_S:
                speed.probe()
                since_probe = 0.0
            if error is None:
                with tracer.paused() if tracer is not None else contextlib.nullcontext():
                    try:
                        verdict = workload.check(pv, req, out)
                        ok, truth_hit, reason = verdict.ok, verdict.recovered, verdict.reason
                    except Exception:  # an answer the check cannot read is wrong
                        error = traceback.format_exc(limit=3)
            if error is not None:
                ok, truth_hit, reason = False, (False if req.has_truth else None), error
            if not req.digest_ok:
                ok, reason = False, "stored input does not match its digest"
            if truth_hit is not None:
                with_truth += 1
                recovered += bool(truth_hit)
            if not ok:
                failed += 1
                if len(failures) < 20:
                    failures.append({"id": req.id, "reason": reason})
        passes += 1
        if after_pass is not None:
            after_pass()
        if clock() - t0 >= seconds:
            break
    speed.probe()
    return {
        "samples": samples, "attempted": attempted, "failed": failed, "passes": passes,
        "with_truth": with_truth, "recovered": recovered, "busy_s": busy,
        "wall_s": clock() - t0, "failures": failures,
    }


def timing_stats(samples: dict[str, list[tuple[float, int]]], speed: Speed | None = None) -> dict:
    """Throughput at the stated mix, median and tail over the inputs, each
    input taken at its median time over the run's passes; scaled to the
    reference speed when ``speed`` is given.
    """
    per_input = sorted(
        statistics.median(dt * (speed.scale(mark) if speed else 1.0) for dt, mark in v)
        for v in samples.values() if v
    )
    n = len(per_input)
    k = max(n - 1 - TAIL_BEYOND, 0)
    return {
        "throughput_per_s": n / sum(per_input),
        "p50_s": statistics.median(per_input),
        "tail_s": per_input[k],
        "tail_percentile": round(100.0 * (k + 1) / n, 2),
        "tail_samples_beyond": n - 1 - k,
        "inputs": n,
    }


def end_to_end(phase: dict, lat: dict, setup_s: float) -> dict:
    attempted = phase["attempted"]
    values = {
        "setup_s": setup_s,
        "throughput_per_s": lat["throughput_per_s"],
        "latency_p50_ms": lat["p50_s"] * 1e3,
        "latency_tail_ms": lat["tail_s"] * 1e3,
        "recovered_ratio": phase["recovered"] / phase["with_truth"] if phase["with_truth"] else 1.0,
        "ok_ratio": (attempted - phase["failed"]) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def per_layer(tracer, phase: dict, lat: dict, span_cost_s: float) -> dict:
    passes = phase["passes"]
    self_t, calls = tracer.self_times()
    counts = tracer.counts
    m: dict[str, tuple[float, str]] = {}
    for layer, funcs in LAYERS.items():
        total = 0.0
        for f in funcs:
            name = f"{layer}.{f}"
            m[f"{name}.calls"] = (calls.get(name, 0) / passes, "count/pass")
            m[f"{name}.self_s"] = (self_t.get(name, 0.0) / passes, "s/pass")
            total += self_t.get(name, 0.0)
        m[f"{layer}.self_s"] = (total / passes, "s/pass")
    for key in COUNTS:
        m[key] = (counts.get(key, 0) / passes, "count/pass")
    for key in SOLVE_STATS:
        m[f"pseudotriangle.stats.{key}"] = (counts.get(f"pseudotriangle.stats.{key}", 0) / passes, "count/pass")
    polygons = counts.get("geometry.polygons", 0)
    m["geometry.attempts_per_polygon"] = (
        calls.get("kernels.has_collinear_triple", 0) / polygons if polygons else 0.0, "ratio")
    m["geometry.visibility_graph_per_instance"] = (
        calls.get("geometry.visibility_graph", 0) / phase["attempted"], "ratio")
    spans = len(tracer.s_name)
    cost = spans * span_cost_s
    m["trace.spans"] = (spans / passes, "count/pass")
    m["trace.throughput_per_s"] = (lat["throughput_per_s"], "1/s")
    m["trace.overhead_est_ratio"] = (cost / max(phase["busy_s"] - cost, 1e-9), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "polyvis" / "__init__.py").is_file():
        print(f"error: polyvis sources not found under {SRC}", file=sys.stderr)
        return 2
    if not (STORE / f"{args.workload}.json").is_file():
        print(f"error: no stored inputs for {args.workload} under {STORE}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    speed = Speed()
    speed.probe()
    pv, requests, first_setup = setup(workload, STORE)
    setups = [(first_setup, speed.mark())]

    def time_setup() -> None:
        speed.probe()
        setups.append((setup_again(workload, STORE), speed.mark()))

    rng = random.Random(f"{args.workload}:{args.seed}")

    tracer = None
    span_cost_s = 0.0
    if args.trace:
        span_cost_s = span_cost()
        tracer = Tracer()
        tracer.install()
    phase_t0 = time.perf_counter()
    phase = run_phase(workload, pv, requests, args.seconds, rng, tracer, time_setup, speed)
    if tracer is not None:
        tracer.uninstall()
    while len(setups) < SETUP_REPEATS:
        time_setup()
    speed.probe()

    lat = timing_stats(phase["samples"], speed)
    raw = timing_stats(phase["samples"])
    setup_s = statistics.median(s * speed.scale(m) for s, m in setups)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "kernel": getattr(pv.pkg, "ACTIVE_KERNEL", "unknown"),
        "nproc": os.cpu_count(),
        "passes": phase["passes"],
        "requests_per_pass": len(requests),
        "samples": phase["attempted"],
        "with_truth": phase["with_truth"],
        "recovered": phase["recovered"],
        "busy_s": phase["busy_s"],
        "wall_s": phase["wall_s"],
        "setup_times_s": [s for s, _ in setups],
        "speed_probes": len(speed.probes),
        "speed_probe_median_s": statistics.median(speed.probes),
        "unscaled": {
            "setup_s": statistics.median(s for s, _ in setups),
            "throughput_per_s": raw["throughput_per_s"],
            "latency_p50_ms": raw["p50_s"] * 1e3,
            "latency_tail_ms": raw["tail_s"] * 1e3,
        },
        "latency_inputs": lat["inputs"],
        "latency_tail_percentile": lat["tail_percentile"],
        "latency_tail_samples_beyond": lat["tail_samples_beyond"],
        "failures": phase["failures"],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if tracer is None:
        metrics = end_to_end(phase, lat, setup_s)
    else:
        metrics = per_layer(tracer, phase, lat, span_cost_s)
        untraced = OUT / f"{stem}-trace0.json"
        if untraced.is_file():
            before = json.loads(untraced.read_text(encoding="utf-8"))["metrics"]["throughput_per_s"]["value"]
            meta["overhead_vs_untraced"] = before / metrics["trace.throughput_per_s"]["value"] - 1.0
        ids = [r.id for r in requests]
        summary = {
            "passes": phase["passes"],
            "per_instance": {ids[i]: c for i, c in tracer.per_instance().items() if i >= 0},
        }
        (OUT / f"{stem}-trace-summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
        tracer.write_spans(OUT / f"{stem}-spans.json.gz", ids, phase_t0)

    result = {
        "correct": phase["failed"] == 0,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": metrics,
    }
    per_input_ms = {k: [round(t * 1e3, 3) for t, _ in v] for k, v in phase["samples"].items()}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result, "per_input_ms": per_input_ms}, indent=1), encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
