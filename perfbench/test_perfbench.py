"""Tests of the benchmark itself, on small stores built in a temporary
directory (they are not part of the polyvis test suite):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import prepare  # noqa: E402  (also puts src/ on sys.path)
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL_ORACLE = {kind: ((8, (0,)),) for kind in prepare.ORACLE_MIX}


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("store")
    prepare.write_store("pt-sweep", *prepare.build_pt_sweep(sizes=(8, 12), seeds=(0, 1)), root=root)
    prepare.write_store("oracle-gen", *prepare.build_oracle_gen(SMALL_ORACLE), root=root)
    prepare.write_store(
        "auto-mixed",
        *prepare.build_auto_mixed(class_sizes=(8,), class_seeds=(0,), mutated=((12, 2),)),
        root=root,
    )
    return root


@pytest.fixture
def run_bench(monkeypatch, capsys):
    def go(store: Path, out: Path, workload: str, trace: int) -> dict:
        monkeypatch.setattr(run, "STORE", store)
        monkeypatch.setattr(run, "OUT", out)
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
        assert code == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return go


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_metric_names_declared(store, tmp_path, run_bench, workload, trace):
    result = run_bench(store, tmp_path, workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared


def _drop_last_edge(path: Path) -> None:
    head, *edges = path.read_text(encoding="utf-8").splitlines()
    n, m = map(int, head.split())
    path.write_text("\n".join([f"{n} {m - 1}", *edges[:-1]]) + "\n", encoding="utf-8")


@pytest.mark.parametrize("workload, per_file", [("pt-sweep", 1), ("auto-mixed", 2)])
def test_tampered_graph_counts_as_failure(store, tmp_path, run_bench, workload, per_file):
    copy = tmp_path / "store"
    shutil.copytree(store, copy)
    first = json.loads((copy / f"{workload}.json").read_text(encoding="utf-8"))["items"][0]
    _drop_last_edge(copy / workload / first["file"])
    result = run_bench(copy, tmp_path / "out", workload, 0)
    assert result["correct"] is False
    assert result["failed"] == per_file  # one pass; auto-mixed solves and verifies each file


def test_tampered_manifest_counts_as_failure(store, tmp_path, run_bench):
    copy = tmp_path / "store"
    shutil.copytree(store, copy)
    path = copy / "oracle-gen.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["items"][0]["edges_sha256"] = "0" * 64
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run_bench(copy, tmp_path / "out", "oracle-gen", 0)
    assert result["failed"] == result["attempted"]


class _WrongCandidate(workloads.PtSweep):
    """Returns the solver's answer plus a cycle that is not in the graph."""

    def execute(self, pv, req):
        sols = super().execute(pv, req)
        order = list(sols[0].cycle.order)
        order[1], order[2] = order[2], order[1]
        bad = dataclasses.replace(sols[0], cycle=pv.graph.canonicalize(order))
        return sols + [bad]


class _NoCandidates(workloads.PtSweep):
    def execute(self, pv, req):
        return []


class _Unreadable(workloads.PtSweep):
    def execute(self, pv, req):
        return None


@pytest.mark.parametrize("workload", [_WrongCandidate(), _NoCandidates(), _Unreadable()])
def test_wrong_answers_count_as_failures(store, workload):
    pv, requests, _ = run.setup(workload, store)
    phase = run.run_phase(workload, pv, requests, 0, random.Random(0))
    assert phase["attempted"] == len(requests)
    assert phase["failed"] == phase["attempted"]


def test_auto_mixed_miss_counts_as_failure(store):
    pv, requests, _ = run.setup(workloads.WORKLOADS["auto-mixed"], store)
    req = next(r for r in requests if r.has_truth and r.args[0] == "solve")
    order = list(req.item["truth"])
    order[1], order[2] = order[2], order[1]
    wrong = json.dumps({"kind": "pseudo-triangle", "candidates": [order]})
    verdict = workloads.WORKLOADS["auto-mixed"].check(pv, req, (0, wrong, ""))
    assert not verdict.ok and verdict.recovered is False
    crashed = workloads.WORKLOADS["auto-mixed"].check(pv, req, (1, "", "Traceback (most recent call last):"))
    assert not crashed.ok


def _changed_answer(req, out) -> tuple[int, str, str]:
    """A well-formed answer that differs from ``out``: a verify verdict
    flipped, or a solve that accepts the identity order (or rejects, if that
    was the answer).
    """
    code, stdout, _ = out
    if req.args[0] == "verify":
        return (2, "rejected\n", "") if code == 0 else (0, "ok\n", "")
    identity = {"kind": "pseudo-triangle", "candidates": [list(range(req.item["n"]))]}
    if json.loads(stdout)["candidates"] == identity["candidates"]:
        return 2, json.dumps({"kind": "none", "candidates": []}), ""
    return 0, json.dumps(identity), ""


def test_changed_answer_on_mutated_graph_counts_as_failure(store):
    wl = workloads.WORKLOADS["auto-mixed"]
    pv, requests, _ = run.setup(wl, store)
    mutated = [r for r in requests if r.item["kind"] == "mutated"]
    assert {r.args[0] for r in mutated} == {"solve", "verify"}
    for req in mutated:
        out = wl.execute(pv, req)
        assert wl.check(pv, req, out).ok
        assert not wl.check(pv, req, _changed_answer(req, out)).ok


def test_trace_counts_repeat(store, tmp_path, run_bench):
    first = run_bench(store, tmp_path / "a", "pt-sweep", 1)["metrics"]
    second = run_bench(store, tmp_path / "b", "pt-sweep", 1)["metrics"]
    counts = {k for k, m in first.items() if m["unit"] == "count/pass"}
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    built = first["pseudotriangle.cap_context.built"]["value"]
    assert 0 < built <= first["tower.level_sets.calls"]["value"]
    assert first["pseudotriangle.stats.accepted"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pt-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_predictions_use_declared_names():
    pred = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    names = set(workloads.WORKLOADS)
    assert {w["name"] for w in BENCH["workloads"]} <= names
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    layer_names = {m["name"] for m in BENCH["per_layer"]}
    assert set(pred["workloads"]) == names
    assert {p["layer"]: tuple(p["functions"]) for p in pred["layers"]} == tracing.LAYERS
    for p in pred["layers"]:
        for claim in p["moves"] + p["flat"]:
            assert claim["metric"] in e2e and claim["workload"] in names
        for count in p["counts"]:
            prefix = count.rstrip("*")
            assert any(n == count or (count.endswith("*") and n.startswith(prefix)) for n in layer_names)


def test_speed_scaling():
    speed = run.Speed()
    speed.probes = [run.REFERENCE_PROBE_S] * 3 + [2 * run.REFERENCE_PROBE_S] * 5
    assert speed.scale(1) == 1.0  # probes 0..2 around the timing, all at the reference
    assert speed.scale(7) == 0.5  # twice as slow: timings there count half
    samples = {"a": [(0.2, 1), (0.4, 7)], "b": [(0.1, 1)]}
    assert run.timing_stats(samples, speed)["throughput_per_s"] == pytest.approx(2 / 0.3)
