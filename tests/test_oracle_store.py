"""The generators and the kernel still reproduce the benchmark's stores: every
stored digest matches a freshly generated graph, so a change that alters any
edge list fails here and not only in a benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import prepare  # noqa: E402


def test_oracle_gen_store_unchanged():
    items, _ = prepare.build_oracle_gen()
    assert prepare.check_store("oracle-gen", items) == []


def test_pt_sweep_store_unchanged():
    items, _ = prepare.build_pt_sweep()
    assert prepare.check_store("pt-sweep", items) == []


def test_auto_mixed_store_unchanged():
    # Also replays the CLI's reference answers on the mutated graphs.
    items, _ = prepare.build_auto_mixed()
    assert prepare.check_store("auto-mixed", items) == []
