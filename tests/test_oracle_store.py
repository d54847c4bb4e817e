"""The generators and the kernel still reproduce the benchmark's oracle-gen
store: every stored edge-list digest matches a freshly generated graph, so a
change that alters any edge list fails here and not only in a benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import prepare  # noqa: E402


def test_oracle_gen_store_unchanged():
    items, _ = prepare.build_oracle_gen()
    assert prepare.check_store("oracle-gen", items) == []
