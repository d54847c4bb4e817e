import json

import pytest

from polyvis import gen_pseudo_triangle, serialize_graph, visibility_graph, write_polygon
from polyvis.cli import build_parser, main

from conftest import PT6_EDGES, T5_EDGES
from corpora import AUTO_MIXED


def _graph_file(tmp_path, n, edges, name="g.txt"):
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in sorted(edges)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_solve_k3(tmp_path, capsys):
    path = _graph_file(tmp_path, 3, {(0, 1), (1, 2), (0, 2)})
    assert main(["solve", path]) == 0
    out = capsys.readouterr()
    assert out.out == "0 1 2\n"
    assert "kind: tower" in out.err


def test_solve_pt6(tmp_path, capsys):
    path = _graph_file(tmp_path, 6, PT6_EDGES)
    assert main(["solve", path, "--kind", "pseudo-triangle"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "0 1 2 3 4 5" in lines


def test_solve_k33_exit_2(tmp_path, capsys):
    path = _graph_file(tmp_path, 6, {(u, v + 3) for u in range(3) for v in range(3)})
    assert main(["solve", path]) == 2
    assert capsys.readouterr().out == ""


def test_solve_bad_file_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n0 0\n")
    assert main(["solve", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_solve_missing_file_exit_1(capsys):
    assert main(["solve", "/nonexistent/graph.txt"]) == 1


def test_solve_json_report(tmp_path, capsys):
    path = _graph_file(tmp_path, 5, T5_EDGES)
    assert main(["solve", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "tower"
    assert [0, 1, 2, 3, 4] in report["candidates"]
    assert report["millis"] >= 0
    assert report["input_id"] == path


def test_solve_json_counts_rejected_tops(capsys):
    # No class reads this stored mutated graph.  Its one minimum-degree top
    # has joint pairs, and 2 of its 6 fallback tops have none.
    assert main(["solve", str(AUTO_MIXED / "mutated-n12-s100.graph"), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "none"
    assert report["rejections"]["fallback_tops"] == 1
    assert report["rejections"]["top_rejected"] == 2


def test_solve_json_counts_pruned_caps(capsys):
    # On this stored pseudo-triangle both tops have degree 5, and their joint
    # pairs admit 6 split edges each, the edges of the runs they leave: 202
    # of the 214 (top, edge) pairs off the tops are turned away before any
    # cap is walked, counted once per top.  Each (split edge, cap) is split
    # once, so a rejected split counts once.
    assert main(["solve", str(AUTO_MIXED / "pseudo-triangle-n20-s0.graph"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "pseudo-triangle"
    assert report["rejections"]["edge_rejected"] == 202
    assert report["rejections"]["split_rejected"] == 7


def test_gen_visgraph_solve_pipeline(tmp_path, capsys):
    poly_path = str(tmp_path / "p.txt")
    graph_path = str(tmp_path / "g.txt")
    assert main(["gen", "--kind", "pseudo-triangle", "--n", "9", "--seed", "5",
                 "-o", poly_path]) == 0
    assert main(["visgraph", poly_path, "-o", graph_path]) == 0
    assert main(["solve", graph_path, "--kind", "pseudo-triangle"]) == 0
    out = capsys.readouterr().out
    assert "0 1 2 3 4 5 6 7 8" in out.splitlines()


def test_gen_pseudo_tower_writes_graph(tmp_path):
    out_path = tmp_path / "pt.txt"
    assert main(["gen", "--kind", "pseudo-tower", "--n", "8", "--seed", "1",
                 "-o", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith("# pseudo-tower chains:")
    assert "8 " in text.splitlines()[1]


def test_gen_invalid_n_exit_1(capsys):
    assert main(["gen", "--kind", "tower", "--n", "3"]) == 1


@pytest.mark.parametrize("kind", ["tower", "pseudo-tower"])
def test_gen_degenerate_needs_pseudo_triangle_exit_1(tmp_path, capsys, kind):
    out_path = tmp_path / "p.txt"
    assert main(["gen", "--kind", kind, "--n", "9", "--degenerate", "-o", str(out_path)]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and "--degenerate" in out.err
    assert out.out == "" and not out_path.exists()
    assert main(["gen", "--kind", "pseudo-triangle", "--n", "9", "--degenerate",
                 "-o", str(out_path)]) == 0


def test_auto_solves_generated_pseudo_tower(tmp_path, capsys):
    out_path = tmp_path / "pt.txt"
    assert main(["gen", "--kind", "pseudo-tower", "--n", "9", "--seed", "2",
                 "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(out_path)]) == 0
    out = capsys.readouterr()
    assert "kind: pseudo-tower" in out.err
    for line in out.out.splitlines():
        assert sorted(int(v) for v in line.split()) == list(range(9))


def test_verify_true_boundary(tmp_path, capsys):
    path = _graph_file(tmp_path, 6, PT6_EDGES)
    assert main(["verify", path, "0", "1", "2", "3", "4", "5"]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_verify_non_cycle_exit_2(tmp_path, capsys):
    path = _graph_file(tmp_path, 6, PT6_EDGES)
    assert main(["verify", path, "0", "2", "4", "1", "3", "5"]) == 2
    assert capsys.readouterr().out == "rejected\n"


def test_verify_repeated_vertex_exit_2(tmp_path, capsys):
    # Each consecutive pair, 5 back to 0 included, is an edge, but the order
    # visits 1 twice and misses 4: no permutation of the vertices, no boundary.
    path = _graph_file(tmp_path, 6, PT6_EDGES)
    assert main(["verify", path, "0", "1", "2", "3", "1", "5"]) == 2
    assert capsys.readouterr().out == "rejected\n"


def test_render(tmp_path, capsys):
    poly = gen_pseudo_triangle(7, 3)
    poly_path = tmp_path / "p.txt"
    poly_path.write_text(write_polygon(poly))
    graph_path = tmp_path / "g.txt"
    graph_path.write_text(serialize_graph(visibility_graph(poly)))
    assert main(["render", str(poly_path), "--graph", str(graph_path)]) == 0
    svg = capsys.readouterr().out
    assert svg.startswith("<svg") and "<line" in svg


def test_bench_csv(capsys):
    assert main(["bench", "--kind", "tower", "--sizes", "6", "8",
                 "--repeat", "2", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kind,n,m,millis,candidates"
    assert len(lines) == 5
    for row in lines[1:]:
        kind, n, m, millis, cands = row.split(",")
        assert kind == "tower"
        assert int(n) in (6, 8)
        assert float(millis) >= 0
        assert int(cands) >= 1


@pytest.mark.parametrize("args", [
    ["--sizes", "2"],
    ["--kind", "tower", "--sizes", "3"],
    ["--kind", "pseudo-tower", "--sizes", "6", "4"],
])
def test_bench_generator_error_exit_1(capsys, args):
    assert main(["bench", "--repeat", "1", *args]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and "Traceback" not in out.err
    assert out.out.splitlines()[0] == "kind,n,m,millis,candidates"


def test_usage_error_exit_1(capsys):
    assert main(["solve"]) == 1
    assert main(["frobnicate"]) == 1


def _answer(argv, capsys) -> tuple[int, str, str]:
    code = main(argv)
    out = capsys.readouterr()
    if "--json" in argv:
        report = json.loads(out.out)
        del report["millis"]  # wall time, the one field that varies
        return code, json.dumps(report, sort_keys=True), out.err
    return code, out.out, out.err


def test_shared_parser_leaks_nothing_between_calls(tmp_path, capsys):
    pt6 = _graph_file(tmp_path, 6, PT6_EDGES)
    calls = [
        ["solve", pt6, "--kind", "pseudo-triangle", "--json"],
        ["verify", pt6, "0", "1", "2", "3", "4", "5"],
        ["solve", pt6, "--no-such-option"],
        ["solve", pt6],
    ]
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(_answer(argv, capsys))
    build_parser.cache_clear()
    in_sequence = [_answer(argv, capsys) for argv in calls]
    assert build_parser.cache_info().misses == 1
    assert in_sequence == alone
    assert [code for code, _, _ in alone] == [0, 0, 1, 0]
    assert alone[2][2].startswith("error: ")
    assert "kind: " in alone[3][2] and not alone[3][1].startswith("{")


def test_deterministic_stdout(tmp_path, capsys):
    path = _graph_file(tmp_path, 6, PT6_EDGES)
    main(["solve", path, "--kind", "pseudo-triangle"])
    first = capsys.readouterr().out
    main(["solve", path, "--kind", "pseudo-triangle"])
    assert capsys.readouterr().out == first

    main(["gen", "--kind", "pseudo-triangle", "--n", "10", "--seed", "2"])
    g1 = capsys.readouterr().out
    main(["gen", "--kind", "pseudo-triangle", "--n", "10", "--seed", "2"])
    assert capsys.readouterr().out == g1


_BOWTIE = "4\n0 0\n2 2\n2 0\n0 2\n"


@pytest.mark.parametrize("case", [
    "visgraph-malformed", "visgraph-self-intersecting", "render-missing-graph",
    "verify-malformed", "gen-degenerate-too-small",
])
def test_error_paths_exit_1(tmp_path, capsys, case):
    out_path = tmp_path / "out.txt"
    bad_poly = tmp_path / "bad.poly"
    bad_poly.write_text("3\n0 0\n1 x\n2 2\n")
    bowtie = tmp_path / "bowtie.poly"
    bowtie.write_text(_BOWTIE)
    good_poly = tmp_path / "good.poly"
    good_poly.write_text(write_polygon(gen_pseudo_triangle(7, 3)))
    bad_graph = tmp_path / "bad.graph"
    bad_graph.write_text("3 1\n0 0\n")
    argv = {
        "visgraph-malformed": ["visgraph", str(bad_poly), "-o", str(out_path)],
        "visgraph-self-intersecting": ["visgraph", str(bowtie), "-o", str(out_path)],
        "render-missing-graph": ["render", str(good_poly), "--graph",
                                 str(tmp_path / "missing.graph"), "-o", str(out_path)],
        "verify-malformed": ["verify", str(bad_graph), "0", "1", "2"],
        "gen-degenerate-too-small": ["gen", "--kind", "pseudo-triangle", "--degenerate",
                                     "--n", "5", "-o", str(out_path)],
    }[case]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and "Traceback" not in out.err
    assert out.out == "" and not out_path.exists()


@pytest.mark.parametrize("n, edges", [
    (5, T5_EDGES), (6, PT6_EDGES), (6, {(u, v + 3) for u in range(3) for v in range(3)}),
])
def test_solve_json_schema(tmp_path, capsys, n, edges):
    path = _graph_file(tmp_path, n, edges)
    main(["solve", path, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"candidates", "input_id", "kind", "millis", "rejections"}
    assert report["kind"] in ("tower", "pseudo-tower", "pseudo-triangle", "none")
    assert isinstance(report["candidates"], list)
    assert all(isinstance(c, list) and all(type(v) is int for v in c)
               for c in report["candidates"])
    assert isinstance(report["rejections"], dict)
    assert all(isinstance(k, str) and type(v) is int for k, v in report["rejections"].items())
