import copy
import io
import json
import math
import re
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divclust as dc
import divclust.cli as cli
from conftest import FOLDED_SUM_TABLE

LINE4_DIST = "0,1,10,11\n1,0,9,10\n10,9,0,1\n11,10,1,0\n"
LINE4_DATA = "0\n1\n10\n11\n"


@pytest.fixture
def dist_csv(tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text(LINE4_DIST)
    return path


@pytest.fixture
def tree_json(tmp_path, dist_csv):
    path = tmp_path / "tree.json"
    rc = cli.main(
        ["cluster", str(dist_csv), "--algo", "two-seeds:average", "--out", str(path)]
    )
    assert rc == 0
    return path


def test_cluster_from_distance_csv(tmp_path, dist_csv):
    out = tmp_path / "tree.json"
    newick = tmp_path / "tree.nwk"
    rc = cli.main(
        [
            "cluster", str(dist_csv),
            "--algo", "two-seeds:average",
            "--out", str(out),
            "--newick", str(newick),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 4
    assert payload["nodes"][0]["level"] == 11.0
    assert payload["nodes"][0]["children"] == [1, 2]
    assert newick.read_text() == "((o1:1,o2:1):10,(o3:1,o4:1):10);\n"
    assert b"\r" not in out.read_bytes()
    tree = dc.build_hierarchy(dc.read_distance_csv(dist_csv), "two-seeds:average")
    assert out.read_bytes() == (dc.tree_to_json(tree) + "\n").encode()
    assert newick.read_bytes() == (dc.to_newick(tree) + "\n").encode()


@pytest.mark.parametrize("algo", ["two-seeds:ward1", "average-agglomerative"])
def test_cluster_keeps_the_tree_of_distances_near_the_float_maximum(tmp_path, algo):
    points = np.array([0.0, 1.0, 3.0, 10.0, 11.0, 15.0])
    table = np.abs(points[:, None] - points[None, :])
    members = []
    for name, scale in (("plain", 1.0), ("big", 2.0**1017)):
        src, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        np.savetxt(src, table * scale, delimiter=",", fmt="%.17g")
        assert cli.main(["cluster", str(src), "--algo", algo, "--out", str(out)]) == 0
        members.append([node["members"] for node in json.loads(out.read_text())["nodes"]])
    assert members[0] == members[1]


@pytest.mark.parametrize("algo", dc.DEFAULT_ALGORITHMS)
def test_every_algorithm_clusters_and_scores_a_table_near_the_float_maximum(tmp_path, capsys, algo):
    # most entries exceed 9e307, where the plain mirror average overflows
    points = np.random.default_rng(12).normal(size=(12, 3))
    table = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=-1))
    src, out = tmp_path / "big.csv", tmp_path / "big.json"
    np.savetxt(src, table / table.max() * 1.7e308, delimiter=",", fmt="%.17g")
    assert cli.main(["cluster", str(src), "--algo", algo, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--tree", str(out), "--input", str(src), "--metrics", "gk,tau,cpcc"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in rows] == ["gk", "tau", "cpcc"]
    assert all(math.isfinite(float(value)) for _, value in rows)


def test_cluster_average_link_whose_sums_round_below_a_child(tmp_path):
    square = np.zeros((8, 8))
    square[np.triu_indices(8, 1)] = FOLDED_SUM_TABLE
    src, out = tmp_path / "table.csv", tmp_path / "tree.json"
    np.savetxt(src, square + square.T, delimiter=",", fmt="%.17g")
    assert cli.main(["cluster", str(src), "--algo", "average-agglomerative", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["nodes"][-1]["level"] == 0.2  # the root


@pytest.mark.parametrize("algo", ["macnaughton-smith", "average-agglomerative"])
def test_cluster_of_a_large_table_holds_one_table_at_a_time(tmp_path, algo):
    n = 1100
    rank = np.random.default_rng(n).permutation(n)
    raw = np.maximum.outer(rank, rank)
    np.fill_diagonal(raw, 0)
    path = tmp_path / "caterpillar.csv"
    np.savetxt(path, raw, fmt="%d", delimiter=",")
    del raw
    # the parsed 1100 x 1100 table is 9.7 MB; the matrix and the cached
    # square are freed before the writer holds its 8 MB text about twice
    tracemalloc.start()
    try:
        rc = cli.main(["cluster", str(path), "--algo", algo, "--out", str(tmp_path / "t.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 24e6
    tree = dc.tree_from_json((tmp_path / "t.json").read_text())
    assert sorted(tree.levels.tolist()) == [0.0] * n + list(map(float, range(1, n)))


def test_plot_and_eval_of_a_deep_tree_hold_little_beside_its_text(tmp_path, capsys):
    n = 1100
    rank = np.random.default_rng(n).permutation(n)
    raw = np.maximum.outer(rank, rank)
    np.fill_diagonal(raw, 0)
    src, tree, svg = tmp_path / "caterpillar.csv", tmp_path / "t.json", tmp_path / "t.svg"
    np.savetxt(src, raw, fmt="%d", delimiter=",")
    del raw
    assert cli.main(["cluster", str(src), "--algo", "average-agglomerative", "--out", str(tree)]) == 0
    size = tree.stat().st_size  # 8.1 MB of ASCII text
    peaks = {}
    for argv in (["plot", "--tree", str(tree), "--out", str(svg)],
                 ["eval", "--tree", str(tree), "--input", str(src), "--metrics", "cpcc"]):
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peaks[argv[0]] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert capsys.readouterr().out == "cpcc,1.000000\n"
    # the reader holds the text and writes it back piece by piece, where a
    # parse held the text and its parsed records, about 2.4 times the text
    assert peaks["plot"] < 2.5 * size
    # eval reads the 9.7 MB table into packed values the matrix keeps without
    # a copy, and peaks at CPCC, beside them and the cophenetic values
    assert peaks["eval"] < 3.2 * size


def test_cluster_from_data_csv(tmp_path):
    src = tmp_path / "points.csv"
    src.write_text(LINE4_DATA)
    out = tmp_path / "tree.json"
    rc = cli.main(["cluster", str(src), "--format", "data", "--algo", "pddp", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["nodes"][0]["level"] == 11.0


def test_cluster_data_csv_with_header_row(tmp_path):
    src = tmp_path / "points.csv"
    src.write_text("x\n" + LINE4_DATA)
    out = tmp_path / "tree.json"
    args = ["cluster", str(src), "--format", "data", "--algo", "pddp", "--out", str(out)]
    assert cli.main(args + ["--header"]) == 0
    assert cli.main(args) == 2  # header row is not numeric


def test_cluster_rejects_unknown_algorithm(tmp_path, dist_csv, capsys):
    out = tmp_path / "tree.json"
    rc = cli.main(["cluster", str(dist_csv), "--algo", "k-means", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "unknown algorithm" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "content",
    [
        "not,numbers\nat,all\n",
        "0,1\n1,0\n0,2\n",  # not square
        "0,1,2\n1,0\n",  # ragged rows
    ],
)
def test_cluster_rejects_bad_csv(tmp_path, content, capsys):
    src = tmp_path / "bad.csv"
    src.write_text(content)
    rc = cli.main(["cluster", str(src), "--algo", "pddp", "--out", str(tmp_path / "t.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "content, extra",
    [("", []), ("x,y\n", ["--format", "data", "--header"])],
    ids=["empty-distance-csv", "data-csv-header-only"],
)
def test_cluster_rejects_input_without_data_rows(tmp_path, content, extra, capsys):
    # numpy warns of an input without data; the reader must turn that into one
    # input error, also where warnings are errors
    src = tmp_path / "empty.csv"
    src.write_text(content)
    args = ["cluster", str(src), *extra, "--algo", "pddp", "--out", str(tmp_path / "t.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(args)
    assert rc == 2
    assert capsys.readouterr().err == "error: input has no data rows\n"


@pytest.mark.parametrize("content, extra, message", [
    ("", ["--format", "data"], "input has no data rows"),
    ("# only a comment\n", [], "input has no data rows"),
    ("0\n", [], "a dissimilarity matrix needs at least 2 objects"),
    ("1,2\n", [], "expected a square matrix, got shape (1, 2)"),
    ("1,2\n", ["--format", "data"], "a data table needs at least 2 objects"),
    ("x,y\n1,2\n", ["--format", "data", "--header"], "a data table needs at least 2 objects"),
], ids=["empty-data-csv", "comments-only", "one-entry", "one-row-distance-csv", "one-row-data-csv",
        "data-csv-header-and-one-row"])
def test_inputs_of_one_row_or_none_exit_2_with_one_message(tmp_path, content, extra, message, capsys):
    # whichever parser reads them, integer or float, and also where warnings are errors
    src = tmp_path / "small.csv"
    src.write_text(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["cluster", str(src), *extra, "--algo", "pddp", "--out", str(tmp_path / "t.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cluster_missing_input_file(tmp_path, capsys):
    rc = cli.main(
        ["cluster", str(tmp_path / "nope.csv"), "--algo", "pddp", "--out", str(tmp_path / "t")]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_eval_default_metrics(tree_json, dist_csv, capsys):
    rc = cli.main(["eval", "--tree", str(tree_json), "--input", str(dist_csv)])
    assert rc == 0
    assert capsys.readouterr().out == "gk,1.000000\ntau,0.533333\ncpcc,0.990867\n"


def test_eval_metric_selection_keeps_request_order(tree_json, dist_csv, capsys):
    rc = cli.main(
        ["eval", "--tree", str(tree_json), "--input", str(dist_csv), "--metrics", "cpcc,gk"]
    )
    assert rc == 0
    assert capsys.readouterr().out == "cpcc,0.990867\ngk,1.000000\n"


@pytest.mark.parametrize("metrics", ["xyz", "gk,xyz", ""])
def test_eval_rejects_bad_metric_lists(tree_json, dist_csv, capsys, metrics):
    rc = cli.main(
        ["eval", "--tree", str(tree_json), "--input", str(dist_csv), "--metrics", metrics]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_eval_size_mismatch(tree_json, tmp_path, capsys):
    small = tmp_path / "small.csv"
    small.write_text("0,1,2\n1,0,1\n2,1,0\n")
    rc = cli.main(["eval", "--tree", str(tree_json), "--input", str(small)])
    assert rc == 2
    assert "size" in capsys.readouterr().err


def test_eval_reports_degenerate_gamma(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text("0,1,1\n1,0,1\n1,1,0\n")
    tree = tmp_path / "tree.json"
    assert cli.main(["cluster", str(flat), "--algo", "two-seeds:single", "--out", str(tree)]) == 0
    rc = cli.main(["eval", "--tree", str(tree), "--input", str(flat), "--metrics", "gk"])
    assert rc == 2
    assert "tied" in capsys.readouterr().err


def test_eval_rejects_malformed_tree_file(tmp_path, dist_csv, capsys):
    bad = tmp_path / "tree.json"
    bad.write_text('{"nope": 1}')
    rc = cli.main(["eval", "--tree", str(bad), "--input", str(dist_csv)])
    assert rc == 2
    assert "malformed" in capsys.readouterr().err


def test_bench_writes_summary_and_cells(tmp_path, capsys):
    out = tmp_path / "summary.csv"
    cells = tmp_path / "cells.csv"
    argv = [
        "bench", "--datasets", "2", "--objects", "8", "--vars", "2",
        "--seed", "3", "--threads", "1", "--out", str(out), "--cells", str(cells),
    ]
    assert cli.main(argv) == 0
    text = out.read_text()
    assert capsys.readouterr().out == text
    lines = text.splitlines()
    assert lines[0] == "algorithm,mean_gk,std_gk,valid_count"
    assert len(lines) == 12
    assert all(line.endswith(",2") for line in lines[1:])
    cell_lines = cells.read_text().splitlines()
    assert cell_lines[0] == "dataset,algorithm,gk"
    assert len(cell_lines) == 23

    rerun_out = tmp_path / "summary2.csv"
    rerun_cells = tmp_path / "cells2.csv"
    rerun = [
        "bench", "--datasets", "2", "--objects", "8", "--vars", "2",
        "--seed", "3", "--threads", "1", "--out", str(rerun_out), "--cells", str(rerun_cells),
    ]
    assert cli.main(rerun) == 0
    assert rerun_out.read_bytes() == out.read_bytes()
    assert rerun_cells.read_bytes() == cells.read_bytes()


def test_bench_rejects_bad_threads_value(tmp_path, capsys):
    rc = cli.main(["bench", "--threads", "soon", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "usage" in capsys.readouterr().err


def test_bench_rejects_invalid_config(tmp_path, capsys):
    rc = cli.main(["bench", "--objects", "2", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "objects" in capsys.readouterr().err


def test_plot_renders_svg(tmp_path, tree_json):
    out = tmp_path / "tree.svg"
    assert cli.main(["plot", "--tree", str(tree_json), "--out", str(out)]) == 0
    text = out.read_text()
    root = ET.fromstring(text)  # well-formed XML
    assert root.tag.endswith("svg")
    ns = "{http://www.w3.org/2000/svg}"
    paths = root.findall(f".//{ns}path")
    labels = root.findall(f".//{ns}text")
    assert len(paths) == 3  # one bracket per internal node
    assert [t.text for t in labels] == ["o1", "o2", "o3", "o4"]
    xs = [float(t.attrib["x"]) for t in labels]
    assert xs == sorted(xs)


def test_plot_junction_heights_follow_levels(tmp_path, tree_json):
    out = tmp_path / "tree.svg"
    assert cli.main(["plot", "--tree", str(tree_json), "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    junctions = []
    for path in root.findall(f".//{ns}path"):
        junctions.append(float(path.attrib["d"].split(" V ")[1].split(" H ")[0]))
    top = min(junctions)
    lower = sorted(j for j in junctions if j != top)
    assert len(lower) == 2 and lower[0] == lower[1]  # equal-level child splits
    assert all(j > top for j in lower)


def test_plot_single_merge_tree(tmp_path):
    pair = tmp_path / "pair.csv"
    pair.write_text("0,5\n5,0\n")
    tree = tmp_path / "tree.json"
    assert cli.main(["cluster", str(pair), "--algo", "pddp", "--out", str(tree)]) == 0
    out = tmp_path / "pair.svg"
    assert cli.main(["plot", "--tree", str(tree), "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f".//{ns}path")) == 1
    assert len(root.findall(f".//{ns}text")) == 2


def test_plot_writes_the_exact_svg_of_an_unbalanced_tree(tmp_path):
    # points 3, 10, 0, 1: o2 splits off at 10, then o1 at 3, then o3 | o4 at 1,
    # so the leaf order o1 o3 o4 o2 is neither object nor node-id order.
    # Leaves sit 44 apart from x = 40; a junction is midway between its
    # children; y = 40 + (10 - level) * 320 / 10.
    data = tmp_path / "points.csv"
    data.write_text("3\n10\n0\n1\n")
    tree, out = tmp_path / "tree.json", tmp_path / "tree.svg"
    args = ["cluster", str(data), "--format", "data", "--algo", "two-seeds:average"]
    assert cli.main([*args, "--out", str(tree)]) == 0
    assert cli.main(["plot", "--tree", str(tree), "--out", str(out)]) == 0
    assert out.read_text() == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="212" height="416" '
        'viewBox="0 0 212 416">\n'
        '<g fill="none" stroke="#222" stroke-width="1.5">\n'
        '<path d="M 73.00 264.00 V 40.00 H 172.00 V 360.00"/>\n'
        '<path d="M 40.00 360.00 V 264.00 H 106.00 V 328.00"/>\n'
        '<path d="M 84.00 360.00 V 328.00 H 128.00 V 360.00"/>\n'
        '</g>\n'
        '<g font-family="sans-serif" font-size="11" text-anchor="middle" fill="#222">\n'
        '<text x="40.00" y="376.00">o1</text>\n'
        '<text x="84.00" y="376.00">o3</text>\n'
        '<text x="128.00" y="376.00">o4</text>\n'
        '<text x="172.00" y="376.00">o2</text>\n'
        '</g>\n'
        '</svg>\n'
    )


def test_svg_is_the_same_at_every_power_of_two_scale():
    # the drawing reads only level ratios: levels near the subnormal range,
    # where 320 / top overflows, draw the same as levels near 1
    # distances are multiples of 2^-3 up to 1.25, so every scale below is exact
    m = dc.euclidean_from_data(np.array([[3.0], [10.0], [0.0], [1.0]]) / 8.0)
    want = dc.dendrogram_svg(dc.build_hierarchy(m, "two-seeds:average"))
    for e in range(-1071, 1022):
        scaled = dc.DissimilarityMatrix(m.n, np.ldexp(m.condensed, e))
        assert dc.dendrogram_svg(dc.build_hierarchy(scaled, "two-seeds:average")) == want, e


def test_plot_rejects_bad_tree(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[[[")
    rc = cli.main(["plot", "--tree", str(bad), "--out", str(tmp_path / "x.svg")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text", [
    pytest.param("[" * 100_000, id="nested-100000-deep"),
    pytest.param('{"n": 2, "nodes": [{"id": 0, "members": [0, 1], "level": 1%s}]}' % ("0" * 400),
                 id="level-of-401-digits"),
    pytest.param('{"n": 1%s, "nodes": []}' % ("0" * 5000), id="n-of-5001-digits"),
])
def test_plot_and_eval_exit_2_on_tree_json_python_cannot_hold(tmp_path, dist_csv, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert cli.main(["plot", "--tree", str(bad), "--out", str(tmp_path / "x.svg")]) == 2
    assert cli.main(["eval", "--tree", str(bad), "--input", str(dist_csv)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: malformed tree JSON") for line in err)


def test_plot_and_eval_exit_2_on_a_bool_after_the_second_member(tmp_path, capsys):
    # the member check reads the types of the first two members only; the
    # structural checks reject the rest
    records = [
        {"id": 0, "members": [0, 1, True], "level": 2.0, "children": [1, 2]},
        {"id": 1, "members": [0, 1], "level": 1.0, "children": [3, 4]},
        {"id": 2, "members": [2], "level": 0.0},
        {"id": 3, "members": [0], "level": 0.0},
        {"id": 4, "members": [1], "level": 0.0},
    ]
    text = json.dumps({"n": 3, "nodes": records})
    with pytest.raises(dc.DivclustError):
        dc.tree_from_json(text)
    good = text.replace("true", "2")
    assert dc.tree_from_json(good).n == 3
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    dist = tmp_path / "dist.csv"
    dist.write_text("0,1,2\n1,0,2\n2,2,0\n")
    assert cli.main(["plot", "--tree", str(bad), "--out", str(tmp_path / "x.svg")]) == 2
    assert cli.main(["eval", "--tree", str(bad), "--input", str(dist)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error:") for line in err)


def test_argparse_failures_exit_with_2(tmp_path, capsys):
    assert cli.main([]) == 2
    assert cli.main(["cluster", "in.csv", "--algo", "pddp"]) == 2  # --out missing
    assert cli.main(["cluster", "--bogus-flag"]) == 2
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_unexpected_failure_exits_with_1(tree_json, tmp_path, capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("wires crossed")

    monkeypatch.setitem(cli._COMMANDS, "plot", boom)
    rc = cli.main(["plot", "--tree", str(tree_json), "--out", str(tmp_path / "x.svg")])
    assert rc == 1
    assert capsys.readouterr().err == "internal error: wires crossed\n"


@pytest.mark.parametrize("fault", [IndexError("list index out of range"),
                                   ValueError("math domain error")], ids=lambda e: type(e).__name__)
def test_a_fault_inside_a_writer_is_an_internal_error(tree_json, tmp_path, capsys, monkeypatch,
                                                      fault):
    # an IndexError or a ValueError raised by the program's own code is a
    # fault, not bad input: only DivclustError and OSError exit 2
    def broken_svg(tree):
        raise fault

    monkeypatch.setattr(cli, "dendrogram_svg", broken_svg)
    rc = cli.main(["plot", "--tree", str(tree_json), "--out", str(tmp_path / "x.svg")])
    assert rc == 1
    assert capsys.readouterr().err == f"internal error: {fault}\n"


@pytest.mark.parametrize("command", ["plot", "eval", "cluster"])
def test_an_input_file_that_is_not_utf8_exits_2(tmp_path, dist_csv, capsys, command):
    tree, table = tmp_path / "latin1.json", tmp_path / "latin1.csv"
    tree.write_bytes('{"n": 1, "nodes": [], "note": "caf\u00e9"}'.encode("latin-1"))
    table.write_bytes("0,1\n1,0\u00e9\n".encode("latin-1"))
    argv = {
        "plot": ["plot", "--tree", str(tree), "--out", str(tmp_path / "x.svg")],
        "eval": ["eval", "--tree", str(tree), "--input", str(dist_csv)],
        "cluster": ["cluster", str(table), "--algo", "pddp", "--out", str(tmp_path / "t.json")],
    }
    assert cli.main(argv[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'utf-8' codec can't decode") and err.count("\n") == 1


def test_caterpillar_deeper_than_the_recursion_limit(tmp_path):
    # d(a, b) = max(rank[a], rank[b]) is an ultrametric whose only tree is a
    # chain of depth n - 1, deeper than a recursive writer may go
    n = 1100
    rank = np.random.default_rng(5).permutation(n)
    dist = np.maximum.outer(rank, rank)
    np.fill_diagonal(dist, 0)
    src = tmp_path / "caterpillar.csv"
    src.write_text("\n".join(",".join(map(str, row)) for row in dist) + "\n")
    tree, newick, svg = (tmp_path / name for name in ("tree.json", "tree.nwk", "tree.svg"))
    argv = ["cluster", str(src), "--algo", "average-agglomerative", "--out", str(tree)]
    assert cli.main(argv + ["--newick", str(newick)]) == 0
    assert cli.main(["plot", "--tree", str(tree), "--out", str(svg)]) == 0

    text = newick.read_text()
    assert text.endswith(";\n")
    assert text.count("(") == text.count(")") == n - 1
    labels = re.findall(r"o(\d+)", text)
    assert sorted(map(int, labels)) == list(range(1, n + 1))
    root = ET.fromstring(svg.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f".//{ns}path")) == n - 1
    assert len(root.findall(f".//{ns}text")) == n


# The CLI contract, swept: whatever the CSV text and tree JSON, every
# subcommand exits 0 with an empty stderr or 2 with one "error:" line, also
# where warnings are errors.

ALGORITHMS = list(dc.DEFAULT_ALGORITHMS) + ["two-seeds:bogus"]

# odd numbers a CSV may hold: the float extremes, subnormals, and text that
# is not a finite number
EXTREME_CELLS = [
    "1.7976931348623157e308", "1.7e308", "1e300", "1e-300", "2.2e-310", "5e-324",
    "-1.7e308", "-5e-324", "1e999", "nan", "inf", "-inf", "x", "", " 3 ", "0x10",
]

distances = st.one_of(
    st.integers(0, 3).map(str),
    st.floats(0.0, 10.0).map(repr),
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
)
coordinates = st.floats(allow_nan=False, allow_infinity=False).map(repr)


def _mostly(value):
    """``value`` three times in four, else its opposite."""
    return st.sampled_from([value, value, value, not value])


@st.composite
def csv_inputs(draw):
    """CSV text and the reading options for it: a square table (symmetric
    with a zero diagonal) read with ``--format dist``, or an
    objects-by-variables table read with ``--format data``, corrupted in the
    ways files are, and now and then read with the other options."""
    k = draw(st.integers(0, 6))
    square = draw(st.booleans())
    if square:
        rows = [["0"] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                rows[i][j] = rows[j][i] = draw(distances)
    else:
        width = draw(st.integers(1, 3))
        rows = [[draw(coordinates) for _ in range(width)] for _ in range(k)]
    faults = draw(st.lists(st.sampled_from(["extreme", "drop", "extra", "blank-row", "header"]),
                           max_size=2)) if rows else []
    for fault in faults:
        row = draw(st.sampled_from(rows))
        if fault == "extreme" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(EXTREME_CELLS))
        elif fault == "drop" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif fault == "extra":
            row.append(draw(distances))
        elif fault == "blank-row":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif fault == "header":
            rows.insert(0, [f"v{i}" for i in range(len(rows[0]) or 1)])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(",".join(row) + newline for row in rows)
    reading = ["--format", "dist" if draw(_mostly(square)) else "data"]
    if draw(_mostly("header" in faults)):
        reading.append("--header")
    return draw(st.sampled_from(["", "", "", "\ufeff"])) + text, reading


def _line4_tree():
    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    tree = dc.build_hierarchy(dc.euclidean_from_data(points), "pddp")
    return json.loads(dc.tree_to_json(tree))


LINE4_TREE = _line4_tree()
ODD_JSON_VALUES = [
    None, True, "0", -1, 0, 3, 10**400, 0.5, -0.0, float("nan"), float("inf"), [], {}, [0, 1],
]


def _json_paths(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _json_paths(child, path + (key,))


TREE_PATHS = list(_json_paths(LINE4_TREE))[1:]


@st.composite
def tree_texts(draw):
    """A 4-leaf tree's JSON with values replaced or deleted, then maybe cut
    short or nested deeper than the parser may go."""
    payload = copy.deepcopy(LINE4_TREE)
    for _ in range(draw(st.integers(0, 2))):
        *head, last = draw(st.sampled_from(TREE_PATHS))
        try:
            parent = payload
            for key in head:
                parent = parent[key]
            if draw(st.booleans()):
                parent[last] = draw(st.sampled_from(ODD_JSON_VALUES))
            else:
                del parent[last]
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation took this path away
    text = json.dumps(payload)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text) - 1))]
    depth = draw(st.sampled_from([0, 0, 1, 100_000]))
    return "[" * depth + text + "]" * depth


def _run_cli(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), err.getvalue()
    return code


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    csv=csv_inputs(),
    algo=st.sampled_from(ALGORITHMS),
    metrics=st.sampled_from(["gk,tau,cpcc", "cpcc", "tau,gk", "gk,", "cpcc,xyz"]),
    tree=tree_texts(),
    bench=st.tuples(
        st.sampled_from([1, 2, 0]),
        st.sampled_from([4, 6, 3, 2]),
        st.sampled_from([1, 2, 0]),
        st.integers(-(2**70), 2**70),
        st.sampled_from([1, 0]),  # more threads would start worker processes
    ),
)
@example(csv=("", ["--format", "dist"]), algo="pddp", metrics="cpcc",
         tree=json.dumps(LINE4_TREE), bench=(1, 4, 1, 0, 1))
@example(csv=("x,y\n", ["--format", "data", "--header"]), algo="pddp", metrics="cpcc",
         tree=json.dumps(LINE4_TREE), bench=(1, 4, 1, 0, 1))
def test_every_subcommand_exits_0_or_2_with_one_error_line(csv, algo, metrics, tree, bench):
    text, reading = csv
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        source, stored, built = work / "in.csv", work / "stored.json", work / "built.json"
        source.write_text(text, encoding="utf-8")
        stored.write_text(tree, encoding="utf-8")
        cluster = ["cluster", str(source), *reading, "--algo", algo, "--out", str(built),
                   "--newick", str(work / "built.nwk")]
        trees = [stored] + ([built] if _run_cli(cluster) == 0 else [])
        for path in trees:
            _run_cli(["eval", "--tree", str(path), "--input", str(source), *reading,
                      "--metrics", metrics])
            _run_cli(["plot", "--tree", str(path), "--out", str(work / "tree.svg")])
        datasets, objects, variables, seed, threads = map(str, bench)
        _run_cli(["bench", "--datasets", datasets, "--objects", objects, "--vars", variables,
                  "--seed", seed, "--threads", threads, "--out", str(work / "summary.csv"),
                  "--cells", str(work / "cells.csv")])
