import json
import math
import re
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

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
])
def test_plot_and_eval_exit_2_on_tree_json_python_cannot_hold(tmp_path, dist_csv, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert cli.main(["plot", "--tree", str(bad), "--out", str(tmp_path / "x.svg")]) == 2
    assert cli.main(["eval", "--tree", str(bad), "--input", str(dist_csv)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: malformed tree JSON") for line in err)


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
