import json
import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divclust as dc
from conftest import DIVISIVE_SPLITTERS, FOLDED_SUM_TABLE, random_matrix, tie_heavy_matrices
from divclust.benchmark import generate_dataset
from divclust.hierarchy import _SLICE_FLOOR, _child_table
from helpers import average_link, average_link_float, square_from_condensed

ALGORITHMS = [
    "two-seeds:complete",
    "two-seeds:silhouette",
    "macnaughton-smith",
    "pddp",
    "average-agglomerative",
]


def node_tuple(node: dc.DendrogramNode):
    return (node.id, node.members, node.level, node.children)


def test_divisive_line4_structure(line4):
    tree = dc.divisive_hierarchy(line4, dc.parse_splitter("two-seeds:average"))
    assert tree.n == 4
    assert [node_tuple(x) for x in tree.nodes] == [
        (0, (0, 1, 2, 3), 11.0, (1, 2)),
        (1, (0, 1), 1.0, (3, 4)),
        (2, (2, 3), 1.0, (5, 6)),
        (3, (0,), 0.0, None),
        (4, (1,), 0.0, None),
        (5, (2,), 0.0, None),
        (6, (3,), 0.0, None),
    ]
    assert tree.root.id == 0
    assert [leaf.members[0] for leaf in tree.leaves()] == [0, 1, 2, 3]


def test_divisive_two_objects():
    m = dc.DissimilarityMatrix(2, [5.0])
    tree = dc.divisive_hierarchy(m, dc.parse_splitter("pddp"))
    assert [node_tuple(x) for x in tree.nodes] == [
        (0, (0, 1), 5.0, (1, 2)),
        (1, (0,), 0.0, None),
        (2, (1,), 0.0, None),
    ]


def test_pddp_hierarchy_survives_an_all_tied_cluster():
    m = dc.DissimilarityMatrix(3, [0.0, 0.0, 0.0])
    tree = dc.divisive_hierarchy(m, dc.parse_splitter("pddp"))
    assert len(tree.nodes) == 5
    assert tree.root.members == (0, 1, 2)
    assert all(node.level == 0.0 for node in tree.nodes)


@pytest.mark.parametrize("token", ALGORITHMS)
def test_every_algorithm_builds_a_complete_binary_tree(token):
    for seed in range(4):
        n = 6 + 3 * seed
        m, _ = random_matrix(6000 + seed, n)
        tree = dc.build_hierarchy(m, token)
        assert len(tree.nodes) == 2 * n - 1
        assert tree.root.members == tuple(range(n))
        assert len(tree.leaves()) == n
        for node in tree.nodes:
            if node.children is not None:
                for child in node.children:
                    assert tree.nodes[child].level <= node.level
        assert sorted(tree.preorder) == list(range(2 * n - 1))
        assert tree.preorder[0] == tree.root.id
        for nid, after in zip(tree.preorder, tree.preorder[1:]):
            if tree.nodes[nid].children is not None:
                assert after == tree.nodes[nid].children[0]


def zero_block_matrix() -> dc.DissimilarityMatrix:
    """Small integers with an all-zero block over objects 0-3: tied candidates,
    and clusters that leave the principal axis no positive eigenvalue, one of
    which the two-seeds criteria split in different ways."""
    rng = np.random.default_rng(15)
    table = np.triu(rng.integers(1, 4, (9, 9)), 1)
    table[:4, :4] = 0
    return dc.validate_matrix(table + table.T)


@pytest.mark.parametrize("token", [s.token for s in DIVISIVE_SPLITTERS])
def test_divisive_levels_are_diameters(token):
    splitter = dc.parse_splitter(token)
    fallback = dc.parse_splitter("two-seeds:average")
    for m in (random_matrix(77, 9)[0], zero_block_matrix()):
        tree = dc.build_hierarchy(m, token)
        sq = m.square()
        for node in tree.nodes:
            ms = list(node.members)
            expected = float(sq[np.ix_(ms, ms)].max()) if len(ms) > 1 else 0.0
            assert node.level == expected
            if node.children is None:
                continue
            try:
                split = dc.split_cluster(m, node.members, splitter)
            except dc.NoPositiveEigenvalueError:
                split = dc.split_cluster(m, node.members, fallback)
            assert (split.left, split.right) == tuple(tree.nodes[c].members for c in node.children)


def test_macnaughton_smith_peels_a_caterpillar_into_a_chain():
    # d(a, b) = max of the two positions: an ultrametric whose only tree is a
    # chain, each node's level the largest position among its members
    n = 300
    rank = np.random.default_rng(300).permutation(n)
    square = np.maximum(rank[:, None], rank[None, :]).astype(float)
    np.fill_diagonal(square, 0.0)
    tree = dc.build_hierarchy(dc.validate_matrix(square), "macnaughton-smith")
    for node in tree.nodes:
        if node.children is None:
            continue
        ms = list(node.members)
        assert node.level == float(square[np.ix_(ms, ms)].max()) == rank[ms].max()
        assert min(len(tree.nodes[c].members) for c in node.children) == 1


def test_pair_level_of_a_negative_zero_entry_is_zero():
    # -0.0 passes the nonnegativity check; a pair levels at +0.0, as the max
    # of its table with the zero diagonal does, so the JSON text is unchanged
    tree = dc.build_hierarchy(dc.DissimilarityMatrix(3, [-0.0, 1.0, 1.0]), "two-seeds:average")
    pair = next(node for node in tree.nodes if len(node.members) == 2)
    assert math.copysign(1.0, pair.level) == 1.0
    assert dc.tree_to_json(tree) == dc.tree_to_json(
        dc.build_hierarchy(dc.DissimilarityMatrix(3, [0.0, 1.0, 1.0]), "two-seeds:average")
    )


SCALES = (400, -400, 530, -530, 1017)


def assert_scale_equivariant(m: dc.DissimilarityMatrix, token: str):
    # a power-of-two scale is exact, and every algorithm is scale-equivariant:
    # the tree must not change and every level must scale exactly
    tree = dc.build_hierarchy(m, token)
    for e in SCALES:
        scaled = dc.build_hierarchy(dc.DissimilarityMatrix(m.n, np.ldexp(m.condensed, e)), token)
        for node, twin in zip(tree.nodes, scaled.nodes):
            assert (twin.members, twin.children) == (node.members, node.children)
            assert twin.level == np.ldexp(node.level, e)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=30, deadline=None)
@given(tie_heavy_matrices(min_k=3))
def test_trees_are_scale_equivariant_on_tie_heavy_input(case):
    k, values = case
    for token in dc.DEFAULT_ALGORITHMS:
        assert_scale_equivariant(dc.DissimilarityMatrix(k, values), token)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("token", dc.DEFAULT_ALGORITHMS)
def test_trees_are_scale_equivariant_on_grid_tables(token):
    for master_seed, objects in ((0, 40), (1, 24)):
        data = generate_dataset(master_seed, 0, objects, 10)
        assert_scale_equivariant(dc.euclidean_from_data(data), token)


def test_agglomerative_line4_structure(line4):
    tree = dc.agglomerative_average_link(line4)
    assert [node_tuple(x) for x in tree.nodes] == [
        (0, (0,), 0.0, None),
        (1, (1,), 0.0, None),
        (2, (2,), 0.0, None),
        (3, (3,), 0.0, None),
        (4, (0, 1), 1.0, (0, 1)),  # tie with {2,3}: smallest pair merges first
        (5, (2, 3), 1.0, (2, 3)),
        (6, (0, 1, 2, 3), 10.0, (4, 5)),
    ]


def test_agglomerative_merge_levels_never_decrease():
    for seed in range(5):
        n = 5 + 2 * seed
        m, _ = random_matrix(7000 + seed, n)
        tree = dc.agglomerative_average_link(m)
        merge_levels = [node.level for node in tree.nodes[n:]]
        for earlier, later in zip(merge_levels, merge_levels[1:]):
            assert later >= earlier - 1e-12


def test_agglomerative_merge_level_equals_direct_mean():
    m, _ = random_matrix(49, 8)
    tree = dc.agglomerative_average_link(m)
    sq = m.square()
    for node in tree.nodes:
        if node.children is None:
            continue
        a = list(tree.nodes[node.children[0]].members)
        b = list(tree.nodes[node.children[1]].members)
        assert node.level == pytest.approx(float(sq[np.ix_(a, b)].mean()), rel=1e-12)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tie_heavy_matrices(max_k=12))
def test_agglomerative_matches_the_oracle_on_tie_heavy_input(case):
    # integer entries: every sum is exact, so each level must match bitwise
    k, values = case
    tree = dc.agglomerative_average_link(dc.DissimilarityMatrix(k, values))
    assert [node_tuple(x) for x in tree.nodes] == average_link(square_from_condensed(k, values))


def test_agglomerative_keeps_levels_monotone_under_folded_sum_rounding():
    tree = dc.build_hierarchy(dc.DissimilarityMatrix(8, FOLDED_SUM_TABLE), "average-agglomerative")
    ints = [round(10 * v) for v in FOLDED_SUM_TABLE]
    oracle = average_link(square_from_condensed(8, ints))
    assert [(x.members, x.children) for x in tree.nodes] == [(o[1], o[3]) for o in oracle]
    assert [x.level for x in tree.nodes] == pytest.approx([0.1 * o[2] for o in oracle], rel=1e-15)
    assert tree.root.level == tree.nodes[tree.root.children[0]].level == 0.2


@settings(derandomize=True, max_examples=150, deadline=None)
@given(tie_heavy_matrices(min_k=3, max_k=60), st.sampled_from([1.0, 0.1]))
# a merged mean that rounds to tie a row's cached minimum from a later column
# must take the row over, as the scan's first minimum does
@example((8, [2, 0, 1, 1, 3, 1, 0, 3, 3, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 2, 3, 0, 1, 3, 0, 0, 2]), 0.1)
def test_agglomerative_matches_the_full_table_scan_bitwise(case, scale):
    # integer means tie exactly; times 0.1, tied means differ in their last
    # bits by summation order, so the cached row minima must follow the scan
    k, values = case
    m = dc.DissimilarityMatrix(k, [scale * v for v in values])
    tree = dc.agglomerative_average_link(m)
    assert [node_tuple(x) for x in tree.nodes] == average_link_float(m)


def test_agglomerative_matches_the_full_table_scan_on_a_1100_leaf_caterpillar():
    n = 1100
    rank = np.random.default_rng(1100).permutation(n)
    square = np.maximum(rank[:, None], rank[None, :]).astype(float)
    np.fill_diagonal(square, 0.0)
    m = dc.validate_matrix(square)
    tree = dc.agglomerative_average_link(m)
    assert [node_tuple(x) for x in tree.nodes] == average_link_float(m)


@pytest.mark.parametrize("size", [_SLICE_FLOOR - 1, _SLICE_FLOOR, _SLICE_FLOOR + 1])
@pytest.mark.parametrize(
    "dropped, runs",
    [
        ((0, 1, 2, 3), 1),
        ((-4, -3, -2, -1), 1),
        ((0, 1, 2, 50), 2),
        ((50, -3, -2, -1), 2),
        ((0, 40, 41, -1), 2),
        ((10, 11, 60, 61), 3),
        ((10, 60, 110, -1), 4),
        ((10, 60, 110, 150), 5),
    ],
)
def test_child_table_is_the_copy_two_takes_make(size, dropped, runs):
    k = size + len(dropped)
    sub = np.random.default_rng(size).uniform(0.0, 1.0, (k, k))
    sub[5, 7] = -0.0  # a sign only a bitwise comparison sees
    pos = np.delete(np.arange(k), [d % k for d in dropped])
    assert 1 + np.count_nonzero(np.diff(pos) != 1) == runs
    child = _child_table(sub, pos)
    twin = sub.take(pos, 0).take(pos, 1)
    assert child.flags.c_contiguous and child.dtype == twin.dtype
    assert child.shape == twin.shape and child.tobytes() == twin.tobytes()


def test_build_hierarchy_rejects_unknown_token(line4):
    with pytest.raises(dc.DivclustError, match="unknown algorithm"):
        dc.build_hierarchy(line4, "k-means")


def test_build_hierarchy_dispatches_tokens(line4):
    direct = dc.divisive_hierarchy(line4, dc.parse_splitter("two-seeds:dunn"))
    assert dc.build_hierarchy(line4, "two-seeds:dunn") == direct
    assert dc.build_hierarchy(line4, "average-agglomerative") == dc.agglomerative_average_link(line4)


def test_cophenetic_line4_divisive(line4):
    tree = dc.divisive_hierarchy(line4, dc.parse_splitter("two-seeds:average"))
    u = dc.cophenetic(tree)
    assert list(u.condensed) == [1.0, 11.0, 11.0, 11.0, 11.0, 1.0]


def test_cophenetic_line4_agglomerative(line4):
    u = dc.cophenetic(dc.agglomerative_average_link(line4))
    assert list(u.condensed) == [1.0, 10.0, 10.0, 10.0, 10.0, 1.0]


@pytest.mark.parametrize("token", ALGORITHMS)
def test_cophenetic_is_ultrametric(token):
    m, _ = random_matrix(8000, 10)
    u = dc.cophenetic(dc.build_hierarchy(m, token)).square()
    n = u.shape[0]
    for k in range(n):
        bound = np.maximum(u[:, k][:, None], u[k, :][None, :])
        assert np.all(u <= bound + 1e-12)


def test_cophenetic_has_at_most_one_value_per_merge():
    m, _ = random_matrix(8001, 12)
    for token in ("two-seeds:single", "average-agglomerative"):
        u = dc.cophenetic(dc.build_hierarchy(m, token))
        assert len(set(u.condensed.tolist())) <= 11


@settings(derandomize=True, max_examples=150, deadline=None)
@given(tie_heavy_matrices(), st.sampled_from(dc.DEFAULT_ALGORITHMS))
def test_json_round_trip_is_lossless_and_idempotent(case, token):
    k, values = case
    tree = dc.build_hierarchy(dc.DissimilarityMatrix(k, values), token)
    text = dc.tree_to_json(tree)
    back = dc.tree_from_json(text)
    assert back.n == tree.n
    for mine, theirs in zip(tree.nodes, back.nodes):
        assert theirs.members == mine.members
        assert theirs.children == mine.children
        assert theirs.level == float(f"{mine.level:.9g}")
    assert dc.tree_to_json(back) == text


def test_json_shape(line4):
    tree = dc.divisive_hierarchy(line4, dc.parse_splitter("two-seeds:average"))
    payload = json.loads(dc.tree_to_json(tree))
    assert set(payload) == {"n", "nodes"}
    assert payload["n"] == 4
    assert len(payload["nodes"]) == 7
    assert payload["nodes"][0] == {"id": 0, "members": [0, 1, 2, 3], "level": 11.0, "children": [1, 2]}
    assert payload["nodes"][3] == {"id": 3, "members": [0], "level": 0.0}


def json_in_one_dumps(tree: dc.Dendrogram) -> str:
    """The reference layout: one indented json.dumps of the whole document."""
    records = []
    for node in tree.nodes:
        rec = {"id": node.id, "members": list(node.members), "level": float(f"{node.level:.9g}")}
        if node.children is not None:
            rec["children"] = list(node.children)
        records.append(rec)
    return json.dumps({"n": tree.n, "nodes": records}, indent=2)


def caterpillar(n: int) -> dc.Dendrogram:
    """The chain tree: node n merges objects 0 and 1, and each later node adds the next object."""
    nodes = [dc.DendrogramNode(i, (i,), 0.0) for i in range(n)]
    nodes.append(dc.DendrogramNode(n, (0, 1), 1 / 7, (0, 1)))
    for obj in range(2, n):
        nodes.append(dc.DendrogramNode(len(nodes), tuple(range(obj + 1)), obj / 7, (len(nodes) - 1, obj)))
    return dc.Dendrogram(n, tuple(nodes))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(tie_heavy_matrices(), st.sampled_from(dc.DEFAULT_ALGORITHMS))
def test_json_text_keeps_its_layout_on_tie_heavy_trees(case, token):
    k, values = case
    tree = dc.build_hierarchy(dc.DissimilarityMatrix(k, values), token)
    assert dc.tree_to_json(tree) == json_in_one_dumps(tree)


def test_json_text_keeps_its_layout_on_a_deep_caterpillar():
    tree = caterpillar(1100)
    text = dc.tree_to_json(tree)
    assert text == json_in_one_dumps(tree)
    back = dc.tree_from_json(text)
    assert [(x.members, x.children) for x in back.nodes] == [(x.members, x.children) for x in tree.nodes]
    assert [x.level for x in back.nodes] == [float(f"{x.level:.9g}") for x in tree.nodes]
    assert dc.tree_to_json(back) == text


def test_json_accepts_shuffled_node_order():
    records = [
        {"id": 1, "members": [0], "level": 0},
        {"id": 0, "members": [0, 1], "level": 5, "children": [1, 2]},
        {"id": 2, "members": [1], "level": 0},
    ]
    tree = dc.tree_from_json(json.dumps({"n": 2, "nodes": records}))
    assert tree.root.id == 0
    assert tree.root.level == 5.0


BAD_JSON = [
    "[[[",
    "[]",
    '{"n": 2}',
    '{"n": 2, "nodes": [], "extra": 1}',
    '{"n": true, "nodes": []}',
    '{"n": 2, "nodes": {}}',
    '{"n": 2, "nodes": [{"id": 0, "members": [0, 1]}]}',
    '{"n": 2, "nodes": [{"id": 0, "members": [0, 1], "level": 5, "label": "x"}]}',
    '{"n": 2, "nodes": [{"id": 0, "members": 0, "level": 5}]}',
    '{"n": 2, "nodes": [{"id": 0, "members": [true], "level": 5}]}',
    '{"n": 2, "nodes": [{"id": 0, "members": [0, 1], "level": "5"}]}',
    '{"n": 2, "nodes": [{"id": 0, "members": [0, 1], "level": true}]}',
    '{"n": 2, "nodes": [{"id": 0.5, "members": [0, 1], "level": 5}]}',
    '{"n": 2, "nodes": [{"id": 0, "members": [0, 1], "level": 5, "children": [1]}]}',
    '{"n": 2, "nodes": [{"id": 0, "members": [0, 1], "level": 5, "children": 3}]}',
    '{"n": 2, "nodes": [{"id": 0, "members": [0, 1], "level": 5, "children": [1, 2.0]}]}',
]


@pytest.mark.parametrize("text", BAD_JSON)
def test_malformed_json_is_rejected(text):
    with pytest.raises(dc.DivclustError):
        dc.tree_from_json(text)


def leaf(i: int, obj: int) -> dc.DendrogramNode:
    return dc.DendrogramNode(i, (obj,), 0.0)


def test_structural_validation_rejects_bad_trees():
    root = dc.DendrogramNode(0, (0, 1), 5.0, (1, 2))
    with pytest.raises(dc.DivclustError, match="expected 3 nodes"):
        dc.Dendrogram(2, (root, leaf(1, 0)))
    with pytest.raises(dc.DivclustError, match="storage order"):
        dc.Dendrogram(2, (root, leaf(2, 1), leaf(1, 0)))
    with pytest.raises(dc.DivclustError, match="ascending"):
        dc.Dendrogram(2, (dc.DendrogramNode(0, (1, 0), 5.0, (1, 2)), leaf(1, 0), leaf(2, 1)))
    with pytest.raises(dc.DivclustError, match="out of range"):
        dc.Dendrogram(2, (dc.DendrogramNode(0, (0, 2), 5.0, (1, 2)), leaf(1, 0), leaf(2, 2)))
    with pytest.raises(dc.DivclustError, match="leaf level"):
        dc.Dendrogram(2, (root, dc.DendrogramNode(1, (0,), 1.0), leaf(2, 1)))
    with pytest.raises(dc.DivclustError, match="singleton"):
        dc.Dendrogram(2, (dc.DendrogramNode(0, (0, 1), 5.0), leaf(1, 0), leaf(2, 1)))
    with pytest.raises(dc.DivclustError, match="bad child ids"):
        dc.Dendrogram(2, (dc.DendrogramNode(0, (0, 1), 5.0, (1, 1)), leaf(1, 0), leaf(2, 1)))
    with pytest.raises(dc.DivclustError, match="partition"):
        dc.Dendrogram(2, (root, leaf(1, 0), leaf(2, 0)))
    with pytest.raises(dc.DivclustError, match="nonnegative"):
        dc.Dendrogram(2, (dc.DendrogramNode(0, (0, 1), -1.0, (1, 2)), leaf(1, 0), leaf(2, 1)))
    with pytest.raises(dc.DivclustError, match="exceeds parent"):
        dc.Dendrogram(
            3,
            (
                dc.DendrogramNode(0, (0, 1, 2), 1.0, (1, 2)),
                dc.DendrogramNode(1, (0, 1), 2.0, (3, 4)),
                leaf(2, 2),
                leaf(3, 0),
                leaf(4, 1),
            ),
        )
    with pytest.raises(dc.DivclustError, match="one root"):
        dc.Dendrogram(
            3,
            (
                dc.DendrogramNode(0, (0, 1), 1.0, (1, 2)),
                leaf(1, 0),
                leaf(2, 1),
                leaf(3, 2),
                leaf(4, 2),
            ),
        )


@contextmanager
def within_seconds(seconds: float):
    """Fail with TimeoutError instead of hanging past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_validation_walk_rejects_disordered_repeated_and_cyclic_nodes():
    # only the root's order is checked directly; the partition check must
    # catch disorder and repeats below it
    disordered = (
        dc.DendrogramNode(0, (0, 1, 2), 2.0, (1, 2)),
        dc.DendrogramNode(1, (1, 0), 1.0, (3, 4)),
        leaf(2, 2),
        leaf(3, 0),
        leaf(4, 1),
    )
    repeated = (
        dc.DendrogramNode(0, (0, 1, 2), 2.0, (1, 2)),
        dc.DendrogramNode(1, (0, 0), 1.0, (3, 4)),
        leaf(2, 2),
        leaf(3, 0),
        leaf(4, 0),
    )
    # beside an empty sibling a node partitions itself; only the non-empty
    # check keeps the walk from revisiting it forever
    cyclic = (dc.DendrogramNode(0, (0, 1), 1.0, (0, 1)), dc.DendrogramNode(1, (), 0.0), leaf(2, 1))
    with within_seconds(2.0):
        with pytest.raises(dc.DivclustError, match="partition"):
            dc.Dendrogram(3, disordered)
        with pytest.raises(dc.DivclustError, match="partition"):
            dc.Dendrogram(3, repeated)
        with pytest.raises(dc.DivclustError, match="no members"):
            dc.Dendrogram(2, cyclic)


def test_newick_line4(line4):
    tree = dc.divisive_hierarchy(line4, dc.parse_splitter("two-seeds:average"))
    assert dc.to_newick(tree) == "((o1:1,o2:1):10,(o3:1,o4:1):10);"
    agg = dc.agglomerative_average_link(line4)
    assert dc.to_newick(agg) == "((o1:1,o2:1):9,(o3:1,o4:1):9);"


def test_newick_two_objects():
    tree = dc.divisive_hierarchy(dc.DissimilarityMatrix(2, [5.0]), dc.parse_splitter("pddp"))
    assert dc.to_newick(tree) == "(o1:5,o2:5);"
