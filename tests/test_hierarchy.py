import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divclust as dc
from conftest import DIVISIVE_SPLITTERS, random_matrix, tie_heavy_matrices
from divclust.benchmark import generate_dataset

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


def test_newick_line4(line4):
    tree = dc.divisive_hierarchy(line4, dc.parse_splitter("two-seeds:average"))
    assert dc.to_newick(tree) == "((o1:1,o2:1):10,(o3:1,o4:1):10);"
    agg = dc.agglomerative_average_link(line4)
    assert dc.to_newick(agg) == "((o1:1,o2:1):9,(o3:1,o4:1):9);"


def test_newick_two_objects():
    tree = dc.divisive_hierarchy(dc.DissimilarityMatrix(2, [5.0]), dc.parse_splitter("pddp"))
    assert dc.to_newick(tree) == "(o1:5,o2:5);"
