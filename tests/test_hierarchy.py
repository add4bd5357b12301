import json
import math
import random
import signal
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divclust as dc
from conftest import (
    DIVISIVE_SPLITTERS,
    FOLDED_SUM_TABLE,
    MEAN_TIE_TABLE,
    random_matrix,
    tie_heavy_matrices,
)
from divclust import hierarchy
from divclust.benchmark import generate_dataset
from helpers import (
    average_link,
    average_link_float,
    cophenetic_from_nodes,
    macnaughton_smith_tree_float,
    square_from_condensed,
)

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


@pytest.mark.parametrize("token", [s.token for s in DIVISIVE_SPLITTERS])
def test_levels_of_negative_zero_entries_are_positive_zero(token):
    # a 3-member cluster whose entries are all -0.0 levels at +0.0, as the max
    # over its table with the zero diagonal does
    tree = dc.build_hierarchy(dc.DissimilarityMatrix(4, [-0.0, -0.0, 1.0, -0.0, 1.0, 1.0]), token)
    zero = next(node for node in tree.nodes if node.members == (0, 1, 2))
    assert [math.copysign(1.0, tree.nodes[i].level) for i in zero.children] == [1.0, 1.0]
    assert math.copysign(1.0, zero.level) == 1.0


def caterpillar_matrix(n: int) -> dc.DissimilarityMatrix:
    """d(a, b) is the larger of the two objects' chain positions."""
    rank = np.random.default_rng(n).permutation(n)
    square = np.maximum(rank[:, None], rank[None, :]).astype(float)
    np.fill_diagonal(square, 0.0)
    return dc.validate_matrix(square)


def mixed_magnitude_matrix(seed: int, k: int = 16, block: int = 6) -> dc.DissimilarityMatrix:
    """Entries near 1 around a block of objects whose mutual entries are near 1e-200."""
    rng = np.random.default_rng(seed)
    table = np.triu(rng.integers(1, 4, (k, k)) * 0.1 + 1.0, 1)
    picked = np.sort(rng.choice(k, block, replace=False))
    table[np.ix_(picked, picked)] *= 1e-200
    return dc.validate_matrix(np.triu(table, 1) + np.triu(table, 1).T)


def carrying_every_child():
    """Children of every size peel from carried row totals, not only large ones."""
    return mock.patch.object(hierarchy, "_CARRY_FLOOR", 3)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(tie_heavy_matrices(min_k=3, max_k=60), st.sampled_from([1.0, 0.1]))
def test_macnaughton_smith_tree_matches_the_full_table_loop_bitwise(case, scale):
    # children peel from carried row totals; times 0.1, tied gaps and means
    # differ in their last bits, so every seed and move must still be the one
    # a fresh evaluation of the child's own table makes
    k, values = case
    m = dc.DissimilarityMatrix(k, [scale * v for v in values])
    expected = macnaughton_smith_tree_float(m)
    assert [node_tuple(x) for x in dc.build_hierarchy(m, "macnaughton-smith").nodes] == expected
    with carrying_every_child():
        tree = dc.build_hierarchy(m, "macnaughton-smith")
    assert [node_tuple(x) for x in tree.nodes] == expected


def test_macnaughton_smith_tree_matches_the_full_table_loop_on_a_400_leaf_caterpillar():
    m = caterpillar_matrix(400)
    tree = dc.build_hierarchy(m, "macnaughton-smith")
    assert [node_tuple(x) for x in tree.nodes] == macnaughton_smith_tree_float(m)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(6))
def test_macnaughton_smith_tree_matches_the_full_table_loop_across_magnitudes(seed):
    # the block's clusters fall below the magnitude window, so they are
    # split from their own tables brought into it, not from carried totals
    m = mixed_magnitude_matrix(seed)
    with carrying_every_child():
        tree = dc.build_hierarchy(m, "macnaughton-smith")
    assert any(len(x.members) > 2 and 0.0 < x.level < 2.0**-160 for x in tree.nodes)
    assert [node_tuple(x) for x in tree.nodes] == macnaughton_smith_tree_float(m)


def test_macnaughton_smith_seeds_the_first_largest_mean_not_total():
    totals = MEAN_TIE_TABLE.sum(axis=1)
    assert np.argmax(totals) == 3 and np.argmax(totals / 6) == 1
    split = dc.macnaughton_smith_split(dc.validate_matrix(MEAN_TIE_TABLE), range(7))
    assert split == dc.Bipartition((0, 3, 4, 5, 6), (1, 2))
    # an eighth object at 1.0 from all peels off alone, and the seven are then
    # seeded from the totals they carry, which must be compared as means too
    table = np.ones((8, 8))
    table[:7, :7] = MEAN_TIE_TABLE
    np.fill_diagonal(table, 0.0)
    with carrying_every_child():
        tree = dc.build_hierarchy(dc.validate_matrix(table), "macnaughton-smith")
    seven = next(node for node in tree.nodes if node.members == tuple(range(7)))
    assert [tree.nodes[c].members for c in seven.children] == [(0, 3, 4, 5, 6), (1, 2)]


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


def assert_cophenetic_matches_the_nodes(tree: dc.Dendrogram):
    expected = np.array(cophenetic_from_nodes(tree.nodes, tree.n))
    assert dc.cophenetic(tree).condensed.tobytes() == expected.tobytes()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(tie_heavy_matrices())
def test_cophenetic_is_the_level_of_the_smallest_common_node_on_built_trees(case):
    k, values = case
    for token in dc.DEFAULT_ALGORITHMS:
        assert_cophenetic_matches_the_nodes(dc.build_hierarchy(dc.DissimilarityMatrix(k, values), token))


def larger_first_tree(seed: int, n: int) -> dc.Dendrogram:
    """Random splits, ids breadth-first, whose first child holds the cluster's
    largest object, so leaf order runs against object order; each level is
    its children's larger one, raised by 0 or 1, so levels tie often."""
    rng = random.Random(seed)
    members = [tuple(range(n))]
    children: dict[int, tuple[int, int]] = {}
    for nid in range(2 * n - 1):
        if len(members[nid]) > 1:
            picked = set(rng.sample(members[nid], rng.randrange(1, len(members[nid]))))
            sides = [tuple(x for x in members[nid] if (x in picked) == flag) for flag in (True, False)]
            sides.sort(key=max, reverse=True)
            children[nid] = (len(members), len(members) + 1)
            members.extend(sides)
    levels = [0.0] * len(members)
    for nid in sorted(children, reverse=True):
        levels[nid] = max(levels[c] for c in children[nid]) + rng.choice([0.0, 0.0, 1.0])
    return dc.Dendrogram(n, tuple(
        dc.DendrogramNode(i, members[i], levels[i], children.get(i)) for i in range(len(members))
    ))


@pytest.mark.parametrize("seed", range(12))
def test_cophenetic_is_the_level_of_the_smallest_common_node_when_first_children_hold_larger_objects(seed):
    tree = larger_first_tree(seed, 3 + 3 * seed)
    assert any(tree.order[a] > tree.order[b] for a, b in zip(range(tree.n), range(1, tree.n)))
    assert_cophenetic_matches_the_nodes(tree)


def test_cophenetic_is_the_level_of_the_smallest_common_node_on_a_deep_caterpillar():
    tree = caterpillar(1100)
    assert_cophenetic_matches_the_nodes(tree)
    # one 1100 x 1100 leaf-order table (9.7 MB) beside the packed values (4.8 MB)
    tracemalloc.start()
    try:
        dc.cophenetic(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15e6


def test_root_and_leaves_are_the_records_nodes_derives_on_a_deep_tree():
    # root and leaves are read from the arrays, without deriving every
    # node's members
    tree = dc.build_hierarchy(caterpillar_matrix(400), "macnaughton-smith")
    root, leaves = tree.root, tree.leaves()
    assert "nodes" not in vars(tree)
    internal = tree.children[tree.children[:, 0] >= 0]
    assert (tree.sizes[internal].min(axis=1) == 1).all()  # a chain, 399 nodes deep
    assert root == tree.nodes[tree.preorder[0]]
    assert leaves == tuple(node for node in tree.nodes if node.is_leaf)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(tie_heavy_matrices(), st.sampled_from(dc.DEFAULT_ALGORITHMS))
def test_json_round_trip_is_lossless_and_idempotent(case, token):
    k, values = case
    tree = dc.build_hierarchy(dc.DissimilarityMatrix(k, values), token)
    # the members path and the builders' arrays path store the same tree,
    # and every derived member tuple is ascending
    assert dc.Dendrogram(tree.n, tree.nodes) == tree
    assert all(list(node.members) == sorted(set(node.members)) for node in tree.nodes)
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
    pytest.param('{"n": 2, "nodes": [{"id": 0, "members": [0, 1], "level": 1%s}]}' % ("0" * 400),
                 id="level-of-401-digits"),
    pytest.param("[" * 100_000, id="nested-100000-deep"),
]


@pytest.mark.parametrize("text", BAD_JSON)
def test_malformed_json_is_rejected(text):
    with pytest.raises(dc.DivclustError, match="malformed tree JSON"):
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


def test_structural_check_of_built_trees_rejects_bad_arrays():
    # a builder hands over child pairs (None for a leaf), levels and each
    # leaf's object; over three objects, node 4 joins node 3 = {0, 1} and 2
    kids = [None, None, None, (0, 1), (3, 2)]
    assert hierarchy._check_structure(3, kids, [0, 0, 0, 1, 2], range(5)) == [4, 3, 0, 1, 2]
    for bad, levels, objects, message in [
        ([None, None, None, (0, 1), (3, 5)], [0, 0, 0, 1, 2], range(5), "bad child ids"),
        ([None, None, None, (0, 1), (3, 3)], [0, 0, 0, 1, 2], range(5), "one root"),
        ([None, None, None, (0, 1), (4, 2)], [0, 0, 0, 1, 2], range(5), "one root"),
        ([None, None, (0, 1)], [0, 0, 1], range(3), "one root"),
        (kids, [0, 0, 0, 1, 2], [0, 0, 1, 0, 0], "objects 0..n-1"),
        (kids, [0, 0, 0, 1, math.inf], range(5), "finite"),
        (kids, [0, 0.5, 0, 1, 2], range(5), "leaf level"),
        (kids, [0, 0, 0, 3, 2], range(5), "exceeds parent"),
    ]:
        with pytest.raises(dc.DivclustError, match=message):
            hierarchy._check_structure(3, bad, levels, objects)


def test_trees_never_change():
    tree = caterpillar(5)
    with pytest.raises(AttributeError):
        tree.n = 6
    with pytest.raises(ValueError):
        tree.levels[0] = 1.0
    assert tree == caterpillar(5) and hash(tree) == hash(caterpillar(5))


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
