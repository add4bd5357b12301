import json
import math
import random
import re
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
    run_python,
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


# The pddp tree of the 150-point, 5-centre mixture, and the root's axis as
# bytes; its clusters of 96 or more objects cross OpenBLAS's threading
# threshold for a matrix-vector product
PDDP_TREE_OF_THE_MIXTURE = """
import hashlib
import numpy as np
import divclust as dc
rng = np.random.default_rng(7)
centres = rng.uniform(-6.0, 6.0, (5, 10))
m = dc.euclidean_from_data(np.concatenate([c + rng.normal(size=(30, 10)) for c in centres]))
print(hashlib.sha256(dc.pcoa_first_axis(m, range(150)).coords.tobytes()).hexdigest())
print(dc.tree_to_json(dc.build_hierarchy(m, "pddp")))
"""


def test_pddp_trees_have_the_same_bits_at_any_blas_thread_count():
    one = run_python(PDDP_TREE_OF_THE_MIXTURE, OPENBLAS_NUM_THREADS="1")
    two = run_python(PDDP_TREE_OF_THE_MIXTURE, OPENBLAS_NUM_THREADS="2")
    assert json.loads(one.split("\n", 1)[1])["n"] == 150
    assert one == two


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


def assert_builds_split_as_split_cluster(m: dc.DissimilarityMatrix, token: str) -> dc.Dendrogram:
    """Build ``m`` with ``token`` and check every internal node's children
    against the split ``split_cluster`` makes of its members alone."""
    splitter = dc.parse_splitter(token)
    tree = dc.build_hierarchy(m, token)
    for node in tree.nodes:
        if node.children is not None:
            split = dc.split_cluster(m, node.members, splitter)
            assert (split.left, split.right) == tuple(tree.nodes[c].members for c in node.children)
    return tree


@pytest.mark.parametrize("token", [s.token for s in DIVISIVE_SPLITTERS])
def test_divisive_levels_are_diameters(token):
    for m in (random_matrix(77, 9)[0], zero_block_matrix()):
        # the peel's children split from carried row totals
        tree = assert_builds_split_as_split_cluster(m, token)
        sq = m.square()
        for node in tree.nodes:
            ms = list(node.members)
            expected = float(sq[np.ix_(ms, ms)].max()) if len(ms) > 1 else 0.0
            assert node.level == expected


def zero_pair_and_block_values() -> tuple[int, list[float]]:
    """Small integers with d(0, 1) = 0 and an all-zero block over objects 2-5."""
    rng = np.random.default_rng(27)
    table = np.triu(rng.integers(1, 4, (8, 8)), 1)
    table[0, 1] = 0
    table[2:6, 2:6] = 0
    return 8, (table + table.T)[np.triu_indices(8, 1)].astype(float).tolist()


def random_values(case: tuple[int, int]) -> tuple[int, list[float]]:
    k, seed = case
    return k, random_matrix(seed, k)[1]


@pytest.mark.parametrize("token", [s.token for s in DIVISIVE_SPLITTERS])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.one_of(
    tie_heavy_matrices(max_k=12),
    st.tuples(st.integers(2, 12), st.integers(0, 2**32 - 1)).map(random_values),
))
@example(zero_pair_and_block_values())
def test_every_build_splits_each_node_as_split_cluster_does(token, case):
    # pairs and clusters that leave the principal axis no positive
    # eigenvalue included: one split_mask decides every split
    assert_builds_split_as_split_cluster(dc.DissimilarityMatrix(*case), token)


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


@pytest.mark.parametrize("token", dc.DEFAULT_ALGORITHMS)
def test_no_algorithm_writes_a_negative_zero_level(token):
    # a CSV's -0 entries: average link levels the pair by its children's +0.0
    # first, as the divisive rule does
    square = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    tree = dc.build_hierarchy(dc.validate_matrix(square), token)
    assert "-0.0" not in dc.tree_to_json(tree)
    assert ":-0" not in dc.to_newick(tree)


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


@settings(derandomize=True, max_examples=150, deadline=None)
@given(tie_heavy_matrices(min_k=3, max_k=60), st.sampled_from([1.0, 0.1]))
def test_macnaughton_smith_tree_matches_the_full_table_loop_bitwise(case, scale):
    # children peel from carried row totals; times 0.1, tied gaps and means
    # differ in their last bits, so every seed and move must still be the one
    # a fresh evaluation of the child's own table makes
    k, values = case
    m = dc.DissimilarityMatrix(k, [scale * v for v in values])
    tree = dc.build_hierarchy(m, "macnaughton-smith")
    assert [node_tuple(x) for x in tree.nodes] == macnaughton_smith_tree_float(m)


def test_macnaughton_smith_tree_matches_the_full_table_loop_on_a_400_leaf_caterpillar():
    m = caterpillar_matrix(400)
    tree = dc.build_hierarchy(m, "macnaughton-smith")
    assert [node_tuple(x) for x in tree.nodes] == macnaughton_smith_tree_float(m)


@pytest.mark.parametrize("index", range(16))
def test_macnaughton_smith_tree_matches_the_full_table_loop_on_grid_tables(index):
    # on the benchmark's own tables, the carried totals' error bounds decline
    # some starts, whose children gather their tables
    m = dc.euclidean_from_data(generate_dataset(1, index, 40, 10))
    tree = dc.build_hierarchy(m, "macnaughton-smith")
    assert [node_tuple(x) for x in tree.nodes] == macnaughton_smith_tree_float(m)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(6))
def test_macnaughton_smith_tree_matches_the_full_table_loop_across_magnitudes(seed):
    # the block's clusters fall below the magnitude window, so they are
    # split from their own tables brought into it, not from carried totals
    m = mixed_magnitude_matrix(seed)
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


def test_agglomerative_holds_one_working_table_beside_its_packed_input():
    m = caterpillar_matrix(1100)
    # its 1100 x 1100 table of between-cluster sums is 9.7 MB, unpacked
    # from the packed values in place of a copy of the cached square
    tracemalloc.start()
    try:
        dc.agglomerative_average_link(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


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
    # the writer's text, with or without the CLI's newline, is read by
    # writing it back, and the JSON path reads the same tree from it and
    # from its compact form
    assert hierarchy._read_own_text(text) == hierarchy._read_own_text(text + "\n") == back
    assert hierarchy._parse_tree_json(text) == back
    assert dc.tree_from_json(json.dumps(json.loads(text))) == back


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


def shaped_tree(objects: list[int], cut) -> dc.Dendrogram:
    """The tree that splits each run of ``objects`` in two at ``cut(run)``, a node's level its size less one."""
    runs, kids = [objects], []
    for run in runs:  # grows as it goes: each split appends its two sides
        if len(run) == 1:
            kids.append(None)
            continue
        at = cut(run)
        runs += [run[:at], run[at:]]
        kids.append((len(runs) - 2, len(runs) - 1))
    return dc.Dendrogram._built(len(objects), kids, [len(run) - 1.0 for run in runs],
                                [run[0] for run in runs])


TREE_SHAPES = {
    # each node peels its first object: in ascending order the peeled name goes
    # before every other, in descending order after every other
    "ascending peel": (sorted, lambda run: 1),
    "descending peel": (lambda objects: sorted(objects, reverse=True), lambda run: 1),
    "peel": (list, lambda run: 1),
    "balanced": (list, lambda run: len(run) // 2),
}


@pytest.mark.parametrize("ratio", [hierarchy._SPLICE_RATIO, 1])
@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(2, 300), st.sampled_from([*TREE_SHAPES, "random"]), st.randoms(use_true_random=False))
def test_spliced_member_texts_equal_the_token_join(ratio, n, shape, rng):
    # a ratio of 1 splices every node, the near-even ones too
    objects = list(range(n))
    rng.shuffle(objects)
    if shape == "random":
        tree = shaped_tree(objects, lambda run: rng.randrange(1, len(run)))
    else:
        order, cut = TREE_SHAPES[shape]
        tree = shaped_tree(order(objects), cut)
    with mock.patch.object(hierarchy, "_SPLICE_RATIO", ratio):
        texts = hierarchy._member_texts(tree)
        text = dc.tree_to_json(tree)
    assert texts == [",\n        ".join(map(str, node.members)) for node in tree.nodes]
    assert text == json_in_one_dumps(tree)


def test_a_splice_places_names_beside_names_they_prefix():
    # 12 goes between 1 and 123, and 112 after 12 and before 123: no name is
    # found inside a longer one
    text = hierarchy._MEMBER_SEP.join(["1", "123", "1123"])
    names = [str(i) for i in range(1200)]
    members = [1, 123, 1123]
    spliced = hierarchy._splice(members, text, [0, 12, 112, 1124], names)
    assert members == [0, 1, 12, 112, 123, 1123, 1124]
    assert spliced == hierarchy._MEMBER_SEP.join(map(str, members))


def test_json_writer_holds_its_text_about_twice_on_a_deep_caterpillar():
    tree = caterpillar(1100)
    # 1100 member lists adding up to 605 000 entries: 8.0 MB of text
    tracemalloc.start()
    try:
        text = dc.tree_to_json(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


def test_json_accepts_shuffled_node_order():
    records = [
        {"id": 1, "members": [0], "level": 0},
        {"id": 0, "members": [0, 1], "level": 5, "children": [1, 2]},
        {"id": 2, "members": [1], "level": 0},
    ]
    tree = dc.tree_from_json(json.dumps({"n": 2, "nodes": records}))
    assert tree.root.id == 0
    assert tree.root.level == 5.0


# what one edit can put into a tree's text: its own characters, and a few others
EDIT_CHARACTERS = st.sampled_from('0123456789.-+eE,:[]{}" \n\tabnrtuxIN')


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tie_heavy_matrices(), st.sampled_from(dc.DEFAULT_ALGORITHMS), st.data())
@example((4, [1.0, 10.0, 11.0, 9.0, 10.0, 1.0]), "two-seeds:average", None)
def test_an_edited_text_is_read_as_the_json_path_reads_it_or_not_at_all(case, token, data):
    k, values = case
    text = dc.tree_to_json(dc.build_hierarchy(dc.DissimilarityMatrix(k, values), token)) + "\n"
    if data is None:  # line4: the root's level, 11.0, edited to 12.0, still above its children's
        edited = text.replace('"level": 11.0', '"level": 12.0')
    else:
        # anywhere, or in a level, where an edit can leave the writer's text of another tree
        levels = [m.start(1) + i for m in re.finditer(r'"level": ([^,\n]+)', text) for i in range(len(m[1]))]
        at = data.draw(st.one_of(st.integers(0, len(text)), st.sampled_from(levels)), label="at")
        kind = data.draw(st.sampled_from(["replace", "insert", "delete"]), label="kind")
        put = "" if kind == "delete" else data.draw(EDIT_CHARACTERS, label="put")
        edited = text[:at] + put + text[at + (kind != "insert"):]
    fast = hierarchy._read_own_text(edited)
    if data is None:
        assert fast is not None and fast.levels.max() == 12.0
    if fast is not None:
        assert fast == hierarchy._parse_tree_json(edited)
        assert dc.tree_to_json(fast) in (edited, edited[:-1])


def test_a_text_with_two_members_swapped_gets_the_json_path_message(line4):
    text = dc.tree_to_json(dc.divisive_hierarchy(line4, dc.parse_splitter("two-seeds:average")))
    # the root holds 0..3 and node 1 holds 0 and 1: members 0 and 1 swap in each
    for nid, message in [(0, "ascending"), (1, "partition")]:
        first = text.index("0", text.index('"members"', text.index(f'"id": {nid},')))
        second = text.index("1", first)
        swapped = text[:first] + "1" + text[first + 1:second] + "0" + text[second + 1:]
        assert json.loads(swapped)  # still well-formed JSON
        assert hierarchy._read_own_text(swapped) is None
        with pytest.raises(dc.DivclustError, match=message):
            dc.tree_from_json(swapped)


def test_a_text_of_many_short_records_is_not_written_back(monkeypatch):
    # a chain over 1000 objects in the writer's layout, but each record keeps
    # only its first member: written back, its 501 499 members would take
    # over 20 times the text, so the reader leaves it to the JSON path
    n = 1000
    kids = [None] * n + [(0, 1)] + [(n + obj - 2, obj) for obj in range(2, n)]
    records = [
        f'\n    {{\n      "id": {nid},\n      "members": [\n        {0 if pair else nid}\n      ],'
        f'\n      "level": {float(pair is not None and nid - n + 1)!r}'
        + ("" if pair is None else f',\n      "children": [\n        {pair[0]},\n        {pair[1]}\n      ]')
        + "\n    }"
        for nid, pair in enumerate(kids)
    ]
    text = f'{{\n  "n": {n},\n  "nodes": [' + ",".join(records) + "\n  ]\n}"

    def refuse(tree):
        raise AssertionError("wrote back a tree of more members than its text")

    monkeypatch.setattr(hierarchy, "_member_texts", refuse)
    assert hierarchy._read_own_text(text) is None
    with pytest.raises(dc.DivclustError, match="partition"):
        dc.tree_from_json(text)


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
    '{"n": 2, "nodes": [{"id": 0, "members": [0, true], "level": 5}]}',
    '{"n": 3, "nodes": [{"id": 0, "members": [0, 1, 2.5], "level": 5}]}',
    '{"n": 3, "nodes": [{"id": 0, "members": [0, 1, "2"], "level": 5}]}',
    '{"n": 3, "nodes": [{"id": 0, "members": [0, 1, null], "level": 5}]}',
    '{"n": 3, "nodes": [{"id": 0, "members": [0, 1, [2]], "level": 5}]}',
    '{"n": 3, "nodes": [{"id": 0, "members": [0, 1, {}], "level": 5}]}',
    pytest.param('{"n": 3, "nodes": [{"id": 0, "members": [1%s, 0.5], "level": 5}]}' % ("0" * 400),
                 id="member-of-401-digits-beside-a-float"),
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


ROOT = dc.DendrogramNode(0, (0, 1), 5.0, (1, 2))
# (n, records, message) of trees that each break one invariant; their ids
# are in storage order
BAD_TREES = [
    (2, (ROOT, leaf(1, 0)), "expected 3 nodes"),
    (2, (dc.DendrogramNode(0, (1, 0), 5.0, (1, 2)), leaf(1, 0), leaf(2, 1)), "ascending"),
    (2, (dc.DendrogramNode(0, (0, 2), 5.0, (1, 2)), leaf(1, 0), leaf(2, 2)), "out of range"),
    (2, (ROOT, dc.DendrogramNode(1, (0,), 1.0), leaf(2, 1)), "leaf level"),
    (2, (dc.DendrogramNode(0, (0, 1), 5.0), leaf(1, 0), leaf(2, 1)), "singleton"),
    (2, (dc.DendrogramNode(0, (0, 1), 5.0, (1, 1)), leaf(1, 0), leaf(2, 1)), "bad child ids"),
    (2, (ROOT, leaf(1, 0), leaf(2, 0)), "partition"),
    (2, (dc.DendrogramNode(0, (0, 1), -1.0, (1, 2)), leaf(1, 0), leaf(2, 1)), "nonnegative"),
    (
        3,
        (
            dc.DendrogramNode(0, (0, 1, 2), 1.0, (1, 2)),
            dc.DendrogramNode(1, (0, 1), 2.0, (3, 4)),
            leaf(2, 2),
            leaf(3, 0),
            leaf(4, 1),
        ),
        "exceeds parent",
    ),
    (
        3,
        (
            dc.DendrogramNode(0, (0, 1), 1.0, (1, 2)),
            leaf(1, 0),
            leaf(2, 1),
            leaf(3, 2),
            leaf(4, 2),
        ),
        "one root",
    ),
]


def test_structural_validation_rejects_bad_trees():
    with pytest.raises(dc.DivclustError, match="storage order"):
        dc.Dendrogram(2, (ROOT, leaf(2, 1), leaf(1, 0)))
    # children entries the JSON loader rejects with its own messages
    for children in ((1,), (1, 2, 0), (1.0, 2), (True, 2)):
        with pytest.raises(dc.DivclustError, match="bad child ids"):
            dc.Dendrogram(2, (dc.DendrogramNode(0, (0, 1), 5.0, children), leaf(1, 0), leaf(2, 1)))
    for n, nodes, message in BAD_TREES:
        with pytest.raises(dc.DivclustError, match=message):
            dc.Dendrogram(n, nodes)


def test_json_loader_rejects_bad_trees_with_the_record_messages():
    # the loader sorts records by id, so only the storage-order case is missing
    for n, nodes, message in BAD_TREES:
        records = [
            {"id": node.id, "members": list(node.members), "level": node.level}
            | ({} if node.is_leaf else {"children": list(node.children)})
            for node in nodes
        ]
        with pytest.raises(dc.DivclustError, match=message):
            dc.tree_from_json(json.dumps({"n": n, "nodes": records}))


def test_structural_check_of_built_trees_rejects_bad_arrays():
    # a builder hands over child pairs (None for a leaf), levels and each
    # leaf's object; over three objects, node 4 joins node 3 = {0, 1} and 2
    kids = [None, None, None, (0, 1), (3, 2)]
    tree = hierarchy.Dendrogram._built(3, kids, [0, 0, 0, 1, 2], range(5))
    assert tree.preorder == (4, 3, 0, 1, 2)
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
            hierarchy.Dendrogram._built(3, bad, levels, objects)
    # one leaf alone is no dendrogram, built or read from the writer's text
    with pytest.raises(dc.DivclustError, match="at least 2 objects"):
        hierarchy.Dendrogram._built(1, [None], [0.0], [0])
    one = '{\n  "n": 1,\n  "nodes": [\n    {\n      "id": 0,\n      "members": [\n        0\n      ],\n      "level": 0.0\n    }\n  ]\n}'
    with pytest.raises(dc.DivclustError, match="at least 2 objects"):
        dc.tree_from_json(one)


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
    # beside an empty sibling a node partitions itself; the non-empty check
    # rejects it before the structural walk, which would find the cycle
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
