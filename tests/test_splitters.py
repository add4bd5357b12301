import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divclust as dc
from conftest import DIVISIVE_SPLITTERS, random_matrix, tie_heavy_matrices
from divclust.criteria import _score_sets
from divclust.splitters import split_mask
from helpers import CRITERIA, score, square_from_condensed, two_seeds_best

ALL_ZERO_3 = dc.DissimilarityMatrix(3, [0.0, 0.0, 0.0])
EQUILATERAL = dc.DissimilarityMatrix(3, [1.0, 1.0, 1.0])


def sides(b: dc.Bipartition):
    return {frozenset(b.left), frozenset(b.right)}


@pytest.mark.parametrize("token", CRITERIA)
def test_two_seeds_line4_every_criterion(line4, token):
    b = dc.two_seeds_split(line4, range(4), dc.Criterion(token))
    assert b == dc.Bipartition((0, 1), (2, 3))


@pytest.mark.parametrize("token", CRITERIA)
def test_two_seeds_equilateral_tie_goes_to_first_seed_pair(token):
    # seeds (0, 1) come first; object 2 ties and joins seed 0
    b = dc.two_seeds_split(EQUILATERAL, range(3), dc.Criterion(token))
    assert b == dc.Bipartition((0, 2), (1,))


def test_two_seeds_pair_cluster(line4):
    b = dc.two_seeds_split(line4, [1, 3], dc.Criterion.AVERAGE_LINK)
    assert sides(b) == {frozenset([1]), frozenset([3])}


def test_two_seeds_rejects_singleton(line4):
    with pytest.raises(dc.ClusterTooSmallError):
        dc.two_seeds_split(line4, [2], dc.Criterion.AVERAGE_LINK)


def test_two_seeds_subcluster_uses_global_indices(line4):
    b = dc.two_seeds_split(line4, [0, 2, 3], dc.Criterion.AVERAGE_LINK)
    assert sides(b) == {frozenset([0]), frozenset([2, 3])}


@pytest.mark.parametrize("seed", range(25))
def test_two_seeds_matches_exhaustive_enumeration(seed):
    n = 4 + seed % 5
    token = CRITERIA[seed % len(CRITERIA)]
    m, values = random_matrix(1000 + seed, n)
    s = square_from_condensed(n, values)
    best_score, _ = two_seeds_best(s, range(n), token)
    b = dc.two_seeds_split(m, range(n), dc.Criterion(token))
    assert score(token, s, list(b.left), list(b.right)) == best_score
    got = dc.score_bipartition(dc.Criterion(token), m, b)
    assert got == pytest.approx(best_score, rel=1e-9)


def exact_loop_split(m, members, criterion):
    """Reference search: _score_sets on every seed pair in order, first strict max."""
    ms = sorted(members)
    sub = m.square()[np.ix_(ms, ms)]
    squared = sub**2 if criterion is dc.Criterion.WARD_ORIGINAL else None
    best, best_mask = -np.inf, None
    for a in range(len(ms)):
        for b in range(a + 1, len(ms)):
            mask = sub[:, a] <= sub[:, b]
            mask[a], mask[b] = True, False
            left, right = np.flatnonzero(mask), np.flatnonzero(~mask)
            value = _score_sets(criterion, sub, left, right, squared)
            if value > best:
                best, best_mask = value, mask
    idx = np.asarray(ms)
    return dc.Bipartition(tuple(idx[best_mask]), tuple(idx[~best_mask]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tie_heavy_matrices())
def test_two_seeds_matches_the_oracle_on_tie_heavy_input(case):
    k, values = case
    m = dc.DissimilarityMatrix(k, values)
    s = square_from_condensed(k, values)
    for token in CRITERIA:
        criterion = dc.Criterion(token)
        b = dc.two_seeds_split(m, range(k), criterion)
        best_score, _ = two_seeds_best(s, range(k), token)
        assert score(token, s, list(b.left), list(b.right)) == best_score
        assert b == exact_loop_split(m, range(k), criterion)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tie_heavy_matrices(), st.sampled_from([0.1, 0.7, 1.0 / 3.0]))
def test_two_seeds_matches_exact_scoring_when_ties_round_apart(case, unit):
    # Non-dyadic units make partitions that tie in exact arithmetic differ
    # in their last bits, by an amount that depends on summation order: the
    # choice must still be the one exact scoring of every candidate makes.
    k, values = case
    m = dc.DissimilarityMatrix(k, [v * unit for v in values])
    for criterion in dc.Criterion:
        got = dc.two_seeds_split(m, range(k), criterion)
        assert got == exact_loop_split(m, range(k), criterion)


@pytest.mark.parametrize("scale", [1e-321, 1e-310, 1e-200, 1e120])
def test_two_seeds_matches_exact_scoring_at_extreme_magnitudes(scale):
    # the search runs on the table brought into the magnitude window by a
    # power of two, which is exact, so the reference scores that same table
    for seed in range(4):
        n = 6 + 3 * seed
        _, values = random_matrix(7000 + seed, n)
        raw = np.asarray(values) * scale
        m = dc.DissimilarityMatrix(n, raw)
        inside = dc.DissimilarityMatrix(n, np.ldexp(raw, -math.frexp(raw.max())[1]))
        for criterion in dc.Criterion:
            got = dc.two_seeds_split(m, range(n), criterion)
            assert got == exact_loop_split(inside, range(n), criterion)


def test_two_seeds_splits_where_squared_distances_overflow():
    # ward1 squares entries near 1e200 past the float range: the split must
    # still be the one of the same shape at a small scale
    criterion = dc.Criterion.WARD_ORIGINAL
    big = dc.DissimilarityMatrix(3, [1e200, 2e200, 3e200])
    small = dc.DissimilarityMatrix(3, [1.0, 2.0, 3.0])
    assert dc.two_seeds_split(big, range(3), criterion) == dc.two_seeds_split(
        small, range(3), criterion
    )


def test_two_seeds_large_cluster_matches_the_oracle():
    rng = np.random.default_rng(7)
    centres = rng.uniform(-6.0, 6.0, (5, 10))
    pts = np.concatenate([c + rng.normal(size=(30, 10)) for c in centres])
    m = dc.euclidean_from_data(pts)
    s = m.square().tolist()
    b = dc.two_seeds_split(m, range(150), dc.Criterion.AVERAGE_LINK)
    _, best_sides = two_seeds_best(s, range(150), "average")
    assert {frozenset(b.left), frozenset(b.right)} == set(best_sides)


@pytest.mark.parametrize("token", CRITERIA)
def test_two_seeds_matches_exact_scoring_of_every_candidate(token):
    for seed in range(6):
        n = 12 + 5 * seed
        m, _ = random_matrix(6000 + seed, n)
        members = range(1, n, 1 + seed % 2)
        criterion = dc.Criterion(token)
        got = dc.two_seeds_split(m, members, criterion)
        assert got == exact_loop_split(m, members, criterion)


def test_two_seeds_rescores_each_distinct_mask_once(monkeypatch):
    # separated groups make many seed pairs produce the same near-best split
    rng = np.random.default_rng(0)
    m = dc.euclidean_from_data(
        np.concatenate([rng.normal(centre, 0.3, (20, 3)) for centre in (0.0, 8.0, 16.0)])
    )
    calls = []

    def recording(criterion, square, left, right, squared=None):
        calls.append((criterion, tuple(left)))
        return _score_sets(criterion, square, left, right, squared)

    monkeypatch.setattr("divclust.splitters._score_sets", recording)
    for criterion in (dc.Criterion.AVERAGE_LINK, dc.Criterion.WARD_SZEKELY_RIZZO):
        dc.two_seeds_split(m, range(60), criterion)
        assert any(c is criterion for c, _ in calls)
    assert len(calls) == len(set(calls))


def test_macnaughton_smith_line4(line4):
    # seed tie between objects 0 and 3 resolves to 0; object 1 follows; stop
    b = dc.macnaughton_smith_split(line4, range(4))
    assert b == dc.Bipartition((0, 1), (2, 3))


def test_macnaughton_smith_equilateral_keeps_seed_alone():
    b = dc.macnaughton_smith_split(EQUILATERAL, range(3))
    assert sides(b) == {frozenset([0]), frozenset([1, 2])}


def test_macnaughton_smith_pair(line4):
    b = dc.macnaughton_smith_split(line4, [0, 3])
    assert sides(b) == {frozenset([0]), frozenset([3])}


def test_macnaughton_smith_never_empties_the_remainder():
    for seed in range(10):
        n = 3 + seed % 6
        m, _ = random_matrix(2000 + seed, n)
        b = dc.macnaughton_smith_split(m, range(n))
        assert len(b.left) + len(b.right) == n
        assert len(b.left) >= 1 and len(b.right) >= 1


def test_pcoa_line4_recovers_line_coordinates(line4):
    axis = dc.pcoa_first_axis(line4, range(4))
    assert np.allclose(axis.coords, [-5.5, -4.5, 4.5, 5.5], atol=1e-8)
    assert axis.eigenvalue == pytest.approx(101.0, rel=1e-10)


def test_pcoa_two_points_closed_form():
    m = dc.DissimilarityMatrix(2, [5.0])
    axis = dc.pcoa_first_axis(m, range(2))
    assert np.allclose(axis.coords, [-2.5, 2.5], atol=1e-9)
    assert axis.eigenvalue == pytest.approx(12.5, rel=1e-9)


def test_pcoa_matches_direct_eigendecomposition():
    for seed in range(8):
        n = 4 + seed
        m, _ = random_matrix(3000 + seed, n)
        axis = dc.pcoa_first_axis(m, range(n))
        # independent route: full symmetric eigendecomposition of the
        # double-centered squared table
        d2 = m.square() ** 2
        j = np.eye(n) - np.full((n, n), 1.0 / n)
        gram = -0.5 * j @ d2 @ j
        eigenvalues, vectors = np.linalg.eigh(gram)
        top = float(eigenvalues[-1])
        assert axis.eigenvalue == pytest.approx(top, rel=1e-8)
        ref = np.sqrt(top) * vectors[:, -1]
        if ref[0] > 0:
            ref = -ref
        assert np.allclose(axis.coords, ref, atol=1e-6)


def test_pcoa_coords_sum_to_zero():
    m, _ = random_matrix(47, 9)
    axis = dc.pcoa_first_axis(m, range(9))
    assert abs(float(np.sum(axis.coords))) <= 1e-8 * float(np.abs(axis.coords).max())
    assert axis.coords[0] <= 0.0


def test_pcoa_degenerate_cluster_raises():
    with pytest.raises(dc.NoPositiveEigenvalueError):
        dc.pcoa_first_axis(ALL_ZERO_3, range(3))


def test_pddp_line4(line4):
    b = dc.pddp_split(line4, range(4))
    assert b == dc.Bipartition((0, 1), (2, 3))


def test_pddp_propagates_degeneracy():
    with pytest.raises(dc.NoPositiveEigenvalueError):
        dc.pddp_split(ALL_ZERO_3, range(3))


def test_pddp_refinement_moves_a_misplaced_object():
    # the projected coordinate of the point at 4.5 sits just right of the
    # mean (4.1333), but its mean distance to the tight low group (4.4) beats
    # its mean distance to the remaining spread-out pair (5.5)
    pts = np.array([[0.0], [0.1], [0.2], [4.5], [8.0], [12.0]])
    b = dc.pddp_split(dc.euclidean_from_data(pts), range(6))
    assert sides(b) == {frozenset([0, 1, 2, 3]), frozenset([4, 5])}


@pytest.mark.filterwarnings("error")
def test_pddp_is_exact_where_squared_distances_overflow():
    # entries near 1e161 square past the float range; a power-of-two scale
    # must give exactly the scaled axis and the same tree
    rng = np.random.default_rng(3)
    centres = rng.uniform(-6.0, 6.0, (3, 4))
    m = dc.euclidean_from_data(np.concatenate([c + rng.standard_normal((10, 4)) for c in centres]))
    big = dc.validate_matrix(m.square() * 2.0**530)
    axis = dc.pcoa_first_axis(big, range(30))
    assert np.array_equal(axis.coords, dc.pcoa_first_axis(m, range(30)).coords * 2.0**530)
    tree, scaled = dc.build_hierarchy(m, "pddp"), dc.build_hierarchy(big, "pddp")
    for node, twin in zip(tree.nodes, scaled.nodes):
        assert (twin.members, twin.children) == (node.members, node.children)
        assert twin.level == node.level * 2.0**530


def test_empty_side_repair_rule():
    from divclust.splitters import _sides_from_coords

    mask = _sides_from_coords(np.array([0.0, 0.3, 0.9, 0.1]))
    assert list(np.flatnonzero(mask)) == [2]  # most extreme nonnegative coord
    mask = _sides_from_coords(np.array([-0.4, -0.1, -0.9]))
    assert list(np.flatnonzero(~mask)) == [2]


@pytest.mark.parametrize("token", [s.token for s in DIVISIVE_SPLITTERS])
def test_splitters_partition_exactly_the_cluster(token):
    splitter = dc.parse_splitter(token)
    tables = [random_matrix(4000 + seed, 5 + seed)[0] for seed in range(6)]
    tables.append(dc.DissimilarityMatrix(10, np.ldexp(tables[-1].condensed, 530)))
    for m in tables:
        members = list(range(m.n))
        b = dc.split_cluster(m, members, splitter)
        assert sorted(b.left + b.right) == members
        assert not set(b.left) & set(b.right)
        mask = split_mask(m.square(), splitter)
        assert mask[0] and not mask.all()
        assert b == dc.Bipartition(np.flatnonzero(mask), np.flatnonzero(~mask))


@pytest.mark.parametrize("token", ["two-seeds:silhouette", "macnaughton-smith", "pddp"])
def test_splitters_commute_with_order_preserving_relabeling(token):
    splitter = dc.parse_splitter(token)
    k, n = 6, 13
    embed = [2, 3, 5, 8, 9, 11]
    small, values = random_matrix(500, k)
    rng = np.random.default_rng(501)
    big = rng.uniform(0.05, 1.0, (n, n))
    big = (big + big.T) / 2.0
    np.fill_diagonal(big, 0.0)
    for a in range(k):
        for c in range(a + 1, k):
            big[embed[a], embed[c]] = small.value(a, c)
            big[embed[c], embed[a]] = small.value(a, c)
    mapped = dc.split_cluster(dc.validate_matrix(big), embed, splitter)
    base = dc.split_cluster(small, range(k), splitter)
    relabel = {i: embed[i] for i in range(k)}
    expected = {frozenset(relabel[i] for i in side) for side in (base.left, base.right)}
    assert sides(mapped) == expected


def test_splitters_are_deterministic(line4):
    for token in ["two-seeds:dunn", "macnaughton-smith", "pddp"]:
        splitter = dc.parse_splitter(token)
        first = dc.split_cluster(line4, range(4), splitter)
        for _ in range(3):
            assert dc.split_cluster(line4, range(4), splitter) == first


def test_splitter_token_parsing():
    s = dc.parse_splitter("two-seeds:ward1")
    assert s.kind == "two-seeds"
    assert s.criterion is dc.Criterion.WARD_ORIGINAL
    assert s.token == "two-seeds:ward1"
    assert dc.parse_splitter("pddp").token == "pddp"
    with pytest.raises(dc.DivclustError):
        dc.parse_splitter("two-seeds:bogus")
    with pytest.raises(dc.DivclustError):
        dc.parse_splitter("k-means")
    with pytest.raises(dc.DivclustError):
        dc.Splitter("pddp", dc.Criterion.DUNN)
    with pytest.raises(dc.DivclustError):
        dc.Splitter("two-seeds")
