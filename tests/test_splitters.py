import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divclust as dc
from conftest import DIVISIVE_SPLITTERS, MEAN_TIE_TABLE, random_matrix, tie_heavy_matrices
from divclust.core import _into_window
from divclust.criteria import CandidateScreen, _relative_band
from divclust.splitters import (
    _carried_seed,
    _macnaughton_smith_mask,
    _SideSums,
    _pcoa_axis,
    _pddp_mask,
    _sides_from_coords,
    split_mask,
)
from helpers import (
    CRITERIA,
    float_gaps,
    macnaughton_smith_float,
    macnaughton_smith_peel,
    pddp_refinement,
    pddp_refinement_float,
    score,
    square_from_condensed,
    two_seeds_best,
)

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
    """Reference search: the exact score of every seed pair in order, first strict max."""
    ms = sorted(members)
    sub = m.square()[np.ix_(ms, ms)]
    screen = CandidateScreen(criterion, sub, np.triu_indices(len(ms), 1))
    best, best_mask = -np.inf, None
    for a in range(len(ms)):
        for b in range(a + 1, len(ms)):
            mask = sub[:, a] <= sub[:, b]
            mask[a], mask[b] = True, False
            value = screen.exact(mask)
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


def test_two_seeds_splits_tables_wider_than_the_float_range():
    # no power of two brings both 5e-324 and 1 into a safe range, so the
    # bands are infinite and every candidate near the best is rescored
    m = dc.DissimilarityMatrix(4, [5e-324, 1.0, 1.0, 1.0, 1.0, 5e-324])
    for criterion in dc.Criterion:
        assert dc.two_seeds_split(m, range(4), criterion) == exact_loop_split(m, range(4), criterion)


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


def record_exact_calls(monkeypatch) -> list:
    """(criterion, left members) of every CandidateScreen.exact call from now on."""
    calls = []
    exact = CandidateScreen.exact

    def recording(screen, mask):
        calls.append((screen.criterion, tuple(np.flatnonzero(mask))))
        return exact(screen, mask)

    monkeypatch.setattr(CandidateScreen, "exact", recording)
    return calls


def square_of_groups(size: int) -> dc.DissimilarityMatrix:
    """Four groups of ``size`` objects at the corners of a square: 1 within a
    group, 5 to a neighbouring corner, 7 across the diagonal."""
    corner = np.arange(4 * size) // size
    apart = np.abs(corner[:, None] - corner[None, :])
    table = np.choose(np.minimum(apart, 4 - apart), [1.0, 5.0, 7.0])
    np.fill_diagonal(table, 0.0)
    return dc.validate_matrix(table)


def test_two_seeds_rescores_each_distinct_mask_once(monkeypatch):
    # the two splits along the square's sides tie exactly, and many seed pairs
    # produce each of them, so two different bipartitions contend within
    # their nonzero bands and every distinct mask among them is rescored
    m = square_of_groups(5)
    calls = record_exact_calls(monkeypatch)
    for criterion in (dc.Criterion.AVERAGE_LINK, dc.Criterion.WARD_SZEKELY_RIZZO):
        dc.two_seeds_split(m, range(20), criterion)
        assert any(c is criterion for c, _ in calls)
    assert len(calls) == len(set(calls))


def test_two_seeds_returns_a_lone_contending_bipartition_unscored(monkeypatch):
    # separated groups make many seed pairs produce the same near-best split,
    # in both orientations: one bipartition contends, so nothing is rescored
    rng = np.random.default_rng(0)
    m = dc.euclidean_from_data(
        np.concatenate([rng.normal(centre, 0.3, (20, 3)) for centre in (0.0, 8.0, 16.0)])
    )
    for criterion in (dc.Criterion.AVERAGE_LINK, dc.Criterion.WARD_SZEKELY_RIZZO):
        calls = record_exact_calls(monkeypatch)
        got = dc.two_seeds_split(m, range(60), criterion)
        assert calls == []
        monkeypatch.undo()
        assert got == exact_loop_split(m, range(60), criterion)


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


def test_macnaughton_smith_can_leave_one_member_behind():
    # the peel moves while two or more remain, so the last move can leave one
    m = dc.DissimilarityMatrix(4, [1, 6, 5, 1, 2, 5])
    assert dc.macnaughton_smith_split(m, range(4)) == dc.Bipartition((0, 1, 2), (3,))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tie_heavy_matrices(max_k=12))
def test_macnaughton_smith_matches_the_oracle_on_tie_heavy_input(case):
    # integer entries: every sum is exact, so each decision must match bitwise
    k, values = case
    splinter, rest = macnaughton_smith_peel(square_from_condensed(k, values), range(k))
    got = dc.macnaughton_smith_split(dc.DissimilarityMatrix(k, values), range(k))
    assert got == dc.Bipartition(tuple(splinter), tuple(rest))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tie_heavy_matrices(min_k=3, max_k=24))
def test_macnaughton_smith_matches_the_float_reference_when_ties_round_apart(case):
    # entries times 0.1: gaps that tie exactly differ in their last bits by an
    # amount that depends on summation order, so running sums must defer to
    # fresh ones wherever the choice is that close
    k, values = case
    sub = dc.DissimilarityMatrix(k, [0.1 * v for v in values]).square()
    assert np.array_equal(_macnaughton_smith_mask(sub)[0], macnaughton_smith_float(sub))


@st.composite
def moves_without_reset(draw):
    """A tie-heavy table times 0.1, a start mask and up to k^2 moves."""
    k, values = draw(tie_heavy_matrices(min_k=3, max_k=24))
    start = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    count = draw(st.integers(0, k * k))
    moves = draw(st.lists(st.integers(0, k - 1), min_size=count, max_size=count))
    return dc.DissimilarityMatrix(k, [0.1 * v for v in values]).square(), np.array(start), moves


@settings(derandomize=True, max_examples=200, deadline=None)
@given(moves_without_reset())
def test_running_gaps_stay_within_their_bands_for_up_to_k_squared_moves(case):
    # the splitters' loops make at most k^2 moves between two resets, so the
    # fixed bands must hold that long
    sub, mask, moves = case
    mask[0] = not mask[-1]  # both sides non-empty
    sums = _SideSums(sub, sub.sum(axis=1))
    sums.reset(mask)
    for x in moves:
        if np.count_nonzero(mask == mask[x]) == 1:
            continue  # x's side would be left empty
        sums.move(x, mask)
        gap, band = sums.gaps(mask)
        assert (np.abs(gap - float_gaps(sub, mask)) <= band).all()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(moves_without_reset(), st.sampled_from([0.5, 8.0, 64.0]), st.integers(0, 1))
def test_running_gaps_from_carried_totals_stay_within_their_bands(case, spread, parity):
    # a child's totals, carried from its parent's peel, may lie anywhere within
    # their error bounds of the exact ones, so the bands must widen by them
    sub, _, moves = case
    k = len(sub)
    fresh = sub.sum(axis=1)
    err = spread * _relative_band(k) * fresh
    totals = fresh + np.where(np.arange(k) % 2 == parity, err, -err)
    sums = _SideSums(sub, totals, np.arange(k), err)
    mask = np.zeros(k, dtype=bool)
    sums.move(0, mask)  # the seed
    for x in moves:
        if np.count_nonzero(mask == mask[x]) == 1:
            continue  # x's side would be left empty
        sums.move(x, mask)
        gap, band = sums.gaps(mask)
        assert (np.abs(gap - float_gaps(sub, mask)) <= band).all()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(tie_heavy_matrices(min_k=3, max_k=40), st.sampled_from([0.1, 0.7]))
def test_carried_totals_lie_within_their_error_bounds(case, scale):
    # every cluster's carried totals against exact sums of its rows, down a
    # chain of peels that each keep the larger side
    k, values = case
    square = dc.DissimilarityMatrix(k, [scale * v for v in values]).square()
    idx, carried = None, None
    while True:
        mask, carried_all = _macnaughton_smith_mask(square, idx, carried)
        members = np.arange(k) if idx is None else idx
        keep = mask if mask.sum() > (~mask).sum() else ~mask
        if keep.sum() < 3:
            return
        own, err = carried_all
        idx = members[keep]
        for x, total, bound in zip(idx, own[keep], err[keep]):
            exact = sum(map(Fraction, square[x, idx].tolist()))
            assert abs(Fraction(float(total)) - exact) <= Fraction(float(bound))
        carried = (own[keep], err[keep])


def test_carried_seed_declines_totals_whose_bounds_outgrow_the_band():
    # a bound past _relative_band(k) times its total would more than double
    # the band, so the cluster's totals are summed afresh from its table
    square = random_matrix(12, 12)[0].square()
    idx = np.arange(2, 12)
    sub = square.take(idx, 0).take(idx, 1)
    totals = sub.sum(axis=1)
    err = _relative_band(idx.size) * totals
    assert _carried_seed(square, idx, (totals, err)) is not None
    err[4] = np.nextafter(err[4], np.inf)
    assert _carried_seed(square, idx, (totals, err)) is None
    # totals that far off leave the split the fresh one
    wrong = (totals[::-1].copy(), 4.0 * totals)
    assert np.array_equal(_macnaughton_smith_mask(square, idx, wrong)[0], macnaughton_smith_float(sub))


def test_carried_seed_declines_clusters_below_the_magnitude_window():
    # a cluster whose largest mean lies under the window may have its max
    # there too, so it is split from its own table brought into the window,
    # and a scaled table hands its children no totals
    idx = np.arange(1, 10)
    for scale, below in ((1.0, False), (1e-200, True)):
        square = scale * random_matrix(10, 10)[0].square()
        sub = square.take(idx, 0).take(idx, 1)
        carried = (sub.sum(axis=1), np.zeros(idx.size))
        assert (_carried_seed(square, idx, carried) is None) == below
        mask, handed = _macnaughton_smith_mask(square, idx, carried)
        assert np.array_equal(mask, macnaughton_smith_float(_into_window(sub)[0]))
        assert (handed is None) == below


def test_carried_seed_settles_contenders_by_fresh_row_sums():
    # rows 1 and 3 have equal fresh means; carried totals that put row 3's
    # above row 1's, within their bounds, must still seed the first, object 1
    totals = MEAN_TIE_TABLE.sum(axis=1)
    err = 0.5 * _relative_band(7) * totals
    carried = (totals + np.where(np.arange(7) == 3, err, -err), err)
    idx = np.arange(7)
    assert _carried_seed(MEAN_TIE_TABLE, idx, carried)[1] == 1
    mask = _macnaughton_smith_mask(MEAN_TIE_TABLE, idx, carried)[0]
    assert np.flatnonzero(mask).tolist() == [1, 2]

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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tie_heavy_matrices(max_k=12))
def test_pddp_refinement_matches_the_oracle_on_tie_heavy_input(case):
    k, values = case
    sub = dc.DissimilarityMatrix(k, values).square()
    try:
        start = _sides_from_coords(_pcoa_axis(sub).coords)
    except dc.NoPositiveEigenvalueError:
        with pytest.raises(dc.NoPositiveEigenvalueError):
            _pddp_mask(sub)
        return
    want = pddp_refinement(square_from_condensed(k, values), np.flatnonzero(start).tolist())
    assert np.flatnonzero(_pddp_mask(sub)).tolist() == sorted(want)


def refined_masks(sub):
    """The refinement's mask and the float reference's (with its pass count) from one start."""
    start = _sides_from_coords(_pcoa_axis(sub).coords)
    return _pddp_mask(sub), *pddp_refinement_float(sub, start)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tie_heavy_matrices(min_k=3, max_k=24))
def test_pddp_refinement_matches_the_float_reference_when_ties_round_apart(case):
    k, values = case
    sub = dc.DissimilarityMatrix(k, [0.1 * v for v in values]).square()
    try:
        got, want, _ = refined_masks(sub)
    except dc.NoPositiveEigenvalueError:
        return
    assert np.array_equal(got, want)


def test_pddp_refinement_that_reaches_the_pass_cap_matches_the_float_reference():
    # a 4-member cluster of a default benchmark table whose refinement still
    # moves an object in each of its k passes
    sub = dc.DissimilarityMatrix(4, [
        0.96828445560887, 0.8919075294909657, 1.0928408557590328,
        0.9801397830093386, 0.9551893830612952, 0.8166313653493721,
    ]).square()
    got, want, passes = refined_masks(sub)
    assert passes == 4
    assert np.array_equal(got, want)


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
