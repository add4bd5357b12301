import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divclust as dc
from conftest import random_matrix, random_points, tie_heavy_matrices
from divclust.criteria import CandidateScreen
from helpers import CRITERIA, all_bipartitions, score, square_from_condensed

SPLIT_01_23 = dc.Bipartition((0, 1), (2, 3))

# Frozen from hand computation on the line fixture: cross pairs between
# {0,1} and {2,3} are 10, 11, 9, 10; both within pairs equal 1.
LINE4_SCORES = {
    "single": 9.0,
    "complete": -1.0,
    "average": 10.0,
    "ward1": 200.0,
    "ward2": 19.0,
    "dunn": 10.0,
    "dunn-variant": 10.0,
}


@pytest.mark.parametrize("token, expected", sorted(LINE4_SCORES.items()))
def test_line4_scores_exact(line4, token, expected):
    assert dc.score_bipartition(dc.Criterion(token), line4, SPLIT_01_23) == expected


def test_line4_silhouette(line4):
    value = dc.score_bipartition(dc.Criterion.SILHOUETTE, line4, SPLIT_01_23)
    assert value == pytest.approx(0.899749, abs=1e-6)


def test_line4_silhouette_per_object(line4):
    expected = {0: 0.904762, 1: 0.894737, 2: 0.894737, 3: 0.904762}
    for x, target in expected.items():
        assert dc.silhouette_of_object(line4, SPLIT_01_23, x) == pytest.approx(
            target, abs=1e-6
        )


def test_silhouette_singleton_side(line4):
    b = dc.Bipartition((0,), (2, 3))
    # a(0) is zero for a singleton side, so s(0) = b/b = 1
    assert dc.silhouette_of_object(line4, b, 0) == 1.0


def test_silhouette_object_must_belong(line4):
    with pytest.raises(dc.ObjectNotInBipartitionError):
        dc.silhouette_of_object(line4, SPLIT_01_23, 7)


def test_average_link_is_global_max_on_line4(line4):
    s = square_from_condensed(4, list(line4.condensed))
    best = None
    for left, right in all_bipartitions(range(4)):
        value = dc.score_bipartition(
            dc.Criterion.AVERAGE_LINK, line4, dc.Bipartition(tuple(left), tuple(right))
        )
        assert value == pytest.approx(score("average", s, left, right), rel=1e-12)
        if best is None or value > best[0]:
            best = (value, dc.Bipartition(tuple(left), tuple(right)))
    assert best == (10.0, SPLIT_01_23)


@pytest.mark.parametrize("token", CRITERIA)
def test_scores_match_reference_loops(token):
    m, values = random_matrix(101, 9)
    s = square_from_condensed(9, values)
    for left, right in [([0, 3], [1, 2, 4, 5]), ([0, 1, 2, 6, 7], [3, 8]), ([2], [4])]:
        got = dc.score_bipartition(dc.Criterion(token), m, dc.Bipartition(tuple(left), tuple(right)))
        assert got == pytest.approx(score(token, s, left, right), rel=1e-9)


def test_dunn_sentinel_when_sides_are_tight_but_apart():
    m = dc.DissimilarityMatrix(2, [5.0])
    b = dc.Bipartition((0,), (1,))
    assert dc.score_bipartition(dc.Criterion.DUNN, m, b) == math.inf
    assert dc.score_bipartition(dc.Criterion.DUNN_VARIANT, m, b) == math.inf


def test_dunn_neutral_when_everything_is_tied_at_zero():
    m = dc.DissimilarityMatrix(2, [0.0])
    b = dc.Bipartition((0,), (1,))
    assert dc.score_bipartition(dc.Criterion.DUNN, m, b) == 0.0
    assert dc.score_bipartition(dc.Criterion.SILHOUETTE, m, b) == 0.0


def test_scale_behavior_of_every_criterion():
    m, values = random_matrix(55, 8)
    scaled = dc.DissimilarityMatrix(8, np.asarray(values) * 7.0)
    b = dc.Bipartition((0, 2, 5), (1, 3, 4, 6, 7))
    linear = [
        dc.Criterion.SINGLE_LINK,
        dc.Criterion.COMPLETE_LINK,
        dc.Criterion.AVERAGE_LINK,
        dc.Criterion.WARD_SZEKELY_RIZZO,
    ]
    for crit in linear:
        assert dc.score_bipartition(crit, scaled, b) == pytest.approx(
            7.0 * dc.score_bipartition(crit, m, b), rel=1e-12
        )
    assert dc.score_bipartition(dc.Criterion.WARD_ORIGINAL, scaled, b) == pytest.approx(
        49.0 * dc.score_bipartition(dc.Criterion.WARD_ORIGINAL, m, b), rel=1e-12
    )
    for crit in (dc.Criterion.DUNN, dc.Criterion.DUNN_VARIANT, dc.Criterion.SILHOUETTE):
        assert dc.score_bipartition(crit, scaled, b) == pytest.approx(
            dc.score_bipartition(crit, m, b), rel=1e-9
        )


@pytest.mark.parametrize("exponent", [-530, -400, 400, 530, 1017])
def test_scores_follow_the_magnitude_rule(exponent):
    # dissimilarities times 2^e give ward1 times 2^(2e), the ratios and
    # silhouette unchanged and every other criterion times 2^e, exactly,
    # even where those values leave the float range
    m, values = random_matrix(66, 9)
    scaled = dc.DissimilarityMatrix(9, np.ldexp(values, exponent))
    powers = {"ward1": 2, "dunn": 0, "dunn-variant": 0, "silhouette": 0}
    for b in (dc.Bipartition((0, 2, 5), (1, 3, 4, 6, 7, 8)), dc.Bipartition((3,), (4, 8))):
        for token in CRITERIA:
            crit = dc.Criterion(token)
            with np.errstate(over="ignore"):
                expected = np.ldexp(dc.score_bipartition(crit, m, b), powers.get(token, 1) * exponent)
            assert dc.score_bipartition(crit, scaled, b) == expected
        for x in b.members:
            assert dc.silhouette_of_object(scaled, b, x) == dc.silhouette_of_object(m, b, x)


def seed_pair_masks(sub):
    """Left-side masks of every seed pair (a, b), a < b: nearer seed, ties to a."""
    a, b = np.triu_indices(len(sub), 1)
    masks = sub[a] <= sub[b]
    rows = np.arange(a.size)
    masks[rows, a] = True
    masks[rows, b] = False
    return masks


def assert_screen_within_bands(sub):
    # the contract holds for any batch of candidates: all at once, and alone
    for crit in dc.Criterion:
        screen = CandidateScreen(crit, sub)
        masks = seed_pair_masks(sub)
        scores, bands = screen.score(masks)
        for c, mask in enumerate(masks):
            exact = np.float64(screen.exact(mask))
            alone = screen.score(mask[None])
            for screened, band in ((scores[c], bands[c]), (alone[0][0], alone[1][0])):
                if band == 0.0:
                    assert exact.tobytes() == screened.tobytes(), (crit, mask)
                else:
                    assert abs(screened - exact) <= band, (crit, mask)


@pytest.mark.parametrize("crit", list(dc.Criterion))
def test_screen_of_many_chunks_is_bitwise_the_screen_of_each_chunk(crit):
    # the search screens blocks of several chunks at once; every score and
    # band must be bitwise those of one chunk-sized batch at a time
    sub = random_matrix(8100, 100)[0].square()
    screen = CandidateScreen(crit, sub)
    assert screen.chunk == 26
    masks = seed_pair_masks(sub)
    whole = screen.score(masks)
    parts = [screen.score(masks[start : start + 26]) for start in range(0, len(masks), 26)]
    for got, expected in zip(whole, zip(*parts)):
        assert got.tobytes() == np.concatenate(expected).tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tie_heavy_matrices(), st.sampled_from([0.1, 1.0 / 3.0]))
def test_screen_stays_within_its_bands_on_tie_heavy_input(case, unit):
    k, values = case
    assert_screen_within_bands(dc.DissimilarityMatrix(k, np.asarray(values) * unit).square())


@pytest.mark.parametrize("n", [5, 12, 23, 40])
def test_screen_stays_within_its_bands_on_random_tables(n):
    for seed in range(3):
        assert_screen_within_bands(random_matrix(8000 + 10 * n + seed, n)[0].square())


@st.composite
def scan_tables(draw):
    """Integer tables of 12-24 objects that make the pair screens scan deep.

    A third put the objects in one to three groups at distance zero, so that
    candidates along the groups meet their first same-side pair (descending)
    or crossing pair (ascending) past the first block of 64 pairs. A third
    put one object at distance 2 from the rest, whose pairs are 0 or 1 but
    for a single 3. The candidate that splits that object off meets its first
    crossing pair after (k-1)(k-2)/2 - 1 others, in the scan's last block for
    most k, and its single-link value is not the table's largest.
    """
    k = draw(st.integers(12, 24))
    first, second = np.triu_indices(k, 1)
    kind = draw(st.integers(0, 2))
    values = draw(st.lists(st.integers(0, 3), min_size=first.size, max_size=first.size))
    if kind == 1:
        groups = draw(st.integers(1, 3))
        labels = draw(st.lists(st.integers(0, groups - 1), min_size=k, max_size=k))
        values = [
            0 if labels[i] == labels[j] else max(v, 1) for i, j, v in zip(first, second, values)
        ]
    elif kind == 2:
        far = draw(st.integers(0, k - 1))
        spike = draw(st.sampled_from(np.flatnonzero((first != far) & (second != far)).tolist()))
        values = [
            2 if far in (i, j) else 3 if p == spike else min(v, 1)
            for p, (i, j, v) in enumerate(zip(first, second, values))
        ]
    return k, [float(v) for v in values]


@settings(derandomize=True, max_examples=90, deadline=None)
@given(scan_tables())
def test_pair_screens_match_the_oracle_across_scan_blocks(case):
    # integer entries make every score exact, so the pair screens' values,
    # found block by block, must equal the oracle's bitwise
    k, values = case
    s = square_from_condensed(k, values)
    sub = np.asarray(s)
    masks = np.unique(seed_pair_masks(sub), axis=0)
    for token in ("single", "complete", "dunn"):
        screen = CandidateScreen(dc.Criterion(token), sub)
        scores, _ = screen.score(masks)
        for mask, got in zip(masks, scores):
            want = score(token, s, np.flatnonzero(mask).tolist(), np.flatnonzero(~mask).tolist())
            assert got.tobytes() == np.float64(want).tobytes(), (token, mask)


def test_silhouette_values_stay_in_unit_interval():
    m, _ = random_matrix(77, 10)
    b = dc.Bipartition((0, 1, 5, 9), (2, 3, 4, 6, 7, 8))
    for x in range(10):
        assert -1.0 <= dc.silhouette_of_object(m, b, x) <= 1.0


def test_dunn_numerators_share_the_mean_between():
    m, _ = random_matrix(88, 8)
    b = dc.Bipartition((0, 1, 2), (3, 4, 5, 6, 7))
    st = dc.cluster_stats(m, b.left, b.right)
    d1 = dc.score_bipartition(dc.Criterion.DUNN, m, b)
    left_d = dc.cluster_stats(m, b.left).diameter
    right_d = dc.cluster_stats(m, b.right).diameter
    assert d1 * max(left_d, right_d) == pytest.approx(st.mean_between, rel=1e-12)


def test_ward_original_matches_centroid_form_on_euclidean_data():
    pts = random_points(5, 12, 4)
    m = dc.euclidean_from_data(pts)
    b = dc.Bipartition((0, 2, 3, 7, 11), (1, 4, 5, 6, 8, 9, 10))
    got = dc.score_bipartition(dc.Criterion.WARD_ORIGINAL, m, b)
    np_, nq = len(b.left), len(b.right)
    gap = pts[list(b.left)].mean(axis=0) - pts[list(b.right)].mean(axis=0)
    centroid_form = 2.0 * (np_ * nq / (np_ + nq)) * float(gap @ gap)
    assert got == pytest.approx(centroid_form, rel=1e-9)


def test_ward_scores_nonnegative_on_euclidean_data():
    pts = random_points(6, 10, 3)
    m = dc.euclidean_from_data(pts)
    b = dc.Bipartition((0, 1, 2, 3), (4, 5, 6, 7, 8, 9))
    assert dc.score_bipartition(dc.Criterion.WARD_ORIGINAL, m, b) >= 0.0
    assert dc.score_bipartition(dc.Criterion.WARD_SZEKELY_RIZZO, m, b) >= 0.0


def test_score_checks_index_range(line4):
    with pytest.raises(IndexError):
        dc.score_bipartition(dc.Criterion.AVERAGE_LINK, line4, dc.Bipartition((0,), (9,)))


def test_parse_criterion():
    assert dc.parse_criterion("ward2") is dc.Criterion.WARD_SZEKELY_RIZZO
    with pytest.raises(dc.DivclustError):
        dc.parse_criterion("nonsense")
