import numpy as np
import pytest

import divclust as dc
from conftest import random_matrix, random_points
from helpers import LINE4_VALUES, cross_pairs, diam, mean_within, square_from_condensed


def test_pair_index_walks_rows_of_the_upper_triangle():
    n = 5
    expected = 0
    for i in range(n):
        for j in range(i + 1, n):
            assert dc.pair_index(n, i, j) == expected
            assert dc.pair_index(n, j, i) == expected
            expected += 1
    assert expected == dc.condensed_size(n)


def test_pair_index_rejects_diagonal():
    with pytest.raises(dc.DivclustError):
        dc.pair_index(4, 2, 2)


def test_validate_matrix_small_example():
    m = dc.validate_matrix([[0.0, 1.0], [1.0, 0.0]])
    assert m.n == 2
    assert m.value(0, 1) == 1.0
    assert m.value(1, 0) == 1.0
    assert m.value(0, 0) == 0.0


def test_validate_matrix_averages_mirror_entries_within_tolerance():
    eps = 4e-10
    m = dc.validate_matrix([[0.0, 1.0 + eps], [1.0 - eps, 0.0]])
    assert m.value(0, 1) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "raw, err",
    [
        ([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]], dc.NotSquareError),
        ([[0.0]], dc.MatrixTooSmallError),
        ([[0.0, np.nan], [np.nan, 0.0]], dc.NonFiniteEntryError),
        ([[0.0, np.inf], [np.inf, 0.0]], dc.NonFiniteEntryError),
        ([[1e-3, 1.0], [1.0, 0.0]], dc.NonZeroDiagonalError),
        ([[0.0, 1.0], [2.0, 0.0]], dc.AsymmetricMatrixError),
        ([[0.0, -1.0], [-1.0, 0.0]], dc.NegativeEntryError),
    ],
)
def test_validate_matrix_rejections(raw, err):
    with pytest.raises(err):
        dc.validate_matrix(raw)


def test_constructor_checks_packed_length_and_values():
    with pytest.raises(dc.DivclustError):
        dc.DissimilarityMatrix(3, [1.0, 2.0])
    with pytest.raises(dc.NegativeEntryError):
        dc.DissimilarityMatrix(2, [-0.5])
    with pytest.raises(dc.NonFiniteEntryError):
        dc.DissimilarityMatrix(2, [np.nan])


def test_euclidean_3_4_5_triangle():
    m = dc.euclidean_from_data([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    assert m.value(0, 1) == 3.0
    assert m.value(1, 2) == 4.0
    assert m.value(0, 2) == 5.0


@pytest.mark.filterwarnings("error")
def test_euclidean_survives_squares_that_overflow():
    pts = random_points(61, 12, 4)
    plain = dc.euclidean_from_data(pts)
    scaled = dc.euclidean_from_data(pts * 1e160)
    assert np.allclose(scaled.condensed, plain.condensed * 1e160, rtol=1e-12, atol=0.0)
    for algorithm in ("average-agglomerative", "two-seeds:average"):
        want = dc.build_hierarchy(plain, algorithm)
        got = dc.build_hierarchy(scaled, algorithm)
        assert [node.members for node in got.nodes] == [node.members for node in want.nodes]
        for g, w in zip(got.nodes, want.nodes):
            assert g.level == pytest.approx(w.level * 1e160, rel=1e-8, abs=0.0)


def test_euclidean_keeps_representable_data_bit_for_bit():
    pts = random_points(62, 9, 3) * 1e150
    ii, jj = np.triu_indices(9, 1)
    direct = np.sqrt(((pts[ii] - pts[jj]) ** 2).sum(axis=1))
    assert dc.euclidean_from_data(pts).condensed.tobytes() == direct.tobytes()


def test_euclidean_rejects_distances_beyond_the_float_range():
    with pytest.raises(dc.NonFiniteEntryError):
        dc.euclidean_from_data([[-1.5e308], [1.5e308]])


def test_line4_packed_values(line4):
    assert tuple(line4.condensed) == LINE4_VALUES


@pytest.mark.parametrize(
    "data, err",
    [
        ([[1.0]], dc.MatrixTooSmallError),
        (np.empty((3, 0)), dc.DivclustError),
        ([[0.0], [np.nan]], dc.NonFiniteEntryError),
        ([1.0, 2.0], dc.DivclustError),
    ],
)
def test_euclidean_rejections(data, err):
    with pytest.raises(err):
        dc.euclidean_from_data(data)


def test_square_and_value_agree_with_packed_layout():
    m, values = random_matrix(11, 7)
    sq = m.square()
    assert sq.shape == (7, 7)
    for i in range(7):
        assert sq[i, i] == 0.0
        for j in range(i + 1, 7):
            v = values[dc.pair_index(7, i, j)]
            assert sq[i, j] == v
            assert sq[j, i] == v
            assert m.value(i, j) == v


def test_matrix_views_are_readonly():
    m, _ = random_matrix(3, 4)
    with pytest.raises(ValueError):
        m.condensed[0] = 5.0
    with pytest.raises(ValueError):
        m.square()[0, 1] = 5.0


def test_value_index_range():
    m, _ = random_matrix(5, 4)
    with pytest.raises(IndexError):
        m.value(0, 4)


def test_cluster_stats_line4(line4):
    st = dc.cluster_stats(line4, [0, 1], [2, 3])
    assert st.diameter == 1.0
    assert st.mean_within == 1.0
    assert st.min_between == 9.0
    assert st.max_between == 11.0
    assert st.mean_between == 10.0


def test_cluster_stats_singleton(line4):
    st = dc.cluster_stats(line4, [2])
    assert st.diameter == 0.0
    assert st.mean_within == 0.0
    assert st.min_between is None
    assert st.max_between is None
    assert st.mean_between is None


def test_cluster_stats_accepts_unsorted_input(line4):
    st = dc.cluster_stats(line4, [1, 0], [3, 2])
    assert st.mean_between == 10.0


def test_cluster_stats_rejects_overlap_and_bad_indices(line4):
    with pytest.raises(dc.OverlappingSetsError):
        dc.cluster_stats(line4, [0, 1], [1, 2])
    with pytest.raises(IndexError):
        dc.cluster_stats(line4, [0, 4])
    with pytest.raises(dc.DivclustError):
        dc.cluster_stats(line4, [])
    with pytest.raises(dc.DivclustError):
        dc.cluster_stats(line4, [0, 0])


def test_cluster_stats_matches_plain_loops():
    m, values = random_matrix(23, 9)
    s = square_from_condensed(9, values)
    a, b = [0, 2, 5, 8], [1, 3, 6]
    st = dc.cluster_stats(m, a, b)
    cross = cross_pairs(s, a, b)
    assert st.diameter == pytest.approx(diam(s, a), rel=1e-12)
    assert st.mean_within == pytest.approx(mean_within(s, a), rel=1e-12)
    assert st.min_between == pytest.approx(min(cross), rel=1e-12)
    assert st.max_between == pytest.approx(max(cross), rel=1e-12)
    assert st.mean_between == pytest.approx(sum(cross) / len(cross), rel=1e-12)


def test_diameter_never_shrinks_when_a_cluster_grows():
    m, _ = random_matrix(37, 12)
    for k in range(2, 12):
        inner = dc.cluster_stats(m, range(k)).diameter
        outer = dc.cluster_stats(m, range(k + 1)).diameter
        assert inner <= outer


def test_stats_scale_with_the_matrix():
    m, values = random_matrix(41, 6)
    scaled = dc.DissimilarityMatrix(6, np.asarray(values) * 3.0)
    st = dc.cluster_stats(m, [0, 1, 4], [2, 5])
    st3 = dc.cluster_stats(scaled, [0, 1, 4], [2, 5])
    assert st3.mean_between == pytest.approx(3.0 * st.mean_between, rel=1e-12)
    assert st3.diameter == pytest.approx(3.0 * st.diameter, rel=1e-12)


def test_object_set_normalizes_and_validates():
    assert dc.object_set([3, 1, 2]) == (1, 2, 3)
    with pytest.raises(dc.DivclustError):
        dc.object_set([])
    with pytest.raises(dc.DivclustError):
        dc.object_set([1, 1])


def test_bipartition_canonical_orientation():
    b = dc.Bipartition((5, 4), (0, 2))
    assert b.left == (0, 2)
    assert b.right == (4, 5)
    assert b.members == (0, 2, 4, 5)
    assert b == dc.Bipartition((0, 2), (4, 5))


def test_bipartition_rejections():
    with pytest.raises(dc.EmptySideError):
        dc.Bipartition((), (1, 2))
    with pytest.raises(dc.OverlappingSetsError):
        dc.Bipartition((0, 1), (1, 2))


def test_read_distance_csv(tmp_path, line4):
    path = tmp_path / "dist.csv"
    sq = line4.square()
    path.write_text("\n".join(",".join(str(v) for v in row) for row in sq) + "\n")
    m = dc.read_distance_csv(path)
    assert np.array_equal(m.condensed, line4.condensed)


def test_read_data_csv_with_and_without_header(tmp_path):
    bare = tmp_path / "data.csv"
    bare.write_text("0\n1\n10\n11\n")
    assert dc.read_data_csv(bare).shape == (4, 1)
    headed = tmp_path / "headed.csv"
    headed.write_text("x,y\n0,0\n3,4\n")
    arr = dc.read_data_csv(headed, header=True)
    assert arr.shape == (2, 2)
    assert arr[1, 1] == 4.0
