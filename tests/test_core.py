import io
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divclust as dc
import divclust.core as core
from conftest import random_matrix, random_points
from helpers import (
    LINE4_VALUES,
    cross_pairs,
    diam,
    euclidean_float,
    mean_within,
    square_from_condensed,
    validate_matrix_float,
)


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


def test_pair_index_rejects_out_of_range_objects():
    for i, j in ((3, 0), (0, 5), (-1, 1), (1, -1), (3, 3), (-1, -1)):
        with pytest.raises(IndexError):
            dc.pair_index(3, i, j)


def test_index_lookups_take_integers_only():
    m, _ = random_matrix(5, 4)
    b = dc.Bipartition((0, 1), (2, 3))
    assert dc.pair_index(4, np.int64(1), 2) == 3
    assert m.value(np.int32(2), 2) == 0.0
    for call in (
        lambda: dc.pair_index(3, 1.0, 2),
        lambda: dc.pair_index(3, 0, True),
        lambda: m.value(0.5, 2),
        lambda: m.value(1.0, 1.0),
        lambda: m.value(True, 2),
        lambda: dc.silhouette_of_object(m, b, True),
        lambda: dc.silhouette_of_object(m, b, 2.0),
    ):
        with pytest.raises(dc.DivclustError, match="^object index must be an integer"):
            call()
    # an integer out of range stays an IndexError
    with pytest.raises(IndexError):
        m.value(0, 4)


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


def test_validate_matrix_averages_mirror_entries_near_the_float_maximum():
    # (upper + lower) / 2 overflows above about 9e307: such a pair is averaged
    # from halves, and every other pair keeps its plain average bit for bit
    top = 1.7e308
    near = float(np.nextafter(top, 0.0))
    raw = np.array([[0.0, top, 0.3, 5e307], [near, 0.0, 0.7, top], [0.3 + 1e-12, 0.7, 0.0, 2.0],
                    [5e307, top, 2.0, 0.0]])
    m = dc.validate_matrix(raw)
    assert m.value(0, 1) == top / 2.0 + near / 2.0
    assert m.value(1, 3) == top
    assert m.value(0, 2) == (0.3 + (0.3 + 1e-12)) / 2.0
    assert m.value(0, 3) == 5e307
    assert (m.value(1, 2), m.value(2, 3)) == (0.7, 2.0)


def test_validate_matrix_rejects_mirror_entries_whose_difference_overflows():
    with pytest.raises(dc.AsymmetricMatrixError):
        dc.validate_matrix([[0.0, 1.7e308], [-1.7e308, 0.0]])


def test_runtime_warnings_are_errors_under_pytest():
    # the magnitude tests rely on it: an overflow that only warns would pass
    # here and still crash a run under -W error
    with pytest.raises(RuntimeWarning):
        np.add(np.array([1.7e308]), np.array([1.7e308]))


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


def test_euclidean_survives_squares_that_underflow():
    pts = random_points(61, 12, 4)
    plain = dc.euclidean_from_data(pts)
    scaled = dc.euclidean_from_data(pts * 1e-170)
    assert np.allclose(scaled.condensed, plain.condensed * 1e-170, rtol=1e-12, atol=0.0)
    for algorithm in ("average-agglomerative", "two-seeds:average"):
        want = dc.build_hierarchy(plain, algorithm)
        got = dc.build_hierarchy(scaled, algorithm)
        assert [node.members for node in got.nodes] == [node.members for node in want.nodes]
        for g, w in zip(got.nodes, want.nodes):
            assert g.level == pytest.approx(w.level * 1e-170, rel=1e-8, abs=0.0)


@pytest.mark.parametrize(
    "rows", [[[0.0], [1e-170], [1.0]], [[0.0, 0.0], [1e-170, 0.0], [1.0, 3e-170]]]
)
def test_euclidean_keeps_tiny_distances_beside_large_ones(rows):
    # one scale for the whole table cannot lift a difference far below its largest entry
    m = dc.euclidean_from_data(rows)
    assert m.value(0, 1) == pytest.approx(1e-170, rel=1e-15, abs=0.0)


def test_euclidean_keeps_representable_data_bit_for_bit():
    pts = random_points(62, 9, 3) * 1e150
    ii, jj = np.triu_indices(9, 1)
    direct = np.sqrt(((pts[ii] - pts[jj]) ** 2).sum(axis=1))
    assert dc.euclidean_from_data(pts).condensed.tobytes() == direct.tobytes()


@pytest.mark.parametrize("rows", [1, 4, None])
@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-170])
def test_euclidean_in_row_blocks_gives_the_all_pairs_bits(monkeypatch, rows, scale):
    # 13 objects: blocks of 1 or 4 rows, or one block; the scaled squares
    # overflow or underflow, so every block redoes some pairs
    pts = random_points(63, 13, 10) * scale
    pts[7] = pts[2]  # a zero distance, whose sum underflows but needs no redo
    pts[9, 4] = 1.7e308  # its squares overflow at every scale
    if rows is not None:
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", rows * 13 * 10)
    got = dc.euclidean_from_data(pts)
    assert got.condensed.tobytes() == euclidean_float(pts).condensed.tobytes()


def test_euclidean_distances_of_a_large_table_hold_little_beside_them():
    pts = random_points(64, 1100, 10)
    # the distances, which the matrix keeps, are 4.8 MB; a block of 5 rows
    # holds at most 5 495 pairs, so its pair differences are 0.4 MB
    tracemalloc.start()
    try:
        m = dc.euclidean_from_data(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6
    ii, jj = np.triu_indices(1100, 1)
    assert m.condensed.tobytes() == np.sqrt(((pts[ii] - pts[jj]) ** 2).sum(axis=1)).tobytes()


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


def test_square_of_a_large_matrix_holds_little_beside_the_table():
    m = dc.DissimilarityMatrix(1100, np.arange(dc.condensed_size(1100), dtype=float))
    # the 1100 x 1100 table (9.7 MB) and a boolean mask of the same shape (1.2 MB)
    tracemalloc.start()
    try:
        m.square()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_validating_a_large_table_holds_little_beside_it():
    rank = np.random.default_rng(0).permutation(1100)
    raw = np.maximum.outer(rank, rank).astype(float)
    np.fill_diagonal(raw, 0.0)
    # the packed means, which the matrix keeps, are 4.8 MB; a block of 59
    # rows holds at most 2^16 entries, so each of its temporaries is 0.5 MB
    tracemalloc.start()
    try:
        m = dc.validate_matrix(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6
    assert np.array_equal(m.square(), raw)


def noisy_table(seed: int, n: int) -> np.ndarray:
    """A symmetric table whose mirror entries differ within the tolerance."""
    rng = np.random.default_rng(seed)
    raw = np.triu(rng.uniform(0.0, 3.0, (n, n)), 1)
    raw = raw + raw.T
    raw *= 1.0 + rng.uniform(-4e-10, 4e-10, (n, n))
    np.fill_diagonal(raw, 0.0)
    return raw


def assert_same_ingest(raw):
    """validate_matrix gives the whole-table ingest's bits, or its error."""
    try:
        want = validate_matrix_float(raw)
    except dc.DivclustError as exc:
        with pytest.raises(type(exc)):
            dc.validate_matrix(raw)
    else:
        assert dc.validate_matrix(raw).condensed.tobytes() == want.condensed.tobytes()


@pytest.mark.parametrize("n", [2, 3, 10, 11, 12, 13, 300])
@pytest.mark.parametrize("rows", [1, 3, None])
def test_validate_matrix_in_row_blocks_gives_the_whole_table_bits(monkeypatch, n, rows):
    # rows per block 1, 3 or the default (218 at n = 300, so 300 is not a multiple of it)
    if rows is not None:
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", rows * n)
    for seed in range(3):
        assert_same_ingest(noisy_table(seed, n))


@pytest.mark.parametrize("n", [11, 12])
def test_validate_matrix_rejects_an_asymmetric_pair_only_in_the_last_block(monkeypatch, n):
    # blocks of 3 rows: the pair (n - 2, n - 1) is read in the last one, rows 9-10 or 9-11
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 3 * n)
    raw = noisy_table(4, n)
    raw[n - 1, n - 2] += 1e-6
    with pytest.raises(dc.AsymmetricMatrixError):
        dc.validate_matrix(raw)
    assert_same_ingest(raw)
    # a non-finite entry later in the table still wins over an earlier asymmetry
    raw = noisy_table(4, n)
    raw[0, 1] += 1e-6
    raw[n - 1, n - 2] = np.nan
    with pytest.raises(dc.NonFiniteEntryError):
        dc.validate_matrix(raw)


def test_validate_matrix_averages_an_overflowing_mirror_pair_inside_a_middle_block(monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 3 * 11)  # blocks of rows 0-2, 3-5, 6-8, 9-10
    top = 1.7e308
    near = float(np.nextafter(top, 0.0))
    raw = noisy_table(5, 11)
    raw[4, 7], raw[7, 4] = top, near
    raw[3, 9] = raw[9, 3] = top
    m = dc.validate_matrix(raw)
    assert m.value(4, 7) == top / 2.0 + near / 2.0
    assert m.value(3, 9) == top
    assert_same_ingest(raw)
    raw[5, 6], raw[6, 5] = top, -top  # the difference overflows: asymmetric, not an error of the sum
    with pytest.raises(dc.AsymmetricMatrixError):
        dc.validate_matrix(raw)


@pytest.mark.parametrize("rows", [1, 2, None])
def test_validate_matrix_of_two_objects(monkeypatch, rows):
    if rows is not None:
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", rows * 2)
    for raw in ([[0.0, 2.0], [2.0 + 1e-9, 0.0]], [[0.0, 1.7e308], [1.7e308, 0.0]],
                [[0.0, 1.0], [1.1, 0.0]], [[0.0, -1.0], [-1.0, 0.0]], [[0.0, 1.0], [1.0, 1e-3]]):
        assert_same_ingest(raw)


@pytest.mark.parametrize("n", [2, 7, 11])
def test_square_in_row_blocks_mirrors_the_packed_values(monkeypatch, n):
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 3 * n)
    m, values = random_matrix(12, n)
    assert m.square().tolist() == square_from_condensed(n, values)


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


def test_object_set_takes_python_and_numpy_integers_only():
    got = dc.object_set([np.int64(3), 1, np.int32(2)])
    assert got == (1, 2, 3) and all(type(m) is int for m in got)
    assert dc.object_set(np.array([4, 0], dtype=np.uint16)) == (0, 4)
    for members in ([0.7, 1.2, 2.9], [True, 2], [1, 2.0], ["1", 2], [np.float64(1.0)]):
        with pytest.raises(dc.DivclustError, match="^object index must be an integer"):
            dc.object_set(members)


def test_object_indices_that_are_not_integers_reach_no_computation():
    m, _ = random_matrix(5, 4)
    for call in (
        lambda: dc.split_cluster(m, [0.7, 1.2, 2.9], dc.parse_splitter("pddp")),
        lambda: dc.pcoa_first_axis(m, [0.5, 1, 2]),
        lambda: dc.cluster_stats(m, [True, 2]),
        lambda: dc.cluster_stats(m, [0, 1], [2.0, 3]),
        lambda: dc.Bipartition((0, 1.0), (2, 3)),
    ):
        with pytest.raises(dc.DivclustError, match="^object index must be an integer"):
            call()


def test_matrix_object_count_must_be_an_integer():
    assert dc.DissimilarityMatrix(np.int64(2), [1.0]).n == 2
    for n, values in ((2.5, [1.0]), ("3", [1, 2, 3]), (3.0, [1, 2, 3]), (True, [])):
        with pytest.raises(dc.DivclustError, match="^object count must be an integer"):
            dc.DissimilarityMatrix(n, values)
    # the public lookups check an object count as the constructor does
    assert dc.condensed_size(np.int64(4)) == 6
    assert dc.pair_index(np.int32(4), 1, 2) == 3
    for call in (lambda: dc.condensed_size(4.0), lambda: dc.pair_index(3.5, 1, 2),
                 lambda: dc.pair_index(True, 0, 1)):
        with pytest.raises(dc.DivclustError, match="^object count must be an integer"):
            call()


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



def read_outcome(read, path):
    """What ``read(path)`` gives: its packed values' bytes, or its error's type and message."""
    try:
        return read(path).condensed.tobytes()
    except dc.DivclustError as exc:
        return type(exc), str(exc)


def float_parse(read):
    """``read`` with the float parser alone, as every table was parsed before the integer route."""
    def reading(path):
        with mock.patch.object(core, "_integer_table", lambda path, skiprows: None):
            return read(path)
    return reading


# doubles that round (2^53 + 1, 2^63 - 1) and integers beyond int64 (2^63, 10^19)
EDGE_INTEGERS = [2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, 2**63, 10**19]


@st.composite
def integer_csv_texts(draw) -> str:
    """A symmetric table of integer tokens, spelled with signs, zeros, spaces, CRLF and comments."""
    n = draw(st.integers(1, 5))
    values = st.one_of(st.integers(0, 130), st.sampled_from(EDGE_INTEGERS))
    square = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            square[i][j] = square[j][i] = draw(values)
    if draw(st.booleans()):  # now and then a nonzero diagonal, an error either way
        square[0][0] = draw(st.integers(0, 2))
    spelling = st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "+"]),
                         st.sampled_from(["", "0", "000"]), st.sampled_from(["", " "]))
    lines = []
    for row in square:
        fields = []
        for value in row:
            before, sign, zeros, after = draw(spelling)
            fields.append(f"{before}{sign}{zeros}{value}{after}")
        lines.append(",".join(fields))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "# a comment line")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(integer_csv_texts())
@example("0,+9007199254740993\r\n09007199254740993,0\r\n")
@example("0,9223372036854775807\n9223372036854775807,0\n")
@example("0,9223372036854775808\n9223372036854775808,0\n")
def test_integer_tables_read_bitwise_as_the_float_parser_reads_them(text):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "table.csv"
        path.write_bytes(text.encode())
        got = read_outcome(dc.read_distance_csv, path)
        assert got == read_outcome(float_parse(dc.read_distance_csv), path)


def took_integer_parser(read, path) -> bool:
    """Whether ``read(path)``, which must not raise, took the integer parser."""
    taken = []
    integer_table = core._integer_table

    def recording(path, skiprows):
        table = integer_table(path, skiprows)
        taken.append(table is not None)
        return table

    with mock.patch.object(core, "_integer_table", recording):
        read_outcome(read, path)
    return taken == [True]


@pytest.mark.parametrize("text, integer", [
    ("0,1\n1,0\n", True),
    ("0,+5\r\n05, 0\r\n", True),
    ("0,9223372036854775807\n9223372036854775807,0\n", True),
    ("0,9223372036854775808\n9223372036854775808,0\n", False),
    ("0,1\n1,0\n5.\n", False),
    ("0,1\n1,1_0\n", False),
    ("-0,1\n1,0\n", False),
    ("0,1\n1,-1\n", False),
    ("", False),
    ("# only a comment\n", False),
])
def test_only_integer_tables_without_a_minus_take_the_integer_parser(tmp_path, text, integer):
    path = tmp_path / "table.csv"
    path.write_text(text)
    assert took_integer_parser(dc.read_distance_csv, path) == integer
    assert read_outcome(dc.read_distance_csv, path) == read_outcome(float_parse(dc.read_distance_csv), path)


def test_integer_rows_then_one_float_row_read_as_the_float_parser_reads_them(tmp_path):
    path = tmp_path / "points.csv"
    rows = [f"{3 * i},{i * i}" for i in range(40)]
    path.write_text("\n".join(rows) + "\n5.,7\n")
    table = dc.read_data_csv(path)
    assert table.tobytes() == float_parse(dc.read_data_csv)(path).tobytes()
    assert table[-1].tolist() == [5.0, 7.0] and table.shape == (41, 2)


def test_negative_zero_entries_keep_their_sign(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("-0,3,-0\n3,-0,4\n-0,4,0\n")
    table = dc.read_data_csv(path)
    assert np.signbit(table).tolist() == [[True, False, True], [False, True, False], [True, False, False]]
    # the mean of two -0.0 mirror entries is -0.0 too
    assert np.signbit(dc.read_distance_csv(path).condensed).tolist() == [False, True, False]


def test_an_integer_table_is_cast_in_place_in_row_blocks(monkeypatch, tmp_path):
    n = 13
    raw = np.random.default_rng(n).integers(0, 2**62, (n, n))
    raw = np.triu(raw, 1) + np.triu(raw, 1).T
    path = tmp_path / "table.csv"
    np.savetxt(path, raw, fmt="%d", delimiter=",")
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 3 * n)  # blocks of rows 0-2, 3-5, ..., 12
    table = core._integer_table(path, 0)
    assert table.dtype == np.float64 and table.tobytes() == raw.astype(np.float64).tobytes()


def test_a_stream_is_read_once_by_the_float_parser():
    # the integer parser would use the stream up before a float table could be read
    stream = io.StringIO("0,1.5\n2,3\n")
    assert dc.read_data_csv(stream).tolist() == [[0.0, 1.5], [2.0, 3.0]]
