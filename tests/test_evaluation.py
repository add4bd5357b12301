import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divclust as dc
from conftest import random_matrix, tie_heavy_matrices
from helpers import concordance_counts, pearson


def test_concordance_line4_against_average_link_tree(line4):
    u = dc.cophenetic(dc.agglomerative_average_link(line4))
    counts = dc.concordance(line4, u)
    assert (counts.s_plus, counts.s_minus, counts.n_pairs) == (8, 0, 6)
    assert dc.goodman_kruskal(counts) == 1.0
    assert dc.kendall_tau(counts) == pytest.approx(8.0 / 15.0, abs=1e-15)


def test_concordance_of_a_matrix_with_itself():
    m, _ = random_matrix(11, 8)
    counts = dc.concordance(m, m)
    quadruples = math.comb(counts.n_pairs, 2)
    assert counts.n_pairs == 28
    assert (counts.s_plus, counts.s_minus) == (quadruples, 0)
    assert dc.goodman_kruskal(counts) == 1.0
    assert dc.kendall_tau(counts) == 1.0


def test_concordance_under_order_reversal():
    m, values = random_matrix(13, 7)
    flipped = dc.DissimilarityMatrix(7, [2.0 - v for v in values])
    counts = dc.concordance(m, flipped)
    assert counts.s_plus == 0
    assert counts.s_minus == math.comb(21, 2)
    assert dc.goodman_kruskal(counts) == -1.0
    assert dc.kendall_tau(counts) == -1.0


def test_concordance_is_symmetric_in_its_arguments():
    m, _ = random_matrix(17, 9)
    u = dc.cophenetic(dc.build_hierarchy(m, "two-seeds:average"))
    assert dc.concordance(m, u) == dc.concordance(u, m)


@pytest.mark.parametrize("n", range(3, 10))
@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_concordance_matches_quadruple_loop(n, data):
    _, dvals = data.draw(tie_heavy_matrices(min_k=n, max_k=n))
    _, uvals = data.draw(tie_heavy_matrices(min_k=n, max_k=n))
    m = dc.DissimilarityMatrix(n, dvals)
    counts = dc.concordance(m, dc.DissimilarityMatrix(n, uvals))
    assert (counts.s_plus, counts.s_minus) == concordance_counts(dvals, uvals)
    # tie-rich second vector: cophenetic values repeat per merge
    u = dc.cophenetic(dc.build_hierarchy(m, "macnaughton-smith"))
    counts = dc.concordance(m, u)
    assert (counts.s_plus, counts.s_minus) == concordance_counts(dvals, u.condensed.tolist())


@pytest.mark.parametrize("n", [24, 40])
def test_concordance_blocked_scan_matches_loop_on_a_big_matrix(n):
    # 24 and 40 objects give 276 and 780 pair values: 2 and 4 256-row blocks;
    # values in {1, 2, 3} put exact ties on both vectors in every block
    m, dvals = random_matrix(300, n)
    u = dc.cophenetic(dc.agglomerative_average_link(m))
    rng = np.random.default_rng(41)
    ties = [rng.integers(1, 4, len(dvals)).astype(float).tolist() for _ in range(2)]
    for d, e in ((dvals, u.condensed.tolist()), ties):
        counts = dc.concordance(dc.DissimilarityMatrix(n, d), dc.DissimilarityMatrix(n, e))
        assert (counts.s_plus, counts.s_minus) == concordance_counts(d, e)
        assert counts.n_pairs == n * (n - 1) // 2


def test_concordance_rejects_bad_inputs():
    a, _ = random_matrix(1, 5)
    b, _ = random_matrix(2, 6)
    with pytest.raises(dc.SizeMismatchError):
        dc.concordance(a, b)
    with pytest.raises(dc.DivclustError):
        dc.concordance(dc.DissimilarityMatrix(2, [1.0]), dc.DissimilarityMatrix(2, [2.0]))


def test_goodman_kruskal_values():
    assert dc.goodman_kruskal(dc.ConcordanceCounts(3, 1, 4)) == 0.5
    assert dc.goodman_kruskal(dc.ConcordanceCounts(0, 7, 5)) == -1.0
    with pytest.raises(dc.DegenerateGKError):
        dc.goodman_kruskal(dc.ConcordanceCounts(0, 0, 6))


def test_goodman_kruskal_degenerate_on_all_tied_distances():
    flat = dc.DissimilarityMatrix(3, [1.0, 1.0, 1.0])
    counts = dc.concordance(flat, flat)
    assert (counts.s_plus, counts.s_minus) == (0, 0)
    with pytest.raises(dc.DegenerateGKError):
        dc.goodman_kruskal(counts)


def test_kendall_tau_values():
    assert dc.kendall_tau(dc.ConcordanceCounts(3, 1, 4)) == pytest.approx(1.0 / 3.0)
    counts = dc.ConcordanceCounts(0, 0, 6)
    assert dc.kendall_tau(counts) == 0.0  # ties only dilute, never crash
    with pytest.raises(dc.DivclustError):
        dc.kendall_tau(dc.ConcordanceCounts(1, 0, 1))


def test_rank_metrics_ignore_monotone_distortion():
    m, values = random_matrix(19, 10)
    cubed = dc.DissimilarityMatrix(10, np.asarray(values) ** 3)
    u = dc.cophenetic(dc.build_hierarchy(m, "pddp"))
    assert dc.concordance(m, u) == dc.concordance(cubed, u)


def test_cpcc_line4_closed_form(line4):
    u = dc.cophenetic(dc.agglomerative_average_link(line4))
    assert dc.cpcc(line4, u) == pytest.approx(108.0 / math.sqrt(110.0 * 108.0), abs=1e-12)


def test_cpcc_matches_plain_pearson():
    m, dvals = random_matrix(23, 9)
    u = dc.cophenetic(dc.build_hierarchy(m, "two-seeds:ward1"))
    assert dc.cpcc(m, u) == pytest.approx(pearson(dvals, u.condensed.tolist()), rel=1e-12)


def test_cpcc_perfect_for_affine_images():
    m, values = random_matrix(29, 6)
    shifted = dc.DissimilarityMatrix(6, [2.0 * v + 3.0 for v in values])
    assert dc.cpcc(m, shifted) == pytest.approx(1.0, rel=1e-12)


def test_cpcc_rejects_degenerate_inputs():
    m, _ = random_matrix(31, 4)
    flat = dc.DissimilarityMatrix(4, [1.0] * 6)
    with pytest.raises(dc.ZeroVarianceError):
        dc.cpcc(m, flat)
    with pytest.raises(dc.ZeroVarianceError):
        dc.cpcc(flat, m)
    other, _ = random_matrix(32, 5)
    with pytest.raises(dc.SizeMismatchError):
        dc.cpcc(m, other)
