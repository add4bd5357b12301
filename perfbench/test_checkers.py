"""Tests of the benchmark's own checkers against hand-computed fixtures.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import math

import checkers

# Points 0, 1, 10, 11 on a line. Average-link merges {0,1} and {2,3} at
# level 1, then joins them at the mean cross distance (10+11+9+10)/4 = 10.
LINE = [[0.0], [1.0], [10.0], [11.0]]
LINE_TREE = [
    ([0], 0.0, None),
    ([1], 0.0, None),
    ([2], 0.0, None),
    ([3], 0.0, None),
    ([0, 1], 1.0, (0, 1)),
    ([2, 3], 1.0, (2, 3)),
    ([0, 1, 2, 3], 10.0, (4, 5)),
]


def test_line_distances():
    rows = checkers.euclidean_rows(LINE)
    assert checkers.condensed(rows) == [1.0, 10.0, 11.0, 9.0, 10.0, 1.0]


def test_line_cophenetic_and_counts():
    rows = checkers.euclidean_rows(LINE)
    u = checkers.cophenetic(LINE_TREE, 4)
    assert u == [1.0, 10.0, 10.0, 10.0, 10.0, 1.0]
    assert checkers.concordance_counts(checkers.condensed(rows), u) == (8, 0)
    assert checkers.is_ultrametric(u, 4)


def test_line_average_split_scores_ten():
    rows = checkers.euclidean_rows(LINE)
    assert checkers.score_split(rows, [0, 1], [2, 3], "average") == 10.0
    assert checkers.best_two_seeds_score(rows, [0, 1, 2, 3], "average") == 10.0


def test_line_levels_are_diameters():
    rows = checkers.euclidean_rows(LINE)
    assert checkers.node_diameters(LINE_TREE, rows) == [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 11.0]


def _quadratic_counts(d, u):
    plus = minus = 0
    for a in range(len(d)):
        for b in range(a + 1, len(d)):
            s = (d[a] - d[b]) * (u[a] - u[b])
            plus += s > 0
            minus += s < 0
    return plus, minus


def test_counts_match_quadratic_scan_with_ties():
    d = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0]
    u = [2.0, 2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0, 2.0, 8.0]
    assert checkers.concordance_counts(d, u) == _quadratic_counts(d, u)


def test_ultrametric_rejects_a_plain_metric():
    assert not checkers.is_ultrametric([1.0, 2.0, 2.5], 3)
    assert checkers.is_ultrametric([1.0, 2.0, 2.0], 3)


def test_caterpillar_shape():
    assert checkers.depth(LINE_TREE) == 2
    assert not checkers.is_caterpillar(LINE_TREE)
    chain = [([0], 0.0, None), ([1], 0.0, None), ([2], 0.0, None),
             ([0, 1], 1.0, (0, 1)), ([0, 1, 2], 2.0, (3, 2))]
    assert checkers.depth(chain) == 2 and checkers.is_caterpillar(chain)


def test_dunn_infinite_sentinel():
    rows = [[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [5.0, 5.0, 0.0]]
    assert checkers.score_split(rows, [0, 1], [2], "dunn") == math.inf
    assert checkers.close(math.inf, math.inf) and not checkers.close(math.inf, 1e300)
