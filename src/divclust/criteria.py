"""Bipartition quality criteria under a single higher-is-better contract.

Every criterion maps a candidate bipartition of a cluster to a score, and
splitters always keep the candidate with the highest score. Criteria that
are naturally minimized (the complete-link diameter) are negated so that
the shared contract holds.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core import Bipartition, DissimilarityMatrix, diameter, mean_within
from .errors import DivclustError, ObjectNotInBipartitionError


class Criterion(Enum):
    """Available split-quality criteria; values double as CLI tokens."""

    SINGLE_LINK = "single"
    COMPLETE_LINK = "complete"
    AVERAGE_LINK = "average"
    WARD_ORIGINAL = "ward1"
    WARD_SZEKELY_RIZZO = "ward2"
    DUNN = "dunn"
    DUNN_VARIANT = "dunn-variant"
    SILHOUETTE = "silhouette"


def parse_criterion(token: str) -> Criterion:
    try:
        return Criterion(token)
    except ValueError:
        raise DivclustError(f"unknown criterion: {token!r}") from None


def _ward_form(table: np.ndarray, left, right) -> float:
    # Pooled pairwise form: (np*nq/(np+nq)) *
    #   [ 2/(np*nq) * sum_cross  -  1/np^2 * sum_left  -  1/nq^2 * sum_right ]
    # where the within sums run over ordered pairs (each unordered pair twice).
    np_, nq = len(left), len(right)
    cross = float(table[np.ix_(left, right)].sum())
    wp = float(table[np.ix_(left, left)].sum())
    wq = float(table[np.ix_(right, right)].sum())
    factor = np_ * nq / (np_ + nq)
    return factor * (2.0 * cross / (np_ * nq) - wp / np_**2 - wq / nq**2)


def _ratio(num: float, den: float) -> float:
    # Zero denominator means both sides are internally tied at zero: treat a
    # separated split as infinitely good, a fully degenerate one as neutral.
    if den == 0.0:
        return float("inf") if num > 0.0 else 0.0
    return num / den


def silhouette_values(square: np.ndarray, left, right) -> np.ndarray:
    """Silhouette widths s(x) for every object, in ascending object order.

    a(x) is the mean dissimilarity to the rest of x's own side (zero when
    that side is a singleton), b(x) the mean to the other side; s(x) is
    (b - a) / max(a, b), and zero when both means vanish.
    """
    left = np.asarray(left, dtype=int)
    right = np.asarray(right, dtype=int)
    nl, nr = left.size, right.size
    a_left = square[np.ix_(left, left)].sum(axis=1) / (nl - 1) if nl > 1 else np.zeros(nl)
    a_right = square[np.ix_(right, right)].sum(axis=1) / (nr - 1) if nr > 1 else np.zeros(nr)
    b_left = square[np.ix_(left, right)].sum(axis=1) / nr
    b_right = square[np.ix_(right, left)].sum(axis=1) / nl
    a = np.concatenate([a_left, a_right])
    b = np.concatenate([b_left, b_right])
    denom = np.maximum(a, b)
    s = np.zeros(nl + nr)
    np.divide(b - a, denom, out=s, where=denom > 0.0)
    order = np.argsort(np.concatenate([left, right]), kind="stable")
    return s[order]


def _score_sets(
    criterion: Criterion,
    square: np.ndarray,
    left,
    right,
    squared: np.ndarray | None = None,
) -> float:
    """Score one candidate split given ascending member index arrays."""
    if criterion is Criterion.SINGLE_LINK:
        return float(square[np.ix_(left, right)].min())
    if criterion is Criterion.COMPLETE_LINK:
        return -max(diameter(square, left), diameter(square, right))
    if criterion is Criterion.AVERAGE_LINK:
        return float(square[np.ix_(left, right)].mean())
    if criterion is Criterion.WARD_ORIGINAL:
        if squared is None:
            squared = square**2
        return _ward_form(squared, left, right)
    if criterion is Criterion.WARD_SZEKELY_RIZZO:
        return _ward_form(square, left, right)
    if criterion is Criterion.DUNN:
        num = float(square[np.ix_(left, right)].mean())
        return _ratio(num, max(diameter(square, left), diameter(square, right)))
    if criterion is Criterion.DUNN_VARIANT:
        num = float(square[np.ix_(left, right)].mean())
        return _ratio(num, max(mean_within(square, left), mean_within(square, right)))
    if criterion is Criterion.SILHOUETTE:
        return float(silhouette_values(square, left, right).mean())
    raise DivclustError(f"unhandled criterion: {criterion}")


# Criteria whose screened score is _score_sets's value itself: a min or max
# of table entries, which no regrouping can round differently.
_EXACT_SCREENS = frozenset({Criterion.SINGLE_LINK, Criterion.COMPLETE_LINK})
_PAIR_SCREENS = frozenset({Criterion.SINGLE_LINK, Criterion.COMPLETE_LINK, Criterion.DUNN})

# Candidates times k^2 in one chunk: the multiply-adds of its table product,
# and twice the bytes of a pair screen's boolean table. OpenBLAS computes
# products up to 2^18 on the calling thread and larger ones on its thread
# pool, whose threads only contend for the cores when a process pool already
# fills them: a 2-worker grid ran 35 % slower with 40-object products in one
# piece.
_CHUNK_PRODUCT = 1 << 18

# Nonzero table entries at or above this keep every sum, mean and ratio the
# criteria form far from underflow (the magnitude window bounds them above).
_SMALLEST_SAFE_ENTRY = 1e-100


class CandidateScreen:
    """Batched scores of many candidate splits of one cluster, with error bands.

    ``table`` is the cluster's k-by-k dissimilarity table, squared for
    ``ward1``, exactly as :func:`_score_sets` receives it, and ``pairs`` the
    row and column indices of its upper triangle; the dissimilarities must lie
    in the magnitude window (at most 2^160, as ``split_mask`` ensures). For a
    C-by-k boolean array of left-side masks, :meth:`score` returns screened
    scores and bands such that ``_score_sets`` on candidate c yields a value
    within ``bands[c]`` of ``scores[c]``; a zero band means it is exact.

    Additive criteria come from the row products ``masks @ table`` and
    ``~masks @ table``: the cross sum, both within sums and every object's
    sum to each side. All terms are nonnegative, so the screen and
    ``_score_sets`` each sum them to a relative error below
    ``rho = (k^2 + 2k + 16) * eps``, whatever the grouping; the bands are
    8 * rho times each criterion's scale, which covers both sides' errors and
    the few roundings that combine them. Min/max parts are exact: the first
    pair, in a value-sorted pair list, lying across the split (single link)
    or inside a side (diameters). A zero sum means all its entries are zero,
    so the Dunn sentinels are decided exactly. If a nonzero entry falls
    below ``_SMALLEST_SAFE_ENTRY`` the relative bounds may fail, and every
    band is infinite.
    """

    def __init__(
        self, criterion: Criterion, table: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]
    ):
        k = len(table)
        self.criterion = criterion
        self.table = table
        self.k = k
        positive = table[table > 0.0]
        bounded = positive.size == 0 or positive.min() >= _SMALLEST_SAFE_ENTRY
        self.bounded = bounded or criterion in _EXACT_SCREENS
        self.band = 8.0 * (k * k + 2 * k + 16) * np.finfo(float).eps
        self.chunk = max(1, _CHUNK_PRODUCT // (k * k))
        if criterion in _PAIR_SCREENS:
            first, second = pairs
            values = table[first, second]
            order = np.argsort(values)
            if criterion is not Criterion.SINGLE_LINK:
                order = order[::-1]
            self.pairs = (first[order], second[order], values[order])

    def _first_pair(self, masks: np.ndarray, same_side: bool) -> np.ndarray:
        """Per candidate, the first pair position on the wanted sides; -1 if none."""
        first, second, _ = self.pairs
        hits = masks[:, first] == masks[:, second]
        if not same_side:
            np.logical_not(hits, out=hits)
        pos = hits.argmax(axis=1)
        pos[~hits[np.arange(len(pos)), pos]] = -1
        return pos

    def _diameters(self, masks: np.ndarray) -> np.ndarray:
        """max(diameter(left), diameter(right)) per candidate, exactly."""
        pos = self._first_pair(masks, same_side=True)
        return np.where(pos >= 0, self.pairs[2][pos], 0.0)

    def score(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Screened scores and bands of the candidates in ``masks`` (C-by-k, True = left)."""
        scores, bands = self._score(masks)
        if not self.bounded:
            bands = np.full(len(scores), np.inf)
        return scores, bands

    def _score(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        criterion = self.criterion
        if criterion is Criterion.SINGLE_LINK:
            pos = self._first_pair(masks, same_side=False)
            return self.pairs[2][pos], np.zeros(len(pos))
        if criterion is Criterion.COMPLETE_LINK:
            diam = self._diameters(masks)
            return -diam, np.zeros(len(diam))
        left = masks.astype(float)
        right = 1.0 - left
        n_left = left.sum(axis=1)
        n_right = self.k - n_left
        to_left = left @ self.table
        cross = np.einsum("ij,ij->i", right, to_left)
        if criterion is Criterion.AVERAGE_LINK:
            scores = cross / (n_left * n_right)
            return scores, self.band * scores
        if criterion is Criterion.DUNN:
            return self._ratio(cross / (n_left * n_right), self._diameters(masks))
        to_right = right @ self.table
        within_left = np.einsum("ij,ij->i", left, to_left)
        within_right = np.einsum("ij,ij->i", right, to_right)
        if criterion in (Criterion.WARD_ORIGINAL, Criterion.WARD_SZEKELY_RIZZO):
            factor = n_left * n_right / (n_left + n_right)
            terms = (
                2.0 * cross / (n_left * n_right),
                within_left / n_left**2,
                within_right / n_right**2,
            )
            scores = factor * (terms[0] - terms[1] - terms[2])
            return scores, self.band * (factor * sum(terms) + np.abs(scores))
        if criterion is Criterion.DUNN_VARIANT:
            den = np.maximum(
                _mean_or_zero(within_left, n_left * (n_left - 1)),
                _mean_or_zero(within_right, n_right * (n_right - 1)),
            )
            return self._ratio(cross / (n_left * n_right), den)
        if criterion is Criterion.SILHOUETTE:
            n_own = np.where(masks, n_left[:, None], n_right[:, None])
            a = _mean_or_zero(np.where(masks, to_left, to_right), n_own - 1)
            b = np.where(masks, to_right, to_left) / (self.k - n_own)
            peak = np.maximum(a, b)
            widths = np.zeros_like(a)
            np.divide(b - a, peak, out=widths, where=peak > 0.0)
            scores = widths.mean(axis=1)
            return scores, np.full(len(scores), self.band)
        raise DivclustError(f"unhandled criterion: {criterion}")

    def _ratio(self, num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Screened Dunn ratios; the sentinels of a zero denominator are exact."""
        scores = np.where(num > 0.0, np.inf, 0.0)
        np.divide(num, den, out=scores, where=den > 0.0)
        return scores, np.where(den > 0.0, self.band * scores, 0.0)


def _mean_or_zero(total: np.ndarray, count: np.ndarray) -> np.ndarray:
    """total / count, and zero where count is zero (total is then zero too)."""
    return np.divide(total, count, out=np.zeros_like(total), where=count > 0)


def score_bipartition(criterion: Criterion, m: DissimilarityMatrix, b: Bipartition) -> float:
    """Score ``b`` on matrix ``m``; higher is a better split.

    All criteria are finite except the two Dunn ratios, which return a
    positive-infinity sentinel when the denominator is zero while the sides
    are separated.
    """
    if b.left[0] < 0 or max(b.left[-1], b.right[-1]) >= m.n:
        raise IndexError(f"bipartition indices out of range for n={m.n}")
    return _score_sets(
        criterion, m.square(), np.asarray(b.left, dtype=int), np.asarray(b.right, dtype=int)
    )


def silhouette_of_object(m: DissimilarityMatrix, b: Bipartition, x: int) -> float:
    """Silhouette width of one object under bipartition ``b``."""
    union = b.members
    if x not in union:
        raise ObjectNotInBipartitionError(f"object {x} is on neither side")
    if b.left[0] < 0 or union[-1] >= m.n:
        raise IndexError(f"bipartition indices out of range for n={m.n}")
    values = silhouette_values(m.square(), b.left, b.right)
    return float(values[union.index(x)])
