"""Bipartition quality criteria under a single higher-is-better contract.

Every criterion maps a candidate bipartition of a cluster to a score, and
splitters always keep the candidate with the highest score. Criteria that
are naturally minimized (the complete-link diameter) are negated so that
the shared contract holds.

Each criterion's formula is written once, in :class:`CandidateScreen`. Its
exact score of one candidate (:meth:`CandidateScreen.exact`) is the score
the two-seeds search maximizes and :func:`score_bipartition` reports; its
batched screen of many candidates stays within a proven error band of that
exact score, so the search only rescores the candidates near the best.
"""

from __future__ import annotations

from enum import Enum
from functools import cache

import numpy as np

from .core import (
    Bipartition,
    DissimilarityMatrix,
    _check_index,
    _check_range,
    _into_window,
    _upper_block,
)
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


_PAIR_SCREENS = frozenset({Criterion.SINGLE_LINK, Criterion.COMPLETE_LINK, Criterion.DUNN})
_ENTRY_SCORES = frozenset({Criterion.SINGLE_LINK, Criterion.COMPLETE_LINK})

# Candidates times k^2 in one chunk: the multiply-adds of one table product.
# OpenBLAS computes products up to 2^18 on the calling thread and larger ones
# on its thread pool, whose threads only contend for the cores when a process
# pool already fills them: a 2-worker grid ran 35 % slower with 40-object
# products in one piece. So :meth:`CandidateScreen.score` forms a batch's
# products one chunk of rows at a time, whatever the batch's length.
_CHUNK_PRODUCT = 1 << 18

# Candidates times k in one screened block: the entries of each C-by-k float
# temporary a batch forms, 64 KB, so they stay in cache. A block is a whole
# number of chunks, at least one; below k = 64 it is exactly one. Each batch
# pays about 15 numpy calls whatever its length, so at k = 150, where a chunk
# is 11 candidates, blocks of 4 chunks make a quarter of the batches.
_BLOCK_ENTRIES = 1 << 13

# Pairs a pair screen compares per step of its scan, so a step holds C-by-64
# booleans for C candidates. Over the seed-pair candidates of uniform tables
# of 10, 40 and 160 objects, the pair a diameter or single link needs lay at
# a median position of 0-1 and at most 19. On a 150-point mixture of five
# Gaussians it lay at most at 104 for a diameter, but at a median of 27 and
# up to 3363 for single link.
_SCAN_BLOCK = 64

# Tables of up to this many objects keep their pair lists for reuse; all of
# them together hold under 1 MB.
_KEPT_PAIRS = 64

# Nonzero table entries at or above this keep every sum, mean and ratio the
# criteria form far from underflow (the magnitude window bounds them above).
_SMALLEST_SAFE_ENTRY = 1e-100

# Scores unchanged when every dissimilarity is scaled by the same factor.
_SCALE_FREE = frozenset({Criterion.DUNN, Criterion.DUNN_VARIANT, Criterion.SILHOUETTE})


class CandidateScreen:
    """Scores of candidate splits of one cluster: batched with error bands, or exact.

    ``table`` is the cluster's k-by-k dissimilarity table; the dissimilarities
    must lie in the magnitude window (at most 2^160, as ``split_mask``
    ensures), and ``ward1`` squares them here. For a C-by-k boolean array of
    left-side masks, :meth:`score` returns screened scores and bands such that
    :meth:`exact` on candidate c yields a value within ``bands[c]`` of
    ``scores[c]``; a zero band means the two are bitwise equal.

    Both run the same expressions, and form only what the criterion reads.
    Additive criteria convert the masks to floats once, the left side, and
    take the right side as one minus it, bitwise ``(~masks).astype(float)``.
    They start from every object's sum to each side they read: the screen
    takes them from the row products ``left @ table`` and ``right @ table``,
    the exact score from plain numpy sums of one mask's rows, so it depends
    neither on chunking nor on the BLAS thread count. From them come the
    cross sum and, where read, both within sums. All terms are nonnegative,
    so either way sums them to a relative error below
    ``rho = (k^2 + 2k + 16) * eps``, whatever the grouping; the
    bands are 8 * rho times each criterion's scale, which covers both sides'
    errors and the few roundings that combine them. Min/max parts are exact
    in both: the first pair, in a value-sorted pair list, lying across the
    split (single link) or inside a side (diameters). The list is scanned in
    blocks of ``_SCAN_BLOCK`` pairs, and only candidates with no such pair
    yet go on to the next block, so a block holds at most C-by-64 booleans
    and a diameter is mostly found in the first. A zero sum means all
    its entries are zero, so the Dunn sentinels are decided exactly. If a
    nonzero entry falls below ``_SMALLEST_SAFE_ENTRY`` the relative bounds
    may fail, and every nonzero band is infinite; a zero band stays exact,
    since its sums have only zero terms or its score is a table entry. So
    the table is scanned for such entries only for criteria with nonzero
    bands, all but single and complete link.
    """

    def __init__(self, criterion: Criterion, table: np.ndarray):
        if criterion is Criterion.WARD_ORIGINAL:
            table = table**2
        k = len(table)
        self.criterion = criterion
        self.table = table
        self.k = k
        # single and complete link score table entries, with zero bands
        self.bounded = criterion in _ENTRY_SCORES or _entries_safe(table)
        self.band = _relative_band(k)
        self.chunk = max(1, _CHUNK_PRODUCT // (k * k))
        self.block = self.chunk * max(1, _BLOCK_ENTRIES // (self.chunk * k))
        if criterion in _PAIR_SCREENS:
            first, second = _upper_pairs(k)
            values = table[first, second]
            order = np.argsort(values)
            if criterion is not Criterion.SINGLE_LINK:
                order = order[::-1]
            self.pairs = (first[order], second[order], values[order])

    def _first_pair(self, masks: np.ndarray, same_side: bool) -> np.ndarray:
        """Per candidate, the first pair position on the wanted sides; -1 if none."""
        first, second, _ = self.pairs
        compare = np.equal if same_side else np.not_equal
        pos = np.full(len(masks), -1)
        rows = np.arange(len(masks))
        for start in range(0, first.size, _SCAN_BLOCK):
            block = slice(start, start + _SCAN_BLOCK)
            hits = compare(masks[:, first[block]], masks[:, second[block]])
            found = hits.any(axis=1)
            pos[rows[found]] = start + hits.argmax(axis=1)[found]
            if found.all():
                break
            masks, rows = masks[~found], rows[~found]
        return pos

    def _diameters(self, masks: np.ndarray) -> np.ndarray:
        """max(diameter(left), diameter(right)) per candidate, exactly."""
        pos = self._first_pair(masks, same_side=True)
        return np.where(pos >= 0, self.pairs[2][pos], 0.0)

    def _products(self, side: np.ndarray) -> np.ndarray:
        """``side @ table`` for a C-by-k float side, formed ``chunk`` rows at a time."""
        if len(side) <= self.chunk:
            return side @ self.table
        out = np.empty((len(side), self.k))
        for start in range(0, len(side), self.chunk):
            part = slice(start, start + self.chunk)
            np.matmul(side[part], self.table, out=out[part])
        return out

    def score(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Screened scores and bands of the candidates in ``masks`` (C-by-k, True = left).

        A batch of any length is screened at once. Its row products are
        formed ``chunk`` rows at a time from its first row, so a batch of
        whole chunks gets bitwise the scores and bands of its chunks
        screened one at a time.
        """
        scores, bands = self._score(masks, self._products)
        if not self.bounded:
            bands = np.where(bands == 0.0, 0.0, np.inf)
        return scores, bands

    def exact(self, mask: np.ndarray) -> float:
        """Exact score of one candidate (a k-vector, True = left)."""
        return float(self._score(mask[None], self._sums)[0][0])

    def _sums(self, side: np.ndarray) -> np.ndarray:
        """Every object's sum to a 1-by-k float side, by plain numpy sums of its rows."""
        return _plain_sums(self.table, side == 1.0)

    def _score(self, masks: np.ndarray, sums) -> tuple[np.ndarray, np.ndarray]:
        """Scores and bands of ``masks``; ``sums(side)`` gives every object's sum to a
        side given as floats, 1.0 on it and 0.0 off it."""
        criterion = self.criterion
        if criterion is Criterion.SINGLE_LINK:
            pos = self._first_pair(masks, same_side=False)
            return self.pairs[2][pos], np.zeros(len(pos))
        if criterion is Criterion.COMPLETE_LINK:
            diam = self._diameters(masks)
            return -diam, np.zeros(len(diam))
        left = masks.astype(float)
        right = 1.0 - left  # bitwise (~masks).astype(float)
        to_left = sums(left)
        if criterion is Criterion.SILHOUETTE:
            scores = _silhouette_widths(masks, to_left, sums(right)).mean(axis=1)
            return scores, np.full(len(scores), self.band)
        n_left = left.sum(axis=1)
        n_right = self.k - n_left
        cross = np.einsum("ij,ij->i", right, to_left)
        if criterion is Criterion.AVERAGE_LINK:
            scores = cross / (n_left * n_right)
            return scores, self.band * scores
        if criterion is Criterion.DUNN:
            return self._ratio(cross / (n_left * n_right), self._diameters(masks))
        to_right = sums(right)
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
        raise DivclustError(f"unhandled criterion: {criterion}")

    def _ratio(self, num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dunn ratios; the sentinels of a zero denominator are exact.

        Where the table spans more than the float range, a ratio can exceed
        the float maximum; it is then infinite, and so is its band.
        """
        scores = np.where(num > 0.0, np.inf, 0.0)
        with np.errstate(over="ignore"):
            np.divide(num, den, out=scores, where=den > 0.0)
            return scores, np.where(den > 0.0, self.band * scores, 0.0)


def _entries_safe(table: np.ndarray) -> bool:
    """Whether no nonzero entry of ``table`` lies below ``_SMALLEST_SAFE_ENTRY``."""
    positive = table[table > 0.0]
    return positive.size == 0 or positive.min() >= _SMALLEST_SAFE_ENTRY


def _upper_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of a k-object table's upper triangle, in
    lexicographic order, as read-only arrays."""
    return _kept_pairs(k) if k <= _KEPT_PAIRS else _pairs(k)


def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = np.nonzero(_upper_block(k, 0, k))
    for index in pairs:
        index.setflags(write=False)
    return pairs


_kept_pairs = cache(_pairs)


_EPS = float(np.finfo(float).eps)


def _relative_band(k: int) -> float:
    """8 * rho, rho = (k^2 + 2k + 16) * eps: the screen's relative band for a k-object table."""
    return 8.0 * (k * k + 2 * k + 16) * _EPS


def _plain_sums(table: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Every object's sum to the side marked in the one row of ``masks``, as a 1-by-k array.

    The marked rows are added in order where they lie, without a gathered copy.
    """
    return table.sum(axis=0, keepdims=True, where=masks[0][:, None])


def _side_means(
    masks: np.ndarray, to_left: np.ndarray, to_right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """a(x) and b(x) of every object, per candidate, from its sums to each side.

    a(x) is the mean dissimilarity to the rest of x's own side (zero when
    that side is a singleton), b(x) the mean to the other side (non-empty).
    """
    k = masks.shape[1]
    n_left = masks.sum(axis=1, keepdims=True).astype(float)
    n_own = np.where(masks, n_left, k - n_left)
    a = _mean_or_zero(np.where(masks, to_left, to_right), n_own - 1)
    b = np.where(masks, to_right, to_left) / (k - n_own)
    return a, b


def _silhouette_widths(masks: np.ndarray, to_left: np.ndarray, to_right: np.ndarray) -> np.ndarray:
    """Silhouette width (b - a) / max(a, b) of every object, per candidate; 0 where a = b = 0."""
    a, b = _side_means(masks, to_left, to_right)
    peak = np.maximum(a, b)
    widths = np.zeros_like(a)
    np.divide(b - a, peak, out=widths, where=peak > 0.0)
    return widths


def _mean_or_zero(total: np.ndarray, count: np.ndarray) -> np.ndarray:
    """total / count, and zero where count is zero (total is then zero too)."""
    return np.divide(total, count, out=np.zeros_like(total), where=count > 0)


def _union_table(m: DissimilarityMatrix, b: Bipartition) -> tuple[np.ndarray, int, np.ndarray]:
    """The table of ``b``'s union brought into the magnitude window, its shift, and the left mask."""
    _check_range(b.members, m.n)
    union = np.asarray(b.members, dtype=int)
    table, shift = _into_window(m.square().take(union, 0).take(union, 1))
    return table, shift, np.isin(union, b.left)


def score_bipartition(criterion: Criterion, m: DissimilarityMatrix, b: Bipartition) -> float:
    """Score ``b`` on matrix ``m``; higher is a better split.

    Scores are finite except the two Dunn ratios' positive-infinity
    sentinel, returned when the denominator is zero while the sides are
    separated, and scores past the float range. Dissimilarities times
    2^e give exactly the score times 2^(2e) for ``ward1``, the same score for
    the ratios and ``silhouette``, and the score times 2^e otherwise.
    """
    table, shift, mask = _union_table(m, b)
    screen = CandidateScreen(criterion, table)
    power = 2 if criterion is Criterion.WARD_ORIGINAL else 0 if criterion in _SCALE_FREE else 1
    with np.errstate(over="ignore"):  # scaled back past the float range: infinite
        return float(np.ldexp(screen.exact(mask), power * shift))


def silhouette_of_object(m: DissimilarityMatrix, b: Bipartition, x: int) -> float:
    """Silhouette width of one object under bipartition ``b``."""
    _check_index(x)
    union = b.members
    if x not in union:
        raise ObjectNotInBipartitionError(f"object {x} is on neither side")
    table, _, mask = _union_table(m, b)
    masks = mask[None]
    widths = _silhouette_widths(masks, _plain_sums(table, masks), _plain_sums(table, ~masks))
    return float(widths[0, union.index(x)])
