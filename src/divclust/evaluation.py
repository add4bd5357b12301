"""Rank-based agreement between observed and cophenetic dissimilarities.

All three metrics compare the two packed value vectors of equally sized
matrices. Concordance counts cover every unordered pair of distinct object
pairs (quadruples) without visiting them: with P = n(n-1)/2 object pairs it
sorts and counts in O(P log P) (W. R. Knight, "A computer method for
calculating Kendall's tau with ungrouped data", JASA 61, 1966). Ties on
either vector are excluded exactly: tie groups are runs of bitwise-equal
floats after sorting, never values within a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DissimilarityMatrix, _into_window
from .errors import DegenerateGKError, DivclustError, SizeMismatchError, ZeroVarianceError

# P = n(n-1)/2 below 2^31 keeps every sort key of the count within int64
_MAX_OBJECTS = 65536


@dataclass(frozen=True)
class ConcordanceCounts:
    """Concordant/discordant quadruple counts over n_pairs object pairs."""

    s_plus: int
    s_minus: int
    n_pairs: int


def concordance(d: DissimilarityMatrix, u: DissimilarityMatrix) -> ConcordanceCounts:
    """Count quadruples where d and u order two object pairs the same way.

    A quadruple is one unordered pair of distinct object pairs {a, b}; it is
    concordant when (d_a - d_b) and (u_a - u_b) share a strict sign,
    discordant when the signs oppose, and excluded when either difference is
    exactly zero.
    """
    if d.n != u.n:
        raise SizeMismatchError(f"matrix sizes differ: {d.n} vs {u.n}")
    if d.n < 3:
        raise DivclustError("concordance needs at least 3 objects")
    if d.n > _MAX_OBJECTS:
        raise DivclustError(f"concordance supports at most {_MAX_OBJECTS} objects")
    d_rank, d_ties = _ranks(d.condensed)
    u_rank, u_ties = _ranks(u.condensed)
    span = int(d_rank.max()) + 1
    by_u_then_d = np.sort(u_rank * span + d_rank)
    both_ties = _tied_pairs(_run_starts(by_u_then_d))
    n_pairs = d_rank.shape[0]
    # a quadruple is untied unless d ties, u ties, or both (counted twice)
    untied = n_pairs * (n_pairs - 1) // 2 - d_ties - u_ties + both_ties
    # in (u, d) order, a strictly larger d before a smaller one is discordant
    s_minus = _strict_inversions(by_u_then_d % span)
    return ConcordanceCounts(untied - s_minus, s_minus, n_pairs)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """True where a run of equal values begins in a sorted array."""
    return np.append(True, ordered[1:] != ordered[:-1])


def _tied_pairs(starts: np.ndarray) -> int:
    """Pairs of positions that share a run."""
    lengths = np.diff(np.flatnonzero(np.append(starts, True)))
    return int((lengths * (lengths - 1) // 2).sum())


def _ranks(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks (equal values share one) and the number of tied pairs."""
    order = np.argsort(values)
    starts = _run_starts(values[order])
    ranks = np.empty(values.shape[0], dtype=np.int64)
    ranks[order] = np.cumsum(starts) - 1
    return ranks, _tied_pairs(starts)


def _strict_inversions(ranks: np.ndarray) -> int:
    """Positions i < j with ranks[i] > ranks[j], by bottom-up merge passes.

    Before the pass of width w = 2^level every block of w is sorted. One
    sort of the keys (pair of blocks, value, side) merges each left block
    with the right block after it, equal values left first, so each right
    value moves left by the number of larger values in its left block. The
    right values' old positions minus their new ones sum to the inversions
    between the two blocks. Each block's keys are already a sorted run, so a
    stable sort (timsort, which merges runs) takes each pass in linear time,
    and the whole count O(P log P).
    """
    size = ranks.shape[0]
    shift = int(ranks.max()).bit_length() + 1
    index = np.arange(size, dtype=np.int64)
    run = ranks
    count = 0
    level = 0
    while 1 << level < size:
        side = (index >> level) & 1
        merged = np.sort((index >> (level + 1) << shift) | (run << 1) | side, kind="stable")
        count += _right_half_sum(size, level) - int(index @ (merged & 1))
        run = (merged & ((1 << shift) - 1)) >> 1
        level += 1
    return count


def _right_half_sum(size: int, level: int) -> int:
    """The sum of the positions below ``size`` whose bit ``level`` is set: each right block's positions.

    With w = 2^level, each of the q whole pairs of blocks contributes its
    right block, w positions from (2j + 1) w, so together w^2 q^2 +
    q w (w - 1) / 2; a last part pair of r positions holds the first
    r - w of its right block, if any, from (2q + 1) w.
    """
    width = 1 << level
    pairs, rest = divmod(size, 2 * width)
    tail = max(0, rest - width)
    return (width * width * pairs * pairs + pairs * width * (width - 1) // 2
            + tail * (2 * pairs + 1) * width + tail * (tail - 1) // 2)


def goodman_kruskal(counts: ConcordanceCounts) -> float:
    """Gamma: (S+ - S-) / (S+ + S-); undefined when every quadruple is tied."""
    total = counts.s_plus + counts.s_minus
    if total == 0:
        raise DegenerateGKError("all quadruples are tied")
    return (counts.s_plus - counts.s_minus) / total


def kendall_tau(counts: ConcordanceCounts) -> float:
    """Tau over all quadruples: (S+ - S-) / (N(N-1)/2) for N object pairs."""
    if counts.n_pairs < 2:
        raise DivclustError("tau needs at least 2 object pairs")
    return (counts.s_plus - counts.s_minus) / (counts.n_pairs * (counts.n_pairs - 1) / 2)


def cpcc(d: DissimilarityMatrix, u: DissimilarityMatrix) -> float:
    """Pearson correlation between the two packed value vectors.

    Each vector is first brought into the magnitude window by an exact power
    of two, which leaves the correlation bitwise unchanged, so the sums of
    squares neither overflow nor underflow. The three sums of products are
    numpy's pairwise summation (``np.add.reduce``) over the elementwise
    products, a fixed-order reduction with no BLAS call, so the value has
    the same bits at any BLAS thread count. Its error bound is no worse than
    a dot product's (N. J. Higham, "The accuracy of floating point
    summation", SIAM J. Sci. Comput. 14, 1993).
    """
    if d.n != u.n:
        raise SizeMismatchError(f"matrix sizes differ: {d.n} vs {u.n}")
    dv = _into_window(d.condensed)[0]
    uv = _into_window(u.condensed)[0]
    x = dv - dv.mean()
    y = uv - uv.mean()
    products = np.multiply(x, x)
    sx = float(np.add.reduce(products))
    sy = float(np.add.reduce(np.multiply(y, y, out=products)))
    if sx == 0.0 or sy == 0.0:
        raise ZeroVarianceError("correlation undefined for a constant vector")
    sxy = float(np.add.reduce(np.multiply(x, y, out=products)))
    return sxy / float(np.sqrt(sx * sy))
