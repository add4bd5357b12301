"""Cluster splitting procedures.

Three ways to cut one cluster into two:

* :func:`two_seeds_split` - exhaustive search over all seed pairs, keeping
  the candidate that maximizes a chosen criterion;
* :func:`macnaughton_smith_split` - iterative splinter-group peeling;
* :func:`pddp_split` - sign split on the first principal coordinate, with
  a mean-distance refinement.

All splitters are deterministic: ties are broken by the documented
first-appearance / smallest-index rules, never by randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Bipartition, DissimilarityMatrix, _check_range, _into_window, object_set
from .criteria import (
    CandidateScreen,
    Criterion,
    _plain_sums,
    _relative_band,
    _side_means,
    parse_criterion,
)
from .errors import ClusterTooSmallError, DivclustError, NoPositiveEigenvalueError

POWER_ITERATION_TOL = 1e-10
POWER_ITERATION_CAP = 10_000

TWO_SEEDS = "two-seeds"
MACNAUGHTON_SMITH = "macnaughton-smith"
PDDP = "pddp"


@dataclass(frozen=True)
class Splitter:
    """A splitting procedure selector; two-seeds carries its criterion."""

    kind: str
    criterion: Criterion | None = None

    def __post_init__(self):
        if self.kind == TWO_SEEDS:
            if self.criterion is None:
                raise DivclustError("two-seeds splitter needs a criterion")
        elif self.kind in (MACNAUGHTON_SMITH, PDDP):
            if self.criterion is not None:
                raise DivclustError(f"{self.kind} splitter takes no criterion")
        else:
            raise DivclustError(f"unknown splitter: {self.kind!r}")

    @property
    def token(self) -> str:
        if self.kind == TWO_SEEDS:
            return f"{TWO_SEEDS}:{self.criterion.value}"
        return self.kind


def parse_splitter(token: str) -> Splitter:
    """Parse a splitter token: ``two-seeds:<criterion>``, ``macnaughton-smith`` or ``pddp``."""
    if token in (MACNAUGHTON_SMITH, PDDP):
        return Splitter(token)
    if token.startswith(TWO_SEEDS + ":"):
        return Splitter(TWO_SEEDS, parse_criterion(token[len(TWO_SEEDS) + 1 :]))
    raise DivclustError(f"unknown splitter: {token!r}")


def _cluster_submatrix(m: DissimilarityMatrix, members) -> tuple[np.ndarray, np.ndarray]:
    ms = object_set(members)
    _check_range(ms, m.n)
    if len(ms) < 2:
        raise ClusterTooSmallError("cannot split a singleton")
    idx = np.asarray(ms, dtype=int)
    return idx, m.square().take(idx, 0).take(idx, 1)


def _pair_masks(sub: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Left-side masks of the seed pairs (a, b): nearer seed, ties to seed a, seeds forced."""
    # row x of the symmetric table is its column x: distances to seed x
    mask = sub[a] <= sub[b]
    rows = np.arange(a.size)
    mask[rows, a] = True
    mask[rows, b] = False
    return mask


def two_seeds_split(
    m: DissimilarityMatrix, members, criterion: Criterion
) -> Bipartition:
    """Best-scoring seed-pair split of one cluster.

    Every ordered-ascending seed pair (i, j) generates a candidate: each
    remaining object joins the nearer seed, ties going to seed i. Candidates
    are scored with ``criterion`` and the first strict maximum over the
    lexicographic pair enumeration wins.

    Candidates are screened as they are built, one chunk of seed pairs at a
    time in bounded scratch memory (:class:`CandidateScreen`). Only those
    whose screened score lies within the error bands of the screened maximum
    are rescored exactly, by the same expressions on plain numpy sums, each
    distinct mask once, and none when all their bands are zero (exact
    scores); so the choice is the one exact scoring of every candidate would
    make.
    """
    return split_cluster(m, members, Splitter(TWO_SEEDS, criterion))


def _two_seeds_mask(sub: np.ndarray, criterion: Criterion) -> np.ndarray:
    """Winning two-seeds candidate of a cluster's table, as seed i's side mask."""
    k = len(sub)
    # every (a, b) with a < b, in lexicographic order
    a, b = np.nonzero(~np.tri(k, dtype=bool))
    screen = CandidateScreen(criterion, sub, (a, b))

    def chunks(which):
        for start in range(0, which.size, screen.chunk):
            part = which[start : start + screen.chunk]
            yield _pair_masks(sub, a[part], b[part])

    screened = [screen.score(masks) for masks in chunks(np.arange(a.size))]
    scores = np.concatenate([chunk[0] for chunk in screened])
    bands = np.concatenate([chunk[1] for chunk in screened])
    # every candidate that can reach the best lower bound (an infinite band
    # has none); a NaN anywhere fails every comparison and keeps them all, as
    # exact scoring would see them
    lower = np.subtract(scores, bands, out=np.full_like(scores, -np.inf), where=bands != np.inf)
    contenders = np.flatnonzero(~(scores + bands < np.max(lower)))
    if not bands[contenders].any():
        # a zero band is an exact score, so every contender scores the best
        first = contenders[:1]
        return _pair_masks(sub, a[first], b[first])[0]
    best = -np.inf
    winner = None
    seen = set()
    for masks in chunks(contenders):
        for mask in masks:
            key = mask.tobytes()
            if key in seen:
                continue
            seen.add(key)
            score = screen.exact(mask)
            if score > best:
                best, winner = score, mask
    return winner


def macnaughton_smith_split(m: DissimilarityMatrix, members) -> Bipartition:
    """Splinter-group split of one cluster.

    The object with the largest mean dissimilarity to the rest seeds the
    splinter group. Then the remainder's object with the largest gap
    a(x) - b(x), the silhouette's means to the rest of the remainder and to
    the splinter, moves over while that gap is positive, ties taking the
    smallest index. A lone remaining member has a(x) = 0 and never moves, so
    the remainder may end with one member.
    """
    return split_cluster(m, members, Splitter(MACNAUGHTON_SMITH))


# Covers the roundings of a(x) and b(x) that fall in the subnormal range, where
# relative bounds fail; a row of zeros gets none, as its sums and gap are exactly zero.
_SUBNORMAL_SLACK = 8 * np.finfo(float).smallest_subnormal


class _SideSums:
    """Every object's running sums to the two sides of a mask, and its gap a(x) - b(x).

    :meth:`reset` forms the sums as ``_plain_sums`` does and zeroes every
    band, so the gaps are then bitwise the fresh ones. :meth:`move` updates
    both sums by one table row, O(k). Until the next reset each gap stays
    within its fixed band of the fresh gap: ``_relative_band(k) * T(x)``,
    T(x) being x's row total, plus ``_SUBNORMAL_SLACK`` for the roundings
    in the subnormal range. All terms are nonnegative, so each rounding of a
    sum over x's row is at most eps/2 * T(x). After m moves the running sums
    (from zero and the k-term totals) lie within (k + m) * eps/2 * T(x) of
    the exact ones, the plain sums within k * eps/2 * T(x), and the means
    and their difference add three roundings to each gap: the two gaps
    differ by at most (2k + m + 3) * eps * T(x). The loops make m <= k^2
    between resets (the peel moves each object at most once; the refinement
    makes at most k passes of at most k moves), so the band's
    8 * (k^2 + 2k + 16) * eps covers that eightfold.
    """

    def __init__(self, sub: np.ndarray, totals: np.ndarray):
        self.sub = sub
        self.to_left = np.zeros(len(sub))
        self.to_right = totals.copy()
        self.exact = False  # whether the sums are the plain sums of the current mask
        self._band = _relative_band(len(sub)) * totals
        self._band += np.where(totals > 0.0, _SUBNORMAL_SLACK, 0.0)

    def reset(self, mask: np.ndarray) -> None:
        masks = mask[None]
        self.to_left = _plain_sums(self.sub, masks)[0]
        self.to_right = _plain_sums(self.sub, ~masks)[0]
        self.exact = True

    def move(self, x: int, mask: np.ndarray) -> None:
        """Move object x to the other side of ``mask``, in place."""
        row = self.sub[x]  # x's dissimilarities, by symmetry its column
        if mask[x]:
            self.to_left -= row
            self.to_right += row
        else:
            self.to_left += row
            self.to_right -= row
        mask[x] = not mask[x]
        self.exact = False

    def gaps(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every object's gap under ``mask`` and its band (zero while exact)."""
        a, b = _side_means(mask[None], self.to_left[None], self.to_right[None])
        return (a - b)[0], np.zeros(len(mask)) if self.exact else self._band


def _macnaughton_smith_mask(sub: np.ndarray) -> np.ndarray:
    """Splinter-group mask of a cluster's table.

    The sums start from the seed's row: to the splinter, row s; to the rest,
    the row totals minus row s. Each move updates them by one row. The peel
    stops when every remaining gap plus its band is at most zero, and moves
    the first largest gap j when j's gap minus its band is positive and above
    every other remaining gap plus its band. Otherwise the sums are reset to
    the plain sums, whose zero bands make the same test the exact one (stop
    when no gap is positive, else move j), as a fresh evaluation makes it.
    """
    k = len(sub)
    totals = sub.sum(axis=1)
    mask = np.zeros(k, dtype=bool)
    sums = _SideSums(sub, totals)
    sums.move(int(np.argmax(totals / (k - 1))), mask)
    while True:
        gap, band = sums.gaps(mask)
        gap[mask] = -np.inf
        upper = gap + band
        if not (upper > 0.0).any():
            return mask
        j = int(np.argmax(gap))
        lower = gap[j] - band[j]
        upper[j] = -np.inf
        # exact gaps move j even when a later gap ties it
        if not (lower > 0.0 and lower > upper.max()) and not sums.exact:
            sums.reset(mask)
            continue
        sums.move(j, mask)


@dataclass(frozen=True, eq=False)
class PcoaAxis:
    """First principal coordinate of a cluster: per-member coords and eigenvalue."""

    coords: np.ndarray
    eigenvalue: float


def pcoa_first_axis(m: DissimilarityMatrix, members) -> PcoaAxis:
    """Dominant principal coordinate of the cluster, by power iteration.

    The squared dissimilarities are double-centered into a Gram table, the
    dominant eigenpair is extracted with a fixed alternating-sign start
    vector, and coordinates are the unit eigenvector scaled by the square
    root of the eigenvalue. The sign is flipped so the smallest member's
    coordinate is nonpositive.

    Raises NoPositiveEigenvalueError when the dominant eigenvalue does not
    exceed ``1e-12`` times the Gram trace, as happens for all-tied clusters.
    The axis of the table brought into the magnitude window by an exact power
    of two is scaled back, so dissimilarities times 2^e give coordinates times
    exactly 2^e; the eigenvalue, which grows as their square, may be infinite.
    """
    table, shift = _into_window(_cluster_submatrix(m, members)[1])
    axis = _pcoa_axis(table)
    with np.errstate(over="ignore"):  # values past the float range are infinite
        coords = np.ldexp(axis.coords, shift)
        coords.setflags(write=False)
        return PcoaAxis(coords, float(np.ldexp(axis.eigenvalue, 2 * shift)))


def _pcoa_axis(sub: np.ndarray) -> PcoaAxis:
    k = len(sub)
    d2 = sub**2
    row_mean = d2.mean(axis=1)
    gram = -0.5 * (d2 - row_mean[:, None] - row_mean[None, :] + d2.mean())
    trace = float(np.trace(gram))

    v = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    v -= v.mean()
    v /= np.linalg.norm(v)
    for _ in range(POWER_ITERATION_CAP):
        w = gram @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            raise NoPositiveEigenvalueError("cluster has no positive spread")
        w /= norm
        done = float(np.abs(w - v).max()) < POWER_ITERATION_TOL
        v = w
        if done:
            break
    eigenvalue = float(v @ (gram @ v))
    if eigenvalue <= 1e-12 * trace:
        raise NoPositiveEigenvalueError("dominant eigenvalue is not positive")
    coords = np.sqrt(eigenvalue) * v
    if coords[0] > 0.0:
        coords = -coords
    return PcoaAxis(coords, eigenvalue)


def _sides_from_coords(coords: np.ndarray) -> np.ndarray:
    """Left-side mask from axis coordinates: negative side is the left.

    If a side comes out empty, the single object with the most extreme
    coordinate of the majority sign is moved into it.
    """
    mask = coords < 0.0
    if not mask.any():
        mask[int(np.argmax(coords))] = True
    elif mask.all():
        mask[int(np.argmin(coords))] = False
    return mask


def pddp_split(m: DissimilarityMatrix, members) -> Bipartition:
    """Principal-axis split of one cluster.

    Objects split by coordinate sign on the first principal axis (negative
    side left). Passes in ascending member order then move each object whose
    silhouette mean a(x) to the rest of its side exceeds its mean b(x) to the
    other side, until nothing moves or for Card(C) passes. Propagates
    NoPositiveEigenvalueError for degenerate clusters.
    """
    return split_cluster(m, members, Splitter(PDDP))


def _pddp_mask(sub: np.ndarray) -> np.ndarray:
    """Refined principal-axis mask of a cluster's table, negative side True.

    Each pass scans for the next object whose gap plus its band is positive
    (every object before it stays) and moves it when its gap minus its band
    is positive too. Otherwise the sums are reset to the plain sums and that
    object is decided again from its exact gap, so every decision is the one
    a fresh evaluation of the gaps would make.
    """
    k = len(sub)
    mask = _sides_from_coords(_pcoa_axis(sub).coords)
    sums = _SideSums(sub, sub.sum(axis=1))
    sums.reset(mask)
    for _ in range(k):
        moved = False
        x = 0
        while x < k:
            gap, band = sums.gaps(mask)
            ahead = np.flatnonzero(gap[x:] + band[x:] > 0.0)
            if not ahead.size:
                break
            x += int(ahead[0])
            if gap[x] - band[x] > 0.0:
                sums.move(x, mask)
                moved = True
                x += 1
            else:
                sums.reset(mask)
        if not moved:
            break
    return mask


def split_mask(sub: np.ndarray, splitter: Splitter, top: float | None = None) -> np.ndarray:
    """One splitter on a cluster's k-by-k table: True marks the side holding its first member.

    ``top`` is the table's max, when the caller has already taken it.
    """
    sub = _into_window(sub, top)[0]  # exact, so every splitter decides alike at every scale
    if splitter.kind == TWO_SEEDS:
        mask = _two_seeds_mask(sub, splitter.criterion)
    elif splitter.kind == MACNAUGHTON_SMITH:
        mask = _macnaughton_smith_mask(sub)
    else:
        mask = _pddp_mask(sub)
    return mask if mask[0] else ~mask


def split_cluster(m: DissimilarityMatrix, members, splitter: Splitter) -> Bipartition:
    """Apply one splitter to one cluster."""
    idx, sub = _cluster_submatrix(m, members)
    mask = split_mask(sub, splitter)
    return Bipartition(tuple(idx[mask]), tuple(idx[~mask]))
