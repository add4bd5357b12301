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

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _WINDOW,
    Bipartition,
    DissimilarityMatrix,
    _check_range,
    _into_window,
    object_set,
)
from .criteria import (
    CandidateScreen,
    Criterion,
    _EPS,
    _plain_sums,
    _relative_band,
    _side_means,
    _upper_pairs,
    parse_criterion,
)
from .errors import ClusterTooSmallError, DivclustError, NoPositiveEigenvalueError

LANCZOS_TOL = 1e-10
# The Lanczos iteration tests the residual of its dominant Ritz pair every
# few steps: an eigh of the small tridiagonal costs 13-24 us on a 2-vCPU VM,
# against 12-13 us per step at k = 5 to 40 and 43 us at k = 400, and most
# clusters end at breakdown, where a test is due anyway.
_CHECK_EVERY = 3

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


def _cluster_positions(m: DissimilarityMatrix, members) -> np.ndarray:
    ms = object_set(members)
    _check_range(ms, m.n)
    if len(ms) < 2:
        raise ClusterTooSmallError("cannot split a singleton")
    return np.asarray(ms, dtype=int)


def _gather(square: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The cluster's table: ``square``'s rows and columns at the ascending
    positions ``idx``, or ``square`` itself, uncopied, when they are all of it."""
    if idx.size == len(square):
        return square
    return square.take(idx, 0).take(idx, 1)


def _pair_masks(sub: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Left-side masks of the seed pairs (a, b): nearer seed, ties to seed a, seeds forced."""
    # row x of the symmetric table is its column x: distances to seed x. The
    # diagonal is zero, so seed a is on its side; seed b is put off it, where
    # d(a, b) is zero too
    mask = sub.take(a, 0) <= sub.take(b, 0)
    mask[np.arange(a.size), b] = False
    return mask


def two_seeds_split(
    m: DissimilarityMatrix, members, criterion: Criterion
) -> Bipartition:
    """Best-scoring seed-pair split of one cluster.

    Every ordered-ascending seed pair (i, j) generates a candidate: each
    remaining object joins the nearer seed, ties going to seed i. Candidates
    are scored with ``criterion`` and the first strict maximum over the
    lexicographic pair enumeration wins.

    Candidates are screened as they are built, one block of seed pairs at a
    time in bounded scratch memory (:class:`CandidateScreen`): a whole number
    of chunks of at most 2^18 / k^2 candidates, whose C-by-k temporaries stay
    within 2^13 entries. Each block's masks are built once. The candidates
    whose screened score lies within its error band of the best lower bound
    so far are kept, by position; the final bound drops the rest. Those left
    contend, and are rescored exactly, by the same expressions on plain
    numpy sums, each distinct mask once. None is rescored when all their
    bands are zero (exact scores), or when they all make one bipartition, in
    either orientation, as the exact scores could then only choose its
    orientation. So the choice is the one exact scoring of every candidate
    would make.
    """
    return split_cluster(m, members, Splitter(TWO_SEEDS, criterion))


def _two_seeds_mask(sub: np.ndarray, criterion: Criterion) -> np.ndarray:
    """Winning two-seeds candidate of a cluster's table, as seed i's side mask.

    One pass builds the seed pairs' masks ``screen.block`` pairs at a time
    and screens each block once; the screen forms a block's row products
    ``screen.chunk`` rows at a time. A block is a whole number of chunks, so
    every product, and so every screened score, is bitwise what screening
    one chunk at a time gives. The pass keeps, from each block, which
    candidates are not below the best lower bound so far, with their upper
    bounds and bands; once every block is screened, the final best lower
    bound drops the rest, which leaves the contenders in seed-pair order.
    A search of one block neither concatenates nor filters again, as its
    bound was already the final one, and takes its contenders' masks from
    that block. A longer one rebuilds them, a block at a time, so that only
    their distinct masks are held. If every contender's band is zero, the
    first one wins. If they all make one bipartition, in either orientation,
    it is returned unscored: ``split_mask`` orients every winner to the
    first member's side. Else each distinct mask is rescored once, and the
    first strict maximum wins.
    """
    a, b = _upper_pairs(len(sub))  # every (a, b) with a < b, in lexicographic order
    screen = CandidateScreen(criterion, sub)
    best = -np.inf
    kept = []
    for start in range(0, a.size, screen.block):
        part = slice(start, start + screen.block)
        masks = _pair_masks(sub, a[part], b[part])
        scores, bands = screen.score(masks)
        # the best lower bound so far (an infinite band has none); a NaN
        # makes it NaN, which fails every comparison and keeps every
        # candidate from then on, as exact scoring would see them: each one
        # dropped before scores below one that is kept
        lower = np.subtract(scores, bands, out=np.full(len(bands), -np.inf), where=bands != np.inf)
        best = lower.max(initial=best)
        upper = scores + bands
        near = ~(upper < best)
        kept.append((near, upper[near], bands[near]))
    if len(kept) == 1:
        # its bound was the final one, and its masks are at hand
        bands = kept[0][2]
        contenders = [masks[near]]
    else:
        near, upper, bands = map(np.concatenate, zip(*kept))
        del kept  # the pieces, before the contenders are picked out
        final = ~(upper < best)
        which, bands = np.flatnonzero(near)[final], bands[final]
        contenders = (
            _pair_masks(sub, a[part], b[part])
            for part in np.split(which, range(screen.block, which.size, screen.block))
        )
    if not bands.any():
        # a zero band is an exact score, so every contender scores the best
        return next(iter(contenders))[0]
    distinct: dict[bytes, np.ndarray] = {}
    for masks in contenders:
        for mask in masks:
            distinct.setdefault(mask.tobytes(), mask)
    # the exact scores only choose among bipartitions: with one, in either
    # orientation, they choose nothing
    first = next(iter(distinct.values()))
    if distinct.keys() <= {first.tobytes(), (~first).tobytes()}:
        return first
    best = -np.inf
    winner = None
    for mask in distinct.values():
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
    the remainder may end with one member. Ties are of the gaps as computed
    in floating point, where gaps equal in exact arithmetic can differ in
    their last bit.
    """
    return split_cluster(m, members, Splitter(MACNAUGHTON_SMITH))


# Covers the roundings of a(x) and b(x) that fall in the subnormal range, where
# relative bounds fail; a row of zeros gets none, as its sums and gap are exactly zero.
_SUBNORMAL_SLACK = 8 * np.finfo(float).smallest_subnormal


class _SideSums:
    """Every object's running sums to the two sides of a mask, and its gap a(x) - b(x).

    The cluster's table is ``table`` itself, or given ``idx`` its rows and
    columns at those positions, which are gathered one row per move.
    ``totals`` are the row totals, either the plain sums of the rows
    (``err`` None) or sums carried from the parent's peel within ``err`` of
    the exact ones; T(x) is ``totals + err``, at least the exact total.

    :meth:`reset` forms the sums as ``_plain_sums`` does, from the gathered
    table, and zeroes every band, so the gaps are then bitwise the fresh
    ones. :meth:`move` updates both sums by one row, O(k). Until the next
    reset each gap stays within its fixed band of the fresh gap:
    ``_relative_band(k) * T(x) + err(x)``, plus ``_SUBNORMAL_SLACK`` for the
    roundings in the subnormal range. All terms are nonnegative, so each
    rounding of a sum over x's row is at most eps/2 * T(x). After m moves the
    running sums (from zero and the k-term totals) lie within
    err(x) + (k + m) * eps/2 * T(x) of the exact ones, the plain sums within
    k * eps/2 * T(x), and the means and their difference add three roundings
    to each gap: the two gaps differ by at most
    err(x) + (2k + m + 3) * eps * T(x). The loops make m <= k^2 between
    resets (the peel moves each object at most once; the refinement makes at
    most k passes of at most k moves), so the band's relative part,
    8 * (k^2 + 2k + 16) * eps, covers the rest eightfold.
    """

    def __init__(
        self,
        table: np.ndarray,
        totals: np.ndarray,
        idx: np.ndarray | None = None,
        err: np.ndarray | None = None,
    ):
        k = len(totals)
        self.table = table
        self.idx = idx
        self.to_left = np.zeros(k)
        self.to_right = totals.copy()
        self.exact = False  # whether the sums are the plain sums of the current mask
        self.upper = totals if err is None else totals + err
        self.band = _relative_band(k) * self.upper
        if err is not None:
            self.band += err
        np.add(self.band, _SUBNORMAL_SLACK, out=self.band, where=self.upper > 0.0)
        # the sums lie within _start + moves * eps * T of the exact ones; the
        # k-term plain sums start within k * eps * T
        self._start = k * _EPS * self.upper if err is None else err
        self._moves = 0

    def row(self, x: int) -> np.ndarray:
        """x's dissimilarities to the cluster, by symmetry its column."""
        if self.idx is None:
            return self.table[x]
        return self.table[self.idx[x]].take(self.idx)

    def reset(self, mask: np.ndarray) -> None:
        if self.idx is not None:
            self.table = _gather(self.table, self.idx)
            self.idx = None
        masks = mask[None]
        self.to_left = _plain_sums(self.table, masks)[0]
        self.to_right = _plain_sums(self.table, ~masks)[0]
        self.exact = True
        self._start = len(mask) * _EPS * self.upper
        self._moves = 0

    def move(self, x: int, mask: np.ndarray) -> None:
        """Move object x to the other side of ``mask``, in place."""
        row = self.row(x)
        if mask[x]:
            self.to_left -= row
            self.to_right += row
        else:
            self.to_left += row
            self.to_right -= row
        mask[x] = not mask[x]
        self.exact = False
        self._moves += 1

    def gaps(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every object's gap under ``mask`` and its band (zero while exact)."""
        a, b = _side_means(mask[None], self.to_left[None], self.to_right[None])
        return (a - b)[0], np.zeros(len(mask)) if self.exact else self.band

    def own_totals(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every object's sum to its own side of ``mask``, and a bound on its error."""
        # each move's rounding is at most eps/2 * (T + the error so far) <= eps * T
        err = self._start + self._moves * _EPS * self.upper
        return np.where(mask, self.to_left, self.to_right), err


# Row totals a cluster carries from its parent's peel, and their error bounds.
_Carried = tuple[np.ndarray, np.ndarray]


def _carried_seed(
    square: np.ndarray, idx: np.ndarray, carried: _Carried
) -> tuple[_SideSums, int] | None:
    """The side sums and seed of a cluster from its carried totals.

    None when they cannot stand in for a fresh table: an error bound exceeds
    ``_relative_band(k)`` times its total, which would more than double the
    band, or the cluster's max may lie below the magnitude window. (Totals are
    only carried from tables that needed no scaling, whose max bounds the
    cluster's from above.)
    """
    totals, err = carried
    k = idx.size
    if (err > _relative_band(k) * totals).any():
        return None
    sums = _SideSums(square, totals, idx, err)
    # a fresh sum lies within the carried bound plus its own rounding, which
    # the band covers
    low = (totals - sums.band) / (k - 1)
    best_low = float(low.max())  # a row's mean is at most the cluster's max
    if not best_low >= 2.0 * _WINDOW[0]:
        return None
    # the first largest fresh mean is among the objects whose bounds reach the
    # best lower bound; a gathered row's sum is bitwise the gathered table's
    contenders = np.flatnonzero((totals + sums.band) / (k - 1) >= best_low).tolist()
    means = [sums.row(x).sum() / (k - 1) for x in contenders]
    return sums, contenders[means.index(max(means))]


def _macnaughton_smith_mask(
    square: np.ndarray, idx: np.ndarray, carried: _Carried | None = None
) -> tuple[np.ndarray, _Carried | None]:
    """Splinter-group mask of a cluster, and what its objects carry to their sides.

    The cluster is ``square``'s rows and columns at the ascending positions
    ``idx``. From ``carried`` totals (see :func:`_carried_seed`) no k-by-k
    table is formed unless the sums reset; else the table is gathered,
    brought into the magnitude window and its rows summed, and the first
    largest mean row total seeds the splinter.

    The sums start from the seed's row: to the splinter, row s; to the rest,
    the row totals minus row s. Each move updates them by one row. The peel
    stops when every remaining gap plus its band is at most zero, and moves
    the first largest gap j when j's gap minus its band is positive and above
    every other remaining gap plus its band. Otherwise the sums are reset to
    the plain sums, whose zero bands make the same test the exact one (stop
    when no gap is positive, else move j), as a fresh evaluation makes it.

    Returns the mask, True on the splinter, and every object's sum to its
    own side with its error bound, or None where the table had to be scaled.
    """
    start = None if carried is None else _carried_seed(square, idx, carried)
    shift = 0
    if start is None:
        table, shift = _into_window(_gather(square, idx))
        totals = table.sum(axis=1)
        start = _SideSums(table, totals), int(np.argmax(totals / (len(table) - 1)))
    sums, seed = start
    mask = np.zeros(len(sums.to_left), dtype=bool)
    sums.move(seed, mask)
    while True:
        gap, band = sums.gaps(mask)
        gap[mask] = -np.inf
        upper = gap + band
        if not (upper > 0.0).any():
            return mask, None if shift else sums.own_totals(mask)
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
    """Dominant principal coordinate of the cluster, by a Lanczos iteration.

    The squared dissimilarities are double-centered into a Gram table G. From
    a fixed alternating-sign start vector, a Lanczos iteration with full
    reorthogonalization builds an orthonormal basis of the Krylov space and
    the tridiagonal projection of G on it; the Ritz pair of largest
    magnitude is taken once its residual is at most ``LANCZOS_TOL`` times
    that magnitude, or when the Krylov space is exhausted, after at most k
    steps. The eigenvalue is the Rayleigh quotient of the Ritz vector, and
    the coordinates are the unit vector scaled by its square root. The sign
    is flipped so the smallest member's coordinate is nonpositive.

    Ties: a negative eigenvalue is dominant only where its magnitude exceeds
    the largest positive one's by more than the relative ``LANCZOS_TOL``, so
    where +lambda and -lambda share the dominant magnitude the axis is
    +lambda's. The axis of a repeated dominant eigenvalue, like that of a
    simple one, is the start vector's projection on its eigenspace.

    Raises NoPositiveEigenvalueError when the dominant eigenvalue does not
    exceed ``1e-12`` times the Gram trace, as happens for all-tied clusters.
    The axis of the table brought into the magnitude window by an exact power
    of two is scaled back, so dissimilarities times 2^e give coordinates times
    exactly 2^e; the eigenvalue, which grows as their square, may be infinite.
    """
    table, shift = _into_window(_gather(m.square(), _cluster_positions(m, members)))
    axis = _pcoa_axis(table)
    with np.errstate(over="ignore"):  # values past the float range are infinite
        coords = np.ldexp(axis.coords, shift)
        coords.setflags(write=False)
        return PcoaAxis(coords, float(np.ldexp(axis.eigenvalue, 2 * shift)))


def _pcoa_axis(sub: np.ndarray) -> PcoaAxis:
    k = len(sub)
    # double-centered in place, rounding as -0.5 * (d2 - r_i - r_j + mean(d2)) does
    gram = sub * sub
    row_mean = gram.sum(axis=1) / k
    total = gram.sum() / (k * k)
    gram -= row_mean[:, None]
    gram -= row_mean[None, :]
    gram += total
    gram *= -0.5
    trace = float(gram.trace())

    v = np.ones(k)
    v[1::2] = -1.0
    v -= v.sum() / k
    basis = np.empty((k, k))  # the orthonormal Lanczos vectors, one per row
    basis[0] = v / math.sqrt(v.dot(v))
    tri = np.zeros((k, k))  # the projection's lower triangle: alphas and betas
    scale = 0.0  # the largest entry of the projection so far, at most its norm
    for m in range(k):
        w = gram @ basis[m]
        q = basis[: m + 1]
        coef = q @ w
        w -= coef @ q
        w -= (q @ w) @ q  # twice is enough to keep the basis orthonormal
        alpha = float(coef[m])
        tri[m, m] = alpha
        beta = math.sqrt(w.dot(w))
        scale = max(scale, abs(alpha))
        # beta bounds every Ritz residual, and the largest Ritz magnitude is
        # the projection's norm: at or below the tolerance every pair is done
        done = m + 1 == k or beta <= LANCZOS_TOL * scale
        if done or (m + 1) % _CHECK_EVERY == 0:
            theta, s = np.linalg.eigh(tri[: m + 1, : m + 1])
            j = 0 if -theta[0] > theta[-1] * (1.0 + LANCZOS_TOL) else m
            if done or beta * abs(s[m, j]) <= LANCZOS_TOL * abs(theta[j]):
                break
        scale = max(scale, beta)
        tri[m + 1, m] = beta
        np.divide(w, beta, out=basis[m + 1])
    v = s[:, j] @ q
    v /= math.sqrt(v.dot(v))
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
    other side, until nothing moves or for Card(C) passes, comparing the means
    as computed in floating point, where exact ties may read either way.
    A cluster with no positive eigenvalue, as an all-tied one, splits by two-seeds average.
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


def split_mask(
    square: np.ndarray, idx: np.ndarray, splitter: Splitter, carried: _Carried | None = None
) -> tuple[np.ndarray, _Carried | None]:
    """One splitter on the cluster at the ascending positions ``idx`` of ``square``.

    Returns its mask, True on the side holding its first member, and the row
    totals the MacNaughton-Smith peel carries to the sides (None from the
    other splitters, or where the peel's table had to be scaled): every
    member's running sum to its own side, with its error bound. A child
    splits from its slice of them as ``carried``. So the peel, which reads
    the square's rows at ``idx``, one row per move, gathers a cluster's
    k-by-k table only where those bounds cannot decide (``_carried_seed``).
    The other splitters split the gathered table. Each decides on the table
    brought into the magnitude window, which is exact, so it decides alike
    at every scale. It decides every split, alone or in a build: a pair by
    its one bipartition, with no table, and a cluster that leaves the
    principal axis no positive eigenvalue by two-seeds average on its table.
    """
    if idx.size == 2:
        return np.array([True, False]), None
    carry = None
    if splitter.kind == MACNAUGHTON_SMITH:
        mask, carry = _macnaughton_smith_mask(square, idx, carried)
    elif splitter.kind == TWO_SEEDS:
        mask = _two_seeds_mask(_into_window(_gather(square, idx))[0], splitter.criterion)
    else:
        sub = _into_window(_gather(square, idx))[0]
        try:
            mask = _pddp_mask(sub)
        except NoPositiveEigenvalueError:
            mask = _two_seeds_mask(sub, Criterion.AVERAGE_LINK)
    return (mask if mask[0] else ~mask), carry


def split_cluster(m: DissimilarityMatrix, members, splitter: Splitter) -> Bipartition:
    """Apply one splitter to one cluster, as a build splits it (see :func:`split_mask`)."""
    idx = _cluster_positions(m, members)
    mask = split_mask(m.square(), idx, splitter)[0]
    return Bipartition(tuple(idx[mask].tolist()), tuple(idx[~mask].tolist()))
