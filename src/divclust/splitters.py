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

from .core import Bipartition, DissimilarityMatrix, _into_window, object_set
from .criteria import CandidateScreen, Criterion, _score_sets, parse_criterion
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
    if ms[0] < 0 or ms[-1] >= m.n:
        raise IndexError(f"cluster indices out of range for n={m.n}")
    if len(ms) < 2:
        raise ClusterTooSmallError("cannot split a singleton")
    idx = np.asarray(ms, dtype=int)
    return idx, m.square()[np.ix_(idx, idx)]


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
    are rescored exactly, each distinct mask once, and none when all their
    bands are zero (exact scores); so the choice is the one exact scoring of
    every candidate would make.
    """
    return split_cluster(m, members, Splitter(TWO_SEEDS, criterion))


def _two_seeds_mask(sub: np.ndarray, criterion: Criterion) -> np.ndarray:
    """Winning two-seeds candidate of a cluster's table, as seed i's side mask."""
    k = len(sub)
    squared = sub**2 if criterion is Criterion.WARD_ORIGINAL else None
    # every (a, b) with a < b, in lexicographic order
    a, b = np.nonzero(~np.tri(k, dtype=bool))
    screen = CandidateScreen(criterion, sub if squared is None else squared, (a, b))

    def chunks(which):
        for start in range(0, which.size, screen.chunk):
            part = which[start : start + screen.chunk]
            yield _pair_masks(sub, a[part], b[part])

    screened = [screen.score(masks) for masks in chunks(np.arange(a.size))]
    scores = np.concatenate([chunk[0] for chunk in screened])
    bands = np.concatenate([chunk[1] for chunk in screened])
    # every candidate that can reach the best lower bound; a NaN anywhere
    # fails every comparison and keeps them all, as exact scoring would see them
    contenders = np.flatnonzero(~(scores + bands < np.max(scores - bands)))
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
            left, right = np.flatnonzero(mask), np.flatnonzero(~mask)
            score = _score_sets(criterion, sub, left, right, squared)
            if score > best:
                best, winner = score, mask
    return winner


def macnaughton_smith_split(m: DissimilarityMatrix, members) -> Bipartition:
    """Splinter-group split of one cluster.

    The object with the largest mean dissimilarity to the rest seeds the
    splinter group. Then, repeatedly, the object of the remainder whose mean
    dissimilarity to the rest of the remainder exceeds its mean to the
    splinter group by the most (strictly positive gap) moves over; ties take
    the smallest index, and peeling stops when no gap is positive or the
    remainder would drop below two members.
    """
    return split_cluster(m, members, Splitter(MACNAUGHTON_SMITH))


def _macnaughton_smith_mask(sub: np.ndarray) -> np.ndarray:
    """Splinter-group mask of a cluster's table."""
    k = len(sub)
    mask = np.zeros(k, dtype=bool)
    mask[int(np.argmax(sub.sum(axis=1) / (k - 1)))] = True
    while k - mask.sum() >= 2:
        rest, splinter = np.flatnonzero(~mask), np.flatnonzero(mask)
        to_rest = sub[np.ix_(rest, rest)].sum(axis=1) / (rest.size - 1)
        to_splinter = sub[np.ix_(rest, splinter)].sum(axis=1) / splinter.size
        gap = to_rest - to_splinter
        j = int(np.argmax(gap))
        if not gap[j] > 0.0:
            break
        mask[rest[j]] = True
    return mask


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
    side left), then refinement passes in ascending member order move any
    object strictly closer on average to the other side, leaving at least
    one member behind; passes stop when nothing moves or after Card(C)
    passes. Propagates NoPositiveEigenvalueError for degenerate clusters.
    """
    return split_cluster(m, members, Splitter(PDDP))


def _pddp_mask(sub: np.ndarray) -> np.ndarray:
    """Refined principal-axis mask of a cluster's table, negative side True."""
    k = len(sub)
    left_mask = _sides_from_coords(_pcoa_axis(sub).coords)
    for _ in range(k):
        moved = False
        for x in range(k):
            own = np.flatnonzero(left_mask if left_mask[x] else ~left_mask)
            if own.size < 2:
                continue
            other = np.flatnonzero(~left_mask if left_mask[x] else left_mask)
            # own includes x itself, whose zero self-distance drops out of the sum
            mean_own = float(sub[x, own].sum()) / (own.size - 1)
            mean_other = float(sub[x, other].mean())
            if mean_other < mean_own:
                left_mask[x] = not left_mask[x]
                moved = True
        if not moved:
            break
    return left_mask


def split_mask(sub: np.ndarray, splitter: Splitter) -> np.ndarray:
    """One splitter on a cluster's k-by-k table: True marks the side holding its first member."""
    sub = _into_window(sub)[0]  # exact, so every splitter decides alike at every scale
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
