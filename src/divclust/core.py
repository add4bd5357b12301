"""Dissimilarity matrices and per-cluster distance statistics.

The central type is :class:`DissimilarityMatrix`: symmetric nonnegative
dissimilarities over ``n`` objects, stored once per unordered pair in a
packed upper-triangle array. Objects are always addressed by their integer
index ``0..n-1``; clusters are ascending tuples of those indices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    DivclustError,
    EmptySideError,
    MatrixTooSmallError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonZeroDiagonalError,
    NotSquareError,
    OverlappingSetsError,
)

# Tolerances applied when ingesting raw square matrices.
SYMMETRY_RTOL = 1e-9
DIAGONAL_ATOL = 1e-12


def condensed_size(n: int) -> int:
    """Number of unordered object pairs for ``n`` objects."""
    return n * (n - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """Position of the unordered pair ``(i, j)`` in the packed upper triangle.

    Pairs are laid out row-major: (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"object index out of range for n={n}")
    if i == j:
        raise DivclustError("pair index needs two distinct objects")
    if i > j:
        i, j = j, i
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def object_set(members: Iterable[int]) -> tuple[int, ...]:
    """Canonical object set: ascending, duplicate-free, non-empty int tuple."""
    ms = tuple(sorted(int(m) for m in members))
    if not ms:
        raise DivclustError("object set is empty")
    for a, b in zip(ms, ms[1:]):
        if a == b:
            raise DivclustError(f"object set has duplicate index {a}")
    return ms


class DissimilarityMatrix:
    """Immutable symmetric nonnegative dissimilarities with a zero diagonal.

    Construct directly from a packed upper-triangle vector, or go through
    :func:`validate_matrix` / :func:`euclidean_from_data` for raw input.
    Instances never change after construction and are safe to share freely
    between threads or processes.
    """

    __slots__ = ("n", "_values", "_square")

    def __init__(self, n: int, condensed: np.ndarray | Sequence[float]):
        n = int(n)
        if n < 2:
            raise MatrixTooSmallError("a dissimilarity matrix needs at least 2 objects")
        values = np.array(condensed, dtype=float).reshape(-1)
        if values.shape[0] != condensed_size(n):
            raise DivclustError(
                f"expected {condensed_size(n)} packed values for n={n}, got {values.shape[0]}"
            )
        if not np.isfinite(values).all():
            raise NonFiniteEntryError("dissimilarities must be finite")
        if (values < 0.0).any():
            raise NegativeEntryError("dissimilarities must be nonnegative")
        values.setflags(write=False)
        self.n = n
        self._values = values
        self._square = None

    @property
    def condensed(self) -> np.ndarray:
        """Read-only packed upper-triangle values, pair order as in pair_index."""
        return self._values

    def value(self, i: int, j: int) -> float:
        """d(i, j); zero on the diagonal."""
        if i == j and 0 <= i < self.n:
            return 0.0
        return float(self._values[pair_index(self.n, i, j)])

    def square(self) -> np.ndarray:
        """Full symmetric n-by-n view (read-only, built once and cached)."""
        if self._square is None:
            sq = np.zeros((self.n, self.n))
            iu = np.triu_indices(self.n, 1)
            sq[iu] = self._values
            sq.T[iu] = self._values
            sq.setflags(write=False)
            self._square = sq
        return self._square

    def __repr__(self) -> str:
        return f"DissimilarityMatrix(n={self.n})"


def validate_matrix(raw: np.ndarray | Sequence[Sequence[float]]) -> DissimilarityMatrix:
    """Ingest a raw square table, enforcing the matrix invariants.

    Symmetry is accepted up to ``1e-9 * max(1, |raw[i, j]|)`` per entry and
    the two mirror entries are averaged before storage; diagonal entries may
    deviate from zero by at most ``1e-12`` in absolute value.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 2:
        raise MatrixTooSmallError("a dissimilarity matrix needs at least 2 objects")
    if not np.isfinite(arr).all():
        raise NonFiniteEntryError("matrix entries must be finite")
    diag = np.diagonal(arr)
    if (np.abs(diag) > DIAGONAL_ATOL).any():
        raise NonZeroDiagonalError("diagonal entries must be zero")
    iu = np.triu_indices(n, 1)
    upper = arr[iu]
    lower = arr.T[iu]
    tol = SYMMETRY_RTOL * np.maximum(1.0, np.abs(upper))
    with np.errstate(over="ignore"):  # an overflowing difference is inf, beyond any tolerance
        if (np.abs(upper - lower) > tol).any():
            raise AsymmetricMatrixError("matrix is asymmetric beyond tolerance")
        mean = (upper + lower) / 2.0
    # a pair whose sum overflows is averaged from halves, which cannot
    big = np.isinf(mean)
    mean[big] = upper[big] / 2.0 + lower[big] / 2.0
    return DissimilarityMatrix(n, mean)


def euclidean_from_data(data: np.ndarray | Sequence[Sequence[float]]) -> DissimilarityMatrix:
    """Pairwise Euclidean distances from an objects-by-variables table.

    A pair whose plain sum of squared differences overflows, or underflows
    below the normal float range while the rows differ, is measured in units
    of its own largest absolute difference; every other distance is the
    plain one, bit for bit. Only distances that themselves exceed the float
    range are rejected.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise DivclustError(f"expected a 2-D data table, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise MatrixTooSmallError("a data table needs at least 2 objects")
    if arr.shape[1] < 1:
        raise DivclustError("a data table needs at least 1 variable")
    if not np.isfinite(arr).all():
        raise NonFiniteEntryError("data entries must be finite")
    ii, jj = np.triu_indices(arr.shape[0], 1)
    with np.errstate(over="ignore"):
        diff = arr[ii] - arr[jj]
        total = (diff * diff).sum(axis=1)
    dist = np.sqrt(total)
    redo = ~(np.isfinite(total) & (total >= np.finfo(float).tiny)) & (diff != 0.0).any(axis=1)
    if redo.any():
        a, b = arr[ii[redo]], arr[jj[redo]]
        diff = diff[redo]
        # a difference that overflows is taken between halves, which cannot
        halved = ~np.isfinite(diff).all(axis=1)
        diff[halved] = a[halved] * 0.5 - b[halved] * 0.5
        scale = np.abs(diff).max(axis=1)
        unit = diff / scale[:, None]
        with np.errstate(over="ignore"):
            dist[redo] = np.where(halved, 2.0, 1.0) * scale * np.sqrt((unit * unit).sum(axis=1))
    return DissimilarityMatrix(arr.shape[0], dist)


# A table whose max M lies outside this window is scaled by 2^-frexp(M), exact
# while entries stay normal. M <= 2^160 keeps ward1's squared table below 2^320
# (about 2e96); the power iteration's squared norm, whose terms are fourth
# powers, lies in [M^4/k^4, k^2 M^4], so it stays normal for any k below 2^95.
_WINDOW = (2.0**-160, 2.0**160)


def _into_window(table: np.ndarray, top: float | None = None) -> tuple[np.ndarray, int]:
    """``table`` times 2^-shift, with its max in ``_WINDOW`` unless zero, and shift.

    ``top`` is the table's max, when the caller has already taken it.
    """
    if top is None:
        top = float(table.max())
    if top == 0.0 or _WINDOW[0] <= top <= _WINDOW[1]:
        return table, 0
    shift = int(np.frexp(top)[1])
    return np.ldexp(table, -shift), shift


@dataclass(frozen=True)
class ClusterStats:
    """Distance statistics for one cluster, optionally against a second one."""

    diameter: float
    mean_within: float
    min_between: float | None = None
    max_between: float | None = None
    mean_between: float | None = None


def _check_range(members: tuple[int, ...], n: int) -> None:
    if members[0] < 0 or members[-1] >= n:
        raise IndexError(f"object index out of range for n={n}")


def cluster_stats(
    m: DissimilarityMatrix,
    a: Iterable[int],
    b: Iterable[int] | None = None,
) -> ClusterStats:
    """Diameter and mean within ``a``; plus min/max/mean between ``a`` and ``b``.

    ``a`` and ``b`` must be disjoint; between-cluster fields are ``None``
    when ``b`` is omitted.
    """
    aa = object_set(a)
    _check_range(aa, m.n)
    square = m.square()
    within = square.take(aa, 0).take(aa, 1)[np.triu_indices(len(aa), 1)]
    # a singleton has no within pairs: diameter and mean are zero
    stats = (float(within.max(initial=0.0)), float(within.mean()) if within.size else 0.0)
    if b is None:
        return ClusterStats(*stats)
    bb = object_set(b)
    _check_range(bb, m.n)
    if set(aa) & set(bb):
        raise OverlappingSetsError("clusters share objects")
    cross = square.take(aa, 0).take(bb, 1)
    return ClusterStats(*stats, float(cross.min()), float(cross.max()), float(cross.mean()))


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint non-empty object sets covering a cluster.

    Orientation is canonical: the left side holds the smallest index of the
    union, so equal partitions compare equal regardless of how they were
    produced.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        if not tuple(self.left) or not tuple(self.right):
            raise EmptySideError("bipartition sides must be non-empty")
        left = object_set(self.left)
        right = object_set(self.right)
        if set(left) & set(right):
            raise OverlappingSetsError("bipartition sides overlap")
        if right[0] < left[0]:
            left, right = right, left
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def members(self) -> tuple[int, ...]:
        """Union of both sides, ascending."""
        return tuple(sorted(self.left + self.right))


def read_distance_csv(path) -> DissimilarityMatrix:
    """Load a plain headerless square CSV of dissimilarities."""
    return validate_matrix(_read_csv(path, 0))


def read_data_csv(path, header: bool = False) -> np.ndarray:
    """Load an objects-by-variables CSV, optionally skipping one header row."""
    return _read_csv(path, 1 if header else 0)


def _read_csv(path, skiprows: int) -> np.ndarray:
    """A numeric CSV as a 2-D array; a file without data rows is an input error."""
    with warnings.catch_warnings():
        # numpy warns of an input without data and returns an empty array
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2, skiprows=skiprows)
    if table.size == 0:
        raise MatrixTooSmallError("input has no data rows")
    return table
