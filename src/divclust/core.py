"""Dissimilarity matrices and per-cluster distance statistics.

The central type is :class:`DissimilarityMatrix`: symmetric nonnegative
dissimilarities over ``n`` objects, stored once per unordered pair in a
packed upper-triangle array. Objects are always addressed by their integer
index ``0..n-1``; clusters are ascending tuples of those indices.
"""

from __future__ import annotations

import os
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
    n = _object_count(n)
    return n * (n - 1) // 2


# A pass over a whole table works in blocks of rows of at most this many
# entries (512 KB of floats), so its temporaries stay small beside the table.
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(rows: int, width: int) -> Iterable[tuple[int, int]]:
    """Row ranges [lo, hi) over ``rows`` rows of ``width`` entries: one row or more, at most _BLOCK_ENTRIES entries."""
    step = max(1, _BLOCK_ENTRIES // width)
    for lo in range(0, rows, step):
        yield lo, min(lo + step, rows)


def _row_start(n: int, i: int) -> int:
    """Packed position of row i's first pair (i, i + 1); the packed length for i = n."""
    return i * n - i * (i + 1) // 2


def _upper_block(n: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 and columns lo..n-1 of the strict upper triangle as a mask, in packed order."""
    return np.arange(lo, n) > np.arange(lo, hi)[:, None]


def _unpack(n: int, values: np.ndarray) -> np.ndarray:
    """The symmetric n-by-n table of packed ``values``, zero on the diagonal, writable."""
    table = np.zeros((n, n))
    for lo, hi in _row_blocks(n, n):
        mask = _upper_block(n, lo, hi)
        block = values[_row_start(n, lo):_row_start(n, hi)]
        table[lo:hi, lo:][mask] = block
        table[lo:, lo:hi].T[mask] = block
    return table


def pair_index(n: int, i: int, j: int) -> int:
    """Position of the unordered pair ``(i, j)`` in the packed upper triangle.

    Pairs are laid out row-major: (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """
    n = _object_count(n)
    _check_index(i)
    _check_index(j)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"object index out of range for n={n}")
    if i == j:
        raise DivclustError("pair index needs two distinct objects")
    if i > j:
        i, j = j, i
    return _row_start(n, i) + (j - i - 1)


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; ``bool`` is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _object_count(n) -> int:
    """``n`` as an int; an object count that is not an integer is an input error."""
    if not _is_integer(n):
        raise DivclustError(f"object count must be an integer, got {n!r}")
    return int(n)


def _check_index(value) -> None:
    """Reject an object index that is not an integer; its range is the caller's to check."""
    if not _is_integer(value):
        raise DivclustError(f"object index must be an integer, got {value!r}")


def object_set(members: Iterable[int]) -> tuple[int, ...]:
    """Canonical object set: ascending, duplicate-free, non-empty int tuple."""
    members = list(members)
    # one member of each type decides for every member of that type
    for m in {type(m): m for m in members}.values():
        _check_index(m)
    ms = tuple(sorted(map(int, members)))
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
        n = _object_count(n)
        if n < 2:
            raise MatrixTooSmallError("a dissimilarity matrix needs at least 2 objects")
        self._hold(n, np.array(condensed, dtype=float).reshape(-1))

    @classmethod
    def _owning(cls, n: int, values: np.ndarray) -> DissimilarityMatrix:
        """A matrix over ``values``, a fresh 1-D float array no caller keeps, without a copy.

        The package's own readers and ``cophenetic`` hand over the packed
        values they formed; ``n`` is an int of at least 2.
        """
        m = cls.__new__(cls)
        m._hold(n, values)
        return m

    def _hold(self, n: int, values: np.ndarray) -> None:
        """Check the packed ``values`` for ``n`` objects and keep them, read-only."""
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
        _check_index(i)
        _check_index(j)
        if i == j and 0 <= i < self.n:
            return 0.0
        return float(self._values[pair_index(self.n, i, j)])

    def square(self) -> np.ndarray:
        """Full symmetric n-by-n view (read-only, built once and cached)."""
        if self._square is None:
            sq = _unpack(self.n, self._values)
            sq.setflags(write=False)
            self._square = sq
        return self._square

    def __repr__(self) -> str:
        return f"DissimilarityMatrix(n={self.n})"


def validate_matrix(raw: np.ndarray | Sequence[Sequence[float]]) -> DissimilarityMatrix:
    """Ingest a raw square table, enforcing the matrix invariants.

    Symmetry is accepted up to ``1e-9 * max(1, |raw[i, j]|)`` per entry and
    the two mirror entries are averaged before storage; diagonal entries may
    deviate from zero by at most ``1e-12`` in absolute value. The table is
    read in blocks of rows, so beside it only the packed means, which the
    matrix keeps, and one block's temporaries are held.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 2:
        raise MatrixTooSmallError("a dissimilarity matrix needs at least 2 objects")
    # min and max carry a nan and reach any inf, and need no table-sized mask
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise NonFiniteEntryError("matrix entries must be finite")
    diag = np.diagonal(arr)
    if (np.abs(diag) > DIAGONAL_ATOL).any():
        raise NonZeroDiagonalError("diagonal entries must be zero")
    means = np.empty(condensed_size(n))
    for lo, hi in _row_blocks(n, n):
        mask = _upper_block(n, lo, hi)
        upper = arr[lo:hi, lo:][mask]
        lower = arr[lo:, lo:hi].T[mask]
        mean = means[_row_start(n, lo):_row_start(n, hi)]
        with np.errstate(over="ignore"):  # an overflowing difference is inf, beyond any tolerance
            gap = np.subtract(upper, lower)
            np.abs(gap, out=gap)
            tol = np.abs(upper)
            np.maximum(tol, 1.0, out=tol)
            tol *= SYMMETRY_RTOL
            if (gap > tol).any():
                raise AsymmetricMatrixError("matrix is asymmetric beyond tolerance")
            np.add(upper, lower, out=mean)
            mean /= 2.0
        # a pair whose sum overflows is averaged from halves, which cannot
        big = np.isinf(mean)
        mean[big] = upper[big] / 2.0 + lower[big] / 2.0
    return DissimilarityMatrix._owning(n, means)


def euclidean_from_data(data: np.ndarray | Sequence[Sequence[float]]) -> DissimilarityMatrix:
    """Pairwise Euclidean distances from an objects-by-variables table.

    A pair whose plain sum of squared differences overflows, or underflows
    below the normal float range while the rows differ, is measured in units
    of its own largest absolute difference; every other distance is the
    plain one, bit for bit. Only distances that themselves exceed the float
    range are rejected. The pairs are formed in blocks of rows, so beside
    the table only the distances, which the matrix keeps, and one block's
    differences are held.
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
    n, width = arr.shape
    dists = np.empty(condensed_size(n))
    for lo, hi in _row_blocks(n, n * width):
        ii, jj = np.nonzero(_upper_block(n, lo, hi))
        ii += lo
        jj += lo
        with np.errstate(over="ignore"):
            diff = arr[ii] - arr[jj]
            total = (diff * diff).sum(axis=1)
        dist = np.sqrt(total, out=dists[_row_start(n, lo):_row_start(n, hi)])
        # only a sum out of the normal range can need a redo, and only if its rows differ
        redo = np.flatnonzero(~(np.isfinite(total) & (total >= np.finfo(float).tiny)))
        redo = redo[(diff[redo] != 0.0).any(axis=1)]
        if redo.size:
            a, b = arr[ii[redo]], arr[jj[redo]]
            diff = diff[redo]
            # a difference that overflows is taken between halves, which cannot
            halved = ~np.isfinite(diff).all(axis=1)
            diff[halved] = a[halved] * 0.5 - b[halved] * 0.5
            scale = np.abs(diff).max(axis=1)
            unit = diff / scale[:, None]
            with np.errstate(over="ignore"):
                dist[redo] = np.where(halved, 2.0, 1.0) * scale * np.sqrt((unit * unit).sum(axis=1))
    return DissimilarityMatrix._owning(n, dists)


# A table whose max M lies outside this window is scaled by 2^-frexp(M), exact
# while entries stay normal. M <= 2^160 keeps ward1's squared table below 2^320
# (about 2e96). PCoA's Gram entries lie within M^2 of zero, so its Lanczos
# products of unit vectors, their tridiagonal entries and the Rayleigh quotient
# are at most k M^2, and the products' squared norms at most k^2 M^4 <= k^2 2^640.
# The dominant eigenvalue is at least M^2/k^2 (the trace, at least M^2/k, over
# fewer than k eigenvalues), so the residual test's bound, 1e-10 times it, is
# at least 2^-354/k^2, and squared norms near it stay normal for k below 2^78.
_WINDOW = (2.0**-160, 2.0**160)


def _into_window(table: np.ndarray) -> tuple[np.ndarray, int]:
    """``table`` times 2^-shift, with its max in ``_WINDOW`` unless zero, and shift."""
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
    within = square.take(aa, 0).take(aa, 1)[_upper_block(len(aa), 0, len(aa))]
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
    """A numeric CSV as a 2-D float array; a file without data rows is an input error."""
    with warnings.catch_warnings():
        # numpy warns of an input without data and returns an empty array
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = _integer_table(path, skiprows)
        if table is None:
            try:
                table = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2, skiprows=skiprows)
            except ValueError as exc:  # text that is not a numeric table
                raise DivclustError(str(exc)) from None
    if table.size == 0:
        raise MatrixTooSmallError("input has no data rows")
    return table


def _integer_table(path, skiprows: int) -> np.ndarray | None:
    """The CSV at ``path`` as floats if every field is an integer below 2^63 and no ``-`` appears; else None.

    numpy parses integers faster than floats. Each integer below 2^63 in
    magnitude casts to its nearest double, ties to even, as the float parser
    rounds the same digits, so the table is bitwise the float parse. A file
    with a ``-`` is left to that parse, which keeps the sign of ``-0``. The
    cast is made in place, a block of rows at a time, so one table is held.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):
        return None  # a stream the first parse would use up
    try:
        ints = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2, skiprows=skiprows)
    except ValueError:  # a field that is not an integer, or one of 2^63 or more
        return None
    if ints.size == 0:
        return None
    with open(path, "rb") as fh:
        if b"-" in fh.read():
            return None
    table = ints.view(np.float64)
    rows, width = ints.shape
    for lo, hi in _row_blocks(rows, width):
        table[lo:hi] = ints[lo:hi].astype(np.float64)
    return table
