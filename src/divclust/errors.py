"""Exception types shared across the toolkit.

Every rejection of an input derives from :class:`DivclustError`, which
itself derives from ``ValueError``. An object index out of range, which
only a library caller can pass, raises the builtin ``IndexError`` instead.
The command line exits 2 on a ``DivclustError`` or an ``OSError`` and 1 on
any other exception, which it reports as an internal error.
"""


class DivclustError(ValueError):
    """Base class for all toolkit errors."""


class NotSquareError(DivclustError):
    """Raw dissimilarity input is not a square 2-D table."""


class MatrixTooSmallError(DivclustError):
    """Fewer than two objects."""


class NonFiniteEntryError(DivclustError):
    """NaN or infinity in a numeric input table."""


class NonZeroDiagonalError(DivclustError):
    """Self-dissimilarity beyond the absolute tolerance."""


class AsymmetricMatrixError(DivclustError):
    """Matrix asymmetry beyond the relative tolerance."""


class NegativeEntryError(DivclustError):
    """Negative dissimilarity value."""


class OverlappingSetsError(DivclustError):
    """Two object sets that must be disjoint share an index."""


class EmptySideError(DivclustError):
    """A bipartition side is empty."""


class ObjectNotInBipartitionError(DivclustError):
    """Queried object belongs to neither side of the bipartition."""


class ClusterTooSmallError(DivclustError):
    """A splitter needs at least two members to work with."""


class NoPositiveEigenvalueError(DivclustError):
    """Principal-axis extraction found no usable positive eigenvalue."""


class SizeMismatchError(DivclustError):
    """Two matrices that must cover the same objects have different sizes."""


class DegenerateGKError(DivclustError):
    """Gamma undefined: every quadruple is tied."""


class ZeroVarianceError(DivclustError):
    """Correlation undefined: one of the value vectors is constant."""


class InvalidConfigError(DivclustError):
    """Benchmark configuration failed validation."""


class AllCellsMissingError(DivclustError):
    """An algorithm produced no valid benchmark cells to summarize."""
