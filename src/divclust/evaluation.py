"""Rank-based agreement between observed and cophenetic dissimilarities.

All three metrics compare the two packed value vectors of equally sized
matrices. Concordance counts walk every unordered pair of distinct object
pairs (quadruples); ties on either vector are excluded exactly, using
bitwise float equality, never a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DissimilarityMatrix
from .errors import DegenerateGKError, DivclustError, SizeMismatchError, ZeroVarianceError

_BLOCK = 256  # row block for the quadruple scan, keeps memory linear in N


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
    dv = d.condensed
    uv = u.condensed
    n_pairs = dv.shape[0]
    s_plus = 0
    s_minus = 0
    for start in range(0, n_pairs, _BLOCK):
        stop = min(start + _BLOCK, n_pairs)
        # pairs start.. against start..: the strict upper triangle holds
        # each later pair once
        sd = np.sign(dv[start:stop, None] - dv[None, start:])
        su = np.sign(uv[start:stop, None] - uv[None, start:])
        prod = np.triu(sd * su, 1)
        s_plus += int(np.count_nonzero(prod > 0))
        s_minus += int(np.count_nonzero(prod < 0))
    return ConcordanceCounts(s_plus, s_minus, n_pairs)


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
    """Pearson correlation between the two packed value vectors."""
    if d.n != u.n:
        raise SizeMismatchError(f"matrix sizes differ: {d.n} vs {u.n}")
    x = d.condensed - d.condensed.mean()
    y = u.condensed - u.condensed.mean()
    sx = float(x @ x)
    sy = float(y @ y)
    if sx == 0.0 or sy == 0.0:
        raise ZeroVarianceError("correlation undefined for a constant vector")
    return float(x @ y) / float(np.sqrt(sx * sy))
