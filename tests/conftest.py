import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import divclust as dc
from divclust import DissimilarityMatrix, euclidean_from_data

DIVISIVE_SPLITTERS = [dc.parse_splitter(f"two-seeds:{c.value}") for c in dc.Criterion] + [
    dc.parse_splitter("pddp"),
    dc.parse_splitter("macnaughton-smith"),
]

# Packed 8-object table, an integer table times 0.1: average link's folded
# sums put the root's mean one ulp below its child's (0.19999999999999998
# against 0.2), which exact arithmetic never does.
FOLDED_SUM_TABLE = [
    0.1 * v for v in [1, 1, 2, 2, 1, 1, 3, 1, 0, 1, 3, 0, 2, 3, 3, 3, 3, 1, 3, 0, 0, 0, 3, 0, 3, 1, 3, 1]
]

# Integer table times 0.1 whose rows 1 and 3 both sum to 1.9: row 3's float
# total is the larger, but both means round to the same value, so the first
# largest mean seeds object 1.
MEAN_TIE_TABLE = 0.1 * np.array([
    [0, 3, 4, 3, 2, 3, 2],
    [3, 0, 2, 4, 4, 3, 3],
    [4, 2, 0, 4, 3, 2, 3],
    [3, 4, 4, 0, 1, 3, 4],
    [2, 4, 3, 1, 0, 2, 3],
    [3, 3, 2, 3, 2, 0, 2],
    [2, 3, 3, 4, 3, 2, 0],
])


SRC = str(Path(dc.__file__).resolve().parents[1])


def run_python(code: str, **env: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this package."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    variables = {**os.environ, **env, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], env=variables, capture_output=True, text=True, check=True
    )
    return done.stdout


@pytest.fixture
def line4() -> DissimilarityMatrix:
    """Four points on a line at 0, 1, 10, 11: two tight pairs far apart."""
    return euclidean_from_data(np.array([[0.0], [1.0], [10.0], [11.0]]))


def random_matrix(seed: int, n: int, low: float = 0.05, high: float = 1.0):
    """A random dissimilarity matrix plus its raw values for oracle use."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(low, high, n * (n - 1) // 2)
    return DissimilarityMatrix(n, values), [float(v) for v in values]


def random_points(seed: int, n: int, p: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 1.0, (n, p))


@st.composite
def tie_heavy_matrices(draw, min_k: int = 2, max_k: int = 9):
    """Small-integer distances, so that distinct partitions tie exactly; every
    third draw is a zero-block matrix, where the Dunn ratios hit their sentinel."""
    k = draw(st.integers(min_k, max_k))
    pairs = k * (k - 1) // 2
    if draw(st.integers(0, 2)) == 0:
        labels = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
        across = draw(st.lists(st.integers(1, 3), min_size=pairs, max_size=pairs))
        first, second = np.triu_indices(k, 1)
        values = [
            0 if labels[i] == labels[j] else v for i, j, v in zip(first, second, across)
        ]
    else:
        values = draw(st.lists(st.integers(0, 3), min_size=pairs, max_size=pairs))
    return k, [float(v) for v in values]
