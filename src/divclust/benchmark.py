"""Reproducible random-matrix benchmark over the full algorithm roster.

Each dataset is an objects-by-variables table of uniforms, generated from a
counter-based stream seed so every (master_seed, dataset index) pair yields
the same table no matter how work is scheduled. Per cell the hierarchy's
cophenetic values are scored against the input distances with the gamma
statistic; summaries report mean, population standard deviation, and the
count of valid cells per algorithm.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import euclidean_from_data
from .errors import AllCellsMissingError, DivclustError, InvalidConfigError
from .evaluation import concordance, goodman_kruskal
from .hierarchy import AVERAGE_AGGLOMERATIVE, build_hierarchy, cophenetic
from .splitters import parse_splitter

DEFAULT_ALGORITHMS: tuple[str, ...] = (
    "two-seeds:single",
    "two-seeds:average",
    "two-seeds:complete",
    "two-seeds:ward1",
    "two-seeds:ward2",
    "two-seeds:dunn",
    "two-seeds:dunn-variant",
    "two-seeds:silhouette",
    "pddp",
    "macnaughton-smith",
    AVERAGE_AGGLOMERATIVE,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(a: int, b: int) -> int:
    """Avalanche a XOR (b * golden ratio) into a well-spread 64-bit stream seed."""
    z = (a ^ (b * _GOLDEN)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def generate_dataset(master_seed: int, index: int, objects: int, variables: int) -> np.ndarray:
    """Deterministic uniform [0, 1) table for one dataset index."""
    if index < 0:
        raise InvalidConfigError("dataset index must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(_mix64(int(master_seed), int(index))))
    return rng.random((objects, variables))


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark shape: dataset count/size, seed, roster, and parallelism."""

    dataset_count: int = 100
    objects: int = 40
    variables: int = 10
    master_seed: int = 0
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    thread_count: int | str = "auto"

    def validate(self) -> None:
        if self.dataset_count < 1:
            raise InvalidConfigError("dataset_count must be at least 1")
        if self.objects < 3:
            raise InvalidConfigError("objects must be at least 3")
        if self.variables < 1:
            raise InvalidConfigError("variables must be at least 1")
        if not self.algorithms:
            raise InvalidConfigError("algorithm roster is empty")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise InvalidConfigError("algorithm roster has duplicates")
        for token in self.algorithms:
            if token == AVERAGE_AGGLOMERATIVE:
                continue
            try:
                parse_splitter(token)
            except DivclustError:
                raise InvalidConfigError(f"unknown algorithm: {token!r}") from None
        if self.thread_count != "auto" and (
            isinstance(self.thread_count, bool)
            or not isinstance(self.thread_count, int)
            or self.thread_count < 1
        ):
            raise InvalidConfigError("thread_count must be a positive integer or 'auto'")

    def resolved_threads(self) -> int:
        if self.thread_count == "auto":
            return _usable_cores()
        return int(self.thread_count)


def _usable_cores() -> int:
    """CPUs this process may run on (its affinity set where the OS reports one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ResultTable:
    """Per-cell gamma values, indexed [dataset][algorithm]; None marks a miss."""

    algorithms: tuple[str, ...]
    cells: tuple[tuple[float | None, ...], ...]


@dataclass(frozen=True)
class AlgorithmSummary:
    algorithm: str
    mean_gk: float
    std_gk: float
    valid_count: int


def _dataset_row(args: tuple[int, int, int, int, tuple[str, ...]]) -> tuple[float | None, ...]:
    master_seed, index, objects, variables, algorithms = args
    m = euclidean_from_data(generate_dataset(master_seed, index, objects, variables))
    row: list[float | None] = []
    for token in algorithms:
        try:
            u = cophenetic(build_hierarchy(m, token))
            row.append(goodman_kruskal(concordance(m, u)))
        except DivclustError:
            row.append(None)  # degenerate cell, recorded as missing
    return tuple(row)


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Run the whole grid; cell values depend only on (seed, index, algorithm).

    Work is distributed over datasets, one worker task per dataset, and
    results are reassembled in index order, so thread count never changes
    any output bit. No more workers start than there are datasets or usable
    CPUs.
    """
    config.validate()
    jobs = [
        (config.master_seed, i, config.objects, config.variables, config.algorithms)
        for i in range(config.dataset_count)
    ]
    workers = min(config.resolved_threads(), _usable_cores(), config.dataset_count)
    if workers <= 1:
        rows = [_dataset_row(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_dataset_row, jobs, chunksize=1))
    return ResultTable(config.algorithms, tuple(rows))


def summarize(table: ResultTable) -> tuple[AlgorithmSummary, ...]:
    """Mean/std/count per algorithm, best mean first, name breaking ties."""
    rows = []
    for j, token in enumerate(table.algorithms):
        values = np.array([row[j] for row in table.cells if row[j] is not None])
        if values.size == 0:
            raise AllCellsMissingError(f"no valid cells for algorithm {token!r}")
        rows.append(
            AlgorithmSummary(
                token, float(values.mean()), float(values.std()), int(values.size)
            )
        )
    rows.sort(key=lambda r: (-r.mean_gk, r.algorithm))
    return tuple(rows)


def summary_csv(summary: tuple[AlgorithmSummary, ...]) -> str:
    """Summary rows as CSV text, four decimals, LF line endings."""
    lines = ["algorithm,mean_gk,std_gk,valid_count"]
    for row in summary:
        lines.append(f"{row.algorithm},{row.mean_gk:.4f},{row.std_gk:.4f},{row.valid_count}")
    return "\n".join(lines) + "\n"


def cells_csv(table: ResultTable) -> str:
    """Per-cell rows as CSV text; missing cells carry the NA marker."""
    lines = ["dataset,algorithm,gk"]
    for i, row in enumerate(table.cells):
        for token, value in zip(table.algorithms, row):
            cell = "NA" if value is None else f"{value:.6f}"
            lines.append(f"{i},{token},{cell}")
    return "\n".join(lines) + "\n"
