import math

import numpy as np
import pytest

import divclust as dc
from divclust import benchmark
from divclust.benchmark import _dataset_row, _mix64

SMALL = dict(dataset_count=6, objects=12, variables=3, master_seed=7)


def test_generate_dataset_shape_and_range():
    data = dc.generate_dataset(0, 0, 40, 10)
    assert data.shape == (40, 10)
    assert float(data.min()) >= 0.0
    assert float(data.max()) < 1.0


def test_generate_dataset_is_deterministic():
    a = dc.generate_dataset(3, 5, 9, 4)
    b = dc.generate_dataset(3, 5, 9, 4)
    assert np.array_equal(a, b)


def test_generate_dataset_golden_first_value():
    data = dc.generate_dataset(0, 0, 2, 2)
    assert data[0, 0] == pytest.approx(0.6369616873214543, abs=1e-15)


def test_generate_dataset_varies_with_index_and_seed():
    base = dc.generate_dataset(0, 0, 6, 3)
    assert not np.array_equal(base, dc.generate_dataset(0, 1, 6, 3))
    assert not np.array_equal(base, dc.generate_dataset(1, 0, 6, 3))


def test_generate_dataset_rejects_negative_index():
    with pytest.raises(dc.InvalidConfigError):
        dc.generate_dataset(0, -1, 4, 2)


def test_stream_seeds_do_not_collide():
    seen = {_mix64(a, b) for a in range(40) for b in range(50)}
    assert len(seen) == 2000
    assert _mix64(12, 34) == _mix64(12, 34)


def test_config_defaults_match_the_reference_setup():
    config = dc.ExperimentConfig()
    assert (config.dataset_count, config.objects, config.variables) == (100, 40, 10)
    assert config.master_seed == 0
    assert config.algorithms == dc.DEFAULT_ALGORITHMS
    assert len(config.algorithms) == 11
    config.validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dataset_count=0),
        dict(objects=2),
        dict(variables=0),
        dict(algorithms=()),
        dict(algorithms=("pddp", "pddp")),
        dict(algorithms=("two-seeds:average", "bogus")),
        dict(thread_count=0),
        dict(thread_count=-2),
        dict(thread_count="many"),
        dict(thread_count=True),
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(dc.InvalidConfigError):
        dc.ExperimentConfig(**kwargs).validate()


def test_thread_resolution():
    assert dc.ExperimentConfig(thread_count=3).resolved_threads() == 3
    assert dc.ExperimentConfig(thread_count="auto").resolved_threads() >= 1


@pytest.fixture
def pools(monkeypatch):
    """Replace ProcessPoolExecutor with a recorder that runs jobs inline; yields the pools made."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.chunksizes = []
            made.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            self.chunksizes.append(chunksize)
            return map(fn, jobs)

    monkeypatch.setattr(benchmark, "ProcessPoolExecutor", RecordingPool)
    return made


@pytest.mark.parametrize(
    "threads, datasets, expected",
    [(64, 5, 3), ("auto", 5, 3), (2, 5, 2), (64, 2, 2)],
)
def test_run_experiment_clamps_workers_and_hands_out_one_dataset_per_task(
    monkeypatch, pools, threads, datasets, expected
):
    monkeypatch.setattr(benchmark, "_usable_cores", lambda: 3)
    config = dc.ExperimentConfig(
        dataset_count=datasets, objects=6, variables=2, algorithms=("pddp",), thread_count=threads
    )
    assert len(dc.run_experiment(config).cells) == datasets
    (pool,) = pools
    assert pool.max_workers == expected
    assert pool.chunksizes == [1]


def test_run_experiment_runs_inline_on_one_usable_core(monkeypatch, pools):
    monkeypatch.setattr(benchmark, "_usable_cores", lambda: 1)
    config = dc.ExperimentConfig(
        dataset_count=3, objects=6, variables=2, algorithms=("pddp",), thread_count=8
    )
    assert len(dc.run_experiment(config).cells) == 3
    assert pools == []


def test_dataset_row_records_failed_cells_as_missing():
    row = _dataset_row((0, 0, 8, 2, ("two-seeds:average", "bogus")))
    assert len(row) == 2
    assert -1.0 <= row[0] <= 1.0
    assert row[1] is None


def test_run_experiment_grid_shape_and_range():
    table = dc.run_experiment(dc.ExperimentConfig(**SMALL, thread_count=1))
    assert table.algorithms == dc.DEFAULT_ALGORITHMS
    assert len(table.cells) == SMALL["dataset_count"]
    for row in table.cells:
        assert len(row) == 11
        for cell in row:
            assert cell is not None and -1.0 <= cell <= 1.0


def test_run_experiment_is_reproducible_across_thread_counts():
    one = dc.run_experiment(dc.ExperimentConfig(**SMALL, thread_count=1))
    again = dc.run_experiment(dc.ExperimentConfig(**SMALL, thread_count=1))
    two = dc.run_experiment(dc.ExperimentConfig(**SMALL, thread_count=2))
    assert one == again
    assert one == two  # bitwise: scheduling never touches cell values
    assert dc.summary_csv(dc.summarize(one)) == dc.summary_csv(dc.summarize(two))


def test_run_experiment_accepts_auto_threads():
    config = dc.ExperimentConfig(dataset_count=2, objects=8, variables=2, thread_count="auto")
    table = dc.run_experiment(config)
    assert len(table.cells) == 2


def test_summarize_math_and_ordering():
    table = dc.ResultTable(
        algorithms=("slow", "fast", "flaky"),
        cells=((0.5, 1.0, 0.9), (0.7, 1.0, None), (0.9, 1.0, 0.9)),
    )
    summary = dc.summarize(table)
    assert [s.algorithm for s in summary] == ["fast", "flaky", "slow"]
    fast, flaky, slow = summary
    assert (fast.mean_gk, fast.std_gk, fast.valid_count) == (1.0, 0.0, 3)
    assert flaky.mean_gk == pytest.approx(0.9)
    assert flaky.valid_count == 2
    assert slow.mean_gk == pytest.approx(0.7)
    assert slow.std_gk == pytest.approx(math.sqrt(0.08 / 3.0), rel=1e-12)


def test_summarize_breaks_mean_ties_by_name():
    table = dc.ResultTable(algorithms=("zeta", "alpha"), cells=((0.4, 0.4),))
    assert [s.algorithm for s in dc.summarize(table)] == ["alpha", "zeta"]


def test_summarize_rejects_all_missing_column():
    table = dc.ResultTable(algorithms=("a", "b"), cells=((0.4, None), (0.2, None)))
    with pytest.raises(dc.AllCellsMissingError):
        dc.summarize(table)


def test_summary_csv_format():
    summary = (
        dc.AlgorithmSummary("pddp", 0.41812345, 0.0567891, 100),
        dc.AlgorithmSummary("two-seeds:single", 0.3679, 0.1, 99),
    )
    text = dc.summary_csv(summary)
    assert text == (
        "algorithm,mean_gk,std_gk,valid_count\n"
        "pddp,0.4181,0.0568,100\n"
        "two-seeds:single,0.3679,0.1000,99\n"
    )
    assert "\r" not in text


def test_cells_csv_format():
    table = dc.ResultTable(algorithms=("a", "b"), cells=((0.123456789, None),))
    assert dc.cells_csv(table) == "dataset,algorithm,gk\n0,a,0.123457\n0,b,NA\n"
