"""divclust benchmark: one workload per run, one JSON result line at the end.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

``--trace 0`` times whole rounds of the workload and prints the end-to-end
metrics, scaled to the reference machine speed (see ``calibration.py``). ``--trace 1`` runs one untimed round, then the same commands as
direct calls into the package with a span around each call, and prints the
per-layer metrics; the spans go to ``perfbench/.work/<workload>/spans.json``.
The package is imported from ``src/`` next to this directory, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker

import calibration
import checkers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("paper-grid", "cluster-eval", "deep-tree")
SETUP_REPEATS = 7

ALGORITHM_SLUGS = tuple(f"two-seeds-{c}" for c in checkers.CRITERIA) + (
    "pddp", "macnaughton-smith", "average-agglomerative")

END_TO_END = {"setup_s": "s", "serial_s": "s", "workers_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "core.read_distance_csv_s": "s",
    "core.read_data_csv_s": "s",
    "core.euclidean_from_data_s": "s",
    **{f"criteria.{c}_split_s": "s" for c in checkers.CRITERIA},
    "splitters.two_seeds_s": "s",
    "splitters.two_seeds_calls": "count",
    "splitters.two_seeds_candidates": "count",
    "splitters.pddp_s": "s",
    "splitters.pcoa_first_axis_s": "s",
    "splitters.pddp_fallbacks": "count",
    "splitters.macnaughton_smith_s": "s",
    **{f"hierarchy.build.{a}_s": "s" for a in ALGORITHM_SLUGS},
    "hierarchy.self_s": "s",
    "hierarchy.validate_s": "s",
    "hierarchy.tree_to_json_s": "s",
    "hierarchy.tree_from_json_s": "s",
    "hierarchy.to_newick_s": "s",
    "hierarchy.cophenetic_s": "s",
    "evaluation.concordance_s": "s",
    "evaluation.quadruples": "count",
    "evaluation.cpcc_s": "s",
    "svg.dendrogram_svg_s": "s",
    "benchmark.generate_dataset_s": "s",
    "benchmark.parallel_efficiency": "ratio",
    "grid_serial_datasets_per_s": "datasets/s",
    "grid_workers_datasets_per_s": "datasets/s",
    "cluster_s": "s",
    "eval_s": "s",
    "plot_s": "s",
    "tracing_overhead": "ratio",
}
COUNTS = ("splitters.two_seeds_calls", "splitters.two_seeds_candidates",
          "splitters.pddp_fallbacks", "evaluation.quadruples")
BUILD_SPANS = tuple(f"hierarchy.build.{a}" for a in ALGORITHM_SLUGS)
SPLIT_SPANS = tuple(f"criteria.{c}_split" for c in checkers.CRITERIA)
COMMAND_SPANS = ("command.bench", "command.cluster", "command.eval", "command.plot")

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import divclust.cli; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def setup_seconds(workload) -> float:
    """Median over repeats of a fresh interpreter's package import plus input writing."""
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], cwd=ROOT,
                               capture_output=True, text=True, check=True, timeout=120)
        t0 = time.perf_counter()
        workload.prepare()
        samples.append(float(probe.stdout) + time.perf_counter() - t0)
    return statistics.median(samples)


def guarded(ledger, step, *args) -> None:
    """Run a check step; if the outputs it needs are missing, record why."""
    try:
        step(*args)
    except Exception as exc:  # a broken program must still yield a result line
        ledger.problems.append(f"{step.__qualname__} could not finish: {exc!r}")


def traced_metrics(tracer, times: dict, command_metrics: dict) -> dict:
    split_s = tracer.total(*SPLIT_SPANS)
    replayed = split_s + tracer.total("splitters.pddp", "splitters.macnaughton_smith")
    traced_s = tracer.total(*COMMAND_SPANS)
    values = {}
    for name in PER_LAYER:
        if name in COUNTS:
            values[name] = tracer.counts.get(name, 0)
        elif name.endswith("_s") and "." in name:
            values[name] = tracer.total(name[:-2])
        else:
            values[name] = 0.0
    values["splitters.two_seeds_s"] = split_s
    values["hierarchy.self_s"] = tracer.total(*BUILD_SPANS) - replayed
    values.update(command_metrics)
    values["tracing_overhead"] = traced_s / times["serial_s"] - 1.0
    return values


def stop_children() -> None:
    """End every worker and the resource tracker, and wait for each to exit.

    Spawned workers make multiprocessing start a resource tracker process
    that would otherwise outlive this one by a moment. Collecting garbage
    first runs the finalizers of the pools' semaphores, which would start
    a new tracker if they ran after it stopped.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    gc.collect()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    finally:
        stop_children()


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "divclust", "__init__.py")):
        sys.stderr.write(f"perfbench: no divclust sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import divclust

    if os.path.dirname(os.path.abspath(divclust.__file__)) != os.path.join(SRC, "divclust"):
        sys.stderr.write(f"perfbench: imported divclust from {divclust.__file__}, not {SRC}\n")
        return 2
    import tracing
    import workloads

    work = os.path.join(HERE, ".work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    print(json.dumps({"environment": environment()}), flush=True)

    workload = workloads.WORKLOADS[args.workload](work, args.seed)
    setup_s = setup_seconds(workload)
    ledger = workloads.Ledger()
    if args.trace:
        times = workload.round(ledger)
        tracer = tracing.Tracer()
        guarded(ledger, workload.traced, tracer, ledger)
        guarded(ledger, workload.check, ledger)
        metrics = traced_metrics(tracer, times, workload.command_metrics(times))
        tracer.dump(os.path.join(work, "spans.json"))
        units = PER_LAYER
        print(json.dumps({"untraced_round_s": times, "traced_serial_s":
                          tracer.total(*COMMAND_SPANS)}), flush=True)
    else:
        cal = calibration.Calibration()
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            cal.sample()
            rounds.append(workload.round(ledger, cal))
        # Taken before the checks, whose reference computations are not divclust's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        guarded(ledger, workload.check, ledger)
        wall = {
            "setup_s": setup_s,
            "serial_s": statistics.median(r["serial_s"] for r in rounds),
            "workers_s": statistics.median(r["workers_s"] for r in rounds),
        }
        factor = cal.factor()
        metrics = {name: value * factor for name, value in wall.items()}
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END
        print(json.dumps({"rounds": rounds, "wall": wall, "speed_factor": factor,
                          "calibration_s": cal.samples}), flush=True)
    for problem in ledger.problems:
        sys.stderr.write(f"perfbench: {problem}\n")
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
