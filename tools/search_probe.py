"""Time two-seeds searches and the serial paper grid with two versions of the package.

Each round starts one fresh process per source tree, alternating which tree
goes first, so drift in the machine's speed falls on both sides alike. Each
process times, in-process:

* ``search_us`` - one ``splitters._two_seeds_mask`` call per criterion at
  k = 3/5/10/20/40: the mean of ``--calls`` calls on the leading k-by-k
  block of a seeded 40 x 10 grid table, after one warm-up call;
* ``grid`` - the serial grid of ``--datasets`` tables of ``--seed`` (the
  ``paper-grid`` workload's serial pass), by wall time and by process time,
  after one warm-up pass.

The report takes each figure's minimum over the rounds, per side; the grid
also gets its median. It is printed as JSON.

Run from the repository root, with the two ``src`` directories to compare:

    python tools/search_probe.py OLD_SRC NEW_SRC [--rounds 9] [--calls 300]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIZES = (3, 5, 10, 20, 40)


def child(calls: int, seed: int, datasets: int) -> dict:
    """This process's timings, from the package on its ``PYTHONPATH``."""
    from divclust import Criterion, euclidean_from_data, generate_dataset
    from divclust.benchmark import ExperimentConfig, run_experiment
    from divclust.splitters import _two_seeds_mask

    square = euclidean_from_data(generate_dataset(seed, 0, 40, 10)).square()
    search = {}
    for k in SIZES:
        sub = square[:k, :k].copy()
        for criterion in Criterion:
            _two_seeds_mask(sub, criterion)
            start = time.perf_counter()
            for _ in range(calls):
                _two_seeds_mask(sub, criterion)
            search[f"{k} {criterion.value}"] = (time.perf_counter() - start) / calls * 1e6
    config = ExperimentConfig(dataset_count=datasets, master_seed=seed, thread_count=1)
    run_experiment(config)
    wall, cpu = time.perf_counter(), time.process_time()
    run_experiment(config)
    return {"search": search, "wall_s": time.perf_counter() - wall,
            "process_s": time.process_time() - cpu}


def run_side(src: str, args) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    command = [sys.executable, os.path.abspath(__file__), src, src, "--child",
               "--calls", str(args.calls), "--seed", str(args.seed),
               "--datasets", str(args.datasets)]
    done = subprocess.run(command, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--calls", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--datasets", type=int, default=16)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(args.calls, args.seed, args.datasets)))
        return
    sides = {"old": args.old_src, "new": args.new_src}
    runs: dict[str, list[dict]] = {"old": [], "new": []}
    for i in range(args.rounds):
        for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
            runs[side].append(run_side(sides[side], args))
    search: dict[str, dict] = {}
    for key in runs["old"][0]["search"]:
        k, criterion = key.split()
        search.setdefault(k, {})[criterion] = {
            side: round(min(r["search"][key] for r in runs[side]), 2) for side in sides}
    mean_over_criteria = {
        k: {side: round(statistics.mean(c[side] for c in row.values()), 2) for side in sides}
        for k, row in search.items()}
    grid = {
        clock: {side: {"min": round(min(r[clock] for r in runs[side]), 4),
                       "median": round(statistics.median(r[clock] for r in runs[side]), 4)}
                for side in sides}
        for clock in ("wall_s", "process_s")}
    print(json.dumps({
        "command": " ".join(["python", "tools/search_probe.py", *sys.argv[1:]]),
        "sources": sides, "rounds": args.rounds, "calls": args.calls, "seed": args.seed,
        "datasets": args.datasets, "search_us_mean_over_criteria": mean_over_criteria,
        "search_us": search, "grid": grid}, indent=1))


if __name__ == "__main__":
    main()
