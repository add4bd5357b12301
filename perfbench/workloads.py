"""The benchmark's workloads: inputs, timed rounds, traced pass and checks.

Every workload runs whole rounds. A round is a serial pass, in which the
benchmark process runs the workload's commands one after another, and a
workers pass, which spreads the same work over one process per usable
core. Command-line workloads call ``divclust.cli.main`` in-process, so
they pay argument parsing, CSV reading and file writing as a user does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

import calibration
import checkers
from divclust import (
    DEFAULT_ALGORITHMS,
    Dendrogram,
    DivclustError,
    ExperimentConfig,
    NoPositiveEigenvalueError,
    build_hierarchy,
    concordance,
    cophenetic,
    cpcc,
    dendrogram_svg,
    euclidean_from_data,
    generate_dataset,
    goodman_kruskal,
    kendall_tau,
    parse_splitter,
    pcoa_first_axis,
    read_data_csv,
    read_distance_csv,
    run_experiment,
    split_cluster,
    to_newick,
    tree_from_json,
    tree_to_json,
)
from divclust.cli import main as cli_main

CORES = len(os.sched_getaffinity(0))
KINDS = ("cluster", "eval", "plot")

# Known faults: (exit code, stderr text). An operation that fails this way
# is counted as failed; any other failure makes the run incorrect.
RECURSION_FAULT = (1, "maximum recursion depth exceeded")
OVERFLOW_FAULT = (2, "dissimilarities must be finite")


def slug(token: str) -> str:
    return token.replace(":", "-")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One ``divclust`` command in this process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_chain(chain: list[list[str]]) -> list[tuple[int, str, str]]:
    """Worker job: several commands in order, as one user would type them."""
    return [run_cli(argv) for argv in chain]


def read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cells_key(cells) -> tuple:
    """Grid cells with floats as hex, so equality means bitwise equality."""
    return tuple(tuple(None if v is None else float(v).hex() for v in row) for row in cells)


def json_nodes(text: str) -> list:
    """Plain ``(members, level, children)`` records from tree JSON text."""
    records = sorted(json.loads(text)["nodes"], key=lambda rec: rec["id"])
    return [(rec["members"], rec["level"], tuple(rec["children"]) if "children" in rec else None)
            for rec in records]


def package_nodes(tree) -> list:
    return [(list(node.members), node.level, node.children) for node in tree.nodes]


class Ledger:
    """Operations attempted and failed, and every problem the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, label: str, rc: int, err: str, fault=None, problem: str | None = None) -> None:
        """Record one operation; ``fault`` is the known fault it may show."""
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            if fault is None or rc != fault[0] or fault[1] not in err:
                self.problems.append(f"{label}: exit {rc}: {err.strip()[-300:]}")
        elif problem:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


# ---------------------------------------------------------------- traced helpers


def replay_splits(tracer, ledger, m, tree, token: str) -> None:
    """Re-split every internal node of a divisive tree and check its children.

    Where the principal axis has no positive eigenvalue the tree builder
    falls back to the two-seeds average split, and so does the replay.
    """
    splitter = parse_splitter(token)
    fallback = parse_splitter("two-seeds:average")
    for node in tree.nodes:
        if node.children is None:
            continue
        use = splitter
        if splitter.kind == "pddp":
            try:
                with tracer.span("splitters.pcoa_first_axis"):
                    pcoa_first_axis(m, node.members)
            except NoPositiveEigenvalueError:
                tracer.count("splitters.pddp_fallbacks")
                use = fallback
        if use.kind == "two-seeds":
            k = len(node.members)
            tracer.count("splitters.two_seeds_calls")
            tracer.count("splitters.two_seeds_candidates", k * (k - 1) // 2)
            name = f"criteria.{use.criterion.value}_split"
        else:
            name = "splitters." + use.kind.replace("-", "_")
        with tracer.span(name):
            bp = split_cluster(m, node.members, use)
        children = tuple(tree.nodes[c].members for c in node.children)
        ledger.expect((bp.left, bp.right) == children,
                      f"{token}: replayed split of node {node.id} differs from the tree")


def inspect_tree(tracer, ledger, m, tree, token: str) -> None:
    """Re-run the tree's structural checks and, if it was built top-down, replay its splits."""
    with tracer.span("hierarchy.validate"):
        Dendrogram(tree.n, tree.nodes)
    if token != "average-agglomerative":
        replay_splits(tracer, ledger, m, tree, token)


# ---------------------------------------------------------------- paper-grid


class PaperGrid:
    """The paper's experiment: every algorithm over seeded uniform 40 x 10 tables."""

    datasets = 16
    # The workers pass runs more tables: run_experiment hands them out four
    # at a time, and with only four such chunks for two workers the pass
    # time followed how the seed's costly tables fell into chunks.
    worker_datasets = 24
    objects = 40
    variables = 10

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.reference = None
        self.worker_reference = None

    def prepare(self) -> None:
        """The grid makes its tables from the master seed, so nothing is written."""

    def _config(self, threads: int, count: int) -> ExperimentConfig:
        return ExperimentConfig(dataset_count=count, objects=self.objects,
                                variables=self.variables, master_seed=self.seed,
                                thread_count=threads)

    def round(self, ledger, cal=calibration.NoCalibration) -> dict:
        with cal.interleaved():
            t0 = cal.clock()
            serial = run_experiment(self._config(1, self.datasets))
            t1 = cal.clock()
        t2 = time.perf_counter()
        workers = run_experiment(self._config(CORES, self.worker_datasets))
        t3 = time.perf_counter()
        if self.reference is None:
            self.reference = cells_key(serial.cells)
            self.worker_reference = cells_key(workers.cells)
        for label, table, want in (("bench serial", serial, self.reference),
                                   ("bench workers", workers, self.worker_reference)):
            key = cells_key(table.cells)
            problem = None
            if key != want or key[:self.datasets] != self.reference:
                problem = "cells differ bitwise from the first round's serial run"
            elif any(v is None or not -1.0 <= v <= 1.0 for row in table.cells for v in row):
                problem = "a cell is missing or outside [-1, 1]"
            ledger.op(label, 0, "", problem=problem)
        return {"serial_s": t1 - t0, "workers_s": t3 - t2}

    def command_metrics(self, times: dict) -> dict:
        """Grid rates and parallel efficiency, workers rate / (workers x serial rate)."""
        workers = min(CORES, self.worker_datasets)
        serial_rate = self.datasets / times["serial_s"]
        workers_rate = self.worker_datasets / times["workers_s"]
        return {
            "grid_serial_datasets_per_s": serial_rate,
            "grid_workers_datasets_per_s": workers_rate,
            "benchmark.parallel_efficiency": workers_rate / (workers * serial_rate),
        }

    def traced(self, tracer, ledger) -> None:
        """The serial grid's calls in ``run_experiment`` order.

        Each dataset's trees are validated and their splits replayed right
        after its span, so drift in machine speed between a build and its
        replay stays small; the replays lie outside the command spans.
        """
        cells = []
        for index in range(self.datasets):
            built = []
            row = []
            with tracer.span("command.bench"):
                with tracer.span("benchmark.generate_dataset"):
                    data = generate_dataset(self.seed, index, self.objects, self.variables)
                with tracer.span("core.euclidean_from_data"):
                    m = euclidean_from_data(data)
                for token in DEFAULT_ALGORITHMS:
                    try:
                        with tracer.span(f"hierarchy.build.{slug(token)}"):
                            tree = build_hierarchy(m, token)
                        with tracer.span("hierarchy.cophenetic"):
                            u = cophenetic(tree)
                        with tracer.span("evaluation.concordance"):
                            counts = concordance(m, u)
                        tracer.count("evaluation.quadruples", counts.n_pairs * (counts.n_pairs - 1) // 2)
                        row.append(goodman_kruskal(counts))
                        built.append((tree, token))
                    except DivclustError:
                        row.append(None)
            cells.append(row)
            for tree, token in built:
                inspect_tree(tracer, ledger, m, tree, token)
        ledger.expect(cells_key(cells) == self.reference, "traced grid cells differ from bench")

    def check(self, ledger) -> None:
        """Independent checks of every algorithm on one dataset the seed picks."""
        index = random.Random(self.seed).randrange(self.datasets)
        data = generate_dataset(self.seed, index, self.objects, self.variables)
        m = euclidean_from_data(data)
        mine = checkers.condensed(checkers.euclidean_rows(data.tolist()))
        ledger.expect(all(checkers.close(a, b, 1e-12) for a, b in zip(mine, m.condensed)),
                      "grid distances differ from a pure-Python Euclidean")
        rows = m.square().tolist()
        d = checkers.condensed(rows)
        everyone = list(range(self.objects))
        for j, token in enumerate(DEFAULT_ALGORITHMS):
            label = f"dataset {index} {token}"
            nodes = package_nodes(build_hierarchy(m, token))
            s_plus, s_minus = checkers.concordance_counts(d, checkers.cophenetic(nodes, self.objects))
            cell = float.fromhex(self.reference[index][j])
            ledger.expect(checkers.gamma(s_plus, s_minus) == cell,
                          f"{label}: gamma {cell} differs from the exact count")
            if token == "average-agglomerative":
                continue
            ledger.expect(checkers.node_diameters(nodes, rows) == [lv for _, lv, _ in nodes],
                          f"{label}: node levels differ from member diameters")
            if token.startswith("two-seeds:"):
                criterion = token.split(":", 1)[1]
                left, right = (nodes[c][0] for c in nodes[checkers.root_of(nodes)][2])
                best = checkers.best_two_seeds_score(rows, everyone, criterion)
                got = checkers.score_split(rows, left, right, criterion)
                ledger.expect(checkers.close(got, best),
                              f"{label}: root split scores {got}, the best is {best}")


# ---------------------------------------------------------------- command-line sessions


@dataclass
class Command:
    """One ``divclust`` command and what it reads and writes."""

    kind: str
    token: str
    argv: list[str]
    outputs: list[str] = field(default_factory=list)
    fault: tuple | None = None

    @property
    def key(self) -> str:
        return f"{self.kind} {self.token}"


class CliWorkload:
    """A user session of ``divclust`` commands over one generated input.

    The serial pass builds every tree, then scores every tree, then plots
    every tree. The workers pass gives each algorithm's commands to one
    worker, as a user running one shell per algorithm would.
    """

    algorithms: tuple[str, ...] = ()

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        # First serial outputs of each command: stdout, then each output file.
        self.reference: dict[str, list] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def commands(self, token: str, tag: str) -> list[Command]:
        raise NotImplementedError

    def extra(self) -> list[Command]:
        """Untimed commands run once per round after the serial pass."""
        return []

    def output_problem(self, command: Command, texts: list) -> str | None:
        """What is wrong with a successful command's output files, if anything."""
        return None

    def _record(self, ledger, command: Command, rc: int, out: str, err: str) -> None:
        texts = [read_text(p) for p in command.outputs]
        problem = self.output_problem(command, texts) if rc == 0 else None
        outputs = [out] + texts
        if problem is None and self.reference.setdefault(command.key, outputs) != outputs:
            problem = "output differs from the first serial run"
        ledger.op(command.key, rc, err, command.fault, problem)

    @staticmethod
    def _clear(commands) -> None:
        for command in commands:
            for p in command.outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(p)

    def round(self, ledger, cal=calibration.NoCalibration) -> dict:
        times = {f"{kind}_s": 0.0 for kind in KINDS}
        serial = [c for kind in KINDS for token in self.algorithms
                  for c in self.commands(token, "s") if c.kind == kind]
        self._clear(serial)
        with cal.interleaved():
            for command in serial:
                t0 = cal.clock()
                rc, out, err = run_cli(command.argv)
                times[f"{command.kind}_s"] += cal.clock() - t0
                self._record(ledger, command, rc, out, err)
        for command in self.extra():
            self._clear([command])
            self._record(ledger, command, *run_cli(command.argv))

        jobs = [self.commands(token, "w") for token in self.algorithms]
        for job in jobs:
            self._clear(job)
        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=min(CORES, len(jobs)),
                                 mp_context=get_context("spawn")) as pool:
            results = list(pool.map(run_chain, [[c.argv for c in job] for job in jobs]))
        times["workers_s"] = time.perf_counter() - t0
        for job, outcome in zip(jobs, results):
            for command, (rc, out, err) in zip(job, outcome):
                self._record(ledger, command, rc, out, err)
        times["serial_s"] = sum(times[f"{kind}_s"] for kind in KINDS)
        return times

    def command_metrics(self, times: dict) -> dict:
        return {f"{kind}_s": times[f"{kind}_s"] for kind in KINDS}

    # Traced pass: the same commands as direct calls into the package.

    def load(self, tracer):
        """The observed dissimilarities, read as the commands read them."""
        raise NotImplementedError

    def traced(self, tracer, ledger) -> None:
        """The serial pass's commands as direct calls, each inside a command span.

        A tree is validated and its splits replayed right after the command
        that built it, outside that command's span.
        """
        for kind in KINDS:
            for token in self.algorithms:
                for command in self.commands(token, "t"):
                    if command.kind != kind:
                        continue
                    self._clear([command])
                    built = []
                    with tracer.span("command." + kind):
                        out = getattr(self, "_traced_" + kind)(tracer, command, built)
                    got = [out] + [read_text(p) for p in command.outputs]
                    ledger.expect(got == self.reference[command.key],
                                  f"traced {command.key} gave other output than the command")
                    for m, tree in built:
                        inspect_tree(tracer, ledger, m, tree, token)

    def _traced_cluster(self, tracer, command: Command, built: list) -> str:
        m = self.load(tracer)
        with tracer.span(f"hierarchy.build.{slug(command.token)}"):
            tree = build_hierarchy(m, command.token)
        built.append((m, tree))
        with tracer.span("hierarchy.tree_to_json"):
            text = tree_to_json(tree) + "\n"
        write_text(command.outputs[0], text)
        if len(command.outputs) > 1:
            try:
                with tracer.span("hierarchy.to_newick"):
                    newick = to_newick(tree) + "\n"
                write_text(command.outputs[1], newick)
            except RecursionError:
                tracer.count("faults.to_newick_recursion")
        return ""

    def _traced_tree(self, tracer, command: Command):
        text = read_text(command.argv[command.argv.index("--tree") + 1])
        with tracer.span("hierarchy.tree_from_json"):
            return tree_from_json(text)

    def _traced_eval(self, tracer, command: Command, built: list) -> str:
        tree = self._traced_tree(tracer, command)
        m = self.load(tracer)
        with tracer.span("hierarchy.cophenetic"):
            u = cophenetic(tree)
        lines = []
        counts = None
        for token in command.argv[command.argv.index("--metrics") + 1].split(","):
            if token == "cpcc":
                with tracer.span("evaluation.cpcc"):
                    value = cpcc(m, u)
            else:
                if counts is None:
                    with tracer.span("evaluation.concordance"):
                        counts = concordance(m, u)
                    tracer.count("evaluation.quadruples", counts.n_pairs * (counts.n_pairs - 1) // 2)
                value = goodman_kruskal(counts) if token == "gk" else kendall_tau(counts)
            lines.append(f"{token},{value:.6f}\n")
        return "".join(lines)

    def _traced_plot(self, tracer, command: Command, built: list) -> str:
        tree = self._traced_tree(tracer, command)
        try:
            with tracer.span("svg.dendrogram_svg"):
                svg = dendrogram_svg(tree)
            write_text(command.outputs[0], svg)
        except RecursionError:
            tracer.count("faults.dendrogram_svg_recursion")
        return ""


class ClusterEval(CliWorkload):
    """One session at n = 150: cluster four ways, then score every tree."""

    algorithms = ("average-agglomerative", "pddp", "macnaughton-smith", "two-seeds:average")
    objects = 150
    variables = 10
    groups = 5
    scale = 1e160

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        centres = rng.uniform(-6.0, 6.0, (self.groups, self.variables))
        spreads = rng.uniform(0.5, 1.5, self.groups)
        labels = rng.permutation(np.arange(self.objects) % self.groups)
        noise = rng.standard_normal((self.objects, self.variables))
        self.data = centres[labels] + spreads[labels, None] * noise
        np.savetxt(self.path("points.csv"), self.data, delimiter=",", fmt="%.17g")
        np.savetxt(self.path("points_scaled.csv"), self.data * self.scale, delimiter=",",
                   fmt="%.17g")

    def commands(self, token, tag):
        tree = self.path(f"{tag}_{slug(token)}.json")
        points = self.path("points.csv")
        return [
            Command("cluster", token, ["cluster", points, "--format", "data", "--algo", token,
                                       "--out", tree], [tree]),
            Command("eval", token, ["eval", "--tree", tree, "--input", points, "--format", "data",
                                    "--metrics", "gk,tau,cpcc"]),
        ]

    def extra(self):
        # The same points scaled by 1e160: finite data whose squared
        # differences overflow inside euclidean_from_data.
        tree = self.path("scaled.json")
        argv = ["cluster", self.path("points_scaled.csv"), "--format", "data",
                "--algo", "average-agglomerative", "--out", tree]
        return [Command("cluster", "scaled-average-agglomerative", argv, [tree], OVERFLOW_FAULT)]

    def output_problem(self, command, texts):
        if command.token != "scaled-average-agglomerative":
            return None
        plain = self.reference.get("cluster average-agglomerative")
        want = json_nodes(plain[1])
        got = json_nodes(texts[0])
        if [(ms, ch) for ms, _, ch in got] != [(ms, ch) for ms, _, ch in want]:
            return "scaled tree differs in structure from the unscaled tree"
        # Tree JSON keeps 9 significant digits, so each level carries a
        # rounding error of up to 5e-9 relative.
        if not all(checkers.close(g / self.scale, w, 1e-8) for (_, g, _), (_, w, _) in zip(got, want)):
            return "scaled tree levels are not the unscaled levels times 1e160"
        return None

    def load(self, tracer):
        with tracer.span("core.read_data_csv"):
            data = read_data_csv(self.path("points.csv"))
        with tracer.span("core.euclidean_from_data"):
            return euclidean_from_data(data)

    def check(self, ledger) -> None:
        m = euclidean_from_data(read_data_csv(self.path("points.csv")))
        mine = checkers.condensed(checkers.euclidean_rows(self.data.tolist()))
        ledger.expect(all(checkers.close(a, b, 1e-12) for a, b in zip(mine, m.condensed)),
                      "distances differ from a pure-Python Euclidean")
        rows = m.square().tolist()
        d = checkers.condensed(rows)
        p = len(d)
        for token in self.algorithms:
            nodes = json_nodes(self.reference[f"cluster {token}"][1])
            u = checkers.cophenetic(nodes, self.objects)
            ledger.expect(checkers.is_ultrametric(u, self.objects),
                          f"{token}: cophenetic values are not an ultrametric")
            s_plus, s_minus = checkers.concordance_counts(d, u)
            want = {"gk": checkers.gamma(s_plus, s_minus), "tau": checkers.tau(s_plus, s_minus, p),
                    "cpcc": float(np.corrcoef(d, u)[0, 1])}
            printed = dict(line.split(",") for line in self.reference[f"eval {token}"][0].split())
            ledger.expect(printed.keys() == want.keys() and all(
                abs(float(printed[k]) - want[k]) <= 1e-6 for k in want),
                f"{token}: eval printed {printed}, independent values {want}")
            if token != "average-agglomerative":
                diam = checkers.node_diameters(nodes, rows)
                ledger.expect(all(checkers.close(lv, dm, 1e-8) for (_, lv, _), dm in zip(nodes, diam)),
                              f"{token}: node levels differ from member diameters")


class DeepTree(CliWorkload):
    """A caterpillar deeper than the interpreter's recursion limit."""

    algorithms = ("average-agglomerative", "macnaughton-smith")
    # Fixed, not derived from sys.getrecursionlimit(): 100 above CPython's
    # default limit of 1000, so raising the limit cannot grow the work.
    objects = 1100

    def prepare(self) -> None:
        # Object o sits at caterpillar position rank[o]; d(a, b) = max of
        # the two positions, an ultrametric whose only tree is a chain.
        self.rank = np.random.default_rng(self.seed).permutation(self.objects)
        write_text(self.path("dist.csv"),
                   "\n".join(",".join(map(str, row)) for row in self.square()) + "\n")

    def square(self) -> list:
        """Distance rows as Python ints: max of the two positions, zero diagonal."""
        square = np.maximum(self.rank[:, None], self.rank[None, :])
        np.fill_diagonal(square, 0)
        return square.tolist()

    def commands(self, token, tag):
        tree = self.path(f"{tag}_{slug(token)}.json")
        newick = self.path(f"{tag}_{slug(token)}.nwk")
        svg = self.path(f"{tag}_{slug(token)}.svg")
        dist = self.path("dist.csv")
        return [
            Command("cluster", token, ["cluster", dist, "--algo", token, "--out", tree,
                                       "--newick", newick], [tree, newick], RECURSION_FAULT),
            Command("eval", token, ["eval", "--tree", tree, "--input", dist, "--metrics", "cpcc"]),
            Command("plot", token, ["plot", "--tree", tree, "--out", svg], [svg], RECURSION_FAULT),
        ]

    def output_problem(self, command, texts):
        n = self.objects
        if command.kind == "cluster":
            labels = sorted(int(x) for x in re.findall(r"o(\d+)", texts[1] or ""))
            if labels != list(range(1, n + 1)):
                return "Newick does not name o1..oN exactly once each"
        if command.kind == "plot":
            svg = texts[0] or ""
            if svg.count("<text ") != n or svg.count("<path ") != n - 1:
                return "SVG does not hold N labels and N-1 paths"
        return None

    def load(self, tracer):
        with tracer.span("core.read_distance_csv"):
            return read_distance_csv(self.path("dist.csv"))

    def check(self, ledger) -> None:
        n = self.objects
        rows = self.square()
        d = checkers.condensed(rows)
        for token in self.algorithms:
            nodes = json_nodes(self.reference[f"cluster {token}"][1])
            ledger.expect(checkers.depth(nodes) == n - 1 and checkers.is_caterpillar(nodes),
                          f"{token}: tree is not a caterpillar of depth n-1")
            ledger.expect(checkers.cophenetic(nodes, n) == d,
                          f"{token}: cophenetic values differ from the input")
            ledger.expect(checkers.node_diameters(nodes, rows) == [lv for _, lv, _ in nodes],
                          f"{token}: node levels differ from member diameters")
            ledger.expect(self.reference[f"eval {token}"][0] == "cpcc,1.000000\n",
                          f"{token}: eval printed {self.reference[f'eval {token}'][0]!r}")


WORKLOADS = {"paper-grid": PaperGrid, "cluster-eval": ClusterEval, "deep-tree": DeepTree}
