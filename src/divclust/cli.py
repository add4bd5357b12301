"""Command line interface.

One entry point with four subcommands:

* ``cluster`` - build a hierarchy from a CSV input and write tree JSON;
* ``eval``    - score a stored tree against observed dissimilarities;
* ``bench``   - run the random-matrix benchmark and write summary CSV;
* ``plot``    - render a stored tree as SVG.

Exit codes: 0 on success, 2 for input or validation problems (one-line
diagnostic on stderr), 1 for unexpected internal failures.
"""

from __future__ import annotations

import argparse
import sys

from .benchmark import ExperimentConfig, cells_csv, run_experiment, summarize, summary_csv
from .core import euclidean_from_data, read_data_csv, read_distance_csv
from .errors import DivclustError
from .evaluation import concordance, cpcc, goodman_kruskal, kendall_tau
from .hierarchy import build_hierarchy, cophenetic, to_newick, tree_from_json, tree_to_json
from .svg import dendrogram_svg

_METRICS = ("gk", "tau", "cpcc")


def _threads_arg(text: str) -> int | str:
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer or 'auto'") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divclust",
        description="Divisive hierarchical clustering, evaluation, and benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser("cluster", help="build a hierarchy from a CSV input")
    cluster.add_argument("input", help="input CSV path")
    cluster.add_argument(
        "--format", choices=("dist", "data"), default="dist",
        help="input kind: square dissimilarity matrix or objects-by-variables table",
    )
    cluster.add_argument("--header", action="store_true", help="data CSV has one header row")
    cluster.add_argument(
        "--algo", required=True,
        help="two-seeds:<criterion>, macnaughton-smith, pddp, or average-agglomerative",
    )
    cluster.add_argument("--out", required=True, help="tree JSON output path")
    cluster.add_argument("--newick", help="optional Newick output path")

    evaluate = sub.add_parser("eval", help="score a stored tree against observed dissimilarities")
    evaluate.add_argument("--tree", required=True, help="tree JSON path")
    evaluate.add_argument("--input", required=True, help="observed input CSV path")
    evaluate.add_argument("--format", choices=("dist", "data"), default="dist")
    evaluate.add_argument("--header", action="store_true", help="data CSV has one header row")
    evaluate.add_argument(
        "--metrics", default="gk,tau,cpcc",
        help="comma-separated subset of gk,tau,cpcc; printed in request order",
    )

    bench = sub.add_parser("bench", help="run the random-matrix benchmark")
    bench.add_argument("--datasets", type=int, default=100)
    bench.add_argument("--objects", type=int, default=40)
    bench.add_argument("--vars", type=int, default=10, dest="variables")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--threads", type=_threads_arg, default="auto")
    bench.add_argument("--out", required=True, help="summary CSV output path")
    bench.add_argument("--cells", help="optional per-cell CSV output path")

    plot = sub.add_parser("plot", help="render a stored tree as SVG")
    plot.add_argument("--tree", required=True, help="tree JSON path")
    plot.add_argument("--out", required=True, help="SVG output path")

    return parser


def _load_matrix(path: str, fmt: str, header: bool):
    if fmt == "data":
        return euclidean_from_data(read_data_csv(path, header=header))
    return read_distance_csv(path)


def _write_text(path: str, *texts: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(texts)  # one write each, so a large text is never copied to add a newline


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DivclustError(str(exc)) from None


def _cmd_cluster(args) -> int:
    # the matrix, and any table cached on it, is freed before the writers run
    tree = build_hierarchy(_load_matrix(args.input, args.format, args.header), args.algo)
    _write_text(args.out, tree_to_json(tree), "\n")
    if args.newick:
        _write_text(args.newick, to_newick(tree), "\n")
    return 0


def _cmd_eval(args) -> int:
    requested = [token.strip() for token in args.metrics.split(",") if token.strip()]
    if not requested:
        raise DivclustError("no metrics requested")
    for token in requested:
        if token not in _METRICS:
            raise DivclustError(f"unknown metric: {token!r}")
    tree = tree_from_json(_read_text(args.tree))
    m = _load_matrix(args.input, args.format, args.header)
    u = cophenetic(tree)
    counts = None
    for token in requested:
        if token == "cpcc":
            value = cpcc(m, u)
        else:
            if counts is None:
                counts = concordance(m, u)
            value = goodman_kruskal(counts) if token == "gk" else kendall_tau(counts)
        sys.stdout.write(f"{token},{value:.6f}\n")
    return 0


def _cmd_bench(args) -> int:
    config = ExperimentConfig(
        dataset_count=args.datasets,
        objects=args.objects,
        variables=args.variables,
        master_seed=args.seed,
        thread_count=args.threads,
    )
    table = run_experiment(config)
    text = summary_csv(summarize(table))
    _write_text(args.out, text)
    if args.cells:
        _write_text(args.cells, cells_csv(table))
    sys.stdout.write(text)
    return 0


def _cmd_plot(args) -> int:
    tree = tree_from_json(_read_text(args.tree))
    _write_text(args.out, dendrogram_svg(tree))
    return 0


_COMMANDS = {
    "cluster": _cmd_cluster,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
    "plot": _cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (DivclustError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # any other exception is a fault of the program
        sys.stderr.write(f"internal error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
