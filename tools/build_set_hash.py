"""Hash every output of a fixed set of hierarchy builds, one digest per family.

Two versions of the package built the same trees when their digests agree.
Each build runs one of the 11 algorithm tokens on one table, and feeds its
tree JSON, Newick text, SVG drawing and the concordance counts (S+, S-) of
its cophenetic values against the table into its family's sha256. The
tables come from fixed seeds:

* ``grid`` - the 16 default benchmark tables (40 x 10 uniforms) of master
  seeds 5 and 11;
* ``integer`` - 24 tie-heavy tables with k = 5 to 28 and entries 0 to 3
  (every third one has zero blocks), where distinct partitions tie exactly;
* ``non-dyadic`` - the same tables times 0.1, where those ties differ in
  their last bits by an amount that depends on summation order;
* ``mixture`` - 150 points around 5 Gaussian centres in 10 dimensions;
* ``large`` - only ``macnaughton-smith``, ``pddp`` and ``two-seeds:average``,
  on 300 points around the same centres and on a 400-leaf caterpillar, where
  d(a, b) is the larger of the two objects' chain positions. On the
  caterpillar every split peels one object, so two-seeds runs on the
  mixture only: its k^4 search per split would take minutes there.

A build that raises contributes its error's class name and message instead.
Each tree's JSON text must also load back to the same text
(``tree_to_json(tree_from_json(text)) == text``), so the run checks the
loader on every build. The loader reads the writer's own text by writing
it back; the run also parses each text as JSON, requires the same tree of
every text read that way, and counts those reads.

A sixth digest, ``cophenetic``, runs over every build of every family and
takes each tree's cophenetic values as their exact float64 bytes, so a
rewrite of ``cophenetic`` can prove it gives bitwise the same values. A
seventh, ``cpcc``, takes each build's CPCC against its table as its float64
bytes, or the error's class name where CPCC is undefined, so a rewrite of
``cpcc`` can prove the same.

The run also counts the ``CandidateScreen.exact`` calls the builds make, the
two-seeds rescores, per criterion: a change to which contenders are
rescored shows there, as a changed tree shows in a digest. Beside them it
counts, per family, the ``CandidateScreen.score`` calls, each one batch of
candidates a two-seeds search screens, and the clusters where a ``pddp``
build found no positive principal axis and fell back to the
``two-seeds:average`` split, whose rescores are among the ``average`` calls.

Each table is also written as CSV text, ``%d`` where every entry is a whole
number and ``%.17g`` otherwise, and read back with ``read_distance_csv``,
which must return the table bit for bit. The run counts the reads that took
the integer parser; the ``integer`` family's tables and the caterpillar
should.

Run from the repository root:

    PYTHONPATH=src python tools/build_set_hash.py [--each]

``--each`` also prints one digest per build, to find the builds that differ.
"""

from __future__ import annotations

import argparse
import hashlib
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from divclust import (
    DEFAULT_ALGORITHMS,
    DissimilarityMatrix,
    DivclustError,
    build_hierarchy,
    concordance,
    cophenetic,
    cpcc,
    dendrogram_svg,
    euclidean_from_data,
    generate_dataset,
    read_distance_csv,
    to_newick,
    tree_from_json,
    tree_to_json,
    validate_matrix,
)
from divclust import core, hierarchy, splitters
from divclust.criteria import CandidateScreen
from divclust.errors import NoPositiveEigenvalueError


def grid_tables():
    return [
        euclidean_from_data(generate_dataset(seed, index, 40, 10))
        for seed in (5, 11)
        for index in range(16)
    ]


def integer_values() -> list[tuple[int, np.ndarray]]:
    rng = np.random.default_rng(2015)
    tables = []
    for k in range(5, 29):
        pairs = k * (k - 1) // 2
        if k % 3 == 0:
            labels = rng.integers(0, 3, k)
            first, second = np.triu_indices(k, 1)
            values = np.where(labels[first] == labels[second], 0, rng.integers(1, 4, pairs))
        else:
            values = rng.integers(0, 4, pairs)
        tables.append((k, values.astype(float)))
    return tables


def mixture_table(per_centre: int):
    rng = np.random.default_rng(7)
    centres = rng.uniform(-6.0, 6.0, (5, 10))
    return euclidean_from_data(
        np.concatenate([c + rng.normal(size=(per_centre, 10)) for c in centres])
    )


def caterpillar_table(n: int):
    rank = np.random.default_rng(n).permutation(n)
    square = np.maximum(rank[:, None], rank[None, :]).astype(float)
    np.fill_diagonal(square, 0.0)
    return validate_matrix(square)


LARGE_SPLITTERS = ("macnaughton-smith", "pddp")
LARGE_ALGORITHMS = LARGE_SPLITTERS + ("two-seeds:average",)


def families() -> dict[str, list[tuple[DissimilarityMatrix, tuple[str, ...]]]]:
    """Each family's tables, each with the algorithm tokens it is built with."""
    integer = integer_values()
    every = tuple(DEFAULT_ALGORITHMS)
    return {
        "grid": [(m, every) for m in grid_tables()],
        "integer": [(DissimilarityMatrix(k, values), every) for k, values in integer],
        "non-dyadic": [(DissimilarityMatrix(k, values * 0.1), every) for k, values in integer],
        "mixture": [(mixture_table(30), every)],
        "large": [(mixture_table(60), LARGE_ALGORITHMS), (caterpillar_table(400), LARGE_SPLITTERS)],
    }


def build_record(m: DissimilarityMatrix, token: str, reads: Counter) -> tuple[bytes, bytes, bytes]:
    """Every output of one build, as bytes, its exact cophenetic values and CPCC.

    ``reads`` counts the trees whose JSON text was read, and those of them
    read by writing the text back.
    """
    try:
        tree = build_hierarchy(m, token)
        values = cophenetic(tree)
        counts = concordance(m, values)
    except DivclustError as exc:
        error = f"{type(exc).__name__}: {exc}".encode()
        return error, error, error
    text = tree_to_json(tree)
    if tree_to_json(tree_from_json(text)) != text:
        raise SystemExit(f"{token}: tree JSON does not load back to the same text")
    fast = hierarchy._read_own_text(text)
    if fast is not None and fast != hierarchy._parse_tree_json(text):
        raise SystemExit(f"{token}: tree JSON reads as two different trees")
    reads["trees"] += 1
    reads["fast"] += fast is not None
    parts = (text, to_newick(tree), dendrogram_svg(tree), f"{counts.s_plus} {counts.s_minus}")
    try:
        score = np.array(cpcc(m, values), dtype="<f8").tobytes()
    except DivclustError as exc:
        score = type(exc).__name__.encode()
    return "\0".join(parts).encode(), values.condensed.astype("<f8").tobytes(), score


def check_csv_read(m: DissimilarityMatrix, path: Path) -> None:
    """Write the table to ``path`` as CSV text and require ``read_distance_csv`` to return it bitwise."""
    square = m.square()
    whole = bool((square == np.trunc(square)).all())
    np.savetxt(path, square, fmt="%d" if whole else "%.17g", delimiter=",")
    if read_distance_csv(path).condensed.tobytes() != m.condensed.tobytes():
        raise SystemExit(f"{path.name}: the CSV text does not read back to the same table")


def count_integer_reads() -> Counter:
    """Count every CSV read that takes the integer parser from now on."""
    calls = Counter()
    integer_table = core._integer_table

    def counted(path, skiprows):
        table = integer_table(path, skiprows)
        calls["integer"] += table is not None
        calls["reads"] += 1
        return table

    core._integer_table = counted
    return calls


def count_screen_calls(name: str) -> Counter:
    """Count every call of the ``CandidateScreen`` method ``name`` from now on, by criterion."""
    calls = Counter()
    method = getattr(CandidateScreen, name)

    def counted(screen, masks):
        calls[screen.criterion.value] += 1
        return method(screen, masks)

    setattr(CandidateScreen, name, counted)
    return calls


def count_pddp_fallbacks() -> Counter:
    """Count every PDDP split that falls back to two-seeds from now on."""
    calls = Counter()
    pddp_mask = splitters._pddp_mask

    def counted(sub):
        try:
            return pddp_mask(sub)
        except NoPositiveEigenvalueError:
            calls["pddp"] += 1
            raise

    splitters._pddp_mask = counted
    return calls


def per_family(counts: dict[str, int]) -> str:
    return ", ".join(f"{family} {count}" for family, count in counts.items())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--each", action="store_true", help="also print one digest per build")
    args = parser.parse_args()
    values_digest = hashlib.sha256()
    cpcc_digest = hashlib.sha256()
    total = 0
    calls = count_screen_calls("exact")
    batches = count_screen_calls("score")
    fallbacks = count_pddp_fallbacks()
    reads = Counter()
    csv_reads = count_integer_reads()
    family_batches = {}
    family_fallbacks = {}
    family_integer_reads = {}
    with tempfile.TemporaryDirectory() as scratch:
        for family, tables in families().items():
            batches_before = batches.total()
            fallbacks_before = fallbacks.total()
            integer_before = csv_reads["integer"]
            digest = hashlib.sha256()
            for index, (m, tokens) in enumerate(tables):
                check_csv_read(m, Path(scratch) / f"{family}_{index}.csv")
                for token in tokens:
                    record, values, score = build_record(m, token, reads)
                    digest.update(f"{index} {token}\0".encode() + record + b"\0")
                    build = f"{family} {index} {token}\0".encode()
                    values_digest.update(build + values + b"\0")
                    cpcc_digest.update(build + score + b"\0")
                    if args.each:
                        print(family, index, token, hashlib.sha256(record).hexdigest()[:16])
            family_batches[family] = batches.total() - batches_before
            family_fallbacks[family] = fallbacks.total() - fallbacks_before
            family_integer_reads[family] = csv_reads["integer"] - integer_before
            builds = sum(len(tokens) for _, tokens in tables)
            total += builds
            print(f"{family}: {builds} builds {digest.hexdigest()}")
    print(f"cophenetic: {total} builds {values_digest.hexdigest()}")
    print(f"cpcc: {total} builds {cpcc_digest.hexdigest()}")
    per_criterion = ", ".join(f"{name} {count}" for name, count in sorted(calls.items()))
    print(f"exact calls: {calls.total()} ({per_criterion})")
    print(f"screened batches: {batches.total()} ({per_family(family_batches)})")
    print(f"pddp fallbacks: {fallbacks.total()} ({per_family(family_fallbacks)})")
    print(f"tree JSON fast reads: {reads['fast']} of {reads['trees']}")
    print(f"CSV integer reads: {csv_reads['integer']} of {csv_reads['reads']}"
          f" ({per_family(family_integer_reads)})")


if __name__ == "__main__":
    main()
