"""Check that two versions of the package build different PDDP trees only at exact ties.

For every table of the build set's ``integer`` and ``non-dyadic`` families
(``tools/build_set_hash.py``), the ``pddp`` tree is built once with each
source tree, each in its own process. For each build whose trees differ, the
first differing split is the first node, in node-id order, whose two children
differ; every earlier split agrees, so both versions split that same cluster.
Its principal axis is then decided in exact rational arithmetic
(``fractions.Fraction``) on the integer table: a non-dyadic table is those
same integers times 0.1, which scales the Gram table by 0.01 and changes no
eigenvector.

With J = I - 11'/k the centering, the Gram table of a k-member cluster is
G = -J D² J / 2, so M = 2k²G = -(kJ) D² (kJ) is an integer table. A rational
eigenvalue of M is an integer (M's characteristic polynomial is monic with
integer coefficients), so the dominant eigenvalue found in floating point is
rounded to the nearest integer mu and confirmed by an exact det(M - mu I) = 0.
The split is then classed by the first of these that holds:

* ``+-lambda`` - the dominant magnitude is shared: det(M + mu I) = 0 too;
* ``repeated`` - the dominant eigenvalue is repeated: M - mu I has nullity
  of at least 2;
* ``zero coordinate`` - the dominant eigenvector (M - mu I has nullity 1)
  has a coordinate that is exactly zero, where the sign rule ties;
* ``not a tie`` - none of these.

An eigenvalue that is not an integer, or a dominant magnitude that floating
point cannot single out, is ``undecided``. The run prints one line per
changed build and exits 1 if any split is ``not a tie`` or ``undecided``.

Run from the repository root, with the two ``src`` directories to compare:

    python tools/pddp_ties.py OLD_SRC NEW_SRC
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent

# Builds every pddp tree of the two families; prints each tree's children
# pairs, as member lists, in node-id order, or the build's error.
BUILD = """
import json
from build_set_hash import integer_values
from divclust import DissimilarityMatrix, DivclustError, build_hierarchy

trees = {}
for index, (k, values) in enumerate(integer_values()):
    for family, scale in (("integer", 1.0), ("non-dyadic", 0.1)):
        try:
            tree = build_hierarchy(DissimilarityMatrix(k, values * scale), "pddp")
        except DivclustError as exc:
            trees[f"{family} {index}"] = f"{type(exc).__name__}: {exc}"
            continue
        nodes = tree.nodes
        trees[f"{family} {index}"] = [
            None if node.children is None else [list(nodes[c].members) for c in node.children]
            for node in nodes
        ]
print(json.dumps(trees))
"""


def build_trees(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(src).resolve()), str(TOOLS)]))
    run = subprocess.run(
        [sys.executable, "-c", BUILD], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(run.stdout)


def first_differing_split(old, new) -> list[int] | None:
    """Members of the first node whose children differ, or None if the trees agree."""
    if old == new:
        return None
    if isinstance(old, str) or isinstance(new, str):
        raise SystemExit(f"a build raised: {old if isinstance(old, str) else new}")
    for a, b in zip(old, new):
        if a is not None and sorted(a) != sorted(b):
            return sorted(a[0] + a[1])
    raise SystemExit("trees differ but no split does")


def scaled_gram(square: list[list[int]]) -> list[list[int]]:
    """M = -(kJ) D² (kJ), which is 2k² times the Gram table; D holds integers."""
    k = len(square)
    d2 = [[d * d for d in row] for row in square]
    rows = [sum(row) for row in d2]  # D² is symmetric, so these are its column sums too
    total = sum(rows)
    return [[-(k * k * d2[i][j] - k * rows[i] - k * rows[j] + total) for j in range(k)]
            for i in range(k)]


def null_space(table: list[list[int]], mu: int) -> list[list[Fraction]]:
    """A basis of the null space of table - mu I, by exact Gauss-Jordan elimination."""
    k = len(table)
    rows = [[Fraction(table[i][j] - (mu if i == j else 0)) for j in range(k)] for i in range(k)]
    pivots = []
    r = 0
    for c in range(k):
        p = next((i for i in range(r, k) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r][c]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(k):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(k) if c not in pivots):
        vector = [Fraction(0)] * k
        vector[free] = Fraction(1)
        for row, c in zip(rows, pivots):
            vector[c] = -row[free]
        basis.append(vector)
    return basis


def classify(square: list[list[int]]) -> tuple[str, str]:
    """The class of a cluster's principal axis, and the facts that decide it."""
    gram = scaled_gram(square)
    values = np.linalg.eigvalsh(np.array(gram, dtype=float))
    top, bottom = float(values[-1]), float(values[0])
    size = max(top, -bottom)
    # eigvalsh is accurate to about eps times the largest magnitude
    if abs(top + bottom) > 1e-9 * size and abs(top - abs(bottom)) < 1e-6 * size:
        return "undecided", f"magnitudes {top} and {bottom} are close but not equal"
    mu = round(top if top >= -bottom else bottom)
    space = null_space(gram, mu)
    if not space:
        return "undecided", f"dominant eigenvalue {size:.6g} is not an integer"
    facts = f"2k²·lambda = {mu}, multiplicity {len(space)}"
    if null_space(gram, -mu):
        return "+-lambda", f"{facts}, and {-mu} is an eigenvalue too"
    if len(space) > 1:
        return "repeated", facts
    zeros = [i for i, x in enumerate(space[0]) if x == 0]
    if zeros:
        return "zero coordinate", f"{facts}, exactly zero at positions {zeros}"
    return "not a tie", f"{facts}, no zero coordinate"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src", help="the src directory of the version compared against")
    parser.add_argument("new_src", help="the src directory of the version checked")
    args = parser.parse_args()
    sys.path[:0] = [str(Path(args.new_src).resolve()), str(TOOLS)]
    from build_set_hash import integer_values

    tables = integer_values()
    old, new = build_trees(args.old_src), build_trees(args.new_src)
    failed = 0
    for build in old:
        members = first_differing_split(old[build], new[build])
        if members is None:
            continue
        k, values = tables[int(build.split()[-1])]
        square = np.zeros((k, k), dtype=int)
        square[np.triu_indices(k, 1)] = values.astype(int)
        square += square.T
        sub = square[np.ix_(members, members)].tolist()
        kind, facts = classify(sub)
        failed += kind in ("not a tie", "undecided")
        print(f"{build} pddp: first differing split of {len(members)} members "
              f"{members}: {kind} ({facts})")
    print(f"{failed} changed builds not at an exact tie")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
