"""Complete binary dendrograms: construction, cophenetic values, serialization.

A dendrogram over ``n`` objects always has ``2n - 1`` nodes: ``n`` singleton
leaves at level zero and ``n - 1`` internal nodes whose two children
partition them. Levels never increase from parent to child.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import DissimilarityMatrix, _into_window, condensed_size
from .errors import DivclustError, NoPositiveEigenvalueError
from .splitters import (
    MACNAUGHTON_SMITH,
    Splitter,
    _Carried,
    _macnaughton_smith_mask,
    parse_splitter,
    split_mask,
)

AVERAGE_AGGLOMERATIVE = "average-agglomerative"
# Splits the clusters that leave the principal-axis splitter no positive eigenvalue.
_PDDP_FALLBACK = parse_splitter("two-seeds:average")
# The one bipartition of a 2-member cluster, as every splitter returns it.
_PAIR_MASK = np.array([True, False])
# A child of fewer members gathers its table rather than peel from carried
# row totals. On a 2-vCPU VM (numpy 2.4) a peel's start from a gathered
# table took 20-27 us against 28-35 us from carried totals at 8-64 members
# of 40- and 150-object tables, and 50-1274 us against 34-40 us at 64-512
# members of an 1100-object table.
_CARRY_FLOOR = 64


@dataclass(frozen=True)
class DendrogramNode:
    """One cluster of the hierarchy; leaves carry no children."""

    id: int
    members: tuple[int, ...]
    level: float
    children: tuple[int, int] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass(frozen=True)
class Dendrogram:
    """A validated complete binary hierarchy over objects ``0..n-1``.

    ``nodes[i].id == i`` always holds; the root is the unique node holding
    all objects. Construction re-checks every structural invariant in one
    walk from the root, whose preorder (first child first) the tree keeps,
    so a Dendrogram in hand is always well-formed.
    """

    n: int
    nodes: tuple[DendrogramNode, ...]
    preorder: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "preorder", _validate_dendrogram(self.n, self.nodes))

    @property
    def root(self) -> DendrogramNode:
        return self.nodes[self.preorder[0]]

    def leaves(self) -> tuple[DendrogramNode, ...]:
        return tuple(node for node in self.nodes if node.is_leaf)


def _validate_dendrogram(n: int, nodes: tuple[DendrogramNode, ...]) -> tuple[int, ...]:
    """Check every structural invariant; return the node ids in preorder."""
    if n < 2:
        raise DivclustError("a dendrogram needs at least 2 objects")
    if len(nodes) != 2 * n - 1:
        raise DivclustError(f"expected {2 * n - 1} nodes for n={n}, got {len(nodes)}")
    for pos, node in enumerate(nodes):
        if node.id != pos:
            raise DivclustError("node ids must be 0..2n-2 in storage order")
        if not node.members:
            raise DivclustError("node has no members")
        if node.members[0] < 0 or node.members[-1] >= n:
            raise DivclustError("node members out of range")
        if not np.isfinite(node.level) or node.level < 0.0:
            raise DivclustError("node level must be finite and nonnegative")
    # No node is empty, so a child has fewer members than its parent and the
    # walk ends. Children partition their parent, so it reaches no node twice,
    # and all of them exactly when the tree is whole; with the root 0..n-1,
    # every node it reaches is then strictly ascending.
    preorder: list[int] = []
    stack = [node.id for node in nodes if len(node.members) == n][:1]
    if stack and nodes[stack[0]].members != tuple(range(n)):
        raise DivclustError("node members must be strictly ascending")
    while stack:
        node = nodes[stack.pop()]
        preorder.append(node.id)
        if node.children is None:
            if len(node.members) != 1:
                raise DivclustError("leaf node must be a singleton")
            if node.level != 0.0:
                raise DivclustError("leaf level must be zero")
            continue
        ca, cb = node.children
        if not (0 <= ca < len(nodes) and 0 <= cb < len(nodes)) or ca == cb:
            raise DivclustError("bad child ids")
        left, right = nodes[ca], nodes[cb]
        # the parent is strictly ascending, so equal children cannot overlap
        if tuple(sorted(left.members + right.members)) != node.members:
            raise DivclustError("children must partition their parent")
        if left.level > node.level or right.level > node.level:
            raise DivclustError("child level exceeds parent level")
        stack.extend((cb, ca))
    if len(preorder) != len(nodes):
        raise DivclustError("dendrogram must have one root covering all objects")
    return tuple(preorder)


def divisive_hierarchy(m: DissimilarityMatrix, splitter: Splitter) -> Dendrogram:
    """Top-down hierarchy: split every non-singleton cluster, FIFO order.

    Node ids follow creation order with the root at 0; each split appends
    the canonical-left child first. A 2-member cluster has one bipartition
    and splits without a table. The two-seeds and principal-axis splitters
    split each larger cluster's table, gathered from ``m.square()`` by
    position. The MacNaughton-Smith peel reads the square's rows at the
    cluster's positions, one row per move, and hands each child its objects'
    running sums to that child as its row totals, with their error bounds
    (``splitters._macnaughton_smith_mask``), so a cluster's k-by-k table is
    gathered only where those bounds cannot decide, or where the child has
    fewer than ``_CARRY_FLOOR`` members and a gather costs less. If a degenerate cluster
    leaves the principal-axis splitter without a positive eigenvalue, that
    cluster falls back to the two-seeds average split.

    Levels are set bottom-up after the splits: a node's level is the larger
    of its children's levels and the max of the block between them, gathered
    by the smaller side's rows. That is the member set's diameter, so levels
    are monotone along all paths by construction, and each pair is read
    once, at its smallest common node. A -0.0 entry levels at +0.0, as the
    max over a table with a zero diagonal does.
    """
    square = m.square()
    peel = splitter.kind == MACNAUGHTON_SMITH
    members_of = [np.arange(m.n)]
    children: list[tuple[int, int] | None] = [None] * (2 * m.n - 1)
    # each queued cluster with the row totals the peel carries to it, if any
    queue: deque[tuple[int, _Carried | None]] = deque([(0, None)])
    while queue:
        nid, carried = queue.popleft()
        idx = members_of[nid]
        carry = None
        if idx.size == 2:
            mask = _PAIR_MASK
        elif peel:
            mask, carry = _macnaughton_smith_mask(square, idx if nid else None, carried)
            if not mask[0]:
                mask = ~mask
        else:
            sub = square.take(idx, 0).take(idx, 1) if nid else square
            try:
                mask = split_mask(sub, splitter)
            except NoPositiveEigenvalueError:
                mask = split_mask(sub, _PDDP_FALLBACK)
        for side in (mask, ~mask):
            pos = np.flatnonzero(side)
            members_of.append(idx[pos])
            if pos.size == 2:
                queue.append((len(members_of) - 1, None))
            elif pos.size > 2:
                handed = None
                if carry is not None and pos.size >= _CARRY_FLOOR:
                    handed = (carry[0][pos], carry[1][pos])
                queue.append((len(members_of) - 1, handed))
        children[nid] = (len(members_of) - 2, len(members_of) - 1)
    levels = [0.0] * len(members_of)
    for nid in range(len(members_of) - 1, -1, -1):
        if children[nid] is None:
            continue
        first, second = children[nid]
        small, large = members_of[first], members_of[second]
        if small.size > large.size:
            small, large = large, small
        if large.size == 1:  # a pair's block is its one entry
            cross = square[small[0], large[0]]
        else:
            cross = square.take(small, 0).take(large, 1).max()
        levels[nid] = max(levels[first], levels[second], float(cross))
    nodes = tuple(
        DendrogramNode(i, tuple(members_of[i].tolist()), levels[i], children[i])
        for i in range(len(members_of))
    )
    return Dendrogram(m.n, nodes)


def agglomerative_average_link(m: DissimilarityMatrix) -> Dendrogram:
    """Bottom-up average-link hierarchy (the divisive baselines' counterpart).

    At every step the two active clusters with the smallest mean
    between-cluster dissimilarity merge, ties resolved toward the
    lexicographically smallest pair of smallest member indices; the merge
    level is that mean, raised to a child's level where folded-sum rounding
    put it below (exact average-link means never decrease). Row and column i
    always belong to the cluster whose smallest member is i, so the table
    stays in place (merged-away rows and columns are inf), and the mean of
    clusters i < j is ``cross[i, j] / (sizes[i] * sizes[j])``.
    Between-cluster sums fold on merge, exact up to float association, over
    the table brought into the magnitude window, levels scaled back.

    The tie rule is the row-major first minimum of the upper-triangle means,
    found without scanning the table: each row i caches ``nn[i]``, the column
    of its row's first minimum, and ``best[i]``, its value (D. Muellner,
    "Modern hierarchical, agglomerative clustering algorithms",
    arXiv:1109.2378, the generic algorithm). The first minimum of ``best`` is
    the merging row p, and q = ``nn[p]``. A merge changes only row p, column
    p and the dropped row and column q, so row p is rescanned; a row i < p
    takes the new mean (i, p) when it is smaller than ``best[i]``, or ties
    it from a column p or later, and is rescanned when its cached column was
    p or q and the new mean did not take over; a row between p and q is
    rescanned when its cached column was q. Every other row keeps its cache.
    """
    n = m.n
    members: list[tuple[int, ...]] = [(i,) for i in range(n)]
    node_ids = list(range(n))
    sizes = np.ones(n)
    cross, shift = _into_window(m.square().copy())  # between-cluster SUMS, diagonal unused
    nn = np.zeros(n, dtype=np.intp)
    best = np.full(n, np.inf)

    def rescan(i: int) -> None:
        row = cross[i, i + 1:] / (sizes[i] * sizes[i + 1:])
        j = int(row.argmin())
        nn[i], best[i] = i + 1 + j, row[j]

    for i in range(n - 1):
        rescan(i)
    nodes = [DendrogramNode(i, (i,), 0.0) for i in range(n)]
    for _ in range(n - 1):
        p = int(best.argmin())  # with q, the row-major first minimum: the tie rule
        q = int(nn[p])
        children = (node_ids[p], node_ids[q])
        level = max(float(np.ldexp(best[p], shift)), *(nodes[c].level for c in children))
        members[p] = tuple(sorted(members[p] + members[q]))
        nodes.append(DendrogramNode(len(nodes), members[p], level, children))
        node_ids[p] = len(nodes) - 1
        cross[p, :] += cross[q, :]
        cross[:, p] += cross[:, q]
        sizes[p] += sizes[q]
        cross[q, :] = cross[:, q] = best[q] = np.inf
        # rows above p: the new mean (i, p) takes over a tie from column p or later
        column = cross[:p, p] / (sizes[:p] * sizes[p])
        cached = nn[:p]
        takes = (column < best[:p]) | ((column == best[:p]) & (cached >= p))
        stale = np.flatnonzero(~takes & ((cached == p) | (cached == q)))
        cached[takes] = p
        best[:p][takes] = column[takes]
        # rows between p and q lost their entry in column q
        between = p + 1 + np.flatnonzero(nn[p + 1:q] == q)
        for i in (*stale.tolist(), p, *between.tolist()):
            rescan(i)
    return Dendrogram(n, tuple(nodes))


def _parse_algorithm(token: str) -> Splitter | None:
    """The divisive splitter an algorithm token names; None for ``average-agglomerative``."""
    if token == AVERAGE_AGGLOMERATIVE:
        return None
    try:
        return parse_splitter(token)
    except DivclustError:
        raise DivclustError(f"unknown algorithm: {token!r}") from None


def build_hierarchy(m: DissimilarityMatrix, algorithm: str) -> Dendrogram:
    """Build a hierarchy from an algorithm token.

    Tokens: ``two-seeds:<criterion>``, ``macnaughton-smith``, ``pddp`` or
    ``average-agglomerative``.
    """
    splitter = _parse_algorithm(algorithm)
    if splitter is None:
        return agglomerative_average_link(m)
    return divisive_hierarchy(m, splitter)


def cophenetic(tree: Dendrogram) -> DissimilarityMatrix:
    """Pairwise merge levels: u(i, j) is the level of the smallest common node."""
    n = tree.n
    cond = np.zeros(condensed_size(n))
    for node in tree.nodes:
        if node.children is None:
            continue
        left = np.asarray(tree.nodes[node.children[0]].members)
        right = np.asarray(tree.nodes[node.children[1]].members)
        ii = np.repeat(left, right.size)
        jj = np.tile(right, left.size)
        lo = np.minimum(ii, jj)
        hi = np.maximum(ii, jj)
        cond[lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)] = node.level
    return DissimilarityMatrix(n, cond)


def tree_to_json(tree: Dendrogram) -> str:
    """Serialize a dendrogram; levels keep at most 9 significant digits.

    Equal to ``json.dumps({"n": ..., "nodes": [...]}, indent=2)``, but each
    record is formatted directly: the indenting encoder is pure Python and
    works element by element.
    """
    names = [str(i) for i in range(tree.n)]  # every member is an index below n
    records = []
    for node in tree.nodes:
        members = ",\n        ".join(map(names.__getitem__, node.members))
        # json writes a finite float as its repr
        rec = (f'{{\n      "id": {node.id},\n      "members": [\n        {members}\n      ],'
               f'\n      "level": {float(f"{node.level:.9g}")!r}')
        if node.children is not None:
            first, second = node.children
            rec += f',\n      "children": [\n        {first},\n        {second}\n      ]'
        records.append(rec + "\n    }")
    return f'{{\n  "n": {tree.n},\n  "nodes": [\n    ' + ",\n    ".join(records) + "\n  ]\n}"


def _as_index(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DivclustError(f"malformed tree JSON: {what} must be an integer")
    return value


def _as_members(values: list) -> tuple[int, ...]:
    if not set(map(type, values)) <= {int}:  # checked in bulk; a bool's type is bool, not int
        raise DivclustError("malformed tree JSON: member must be an integer")
    return tuple(values)


def tree_from_json(text: str) -> Dendrogram:
    """Parse and re-validate a serialized dendrogram."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DivclustError(f"malformed tree JSON: {exc}") from None
    if not isinstance(payload, dict) or set(payload) != {"n", "nodes"}:
        raise DivclustError("malformed tree JSON: expected an object with 'n' and 'nodes'")
    n = _as_index(payload["n"], "'n'")
    raw_nodes = payload["nodes"]
    if not isinstance(raw_nodes, list):
        raise DivclustError("malformed tree JSON: 'nodes' must be a list")
    nodes = []
    for rec in raw_nodes:
        if not isinstance(rec, dict) or not {"id", "members", "level"} <= set(rec):
            raise DivclustError("malformed tree JSON: bad node record")
        if not set(rec) <= {"id", "members", "level", "children"}:
            raise DivclustError("malformed tree JSON: unknown node field")
        members = rec["members"]
        if not isinstance(members, list):
            raise DivclustError("malformed tree JSON: 'members' must be a list")
        level = rec["level"]
        if isinstance(level, bool) or not isinstance(level, (int, float)):
            raise DivclustError("malformed tree JSON: 'level' must be a number")
        children = None
        if "children" in rec:
            raw = rec["children"]
            if not isinstance(raw, list) or len(raw) != 2:
                raise DivclustError("malformed tree JSON: 'children' must hold two ids")
            children = (_as_index(raw[0], "child id"), _as_index(raw[1], "child id"))
        nodes.append(
            DendrogramNode(
                _as_index(rec["id"], "'id'"),
                _as_members(members),
                float(level),
                children,
            )
        )
    nodes.sort(key=lambda node: node.id)
    return Dendrogram(n, tuple(nodes))


def to_newick(tree: Dendrogram) -> str:
    """Newick text: leaves are ``o<index+1>``, branch lengths are level drops."""
    # reversed preorder places every child before its parent
    text: dict[int, str] = {}
    for nid in reversed(tree.preorder):
        node = tree.nodes[nid]
        if node.is_leaf:
            text[nid] = f"o{node.members[0] + 1}"
        else:
            drops = (f"{text.pop(c)}:{node.level - tree.nodes[c].level:.9g}" for c in node.children)
            text[nid] = "(" + ",".join(drops) + ")"
    return text[tree.root.id] + ";"
