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
from .splitters import Splitter, parse_splitter, split_mask

AVERAGE_AGGLOMERATIVE = "average-agglomerative"
# Splits the clusters that leave the principal-axis splitter no positive eigenvalue.
_PDDP_FALLBACK = parse_splitter("two-seeds:average")


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
        if any(a >= b for a, b in zip(node.members, node.members[1:])):
            raise DivclustError("node members must be strictly ascending")
        if node.members[0] < 0 or node.members[-1] >= n:
            raise DivclustError("node members out of range")
        if not np.isfinite(node.level) or node.level < 0.0:
            raise DivclustError("node level must be finite and nonnegative")
    # Children partition their parent, so the walk reaches no node twice and
    # reaches all of them exactly when the tree is whole.
    preorder: list[int] = []
    stack = [node.id for node in nodes if len(node.members) == n][:1]
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
    the canonical-left child first. Each cluster's table is gathered once:
    it gives the split and the node's level, the table's max, which is the
    member set's diameter and so makes levels monotone along all paths by
    construction. If a degenerate cluster leaves the principal-axis splitter
    without a positive eigenvalue, that cluster falls back to the two-seeds
    average split.
    """
    square = m.square()
    members_of = [tuple(range(m.n))]
    levels = [0.0] * (2 * m.n - 1)
    children: list[tuple[int, int] | None] = [None] * (2 * m.n - 1)
    queue: deque[int] = deque([0])
    while queue:
        nid = queue.popleft()
        cluster = np.asarray(members_of[nid])
        sub = square[np.ix_(cluster, cluster)]
        levels[nid] = float(sub.max())
        try:
            mask = split_mask(sub, splitter)
        except NoPositiveEigenvalueError:
            mask = split_mask(sub, _PDDP_FALLBACK)
        for side in (cluster[mask], cluster[~mask]):
            members_of.append(tuple(side.tolist()))
            if side.size > 1:
                queue.append(len(members_of) - 1)
        children[nid] = (len(members_of) - 2, len(members_of) - 1)
    nodes = tuple(
        DendrogramNode(i, members_of[i], levels[i], children[i])
        for i in range(len(members_of))
    )
    return Dendrogram(m.n, nodes)


def agglomerative_average_link(m: DissimilarityMatrix) -> Dendrogram:
    """Bottom-up average-link hierarchy (the divisive baselines' counterpart).

    At every step the two active clusters with the smallest mean
    between-cluster dissimilarity merge, ties resolved toward the
    lexicographically smallest pair of smallest member indices; the merge
    level is that mean. Between-cluster sums are folded together on merge,
    which reproduces the direct mean exactly up to float association; they
    run over the table brought into the magnitude window, levels scaled back.
    """
    n = m.n
    members: list[tuple[int, ...]] = [(i,) for i in range(n)]
    node_ids = list(range(n))
    sizes = np.ones(n)
    cross, shift = _into_window(m.square().copy())  # between-cluster SUMS, diagonal unused
    nodes = [DendrogramNode(i, (i,), 0.0) for i in range(n)]
    while len(members) > 1:
        k = len(members)
        d = cross / np.outer(sizes, sizes)
        d[np.tri(k, dtype=bool)] = np.inf
        flat = int(np.argmin(d))  # first minimum in row-major = lexicographic order
        p, q = divmod(flat, k)
        level = float(np.ldexp(d[p, q], shift))
        merged = tuple(sorted(members[p] + members[q]))
        nodes.append(DendrogramNode(len(nodes), merged, level, (node_ids[p], node_ids[q])))
        cross[p, :] += cross[q, :]
        cross[:, p] += cross[:, q]
        cross = np.delete(np.delete(cross, q, axis=0), q, axis=1)
        sizes[p] += sizes[q]
        sizes = np.delete(sizes, q)
        members[p] = merged
        node_ids[p] = len(nodes) - 1
        del members[q]
        del node_ids[q]
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


def _round_level(level: float) -> float:
    return float(f"{level:.9g}")


def tree_to_json(tree: Dendrogram) -> str:
    """Serialize a dendrogram; levels keep at most 9 significant digits."""
    records = []
    for node in tree.nodes:
        rec = {
            "id": node.id,
            "members": [int(x) for x in node.members],
            "level": _round_level(node.level),
        }
        if node.children is not None:
            rec["children"] = [node.children[0], node.children[1]]
        records.append(rec)
    return json.dumps({"n": tree.n, "nodes": records}, indent=2)


def _as_index(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DivclustError(f"malformed tree JSON: {what} must be an integer")
    return value


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
                tuple(_as_index(x, "member") for x in members),
                float(level),
                children,
            )
        )
    nodes.sort(key=lambda node: node.id)
    return Dendrogram(n, tuple(nodes))


def to_newick(tree: Dendrogram) -> str:
    """Newick text: leaves are ``o<index+1>``, branch lengths are level drops."""
    parts: list[str] = []
    # entries are (node id, parent level) to render, or literal text to emit
    stack: list = [(tree.root.id, None)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node_id, parent_level = item
        node = tree.nodes[node_id]
        length = "" if parent_level is None else f":{parent_level - node.level:.9g}"
        if node.is_leaf:
            parts.append(f"o{node.members[0] + 1}{length}")
        else:
            ca, cb = node.children
            parts.append("(")
            stack.extend((")" + length, (cb, node.level), ",", (ca, node.level)))
    return "".join(parts) + ";"
