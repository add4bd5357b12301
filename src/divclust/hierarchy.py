"""Complete binary dendrograms: construction, cophenetic values, serialization.

A dendrogram over ``n`` objects always has ``2n - 1`` nodes: ``n`` singleton
leaves at level zero and ``n - 1`` internal nodes whose two children
partition them. Levels never increase from parent to child.
"""

from __future__ import annotations

import json
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

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


class Dendrogram:
    """A validated complete binary hierarchy over objects ``0..n-1``, stored as arrays.

    Over the ``2n - 1`` node ids the tree keeps ``children`` (two node ids
    per row, ``-1`` twice for a leaf), ``levels``, ``sizes`` (member counts)
    and ``start``. ``order`` lists the objects leaf by leaf along
    ``preorder``, the walk from the root that visits a node's first child
    first, so node ``i``'s members are one run of it,
    ``order[start[i]:start[i] + sizes[i]]``, with its first child's run
    before its second's.

    ``Dendrogram(n, nodes)`` takes the tree as ``DendrogramNode`` records and
    re-checks every invariant, members included. The builders hand over
    children, levels and leaf objects and get only the structural check:
    members read from the leaf order partition their parent by construction.
    ``nodes`` derives every node's members, ascending, when first read. A
    Dendrogram in hand is always well-formed and never changes.
    """

    def __init__(self, n: int, nodes: Sequence[DendrogramNode]):
        nodes = tuple(nodes)
        members = [list(node.members) for node in nodes]
        kids = [node.children for node in nodes]
        levels = [node.level for node in nodes]
        preorder = _check_records(n, [node.id for node in nodes], members, levels, kids)
        self._store(n, kids, levels, [ms[0] for ms in members], preorder)

    @classmethod
    def _checked(cls, n: int, kids, levels, objects, preorder) -> Dendrogram:
        """A tree whose check has passed: ``kids[i]`` is a child pair or None,
        ``objects[i]`` the object of leaf ``i``, ``preorder`` the walk that check made."""
        tree = cls.__new__(cls)
        tree._store(n, kids, levels, objects, preorder)
        return tree

    def _store(self, n: int, kids, levels, objects, preorder) -> None:
        start = [0] * len(kids)
        sizes = [1] * len(kids)
        order = []
        for nid in preorder:
            start[nid] = len(order)
            if kids[nid] is None:
                order.append(objects[nid])
        for nid in reversed(preorder):
            if kids[nid] is not None:
                first, second = kids[nid]
                sizes[nid] = sizes[first] + sizes[second]
        arrays = {
            "children": np.array([pair or (-1, -1) for pair in kids], dtype=np.intp),
            "levels": np.array(levels, dtype=float),
            "sizes": np.array(sizes, dtype=np.intp),
            "order": np.array(order, dtype=np.intp),
            "start": np.array(start, dtype=np.intp),
        }
        for values in arrays.values():
            values.setflags(write=False)
        vars(self).update(arrays, n=n, preorder=tuple(preorder))

    def __setattr__(self, name, value):
        raise AttributeError("a Dendrogram never changes")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dendrogram):
            return NotImplemented
        # equal children and leaf orders give equal members
        return (self.n == other.n and np.array_equal(self.children, other.children)
                and np.array_equal(self.order, other.order)
                and np.array_equal(self.levels, other.levels))

    def __hash__(self) -> int:
        return hash((self.n, self.preorder))

    def __repr__(self) -> str:
        return f"Dendrogram(n={self.n!r}, nodes={self.nodes!r})"

    def _member_lists(self) -> list[list[int]]:
        """Every node's members as an ascending list, each merged from its children's."""
        kids = self.children.tolist()
        objects = self.order[self.start].tolist()  # a leaf's entry is its object
        lists: list = [None] * len(kids)
        for nid in reversed(self.preorder):
            first, second = kids[nid]
            lists[nid] = [objects[nid]] if first < 0 else sorted(lists[first] + lists[second])
        return lists

    @cached_property
    def nodes(self) -> tuple[DendrogramNode, ...]:
        """Every node as a record, in storage order (``nodes[i].id == i``)."""
        records = zip(self._member_lists(), self.levels.tolist(), self.children.tolist())
        return tuple(
            DendrogramNode(nid, tuple(members), level, None if first < 0 else (first, second))
            for nid, (members, level, (first, second)) in enumerate(records)
        )

    @property
    def root(self) -> DendrogramNode:
        """The root's record, whose members are every object."""
        nid = self.preorder[0]
        children = tuple(self.children[nid].tolist())  # n >= 2, so the root is internal
        return DendrogramNode(nid, tuple(range(self.n)), float(self.levels[nid]), children)

    def leaves(self) -> tuple[DendrogramNode, ...]:
        """Every leaf's record, in storage order."""
        ids = np.flatnonzero(self.children[:, 0] < 0)
        records = zip(ids.tolist(), self.order[self.start[ids]].tolist(), self.levels[ids].tolist())
        return tuple(DendrogramNode(nid, (obj,), level) for nid, obj, level in records)


def _check_records(n: int, ids, members, levels, kids) -> list[int]:
    """Check a tree given with every node's members (lists); return its preorder."""
    if n < 2:
        raise DivclustError("a dendrogram needs at least 2 objects")
    if len(ids) != 2 * n - 1:
        raise DivclustError(f"expected {2 * n - 1} nodes for n={n}, got {len(ids)}")
    for pos, (nid, ms, level) in enumerate(zip(ids, members, levels)):
        if nid != pos:
            raise DivclustError("node ids must be 0..2n-2 in storage order")
        if not ms:
            raise DivclustError("node has no members")
        if ms[0] < 0 or ms[-1] >= n:
            raise DivclustError("node members out of range")
        if not math.isfinite(level) or level < 0.0:
            raise DivclustError("node level must be finite and nonnegative")
    # No node is empty, so a child has fewer members than its parent and the
    # walk ends. Children partition their parent, so it reaches no node twice,
    # and all of them exactly when the tree is whole; with the root 0..n-1,
    # every node it reaches is then strictly ascending.
    preorder: list[int] = []
    stack = [pos for pos, ms in enumerate(members) if len(ms) == n][:1]
    if stack and members[stack[0]] != list(range(n)):
        raise DivclustError("node members must be strictly ascending")
    while stack:
        nid = stack.pop()
        preorder.append(nid)
        if kids[nid] is None:
            if len(members[nid]) != 1:
                raise DivclustError("leaf node must be a singleton")
            if levels[nid] != 0.0:
                raise DivclustError("leaf level must be zero")
            continue
        ca, cb = kids[nid]
        if not (0 <= ca < len(ids) and 0 <= cb < len(ids)) or ca == cb:
            raise DivclustError("bad child ids")
        # the parent is strictly ascending, so equal children cannot overlap
        if sorted(members[ca] + members[cb]) != members[nid]:
            raise DivclustError("children must partition their parent")
        if levels[ca] > levels[nid] or levels[cb] > levels[nid]:
            raise DivclustError("child level exceeds parent level")
        stack.extend((cb, ca))
    if len(preorder) != len(ids):
        raise DivclustError("dendrogram must have one root covering all objects")
    return preorder


def _check_structure(n: int, kids, levels, objects) -> list[int]:
    """Check a builder's tree, which carries no members; return its preorder.

    One root, every node reached once from it, leaves holding the objects
    0..n-1, and levels finite, nonnegative, zero at the leaves and never
    above the parent's.
    """
    claimed = [c for pair in kids if pair is not None for c in pair]
    if not all(0 <= c < len(kids) for c in claimed):
        raise DivclustError("bad child ids")
    stack = list(set(range(len(kids))).difference(claimed))  # the unclaimed nodes
    whole = len(kids) == 2 * n - 1 and len(stack) == 1
    seen = bytearray(len(kids))
    preorder: list[int] = []
    leaves = []
    while whole and stack:
        nid = stack.pop()
        whole = not seen[nid]
        seen[nid] = 1
        preorder.append(nid)
        level = levels[nid]
        if not math.isfinite(level) or level < 0.0:
            raise DivclustError("node level must be finite and nonnegative")
        if kids[nid] is None:
            if level != 0.0:
                raise DivclustError("leaf level must be zero")
            leaves.append(objects[nid])
            continue
        first, second = kids[nid]
        if levels[first] > level or levels[second] > level:
            raise DivclustError("child level exceeds parent level")
        stack.extend((second, first))
    if not whole or len(preorder) != len(kids):
        raise DivclustError("dendrogram must have one root covering all objects")
    if sorted(leaves) != list(range(n)):
        raise DivclustError("leaves must hold the objects 0..n-1")
    return preorder


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
    objects = [int(idx[0]) for idx in members_of]
    return Dendrogram._checked(m.n, children, levels, objects,
                               _check_structure(m.n, children, levels, objects))


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
    kids: list[tuple[int, int] | None] = [None] * n
    levels = [0.0] * n
    for _ in range(n - 1):
        p = int(best.argmin())  # with q, the row-major first minimum: the tie rule
        q = int(nn[p])
        first, second = node_ids[p], node_ids[q]
        levels.append(max(float(np.ldexp(best[p], shift)), levels[first], levels[second]))
        kids.append((first, second))
        node_ids[p] = len(kids) - 1
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
    objects = range(2 * n - 1)  # leaf i holds object i
    return Dendrogram._checked(n, kids, levels, objects, _check_structure(n, kids, levels, objects))


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
    """Pairwise merge levels: u(i, j) is the level of the smallest common node.

    A node's two children hold adjacent runs of the leaf order, so the pairs
    it joins are one block of a table indexed by leaf position, and the
    block's mirror. The packed vector then takes each object's row from that
    table, in object order.
    """
    n = tree.n
    table = np.empty((n, n))  # the diagonal is never read
    start, sizes = tree.start.tolist(), tree.sizes.tolist()
    for nid, ((first, _), level) in enumerate(zip(tree.children.tolist(), tree.levels.tolist())):
        if first < 0:
            continue
        lo = start[nid]
        mid, hi = lo + sizes[first], lo + sizes[nid]
        table[lo:mid, mid:hi] = level
        table[mid:hi, lo:mid] = level
    position = np.empty(n, dtype=np.intp)
    position[tree.order] = np.arange(n)
    cond = np.empty(condensed_size(n))
    at = 0
    for i, row in enumerate(position[:-1].tolist()):
        table[row].take(position[i + 1:], out=cond[at:at + n - 1 - i], mode="clip")
        at += n - 1 - i
    del table
    return DissimilarityMatrix(n, cond)


def tree_to_json(tree: Dendrogram) -> str:
    """Serialize a dendrogram; levels keep at most 9 significant digits.

    Equal to ``json.dumps({"n": ..., "nodes": [...]}, indent=2)``, but each
    record is formatted directly: the indenting encoder is pure Python and
    works element by element.
    """
    names = [str(i) for i in range(tree.n)]  # every member is an index below n
    records = []
    nodes = zip(tree._member_lists(), tree.levels.tolist(), tree.children.tolist())
    for nid, (members, level, (first, second)) in enumerate(nodes):
        text = ",\n        ".join(map(names.__getitem__, members))
        # json writes a finite float as its repr
        rec = (f'{{\n      "id": {nid},\n      "members": [\n        {text}\n      ],'
               f'\n      "level": {float(f"{level:.9g}")!r}')
        if first >= 0:
            rec += f',\n      "children": [\n        {first},\n        {second}\n      ]'
        records.append(rec + "\n    }")
    return f'{{\n  "n": {tree.n},\n  "nodes": [\n    ' + ",\n    ".join(records) + "\n  ]\n}"


def _as_index(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DivclustError(f"malformed tree JSON: {what} must be an integer")
    return value


def _as_members(values: list) -> list[int]:
    if not set(map(type, values)) <= {int}:  # checked in bulk; a bool's type is bool, not int
        raise DivclustError("malformed tree JSON: member must be an integer")
    return values


def tree_from_json(text: str) -> Dendrogram:
    """Parse and re-validate a serialized dendrogram, members included."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DivclustError(f"malformed tree JSON: {exc}") from None
    except RecursionError:
        raise DivclustError("malformed tree JSON: nested too deeply") from None
    if not isinstance(payload, dict) or set(payload) != {"n", "nodes"}:
        raise DivclustError("malformed tree JSON: expected an object with 'n' and 'nodes'")
    n = _as_index(payload["n"], "'n'")
    raw_nodes = payload["nodes"]
    if not isinstance(raw_nodes, list):
        raise DivclustError("malformed tree JSON: 'nodes' must be a list")
    records = []
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
        nid = _as_index(rec["id"], "'id'")
        members = _as_members(members)
        try:
            level = float(level)
        except OverflowError:
            raise DivclustError("malformed tree JSON: 'level' is too large for a float") from None
        records.append((nid, members, level, children))
    records.sort(key=itemgetter(0))
    ids, members, levels, kids = list(zip(*records)) or [()] * 4
    preorder = _check_records(n, ids, members, levels, kids)
    return Dendrogram._checked(n, kids, levels, [ms[0] for ms in members], preorder)


def to_newick(tree: Dendrogram) -> str:
    """Newick text: leaves are ``o<index+1>``, branch lengths are level drops."""
    kids, levels = tree.children.tolist(), tree.levels.tolist()
    objects = tree.order[tree.start].tolist()  # a leaf's entry is its object
    # reversed preorder places every child before its parent
    text: dict[int, str] = {}
    for nid in reversed(tree.preorder):
        first, second = kids[nid]
        if first < 0:
            text[nid] = f"o{objects[nid] + 1}"
        else:
            level = levels[nid]
            text[nid] = (f"({text.pop(first)}:{level - levels[first]:.9g},"
                         f"{text.pop(second)}:{level - levels[second]:.9g})")
    return text[tree.preorder[0]] + ";"
