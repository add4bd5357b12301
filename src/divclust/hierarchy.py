"""Complete binary dendrograms: construction, cophenetic values, serialization.

A dendrogram over ``n`` objects always has ``2n - 1`` nodes: ``n`` singleton
leaves at level zero and ``n - 1`` internal nodes whose two children
partition them. Levels never increase from parent to child.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .core import DissimilarityMatrix, _into_window, _is_integer, _unpack, condensed_size
from .errors import DivclustError
from .splitters import Splitter, _Carried, parse_splitter, split_mask

AVERAGE_AGGLOMERATIVE = "average-agglomerative"


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
    checks their members, then lays them out with the walk that checks every
    tree's structure. The builders hand over children, levels and leaf
    objects and get only that walk: members read from the leaf order
    partition their parent by construction.
    ``nodes`` derives every node's members, ascending, when first read. A
    Dendrogram in hand is always well-formed and never changes.
    """

    def __init__(self, n: int, nodes: Sequence[DendrogramNode]):
        nodes = tuple(nodes)
        members = [list(node.members) for node in nodes]
        kids = [node.children for node in nodes]
        levels = [node.level for node in nodes]
        _check_records(n, [node.id for node in nodes], members, kids)
        self._lay_out(n, kids, levels, [ms[0] for ms in members])

    @classmethod
    def _built(cls, n: int, kids, levels, objects) -> Dendrogram:
        """The tree of child pairs ``kids[i]`` (None for a leaf), ``levels``
        and leaf objects ``objects[i]``, checked as :meth:`_lay_out` lays it out."""
        tree = cls.__new__(cls)
        tree._lay_out(n, kids, levels, objects)
        return tree

    def _lay_out(self, n: int, kids, levels, objects) -> None:
        """Check a tree's shape, levels and leaves, and lay it out in the same walk.

        At least 2 objects, one root, every node reached once from it, leaves
        holding the objects 0..n-1, and levels finite, nonnegative, zero at
        the leaves and never above the parent's. The one walk that checks a
        tree, built or loaded: records get it after ``_check_records`` has
        checked their members. It records each node's start in the leaf
        order as it reaches it.
        """
        if n < 2:
            raise DivclustError("a dendrogram needs at least 2 objects")
        claimed = [c for pair in kids if pair is not None for c in pair]
        if not all(0 <= c < len(kids) for c in claimed):
            raise DivclustError("bad child ids")
        stack = list(set(range(len(kids))).difference(claimed))  # the unclaimed nodes
        whole = len(kids) == 2 * n - 1 and len(stack) == 1
        seen = bytearray(len(kids))
        preorder: list[int] = []
        start = [0] * len(kids)
        order = []
        while whole and stack:
            nid = stack.pop()
            whole = not seen[nid]
            seen[nid] = 1
            preorder.append(nid)
            start[nid] = len(order)
            level = levels[nid]
            if not math.isfinite(level) or level < 0.0:
                raise DivclustError("node level must be finite and nonnegative")
            if kids[nid] is None:
                if level != 0.0:
                    raise DivclustError("leaf level must be zero")
                order.append(objects[nid])
                continue
            first, second = kids[nid]
            if levels[first] > level or levels[second] > level:
                raise DivclustError("child level exceeds parent level")
            stack.extend((second, first))
        if not whole or len(preorder) != len(kids):
            raise DivclustError("dendrogram must have one root covering all objects")
        if sorted(order) != list(range(n)):
            raise DivclustError("leaves must hold the objects 0..n-1")
        sizes = [1] * len(kids)
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


def _check_records(n: int, ids, members, kids) -> None:
    """Check a tree's member lists without a walk; ``Dendrogram._lay_out`` checks the rest."""
    if n < 2:
        raise DivclustError("a dendrogram needs at least 2 objects")
    if len(ids) != 2 * n - 1:
        raise DivclustError(f"expected {2 * n - 1} nodes for n={n}, got {len(ids)}")
    for pos, (nid, ms, pair) in enumerate(zip(ids, members, kids)):
        if nid != pos:
            raise DivclustError("node ids must be 0..2n-2 in storage order")
        if not ms:
            raise DivclustError("node has no members")
        if ms[0] < 0 or ms[-1] >= n:
            raise DivclustError("node members out of range")
        if pair is None:
            if len(ms) != 1:
                raise DivclustError("leaf node must be a singleton")
        elif not (isinstance(pair, (tuple, list)) and len(pair) == 2
                  and all(_is_integer(c) for c in pair)
                  and 0 <= min(pair) and max(pair) < len(ids) and pair[0] != pair[1]):
            raise DivclustError("bad child ids")
    root = next((ms for ms in members if len(ms) == n), None)
    if root is not None and root != list(range(n)):
        raise DivclustError("node members must be strictly ascending")
    # A record that passes costs its own length, so this is linear in the
    # members given. Once the shape holds, every node's members are then its
    # leaves' objects, sorted, and with the root 0..n-1 strictly ascending.
    for ms, pair in zip(members, kids):
        if pair is not None and sorted(members[pair[0]] + members[pair[1]]) != ms:
            raise DivclustError("children must partition their parent")


def divisive_hierarchy(m: DissimilarityMatrix, splitter: Splitter) -> Dendrogram:
    """Top-down hierarchy: split every non-singleton cluster, FIFO order.

    Node ids follow creation order with the root at 0; each split appends
    the canonical-left child first. Every cluster is split by
    ``splitters.split_mask`` at its positions in ``m.square()``, with the
    row totals its parent's split carried to it, if any, so it splits as
    ``split_cluster`` splits it alone.

    Levels are set bottom-up after the splits: a node's level is the larger
    of its children's levels and the max of the block between them, gathered
    by the smaller side's rows. That is the member set's diameter, so levels
    are monotone along all paths by construction, and each pair is read
    once, at its smallest common node. A -0.0 entry levels at +0.0, as the
    max over a table with a zero diagonal does.
    """
    square = m.square()
    members_of = [np.arange(m.n)]
    children: list[tuple[int, int] | None] = [None] * (2 * m.n - 1)
    # each queued cluster with the row totals its parent's split carries to it, if any
    queue: deque[tuple[int, _Carried | None]] = deque([(0, None)])
    while queue:
        nid, carried = queue.popleft()
        idx = members_of[nid]
        mask, carry = split_mask(square, idx, splitter, carried)
        for side in (mask, ~mask):
            members_of.append(idx[side])
            if members_of[-1].size > 1:
                handed = None if carry is None else (carry[0][side], carry[1][side])
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
        cross = square.take(small, 0).take(large, 1).max()
        levels[nid] = max(levels[first], levels[second], float(cross))
    return Dendrogram._built(m.n, children, levels, [int(idx[0]) for idx in members_of])


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
    packed, shift = _into_window(m.condensed)  # the packed values' max is the table's
    cross = _unpack(n, packed)  # between-cluster SUMS, diagonal unused
    del packed  # a scaled copy, if any
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
        # children first, as the divisive rule: a -0.0 mean ties them and levels at +0.0
        levels.append(max(levels[first], levels[second], float(np.ldexp(best[p], shift))))
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
    return Dendrogram._built(n, kids, levels, range(2 * n - 1))  # leaf i holds object i


def build_hierarchy(m: DissimilarityMatrix, algorithm: str) -> Dendrogram:
    """Build a hierarchy from an algorithm token.

    Tokens: ``two-seeds:<criterion>``, ``macnaughton-smith``, ``pddp`` or
    ``average-agglomerative``.
    """
    if algorithm == AVERAGE_AGGLOMERATIVE:
        return agglomerative_average_link(m)
    try:
        splitter = parse_splitter(algorithm)
    except DivclustError:
        raise DivclustError(f"unknown algorithm: {algorithm!r}") from None
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
    return DissimilarityMatrix._owning(n, cond)


def tree_to_json(tree: Dendrogram) -> str:
    """Serialize a dendrogram; levels keep at most 9 significant digits.

    Equal to ``json.dumps({"n": ..., "nodes": [...]}, indent=2)``, but each
    record is formatted directly: the indenting encoder is pure Python and
    works element by element. Each record's text is formatted once, into
    pieces that are joined once, so at its peak the writer holds its text
    about twice: in the pieces and joined.
    """
    return "".join(_json_pieces(tree))


def _json_pieces(tree: Dendrogram) -> Iterator[str]:
    """The tree's JSON text in pieces, in order: the one definition of the format."""
    yield f'{{\n  "n": {tree.n},\n  "nodes": ['
    nodes = zip(_member_texts(tree), tree.levels.tolist(), tree.children.tolist())
    for nid, (members, level, (first, second)) in enumerate(nodes):
        yield f'{"," if nid else ""}\n    {{\n      "id": {nid},\n      "members": [\n        '
        yield members  # the names, joined
        # json writes a finite float as its repr
        yield f'\n      ],\n      "level": {float(f"{level:.9g}")!r}'
        if first >= 0:
            yield f',\n      "children": [\n        {first},\n        {second}\n      ]'
        yield "\n    }"
    yield "\n  ]\n}"


# The writer's text between two member names.
_MEMBER_SEP = ",\n        "

# A node's member text is spliced from its larger child's when the smaller
# child holds at most 1/_SPLICE_RATIO as many members; otherwise both lists
# are merged and every name joined again. On lists of 1 000 and 20 000 random
# members, merging and joining took 30-65 ns a member, and a splice about
# 10-15 ns a member of the larger list and 800 ns an inserted name: a splice
# of a sixteenth took 1.1-1.4 times as long as the join, of a thirty-second
# 0.8-1.0 times. A 1 000-point balanced tree's texts then take no longer than
# with every node joined, and a caterpillar's half as long.
_SPLICE_RATIO = 32


def _member_texts(tree: Dendrogram) -> list[str]:
    """Every node's members as the writer writes them, ascending, built from its children's.

    Over the reversed preorder, each node takes its larger child's member
    list and text, and splices the smaller child's members in (see
    :func:`_splice`), or merges the two lists and joins every name when the
    sides are near in size. A child's list is dropped once its parent has it.
    """
    names = [str(i) for i in range(tree.n)]  # every member is an index below n
    kids, sizes = tree.children.tolist(), tree.sizes.tolist()
    objects = tree.order[tree.start].tolist()  # a leaf's entry is its object
    lists: list = [None] * len(kids)
    texts: list = [None] * len(kids)
    for nid in reversed(tree.preorder):
        first, second = kids[nid]
        if first < 0:
            lists[nid], texts[nid] = [objects[nid]], names[objects[nid]]
            continue
        small, large = (first, second) if sizes[first] <= sizes[second] else (second, first)
        members, inserts = lists[large], lists[small]
        lists[first] = lists[second] = None
        if sizes[small] * _SPLICE_RATIO > sizes[large]:
            members = sorted(members + inserts)
            texts[nid] = _MEMBER_SEP.join(itemgetter(*members)(names))
        else:
            texts[nid] = _splice(members, texts[large], inserts, names)
        lists[nid] = members
    return texts


def _splice(members: list[int], text: str, inserts: list[int], names: list[str]) -> str:
    """The text of ascending ``members`` with ascending ``inserts`` placed in; ``members`` takes them too.

    ``text`` is the members' names joined by the writer's separator. Each
    inserted name goes before the first member above it, whose name is found
    in ``text`` from the previous cut; names above the last member go at the
    end. The members' names are copied in slices, never one by one.
    """
    pieces: list[str] = []
    at = cut = 0
    for obj in inserts:
        at = bisect_left(members, obj, at)
        if at == len(members):
            pieces += text[cut:], _MEMBER_SEP, names[obj]
            cut = len(text)
            continue
        # names ascend, so no name before this one holds its digits: the
        # first match from a name's start is the name itself
        found = text.find(names[members[at]], cut)
        pieces += text[cut:found], names[obj], _MEMBER_SEP
        cut = found
    pieces.append(text[cut:])
    # the sort merges the two ascending runs in place: a new list grown from
    # slices at every node left 4-6 MB more heap resident after a
    # caterpillar's write, and raised the benchmark's peak RSS
    members += inserts
    members.sort()
    return "".join(pieces)


def _as_index(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DivclustError(f"malformed tree JSON: {what} must be an integer")
    return value


def _as_members(values: list) -> list[int]:
    # A JSON value adds to an int only if it is an int or a bool: one float
    # makes the sum a float, and a string, null, list or object makes it
    # raise (a huge int beside a float overflows). A bool adds as 0 or 1, but
    # the member lists of an accepted tree ascend strictly from 0, so only
    # the first two members can equal 0 or 1; a bool after them fails the
    # structural checks instead.
    try:
        total = sum(values)
    except (TypeError, OverflowError):
        total = None
    if type(total) is not int or not all(type(v) is int for v in values[:2]):
        raise DivclustError("malformed tree JSON: member must be an integer")
    return values


_REQUIRED_FIELDS = frozenset({"id", "members", "level"})
_KNOWN_FIELDS = _REQUIRED_FIELDS | {"children"}


def tree_from_json(text: str) -> Dendrogram:
    """Parse and re-validate a serialized dendrogram, members included.

    Text exactly as ``tree_to_json`` writes it, with at most one trailing
    newline, is read by writing it back (see :func:`_read_own_text`); any
    other text is parsed as JSON and checked record by record. Both ways
    return the same tree for any text the first accepts.
    """
    tree = _read_own_text(text)
    return tree if tree is not None else _parse_tree_json(text)


# The writer's layout, read only as far as building needs: n, and each
# record's first member, level and children. Whatever these skip or accept
# too loosely, the text's compare with the written-back pieces rejects.
_HEAD = re.compile(r'\{\n  "n": (\d+),\n  "nodes": \[')
_RECORD = re.compile(
    r',?\n    \{\n      "id": \d+,\n      "members": \[\n        (\d+)[^\]]*\],'
    r'\n      "level": ([^,\n]+)(?:,\n      "children": \[\n        (\d+),\n        (\d+)\n      \])?'
    r'\n    \}')


def _read_own_text(text: str) -> Dendrogram | None:
    """The tree whose ``tree_to_json`` text is ``text`` (one trailing newline allowed), else None.

    The tree is built from each record's first member, level and children
    with the walk that checks every tree, then written back piece by piece
    against the text, so the member lists are never parsed. A text accepted
    here is the writer's text for the tree returned, which the JSON path
    would return too.
    """
    head = _HEAD.match(text)
    if head is None:
        return None
    objects, levels, kids = [], [], []
    try:
        n = int(head[1])
        # each record is matched where the last one ended, so no text is scanned twice
        pos = head.end()
        while record := _RECORD.match(text, pos):
            first, level, left, right = record.groups()
            objects.append(int(first))
            levels.append(float(level))
            kids.append((int(left), int(right)) if left else None)
            pos = record.end()
        tree = Dendrogram._built(n, kids, levels, objects)
    except (ValueError, DivclustError):
        return None
    # each member takes at least 10 characters of the written text (its
    # digits, and the separator or closing text after it), so a tree of
    # more members than that cannot match, and is not written back
    if 10 * int(tree.sizes.sum()) > len(text):
        return None
    pos = 0
    for piece in _json_pieces(tree):
        if not text.startswith(piece, pos):
            return None
        pos += len(piece)
    return tree if text[pos:pos + 2] in ("", "\n") else None


def _parse_tree_json(text: str) -> Dendrogram:
    """Any tree JSON text's tree, parsed with ``json`` and checked record by record."""
    try:
        payload = json.loads(text)
    except ValueError as exc:  # a syntax error, or an int of more digits than Python converts
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
        if not isinstance(rec, dict) or not rec.keys() >= _REQUIRED_FIELDS:
            raise DivclustError("malformed tree JSON: bad node record")
        if not rec.keys() <= _KNOWN_FIELDS:
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
    _check_records(n, ids, members, kids)
    return Dendrogram._built(n, kids, levels, [ms[0] for ms in members])


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
