"""Independent reference computations for checking divclust outputs.

Pure Python, sharing no code with the package. Distances come in as a
square list of rows, trees as plain node records ``(members, level,
children)`` indexed by node id, exactly as tree JSON stores them.
"""

from __future__ import annotations

import math
from itertools import combinations

CRITERIA = ("single", "complete", "average", "ward1", "ward2", "dunn", "dunn-variant", "silhouette")


# ---------------------------------------------------------------- distances


def euclidean_rows(points):
    """Square Euclidean distance rows of a list of coordinate rows."""
    n = len(points)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        pi = points[i]
        for j in range(i + 1, n):
            value = math.sqrt(sum((a - b) * (a - b) for a, b in zip(pi, points[j])))
            rows[i][j] = rows[j][i] = value
    return rows


def condensed(rows):
    """Upper-triangle values of square rows, row-major (0,1), (0,2), ..."""
    n = len(rows)
    return [rows[i][j] for i in range(n) for j in range(i + 1, n)]


# ---------------------------------------------------------------- trees


def root_of(nodes):
    """Id of the only node that is nobody's child."""
    claimed = set()
    for _, _, children in nodes:
        if children is not None:
            claimed.update(children)
    roots = [i for i in range(len(nodes)) if i not in claimed]
    if len(roots) != 1:
        raise ValueError(f"tree has {len(roots)} roots")
    return roots[0]


def postorder(nodes):
    """Node ids, children before parents, without recursion."""
    order = []
    stack = [root_of(nodes)]
    while stack:
        nid = stack.pop()
        order.append(nid)
        children = nodes[nid][2]
        if children is not None:
            stack.extend(children)
    order.reverse()
    return order


def depth(nodes):
    """Edges on the longest root-to-leaf path."""
    best = 0
    stack = [(root_of(nodes), 0)]
    while stack:
        nid, d = stack.pop()
        best = max(best, d)
        children = nodes[nid][2]
        if children is not None:
            stack.extend((c, d + 1) for c in children)
    return best


def is_caterpillar(nodes):
    """Every internal node has at least one leaf child."""
    for _, _, children in nodes:
        if children is not None and all(nodes[c][2] is not None for c in children):
            return False
    return True


def leaf_sets(nodes):
    """Members of every node rebuilt from the leaves up, as sorted lists."""
    sets = [None] * len(nodes)
    for nid in postorder(nodes):
        members, _, children = nodes[nid]
        if children is None:
            sets[nid] = list(members)
        else:
            sets[nid] = sorted(sets[children[0]] + sets[children[1]])
    return sets


def cophenetic(nodes, n):
    """Condensed cophenetic values: each pair takes the level of its lowest common node.

    Every pair is assigned exactly once, at the node whose two children
    separate it, so the work is n(n-1)/2 assignments.
    """
    sets = leaf_sets(nodes)
    out = [None] * (n * (n - 1) // 2)
    for members, level, children in nodes:
        if children is None:
            continue
        for i in sets[children[0]]:
            for j in sets[children[1]]:
                lo, hi = (i, j) if i < j else (j, i)
                out[lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)] = level
    if any(v is None for v in out):
        raise ValueError("children do not separate every pair")
    return out


def node_diameters(nodes, rows):
    """Largest within-node distance of every node, from the leaves up.

    The diameter of a node is the largest of its children's diameters and
    of the distances across them; leaves have diameter zero.
    """
    sets = leaf_sets(nodes)
    diam = [0.0] * len(nodes)
    for nid in postorder(nodes):
        children = nodes[nid][2]
        if children is None:
            continue
        a, b = children
        across = max(rows[i][j] for i in sets[a] for j in sets[b])
        diam[nid] = max(diam[a], diam[b], across)
    return diam


def is_ultrametric(values, n):
    """True when every triangle's two largest sides are equal.

    Equivalent test in O(n^2 log n): the values equal their own minimax
    path distances (the single-link cophenetic), computed by Kruskal merges.
    """
    edges = sorted(
        (values[i * n - i * (i + 1) // 2 + (j - i - 1)], i, j)
        for i in range(n)
        for j in range(i + 1, n)
    )
    group = list(range(n))
    members = [[i] for i in range(n)]
    minimax = [None] * len(values)
    for w, i, j in edges:
        gi, gj = group[i], group[j]
        if gi == gj:
            continue
        for a in members[gi]:
            for b in members[gj]:
                lo, hi = (a, b) if a < b else (b, a)
                minimax[lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)] = w
        if len(members[gi]) < len(members[gj]):
            gi, gj = gj, gi
        for b in members[gj]:
            group[b] = gi
        members[gi].extend(members[gj])
        members[gj] = []
    return list(values) == minimax


# ---------------------------------------------------------------- rank statistics


def _strict_inversions(seq):
    """Pairs i < j with seq[i] > seq[j], by bottom-up merge sort."""
    items = list(seq)
    count = 0
    width = 1
    size = len(items)
    while width < size:
        merged = []
        for lo in range(0, size, 2 * width):
            left = items[lo : lo + width]
            right = items[lo + width : lo + 2 * width]
            a = b = 0
            while a < len(left) and b < len(right):
                if right[b] < left[a]:
                    merged.append(right[b])
                    count += len(left) - a
                    b += 1
                else:
                    merged.append(left[a])
                    a += 1
            merged.extend(left[a:])
            merged.extend(right[b:])
        items = merged
        width *= 2
    return count


def _tied_pairs(keys):
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return sum(c * (c - 1) // 2 for c in counts.values())


def concordance_counts(d, u):
    """Exact (S+, S-) over all pairs of positions, in O(P log P).

    A pair of positions is concordant when d and u order it the same way
    strictly, discordant when they order it oppositely, and excluded when
    either is tied; ties are exact float equality.
    """
    p = len(d)
    total = p * (p - 1) // 2
    untied = total - _tied_pairs(d) - _tied_pairs(u) + _tied_pairs(zip(d, u))
    by_u = sorted(zip(u, d))
    s_minus = _strict_inversions(x for _, x in by_u)
    return untied - s_minus, s_minus


def gamma(s_plus, s_minus):
    return (s_plus - s_minus) / (s_plus + s_minus)


def tau(s_plus, s_minus, p):
    return (s_plus - s_minus) / (p * (p - 1) / 2)


# ---------------------------------------------------------------- two-seeds brute force


def _diameter(rows, side):
    return max((rows[i][j] for i, j in combinations(side, 2)), default=0.0)


def _mean_within(rows, side):
    if len(side) < 2:
        return 0.0
    return sum(rows[i][j] for i, j in combinations(side, 2)) / (len(side) * (len(side) - 1) / 2)


def _ratio(num, den):
    if den == 0.0:
        return math.inf if num > 0.0 else 0.0
    return num / den


def _ward(rows, left, right, power):
    cross = sum(rows[i][j] ** power for i in left for j in right)
    wl = 2.0 * sum(rows[i][j] ** power for i, j in combinations(left, 2))
    wr = 2.0 * sum(rows[i][j] ** power for i, j in combinations(right, 2))
    nl, nr = len(left), len(right)
    return nl * nr / (nl + nr) * (2.0 * cross / (nl * nr) - wl / nl**2 - wr / nr**2)


def _silhouette(rows, left, right):
    widths = []
    for own, other in ((left, right), (right, left)):
        for x in own:
            a = sum(rows[x][y] for y in own) / (len(own) - 1) if len(own) > 1 else 0.0
            b = sum(rows[x][y] for y in other) / len(other)
            top = max(a, b)
            widths.append((b - a) / top if top > 0.0 else 0.0)
    return sum(widths) / len(widths)


def score_split(rows, left, right, criterion):
    """Split quality, higher is better, for the eight criterion tokens."""
    if criterion == "single":
        return min(rows[i][j] for i in left for j in right)
    if criterion == "complete":
        return -max(_diameter(rows, left), _diameter(rows, right))
    mean_cross = sum(rows[i][j] for i in left for j in right) / (len(left) * len(right))
    if criterion == "average":
        return mean_cross
    if criterion == "ward1":
        return _ward(rows, left, right, 2)
    if criterion == "ward2":
        return _ward(rows, left, right, 1)
    if criterion == "dunn":
        return _ratio(mean_cross, max(_diameter(rows, left), _diameter(rows, right)))
    if criterion == "dunn-variant":
        return _ratio(mean_cross, max(_mean_within(rows, left), _mean_within(rows, right)))
    if criterion == "silhouette":
        return _silhouette(rows, left, right)
    raise ValueError(f"unknown criterion {criterion!r}")


def best_two_seeds_score(rows, members, criterion):
    """Highest score over every seed pair's nearer-seed split of ``members``."""
    best = -math.inf
    for a, b in combinations(members, 2):
        left, right = [], []
        for x in members:
            if x == a or (x != b and rows[x][a] <= rows[x][b]):
                left.append(x)
            else:
                right.append(x)
        best = max(best, score_split(rows, left, right, criterion))
    return best


def close(a, b, rel=1e-9):
    """Equal up to a relative tolerance; infinities must match exactly."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
