"""Independently coded reference implementations for cross-checking.

The oracles stick to plain Python loops and the stdlib so they cannot
share a vectorization bug with the production code. Tests freeze oracle
outputs or compare them directly against the package.

The float references (``float_gaps`` and the three loops after it, and
``average_link_float``) are the exception: they keep the former numpy loops
of the splitters, which evaluate every gap afresh from plain sums at each
decision, of the MacNaughton-Smith tree, which gathers every node's table,
and of the average-link baseline, which scans the whole table of means for
each merge. So tests can require the incremental code to choose
bitwise alike on inputs whose sums round.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from divclust.core import _into_window
from divclust.criteria import _plain_sums, _side_means

# Packed pair values for points 0, 1, 10, 11 on a line:
# pairs (0,1), (0,2), (0,3), (1,2), (1,3), (2,3).
LINE4_VALUES = (1.0, 10.0, 11.0, 9.0, 10.0, 1.0)

CRITERIA = (
    "single",
    "complete",
    "average",
    "ward1",
    "ward2",
    "dunn",
    "dunn-variant",
    "silhouette",
)


def square_from_condensed(n, values):
    """Full square table from packed pair values, via its own pair walk."""
    s = [[0.0] * n for _ in range(n)]
    for (i, j), v in zip(itertools.combinations(range(n), 2), values):
        s[i][j] = v
        s[j][i] = v
    return s


def within_pairs(s, a):
    return [s[i][j] for i, j in itertools.combinations(sorted(a), 2)]


def cross_pairs(s, a, b):
    return [s[i][j] for i in sorted(a) for j in sorted(b)]


def diam(s, a):
    w = within_pairs(s, a)
    return max(w) if w else 0.0


def mean_within(s, a):
    w = within_pairs(s, a)
    return sum(w) / len(w) if w else 0.0


def side_means(s, own, other, x):
    """a(x), x's mean to the rest of its own side (0 if none), and b(x), its mean to the other."""
    rest = [y for y in own if y != x]
    a = sum(s[x][y] for y in rest) / len(rest) if rest else 0.0
    b = sum(s[x][y] for y in other) / len(other)
    return a, b


def silhouette_value(s, own, other, x):
    a, b = side_means(s, own, other, x)
    peak = max(a, b)
    if peak == 0.0:
        return 0.0
    return (b - a) / peak


def macnaughton_smith_peel(s, members):
    """Splinter-group peel: (splinter, remainder), first index winning every tie.

    The object farthest on average from the others seeds the splinter; then
    the remainder's object with the largest positive gap a(x) - b(x) moves
    over, until no gap is positive.
    """
    members = sorted(members)
    spread = [sum(s[x][y] for y in members) / (len(members) - 1) for x in members]
    splinter = [members[spread.index(max(spread))]]
    rest = [x for x in members if x not in splinter]
    while True:
        best, best_gap = None, 0.0
        for x in rest:
            a, b = side_means(s, rest, splinter, x)
            gap = a - b
            if gap > best_gap:
                best, best_gap = x, gap
        if best is None:
            return splinter, rest
        splinter.append(best)
        rest.remove(best)


def pddp_refinement(s, left):
    """PDDP's refinement passes over objects 0..k-1 from the side set ``left``.

    Each pass visits the objects in ascending order and moves every one
    whose gap a(x) - b(x) under the current sides is positive; passes stop
    when nothing moves or after k passes. Returns the final left set.
    """
    k = len(s)
    left = set(left)
    for _ in range(k):
        moved = False
        for x in range(k):
            right = [y for y in range(k) if y not in left]
            own, other = (sorted(left), right) if x in left else (right, sorted(left))
            a, b = side_means(s, own, other, x)
            if a - b > 0.0:
                left ^= {x}
                moved = True
        if not moved:
            break
    return left


def float_gaps(sub, mask):
    """a(x) - b(x) of every object under one side mask, from plain sums of the table."""
    masks = mask[None]
    a, b = _side_means(masks, _plain_sums(sub, masks), _plain_sums(sub, ~masks))
    return (a - b)[0]


def macnaughton_smith_float(sub):
    """Splinter-group mask of a table: the peel with every gap evaluated afresh."""
    k = len(sub)
    mask = np.zeros(k, dtype=bool)
    mask[int(np.argmax(sub.sum(axis=1) / (k - 1)))] = True
    while True:
        gap = float_gaps(sub, mask)
        gap[mask] = -np.inf
        j = int(np.argmax(gap))
        if not gap[j] > 0.0:
            return mask
        mask[j] = True


def macnaughton_smith_tree_float(m):
    """The MacNaughton-Smith tree of a DissimilarityMatrix, one full table per node.

    Returns (id, members, level, children) tuples like ``average_link``.
    Clusters split in FIFO order, each from its own gathered table brought
    into the magnitude window, by ``macnaughton_smith_float``; the side
    holding the cluster's first member becomes the first child. A node's
    level is the max of its table (+0.0 for a table of zeros).
    """
    square = m.square()
    members_of = [np.arange(m.n)]
    levels = {}
    children = {}
    queue = [0]
    for nid in queue:
        idx = members_of[nid]
        if idx.size < 2:
            continue
        sub = square.take(idx, 0).take(idx, 1)
        levels[nid] = max(0.0, float(sub.max()))
        mask = macnaughton_smith_float(_into_window(sub)[0])
        if not mask[0]:
            mask = ~mask
        for side in (mask, ~mask):
            members_of.append(idx[side])
            queue.append(len(members_of) - 1)
        children[nid] = (len(members_of) - 2, len(members_of) - 1)
    return [
        (i, tuple(members.tolist()), levels.get(i, 0.0), children.get(i))
        for i, members in enumerate(members_of)
    ]


def pddp_refinement_float(sub, start):
    """PDDP's refinement of the side mask ``start``, every gap evaluated afresh.

    Returns the final mask and the number of passes that moved an object.
    """
    k = len(sub)
    mask = start.copy()
    passes = 0
    for _ in range(k):
        moved = False
        gap = float_gaps(sub, mask)
        for x in range(k):
            if gap[x] > 0.0:
                mask[x] = not mask[x]
                moved = True
                gap = float_gaps(sub, mask)
        if not moved:
            break
        passes += 1
    return mask, passes


def score(token, s, a, b):
    """Reference score of one candidate bipartition.

    Sides are put in canonical order first so the float result depends
    only on the unordered partition, not on which side was passed first.
    """
    a = sorted(a)
    b = sorted(b)
    if b and (not a or b[0] < a[0]):
        a, b = b, a
    cross = cross_pairs(s, a, b)
    if token == "single":
        return min(cross)
    if token == "complete":
        return -max(diam(s, a), diam(s, b))
    if token == "average":
        return sum(cross) / len(cross)
    if token in ("ward1", "ward2"):
        power = 2 if token == "ward1" else 1
        na, nb = len(a), len(b)
        cr = sum(v**power for v in cross)
        wa = 2.0 * sum(v**power for v in within_pairs(s, a))
        wb = 2.0 * sum(v**power for v in within_pairs(s, b))
        return (na * nb / (na + nb)) * (2.0 * cr / (na * nb) - wa / na**2 - wb / nb**2)
    if token in ("dunn", "dunn-variant"):
        num = sum(cross) / len(cross)
        if token == "dunn":
            den = max(diam(s, a), diam(s, b))
        else:
            den = max(mean_within(s, a), mean_within(s, b))
        if den == 0.0:
            return math.inf if num > 0.0 else 0.0
        return num / den
    if token == "silhouette":
        union = sorted([*a, *b])
        vals = [
            silhouette_value(s, a if x in a else b, b if x in a else a, x)
            for x in union
        ]
        return sum(vals) / len(vals)
    raise AssertionError(f"oracle has no criterion {token!r}")


def two_seeds_best(s, members, token):
    """Exhaustive seed-pair enumeration: (best score, best sides, first-max)."""
    members = sorted(members)
    best_score = None
    best_sides = None
    for gi, gj in itertools.combinations(members, 2):
        left, right = [gi], [gj]
        for x in members:
            if x in (gi, gj):
                continue
            (left if s[x][gi] <= s[x][gj] else right).append(x)
        value = score(token, s, left, right)
        if best_score is None or value > best_score:
            best_score = value
            best_sides = (frozenset(left), frozenset(right))
    return best_score, best_sides


def average_link(s):
    """Plain average link: one (id, members, level, children) tuple per node.

    Leaves come first; each merge appends a node. The mean of two clusters
    is the direct sum over their member pairs divided by the product of
    their sizes, and the first minimum over cluster pairs ordered by
    (smallest member, smallest member) merges.
    """
    nodes = [(i, (i,), 0.0, None) for i in range(len(s))]
    active = list(range(len(s)))  # node ids, kept in order of smallest member
    while len(active) > 1:
        best = None
        for a, b in itertools.combinations(active, 2):
            ma, mb = nodes[a][1], nodes[b][1]
            level = sum(s[x][y] for x in ma for y in mb) / (len(ma) * len(mb))
            if best is None or level < best[0]:
                best = (level, a, b)
        level, a, b = best
        nodes.append((len(nodes), tuple(sorted(nodes[a][1] + nodes[b][1])), level, (a, b)))
        active[active.index(a)] = len(nodes) - 1
        active.remove(b)
    return nodes


def average_link_float(m):
    """Average link over a DissimilarityMatrix, one full-table argmin per merge.

    Returns (id, members, level, children) tuples like ``average_link``. The
    sums fold and the means divide as in the package, and the first minimum
    of the whole upper-triangle table in row-major order merges.
    """
    n = m.n
    nodes = [(i, (i,), 0.0, None) for i in range(n)]
    node_ids = list(range(n))
    sizes = np.ones(n)
    cross, shift = _into_window(m.square().copy())
    mean = np.where(np.tri(n, dtype=bool), np.inf, cross)
    for _ in range(n - 1):
        p, q = divmod(int(np.argmin(mean)), n)
        children = (node_ids[p], node_ids[q])
        level = max(float(np.ldexp(mean[p, q], shift)), *(nodes[c][2] for c in children))
        members = tuple(sorted(nodes[children[0]][1] + nodes[children[1]][1]))
        nodes.append((len(nodes), members, level, children))
        node_ids[p] = len(nodes) - 1
        cross[p, :] += cross[q, :]
        cross[:, p] += cross[:, q]
        sizes[p] += sizes[q]
        cross[q, :] = cross[:, q] = mean[q, :] = mean[:, q] = np.inf
        mean[p, p + 1:] = cross[p, p + 1:] / (sizes[p] * sizes[p + 1:])
        mean[:p, p] = cross[:p, p] / (sizes[:p] * sizes[p])
    return nodes


def all_bipartitions(members):
    """Every unordered two-block partition, each yielded exactly once."""
    ms = sorted(members)
    first, rest = ms[0], ms[1:]
    for r in range(len(rest)):
        for combo in itertools.combinations(rest, r):
            left = [first, *combo]
            right = [x for x in rest if x not in combo]
            yield left, right


def concordance_counts(dvals, uvals):
    """Direct quadruple loop over unordered pairs of distinct object pairs."""
    s_plus = 0
    s_minus = 0
    for a, b in itertools.combinations(range(len(dvals)), 2):
        dd = dvals[a] - dvals[b]
        uu = uvals[a] - uvals[b]
        if dd == 0.0 or uu == 0.0:
            continue
        if (dd > 0.0) == (uu > 0.0):
            s_plus += 1
        else:
            s_minus += 1
    return s_plus, s_minus


def pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)
