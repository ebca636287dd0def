"""Compressed quadtree over [0,1)^d and the well-separated pair decomposition.

Leaves store exactly one point.  Chains of single-child nodes are collapsed,
so the tree has O(n) nodes regardless of spread.  Singleton leaves use the
degenerate cell at their point (zero extent), which makes the WSPD recursion
terminate for arbitrarily close pairs while keeping separation certificates
purely cell-based.

The tree is a set of arrays, built level by level over all pending cells at
once, and the WSPD and the shadows run on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import PointSet

MAX_DEPTH = 64


@dataclass(frozen=True)
class Quadtree:
    """Compressed quadtree with m nodes as arrays: node 0 is the root and
    id m a padding node.

    The children of node i are children[child_ptr[i]:child_ptr[i + 1]], in
    ascending child-code order, and its points
    point_ids[point_ptr[i]:point_ptr[i + 1]], ascending.  Node ids are those
    of a build that pops cells from a stack and numbers a popped cell's
    children consecutively.
    """

    cell_min: np.ndarray  # (m, d)
    cell_size: np.ndarray  # (m,), 0.0 for a singleton leaf cell
    diameter: np.ndarray  # (m,) cell_size * sqrt(d)
    child_ptr: np.ndarray  # (m + 1,)
    children: np.ndarray
    point_ptr: np.ndarray  # (m + 1,)
    point_ids: np.ndarray
    size: np.ndarray  # (m + 1,) points per node, 0 for the padding node
    postorder: np.ndarray  # node ids, children before parents, last child first
    paths: np.ndarray  # (n_points, height): each point's cells, root first, padded with m

    @property
    def n_points(self) -> int:
        return self.paths.shape[0]

    @property
    def pad(self) -> int:
        return self.size.size - 1

    def count(self, ids: np.ndarray) -> np.ndarray:
        """Per node (padding included, as 0), how many of the points ids it holds."""
        counts = np.bincount(self.paths[ids].ravel(), minlength=self.pad + 1)
        counts[self.pad] = 0
        return counts


def build_quadtree(normed, already_normalized: bool = True) -> Quadtree:
    """Compressed quadtree of points in [0,1)^d, such as PointSet.normed;
    already_normalized must be True (older calls pass it).

    The build runs level by level over all pending multi-point cells at
    once.  Each level takes the child code of every point, compresses in
    place the cells whose points all share one code and splits the others
    into children, in ascending code order.  Nodes get creation ids as they
    are made; their final ids and the postorder follow from subtree sizes.
    """
    if not already_normalized:
        raise ValueError("build_quadtree takes normalized points: PointSet(coords).normed")
    coords = np.asarray(normed, dtype=np.float64)
    n, d = coords.shape
    bits = np.arange(d)
    cap = max(2 * n - 1, 1)  # a compressed tree over n points has at most 2n - 1 nodes
    # per creation id (node 0 is the root)
    parent = np.zeros(cap, dtype=np.int64)
    level = np.zeros(cap, dtype=np.int64)
    cell_min = np.zeros((cap, d), dtype=np.float64)
    cell_size = np.ones(cap, dtype=np.float64)
    batches = []  # creation ids made together: the children of one level's splits
    # (point, creation id) of every node's points, node after node
    members, owners = [np.arange(n, dtype=np.int64)], [np.zeros(n, dtype=np.int64)]
    m = 1
    if n == 1:
        cell_min[0], cell_size[0] = coords[0], 0.0
    # the pending multi-point cells and their points, grouped by cell
    node = np.zeros(int(n > 1), dtype=np.int64)
    lo, side = cell_min[node], cell_size[node]
    pts = np.arange(n if n > 1 else 0, dtype=np.int64)
    own = np.zeros(pts.size, dtype=np.int64)
    depth = 0
    while node.size:
        if depth > MAX_DEPTH:
            raise ValueError("quadtree depth exceeded: spread too large or duplicate points")
        half = side / 2.0
        codes = ((coords[pts] >= (lo + half[:, None])[own]) << bits).sum(axis=1)
        order = np.argsort(own * (1 << d) + codes, kind="stable")
        pts, own, codes = pts[order], own[order], codes[order]
        first = np.ones(pts.size, dtype=bool)
        first[1:] = (own[1:] != own[:-1]) | (codes[1:] != codes[:-1])
        start = np.flatnonzero(first)  # one group per occupied child cell
        g_own, g_size = own[start], np.diff(np.append(start, pts.size))
        offs = ((codes[start][:, None] >> bits) & 1).astype(np.float64)
        g_lo, g_side = lo[g_own] + offs * half[g_own][:, None], half[g_own]
        # a cell with one occupied child compresses in place; the others keep
        # their cell and make one node per occupied child
        split = np.bincount(g_own, minlength=node.size) > 1
        cell_min[node[split]], cell_size[node[split]] = lo[split], side[split]
        born = split[g_own]
        g_node = node[g_own]
        new = np.arange(m, m + int(born.sum()))
        parent[new], g_node[born] = g_node[born], new
        level[new] = level[parent[new]] + 1
        cell_min[new], cell_size[new] = g_lo[born], g_side[born]
        one = born & (g_size == 1)  # singleton cells become the degenerate cell at their point
        cell_min[g_node[one]], cell_size[g_node[one]] = coords[pts[start[one]]], 0.0
        if new.size:
            batches.append((m, m + new.size))
            members.append(pts[np.repeat(born, g_size)])
            owners.append(np.repeat(new, g_size[born]))
            m += new.size
        keep = ~one
        node, lo, side = g_node[keep], g_lo[keep], g_side[keep]
        pts = pts[np.repeat(keep, g_size)]
        own = np.repeat(np.arange(node.size), g_size[keep])
        depth += 1

    parent, level = parent[:m], level[:m]
    ids, post = _stack_numbering(parent, level, batches)
    by_id = np.empty(m, dtype=np.int64)
    by_id[ids] = np.arange(m)
    up = ids[parent[by_id[1:]]]  # the parent of each non-root node, by final id
    member, owner = np.concatenate(members), ids[np.concatenate(owners)]
    size = np.bincount(owner, minlength=m + 1)
    paths = np.full((n, int(level.max()) + 1), m, dtype=np.int64)
    paths[member, level[by_id][owner]] = owner
    cell_size = cell_size[by_id]
    return Quadtree(
        cell_min=cell_min[by_id], cell_size=cell_size, diameter=cell_size * np.sqrt(d),
        child_ptr=np.concatenate([[0], np.cumsum(np.bincount(up, minlength=m))]),
        children=1 + np.argsort(up, kind="stable"),
        point_ptr=np.concatenate([[0], np.cumsum(size[:-1])]),
        point_ids=member[np.argsort(owner, kind="stable")],
        size=size, postorder=post, paths=paths)


def _stack_numbering(parent: np.ndarray, level: np.ndarray, batches) -> tuple[np.ndarray, ...]:
    """(final id by creation id, postorder of final ids) of a tree whose
    batches of siblings come in creation order, parents before children.

    The final ids are those of a build that pops nodes from a stack and
    numbers a popped node's children next, in code order, then pushes them
    in that order; it pops them in the preorder that visits children
    last-first.  The postorder (last child first) is the reverse of the
    preorder that visits children first-first.  A node's positions in the
    two preorders add up to its level plus the nodes outside its subtree.
    """
    m = parent.size
    below = np.zeros(m, dtype=np.int64)  # descendants
    for s, e in reversed(batches):
        np.add.at(below, parent[s:e], below[s:e] + 1)
    pre = np.zeros(m, dtype=np.int64)  # position in the first-first preorder
    for s, e in batches:
        w = below[s:e] + 1
        ahead = np.cumsum(w) - w
        head = np.ones(e - s, dtype=bool)  # the first child of its parent
        head[1:] = parent[s + 1:e] != parent[s:e - 1]
        pre[s:e] = pre[parent[s:e]] + 1 + ahead - ahead[head][np.cumsum(head) - 1]
    popped = level + (m - 1 - below) - pre
    ids = np.zeros(m, dtype=np.int64)
    ids[1 + np.argsort(popped[parent[1:]], kind="stable")] = np.arange(1, m)
    post = np.empty(m, dtype=np.int64)
    post[m - 1 - pre] = ids
    return ids, post


def normalize_unit(coords) -> tuple[np.ndarray, float, np.ndarray]:
    """(normed, scale, offset) of PointSet(coords), for calls written
    against this older form of the contract."""
    ps = PointSet(coords)
    return ps.normed, ps.scale, ps.offset


# ---------------------------------------------------------------------------
# WSPD
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WspdPairs:
    """Well-separated pairs as arrays, in the order the recursive pair
    splitting emits them: pair i joins the cells u[i] and v[i], and
    separation[i] = dist(cell_u, cell_v) / max(diam_u, diam_v), inf when
    both diameters are 0."""

    u: np.ndarray
    v: np.ndarray
    separation: np.ndarray

    def __len__(self) -> int:
        return int(self.u.size)


def _child_pairs(nkids: np.ndarray, diagonal: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For items with nkids[t] children each, every child index pair i <= j
    (i < j unless diagonal), item by item and row-major within an item, as
    (item, i, j)."""
    ti, tj = np.triu_indices(int(nkids.max(initial=0)), 0 if diagonal else 1)
    item = np.repeat(np.arange(nkids.size), ti.size)
    i, j = np.tile(ti, nkids.size), np.tile(tj, nkids.size)
    keep = j < nkids[item]
    return item[keep], i[keep], j[keep]


def build_wspd(tree: Quadtree, s: float) -> WspdPairs:
    """Pair splitting: emit a pair when the cell-separation certificate
    holds, else split the node with the larger cell.  Every unordered point
    pair is covered by exactly one emitted pair.

    The recursion runs level by level over arrays.  Each level's items keep
    the recursion's order, children after their parent in order, so an
    item's position in the recursive emission order is its parent's plus
    the pairs emitted under its earlier siblings.
    """
    if s <= 0:
        raise ValueError("separation must be positive")
    nkids = np.diff(tree.child_ptr)
    leaf = nkids == 0
    a = b = np.zeros(1, dtype=np.int64)
    levels = []  # per level: (emit mask, child offsets, emitted u, v, separation)
    while a.size:
        lo_a, lo_b = tree.cell_min[a], tree.cell_min[b]
        gap_lo = lo_a - (lo_b + tree.cell_size[b][:, None])
        gap_hi = lo_b - (lo_a + tree.cell_size[a][:, None])
        gaps = np.maximum(np.maximum(gap_lo, gap_hi), 0.0)
        dist = np.sqrt((gaps ** 2).sum(axis=1))
        da, db = tree.diameter[a], tree.diameter[b]
        big = np.maximum(da, db)
        same = a == b
        emit = ~same & (dist >= s * big)
        # leaves have zero-extent cells, so the larger-cell node never is one
        split_a = ~same & ~emit & ~leaf[a] & ((da >= db) | leaf[b])
        split_b = ~same & ~emit & ~split_a

        selfs = np.nonzero(same & ~leaf[a])[0]
        item_s, i, j = _child_pairs(nkids[a[selfs]], diagonal=True)
        item_s = selfs[item_s]
        base = tree.child_ptr[a[item_s]]
        parts = [(item_s, tree.children[base + i], tree.children[base + j])]
        for mask, first in ((split_a, True), (split_b, False)):
            items = np.nonzero(mask)[0]
            split = (a if first else b)[items]
            cnt = nkids[split]
            item = np.repeat(items, cnt)
            # child k of item t sits at child_ptr[split[t]] + k
            shift = np.repeat(tree.child_ptr[split] - (np.cumsum(cnt) - cnt), cnt)
            child = tree.children[shift + np.arange(item.size)]
            parts.append((item, child, b[item]) if first else (item, a[item], child))
        item = np.concatenate([p[0] for p in parts])
        order = np.argsort(item, kind="stable")
        cnt = np.bincount(item, minlength=a.size)

        big_e = big[emit]
        with np.errstate(divide="ignore", invalid="ignore"):
            sep = np.where(big_e > 0, dist[emit] / big_e, np.inf)
        levels.append((emit, np.concatenate([[0], np.cumsum(cnt)]), a[emit], b[emit], sep))
        a = np.concatenate([p[1] for p in parts])[order]
        b = np.concatenate([p[2] for p in parts])[order]

    # pairs emitted at or below each item, from the deepest level up
    below = [None] * len(levels)
    for t in range(len(levels) - 1, -1, -1):
        emit, off = levels[t][:2]
        below[t] = emit.astype(np.int64)
        if t + 1 < len(levels):
            cum = np.concatenate([[0], np.cumsum(below[t + 1])])
            below[t] += cum[off[1:]] - cum[off[:-1]]
    total = int(below[0].sum())
    u = np.empty(total, dtype=np.int64)
    v = np.empty(total, dtype=np.int64)
    separation = np.empty(total, dtype=np.float64)
    start = np.zeros(1, dtype=np.int64)  # each item's first emission position
    for t, (emit, off, eu, ev, sep) in enumerate(levels):
        pos = start[emit]
        u[pos], v[pos], separation[pos] = eu, ev, sep
        if t + 1 < len(levels):
            parent = np.repeat(np.arange(start.size), np.diff(off))
            before = np.cumsum(below[t + 1]) - below[t + 1]
            start = start[parent] + before - before[off[parent]]
    return WspdPairs(u, v, separation)


def sibling_pairs(tree: Quadtree) -> tuple[np.ndarray, ...]:
    """Every pair of sibling cells as (parent, i, j, child i, child j), with
    i < j indexing the parent's children, parents in id order."""
    parent, i, j = _child_pairs(np.diff(tree.child_ptr), diagonal=False)
    base = tree.child_ptr[parent]
    return parent, i, j, tree.children[base + i], tree.children[base + j]


def wspd_point_pair_counts(tree: Quadtree, pairs: WspdPairs) -> np.ndarray:
    """How many WSPD pairs each point participates in: the pairs at the
    cells on its root path."""
    per_node = (np.bincount(pairs.u, minlength=tree.pad + 1)
                + np.bincount(pairs.v, minlength=tree.pad + 1))
    per_node[tree.pad] = 0
    return per_node[tree.paths].sum(axis=1)
