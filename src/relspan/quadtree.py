"""Compressed quadtree over [0,1)^d and the well-separated pair decomposition.

Leaves store exactly one point.  Chains of single-child nodes are collapsed,
so the tree has O(n) nodes regardless of spread.  Singleton leaves use the
degenerate cell at their point (zero extent), which makes the WSPD recursion
terminate for arbitrarily close pairs while keeping separation certificates
purely cell-based.

Bulk work (the WSPD, the shadows) runs on the tree's array form,
Quadtree.arrays, which is built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph_core import as_coords

MAX_DEPTH = 64


@dataclass
class QuadNode:
    id: int
    cell_min: np.ndarray
    cell_size: float  # 0.0 for a singleton leaf cell
    point_ids: np.ndarray
    depth: int
    parent: int | None = None
    children: list[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def diameter(self) -> float:
        return self.cell_size * np.sqrt(len(self.cell_min))


@dataclass(frozen=True)
class TreeArrays:
    """Array form of a quadtree with m nodes; id m is a padding node.

    The children of node i are children[child_ptr[i]:child_ptr[i + 1]] and
    its points point_ids[point_ptr[i]:point_ptr[i + 1]], both in the order
    of the node's lists.
    """

    cell_min: np.ndarray  # (m, d)
    cell_size: np.ndarray  # (m,)
    diameter: np.ndarray  # (m,) cell_size * sqrt(d)
    child_ptr: np.ndarray  # (m + 1,)
    children: np.ndarray
    point_ptr: np.ndarray  # (m + 1,)
    point_ids: np.ndarray
    size: np.ndarray  # (m + 1,) points per node, 0 for the padding node
    postorder: np.ndarray  # node ids in Quadtree.postorder() order
    paths: np.ndarray  # (n_points, height): each point's cells, root first, padded with m

    @property
    def pad(self) -> int:
        return self.size.size - 1

    def count(self, ids: np.ndarray) -> np.ndarray:
        """Per node (padding included, as 0), how many of the points ids it holds."""
        counts = np.bincount(self.paths[ids].ravel(), minlength=self.pad + 1)
        counts[self.pad] = 0
        return counts


@dataclass
class Quadtree:
    nodes: list[QuadNode]
    root: int
    points: np.ndarray  # normalized coords in [0,1)^d
    n_points: int

    def postorder(self) -> list[int]:
        order: list[int] = []
        stack = [(self.root, False)]
        while stack:
            idx, done = stack.pop()
            if done:
                order.append(idx)
            else:
                stack.append((idx, True))
                for c in self.nodes[idx].children:
                    stack.append((c, False))
        return order

    def leaves(self) -> list[int]:
        return [node.id for node in self.nodes if node.is_leaf]

    @cached_property
    def arrays(self) -> TreeArrays:
        """The array form, built on first use and kept, so only trees that
        need it pay for it."""
        nodes = self.nodes
        m = len(nodes)
        size = np.array([len(node.point_ids) for node in nodes] + [0], dtype=np.int64)
        nkids = np.array([len(node.children) for node in nodes], dtype=np.int64)
        cell_size = np.array([node.cell_size for node in nodes], dtype=np.float64)
        cell_min = np.array([node.cell_min for node in nodes], dtype=np.float64)
        level = [0] * m
        for node in nodes[1:]:  # a child's id is larger than its parent's
            level[node.id] = level[node.parent] + 1
        level = np.asarray(level, dtype=np.int64)
        point_ids = np.concatenate([node.point_ids for node in nodes])
        owner = np.repeat(np.arange(m, dtype=np.int64), size[:-1])
        paths = np.full((self.n_points, int(level.max()) + 1), m, dtype=np.int64)
        paths[point_ids, level[owner]] = owner
        return TreeArrays(
            cell_min=cell_min, cell_size=cell_size,
            diameter=cell_size * np.sqrt(cell_min.shape[1]),
            child_ptr=np.concatenate([[0], np.cumsum(nkids)]),
            children=np.array([c for node in nodes for c in node.children], dtype=np.int64),
            point_ptr=np.concatenate([[0], np.cumsum(size[:-1])]),
            point_ids=point_ids, size=size,
            postorder=np.asarray(self.postorder(), dtype=np.int64), paths=paths)


def build_quadtree(points, already_normalized: bool = False) -> Quadtree:
    """Compressed quadtree; points are normalized into [0,1)^d unless the
    caller says they already are."""
    coords = as_coords(points)
    n, d = coords.shape
    if not already_normalized:
        coords, _, _ = normalize_unit(coords)
    nodes: list[QuadNode] = []

    def new_node(cell_min, cell_size, ids, depth, parent):
        node = QuadNode(len(nodes), np.asarray(cell_min, dtype=np.float64),
                        float(cell_size), np.asarray(ids, dtype=np.int64),
                        depth, parent)
        nodes.append(node)
        return node.id

    root = new_node(np.zeros(d), 1.0, np.arange(n), 0, None)
    stack = [root]
    while stack:
        idx = stack.pop()
        node = nodes[idx]
        ids = node.point_ids
        if len(ids) == 1:
            # collapse to the degenerate cell at the point
            node.cell_min = coords[ids[0]].copy()
            node.cell_size = 0.0
            continue
        cell_min, size, depth = node.cell_min, node.cell_size, node.depth
        while True:
            if depth > MAX_DEPTH:
                raise ValueError("quadtree depth exceeded: spread too large or duplicate points")
            half = size / 2.0
            mid = cell_min + half
            codes = ((coords[ids] >= mid) << np.arange(d)).sum(axis=1)
            present = np.unique(codes)
            if len(present) > 1:
                break
            # single occupied subcell: compress the chain
            code = int(present[0])
            offs = np.array([(code >> k) & 1 for k in range(d)], dtype=np.float64)
            cell_min = cell_min + offs * half
            size = half
            depth += 1
        node.cell_min, node.cell_size, node.depth = cell_min, size, depth
        for code in present.tolist():
            sub = ids[codes == code]
            offs = np.array([(code >> k) & 1 for k in range(d)], dtype=np.float64)
            child = new_node(cell_min + offs * half, half, sub, depth + 1, idx)
            node.children.append(child)
            stack.append(child)
    return Quadtree(nodes, root, coords, n)


def normalize_unit(coords: np.ndarray, margin: float = 0.125) -> tuple[np.ndarray, float, np.ndarray]:
    """Map points into [margin, 1-margin)^d; returns (normalized, scale, offset)
    with original = normalized/scale ... offset arithmetic preserved for
    distance conversion: dist_orig = dist_norm / scale."""
    coords = np.asarray(coords, dtype=np.float64)
    lo = coords.min(axis=0)
    extent = float((coords.max(axis=0) - lo).max())
    if extent <= 0:
        raise ValueError("degenerate point set")
    scale = (1.0 - 2.0 * margin) / extent * (1.0 - 1e-12)
    normed = (coords - lo) * scale + margin
    return normed, scale, lo


def max_log2_spread(d: int, margin: float) -> float:
    """Largest log2(spread) at which normalize_unit keeps distinct points
    distinct, so that the quadtree can separate them.

    Two points at distance >= diameter / spread differ by at least
    diameter / (spread sqrt d) along some axis, which normalize_unit maps
    to at least (1 - 2 margin)(1 - 1e-12) / (spread sqrt d), since the
    extent is at most the diameter.  Each normalized coordinate lies below
    1 and carries three roundings (subtract, scale, shift): an error below
    2^-52, so below 2^-51 on a difference.  The limit keeps the smallest
    normalized difference above that.
    """
    return math.log2((1.0 - 2.0 * margin) * (1.0 - 1e-12) / math.sqrt(d)) + 51


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
    arr = tree.arrays
    nkids = np.diff(arr.child_ptr)
    leaf = nkids == 0
    a = b = np.array([tree.root], dtype=np.int64)
    levels = []  # per level: (emit mask, child offsets, emitted u, v, separation)
    while a.size:
        lo_a, lo_b = arr.cell_min[a], arr.cell_min[b]
        gap_lo = lo_a - (lo_b + arr.cell_size[b][:, None])
        gap_hi = lo_b - (lo_a + arr.cell_size[a][:, None])
        gaps = np.maximum(np.maximum(gap_lo, gap_hi), 0.0)
        dist = np.sqrt((gaps ** 2).sum(axis=1))
        da, db = arr.diameter[a], arr.diameter[b]
        big = np.maximum(da, db)
        same = a == b
        emit = ~same & (dist >= s * big)
        # leaves have zero-extent cells, so the larger-cell node never is one
        split_a = ~same & ~emit & ~leaf[a] & ((da >= db) | leaf[b])
        split_b = ~same & ~emit & ~split_a

        selfs = np.nonzero(same & ~leaf[a])[0]
        item_s, i, j = _child_pairs(nkids[a[selfs]], diagonal=True)
        item_s = selfs[item_s]
        base = arr.child_ptr[a[item_s]]
        parts = [(item_s, arr.children[base + i], arr.children[base + j])]
        for mask, first in ((split_a, True), (split_b, False)):
            items = np.nonzero(mask)[0]
            split = (a if first else b)[items]
            cnt = nkids[split]
            item = np.repeat(items, cnt)
            # child k of item t sits at child_ptr[split[t]] + k
            shift = np.repeat(arr.child_ptr[split] - (np.cumsum(cnt) - cnt), cnt)
            child = arr.children[shift + np.arange(item.size)]
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
    arr = tree.arrays
    parent, i, j = _child_pairs(np.diff(arr.child_ptr), diagonal=False)
    base = arr.child_ptr[parent]
    return parent, i, j, arr.children[base + i], arr.children[base + j]


def wspd_point_pair_counts(tree: Quadtree, pairs: WspdPairs) -> np.ndarray:
    """How many WSPD pairs each point participates in: the pairs at the
    cells on its root path."""
    arr = tree.arrays
    per_node = (np.bincount(pairs.u, minlength=arr.pad + 1)
                + np.bincount(pairs.v, minlength=arr.pad + 1))
    per_node[arr.pad] = 0
    return per_node[arr.paths].sum(axis=1)
