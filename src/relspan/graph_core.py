"""Shared graph/point data model and the path oracles used by every verifier.

Vertex ids are 0-based everywhere.  For graphs on the integer line, vertex i
sits at position i, so the gap weight of an edge (u, v) is |u - v|.  Graphs
are immutable after construction: edge arrays are canonicalized (u < v,
lexicographically sorted, deduplicated) and marked read-only.

Every builder marks its edges in one EdgeSink, and every graph, built or
loaded, goes through WeightedGraph.from_pairs, the one place that orients,
drops self-loops, sorts and deduplicates edges.

An edge file holds one decimal "u v" line per canonical edge.  It stores no
weights: loading recomputes them from the metric, as for any other edge list.

The path oracles are Dijkstra over the alive subgraph (Euclidean stretch) and
a batched monotone breadth-first search on the line (exact 1D paths); the
connectivity oracle is the alive subgraph's largest component.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

REL_TOL = 1e-9  # relative tolerance for path-length comparisons
SAVE_CHUNK = 1 << 18  # edges formatted and written at a time by save_edges
MAX_N = math.isqrt(2 ** 63 - 1)  # from_pairs keys an edge lo * n + hi < n^2 in int64
_DIJKSTRA_BLOCK = 256  # Dijkstra sources per block; bounds a block's rows to 256 x n


# ---------------------------------------------------------------------------
# vertex sets
# ---------------------------------------------------------------------------

def pow2_at_least(x) -> int:
    """Smallest power of two >= x (exact, works for Fractions)."""
    t = 1
    while t < x:
        t <<= 1
    return t


def vertex_ids(ids, n: int) -> np.ndarray:
    """int64 array of vertex ids in the given order, validated against n."""
    arr = np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids, dtype=np.int64)
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= n):
        raise ValueError(f"vertex id out of range [0, {n})")
    return arr.reshape(-1)


def clean_vertex_set(ids, n: int) -> np.ndarray:
    """Sorted, deduplicated int64 array of vertex ids, validated against n.

    Strictly increasing ids are neither sorted again nor copied: an int64
    array comes back as a view of itself."""
    arr = vertex_ids(ids, n)
    if (arr[1:] > arr[:-1]).all():
        return arr
    arr = np.sort(arr)
    first = np.ones(arr.size, dtype=bool)
    first[1:] = arr[1:] != arr[:-1]
    return arr[first]


# ---------------------------------------------------------------------------
# point sets
# ---------------------------------------------------------------------------

@dataclass
class PointSet:
    """Points in R^d with cached diameter / closest-pair / spread."""

    coords: np.ndarray  # (n, d) float64

    def __post_init__(self):
        coords = np.ascontiguousarray(np.atleast_2d(np.asarray(self.coords, dtype=np.float64)))
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    @cached_property
    def _extremes(self) -> tuple[float, float]:
        """(diameter, closest-pair distance): the largest and, off the
        diagonal, the smallest squared distance of one exact pairwise pass,
        chunked so memory stays bounded."""
        far, near = 0.0, math.inf
        for start in range(0, self.n, 1024):
            block = self.coords[start:start + 1024]
            d2 = ((block[:, None, :] - self.coords[None, :, :]) ** 2).sum(axis=2)
            far = max(far, float(d2.max()))
            rows = np.arange(block.shape[0])
            d2[rows, start + rows] = np.inf
            near = min(near, float(d2.min()))
        return math.sqrt(far), math.sqrt(near)

    @property
    def diameter(self) -> float:
        return self._extremes[0]

    @property
    def closest_pair(self) -> float:
        if self._extremes[1] <= 0.0:
            raise ValueError("point set contains duplicate points")
        return self._extremes[1]

    @property
    def spread(self) -> float:
        return self.diameter / self.closest_pair


def as_coords(points) -> np.ndarray:
    """The (n, d) float64 coordinates of a PointSet or of an array-like."""
    return points.coords if isinstance(points, PointSet) else np.asarray(points, dtype=np.float64)


def load_points(path) -> PointSet:
    """One point per line, whitespace-separated decimal coordinates."""
    rows = []
    first = None  # (line number, coordinate count) of the first point
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        tokens = line.split()
        if not tokens:
            continue
        if first is None:
            first = (lineno, len(tokens))
        elif len(tokens) != first[1]:
            raise ValueError(f"{path}: line {lineno} has {len(tokens)} coordinates, "
                             f"line {first[0]} has {first[1]}")
        rows.append([float(tok) for tok in tokens])
    if not rows:
        raise ValueError(f"no points in {path}")
    return PointSet(np.asarray(rows, dtype=np.float64))


# ---------------------------------------------------------------------------
# the graph
# ---------------------------------------------------------------------------

class WeightedGraph:
    """Immutable undirected graph with metric edge weights.

    Weights are always recomputed from the vertex positions that produced the
    graph (integer line or a Euclidean point set), never trusted from the
    builder, which keeps the weight invariant true by construction.
    """

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray,
                 positions: np.ndarray | None = None, meta: dict | None = None):
        self.n = int(n)
        self.u = u
        self.v = v
        self.w = w
        self.positions = positions
        self.meta = dict(meta or {})
        for arr in (self.u, self.v, self.w):
            arr.setflags(write=False)
        if positions is not None:
            positions.setflags(write=False)
        self._csr = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_pairs(cls, n: int, u, v, positions=None, line: bool = False,
                   meta: dict | None = None) -> "WeightedGraph":
        """Build from an edge multiset in any orientation and order.

        Orients each pair as u < v, drops self-loops, sorts by (u, v), drops
        duplicates and weights each edge by the metric: |u - v| on the line,
        Euclidean distance with positions, 1 otherwise.  Pairs that are
        already sorted and unique skip the sort.
        """
        if n > MAX_N:
            raise ValueError(f"n = {n} exceeds {MAX_N}, past which edge keys overflow int64")
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.size:
            if int(min(u.min(), v.min())) < 0 or int(max(u.max(), v.max())) >= n:
                raise ValueError(f"edge endpoint out of range [0, {n})")
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keep = lo != hi
        if not keep.all():
            lo, hi = lo[keep], hi[keep]
        packed = lo * np.int64(n) + hi
        if not (packed[1:] > packed[:-1]).all():  # canonical input skips the sort
            packed.sort()
            first = np.ones(packed.size, dtype=bool)
            first[1:] = packed[1:] != packed[:-1]
            packed = packed[first]
            lo, hi = packed // n, packed % n
        if line:
            if positions is not None:
                raise ValueError("line graphs carry implicit positions")
            w = (hi - lo).astype(np.float64)
            pos = None
        elif positions is not None:
            pos = np.ascontiguousarray(np.asarray(positions, dtype=np.float64))
            if pos.shape[0] != n:
                raise ValueError("positions must cover all vertices")
            w = np.sqrt(((pos[lo] - pos[hi]) ** 2).sum(axis=1))
            if lo.size and not np.isfinite(w.max()):  # a NaN weight makes the max NaN
                raise ValueError("non-finite edge weight: non-finite positions?")
            if lo.size and float(w.min()) <= 0.0:
                raise ValueError("zero-length edge: duplicate points?")
        else:
            pos = None
            w = np.ones(lo.size, dtype=np.float64)
        m = dict(meta or {})
        if line:
            m.setdefault("line", True)
        return cls(n, lo, hi, w, positions=pos, meta=m)

    # -- basic accessors -----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return int(self.u.size)

    @property
    def is_line(self) -> bool:
        return bool(self.meta.get("line", False))

    def csr(self) -> csr_matrix:
        if self._csr is None:
            row = np.concatenate([self.u, self.v])
            col = np.concatenate([self.v, self.u])
            dat = np.concatenate([self.w, self.w])
            self._csr = csr_matrix((dat, (row, col)), shape=(self.n, self.n))
        return self._csr

    # -- invariant check (used by tests and after deserialization) ----------

    def validate(self) -> None:
        if self.u.size == 0:
            return
        if not (self.u < self.v).all():
            raise AssertionError("edges not canonical (u < v)")
        if int(self.u.min()) < 0 or int(self.v.max()) >= self.n:
            raise AssertionError("endpoint out of range")
        packed = self.u * np.int64(self.n) + self.v
        if not (packed[1:] > packed[:-1]).all():
            raise AssertionError("edges not sorted and unique")
        if self.is_line:
            expect = (self.v - self.u).astype(np.float64)
        elif self.positions is not None:
            expect = np.sqrt(((self.positions[self.u] - self.positions[self.v]) ** 2).sum(axis=1))
        else:
            expect = None
        if expect is not None:
            if not np.allclose(self.w, expect, rtol=REL_TOL, atol=0.0):
                raise AssertionError("weights disagree with vertex positions")

    # -- serialization -------------------------------------------------------

    def save_edges(self, path) -> None:
        """Write one decimal "u v" line per edge, SAVE_CHUNK edges at a time."""
        with open(path, "wb") as fh:
            for start in range(0, self.u.size, SAVE_CHUNK):
                stop = start + SAVE_CHUNK
                fh.write(_edge_text(self.u[start:stop], self.v[start:stop]))


def _edge_text(u: np.ndarray, v: np.ndarray) -> bytes:
    """ASCII "u v\n" lines of non-negative ids: a fixed-width uint8 digit
    array per line with the leading zeros masked out."""
    width = len(str(int(max(u.max(), v.max()))))
    text = np.empty((u.size, 2 * width + 2), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    text[:, width] = ord(" ")
    text[:, -1] = ord("\n")
    for first, ids in ((0, u), (width + 1, v)):
        for k in range(width):
            place = 10 ** (width - 1 - k)
            text[:, first + k] = ids // place % 10 + ord("0")
            if place > 1:
                keep[:, first + k] = ids >= place
    return text[keep].tobytes()


def load_edge_list(path, n: int | None = None, positions=None,
                   line: bool = False, meta: dict | None = None) -> WeightedGraph:
    """Read "u v" lines into a canonical graph; n defaults to the largest id + 1.

    Blank lines are skipped and fields after the second ignored, so files
    with a third "w" column load too.  from_pairs canonicalizes the edges,
    checks every id against n and computes each weight from the metric.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        pairs = np.loadtxt(path, dtype=np.int64, usecols=(0, 1), ndmin=2, comments=None)
    if n is None:
        n = int(pairs.max()) + 1 if pairs.size else 0
    return WeightedGraph.from_pairs(n, pairs[:, 0], pairs[:, 1], positions=positions,
                                    line=line, meta=meta)


# ---------------------------------------------------------------------------
# edge accumulation for the builders
# ---------------------------------------------------------------------------

class EdgeSink:
    """The builders' edge marks: an n x n boolean matrix.

    Adds are C-speed assignments, and a pair marked again costs no memory,
    so saturated, overlapping blocks stay within n^2 bytes.  extract()
    returns the marks as they are; WeightedGraph.from_pairs canonicalizes.
    """

    def __init__(self, n: int):
        self.n = n
        self.mat = np.zeros((n, n), dtype=bool)

    def add_pairs(self, u: np.ndarray, v: np.ndarray) -> None:
        self.mat[u, v] = True

    def add_block(self, left_ids: np.ndarray, right_ids: np.ndarray) -> None:
        """Every pair (a, b) with a in left_ids and b in right_ids."""
        self.mat[np.ix_(left_ids, right_ids)] = True

    def add_band(self, width: int) -> None:
        """All pairs (u, v) with 0 < v - u <= width."""
        for u in range(self.n if width > 0 else 0):
            self.mat[u, u + 1:u + 1 + width] = True

    def extract(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column of every mark, row-major."""
        uu, vv = np.nonzero(self.mat)
        return uu.astype(np.int64), vv.astype(np.int64)


# ---------------------------------------------------------------------------
# shortest paths (Euclidean stretch oracle)
# ---------------------------------------------------------------------------

def _alive_csr(g: WeightedGraph, dead: np.ndarray) -> csr_matrix:
    if dead.size == 0:
        return g.csr()
    dead_mask = np.zeros(g.n, dtype=bool)
    dead_mask[dead] = True
    keep = ~(dead_mask[g.u] | dead_mask[g.v])
    row = np.concatenate([g.u[keep], g.v[keep]])
    col = np.concatenate([g.v[keep], g.u[keep]])
    dat = np.concatenate([g.w[keep], g.w[keep]])
    return csr_matrix((dat, (row, col)), shape=(g.n, g.n))


def largest_component(g: WeightedGraph, dead: np.ndarray) -> np.ndarray:
    """Ascending ids of the largest connected component of g - dead (the
    lowest-labelled one on ties); empty when every vertex failed."""
    _, labels = connected_components(_alive_csr(g, dead), directed=False)
    labels[dead] = -1
    alive = labels >= 0
    if not alive.any():
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(labels == np.argmax(np.bincount(labels[alive])))


def shortest_path_length(g: WeightedGraph, B, source: int) -> np.ndarray:
    """Distances from source in the subgraph induced by alive vertices.

    Returns a length-n array; dead vertices and unreachable alive vertices
    hold +inf (the source itself holds 0).  Raises if the source failed.
    """
    dead = clean_vertex_set(B, g.n)
    if np.isin(source, dead):
        raise ValueError("source in failure set")
    dist = _csgraph_dijkstra(_alive_csr(g, dead), directed=False, indices=source)
    if dead.size:
        dist[dead] = np.inf
    return dist


def shortest_path_pairs(g: WeightedGraph, B, s, t) -> np.ndarray:
    """dist(s[i], t[i]) in the alive subgraph for every pair i (+inf when
    t[i] is unreachable).

    The alive subgraph is built once.  Dijkstra runs from the distinct
    sources in ascending order, 256 at a time, and only the pairs' targets
    are read from each block of rows.
    """
    dead = clean_vertex_set(B, g.n)
    s, t = vertex_ids(s, g.n), vertex_ids(t, g.n)
    out = np.empty(s.size, dtype=np.float64)
    if not s.size:
        return out
    if np.isin(s, dead).any():
        raise ValueError("source in failure set")
    order = np.argsort(s, kind="stable")
    by_source = s[order]
    first = np.flatnonzero(np.r_[True, by_source[1:] != by_source[:-1]])
    sources, ends = by_source[first], np.r_[first, s.size]
    alive = _alive_csr(g, dead)
    for start in range(0, sources.size, _DIJKSTRA_BLOCK):
        block = sources[start:start + _DIJKSTRA_BLOCK]
        dist = _csgraph_dijkstra(alive, directed=False, indices=block)
        rows = np.repeat(np.arange(block.size), np.diff(ends[start:start + block.size + 1]))
        pairs = order[ends[start]:ends[start + block.size]]
        out[pairs] = dist[rows, t[pairs]]
    return out


# ---------------------------------------------------------------------------
# 1D monotone reachability (the exact-spanner oracle)
# ---------------------------------------------------------------------------

_SOURCE_BLOCK = 1024  # sources per block; bounds the per-block arrays to 1024 x n
_SLAB = 128  # mid vertices per slab of a hop product


def monotone_hops(g: WeightedGraph, B, sources, hop_cap: int | None = None):
    """Hop distances of rightward monotone paths in g - B from each source,
    in blocks.

    Yields (first, dist) for consecutive blocks of at most 1024 sources:
    dist[i, v] is the fewest hops of a path from sources[first + i] to v
    whose every step moves right through alive vertices, or -1 when there is
    none within hop_cap hops (None: no cap).  The source holds 0 and may
    itself be failed.  Monotone paths on the line telescope, so every
    reached vertex t is at exact distance t - source.

    The bool step matrix A (A[a, b]: edge ab steps from a to alive b) is
    built once per call.  Each block's sources are sorted once (stably;
    sorted input is used as it is) and the rows are put back in input order
    before the block is yielded.  Hop 1 is the gather A[sources]; each later
    hop is a float32 product of the frontier with A over slabs of 128 mid
    vertices [k0, k1).  A step s -> m -> t needs s < m < t, so a slab
    multiplies only the rows with source < k1 - 1, a prefix of the sorted
    rows, by the columns > k0: the monotone triangle, about a sixth of the
    full product, with every operand a plain slice.  A slab turns float32
    only while it is used, and sums of 0/1 values stay exact below 2^24.
    """
    n = g.n
    sources = vertex_ids(sources, n)
    dead = clean_vertex_set(B, n)
    alive = np.ones(n, dtype=bool)
    alive[dead] = False
    A = np.zeros((n, n), dtype=bool)
    A[g.u, g.v] = True
    A[:, dead] = False
    ids = np.arange(n)
    for first in range(0, sources.size, _SOURCE_BLOCK):
        src = sources[first:first + _SOURCE_BLOCK]
        order = None if (src[1:] >= src[:-1]).all() else np.argsort(src, kind="stable")
        if order is not None:
            src = src[order]
        dist = np.full((src.size, n), -1, dtype=np.int32)
        dist[np.arange(src.size), src] = 0
        pending = (ids > src[:, None]) & alive
        front = A[src]
        step = np.empty((src.size, n), dtype=np.float32)
        hop = 1
        while (hop_cap is None or hop <= hop_cap) and front.any():
            # front lies inside pending, where dist is still -1: adding
            # hop + 1 sets hop there (without putmask's branch per entry),
            # and xor takes front out of pending
            dist += front * np.int32(hop + 1)
            if hop == hop_cap:
                break
            pending ^= front
            if not pending.any():
                break
            step[...] = 0
            for k0 in range(0, n, _SLAB):
                k1 = min(n, k0 + _SLAB)
                r1 = int(np.searchsorted(src, k1 - 1))
                part = front[:r1, k0:k1]
                if not part.any():
                    continue
                step[:r1, k0 + 1:] += part.astype(np.float32) @ A[k0:k1, k0 + 1:].astype(np.float32)
            np.greater(step, 0, out=front)
            front &= pending
            hop += 1
        if order is not None:
            dist[order] = dist.copy()
        yield first, dist


def monotone_reach_1d(g: WeightedGraph, B, source: int, direction: str = "right") -> np.ndarray:
    """All vertices t (not failed) reachable from source by a monotone path.

    A leftward search is the rightward one on the mirrored graph, which
    takes vertex v to n - 1 - v."""
    if direction not in ("left", "right"):
        raise ValueError("direction must be 'left' or 'right'")
    n = g.n
    source = int(vertex_ids([source], n)[0])
    dead = clean_vertex_set(B, n)
    if np.isin(source, dead):
        raise ValueError("source in failure set")
    if direction == "left":
        g = WeightedGraph(n, n - 1 - g.v, n - 1 - g.u, g.w)
        dead, source = n - 1 - dead, n - 1 - source
    (_, dist), = monotone_hops(g, dead, [source])
    reach = np.flatnonzero(dist[0] > 0)
    return reach if direction == "right" else (n - 1 - reach)[::-1]
