"""Shared graph/point data model and the path oracles used by every verifier.

Parameters meet one contract: a ratio is checked by fraction_in and an
integer by at_least, each raising a ValueError that names the parameter.

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
connectivity oracle is the alive subgraph's largest component.  Those two
queries import their sparse-graph routines when they first run, so the 1D
pipeline runs on numpy alone.
"""

from __future__ import annotations

import math
import numbers
import warnings
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

REL_TOL = 1e-9  # relative tolerance for path-length comparisons
SAVE_CHUNK = 1 << 18  # edges formatted and written at a time by save_edges
MAX_N = math.isqrt(2 ** 63 - 1)  # from_pairs keys an edge lo * n + hi < n^2 in int64
_DIJKSTRA_BLOCK = 256  # Dijkstra sources per block; bounds a block's rows to 256 x n
_INT64_SAFE = 1 << 62  # exact ratio arithmetic stays in int64 while products stay below this


# ---------------------------------------------------------------------------
# the parameter contract
# ---------------------------------------------------------------------------

def as_fraction(value) -> Fraction:
    """Exact value of a Fraction, int, str ("1/96", "0.25") or float.

    Floats are interpreted through their shortest decimal form, which is what
    the caller typed in every practical case.
    """
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, (Fraction, int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact fraction")


def fraction_in(value, name: str, hi=1, closed: bool = False) -> Fraction:
    """value as an exact Fraction in (0, hi), or (0, hi] when closed; any
    other value, a NaN float or a string like "1/0" included, raises
    ValueError "<name> must be in (0, hi)" (or "(0, hi]")."""
    hi = Fraction(hi)
    try:
        x = as_fraction(value)
    except (ValueError, ZeroDivisionError):
        x = None
    if x is not None and (0 < x < hi or (closed and x == hi)):
        return x
    raise ValueError(f"{name} must be in (0, {hi}{']' if closed else ')'}")


def at_least(value, name: str, floor: int) -> int:
    """value as an int >= floor; anything else, a non-integer included,
    raises ValueError "<name> must be at least <floor>, got <value>"."""
    if not (isinstance(value, numbers.Integral) and value >= floor):
        raise ValueError(f"{name} must be at least {floor}, got {value}")
    return int(value)


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

NORM_MARGIN = 0.125  # the frame [1/8, 7/8)^d keeps shifted-grid cells off the cube boundary


class PointSet:
    """Points in R^d that meet the Euclidean input contract, their frame in
    [NORM_MARGIN, 1 - NORM_MARGIN)^d, normed = (coords - offset) * scale +
    NORM_MARGIN, and their cached diameter, closest pair and spread.
    PointSet(ps) is ps, so a point set is checked once.

    Construction checks, in this order, that there are at least 2 points,
    that every coordinate is finite, that the extent (the largest coordinate
    range) is positive and in [2^-348, 2^511 / sqrt(d)], and that the
    normalized rows are pairwise distinct, each with its own ValueError.
    Distinct normalized rows are exactly what the quadtree needs to separate
    every point, since each dyadic cell boundary it tests is exact in
    float64.  Rows equal in the input raise "point set contains duplicate
    points"; distinct rows that the normalization merges, as it does past a
    spread of about 2^55, raise "spread overflow".

    The extent bound keeps the squared distances that the closest pair, the
    diameter and every edge weight come from in the float64 normal range
    [2^-1022, 2^1024).  A squared distance is at most d * extent^2 <= 2^1022.
    At the low end, take two accepted points, a coordinate where their
    normalized values differ, their raw values a < b there, the extent E and
    the scale s < 3 / (4E).  Then x_a = fl(a - lo) < x_b = fl(b - lo), and
    fl(fl(x_b * s) + 1/8) > 1/8 needs x_b * s > 2^-56, so x_b > E * 2^-55.58.
    The floats just below x_b are sigma >= x_b * 2^-53 > E * 2^-108.58
    apart, a power of two, and a <= r <= b for the real number
    r = lo + x_b - sigma / 2.  If |lo| >= x_b - sigma, lo is a multiple of
    sigma like x_b - sigma, so r is an odd multiple of sigma / 2; otherwise
    r > sigma / 2.  Two distinct floats around r are then at least
    sigma * 2^-54 apart, so b - a > E * 2^-162.58 (a 2-d set whose two
    roundings both straddle a midpoint comes within rounding of it), and
    (b - a)^2 >= 2^-1022 once E >= 2^(162.58 - 511): the floor 2^-348.
    """

    def __new__(cls, coords):
        if isinstance(coords, PointSet):
            return coords
        self = super().__new__(cls)
        coords = np.ascontiguousarray(np.atleast_2d(np.asarray(coords, dtype=np.float64)))
        n, d = coords.shape
        if n < 2:
            raise ValueError("need at least 2 points")
        if not np.isfinite(coords).all():
            raise ValueError("point set has non-finite coordinates")
        lo = coords.min(axis=0)
        with np.errstate(over="ignore"):  # an infinite extent fails the bound below
            extent = float((coords.max(axis=0) - lo).max())
        if extent <= 0:
            raise ValueError("degenerate point set")
        if not (2.0 ** -348 <= extent and d * extent * extent <= 2.0 ** 1022):
            raise ValueError(f"coordinate extent 2^{math.log2(extent):.2f} is outside "
                             "[2^-348, 2^511 / sqrt(d)]: squared distances would leave "
                             "the float64 normal range")
        scale = (1.0 - 2.0 * NORM_MARGIN) / extent * (1.0 - 1e-12)
        normed = (coords - lo) * scale + NORM_MARGIN
        # sorted by normalized row, ties by input row: equal input rows are adjacent
        order = np.lexsort(np.concatenate([coords.T, normed.T]))
        rows, raw = normed[order], coords[order]
        merged = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1))
        if merged.size:
            if (raw[merged + 1] == raw[merged]).all(axis=1).any():
                raise ValueError("point set contains duplicate points")
            a, b = sorted(order[merged[0]:merged[0] + 2].tolist())
            raise ValueError(f"spread overflow: points {a} and {b} are distinct but "
                             "normalize to the same float64 row")
        for arr in (coords, normed, lo):
            arr.setflags(write=False)
        self.coords, self.normed, self.scale, self.offset = coords, normed, scale, lo
        self.n, self.d = n, d
        return self

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
        return self._extremes[1]

    @property
    def spread(self) -> float:
        return self.diameter / self.closest_pair


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
    return PointSet(rows)


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

def _alive_csr(g: WeightedGraph, dead: np.ndarray):
    """The alive subgraph g - dead as a symmetric scipy CSR matrix."""
    from scipy.sparse import csr_matrix
    dead_mask = np.zeros(g.n, dtype=bool)
    dead_mask[dead] = True
    keep = ~(dead_mask[g.u] | dead_mask[g.v])
    u, v, w = g.u[keep], g.v[keep], g.w[keep]
    return csr_matrix((np.r_[w, w], (np.r_[u, v], np.r_[v, u])), shape=(g.n, g.n))


def _csgraph_dijkstra(alive, indices) -> np.ndarray:
    """scipy's undirected Dijkstra on alive from the sources indices."""
    from scipy.sparse.csgraph import dijkstra
    return dijkstra(alive, directed=False, indices=indices)


def largest_component(g: WeightedGraph, dead: np.ndarray) -> np.ndarray:
    """Ascending ids of the largest connected component of g - dead (the
    lowest-labelled one on ties); empty when every vertex failed."""
    from scipy.sparse.csgraph import connected_components
    _, labels = connected_components(_alive_csr(g, dead), directed=False)
    labels[dead] = -1
    alive = labels >= 0
    if not alive.any():
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(labels == np.argmax(np.bincount(labels[alive])))


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
        dist = _csgraph_dijkstra(alive, indices=block)
        rows = np.repeat(np.arange(block.size), np.diff(ends[start:start + block.size + 1]))
        pairs = order[ends[start]:ends[start + block.size]]
        out[pairs] = dist[rows, t[pairs]]
    return out


# ---------------------------------------------------------------------------
# 1D monotone reachability (the exact-spanner oracle)
# ---------------------------------------------------------------------------

_SOURCE_BLOCK = 1024  # sources per block; bounds the per-block arrays to 1024 x n
_SLAB = 128  # mid vertices per slab of a hop product


def monotone_unreached(g: WeightedGraph, B, sources, hop_cap: int | None = None):
    """What rightward monotone paths in g - B leave unreached from each
    source, in blocks.

    Yields (first, unreached, hops) for consecutive blocks of at most 1024
    sources: unreached[i, t] is true for every alive t > sources[first + i]
    that no path whose every step moves right through alive vertices
    reaches within hop_cap hops (None: no cap), and hops is the last hop at
    which any row's reach grew (0 when none did).  A source may itself be
    failed.  Monotone paths on the line telescope, so every reached t is at
    exact distance t - source.

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
        pending = (ids > src[:, None]) & alive
        front = A[src]  # inside pending: edges step right, into alive vertices
        step = np.empty((src.size, n), dtype=np.float32)
        hops = 0
        while (hop_cap is None or hops < hop_cap) and front.any():
            hops += 1
            pending ^= front
            if hops == hop_cap or not pending.any():
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
        if order is not None:
            pending[order] = pending.copy()
        yield first, pending, hops
