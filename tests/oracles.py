"""Independent brute-force oracles the fast paths are checked against.

Everything here is deliberately naive: cubic all-pairs relaxation, interval
enumeration, DP over vertices in increasing order.  None of it shares code
with the library paths under test.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from relspan import graph_core
from relspan.graph_core import PointSet, clean_vertex_set, vertex_ids
from relspan.harness import FAILING_KEPT, STRETCH_SLACK
from relspan.lso import family_shape
from relspan.quadtree import MAX_DEPTH, normalize_unit
from relspan.streams import substream


def floyd_warshall(n: int, edges, bad=()) -> list[list[float]]:
    """Cubic-time all-pairs relaxation on the alive subgraph."""
    bad = set(bad)
    dist = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        if i not in bad:
            dist[i][i] = 0.0
    for u, v, w in edges:
        if u in bad or v in bad:
            continue
        if w < dist[u][v]:
            dist[u][v] = dist[v][u] = w
    for k in range(n):
        if k in bad:
            continue
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == math.inf:
                continue
            row = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return dist


def dijkstra_py(n: int, edges, source: int, bad=()) -> list[float]:
    """Heap Dijkstra written independently of the scipy-backed path."""
    bad = set(bad)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        if u in bad or v in bad:
            continue
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = [math.inf] * n
    if source in bad:
        raise ValueError("source dead")
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def shortest_path_matrix(g, B, sources) -> np.ndarray:
    """Row-per-source distance matrix on the alive subgraph: scipy's
    Dijkstra over the edges with no failed endpoint, whole rows (+inf at
    the failed and the unreachable vertices)."""
    dead = clean_vertex_set(B, g.n)
    sources = np.asarray(sources, dtype=np.int64)
    if np.isin(sources, dead).any():
        raise ValueError("source in failure set")
    keep = ~(np.isin(g.u, dead) | np.isin(g.v, dead))
    u, v, w = g.u[keep], g.v[keep], g.w[keep]
    alive = csr_matrix((np.r_[w, w], (np.r_[u, v], np.r_[v, u])), shape=(g.n, g.n))
    dist = np.atleast_2d(dijkstra(alive, directed=False, indices=sources))
    dist[:, dead] = np.inf
    return dist


def monotone_reach_bruteforce(n: int, edges, source: int, bad=(),
                              direction: str = "right") -> set[int]:
    """DP over vertices in increasing (or decreasing) order."""
    bad = set(bad)
    step: dict[int, set[int]] = {i: set() for i in range(n)}
    for u, v, _ in edges:
        lo, hi = min(u, v), max(u, v)
        if direction == "right":
            step[lo].add(hi)
        else:
            step[hi].add(lo)
    reach = {source}
    order = range(source, n) if direction == "right" else range(source, -1, -1)
    for u in order:
        if u in reach and u not in bad:
            for v in step[u]:
                if v not in bad:
                    reach.add(v)
    reach.discard(source)
    return {v for v in reach if v not in bad}


def shadow_1d_bruteforce(n: int, bad, alpha: Fraction, side: str = "both") -> set[int]:
    """Membership by enumerating every interval anchored at each position."""
    bad = set(bad)
    p, q = alpha.numerator, alpha.denominator
    left, right = set(), set()
    for i in range(n):
        count = 0
        for j in range(i, n):
            count += j in bad
            if q * count >= p * (j - i + 1):
                left.add(i)
                break
        count = 0
        for h in range(i, -1, -1):
            count += h in bad
            if q * count >= p * (i - h + 1):
                right.add(i)
                break
    if side == "left":
        return left
    if side == "right":
        return right
    return left | right


def left_shadow_loop(n: int, bad, p: int, q: int) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """Left shadow by one right-to-left scan in Python ints, for alpha = p/q.

    Position i scores q - p when failed and -p otherwise.  tail is the best
    sum of a run starting just right of i, tail_j its right end (the
    leftmost one on ties).  Members come back in increasing order, the
    witnesses (i, j) in the order the scan finds them: decreasing i.
    """
    bad = set(bad)
    members: list[int] = []
    witnesses: dict[int, tuple[int, int]] = {}
    tail = 0
    tail_j = n
    for i in range(n - 1, -1, -1):
        y = (q - p) if i in bad else -p
        if tail > 0:
            total, j = y + tail, tail_j
        else:
            total, j = y, i
        if total >= 0:
            members.append(i)
            witnesses[i] = (i, j)
        tail, tail_j = total, j
    members.reverse()
    return members, witnesses


def shadow_1d_witnesses_loop(n: int, bad, alpha: Fraction, side: str) -> dict[int, tuple[int, int]]:
    """Witness dict of shadow_1d(..., witness=True) from the scan: the left
    side's witnesses, then the mirrored right side's, a position on both
    sides keeping its left slot and taking its right witness."""
    p, q = alpha.numerator, alpha.denominator
    witnesses: dict[int, tuple[int, int]] = {}
    if side in ("left", "both"):
        witnesses.update(left_shadow_loop(n, bad, p, q)[1])
    if side in ("right", "both"):
        _, wit = left_shadow_loop(n, [n - 1 - b for b in bad], p, q)
        for i, (lo, hi) in wit.items():
            witnesses[n - 1 - i] = (n - 1 - hi, n - 1 - lo)
    return witnesses


def monotone_layers_bruteforce(n: int, edges, source: int, bad=(),
                               hop_cap: int | None = None,
                               direction: str = "right") -> list[set[int]]:
    """Breadth-first layers of monotone paths through alive vertices.

    Layer 0 is {source} (kept even when the source failed); layer k holds
    the vertices first reached with k hops.  At most hop_cap layers follow
    layer 0, and the list stops at the first empty layer.
    """
    bad = set(bad)
    step: dict[int, set[int]] = {i: set() for i in range(n)}
    for u, v, _ in edges:
        lo, hi = min(u, v), max(u, v)
        if direction == "right":
            step[lo].add(hi)
        else:
            step[hi].add(lo)
    layers = [{source}]
    seen = {source}
    while hop_cap is None or len(layers) - 1 < hop_cap:
        nxt = {v for u in layers[-1] for v in step[u] if v not in bad and v not in seen}
        if not nxt:
            break
        layers.append(nxt)
        seen |= nxt
    return layers


def monotone_hops_dense(g, B, sources, hop_cap: int | None = None):
    """graph_core.monotone_hops before the triangle kernel: every hop >= 2 is
    the full float32 product of the frontier's rows and mid columns with
    the step matrix's rows over the columns still pending, gathered by
    fancy indexing.  Source blocks follow graph_core._SOURCE_BLOCK."""
    block = graph_core._SOURCE_BLOCK
    n = g.n
    sources = vertex_ids(sources, n)
    dead = clean_vertex_set(B, n)
    alive = np.ones(n, dtype=bool)
    alive[dead] = False
    A = np.zeros((n, n), dtype=bool)
    A[g.u, g.v] = True
    A[:, dead] = False
    ids = np.arange(n)
    for first in range(0, sources.size, block):
        src = sources[first:first + block]
        rows = np.arange(src.size)
        dist = np.full((src.size, n), -1, dtype=np.int32)
        dist[rows, src] = 0
        front = A[src]
        hop = 1
        while hop_cap is None or hop <= hop_cap:
            live = front.any(axis=1)
            rows, front = rows[live], front[live]
            if not rows.size:
                break
            reach = dist[rows]
            np.putmask(reach, front, hop)
            dist[rows] = reach
            if hop == hop_cap:
                break
            pending = (reach < 0) & alive & (ids > src[rows, None])
            tgt = np.flatnonzero(pending.any(axis=0))
            if not tgt.size:
                break
            mid = np.flatnonzero(front.any(axis=0))
            step = np.zeros((rows.size, tgt.size), dtype=np.float32)
            for k in range(0, mid.size, block):
                part = mid[k:k + block]
                step += front[:, part].astype(np.float32) @ A[part][:, tgt].astype(np.float32)
            front = np.zeros_like(pending)
            front[:, tgt] = (step > 0) & pending[:, tgt]
            hop += 1
        yield first, dist


def one_path_coverage_bruteforce(n: int, edges, bad, good, hop_cap=None,
                                 max_failures: int = 64):
    """(first max_failures failing pairs, failing count, max hops) with
    one_path_coverage's contract: sources in the order of `good` (skipping
    those with no good t above them), each source's failing t ascending, and
    max hops over all those sources."""
    targets = sorted(set(good))
    failures: list[tuple[int, int]] = []
    max_hops = 0
    for s in good:
        want = [t for t in targets if t > s]
        if not want:
            continue
        layers = monotone_layers_bruteforce(n, edges, s, bad, hop_cap)
        reached = set().union(*layers)
        max_hops = max(max_hops, len(layers) - 1)
        failures.extend((s, t) for t in want if t not in reached)
    return failures[:max_failures], len(failures), max_hops


def exact_path_bruteforce(n: int, edges, s: int, t: int, bad=(),
                          hop_cap: int | None = None) -> list[int]:
    """The monotone s-t path picked by the lowest-id-predecessor rule, or []
    when there is none within hop_cap hops.

    Replays the rule on its own terms: the vertices that reach t within the
    cap form a corridor, breadth-first layers from s run inside it, and the
    walk back from t takes, on each layer, the smallest-id vertex with an
    edge into the current one.
    """
    bad = set(bad)
    corridor = set().union(*monotone_layers_bruteforce(n, edges, t, bad, hop_cap, "left"))
    if s not in corridor:
        return []
    inside = [(u, v, w) for u, v, w in edges if u in corridor and v in corridor]
    layers = monotone_layers_bruteforce(n, inside, s, bad, hop_cap)
    hops = next((k for k, layer in enumerate(layers) if t in layer), None)
    if hops is None:
        return []
    into = {(min(u, v), max(u, v)) for u, v, _ in edges}
    path = [t]
    for k in range(hops - 1, -1, -1):
        path.append(min(p for p in layers[k] if (p, path[-1]) in into))
    return path[::-1]


def canonical_edges_bruteforce(pairs) -> list[tuple[int, int]]:
    """The sorted set of (min, max) pairs, self-loops dropped."""
    return sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})


def edge_text_py(u, v) -> str:
    """The text of an edge file: one decimal "u v" line per edge."""
    return "".join(map("{} {}\n".format, np.asarray(u).tolist(), np.asarray(v).tolist()))


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


@dataclass
class NodeQuadtree:
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


def quadtree_nodes(points, already_normalized: bool = False) -> NodeQuadtree:
    """The compressed quadtree as one object per node, built one node at a
    time: cells are popped from a stack, a multi-point cell is halved while
    its points share one child code, then split into its occupied children
    in ascending code order, numbered consecutively and pushed in that
    order.  The node-walking oracles read this form."""
    coords = np.asarray(points, dtype=np.float64)
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
    return NodeQuadtree(nodes, root, coords, n)


def shadow_quadtree_walk(tree, bad, gamma: Fraction):
    """(members, shadowed nodes, maximal nodes) of the gamma-quadtree shadow
    by one bottom-up walk.

    The walk is the postorder of a stack that pushes each node's children in
    order, so it finishes the last child's subtree first.  A node is
    shadowed when at least a gamma fraction of its points failed; it is
    maximal when no ancestor is shadowed.
    """
    bad = set(bad)
    p, q = gamma.numerator, gamma.denominator
    order: list[int] = []

    def visit(idx):
        for child in reversed(tree.nodes[idx].children):
            visit(child)
        order.append(idx)
    visit(tree.root)
    shadowed = []
    for idx in order:
        ids = tree.nodes[idx].point_ids.tolist()
        failed = sum(1 for pid in ids if pid in bad)
        if ids and q * failed >= p * len(ids):
            shadowed.append(idx)

    def has_shadowed_ancestor(idx):
        cur = tree.nodes[idx].parent
        while cur is not None:
            if cur in shadowed:
                return True
            cur = tree.nodes[cur].parent
        return False
    maximal = [idx for idx in shadowed if not has_shadowed_ancestor(idx)]
    members = sorted({pid for idx in maximal for pid in tree.nodes[idx].point_ids.tolist()})
    return members, shadowed, maximal


def candidate_sizes_bruteforce(shadow_size, n: int, bad) -> list[int]:
    """shadow_size(B + {v}) for every v, one full recomputation per vertex."""
    bad = sorted(set(bad))
    return [shadow_size(sorted(set(bad) | {v})) for v in range(n)]


def greedy_shadow_bruteforce(shadow_size, n: int, k: int) -> list[int]:
    """The greedy-shadow attack by one full shadow recomputation per
    candidate: k times, add the vertex whose failure gives the largest
    shadow (the lowest id on ties); stop once the shadow holds all n."""
    chosen: list[int] = []
    for _ in range(k):
        best_v, best_size = -1, -1
        for v in range(n):
            if v in chosen:
                continue
            size = shadow_size(chosen + [v])
            if size > best_size:
                best_v, best_size = v, size
        chosen.append(best_v)
        if best_size >= n:
            break
    return sorted(chosen)


def family_size_bruteforce(d: int, sigma) -> int:
    """M by listing every step offset of every scale: each x in [-r, r]^d
    with r = min(floor(hi) + 1, 2^t - 1) whose squared norm is in the band,
    not all coordinates even, kept when x >= -x in tuple order."""
    shape = family_shape(d, sigma)
    lo, hi = shape["band"]
    lo2, hi2 = lo * lo, hi * hi
    m = shape["lattice"] ** d * shape["reflections"]
    for t in range(shape["t_min"], shape["t_max"] + 1):
        r = min(int(hi) + 1, (1 << t) - 1)
        for x in itertools.product(range(-r, r + 1), repeat=d):
            if all(c % 2 == 0 for c in x):
                continue
            if not lo2 <= sum(c * c for c in x) <= hi2:
                continue
            if x >= tuple(-c for c in x):
                m += 1
    return m


def interleave_py(coords_bits: list[int], d: int, bits: int) -> int:
    """Morton interleave of the low `bits` bits of d integers, most
    significant level first, axis d - 1 the top bit of each level."""
    key = 0
    for lvl in range(bits - 1, -1, -1):
        for axis in range(d - 1, -1, -1):
            key = (key << 1) | ((coords_bits[axis] >> lvl) & 1)
    return key


def ordering_key_py(o, p, w_bits: int = 32) -> int:
    """The d * w_bits-bit key of point p under ordering o, in Python ints."""
    q = [int(min(int(((p[a] + o.shift[a]) % 1.0) * (1 << w_bits)),
                 (1 << w_bits) - 1)) for a in range(o.d)]
    if o.kind == "morton":
        key = interleave_py(q, o.d, w_bits)
        for lvl in range(w_bits):
            key ^= o.reflection << (o.d * lvl)
        return key
    t = o.t
    cells = [qq >> (w_bits - t) for qq in q]
    order = sum(v * c for v, c in zip(o.v, cells)) % (1 << (t * o.d))
    fine = interleave_py([qq & ((1 << (w_bits - t)) - 1) for qq in q],
                         o.d, w_bits - t)
    return order * (1 << (o.d * (w_bits - t))) + fine


def box_band_count_bruteforce(d: int, r: int, s_lo: int, s_hi: int, step: int) -> int:
    """Number of x in (step Z)^d with |x_a| <= r and s_lo <= |x|^2 <= s_hi,
    read off the generating polynomial (sum over |y| <= r of z^(y^2))^d,
    truncated past z^s_hi, in Python ints."""
    axis = [0] * (s_hi + 1)
    for y in range(-(r // step), r // step + 1):
        if (step * y) ** 2 <= s_hi:
            axis[(step * y) ** 2] += 1
    terms = [(j, c) for j, c in enumerate(axis) if c]
    poly = [1] + [0] * s_hi
    for _ in range(d):
        prod = [0] * (s_hi + 1)
        for j, c in terms:
            for k in range(j, s_hi + 1):
                prod[k] += c * poly[k - j]
        poly = prod
    return sum(poly[max(s_lo, 0):])


def cell_distance(min_a, size_a, min_b, size_b) -> float:
    """Distance between two axis-aligned quadtree cells, each given by its
    lower corner and side (0 when they touch or overlap)."""
    gap_lo = min_a - (min_b + size_b)
    gap_hi = min_b - (min_a + size_a)
    gaps = np.maximum(np.maximum(gap_lo, gap_hi), 0.0)
    return float(np.sqrt((gaps ** 2).sum()))


def wspd_recursive(tree, s: float) -> list[tuple[int, int, float]]:
    """The WSPD as (u, v, separation) by recursive pair splitting: emit a
    pair when dist >= s * max(diam), else split the node with the larger
    cell; a node paired with itself splits into every pair of its
    children i <= j."""
    nodes = tree.nodes
    out: list[tuple[int, int, float]] = []

    def recurse(ua: int, ub: int) -> None:
        a, b = nodes[ua], nodes[ub]
        if ua == ub:
            if a.is_leaf:
                return
            kids = a.children
            for i in range(len(kids)):
                for j in range(i, len(kids)):
                    recurse(kids[i], kids[j])
            return
        da, db = a.diameter(), b.diameter()
        dist = cell_distance(a.cell_min, a.cell_size, b.cell_min, b.cell_size)
        if dist >= s * max(da, db):
            sep = dist / max(da, db) if max(da, db) > 0 else float("inf")
            out.append((ua, ub, sep))
            return
        if not a.is_leaf and (da >= db or b.is_leaf):
            for c in a.children:
                recurse(c, ub)
        else:
            for c in b.children:
                recurse(ua, c)

    recurse(tree.root, tree.root)
    return out


def wspd_point_pair_counts_loop(tree, pairs) -> list[int]:
    """How many of the (u, v, separation) pairs each point is in, one pair
    at a time."""
    counts = [0] * tree.n_points
    for u, v, _ in pairs:
        for idx in (u, v):
            for pid in tree.nodes[idx].point_ids.tolist():
                counts[pid] += 1
    return counts


def sample_plan_py(a: int, b: int, xi: Fraction, c_override=None) -> dict:
    """The bipartite sample plan in Python ints: c = ceil(3 / xi^2) samples
    per unit, ell = c * ceil((a + b) / side), saturated when each side's
    count reaches the other side."""
    c = c_override if c_override is not None else math.ceil(Fraction(3) / (xi * xi))
    ell_left = c * -(-(a + b) // a)
    ell_right = c * -(-(a + b) // b)
    return {"c": c, "ell_left": ell_left, "ell_right": ell_right,
            "budget": a * ell_left + b * ell_right,
            "saturated": ell_left >= b and ell_right >= a}


def expander_block_oracle(mat: np.ndarray, left, right, xi: Fraction, seed: int,
                          labels: tuple, c_override=None) -> dict:
    """Mark one bipartite expander between the id lists left and right in
    the boolean matrix mat, at [left id, right id], and return its plan.  A
    saturated expander is the complete bipartite block; a sampled one draws
    ell_left right neighbors per left vertex from substream(seed, *labels,
    "L") and ell_right left neighbors per right vertex from (..., "R"),
    marked one pair at a time."""
    left, right = list(left), list(right)
    plan = sample_plan_py(len(left), len(right), xi, c_override)
    if plan["saturated"]:
        mat[np.ix_(left, right)] = True
        return plan
    jl = substream(seed, *labels, "L").integers(0, len(right), size=len(left) * plan["ell_left"])
    for k, j in enumerate(jl.tolist()):
        mat[left[k // plan["ell_left"]], right[j]] = True
    ir = substream(seed, *labels, "R").integers(0, len(left), size=len(right) * plan["ell_right"])
    for k, i in enumerate(ir.tolist()):
        mat[left[i], right[k // plan["ell_right"]]] = True
    return plan


def _pow2(x) -> int:
    t = 1
    while t < x:
        t <<= 1
    return t


def build_H_oracle(n: int, xi: Fraction = Fraction(1, 16), seed: int = 0,
                   c_override=None) -> tuple[list, list, dict]:
    """(u, v, meta) of the block-tree spanner, one expander at a time: for
    every level lev and k, the k-th and (k+1)-th blocks of size 2^lev of
    [0, pow2(n)), labelled ("h", lev, k); edges past n are dropped."""
    n_padded = _pow2(n)
    mat = np.zeros((n_padded, n_padded), dtype=bool)
    budget = 0
    for lev in range(n_padded.bit_length() - 1):
        size = 1 << lev
        for k in range((n_padded >> lev) - 1):
            budget += expander_block_oracle(mat, range(k * size, (k + 1) * size),
                                            range((k + 1) * size, (k + 2) * size), xi, seed,
                                            ("h", lev, k), c_override)["budget"]
    u, v = np.nonzero(mat[:n, :n])
    cert = min(Fraction(1, 32), (Fraction(1, 4) - xi) / 2) / 3 if xi < Fraction(1, 4) else None
    meta = {"kind": "h1d", "n": n, "n_padded": n_padded, "xi": str(xi), "seed": seed,
            "sample_budget": budget, "experimental": c_override is not None,
            "cert_alpha": str(cert) if cert is not None else None,
            "bplus_factor": 2 * (1 + math.ceil(1 / cert)) if cert is not None else None}
    return u.tolist(), v.tolist(), meta


def build_G_theta_oracle(n: int, theta: Fraction, c: int, seed: int, mode: str,
                         c_override=None) -> tuple[list, list, dict]:
    """(u, v, meta) of the shifted-interval spanner, one expander at a time:
    N = pow2(c / theta^2), xi = 1 / (32 N), the band of width 3N (the whole
    line once 3N >= n - 1), and for every resolution i >= log2 N, shift
    j = 1..N and k, the intervals [s + k 2^i, s + (k+1) 2^i) and
    [s + (k+1) 2^i, s + (k+2) 2^i) with s = (j - 1) 2^i / N - 2^i, clipped
    to [0, n), labelled ("gt", i, j, k) and skipped when either side keeps
    fewer than 2 positions."""
    N = _pow2(Fraction(c) / (theta * theta))
    xi = Fraction(1, 32 * N)
    n_padded = _pow2(n)
    h = n_padded.bit_length() - 1
    regime, warnings = "layered", []
    if N >= n:
        warnings.append(f"N={N} >= n={n}: construction degenerates to the near-clique G0")
        regime = "degenerate"
    width = n - 1 if 3 * N >= n - 1 else 3 * N
    gap = np.subtract.outer(np.arange(n), np.arange(n))
    mat = (gap < 0) & (gap >= -width)
    budget = 0
    if 3 * N >= n - 1:
        regime = "g0_clique"
        warnings.append(f"3N={3 * N} covers the whole line: graph is the clique via G0")
    else:
        for i in range(N.bit_length() - 1, h):
            size = 1 << i
            for j in range(1, N + 1):
                s = (j - 1) * (size // N) - size
                for k in range(n_padded // size):
                    a = range(max(s + k * size, 0), min(s + (k + 1) * size, n))
                    b = range(max(s + (k + 1) * size, 0), min(s + (k + 2) * size, n))
                    if len(a) >= 2 and len(b) >= 2:
                        budget += expander_block_oracle(mat, a, b, xi, seed, ("gt", i, j, k),
                                                        c_override)["budget"]
    u, v = np.nonzero(mat)
    meta = {"kind": "g_theta", "n": n, "n_padded": n_padded, "theta": str(theta), "c": c,
            "N": N, "xi": str(xi), "mode": mode, "regime": regime, "warnings": warnings,
            "seed": seed, "sample_budget": budget,
            "experimental": mode == "experimental" or c_override is not None,
            "cert_alpha": str(1 - theta / 4), "bplus_factor": str(1 + theta), "hop_cap": 2 * h}
    return u.tolist(), v.tolist(), meta


def bounded_spread_oracle(points, epsilon: float, theta: Fraction, seed: int = 0,
                          c_override=None) -> tuple[int, list, list, dict]:
    """(n, u, v, meta) of the bounded-spread construction, one expander at a
    time: a bipartite expander per WSPD pair i, labelled ("wspd", i), and
    one per pair of sibling cells (a, b) of a node, labelled
    ("sib", node, a, b), each marked by expander_block_oracle."""
    coords = np.asarray(points, dtype=np.float64)
    ps = PointSet(coords)
    n = ps.n
    margin = 0.125
    normed, scale, offset = normalize_unit(coords, margin=margin)
    tree = quadtree_nodes(normed, already_normalized=True)
    separation = 6.0 / epsilon
    pairs = wspd_recursive(tree, separation)
    xi = theta / 8
    mat = np.zeros((n, n), dtype=bool)
    budget = 0

    def expander(left, right, labels):
        nonlocal budget
        budget += expander_block_oracle(mat, left, right, xi, seed, labels,
                                        c_override)["budget"]

    nodes = tree.nodes
    for i, (u, v, _) in enumerate(pairs):
        expander(nodes[u].point_ids.tolist(), nodes[v].point_ids.tolist(), ("wspd", i))
    for node in nodes:
        kids = node.children
        for a in range(len(kids)):
            for b in range(a + 1, len(kids)):
                expander(nodes[kids[a]].point_ids.tolist(), nodes[kids[b]].point_ids.tolist(),
                         ("sib", node.id, a, b))
    counts = wspd_point_pair_counts_loop(tree, pairs)
    meta = {
        "kind": "bounded_spread",
        "n": n,
        "d": ps.d,
        "epsilon": epsilon,
        "theta": str(theta),
        "xi": str(xi),
        "gamma": str(1 - theta / 2),
        "bplus_factor": str(1 + theta),
        "separation": separation,
        "seed": seed,
        "spread": ps.spread,
        "log2_spread": math.log2(ps.spread),
        "wspd_pairs": len(pairs),
        "wspd_max_membership": max(counts),
        "sample_budget": budget,
        "experimental": c_override is not None,
        "norm_scale": scale,
        "norm_offset": offset.tolist(),
        "norm_margin": margin,
    }
    u, v = np.nonzero(mat)
    return n, u.tolist(), v.tolist(), meta


def stretch_audit_full(g, bad, good, pair_budget, seed) -> tuple:
    """The stretch audit as it ran before it skipped pairs joined by an edge:
    Dijkstra from every good source, whole rows, every pair read.  Returns
    (first failing pairs, failing count, pairs checked, sampling, max
    stretch, max hops) like Certifier._stretch_audit."""
    if good.size < 2:
        return [], 0, 0, {"mode": "all"}, None, None
    total_pairs = good.size * (good.size - 1) // 2
    if g.n <= 2048 and total_pairs <= pair_budget:
        sampling = {"mode": "all", "pairs": int(total_pairs)}
        srcs, tgts = np.triu_indices(good.size, 1)
    else:
        rng = substream(seed, "stretch-sample")
        sampling = {"mode": "sampled", "pairs": int(pair_budget), "seed": seed}
        srcs = rng.integers(0, good.size, size=pair_budget)
        tgts = rng.integers(0, good.size, size=pair_budget)
        keep = srcs != tgts
        srcs, tgts = srcs[keep], tgts[keep]
    s, t = good[srcs], good[tgts]
    limit = (1.0 + g.meta["epsilon"]) * STRETCH_SLACK
    pos = g.positions
    sources = np.unique(s)
    failures: list[tuple[int, int]] = []
    failing, max_stretch = 0, 0.0
    for start in range(0, sources.size, 256):
        chunk = sources[start:start + 256]
        dist = shortest_path_matrix(g, bad, chunk)
        sel = np.isin(s, chunk)
        cs, ct = s[sel], t[sel]
        euc = np.sqrt(((pos[cs] - pos[ct]) ** 2).sum(axis=1))
        ratio = dist[np.searchsorted(chunk, cs), ct] / euc
        max_stretch = max(max_stretch, float(ratio.max()))
        over = np.flatnonzero(ratio > limit)
        failing += int(over.size)
        kept = over[:FAILING_KEPT - len(failures)]
        failures += zip(cs[kept].tolist(), ct[kept].tolist())
    return failures, failing, int(s.size), sampling, max_stretch, None
