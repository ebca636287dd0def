"""Independent brute-force oracles the fast paths are checked against.

Everything here is deliberately naive: cubic all-pairs relaxation, interval
enumeration, DP over vertices in increasing order.  None of it shares code
with the library paths under test.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

from relspan.lso import family_shape


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


def one_path_coverage_bruteforce(n: int, edges, bad, good, hop_cap=None,
                                 max_failures: int = 64):
    """(all_ok, failing pairs, max hops) with one_path_coverage's contract:
    sources in the order of `good` (skipping those with no good t above
    them), each source's failing t ascending, and a stop right after the
    failure that brings the list to max_failures, with max hops over the
    sources visited so far."""
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
        for t in want:
            if t not in reached:
                failures.append((s, t))
                if len(failures) >= max_failures:
                    return False, failures, max_hops
    return not failures, failures, max_hops


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
