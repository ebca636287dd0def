"""Locality-sensitive orderings of [0,1)^d.

The family mixes two kinds of total orders, both hierarchical over the
32-bit quantization grid:

* shifted Morton orders: coordinates shifted on a small lattice with odd
  denominator, bit-interleaved, with a per-level subcell reflection;
* grid-stepping orders: at one scale t the 2^(t d) grid cells (the root's
  2^w-ary subcells) are visited in an arithmetic progression that makes every
  cell pair at a prescribed offset Delta consecutive, with plain Morton order
  inside each cell.

For any pair (p, q) there is a scale at which their cells are small relative
to ||p-q|| and their cell offset Delta is in the family's band, so the points
strictly between them under that ordering all sit inside the two cells, i.e.
inside small balls around p and q.  The family is deliberately over-complete;
its exact size M is recorded and feeds every downstream budget.

``family_size`` counts M without listing any ordering: the step offsets of a
scale are the lattice points of a box intersected with a spherical band, and
their number follows from a histogram of squared norms over d - 1 axes plus
prefix counts on the last one, once per distinct box radius.
``build_ordering_family`` enumerates the same offsets to build the orderings.

Every ordering keys a point by one d * 32-bit integer, packed into uint64
words of floor(64 / d) levels each, and points are compared by their key
rows lexicographically (``key_ranks``).
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph_core import at_least, fraction_in, pow2_at_least
from .streams import substream

W_BITS = 32  # fixed-point quantization per axis; caps usable spread at 2^32
T_MAX = 20  # finest grid-stepping scale t, whose cells have side 2^-t


def _quantize(x: np.ndarray) -> np.ndarray:
    return np.minimum((np.mod(x, 1.0) * float(1 << W_BITS)).astype(np.uint64),
                      np.uint64((1 << W_BITS) - 1))


class _KeyLayout(NamedTuple):
    spans: tuple[tuple[int, int], ...]  # levels [lo, hi) of each word
    lo: np.ndarray  # per word, uint64
    level_mask: np.ndarray  # 2^(hi - lo) - 1 per word
    stages: list[tuple[np.uint64, np.uint64]]  # (shift, mask) of the bit spread
    rep: np.ndarray  # 1 at each digit's bottom: reflection * rep reflects all digits


@functools.lru_cache(maxsize=8)
def _key_layout(d: int) -> _KeyLayout:
    """How a d * W_BITS-bit key is packed into uint64 words for dimension d.

    A key is W_BITS levels of d-bit digits (axis d - 1 the digit's top bit),
    most significant level first.  Each word holds floor(64 / d) levels,
    most significant word first.  Bits are spread with magic masks: before
    the stage at k, blocks of 2^(k+1) bits sit at stride 2^(k+1) d, and the
    stage moves every odd 2^k-bit block up by 2^k (d - 1); for d = 2 these
    are the usual 0x0000FFFF0000FFFF ... 0x5555555555555555 masks.
    """
    per_word = min(64 // d, W_BITS)
    spans = tuple((max(hi - per_word, 0), hi) for hi in range(W_BITS, 0, -per_word))
    stages = []
    for k in range((per_word - 1).bit_length() - 1, -1, -1):
        low = (1 << k) - 1
        mask = sum(1 << ((i >> k) * (d << k) + (i & low)) for i in range(per_word))
        stages.append((np.uint64((d - 1) << k), np.uint64(mask)))

    def frozen(values: list[int]) -> np.ndarray:
        a = np.array(values, dtype=np.uint64)
        a.setflags(write=False)  # shared by every caller through the cache
        return a

    return _KeyLayout(spans, frozen([lo for lo, _ in spans]),
                      frozen([(1 << (hi - lo)) - 1 for lo, hi in spans]), stages,
                      frozen([sum(1 << (d * j) for j in range(hi - lo)) for lo, hi in spans]))


def _morton_words(q: np.ndarray) -> np.ndarray:
    """(n, w) uint64 Morton key words of quantized coordinates q, (n, d)."""
    d = q.shape[1]
    layout = _key_layout(d)
    x = (q.T[:, None, :] >> layout.lo[:, None]) & layout.level_mask[:, None]  # (d, w, n)
    for shift, mask in layout.stages:
        x |= x << shift
        x &= mask
    words = x[0]
    for a in range(1, d):
        words |= x[a] << np.uint64(a)
    return words.T


@dataclass
class Ordering:
    """One comparator of the family; a pure function of quantized coords."""

    id: int
    d: int
    kind: str  # "morton" | "step"
    shift: tuple[float, ...]
    reflection: int = 0
    t: int = 0
    delta: tuple[int, ...] | None = None
    v: tuple[int, ...] | None = None

    # -- key computation ----------------------------------------------------

    def keys(self, pts: np.ndarray) -> np.ndarray:
        """(n, w) uint64 keys, compared row by row lexicographically."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        return self.grid_keys(_quantize(pts + np.asarray(self.shift)))

    def grid_keys(self, q: np.ndarray) -> np.ndarray:
        """Keys of coordinates already shifted and quantized to W_BITS bits.

        A Morton key is the bit-interleaved coordinates with every d-bit
        digit XORed by the reflection.  A step key is the Morton key of the
        W_BITS - t fine bits with the cell's visiting order
        sum(v_a c_a) mod 2^(t d) in its top t levels; the order is computed
        in wrapping uint64 arithmetic, exact while t d <= 64.
        """
        layout = _key_layout(self.d)
        if self.kind == "morton":
            return _morton_words(q) ^ (np.uint64(self.reflection) * layout.rep)
        fine_bits = W_BITS - self.t
        words = _morton_words(q & np.uint64((1 << fine_bits) - 1))
        cells = q >> np.uint64(fine_bits)
        order = (cells * np.array(self.v, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)
        for k, (lo, hi) in enumerate(layout.spans):
            # the order's bit 0 sits at key bit d * fine_bits, word bit s;
            # its bits from t d up fall past the key's top and are masked off
            s = self.d * (fine_bits - lo)
            width = self.d * (hi - lo)
            if s >= width:
                continue
            part = order << np.uint64(s) if s >= 0 else order >> np.uint64(-s)
            words[:, k] |= part & np.uint64((1 << width) - 1)
        return words


def _step_v(delta: tuple[int, ...], t: int) -> tuple[int, ...]:
    """Coefficients v with sum(v*delta) = 1 mod m^d and c -> v.c bijective
    on the cell grid (mixed-radix with odd units)."""
    d = len(delta)
    m = 1 << t
    mod = m ** d
    pivot = next(a for a in range(d) if delta[a] % 2 != 0)
    v = [0] * d
    place = 1
    for a in range(d):
        if a == pivot:
            continue
        v[a] = m ** place
        place += 1
    rest = sum(v[a] * delta[a] for a in range(d) if a != pivot)
    v[pivot] = (pow(delta[pivot] % mod, -1, mod) * (1 - rest)) % mod
    return tuple(v)


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------

def family_shape(d: int, sigma) -> dict:
    """All structural parameters of the family for (d, sigma)."""
    if isinstance(d, bool) or not isinstance(d, numbers.Integral):
        raise TypeError(f"d must be an int, got {d!r}")
    d = int(d)
    sigma = float(fraction_in(sigma, "sigma"))
    if not (1 <= d <= 8):
        raise ValueError("d must be in [1, 8]")
    root_d = math.sqrt(d)
    band_lo = 0.72 * root_d / sigma
    band_hi = 1.12 * 2.0 * root_d / sigma
    # Scales beyond T_MAX would serve pairs below 1e-6 separation, outside
    # the supported regime anyway.  Offsets at scale t are at most 2^t - 1
    # per axis, so a band starting past 2^T_MAX - 1 could leave the family
    # without any step ordering.
    if band_lo > (1 << T_MAX) - 1:
        sigma_min = 0.72 * root_d / ((1 << T_MAX) - 1)
        raise ValueError(f"sigma = {sigma:.6g} is below the smallest supported "
                         f"sigma, {sigma_min:.6g} for d = {d}")
    t_min = max(1, math.ceil(math.log2(band_lo)))
    t_max = min(math.ceil(math.log2(band_lo / 0.01)), T_MAX)
    lattice = min(pow2_at_least(math.ceil(1.0 / sigma)), 4)
    reflections = min(max(math.ceil(math.log2(1.0 / sigma)), 1), 1 << d)
    return {
        "sigma": sigma,
        "d": d,
        "band": (band_lo, band_hi),
        "t_min": t_min,
        "t_max": t_max,
        "lattice": lattice,
        "lattice_denominator": lattice + 1,
        "reflections": reflections,
    }


def _deltas_for_scale(shape: dict, t: int) -> list[tuple[int, ...]]:
    d = shape["d"]
    lo, hi = shape["band"]
    m = 1 << t
    rmax = min(int(hi) + 1, m - 1)
    lo2, hi2 = lo * lo, hi * hi
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], partial: int) -> None:
        if partial > hi2:
            return
        if len(prefix) == d:
            if all(x % 2 == 0 for x in prefix):
                return
            if not (lo2 <= partial <= hi2):
                return
            neg = tuple(-x for x in prefix)
            if prefix < neg:
                return  # canonical sign: an ordering serves both directions
            out.append(prefix)
            return
        for val in range(-rmax, rmax + 1):
            rec(prefix + (val,), partial + val * val)

    rec((), 0)
    return out


def _box_band_count(d: int, r: int, s_lo: int, s_hi: int, step: int) -> int:
    """Number of x in (step Z)^d with |x_a| <= r and s_lo <= |x|^2 <= s_hi.

    The squared norms of the first d - 1 axes are collected as a histogram
    (distinct value, multiplicity), one axis at a time, dropping values past
    s_hi; the last axis is then counted through its prefix counts
    F(k) = #{y : |y| <= r, y^2 <= k}.
    """
    sq = (step * np.arange(r // step + 1, dtype=np.int64)) ** 2
    # counts are exact in int64 while the whole box fits, else Python ints
    dtype = np.int64 if (2 * r + 1) ** d < 1 << 63 else object
    mult = np.full(sq.size, 2, dtype=dtype)
    mult[0] = 1
    vals = np.zeros(1, dtype=np.int64)
    counts = np.ones(1, dtype=dtype)
    for _ in range(d - 1):
        sums = (vals[:, None] + sq[None, :]).ravel()
        prods = (counts[:, None] * mult[None, :]).ravel()
        keep = sums <= s_hi
        sums, prods = sums[keep], prods[keep]
        order = np.argsort(sums)
        sums, prods = sums[order], prods[order]
        starts = np.flatnonzero(np.r_[True, sums[1:] != sums[:-1]])
        vals, counts = sums[starts], np.add.reduceat(prods, starts)

    def prefix(k: np.ndarray) -> np.ndarray:
        return np.maximum(2 * np.searchsorted(sq, k, side="right") - 1, 0)

    per_val = prefix(s_hi - vals) - prefix(s_lo - 1 - vals)
    return int((counts * per_val.astype(dtype)).sum())


def family_size(d: int, sigma) -> int:
    """Exact M, counted in closed form per scale instead of enumerated.

    The step orderings at scale t are the offsets x of ``_deltas_for_scale``:
    x in [-r, r]^d with r = min(floor(hi) + 1, 2^t - 1), lo^2 <= |x|^2 <= hi^2,
    not all coordinates even, one of x and -x.  Since 0 is outside the band,
    their number is (A - E) / 2, where A counts the box-and-band vectors and
    E those among them with even coordinates.  The count depends on t only
    through r, which takes at most a few values, so each r is counted once,
    in time and memory of order r^(d-1).
    """
    shape = family_shape(d, sigma)
    d = shape["d"]
    lo, hi = shape["band"]
    # integer bounds equivalent to lo*lo <= s <= hi*hi for integer s
    s_lo, s_hi = math.ceil(lo * lo), math.floor(hi * hi)
    scales_per_r = Counter(min(int(hi) + 1, (1 << t) - 1)
                           for t in range(shape["t_min"], shape["t_max"] + 1))
    m = shape["lattice"] ** d * shape["reflections"]
    for r, scales in scales_per_r.items():
        a = _box_band_count(d, r, s_lo, s_hi, 1)
        e = _box_band_count(d, r, s_lo, s_hi, 2)
        m += scales * (a - e) // 2
    return m


@dataclass
class OrderingFamily:
    sigma: float
    d: int
    orderings: list[Ordering]
    shape: dict
    step_index: dict[tuple, int]

    @property
    def M(self) -> int:
        return len(self.orderings)

    def lookup_step(self, t: int, delta: tuple[int, ...]) -> Ordering | None:
        neg = tuple(-x for x in delta)
        key = (t, max(delta, neg))
        idx = self.step_index.get(key)
        return self.orderings[idx] if idx is not None else None


def build_ordering_family(d: int, sigma) -> OrderingFamily:
    """Deterministic family; M is a pure function of (d, sigma).

    Step keys compute their t d-bit cell order in uint64 arithmetic, so a
    family whose finest scale needs d t_max > 64 bits is refused; every such
    family has over 2 * 10^8 orderings.
    """
    shape = family_shape(d, sigma)
    if shape["d"] * shape["t_max"] > 64:
        raise ValueError(f"d * t_max = {shape['d']} * {shape['t_max']} exceeds the "
                         f"64 bits of a step ordering's cell order")
    orderings: list[Ordering] = []
    den = shape["lattice_denominator"]
    for refl in range(shape["reflections"]):
        for shift_code in range(shape["lattice"] ** d):
            code = shift_code
            shift = []
            for _ in range(d):
                shift.append((code % shape["lattice"]) / den)
                code //= shape["lattice"]
            orderings.append(Ordering(len(orderings), d, "morton",
                                      tuple(shift), reflection=refl))
    step_index: dict[tuple, int] = {}
    zero_shift = tuple([0.0] * d)
    for t in range(shape["t_min"], shape["t_max"] + 1):
        for delta in _deltas_for_scale(shape, t):
            o = Ordering(len(orderings), d, "step", zero_shift, t=t,
                         delta=delta, v=_step_v(delta, t))
            orderings.append(o)
            step_index[(t, delta)] = o.id
    return OrderingFamily(shape["sigma"], d, orderings, shape, step_index)


def key_ranks(keys: np.ndarray) -> np.ndarray:
    """Dense ranks of (n, w) key rows in lexicographic order: equal rows share
    a rank, and a smaller row has a smaller rank."""
    order = np.lexsort(keys.T[::-1])
    rows = keys[order]
    new = np.zeros(order.size, dtype=np.int64)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[order] = new.cumsum()
    return ranks


def sort_by_ordering(ordering: Ordering, pts: np.ndarray) -> np.ndarray:
    """Permutation sorting the points; key ties break by point id."""
    return np.argsort(key_ranks(ordering.keys(pts)), kind="stable")


# ---------------------------------------------------------------------------
# the property checker
# ---------------------------------------------------------------------------

@dataclass
class LsoCheck:
    ok: bool
    ordering_id: int | None
    tried: int
    between_count: int


def _test_ordering(o: Ordering, pts: np.ndarray, grid: np.ndarray, rad: float,
                   dzp: np.ndarray, dzq: np.ndarray) -> tuple[bool, int]:
    """pts stacks p, q and the samples; grid is pts quantized, which is what
    every zero-shift ordering keys."""
    ranks = key_ranks(o.keys(pts) if any(o.shift) else o.grid_keys(grid))
    kp, kq = ranks[0], ranks[1]
    lo, hi = (kp, kq) if kp < kq else (kq, kp)
    kz = ranks[2:]
    between = (kz > lo) & (kz < hi)
    count = int(between.sum())
    if count == 0:
        return True, 0
    near_p = dzp[between] <= rad
    near_q = dzq[between] <= rad
    if not (near_p | near_q).all():
        return False, count
    # pivot consistency: sorted by key, first-endpoint ball then second
    order = np.argsort(kz[between], kind="stable")
    first_is_p = kp < kq
    near_first = (near_p if first_is_p else near_q)[order]
    near_second = (near_q if first_is_p else near_p)[order]
    state = 0
    for nf, ns in zip(near_first, near_second):
        if state == 0:
            if nf:
                continue
            if ns:
                state = 1
            else:
                return False, count
        elif not ns:
            return False, count
    return True, count


def check_lso_property(family: OrderingFamily, p, q, sample_count: int = 200,
                       points=None, seed: int = 0) -> LsoCheck:
    """Search the family for an ordering placing everything sampled between
    p and q inside ball(p, sigma*l) + ball(q, sigma*l), split by a pivot.

    p, q and the dataset rows (PointSet.normed) lie in [0,1)^d, where the
    orderings are defined; the samples are uniform there, plus the dataset
    rows when supplied.  Candidate orderings (the scales whose cell offset
    for this pair is in the family) are tried first, then the rest.
    """
    at_least(sample_count, "sample_count", 0)
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    ell = float(np.linalg.norm(q - p))
    if ell == 0.0:
        raise ValueError("points must be distinct")
    rng = substream(seed, "lso-check")
    z = rng.random((sample_count, family.d))
    if points is not None:
        data = np.asarray(points, dtype=np.float64)
        mask = ~(np.all(data == p, axis=1) | np.all(data == q, axis=1))
        z = np.vstack([z, data[mask]]) if z.size else data[mask]
    rad = family.sigma * ell
    dzp = np.linalg.norm(z - p, axis=1)
    dzq = np.linalg.norm(z - q, axis=1)
    pts = np.vstack([p, q, z])
    grid = _quantize(pts)

    tried = 0
    seen: set[int] = set()
    for t in range(family.shape["t_min"], family.shape["t_max"] + 1):
        m = 1 << t
        cp = tuple(int(x * m) for x in p)
        cq = tuple(int(x * m) for x in q)
        delta = tuple(b - a for a, b in zip(cp, cq))
        o = family.lookup_step(t, delta)
        if o is None or o.id in seen:
            continue
        seen.add(o.id)
        tried += 1
        ok, cnt = _test_ordering(o, pts, grid, rad, dzp, dzq)
        if ok:
            return LsoCheck(True, o.id, tried, cnt)
    for o in family.orderings:
        if o.id in seen:
            continue
        tried += 1
        ok, cnt = _test_ordering(o, pts, grid, rad, dzp, dzq)
        if ok:
            return LsoCheck(True, o.id, tried, cnt)
    return LsoCheck(False, None, tried, -1)
