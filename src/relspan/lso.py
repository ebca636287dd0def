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
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .streams import substream

W_BITS = 32  # fixed-point quantization per axis; caps usable spread at 2^32
T_MAX = 20  # finest grid-stepping scale t, whose cells have side 2^-t

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0xAAAAAAAAAAAAAAAA)


def _part1by1(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64)
    x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & _M1
    return x


def _quantize(x: np.ndarray) -> np.ndarray:
    return np.minimum((np.mod(x, 1.0) * float(1 << W_BITS)).astype(np.uint64),
                      np.uint64((1 << W_BITS) - 1))


def _interleave_py(coords_bits: list[int], d: int, bits: int) -> int:
    key = 0
    for lvl in range(bits - 1, -1, -1):
        for axis in range(d - 1, -1, -1):
            key = (key << 1) | ((coords_bits[axis] >> lvl) & 1)
    return key


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
        """Vectorized keys for d <= 2; python-int keys otherwise."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        if self.d == 1:
            return self._keys_d1(pts)
        if self.d == 2:
            return self._keys_d2(pts)
        return np.array([self.key_one(row) for row in pts], dtype=object)

    def _shifted_quant(self, pts: np.ndarray) -> list[np.ndarray]:
        return [_quantize(pts[:, a] + self.shift[a]) for a in range(self.d)]

    def _keys_d1(self, pts: np.ndarray) -> np.ndarray:
        (xs,) = self._shifted_quant(pts)
        if self.kind == "morton":
            key = xs
            if self.reflection & 1:
                key = key ^ np.uint64((1 << W_BITS) - 1)
            return key
        t = self.t
        m = np.uint64((1 << t) - 1)
        cells = (xs >> np.uint64(W_BITS - t)) & m
        order = (np.uint64(self.v[0]) * cells) & m
        fine = xs & np.uint64((1 << (W_BITS - t)) - 1)
        return (order << np.uint64(W_BITS - t)) | fine

    def _keys_d2(self, pts: np.ndarray) -> np.ndarray:
        xs, ys = self._shifted_quant(pts)
        if self.kind == "morton":
            key = _part1by1(xs) | (_part1by1(ys) << np.uint64(1))
            mask = np.uint64(0)
            if self.reflection & 1:
                mask |= _M1
            if self.reflection & 2:
                mask |= _M2
            return key ^ mask
        t = self.t
        sh = np.uint64(W_BITS - t)
        cx = (xs >> sh).astype(np.int64)
        cy = (ys >> sh).astype(np.int64)
        mod_mask = np.int64((1 << (2 * t)) - 1)
        order = (np.int64(self.v[0]) * cx + np.int64(self.v[1]) * cy) & mod_mask
        fmask = np.uint64((1 << (W_BITS - t)) - 1)
        fine = _part1by1(xs & fmask) | (_part1by1(ys & fmask) << np.uint64(1))
        return (order.astype(np.uint64) << np.uint64(2 * (W_BITS - t))) | fine

    def key_one(self, p) -> int:
        """Scalar python-int key, any dimension."""
        q = [int(min(int(((p[a] + self.shift[a]) % 1.0) * (1 << W_BITS)),
                     (1 << W_BITS) - 1)) for a in range(self.d)]
        if self.kind == "morton":
            key = _interleave_py(q, self.d, W_BITS)
            if self.reflection:
                refl = 0
                for lvl in range(W_BITS):
                    refl |= self.reflection << (self.d * lvl)
                key ^= refl
            return key
        t = self.t
        m = 1 << t
        mod = m ** self.d
        cells = [qq >> (W_BITS - t) for qq in q]
        order = sum(v * c for v, c in zip(self.v, cells)) % mod
        fine = _interleave_py([qq & ((1 << (W_BITS - t)) - 1) for qq in q],
                              self.d, W_BITS - t)
        return order * (1 << (self.d * (W_BITS - t))) + fine


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

def _pow2_at_least(x: float) -> int:
    t = 1
    while t < x:
        t <<= 1
    return t


def family_shape(d: int, sigma) -> dict:
    """All structural parameters of the family for (d, sigma)."""
    if isinstance(d, bool) or not isinstance(d, numbers.Integral):
        raise TypeError(f"d must be an int, got {d!r}")
    d = int(d)
    sigma = float(Fraction(sigma)) if isinstance(sigma, str) else float(sigma)
    if not (0 < sigma < 1):
        raise ValueError("sigma must be in (0, 1)")
    if not (1 <= d <= 8):
        raise ValueError("d must be in [1, 8]")
    root_d = math.sqrt(d)
    band_lo = 0.72 * root_d / sigma
    band_hi = 1.12 * 2.0 * root_d / sigma
    # int64 cell arithmetic needs 3t <= 62 bits; scales beyond T_MAX would
    # serve pairs below 1e-6 separation, outside the supported regime anyway.
    # Offsets at scale t are at most 2^t - 1 per axis, so a band starting past
    # 2^T_MAX - 1 could leave the family without any step ordering.
    if band_lo > (1 << T_MAX) - 1:
        sigma_min = 0.72 * root_d / ((1 << T_MAX) - 1)
        raise ValueError(f"sigma = {sigma:.6g} is below the smallest supported "
                         f"sigma, {sigma_min:.6g} for d = {d}")
    t_min = max(1, math.ceil(math.log2(band_lo)))
    t_max = min(math.ceil(math.log2(band_lo / 0.01)), T_MAX)
    lattice = min(_pow2_at_least(math.ceil(1.0 / sigma)), 4)
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
    """Deterministic family; M is a pure function of (d, sigma)."""
    shape = family_shape(d, sigma)
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


def sort_by_ordering(ordering: Ordering, pts: np.ndarray) -> np.ndarray:
    """Permutation sorting the points; key ties break by point id."""
    keys = ordering.keys(pts)
    if keys.dtype == object:
        return np.array(sorted(range(len(keys)), key=lambda i: (keys[i], i)),
                        dtype=np.int64)
    return np.argsort(keys, kind="stable").astype(np.int64)


# ---------------------------------------------------------------------------
# the property checker
# ---------------------------------------------------------------------------

@dataclass
class LsoCheck:
    ok: bool
    ordering_id: int | None
    tried: int
    between_count: int


def _test_ordering(o: Ordering, p, q, z: np.ndarray, rad: float,
                   dzp: np.ndarray, dzq: np.ndarray) -> tuple[bool, int]:
    pts = np.vstack([p, q, z]) if z.size else np.vstack([p, q])
    keys = o.keys(pts)
    if keys.dtype == object:
        kp, kq = keys[0], keys[1]
        kz = keys[2:]
        lo, hi = (kp, kq) if kp < kq else (kq, kp)
        between = np.array([lo < k < hi for k in kz], dtype=bool)
    else:
        kp, kq = keys[0], keys[1]
        lo, hi = (kp, kq) if kp < kq else (kq, kp)
        kz = keys[2:]
        between = (kz > lo) & (kz < hi)
    count = int(between.sum())
    if count == 0:
        return True, 0
    near_p = dzp[between] <= rad
    near_q = dzq[between] <= rad
    if not (near_p | near_q).all():
        return False, count
    # pivot consistency: sorted by key, first-endpoint ball then second
    kb = kz[between]
    if kb.dtype == object:
        order = np.array(sorted(range(len(kb)), key=lambda i: kb[i]), dtype=np.int64)
    else:
        order = np.argsort(kb, kind="stable")
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
                       points=None, seed: int = 0,
                       full_scan: bool = True) -> LsoCheck:
    """Search the family for an ordering placing everything sampled between
    p and q inside ball(p, sigma*l) + ball(q, sigma*l), split by a pivot.

    Samples are uniform in [0,1)^d, plus all dataset points when supplied.
    Candidate orderings (the scales whose cell offset for this pair is in the
    family) are tried first; full_scan falls back to the whole family.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    ell = float(np.linalg.norm(q - p))
    if ell == 0.0:
        raise ValueError("points must be distinct")
    rng = substream(seed, "lso-check")
    z = rng.random((sample_count, family.d))
    if points is not None:
        data = points if isinstance(points, np.ndarray) else points.coords
        mask = ~(np.all(data == p, axis=1) | np.all(data == q, axis=1))
        z = np.vstack([z, data[mask]]) if z.size else data[mask]
    rad = family.sigma * ell
    dzp = np.linalg.norm(z - p, axis=1)
    dzq = np.linalg.norm(z - q, axis=1)

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
        ok, cnt = _test_ordering(o, p, q, z, rad, dzp, dzq)
        if ok:
            return LsoCheck(True, o.id, tried, cnt)
    if full_scan:
        for o in family.orderings:
            if o.id in seen:
                continue
            tried += 1
            ok, cnt = _test_ordering(o, p, q, z, rad, dzp, dzq)
            if ok:
                return LsoCheck(True, o.id, tried, cnt)
    return LsoCheck(False, None, tried, -1)
