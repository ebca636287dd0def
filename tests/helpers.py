"""Small test helpers over the library's public objects: graph views and
hashes, point files, witness replay and the analytic H budget."""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from relspan.graph_core import PointSet, clean_vertex_set, pow2_at_least
from relspan.shadow import ShadowResult, as_fraction


def edge_set(g) -> set[tuple[int, int]]:
    """The edges of g as a set of (u, v) pairs with u < v."""
    return set(zip(g.u.tolist(), g.v.tolist()))


def graph_sha256(g) -> tuple[str, str]:
    """sha256 of (n, u, v, w) as little-endian words, and of the meta as
    sorted JSON: the pins of a graph's edges and of its meta."""
    h = hashlib.sha256(np.int64(g.n).astype("<i8").tobytes())
    for arr, dtype in ((g.u, "<i8"), (g.v, "<i8"), (g.w, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest(), hashlib.sha256(json.dumps(g.meta, sort_keys=True).encode()).hexdigest()


def degrees(g) -> np.ndarray:
    deg = np.zeros(g.n, dtype=np.int64)
    np.add.at(deg, g.u, 1)
    np.add.at(deg, g.v, 1)
    return deg


def save_points(points: PointSet | np.ndarray, path) -> None:
    """One point per line, the format load_points reads."""
    coords = points.coords if isinstance(points, PointSet) else np.asarray(points)
    lines = [" ".join(repr(float(x)) for x in row) for row in coords]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def verify_witness(result: ShadowResult, B) -> bool:
    """Replay every recorded witness interval with pure integer counting."""
    if result.witnesses is None:
        raise ValueError("shadow was computed without witnesses")
    bad = set(clean_vertex_set(B, result.n).tolist())
    p, q = result.alpha.numerator, result.alpha.denominator
    for i, (lo, hi) in result.witnesses.items():
        if not (lo <= i <= hi):
            return False
        count = sum(1 for k in range(lo, hi + 1) if k in bad)
        if q * count < p * (hi - lo + 1):
            return False
    return True


def h_level_budget(n: int, xi=Fraction(1, 16)) -> int:
    """Analytic per-level sampling budget of build_H:
    pairs(level) * c * 2 * blocksize."""
    xi = as_fraction(xi)
    c = math.ceil(Fraction(3) / (xi * xi))
    n_padded = pow2_at_least(n)
    h = n_padded.bit_length() - 1
    total = 0
    for lev in range(h):
        pairs = (n_padded >> lev) - 1
        total += pairs * c * 2 * (1 << lev)
    return total
