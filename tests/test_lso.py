import math
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from relspan import lso
from relspan.lso import (W_BITS, Ordering, _box_band_count, _step_v,
                         build_ordering_family, check_lso_property, family_shape,
                         family_size, key_ranks, sort_by_ordering)
from relspan.streams import substream

from oracles import (box_band_count_bruteforce, family_size_bruteforce,
                     ordering_key_py)

# M recorded from the enumerating count that family_size replaced
GOLDEN_M = {
    (1, 0.01): 492,
    (1, 0.5): 9,
    (2, 0.99): 78,
    (2, 0.25): 1122,
    (2, 0.5 / 16): 70068,
    (2, 0.99 / 16): 17880,
    (2, 0.5 / 128): 4480980,
    (3, 0.5): 4959,
    (3, 0.25): 40970,
    (3, 0.99 / 16): 2717466,
    (4, 0.5): 102812,
}


def test_family_shape_and_size_recorded():
    fam = build_ordering_family(2, 0.25)
    assert fam.M == len(fam.orderings)
    assert fam.M == family_size(2, 0.25)
    kinds = {o.kind for o in fam.orderings}
    assert kinds == {"morton", "step"}


def test_family_size_monotone_in_sigma():
    sizes = [family_size(2, s) for s in (0.5, 0.25, 0.125, 0.0625)]
    for a, b in zip(sizes, sizes[1:]):
        assert a <= b  # smaller sigma: more orderings


def test_d1_zero_shift_is_coordinate_order():
    fam = build_ordering_family(1, 0.5)
    zero = next(o for o in fam.orderings
                if o.kind == "morton" and o.shift == (0.0,) and o.reflection == 0)
    rng = substream(1, "d1")
    pts = rng.random((200, 1))
    perm = sort_by_ordering(zero, pts)
    assert (np.diff(pts[perm, 0]) >= 0).all()


def test_vector_and_scalar_keys_agree_d2():
    fam = build_ordering_family(2, 0.25)
    rng = substream(2, "keys")
    pts = rng.random((64, 2))
    for o in fam.orderings[::37]:
        vec = o.keys(pts)
        scalar = np.array([ordering_key_py(o, p) for p in pts], dtype=np.uint64)
        assert vec.shape[1] == 1
        assert (vec[:, 0] == scalar).all(), o


def test_comparator_totality_sampled():
    fam = build_ordering_family(2, 0.25)
    rng = substream(3, "total")
    pts = rng.random((2000, 2))
    o = fam.orderings[len(fam.orderings) // 2]
    keys = o.keys(pts)
    assert keys.shape[1] == 1
    keys = keys[:, 0]
    ids = np.arange(2000)
    # strict total order including the id tiebreak: sort then every
    # consecutive pair must be strictly increasing in (key, id)
    perm = np.lexsort((ids, keys))
    k_sorted = keys[perm]
    i_sorted = ids[perm]
    strict = (k_sorted[:-1] < k_sorted[1:]) | \
             ((k_sorted[:-1] == k_sorted[1:]) & (i_sorted[:-1] < i_sorted[1:]))
    assert strict.all()


def test_comparator_transitivity_sampled():
    fam = build_ordering_family(2, 0.5)
    rng = substream(4, "trans")
    pts = rng.random((3000, 2))
    for o in (fam.orderings[0], fam.orderings[-1]):
        keys = o.keys(pts)
        assert keys.shape[1] == 1
        keys = keys[:, 0]
        tri = rng.integers(0, 3000, size=(2000, 3))
        a, b, c = keys[tri[:, 0]], keys[tri[:, 1]], keys[tri[:, 2]]
        # keys are integers: a<b<c implies a<c automatically; verify no
        # cyclic comparisons arise through the tuple comparison itself
        cyc = (a < b) & (b < c) & (c < a)
        assert not cyc.any()


def test_same_cell_pair_trivially_passes():
    fam = build_ordering_family(2, 0.25)
    p = np.array([0.40001, 0.40001])
    q = np.array([0.40002, 0.40002])
    res = check_lso_property(fam, p, q, sample_count=200, seed=5)
    assert res.ok


def test_identical_points_rejected():
    fam = build_ordering_family(2, 0.5)
    with pytest.raises(ValueError):
        check_lso_property(fam, [0.3, 0.3], [0.3, 0.3])


def test_witness_rate_unit_scale():
    fam = build_ordering_family(2, 0.25)
    rng = substream(6, "pairs")
    found = 0
    trials = 400
    for t in range(trials):
        p, q = rng.random(2), rng.random(2)
        if np.allclose(p, q):
            continue
        res = check_lso_property(fam, p, q, sample_count=200, seed=t)
        found += res.ok
    assert found / trials >= 0.97


def test_check_uses_dataset_points():
    fam = build_ordering_family(2, 0.25)
    rng = substream(7, "data")
    data = rng.random((128, 2))
    p, q = data[3], data[77]
    res = check_lso_property(fam, p, q, sample_count=50, points=data, seed=1)
    assert res.ok in (True, False)  # runs with dataset augmentation


def test_step_ordering_consecutive_construction():
    # the defining property: cells at offset delta are consecutive
    fam = build_ordering_family(2, 0.25)
    o = next(o for o in fam.orderings if o.kind == "step")
    t, (dx, dy) = o.t, o.delta
    m = 1 << t
    mod = m * m
    v1, v2 = o.v
    for cx, cy in [(1, 2), (5, 3), (0, 0)]:
        qx, qy = cx + dx, cy + dy
        if not (0 <= qx < m and 0 <= qy < m):
            continue
        phi_p = (v1 * cx + v2 * cy) % mod
        phi_q = (v1 * qx + v2 * qy) % mod
        assert (phi_q - phi_p) % mod == 1


def test_step_enumeration_bijective_small():
    fam = build_ordering_family(2, 0.25)
    o = next(o for o in fam.orderings if o.kind == "step" and o.t <= 4)
    m = 1 << o.t
    mod = m * m
    v1, v2 = o.v
    seen = {(v1 * x + v2 * y) % mod for x in range(m) for y in range(m)}
    assert len(seen) == mod


def test_unsupported_dimension():
    with pytest.raises(ValueError):
        family_shape(9, 0.5)
    with pytest.raises(ValueError):
        family_shape(2, 1.5)


def test_d3_family_smoke():
    fam = build_ordering_family(3, 0.5)
    assert fam.M == family_size(3, 0.5)
    rng = substream(20, "d3")
    pts = rng.random((40, 3))
    o = fam.orderings[0]
    keys = {tuple(row) for row in o.keys(pts).tolist()}
    assert len(keys) == 40
    perm = sort_by_ordering(o, pts)
    assert sorted(perm.tolist()) == list(range(40))
    step = next(o for o in fam.orderings if o.kind == "step")
    kp = {tuple(row) for row in step.keys(pts).tolist()}
    assert len(kp) == 40
    # witness search works in 3D as well
    res = check_lso_property(fam, pts[0], pts[1], sample_count=60, seed=1)
    assert res.ok in (True, False)


# -- keys against the Python-int reference -----------------------------------

def key_points(d: int, seed: int) -> np.ndarray:
    """Random points plus the edge cases of the quantizer: 0, just below 1,
    shifted past 1, two pairs of equal points, and a cluster that only the
    lowest key word tells apart."""
    pts = substream(seed, "key-points", str(d)).random((36, d))
    pts[0] = 0.0
    pts[1] = math.nextafter(1.0, 0.0)
    pts[2, 0] = 0.0
    pts[3, -1] = math.nextafter(1.0, 0.0)
    pts[4:7] += 1.0 + pts[4:7]  # wraps to the fractional part
    pts[7] = pts[8]
    pts[9] = pts[1]
    pts[10:16] = pts[10] + np.arange(5, -1, -1)[:, None] * 2.0 ** -30
    return pts


def assert_keys_match_reference(o: Ordering, pts: np.ndarray) -> None:
    ref = [ordering_key_py(o, p) for p in pts]
    keys = o.keys(pts)
    # the packed words are the reference key, floor(64 / d) levels a word
    per_word = min(64 // o.d, W_BITS)
    bits = o.d * W_BITS
    packed = [0] * len(pts)
    for k in range(keys.shape[1]):
        width = o.d * min(per_word, W_BITS - k * per_word)
        bits -= width
        for i, word in enumerate(keys[:, k].tolist()):
            packed[i] |= word << bits
    assert bits == 0 and packed == ref, o
    if o.d <= 2:
        assert keys.shape[1] == 1 and keys[:, 0].tolist() == ref
    want = sorted(range(len(pts)), key=lambda i: (ref[i], i))
    assert sort_by_ordering(o, pts).tolist() == want, o
    ranks = key_ranks(keys)
    same = np.equal.outer(ranks, ranks)
    assert (same == np.array([[a == b for b in ref] for a in ref])).all(), o


@pytest.mark.parametrize("d, sigma", [(1, 0.5), (2, 0.25), (3, 0.5), (4, 0.9)])
def test_keys_match_reference(d, sigma):
    """Every Morton ordering and the step orderings of the coarsest and the
    finest scale that have any (t_max always has some)."""
    fam = build_ordering_family(d, sigma)
    scales = {o.t for o in fam.orderings if o.kind == "step"}
    assert max(scales) == fam.shape["t_max"]
    pts = key_points(d, 1)
    chosen = [o for o in fam.orderings
              if o.kind == "morton" or o.t in (min(scales), max(scales))]
    for o in chosen:
        assert_keys_match_reference(o, pts)


def test_d2_spread_masks_are_the_classic_ones():
    masks = [int(mask) for _, mask in lso._key_layout(2).stages]
    assert masks == [0x0000FFFF0000FFFF, 0x00FF00FF00FF00FF, 0x0F0F0F0F0F0F0F0F,
                     0x3333333333333333, 0x5555555555555555]
    assert [int(shift) for shift, _ in lso._key_layout(2).stages] == [16, 8, 4, 2, 1]


@pytest.mark.parametrize("d, t, delta", [(3, 20, (5, -2, 7)), (4, 16, (2, 3, -1, 6)),
                                         (8, 8, (1, 0, 2, -3, 0, 0, 4, 1))])
def test_step_keys_up_to_64_bit_cell_order(d, t, delta):
    """Step orderings built directly at the largest t d the keys support:
    60 bits (d = 3, t = T_MAX) and 64 bits (d = 4 and 8)."""
    o = Ordering(0, d, "step", (0.0,) * d, t=t, delta=delta, v=_step_v(delta, t))
    pts = key_points(d, 2)
    assert_keys_match_reference(o, pts)
    # the visiting order wraps past 2^63 in uint64 and still matches
    assert max(ordering_key_py(o, p) >> (d * (W_BITS - t)) for p in pts) >= 1 << (t * d - 4)


@pytest.mark.parametrize("d", [3, 4, 8])
def test_reflected_shifted_morton_keys(d):
    pts = key_points(d, 3)
    for refl in (1, (1 << d) - 1, 5 % (1 << d)):
        shift = tuple((a % 3) / 5 for a in range(d))
        assert_keys_match_reference(Ordering(0, d, "morton", shift, reflection=refl), pts)


@pytest.mark.parametrize("d, sigma, stride", [(2, 0.5, 1), (3, 0.5, 97)])
def test_check_counts_points_between_under_each_ordering(d, sigma, stride):
    """The checker keys zero-shift orderings from one shared quantization
    and shifted ones from their own; either way it counts the points whose
    reference key lies strictly between those of p and q."""
    fam = build_ordering_family(d, sigma)
    rng = substream(8, "between", str(d))
    pts = rng.random((40, d))
    grid = lso._quantize(pts)
    dzp = np.linalg.norm(pts[2:] - pts[0], axis=1)
    dzq = np.linalg.norm(pts[2:] - pts[1], axis=1)
    orderings = ([o for o in fam.orderings if o.kind == "morton"]
                 + [o for o in fam.orderings if o.kind == "step"][::stride])
    assert any(any(o.shift) for o in orderings)
    for o in orderings:
        ref = [ordering_key_py(o, p) for p in pts]
        lo, hi = sorted(ref[:2])
        want = sum(lo < k < hi for k in ref[2:])
        # a radius covering everything: the count is always returned
        assert lso._test_ordering(o, pts, grid, 2.0 * d, dzp, dzq)[1] == want, o


def test_family_refused_past_64_bit_cell_order(monkeypatch):
    """d t_max > 64 is refused before any ordering is listed; the smallest
    such family, d = 8 at the largest sigma with t_max = 9, is still counted."""

    def no_listing(*args):
        raise AssertionError("step offsets listed before the 64-bit check")

    monkeypatch.setattr(lso, "_deltas_for_scale", no_listing)
    sigma = 0.72 * math.sqrt(8) / 2.56
    while family_shape(8, sigma)["t_max"] < 9:
        sigma = math.nextafter(sigma, 0.0)
    assert family_shape(8, math.nextafter(sigma, 1.0))["t_max"] == 8
    with pytest.raises(ValueError, match="8 \\* 9 exceeds the 64 bits"):
        build_ordering_family(8, sigma)
    assert family_size(8, sigma) == 232_203_800


@pytest.mark.parametrize("d, sigma", sorted(GOLDEN_M))
def test_family_size_golden(d, sigma):
    assert family_size(d, sigma) == GOLDEN_M[(d, sigma)]


# sigma floors per d keep the brute-force enumeration to about 1e5 offsets
@given(st.sampled_from([(1, 0.005), (2, 0.08), (3, 0.35)])
       .flatmap(lambda case: st.tuples(st.just(case[0]),
                                       st.floats(case[1], 0.99))))
def test_family_size_matches_bruteforce(case):
    d, sigma = case
    shape = family_shape(d, sigma)
    hi = shape["band"][1]
    cut = [(1 << t) - 1 < int(hi) + 1 for t in range(shape["t_min"], shape["t_max"] + 1)]
    assert any(cut) and not all(cut)  # scales with r cut to 2^t - 1 and with r uncut
    assert family_size(d, sigma) == family_size_bruteforce(d, sigma)


@given(st.integers(1, 8), st.integers(1, 300), st.integers(0, 250),
       st.integers(0, 250), st.sampled_from([1, 2]))
@example(8, 300, 17, 250, 1)  # (2r+1)^d >= 2^63: the Python-int counts
@example(8, 300, 0, 250, 2)
def test_box_band_count_matches_polynomial(d, r, s_lo, width, step):
    s_hi = s_lo + width
    assert (_box_band_count(d, r, s_lo, s_hi, step)
            == box_band_count_bruteforce(d, r, s_lo, s_hi, step))


@pytest.mark.parametrize("d, sigma", [(1, 0.01), (2, 0.99 / 16), (3, 0.25)])
def test_built_family_has_the_counted_size(d, sigma):
    assert build_ordering_family(d, sigma).M == family_size(d, sigma) == GOLDEN_M[(d, sigma)]


def test_family_size_d3_is_fast():
    start = time.perf_counter()
    assert family_size(3, 0.99 / 16) == 2717466
    assert time.perf_counter() - start < 1.0


def smallest_sigma(d: int) -> float:
    """The smallest float sigma whose band starts at most 2^20 - 1 grid
    cells out: 0.72 sqrt(d) / sigma <= 2^20 - 1, evaluated as family_shape
    evaluates it."""
    limit = 2 ** 20 - 1
    sigma = 0.72 * math.sqrt(d) / limit
    while 0.72 * math.sqrt(d) / sigma > limit:
        sigma = math.nextafter(sigma, 1.0)
    while 0.72 * math.sqrt(d) / math.nextafter(sigma, 0.0) <= limit:
        sigma = math.nextafter(sigma, 0.0)
    return sigma


@pytest.mark.parametrize("d", [1, 2])
def test_sigma_limit(d):
    sigma = smallest_sigma(d)
    shape = family_shape(d, sigma)
    assert shape["t_min"] == shape["t_max"] == 20
    # the family still holds step orderings at the limit
    assert family_size(d, sigma) > shape["lattice"] ** d * shape["reflections"]
    with pytest.raises(ValueError, match="smallest supported sigma"):
        family_size(d, math.nextafter(sigma, 0.0))


@pytest.mark.parametrize("d", [2.5, 2.0, True, "2", None])
def test_dimension_must_be_an_int(d):
    with pytest.raises(TypeError, match="d must be an int"):
        family_shape(d, 0.5)
