import os
import subprocess
import sys

import numpy as np
import pytest

from relspan.streams import rekey, subseed, substream


def test_substream_reproducible():
    a = substream(7, "x", 1).integers(0, 1000, size=16)
    b = substream(7, "x", 1).integers(0, 1000, size=16)
    assert (a == b).all()


def test_substreams_independent_by_label():
    a = substream(7, "x", 1).integers(0, 1000, size=16)
    b = substream(7, "x", 2).integers(0, 1000, size=16)
    c = substream(8, "x", 1).integers(0, 1000, size=16)
    assert not (a == b).all()
    assert not (a == c).all()


def test_subseed_stable_and_in_range():
    s = subseed(99, "child", 3)
    assert s == subseed(99, "child", 3)
    assert 0 <= s < (1 << 63)
    assert s != subseed(99, "child", 4)


def test_streams_ignore_hash_randomization():
    # Each child inherits this environment (PYTHONPATH included) and only
    # overrides the hash seed.  It reports hash("h") as well, so the test
    # sees that string hashing really differed between the two runs.
    code = ("from relspan.streams import substream;"
            "print(hash('h'));"
            "print(substream(5, 'h', 'L').integers(0, 10**9, size=4).tolist())")
    hashes, streams = set(), set()
    for hashseed in ("0", "12345"):
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONHASHSEED=hashseed))
        assert res.returncode == 0, res.stderr
        str_hash, stream = res.stdout.splitlines()
        hashes.add(str_hash)
        streams.add(stream)
    assert len(hashes) == 2, "hash randomization was not in effect"
    assert len(streams) == 1


def test_rekey_after_odd_32_bit_draws():
    # three bounded draws below 2^32 leave half of a 64-bit word buffered
    gen = substream(1, "previous")
    gen.integers(0, 10, size=3)
    assert gen.bit_generator.state["has_uint32"] == 1
    got = rekey(gen, 7, "x", 1).integers(0, 1000, size=17)
    assert np.array_equal(got, substream(7, "x", 1).integers(0, 1000, size=17))


@pytest.mark.parametrize("bound", [1, 2, 1 << 31, (1 << 32) - 1, 1 << 40])
def test_rekey_matches_substream_for_every_bound(bound):
    gen = substream(2, "previous")
    gen.integers(0, 3, size=5)
    gen.integers(0, 1 << 40, size=3)
    for labels in (("gt", 5, 3, 17, "L"), ("gt", 5, 3, 17, "R"), ("h", 0, 0, "L")):
        got = rekey(gen, 11, *labels).integers(0, bound, size=9)
        assert np.array_equal(got, substream(11, *labels).integers(0, bound, size=9))


def test_rekey_after_random_draws():
    gen = substream(3, "previous")
    gen.random(5)
    rekey(gen, 4, "y")
    want = substream(4, "y")
    assert np.array_equal(gen.random(3), want.random(3))
    assert np.array_equal(gen.integers(0, 77, size=5), want.integers(0, 77, size=5))
