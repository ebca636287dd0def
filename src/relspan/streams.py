"""Deterministic named random streams.

Every random choice in the library flows from a single 64-bit seed through
named Philox substreams.  The stream (seed, *labels) is Philox keyed by the
first 16 bytes of the sha256 of the label path, at counter 0, so results do
not depend on call order, thread scheduling, or PYTHONHASHSEED; Philox is
counter-based and platform-independent.  substream builds a generator at
that start; rekey moves an existing one there, which draws the same without
a new generator (each sampled expander block draws two streams).
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key(seed: int, labels: tuple) -> np.ndarray:
    text = "\x1f".join([str(int(seed))] + [str(part) for part in labels])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


def substream(seed: int, *labels) -> np.random.Generator:
    """Return an independent generator for (seed, *labels)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, labels)))


def rekey(gen: np.random.Generator, seed: int, *labels) -> np.random.Generator:
    """Reset gen, a Generator over Philox, to the start of substream(seed, *labels)."""
    zero = np.zeros(4, dtype=np.uint64)
    gen.bit_generator.state = {"bit_generator": "Philox", "buffer": zero, "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0,
                               "state": {"counter": zero, "key": _key(seed, labels)}}
    return gen


def subseed(seed: int, *labels) -> int:
    """Derive a nested 63-bit integer seed for a child builder."""
    k = _key(seed, labels)
    return int(k[0] & np.uint64((1 << 63) - 1))
