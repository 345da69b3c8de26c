"""Deterministic derivation of independent RNG streams from one root seed.

Substreams are keyed by (seed, tag...) where tags are small strings hashed
with crc32, which is stable across platforms and processes (unlike hash()).
A root seed is an integer in [0, 2**64).
"""

from __future__ import annotations

import operator
from zlib import crc32

import numpy as np

from .errors import ChainTestError


def require_seed(seed: int) -> int:
    """seed as an int; raises ChainTestError for a seed that is not an integer
    (a float, a bool or a string) or lies outside [0, 2**64), where two seeds
    would otherwise share a stream."""
    if isinstance(seed, bool) or not hasattr(seed, "__index__"):
        raise ChainTestError(f"seed={seed!r} is not an integer")
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ChainTestError(f"seed={seed} outside [0, 2**64)")
    return seed


def derive_rng(seed: int, *tags: object) -> np.random.Generator:
    """RNG for the substream identified by (seed, *tags)."""
    entropy = [require_seed(seed)]
    for t in tags:
        entropy.append(crc32(repr(t).encode("utf8")))
    return np.random.default_rng(np.random.SeedSequence(entropy))
