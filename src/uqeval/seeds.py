"""Deterministic seed derivation and random stream construction.

All randomness in this package flows through Philox4x64, a counter-based
generator, keyed directly with a 64-bit value.  Derived seeds are produced
by folding integer tags through the SplitMix64 finalizer, so the mapping
(base seed, purpose tags) -> stream is fixed and platform independent.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Fixed tags naming each consumer of randomness.  Mixing a tag into the
# derived key keeps streams for different purposes disjoint even when the
# user-facing seed coincides.
TAG_DATASET = 0x01
TAG_TIEBREAK = 0x02
TAG_MEMBER = 0x03
TAG_SUBSET = 0x04
TAG_REPLICATE = 0x05


def splitmix64(value: int) -> int:
    """One round of the SplitMix64 output function (Steele et al.)."""
    z = (value + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base: int, *tags: int) -> int:
    """Fold `tags` into `base`, one SplitMix64 round per tag.

    Accepts any Python ints; only the low 64 bits of each part matter.
    """
    acc = splitmix64(base & _MASK64)
    for tag in tags:
        acc = splitmix64(acc ^ splitmix64(tag & _MASK64))
    return acc


def make_rng(seed: int) -> np.random.Generator:
    """Philox4x64 stream keyed with a (derived) 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))
