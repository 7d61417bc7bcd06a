"""Deterministic SplitMix64 stream shared by the permutation shuffle and shot sampling."""

import numpy as np

MASK64 = (1 << 64) - 1

GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64_block(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of the stream for `seed`, as a uint64 array.

    The generator is counter-based (output k is a pure function of
    seed + k*gamma), so this vectorized form reproduces the sequential
    generator's stream exactly. The steps work in place on one array, so
    the block costs one temporary of its size beside it.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(GAMMA)
    z += np.uint64(seed & MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def unit_floats(seed: int, count: int) -> np.ndarray:
    """`count` deterministic samples in [0, 1), 53-bit resolution."""
    return (splitmix64_block(seed, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53
