"""Deterministic SplitMix64 stream shared by the permutation shuffle and shot sampling."""

import numpy as np

MASK64 = (1 << 64) - 1

GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 generator; bit-exact on every platform for a given seed."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return (z ^ (z >> 31)) & MASK64


def splitmix64_block(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of the stream for `seed`, as a uint64 array.

    The generator is counter-based (output k is a pure function of
    seed + k*gamma), so this vectorized form reproduces the sequential
    next_u64() stream exactly.
    """
    ks = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & MASK64) + ks * np.uint64(GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def unit_floats(seed: int, count: int) -> np.ndarray:
    """`count` deterministic samples in [0, 1), 53-bit resolution."""
    return (splitmix64_block(seed, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53
