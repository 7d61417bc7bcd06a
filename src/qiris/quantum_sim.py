"""Minimal statevector simulator for the bucket membership search.

States are plain complex vectors of power-of-two length. The search is run
as direct vector reflections: a phase oracle negates the target amplitude
and the diffusion step reflects about the prepared superposition, which is
equivalent to the circuit formulation up to a global phase. Measurement is
a deterministic inverse-CDF sampler over the SplitMix64 stream: the shot
stream for a seed is sorted once, in chunks, and each basis state's count is
the number of sorted samples inside its CDF interval. That gives the same
counts as placing every shot, in O(dimension * log shots) per call, and
memory stays bounded for any shot count.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .prng import GAMMA, MASK64, unit_floats

DEFAULT_DIMENSION = 16
DEFAULT_SHOTS = 1024

# The shot stream is drawn and sorted in chunks of at most this many samples
# (512 KiB each); at most _SORTED_CHUNKS of them are kept, so measure retains
# at most 2 MiB whatever the shot count.
_SHOT_CHUNK = 1 << 16
_SORTED_CHUNKS = 4


@dataclass(frozen=True)
class GroverOutcome:
    """Shot counts and the majority decision for one search."""

    counts: dict
    shots: int
    iterations: int
    target: int
    decision: bool


def prepare_state(marked, dimension: int = DEFAULT_DIMENSION) -> np.ndarray:
    """Unit statevector with amplitude 1/sqrt(m) on each of the m marked indices.

    Equivalent to writing a 0/1 mask over the basis states and dividing by
    its Frobenius norm.
    """
    indices = sorted(set(marked))
    if not indices:
        raise ValueError("marked set is empty")
    if dimension < 1 or dimension & (dimension - 1):
        raise ValueError(f"dimension must be a power of two, got {dimension}")
    if indices[0] < 0 or indices[-1] >= dimension:
        raise ValueError(f"marked index out of range for dimension {dimension}")
    amps = np.zeros(dimension, dtype=np.complex128)
    amps[indices] = 1.0 / math.sqrt(len(indices))
    return amps


def apply_oracle(state: np.ndarray, target: int) -> np.ndarray:
    """Phase oracle: negate the amplitude at `target`, fix all others."""
    if not 0 <= target < state.shape[0]:
        raise ValueError(f"target {target} out of range for dimension {state.shape[0]}")
    out = state.copy()
    out[target] = -out[target]
    return out


def reflect_about(state: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Reflect `state` about the unit vector `axis`: 2<axis|state>axis - state."""
    if state.shape != axis.shape:
        raise ValueError(f"dimension mismatch: {state.shape} vs {axis.shape}")
    return 2.0 * np.vdot(axis, state) * axis - state


def grover_iterations(m: int) -> int:
    """Iteration count floor(pi/4 * sqrt(m)) for an m-element search space."""
    if m < 1:
        raise ValueError("search space must have at least one element")
    return math.floor(math.pi / 4.0 * math.sqrt(m))


@functools.lru_cache(maxsize=_SORTED_CHUNKS)
def _sorted_shots(seed: int, start: int, count: int) -> np.ndarray:
    """Samples start..start+count-1 of the shot stream for `seed`, sorted and read-only.

    The stream is counter-based, so those samples are the first `count` of
    the stream for seed + start*gamma.
    """
    u = unit_floats(seed + start * GAMMA, count)
    u.sort()
    u.flags.writeable = False
    return u


def measure(state: np.ndarray, shots: int, rng_seed: int) -> dict:
    """Draw `shots` samples from P(i) = |amplitude_i|^2.

    Each sample u in [0, 1) from the SplitMix64 stream for `rng_seed` selects
    the first index whose cumulative probability strictly exceeds u, so
    zero-probability indices can never be hit. Returns a map holding only
    the indices that received at least one shot; values sum to `shots`. A
    state with no probability mass (all zero, or NaN) is rejected.

    The samples are not placed one by one: the stream is sorted once per
    chunk of at most 2^16 samples and kept, and index i receives the samples
    with cdf[i-1] <= u < cdf[i], found by binary search of each CDF value.
    The counts equal those of per-shot sampling, and memory stays bounded
    for any `shots`.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = np.abs(state) ** 2
    cdf = probs.cumsum()
    # cdf[-1] is the total mass; the test is also false for NaN, which would
    # otherwise count every shot at index 0
    if not cdf[-1] > 0.0:
        raise ValueError("state has no probability mass to measure")
    seed = rng_seed & MASK64
    below = 0
    for start in range(0, shots, _SHOT_CHUNK):
        chunk = _sorted_shots(seed, start, min(_SHOT_CHUNK, shots - start))
        below = below + chunk.searchsorted(cdf, side="left")
    counts = {}
    previous = 0
    for i, b in enumerate(below.tolist()):
        if b > previous:
            counts[i] = b - previous
        previous = b
    if previous < shots:
        # cdf[-1] can land a hair under 1.0; fold the sliver into the last
        # index that carries probability mass
        last = int(np.flatnonzero(probs > 0.0)[-1])
        counts[last] = counts.get(last, 0) + shots - previous
    return counts


def grover_search(
    marked,
    target: int,
    dimension: int = DEFAULT_DIMENSION,
    shots: int = DEFAULT_SHOTS,
    *,
    rng_seed: int,
) -> GroverOutcome:
    """Decide whether `target` is one of the `marked` basis states.

    Prepares the uniform superposition over the deduplicated marked set,
    applies floor(pi/4*sqrt(m)) oracle+reflection rounds, samples `shots`
    measurements, and accepts iff the target's count strictly exceeds
    shots // 2 (512 of 1024 by default). A target outside the marked set
    keeps amplitude 0 throughout and is always rejected.
    """
    members = set(marked)
    if not 0 <= target < dimension:
        raise ValueError(f"target {target} out of range for dimension {dimension}")
    prepared = prepare_state(members, dimension)
    iterations = grover_iterations(len(members))
    state = prepared
    for _ in range(iterations):
        state = reflect_about(apply_oracle(state, target), prepared)
    counts = measure(state, shots, rng_seed)
    decision = counts.get(target, 0) > shots // 2
    return GroverOutcome(
        counts=counts,
        shots=shots,
        iterations=iterations,
        target=target,
        decision=decision,
    )
