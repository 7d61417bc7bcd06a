"""Minimal statevector simulator for the bucket membership search.

States are plain complex vectors of power-of-two length. The search is run
as direct vector reflections: a phase oracle negates the target amplitude
and the diffusion step reflects about the prepared superposition, which is
equivalent to the circuit formulation up to a global phase. Measurement is
a deterministic inverse-CDF sampler over the SplitMix64 stream: the shot
stream for a seed is drawn and sorted in chunks of at most 2^16 samples,
each chunk once, and a basis state's count is the number of sorted samples
inside its CDF interval. That gives the same counts as placing every shot,
in O(dimension * log shots) per distribution, and memory stays bounded for
any shot count.

`grover_decisions(shots, rng_seed)` is the accept/reject bit of every
bucket search, keyed by (m, rank) with 1 <= m <= 16: the search for the
rank-th smallest (from 0) of m marked states. `SearchConfig` reads it once
to check that its vote accepts every present residue. The 136 canonical
searches over range(m) are evolved and then counted together, every CDF
against one pass over the shot stream. One table, for the last (shots,
rng_seed) asked for, is kept. A search over any m marked states gives the
same counts as the one over range(m), relabelled in ascending order,
because the unmarked amplitudes stay exactly zero.
"""

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .prng import GAMMA, MASK64, unit_floats
from .rainbow_table import BUCKET_WIDTH

DEFAULT_SHOTS = 1024

# The shot stream is drawn and sorted in chunks of at most this many samples
# (512 KiB each), one chunk at a time, so memory stays bounded whatever the
# shot count.
_SHOT_CHUNK = 1 << 16


@dataclass(frozen=True)
class GroverOutcome:
    """Shot counts and the majority decision for one search."""

    counts: dict
    shots: int
    iterations: int
    target: int
    decision: bool


def prepare_state(marked, dimension: int = BUCKET_WIDTH) -> np.ndarray:
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


def _shot_counts(probs: np.ndarray, shots: int, rng_seed: int) -> np.ndarray:
    """Shot counts per basis state for each row of `probs`, by `measure`'s rule.

    Every row is counted against the same `shots` samples of the SplitMix64
    stream for `rng_seed`. The samples are not placed one by one: each chunk
    of at most 2^16 is drawn and sorted once, and index i of a row receives
    those with cdf[i-1] <= u < cdf[i], found by binary search of every CDF
    value at once.
    """
    cdf = probs.cumsum(axis=1)
    below = np.zeros(cdf.shape, dtype=np.int64)
    seed = rng_seed & MASK64
    for start in range(0, shots, _SHOT_CHUNK):
        # the stream is counter-based: samples start.. are the stream for
        # seed + start*gamma
        u = unit_floats(seed + start * GAMMA, min(_SHOT_CHUNK, shots - start))
        u.sort()
        below += u.searchsorted(cdf, side="left")
    counts = np.diff(below, axis=1, prepend=0)
    # cdf[-1] can land a hair under 1.0; fold the sliver into the last index
    # that carries probability mass
    last = probs.shape[1] - 1 - np.argmax(probs[:, ::-1] > 0.0, axis=1)
    counts[np.arange(len(probs)), last] += shots - below[:, -1]
    return counts


def measure(state: np.ndarray, shots: int, rng_seed: int) -> dict:
    """Draw `shots` samples from P(i) = |amplitude_i|^2.

    Each sample u in [0, 1) from the SplitMix64 stream for `rng_seed` selects
    the first index whose cumulative probability strictly exceeds u, so
    zero-probability indices can never be hit. Returns a map holding only
    the indices that received at least one shot; values sum to `shots`. A
    state with no probability mass (all zero, or NaN) is rejected. The
    counts equal those of per-shot sampling, and memory stays bounded for
    any `shots`.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = np.abs(state) ** 2
    # the test is also false for NaN, which would otherwise count every shot
    # at index 0
    if not probs.sum() > 0.0:
        raise ValueError("state has no probability mass to measure")
    row = _shot_counts(probs[np.newaxis], shots, rng_seed)[0]
    return {i: c for i, c in enumerate(row.tolist()) if c}


def _evolve(members: set, target: int, dimension: int) -> tuple:
    """Grover state after floor(pi/4*sqrt(m)) rounds over `members`, and the round count."""
    prepared = prepare_state(members, dimension)
    iterations = grover_iterations(len(members))
    state = prepared
    for _ in range(iterations):
        state = reflect_about(apply_oracle(state, target), prepared)
    return state, iterations


def grover_search(
    marked,
    target: int,
    dimension: int = BUCKET_WIDTH,
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
    state, iterations = _evolve(members, target, dimension)
    counts = measure(state, shots, rng_seed)
    decision = counts.get(target, 0) > shots // 2
    return GroverOutcome(
        counts=counts,
        shots=shots,
        iterations=iterations,
        target=target,
        decision=decision,
    )


@functools.lru_cache(maxsize=1)
def grover_decisions(shots: int, rng_seed: int) -> MappingProxyType:
    """Decision of every search for the rank-th smallest (from 0) of m marked states.

    Maps each (m, rank) with 1 <= m <= BUCKET_WIDTH to
    `grover_search(marked, sorted(marked)[rank], ...).decision`, which is the
    same for any m distinct marked states: unmarked amplitudes are exactly 0
    throughout, the other marked amplitudes stay equal, and the CDF meets
    the marked states in ascending order, so the counts are those of the
    search over range(m) with index j relabelled to the j-th marked state.
    The mapping is read-only, as every caller shares it.
    """
    keys = [(m, rank) for m in range(1, BUCKET_WIDTH + 1) for rank in range(m)]
    states = [_evolve(set(range(m)), rank, BUCKET_WIDTH)[0] for m, rank in keys]
    counts = _shot_counts(np.abs(np.array(states)) ** 2, shots, rng_seed)
    return MappingProxyType(
        {key: int(row[key[1]]) > shots // 2 for key, row in zip(keys, counts)}
    )
