import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qiris.prng import _MIX1, _MIX2, GAMMA, MASK64, unit_floats
from qiris.quantum_sim import (
    _SHOT_CHUNK,
    GroverOutcome,
    apply_oracle,
    grover_decisions,
    grover_iterations,
    grover_search,
    measure,
    prepare_state,
    reflect_about,
)

SEVEN_SET = {1, 2, 8, 9, 10, 12, 15}


def closed_form_probability(m: int, k: int) -> float:
    return math.sin((2 * k + 1) * math.asin(1.0 / math.sqrt(m))) ** 2


def run_iterations(marked, target, dimension=16):
    psi0 = prepare_state(marked, dimension)
    psi = psi0
    for _ in range(grover_iterations(len(set(marked)))):
        psi = reflect_about(apply_oracle(psi, target), psi0)
    return psi0, psi


def test_prepare_seven_item_superposition():
    state = prepare_state(SEVEN_SET, 16)
    amp = 1.0 / math.sqrt(7)
    for i in range(16):
        if i in SEVEN_SET:
            assert state[i] == amp
        else:
            assert state[i] == 0
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-12


def test_prepare_single_state_is_basis_vector():
    state = prepare_state({5}, 16)
    expected = np.zeros(16, dtype=np.complex128)
    expected[5] = 1.0
    assert np.array_equal(state, expected)


def test_prepare_full_superposition():
    state = prepare_state(set(range(16)), 16)
    assert np.allclose(state, 0.25)


def test_prepare_deduplicates():
    assert np.array_equal(prepare_state([3, 3, 5], 16), prepare_state({3, 5}, 16))


def test_prepare_rejects_bad_input():
    with pytest.raises(ValueError):
        prepare_state(set(), 16)
    with pytest.raises(ValueError):
        prepare_state({16}, 16)
    with pytest.raises(ValueError):
        prepare_state({-1}, 16)
    with pytest.raises(ValueError):
        prepare_state({0}, 12)


def test_oracle_negates_only_target():
    state = prepare_state(set(range(16)), 16)
    flipped = apply_oracle(state, 5)
    assert flipped[5] == -0.25
    for i in range(16):
        if i != 5:
            assert flipped[i] == 0.25
    # input untouched
    assert state[5] == 0.25


def test_oracle_on_zero_amplitude_is_identity():
    state = prepare_state({1, 2}, 16)
    assert np.array_equal(apply_oracle(state, 9), state)


def test_oracle_is_involution():
    state = prepare_state(SEVEN_SET, 16)
    assert np.array_equal(apply_oracle(apply_oracle(state, 9), 9), state)


def test_oracle_rejects_out_of_range():
    state = prepare_state({0}, 16)
    with pytest.raises(ValueError):
        apply_oracle(state, 16)
    with pytest.raises(ValueError):
        apply_oracle(state, -1)


def test_reflection_fixed_point():
    axis = prepare_state(SEVEN_SET, 16)
    assert np.allclose(reflect_about(axis, axis), axis, atol=1e-14)


def test_reflection_negates_orthogonal():
    axis = prepare_state({0}, 16)
    other = prepare_state({1}, 16)
    assert np.allclose(reflect_about(other, axis), -other, atol=1e-14)


def test_reflection_preserves_norm():
    rng = np.random.default_rng(5)
    axis = prepare_state(SEVEN_SET, 16)
    for _ in range(10):
        raw = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = raw / np.linalg.norm(raw)
        assert abs(np.linalg.norm(reflect_about(state, axis)) - 1.0) <= 1e-12


def test_reflection_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        reflect_about(prepare_state({0}, 8), prepare_state({0}, 16))


@pytest.mark.parametrize(
    "m,expected",
    [(1, 0), (2, 1), (4, 1), (7, 2), (9, 2), (14, 2), (15, 3), (16, 3)],
)
def test_iteration_counts(m, expected):
    assert grover_iterations(m) == expected


def test_iteration_count_rejects_empty_space():
    with pytest.raises(ValueError):
        grover_iterations(0)


def test_measure_degenerate_state():
    assert measure(prepare_state({5}, 16), 1024, rng_seed=1) == {5: 1024}


def test_measure_counts_sum_to_shots():
    state = prepare_state(SEVEN_SET, 16)
    for seed in range(20):
        counts = measure(state, 1024, rng_seed=seed)
        assert sum(counts.values()) == 1024
        assert all(c > 0 for c in counts.values())


def test_measure_never_hits_zero_probability():
    state = prepare_state({1, 2}, 16)
    for seed in range(50):
        assert set(measure(state, 256, rng_seed=seed)) <= {1, 2}


def test_measure_is_deterministic():
    state = prepare_state(SEVEN_SET, 16)
    assert measure(state, 1024, rng_seed=7) == measure(state, 1024, rng_seed=7)


def test_measure_global_phase_invariance():
    state = prepare_state(SEVEN_SET, 16)
    for seed in (0, 7, 123):
        assert measure(-state, 1024, rng_seed=seed) == measure(state, 1024, rng_seed=seed)


def test_measure_rejects_zero_shots():
    with pytest.raises(ValueError):
        measure(prepare_state({5}, 16), 0, rng_seed=1)


def test_measure_rejects_all_zero_state():
    with pytest.raises(ValueError, match="no probability mass"):
        measure(np.zeros(16, dtype=np.complex128), 1024, rng_seed=1)


def test_measure_rejects_nan_state():
    state = np.full(16, np.nan, dtype=np.complex128)
    with pytest.raises(ValueError, match="no probability mass"):
        measure(state, 1024, rng_seed=1)


def per_shot_measure(state, shots, rng_seed):
    """Reference sampler: place every shot by its own inverse-CDF lookup."""
    probs = np.abs(state) ** 2
    cdf = np.cumsum(probs)
    u = unit_floats(rng_seed, shots)
    idx = np.searchsorted(cdf, u, side="right")
    overflow = idx >= probs.shape[0]
    if overflow.any():
        idx[overflow] = int(np.flatnonzero(probs > 0.0)[-1])
    binned = np.bincount(idx, minlength=probs.shape[0])
    return {int(i): int(c) for i, c in enumerate(binned) if c}


SEEDS = st.one_of(
    st.sampled_from([0, 7, 2**63, 2**64 - 1]),
    st.integers(0, 2**64 - 1),
    st.integers(2**63, 2**64 - 1),
)
SHOTS = st.one_of(
    st.sampled_from([1, 1024, _SHOT_CHUNK, _SHOT_CHUNK + 1, 3 * _SHOT_CHUNK + 1]),
    st.integers(1, 3000),
)
AMPLITUDES = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=16,
    max_size=16,
)


@settings(max_examples=300, deadline=None)
@given(AMPLITUDES, st.sampled_from([1.0, 1.0 - 1e-12, 0.999, 0.9, 0.5]), SEEDS, SHOTS)
def test_measure_matches_per_shot_sampler(amplitudes, norm, seed, shots):
    state = np.array(amplitudes, dtype=np.complex128)
    length = np.linalg.norm(state)
    assume(length > 1e-6)
    # norm < 1 leaves cdf[-1] < 1, so samples overflow into the last index
    state = state / length * norm
    assert measure(state, shots, rng_seed=seed) == per_shot_measure(state, shots, seed)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 15), min_size=1), st.integers(0, 15), SEEDS, SHOTS)
def test_grover_search_counts_match_per_shot_sampler(marked, target, seed, shots):
    outcome = grover_search(marked, target, shots=shots, rng_seed=seed)
    _, psi = run_iterations(marked, target)
    assert outcome.counts == per_shot_measure(psi, shots, seed)
    assert outcome.decision == (outcome.counts.get(target, 0) > shots // 2)


def _seed_whose_first_sample_is(u):
    """Invert the SplitMix64 output mix so the stream for the seed starts with `u`."""

    def unshift(z, s):
        x = z
        for _ in range(64 // s + 1):
            x = z ^ (x >> s)
        return x

    z = int(u * 2**53) << 11
    z = unshift(z, 31)
    z = unshift(z * pow(_MIX2, -1, 2**64) & MASK64, 27)
    z = unshift(z * pow(_MIX1, -1, 2**64) & MASK64, 30)
    return (z - GAMMA) & MASK64


def test_measure_sample_on_a_cdf_boundary_goes_to_the_next_index():
    # P(0) = 0.25 exactly, and the first sample is exactly 0.25: it lies at
    # cdf[0], so it belongs to index 1 (cdf[0] <= u < cdf[1])
    seed = _seed_whose_first_sample_is(0.25)
    assert unit_floats(seed, 1)[0] == 0.25
    state = np.zeros(16, dtype=np.complex128)
    state[0], state[1] = 0.5, math.sqrt(0.75)
    assert measure(state, 1, rng_seed=seed) == per_shot_measure(state, 1, seed) == {1: 1}


def test_measure_memory_is_bounded():
    shots = 16 * _SHOT_CHUNK
    state = prepare_state(SEVEN_SET, 16)
    tracemalloc.start()
    try:
        counts = measure(state, shots, rng_seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == shots
    assert peak < 8 * 2**20


def test_decision_table_past_four_chunks_is_the_canonical_search():
    # five shot-stream chunks: every CDF of the table is counted against each
    # chunk, as measure counts one CDF. At m = 2 the target's probability is
    # 1/2, so its decision turns on every sample; at m >= 3 it is above 0.87
    shots = 4 * _SHOT_CHUNK + 1
    decisions = grover_decisions(shots, 7)
    assert len(decisions) == 136
    for m in (2, 3, 7, 16):
        for rank in range(m):
            outcome = grover_search(range(m), rank, shots=shots, rng_seed=7)
            assert decisions[m, rank] == outcome.decision, (m, rank)


def test_closed_form_agreement_all_m():
    for m in range(1, 17):
        marked = set(range(m))
        target = m - 1
        psi0, psi = run_iterations(marked, target)
        k = grover_iterations(m)
        assert abs(abs(psi[target]) ** 2 - closed_form_probability(m, k)) <= 1e-9


def test_unitarity_through_iterations():
    for m in (3, 7, 12, 16):
        psi0 = prepare_state(set(range(m)), 16)
        psi = psi0
        for _ in range(grover_iterations(m)):
            psi = reflect_about(apply_oracle(psi, 0), psi0)
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_support_preservation():
    marked = {1, 4, 9, 11, 14}
    target = 9
    outside = [i for i in range(16) if i not in marked]
    psi0 = prepare_state(marked, 16)
    psi = psi0
    for _ in range(grover_iterations(len(marked))):
        psi = reflect_about(apply_oracle(psi, target), psi0)
        assert all(psi[i] == 0 for i in outside)


def test_absent_target_state_is_prepared_state():
    # target outside the marked set: the target amplitude (exactly 0) and all
    # unmarked amplitudes never move; marked amplitudes can drift by a few
    # ulps through the reflections, so measurement statistics are unchanged
    for m in (2, 5, 7, 13):
        marked = set(range(m))
        psi0, psi = run_iterations(marked, 15)
        assert psi[15] == 0
        assert all(psi[i] == 0 for i in range(16) if i not in marked)
        assert np.allclose(psi, psi0, atol=1e-12)
        for seed in range(10):
            assert measure(psi, 1024, rng_seed=seed) == measure(psi0, 1024, rng_seed=seed)


def test_grover_search_seven_item_example():
    outcome = grover_search(SEVEN_SET, 9, rng_seed=7)
    assert outcome.iterations == 2
    assert outcome.shots == 1024
    assert outcome.decision is True
    assert sum(outcome.counts.values()) == 1024
    # per-shot success probability is ~0.8712
    assert abs(outcome.counts[9] / 1024 - 0.8712) < 0.05


def test_grover_search_m4_is_certain():
    for seed in range(10):
        outcome = grover_search({0, 3, 7, 12}, 7, rng_seed=seed)
        assert outcome.iterations == 1
        assert outcome.counts == {7: 1024}
        assert outcome.decision is True


def test_grover_search_absent_target():
    for seed in range(25):
        outcome = grover_search({1, 2, 8}, 5, rng_seed=seed)
        assert outcome.decision is False
        assert outcome.counts.get(5, 0) == 0


def test_grover_search_deduplicates_marked():
    a = grover_search([2, 2, 5, 7], 5, rng_seed=3)
    b = grover_search({2, 5, 7}, 5, rng_seed=3)
    assert a == b


def test_grover_search_decision_rule():
    outcome = grover_search(SEVEN_SET, 9, rng_seed=11)
    assert outcome.decision == (outcome.counts.get(9, 0) > 512)
    assert isinstance(outcome, GroverOutcome)


def test_grover_search_rejects_bad_target():
    with pytest.raises(ValueError):
        grover_search({1, 2, 3}, 16, rng_seed=1)

