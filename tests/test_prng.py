import numpy as np
import pytest
from conftest import SplitMix64

from qiris.prng import MASK64, splitmix64_block, unit_floats

# Published outputs of the standard SplitMix64 mixer for seed 1234567.
REFERENCE_FIRST4 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
]

# Frozen from the reference implementation; guards the shared stream.
SEED44_FIRST4 = [
    18105923034897077331,
    10446164177184317730,
    7175636085645364437,
    14412395083658749822,
]


def test_reference_vector():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(4)] == REFERENCE_FIRST4


def test_seed44_frozen_outputs():
    rng = SplitMix64(44)
    assert [rng.next_u64() for _ in range(4)] == SEED44_FIRST4


def test_seed_is_masked_to_64_bits():
    wrapped = SplitMix64((1 << 64) + 44)
    plain = SplitMix64(44)
    assert wrapped.next_u64() == plain.next_u64()


@pytest.mark.parametrize("seed", [0, 1, 7, 44, 987654321, MASK64])
def test_block_matches_scalar_stream(seed):
    rng = SplitMix64(seed)
    expected = [rng.next_u64() for _ in range(257)]
    assert [int(v) for v in splitmix64_block(seed, 257)] == expected


def test_unit_floats_range_and_determinism():
    u = unit_floats(7, 4096)
    assert u.shape == (4096,)
    assert float(u.min()) >= 0.0
    assert float(u.max()) < 1.0
    assert np.array_equal(u, unit_floats(7, 4096))


def test_unit_floats_prefix_consistency():
    assert np.array_equal(unit_floats(3, 10), unit_floats(3, 100)[:10])
