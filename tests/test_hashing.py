import random

import pytest

from qiris.hashing import (
    BASE62_ALPHABET,
    PERMUTATION_SIZE,
    ReductionSpec,
    build_permutation,
    canonical_reduction_specs,
    md5_hex,
    normalize_digest,
    pearson16,
    reduce,
    walk_chain,
)

R1 = ReductionSpec(nonce=2, length=6, index=1)
R4 = ReductionSpec(nonce=1, length=3, index=4)

# Frozen once from the reference Fisher-Yates/SplitMix64 run (seed 44).
PEARSON_GOLDENS = {
    "abc": 43745,
    "password": 32723,
    "a": 20912,
    "100": 10414,
}
PERM44_FIRST8 = (28328, 40913, 62884, 60896, 54657, 11204, 34884, 41251)


def test_md5_rfc_vectors():
    assert md5_hex("") == "d41d8cd98f00b204e9800998ecf8427e"
    assert md5_hex("a") == "0cc175b9c0f1b6a831c399e269772661"
    assert md5_hex(b"a") == "0cc175b9c0f1b6a831c399e269772661"


def test_md5_password_shape():
    digest = md5_hex("password")
    assert digest == "5f4dcc3b5aa765d61d8327deb882cf99"
    assert normalize_digest(digest) == digest


def test_normalize_digest_lowercases():
    assert normalize_digest("5F4DCC3B5AA765D61D8327DEB882CF99") == (
        "5f4dcc3b5aa765d61d8327deb882cf99"
    )


@pytest.mark.parametrize(
    "bad",
    ["", "zzzz", "0" * 31, "0" * 33, "g" * 32, "0x" + "0" * 30, "0" * 32 + "\n", None, 42],
)
def test_normalize_digest_rejects(bad):
    with pytest.raises(ValueError):
        normalize_digest(bad)


def test_permutation_is_complete(perm44):
    assert sorted(perm44.table) == list(range(PERMUTATION_SIZE))
    assert perm44.seed == 44


def test_permutation_deterministic(perm44):
    assert build_permutation(44).table == perm44.table


def test_permutation_first_entries_frozen(perm44):
    assert tuple(perm44.table[:8]) == PERM44_FIRST8


def test_permutation_is_compact_and_read_only(perm44):
    # every index shares the memo's one permutation, so none may change it
    assert perm44.table.format == "H" and perm44.table.readonly
    assert perm44.table.nbytes == 2 * PERMUTATION_SIZE
    with pytest.raises(TypeError):
        perm44.table[0] = 1


def test_permutation_seed_sensitivity(perm44):
    other = build_permutation(45)
    assert sorted(other.table) == list(range(PERMUTATION_SIZE))
    assert other.table != perm44.table


@pytest.mark.parametrize("text,expected", sorted(PEARSON_GOLDENS.items()))
def test_pearson16_goldens(text, expected, perm44):
    assert pearson16(text, perm44) == expected


def test_pearson16_range_and_determinism(perm44):
    rng = random.Random(99)
    for _ in range(200):
        text = "".join(rng.choice(BASE62_ALPHABET) for _ in range(rng.randint(1, 8)))
        h = pearson16(text, perm44)
        assert 0 <= h <= PERMUTATION_SIZE - 1
        assert pearson16(text, perm44) == h


def test_pearson16_rejects_bad_input(perm44):
    with pytest.raises(ValueError):
        pearson16("", perm44)
    with pytest.raises(ValueError):
        pearson16("café", perm44)


def test_reduce_zero_prefix_forced_values():
    zero = "0" * 32
    assert reduce(zero, R4) == "100"
    assert reduce(zero, R1) == "200000"


def test_reduce_password_r1_frozen():
    assert reduce(md5_hex("password"), R1) == "jNXcK1"


def test_reduce_accepts_uppercase_digest():
    digest = md5_hex("password")
    assert reduce(digest.upper(), R1) == reduce(digest, R1)


def test_reduce_output_shape_property():
    rng = random.Random(7)
    specs = canonical_reduction_specs()
    for _ in range(200):
        digest = "".join(rng.choice("0123456789abcdef") for _ in range(32))
        for spec in specs:
            out = reduce(digest, spec)
            assert len(out) == spec.length
            assert all(ch in BASE62_ALPHABET for ch in out)
            assert reduce(digest, spec) == out


def test_reduce_rejects_malformed_digest():
    with pytest.raises(ValueError):
        reduce("nothex", R1)


def test_walk_chain_password_frozen(specs):
    assert walk_chain(bytes.fromhex(md5_hex("password")), specs) == "xk9"


def test_walk_chain_rejects_empty_specs():
    with pytest.raises(ValueError):
        walk_chain(bytes(16), [])


def test_canonical_specs():
    specs = canonical_reduction_specs()
    assert [(s.nonce, s.length) for s in specs] == [(2, 6), (3, 4), (4, 5), (1, 3)]
    assert [s.index for s in specs] == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"nonce": -1, "length": 3, "index": 1},
        {"nonce": 0, "length": 0, "index": 1},
        {"nonce": 0, "length": 3, "index": 0},
        {"nonce": 0, "length": 3, "index": 5},
    ],
)
def test_reduction_spec_validation(kwargs):
    with pytest.raises(ValueError):
        ReductionSpec(**kwargs)
