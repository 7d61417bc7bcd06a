"""Property-based checks of the end-hash index, the hybrid crack and the permutation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiris.hashing import PERMUTATION_SIZE, build_permutation, md5_hex
from qiris.prng import SplitMix64
from qiris.rainbow_table import Chain, RainbowTable, build_buckets, generate_table
from qiris.search import crack, crack_classical, rebuild_chain

END_HASHES = st.one_of(st.integers(0, 65534), st.sampled_from([0, 1, 65533, 65534]))
WORDS = st.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)


@given(st.lists(END_HASHES, min_size=1, max_size=60), st.lists(END_HASHES, max_size=5))
def test_index_lookup_matches_scan(end_hashed, probes):
    chains = [Chain(start=f"w{i}", end="abc") for i in range(len(end_hashed))]
    index = build_buckets(RainbowTable(chains=chains, end_hashed=end_hashed, perm_seed=44))
    for h in set(end_hashed) | set(probes):
        assert index.rows_for(h) == [i for i, v in enumerate(end_hashed) if v == h]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(WORDS, min_size=1, max_size=30),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3)), min_size=1, max_size=6),
    st.lists(st.binary(min_size=1, max_size=12), max_size=3),
)
def test_crack_agrees_with_classical(perm44, specs, words, hits, misses):
    table = generate_table(words, specs, perm44)
    index = build_buckets(table)
    queries = [rebuild_chain(words[row % len(words)], specs[:depth])[1] for row, depth in hits]
    queries += [md5_hex(b"miss:" + data) for data in misses]
    for query in queries:
        result = crack(query, table, index, perm44, specs).result
        assert result == crack_classical(query, table, specs)
        if result is not None:
            assert md5_hex(result) == query


def _sequential_permutation(seed):
    table = list(range(PERMUTATION_SIZE))
    rng = SplitMix64(seed)
    for i in range(PERMUTATION_SIZE - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        table[i], table[j] = table[j], table[i]
    return tuple(table)


@pytest.mark.parametrize("seed", [0, 44, 2**64 - 1, 2**64 + 5])
def test_permutation_matches_sequential_shuffle(seed):
    assert build_permutation(seed).table == _sequential_permutation(seed)
