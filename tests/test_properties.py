"""Property-based checks of the chain walk, the end-hash index, the hybrid
crack, the permutation, the SplitMix64 stream and the table file."""

import hashlib
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiris.hashing import (
    PERMUTATION_SIZE,
    ReductionSpec,
    build_permutation,
    md5_hex,
    reduce,
    walk_chain,
)
from qiris.prng import GAMMA, SplitMix64, splitmix64_block
from qiris.rainbow_table import (
    Chain,
    RainbowTable,
    build_buckets,
    generate_table,
    load_table,
    save_table,
)
from qiris.search import crack, crack_classical, rebuild_chain

END_HASHES = st.one_of(st.integers(0, 65534), st.sampled_from([0, 1, 65533, 65534]))
WORDS = st.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)
# every ASCII character a start plaintext may hold: all but whitespace
ASCII_WORDS = st.text(
    "".join(chr(c) for c in range(128) if not chr(c).isspace()), min_size=1, max_size=12
)
SPECS = st.builds(
    ReductionSpec,
    nonce=st.one_of(st.integers(0, 64), st.integers(0, 2**70)),
    length=st.integers(1, 16),
    index=st.integers(1, 4),
)

REFERENCE_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
HEADER = b"QIRIS v1 seed=44 chain=R1,R2,R3,R4\n"


def _reference_reduce(hex_digest, spec):
    v = int(hex_digest[:8], 16) + spec.nonce
    return "".join(REFERENCE_ALPHABET[v // 62**k % 62] for k in range(spec.length))


def _reference_walk(word, specs):
    """(text, md5 hex of text) at every depth 0..len(specs), one digit at a time."""
    text = word
    steps = [(text, hashlib.md5(text.encode()).hexdigest())]
    for spec in specs:
        text = _reference_reduce(steps[-1][1], spec)
        steps.append((text, hashlib.md5(text.encode()).hexdigest()))
    return steps


@settings(max_examples=200, deadline=None)
@given(st.lists(ASCII_WORDS, min_size=1, max_size=4), st.lists(SPECS, max_size=5))
def test_chain_walk_matches_reference(perm44, words, specs):
    table = generate_table(words, specs, perm44)
    for word, chain in zip(words, table.chains):
        steps = _reference_walk(word, specs)
        assert chain.end == steps[-1][0]
        for depth, step in enumerate(steps):
            assert rebuild_chain(word, specs[:depth]) == step
            if depth:
                digest = hashlib.md5(word.encode()).digest()
                assert walk_chain(digest, specs[:depth]) == step[0]


@given(st.binary(min_size=16, max_size=16), SPECS)
def test_reduce_matches_reference(digest, spec):
    expected = _reference_reduce(digest.hex(), spec)
    assert reduce(digest.hex(), spec) == expected
    assert reduce(digest.hex().upper(), spec) == expected
    assert walk_chain(digest, [spec]) == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(ASCII_WORDS, min_size=1, max_size=20), st.integers(0, 2**64 - 1))
def test_save_load_round_trip(specs, words, seed):
    table = generate_table(words, specs, build_permutation(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.txt")
        save_table(table, path)
        loaded = load_table(path)
    assert loaded.chains == table.chains
    assert loaded.perm_seed == seed


def _mutate(data, edits):
    data = bytearray(data)
    for pos, byte in edits:
        data[pos % len(data)] = byte
    return bytes(data)


FUZZED_TABLES = st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda body: HEADER + body),
    st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=4).map(
        lambda edits: _mutate(HEADER + b"password\txk9\nmonkey\tA0z\n", edits)
    ),
)


@settings(deadline=None)
@given(FUZZED_TABLES)
def test_load_table_fuzz_raises_only_value_or_os_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            table = load_table(path)
        except (ValueError, OSError):
            return
    assert isinstance(table, RainbowTable) and table.chains


@given(st.data(), st.lists(END_HASHES, max_size=5))
def test_index_lookup_matches_scan(end_for_hash, data, probes):
    reachable = sorted(end_for_hash)
    edges = st.sampled_from([reachable[0], reachable[1], reachable[-2], reachable[-1]])
    hashes = data.draw(
        st.lists(st.one_of(st.sampled_from(reachable), edges), min_size=1, max_size=60)
    )
    chains = [Chain(start=f"w{i}", end=end_for_hash[h]) for i, h in enumerate(hashes)]
    index = build_buckets(RainbowTable(chains=chains, perm_seed=44))
    for h in set(hashes) | set(probes):
        assert index.rows_for(h) == [i for i, v in enumerate(hashes) if v == h]


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


@given(st.integers(0, 2**65), st.integers(0, 300), st.integers(0, 300))
def test_splitmix64_block_offset_and_stream(seed, k, n):
    # build_permutation and measure draw outputs k+1 onward as the block for seed + k*gamma
    rng = SplitMix64(seed)
    stream = [rng.next_u64() for _ in range(k + n)]
    assert splitmix64_block(seed, k + n).tolist() == stream
    assert splitmix64_block(seed + k * GAMMA, n).tolist() == stream[k:]
