import dataclasses

import pytest

from qiris.hashing import build_permutation, md5_hex, reduce
from qiris.rainbow_table import BUCKET_WIDTH, build_buckets, generate_table
from qiris.search import (
    SearchConfig,
    crack,
    crack_classical,
    crack_classical_scan,
    rebuild_chain,
)

NO_QUANTUM = SearchConfig(quantum_enabled=False)


def test_membership_classical(perm44, specs):
    # the classical membership test alone decides whether the row is looked up:
    # with the stored residue swapped for its neighbour the chain is never read
    table = generate_table(["password"], specs, perm44)
    index = build_buckets(table)
    key, residue = divmod(table.end_hashed[0], BUCKET_WIDTH)
    other = dataclasses.replace(index, buckets={key: [residue ^ 1, residue ^ 2]})
    query = md5_hex("password")
    found = crack(query, table, index, perm44, specs, NO_QUANTUM)
    missed = crack(query, table, other, perm44, specs, NO_QUANTUM)
    assert found.result == "password"
    assert missed.result is None
    assert missed.classical_fallbacks >= 1
    assert missed.grover_invocations == 0


def test_rebuild_chain_empty_prefix():
    assert rebuild_chain("password", []) == ("password", md5_hex("password"))


def test_rebuild_chain_single_spec(specs):
    text, digest = rebuild_chain("password", specs[:1])
    expected = reduce(md5_hex("password"), specs[0])
    assert text == expected
    assert digest == md5_hex(expected)


def test_rebuild_chain_full_matches_table(table100, specs):
    for chain in table100.chains[:10]:
        text, _ = rebuild_chain(chain.start, specs)
        assert text == chain.end


def test_crack_recovers_start_words(table100, buckets100, perm44, specs, words100):
    for word in words100[:8]:
        report = crack(md5_hex(word), table100, buckets100, perm44, specs)
        assert report.result == word


def test_crack_recovers_each_depth(table100, buckets100, perm44, specs):
    for depth in range(4):
        plain, query = rebuild_chain("password", specs[:depth])
        report = crack(query, table100, buckets100, perm44, specs)
        assert report.result is not None
        assert md5_hex(report.result) == query
        assert report.result == plain
        assert report.chains_examined == 4 - depth


def test_crack_soundness(table100, buckets100, perm44, specs, words100):
    for word in words100[:10]:
        for depth in range(4):
            _, query = rebuild_chain(word, specs[:depth])
            report = crack(query, table100, buckets100, perm44, specs)
            if report.result is not None:
                assert md5_hex(report.result) == query


def test_crack_absent_hash_accounting(table100, buckets100, perm44, specs):
    report = crack(
        md5_hex("definitely-not-in-the-table-0987654321"),
        table100,
        buckets100,
        perm44,
        specs,
    )
    assert report.result is None
    assert report.chains_examined == 4
    probes = report.bucket_misses + report.grover_invocations + report.classical_fallbacks
    assert probes == 4


def test_crack_is_deterministic(table100, buckets100, perm44, specs):
    query = md5_hex("qwerty")
    first = crack(query, table100, buckets100, perm44, specs)
    second = crack(query, table100, buckets100, perm44, specs)
    assert first == second


def test_crack_matches_classical_baseline(table100, buckets100, perm44, specs, words100):
    queries = [md5_hex(w) for w in words100[:25]]
    queries += [rebuild_chain(w, specs[:2])[1] for w in words100[25:40]]
    queries += [md5_hex(f"missing-{i}-xyzzy") for i in range(10)]
    for query in queries:
        report = crack(query, table100, buckets100, perm44, specs)
        assert report.result == crack_classical(query, table100, specs)


def test_crack_without_quantum(table100, buckets100, perm44, specs, words100):
    for word in words100[40:50]:
        query = md5_hex(word)
        report = crack(query, table100, buckets100, perm44, specs, NO_QUANTUM)
        assert report.result == word
        assert report.grover_invocations == 0
        assert report.grover_iterations_total == 0


def test_crack_takes_grover_path_for_large_bucket(
    table100, buckets100, perm44, specs, words100
):
    # the last six wordlist entries share one end-hash bucket (six distinct
    # residues), so cracking them must go through the quantum membership test
    for word in words100[94:]:
        report = crack(md5_hex(word), table100, buckets100, perm44, specs)
        assert report.result == word
        assert report.grover_invocations >= 1
        assert report.grover_iterations_total >= report.grover_invocations


def test_crack_rejects_seed_mismatch(table100, buckets100, specs):
    other_perm = build_permutation(45)
    with pytest.raises(ValueError, match="seed"):
        crack(md5_hex("password"), table100, buckets100, other_perm, specs)


def test_crack_rejects_malformed_hash(table100, buckets100, perm44, specs):
    with pytest.raises(ValueError):
        crack("zzzz", table100, buckets100, perm44, specs)


def test_classical_crack_recovers_everything(table100, specs):
    for chain in table100.chains[:10]:
        for depth in range(4):
            plain, query = rebuild_chain(chain.start, specs[:depth])
            found = crack_classical(query, table100, specs)
            assert found is not None
            assert md5_hex(found) == query


def test_classical_crack_absent(table100, specs):
    result, scanned = crack_classical_scan(
        md5_hex("not-a-chain-member-at-all-31337"), table100, specs
    )
    assert result is None
    assert scanned == 4 * len(table100.chains)


def test_classical_scan_counts_comparisons(table100, specs):
    # the start word of the first chain is found on the last suffix pass
    _, scanned = crack_classical_scan(md5_hex(table100.chains[0].start), table100, specs)
    assert 3 * len(table100.chains) < scanned <= 4 * len(table100.chains)


@pytest.mark.parametrize(
    "kwargs",
    [{"shots": 0}, {"classical_threshold": -1}, {"classical_threshold": 17}],
)
def test_search_config_validation(kwargs):
    with pytest.raises(ValueError):
        SearchConfig(**kwargs)
