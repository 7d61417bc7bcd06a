import dataclasses
from array import array

import pytest
from conftest import sorted_end_hashes

import qiris.search
from qiris.hashing import build_permutation, md5_hex, pearson16, reduce, walk_chain
from qiris.quantum_sim import grover_decisions, grover_iterations
from qiris.rainbow_table import (
    BUCKET_WIDTH,
    RainbowTable,
    build_buckets,
    generate_table,
)
from qiris.search import (
    MAX_SHOTS,
    SearchConfig,
    SearchReport,
    crack,
    crack_classical,
    crack_classical_scan,
    rebuild_chain,
)

NO_QUANTUM = SearchConfig(classical_threshold=BUCKET_WIDTH)


def test_membership_classical(perm44, specs):
    # the classical membership test alone decides whether the row is looked up:
    # with the stored residue swapped for its neighbours the chain is never read
    table = generate_table(["password"], specs, perm44)
    index = build_buckets(table)
    (h,) = sorted_end_hashes(table, perm44)
    masks = array("H", index.masks)
    masks[h // BUCKET_WIDTH] = 1 << (h ^ 1) % BUCKET_WIDTH | 1 << (h ^ 2) % BUCKET_WIDTH
    other = dataclasses.replace(index, masks=masks)
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


def test_grover_decision_accepts_every_present_key_at_default_flags():
    # with absent residues always rejected, this makes hybrid == classical at
    # the default shots and seed for every table, not only the sampled ones
    cfg = SearchConfig()
    decisions = grover_decisions(cfg.shots, cfg.rng_seed)
    for m in range(3, BUCKET_WIDTH + 1):
        for rank in range(m):
            assert decisions[m, rank], (m, rank)


def _one_suffix_table(word, specs, perm, end_for_hash, with_word):
    """A table with specs[-1:] whose bucket for md5(word)'s candidate holds 3 residues.

    The last reduction makes 3-character ends, the only ones a table holds.
    With `with_word` the candidate's own residue is one of them, else not.
    """
    text = walk_chain(bytes.fromhex(md5_hex(word)), specs[-1:])
    key, residue = divmod(pearson16(text, perm), BUCKET_WIDTH)
    others = [
        r for r in range(BUCKET_WIDTH) if r != residue and key * BUCKET_WIDTH + r in end_for_hash
    ]
    starts = [f"fill{r}" for r in others]
    ends = [end_for_hash[key * BUCKET_WIDTH + r] for r in others]
    if with_word:
        starts, ends = starts[:2] + [word], ends[:2] + [text]
    table = RainbowTable(starts[:3], ends[:3], perm.seed)
    index = build_buckets(table)
    assert len(index.buckets[key]) == 3 and (residue in index.buckets[key]) == with_word
    return table, index


def test_crack_decides_by_membership_without_reading_the_vote(
    table100, buckets100, perm44, specs, words100, end_for_hash, monkeypatch
):
    # the vote is checked once, when the config is built; no probe reads it
    cfg = SearchConfig()

    def refuse(*args, **kwargs):
        raise AssertionError("crack must not read the decision table")

    monkeypatch.setattr(qiris.search, "grover_decisions", refuse)
    for word in words100[94:]:
        report = crack(md5_hex(word), table100, buckets100, perm44, specs, cfg)
        assert report == SearchReport(
            result=word,
            chains_examined=4,
            grover_invocations=1,
            grover_iterations_total=grover_iterations(6),
            bucket_misses=3,
        )
    for with_word, result in [(True, "qwerty"), (False, None)]:
        table, index = _one_suffix_table("qwerty", specs, perm44, end_for_hash, with_word)
        report = crack(md5_hex("qwerty"), table, index, perm44, specs[-1:], cfg)
        assert report.result == result
        assert report.grover_invocations == 1
        assert report.grover_iterations_total == grover_iterations(3)


def test_crack_rejects_seed_mismatch(table100, buckets100, specs):
    other_perm = build_permutation(45)
    with pytest.raises(ValueError, match="seed"):
        crack(md5_hex("password"), table100, buckets100, other_perm, specs)


def test_crack_rejects_an_index_of_another_table(table100, buckets100, perm44, specs):
    # without the check, the 100-row index sends crack to rows the table lacks
    table = generate_table([table100.chains[50].start], specs, perm44)
    with pytest.raises(ValueError, match="not built from this table"):
        crack(md5_hex(table.chains[0].start), table, buckets100, perm44, specs)
    # same row count, other seed
    other = build_buckets(generate_table(["x"], specs, build_permutation(45)))
    with pytest.raises(ValueError, match="seed 45 was not built from this table"):
        crack(md5_hex(table.chains[0].start), table, other, perm44, specs)


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


@pytest.mark.parametrize("kept", [1, 2, 3])
def test_classical_scan_of_longer_ends_matches_no_row(table100, specs, kept):
    # R1..R3 reduce to 6, 4 and 5 characters, which no 3-character end equals
    for word in ["password", "not-a-chain-member"]:
        result = crack_classical_scan(md5_hex(word), table100, specs[:kept])
        assert result == (None, kept * len(table100.chains))


def test_scans_build_the_end_column_once(table100, specs):
    # the table is built with its end column; the scan's one character a
    # row is derived from it once, when first scanned
    table = RainbowTable(table100.starts, table100.ends, table100.perm_seed)
    column = table.end_codes
    assert "end_chars" not in vars(table)
    crack_classical_scan(md5_hex("not-a-chain-member"), table, specs)
    chars = vars(table)["end_chars"]
    assert crack_classical_scan(md5_hex("password"), table, specs)[0] == "password"
    build_buckets(table)
    assert vars(table)["end_codes"] is column and vars(table)["end_chars"] is chars


@pytest.mark.parametrize(
    "kwargs",
    [
        {"shots": 0},
        {"classical_threshold": -1},
        {"classical_threshold": 17},
        {"rng_seed": -1},
        {"rng_seed": 2**64},
        {"classical_threshold": 0},
        {"classical_threshold": 1},
        # at seed 7 a 2-shot vote rejects present residues in buckets of 3..16
        {"shots": 2},
        {"shots": MAX_SHOTS + 1},
    ],
)
def test_search_config_validation(kwargs):
    (field,) = kwargs
    with pytest.raises(ValueError, match="--" + field.replace("_", "-")):
        SearchConfig(**kwargs)


def test_search_config_accepts_shots_up_to_the_cap():
    # threshold 16 builds no decision table, so the cap itself is cheap to accept
    assert MAX_SHOTS == 2**24
    assert SearchConfig(shots=MAX_SHOTS, classical_threshold=BUCKET_WIDTH).shots == MAX_SHOTS


def test_search_config_accepts_full_seed_range():
    assert SearchConfig(rng_seed=0).rng_seed == 0
    assert SearchConfig(rng_seed=2**64 - 1).rng_seed == 2**64 - 1


@pytest.mark.parametrize("shots", [3, 4])
def test_search_config_refuses_thresholds_below_a_rejected_key(shots):
    # at seed 7 and 3 or 4 shots the vote rejects exactly one present key,
    # rank 1 of an m = 7 bucket: thresholds that send m = 7 to Grover are
    # refused, and those that keep it classical are sound
    decisions = grover_decisions(shots, 7)
    assert [key for key, accept in decisions.items() if key[0] >= 3 and not accept] == [(7, 1)]
    message = rf"--shots {shots} with --rng-seed 7 .* rank 1 in an m = 7 bucket"
    for threshold in range(2, 7):
        with pytest.raises(ValueError, match=message):
            SearchConfig(shots=shots, classical_threshold=threshold)
    for threshold in range(7, BUCKET_WIDTH + 1):
        assert SearchConfig(shots=shots, classical_threshold=threshold).shots == shots
