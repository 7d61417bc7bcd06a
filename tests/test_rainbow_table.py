import hashlib
from collections import Counter

import pytest

from qiris.hashing import build_permutation, md5_hex, pearson16
from qiris.rainbow_table import (
    BUCKET_WIDTH,
    Chain,
    RainbowTable,
    build_buckets,
    generate_table,
    load_table,
    save_table,
)


def _table(end_for_hash, hashes):
    """A seed-44 table whose row i ends in a chain end hashing to hashes[i]."""
    chains = [Chain(start=f"w{i}", end=end_for_hash[h]) for i, h in enumerate(hashes)]
    return RainbowTable(chains=chains, perm_seed=44)


def test_generate_single_word(perm44, specs):
    table = generate_table(["password"], specs, perm44)
    assert len(table.chains) == 1
    assert table.chains[0].start == "password"
    assert table.chains[0].end == "xk9"  # frozen from the reference chain walk
    assert table.perm_seed == 44
    assert build_buckets(table).hashes.tolist() == [454]


def test_generate_preserves_order(table100, buckets100, words100):
    assert len(table100.chains) == 100
    assert [c.start for c in table100.chains] == words100
    assert len(buckets100.hashes) == 100
    assert all(0 <= h <= 65534 for h in buckets100.hashes)


def test_generate_deterministic(perm44, specs, words100):
    sample = words100[:20]
    assert generate_table(sample, specs, perm44) == generate_table(sample, specs, perm44)


def test_generate_keeps_duplicates(perm44, specs):
    table = generate_table(["hello", "hello"], specs, perm44)
    assert table.chains[0] == table.chains[1]
    index = build_buckets(table)
    assert index.rows_for(index.hashes[0]) == [0, 1]


@pytest.mark.parametrize(
    "words,fragment",
    [
        ([], "empty"),
        (["ok", ""], "entry 2"),
        (["has space"], "entry 1"),
        (["tab\tbed"], "entry 1"),
        (["café"], "entry 1"),
    ],
)
def test_generate_rejects_bad_wordlists(words, fragment, perm44, specs):
    with pytest.raises(ValueError, match=fragment):
        generate_table(words, specs, perm44)


def test_buckets_single_value(end_for_hash):
    assert build_buckets(_table(end_for_hash, [37])).buckets == {2: [5]}


def test_buckets_boundaries(end_for_hash):
    index = build_buckets(_table(end_for_hash, [16, 15, 0, 65534]))
    assert index.buckets == {0: [0, 15], 1: [0], 4095: [14]}


def test_buckets_keep_duplicates(end_for_hash):
    # a bucket holds each residue once; the sorted index keeps every row
    index = build_buckets(_table(end_for_hash, [5, 5]))
    assert index.buckets == {0: [5]}
    assert index.rows_for(5) == [0, 1]


def test_buckets_share_one_permutation(end_for_hash, perm44):
    a = build_buckets(_table(end_for_hash, [37]))
    b = build_buckets(_table(end_for_hash, [5, 5]))
    assert a.perm is b.perm
    assert a.perm.table == perm44.table


def test_bucket_ranges_and_nonempty(buckets100):
    for key, residues in buckets100.buckets.items():
        assert 0 <= key <= 4095
        assert residues
        assert all(0 <= r <= 15 for r in residues)
        assert residues == sorted(set(residues))


def test_bucket_reconstruction_roundtrip(table100, buckets100, perm44):
    end_hashes = [pearson16(chain.end, perm44) for chain in table100.chains]
    rebuilt = {
        key * BUCKET_WIDTH + r for key, residues in buckets100.buckets.items() for r in residues
    }
    assert rebuilt == set(end_hashes)
    assert Counter(buckets100.hashes) == Counter(end_hashes)


def test_end_hash_indices(end_for_hash):
    index = build_buckets(_table(end_for_hash, [7, 3, 7]))
    assert index.rows_for(7) == [0, 2]
    assert index.rows_for(3) == [1]
    assert index.rows_for(9999) == []
    assert list(index.hashes) == [3, 7, 7]
    assert list(index.rows) == [1, 0, 2]


def test_save_load_roundtrip(table100, tmp_path):
    path = tmp_path / "table.txt"
    save_table(table100, path)
    assert load_table(path) == table100


# sha256 of the 100-word fixture table saved with seed 44, taken from the
# hex-digest chain walk before the raw-digest walker replaced it
TABLE100_SHA256 = "099d98aa622860d5cb4930255791cd855216780466a1c29c658cf43f0d891f83"


def test_saved_table100_digest_pinned(table100, tmp_path):
    path = tmp_path / "table.txt"
    save_table(table100, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TABLE100_SHA256


def test_saved_format_is_exact(perm44, specs, tmp_path):
    table = generate_table(["password"], specs, perm44)
    path = tmp_path / "one.txt"
    save_table(table, path)
    raw = path.read_bytes()
    assert raw == b"QIRIS v1 seed=44 chain=R1,R2,R3,R4\npassword\txk9\n"


def test_loaded_buckets_match_in_memory(table100, buckets100, tmp_path):
    path = tmp_path / "table.txt"
    save_table(table100, path)
    assert build_buckets(load_table(path)).buckets == buckets100.buckets


def test_load_honors_header_seed(perm44, specs, tmp_path):
    other_perm = build_permutation(45)
    table = generate_table(["hello", "world"], specs, other_perm)
    path = tmp_path / "t45.txt"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.perm_seed == 45
    assert loaded == table


def test_load_accepts_largest_seed(specs, tmp_path):
    table = generate_table(["hello"], specs, build_permutation(2**64 - 1))
    path = tmp_path / "max-seed.txt"
    save_table(table, path)
    assert load_table(path) == table


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "header"),
        ("not a header\nfoo\tabc\n", "malformed table header"),
        ("QIRIS v2 seed=44 chain=R1,R2,R3,R4\nfoo\tabc\n", "version"),
        ("QIRIS v1 seed=x chain=R1,R2,R3,R4\nfoo\tabc\n", "malformed table header"),
        ("QIRIS v1 seed=18446744073709551616 chain=R1,R2,R3,R4\nfoo\tabc\n", "line 1"),
        ("QIRIS v1 seed=44 chain=R1,R2,R3,R4\nno-tab-here\n", "tab"),
        ("QIRIS v1 seed=44 chain=R1,R2,R3,R4\na\tb\tc\n", "tab"),
        ("QIRIS v1 seed=44 chain=R1,R2,R3,R4\nfoo\tab\n", "base62"),
        ("QIRIS v1 seed=44 chain=R1,R2,R3,R4\nfoo\tab!\n", "base62"),
        ("QIRIS v1 seed=44 chain=R1,R2,R3,R4\nfoo\tabcd\n", "base62"),
        ("QIRIS v1 seed=44 chain=R1,R2,R3,R4\n\tabc\n", "empty start"),
        ("QIRIS v1 seed=44 chain=R1,R2,R3,R4\n", "no chains"),
        ("QIRIS v1 seed=44 chain=R1,R2,R3,R4\nhas space\tabc\n", "line 2: .* whitespace"),
        ("QIRIS v1 seed=44 chain=R1,R2,R3,R4\r\nfoo\tabc\r\n", "line 1: .* CRLF"),
        ("QIRIS v1 seed=44 chain=R1,R2,R3,R4\nfoo\tabc\nbar\tabc\r\n", "line 3: .* CRLF"),
    ],
)
def test_load_rejects_malformed_files(content, fragment, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="ascii")
    with pytest.raises(ValueError, match=fragment):
        load_table(path)


def test_load_rejects_non_ascii(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"QIRIS v1 seed=44 chain=R1,R2,R3,R4\nf\xc3\xb8o\tabc\n")
    with pytest.raises(ValueError, match="line 2: start plaintext is not ASCII"):
        load_table(path)
    path.write_bytes(b"QIRIS v1 seed=44 chain=R1,R2,R3,R4\nfoo\tabc\nbar\tab\xe9\n")
    with pytest.raises(ValueError, match="line 3: end must be 3 base62"):
        load_table(path)


def test_save_rejects_non_canonical_ends(tmp_path):
    table = RainbowTable(chains=[Chain(start="word", end="ab")], perm_seed=44)
    with pytest.raises(ValueError, match="base62"):
        save_table(table, tmp_path / "bad.txt")


def test_loaded_end_hashes_recomputed(perm44, specs, tmp_path):
    table = generate_table(["monkey"], specs, perm44)
    path = tmp_path / "t.txt"
    save_table(table, path)
    loaded = load_table(path)
    assert build_buckets(loaded).hashes == build_buckets(table).hashes
    # sanity: recomputation really derives from the end plaintext
    assert build_buckets(loaded).hashes.tolist() == [pearson16(table.chains[0].end, perm44)]
    assert md5_hex(loaded.chains[0].start) == md5_hex("monkey")
