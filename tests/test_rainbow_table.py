import dataclasses
import errno
import hashlib
import os
import random
import re
import tracemalloc
from array import array
from collections.abc import Sequence

import pytest
from conftest import fail_third_chunk_write, sorted_end_hashes

from qiris import hashing, rainbow_table
from qiris.hashing import BASE62_ALPHABET, build_permutation, md5_hex, pearson16, walk_chain
from qiris.rainbow_table import (
    BUCKET_WIDTH,
    Chain,
    RainbowTable,
    build_buckets,
    generate_table,
    load_table,
    save_table,
)
from qiris.search import crack_classical_scan


def _table(end_for_hash, hashes):
    """A seed-44 table whose row i ends in a chain end hashing to hashes[i]."""
    starts = [f"w{i}" for i in range(len(hashes))]
    return RainbowTable(starts, [end_for_hash[h] for h in hashes], 44)


def test_generate_single_word(perm44, specs):
    table = generate_table(["password"], specs, perm44)
    assert len(table.chains) == 1
    assert table.chains[0].start == "password"
    assert table.chains[0].end == "xk9"  # frozen from the reference chain walk
    assert table.perm_seed == 44
    assert sorted_end_hashes(table, perm44) == [454]
    assert build_buckets(table).buckets == {454 // BUCKET_WIDTH: [454 % BUCKET_WIDTH]}


# Words at the MD5 block edges of their UTF-8 bytes: 0, 55, 56, 119 and 120
# bytes; multi-byte words whose characters fall on the other side of an edge
# than their bytes; and words holding tabs, newlines and NULs, trailing too.
ODD_WORDS = [
    "", "a" * 55, "b" * 56, "c" * 119, "d" * 120,
    "é" * 28, "x" + "é" * 27, "€" * 19, "é" * 60, "y" + "é" * 59, "\U0001f600" * 14,
    "a\tb", "tab\t", "\n", "line\n", "nul\x00", "\x00", "\x00" * 56, "\x00mid\x00dle\x00",
]


def test_generate_walks_each_row_alone_across_chunk_edges(perm44, specs):
    # generate_table walks its rows in chunks, a word longer than one MD5
    # block by hashlib; no end may depend on where a chunk starts or on the
    # rows beside it
    chunk = rainbow_table._CHUNK
    rng = random.Random(17)
    words = [format(rng.getrandbits(rng.randint(4, 60)), "x") for _ in range(2 * chunk + 1)]
    for at in (5, chunk - len(ODD_WORDS) // 2, 2 * chunk - len(ODD_WORDS)):
        words[at:at + len(ODD_WORDS)] = ODD_WORDS
    ends = [walk_chain(hashlib.md5(w.encode()).digest(), specs) for w in words]
    table = generate_table(words, specs, perm44)
    assert table == RainbowTable(words, ends, 44)
    assert list(table.starts) == words and list(table.ends) == ends
    for k in (chunk - 1, chunk, chunk + 1):
        head = RainbowTable(words[:k], ends[:k], 44)
        assert generate_table(words[:k], specs, perm44) == head
    # a word that has no UTF-8 encoding is refused, as encoding it refuses it
    with pytest.raises(UnicodeEncodeError):
        generate_table(["ok", "lone\ud800"], specs, perm44)


def test_generate_memory(perm44, specs):
    # the rows are joined chunk by chunk, and each chunk's words are padded to
    # their own MD5 block count, not to the chunk's longest word
    rng = random.Random(3)
    words = [format(rng.getrandbits(48), "x") for _ in range(100_000)]
    for size, limit in ((100_000, 5.2 * 2**20), (rainbow_table._CHUNK, 4 * 2**20)):
        sample = words[:size - 1] + ["w" * 4096]
        tracemalloc.start()
        try:
            table = generate_table(sample, specs, perm44)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == size and peak < limit


def test_generate_hashes_a_long_word_with_hashlib(perm44, specs, monkeypatch):
    # a word longer than one MD5 block takes its MD5 from hashlib, so a chunk
    # runs one numpy block step for its words, and those of the inner
    # reductions' texts, whatever its longest word
    calls = []

    def counting(state, m, steps=64):
        calls.append(steps)
        return md5_block(state, m, steps)

    md5_block = hashing._md5_block
    monkeypatch.setattr(hashing, "_md5_block", counting)
    rng = random.Random(5)
    words = [format(rng.getrandbits(48), "x") for _ in range(rainbow_table._CHUNK)]
    words[100] = "w" * 65536
    table = generate_table(words, specs, perm44)
    assert list(table.ends) == [walk_chain(hashlib.md5(w.encode()).digest(), specs) for w in words]
    text_blocks = sum((spec.length + 8) // 64 + 1 for spec in specs[:-1])
    assert len(calls) <= 1 + text_blocks


def test_generate_preserves_order(table100, buckets100, words100, perm44):
    assert len(table100.chains) == 100
    assert [c.start for c in table100.chains] == words100
    assert len(buckets100.rows) == 100 and len(buckets100.ends) == 4 * 100
    assert all(0 <= h <= 65534 for h in sorted_end_hashes(table100, perm44))


def test_generate_deterministic(perm44, specs, words100):
    sample = words100[:20]
    assert generate_table(sample, specs, perm44) == generate_table(sample, specs, perm44)


def test_generate_keeps_duplicates(perm44, specs):
    table = generate_table(["hello", "hello"], specs, perm44)
    assert table.chains[0] == table.chains[1]
    index = build_buckets(table)
    end = table.ends[0]
    assert index.rows_for(pearson16(end, index.perm), end) == [0, 1]


@pytest.mark.parametrize("words,fragment", [([], "empty")])
def test_generate_rejects_bad_wordlists(words, fragment, perm44, specs):
    with pytest.raises(ValueError, match=fragment):
        generate_table(words, specs, perm44)


def test_generate_refuses_no_reductions(perm44):
    # a chain is at least one reduction, so every end is a reduced plaintext
    with pytest.raises(ValueError, match="at least one reduction"):
        generate_table(["password"], [], perm44)


@pytest.mark.parametrize(
    "words,fragment",
    [
        (["ok", ""], r"chains\[1\]: empty start"),
        (["has space"], r"chains\[0\]: .* whitespace"),
        (["tab\tbed"], r"chains\[0\]: .* whitespace"),
        (["café"], r"chains\[0\]: .* not ASCII"),
    ],
    ids=["empty", "space", "tab", "non-ascii"],
)
def test_save_rejects_bad_starts(words, fragment, perm44, specs, tmp_path):
    # generate_table walks any string; the file's row rule is save_table's
    table = generate_table(words, specs, perm44)
    path = tmp_path / "bad.txt"
    with pytest.raises(ValueError, match=fragment):
        save_table(table, path)
    assert not path.exists()


def test_buckets_single_value(end_for_hash):
    assert build_buckets(_table(end_for_hash, [37])).buckets == {2: [5]}


def test_buckets_boundaries(end_for_hash):
    index = build_buckets(_table(end_for_hash, [16, 15, 0, 65534]))
    assert index.buckets == {0: [0, 15], 1: [0], 4095: [14]}


def test_bucket_hashes_take_the_wrap_past_the_permutation_end(perm44, end_for_hash):
    # build_buckets gathers from the permutation widened by its first 128
    # entries where pearson16 takes its hash plus a byte modulo 65535; each
    # 2-character prefix whose running hash is near 65534 is followed here by
    # every third character, most of which take that wrap
    permutation = perm44.table
    ends, wraps = [], 0
    for a in BASE62_ALPHABET:
        for b in BASE62_ALPHABET:
            h = permutation[(permutation[3 + ord(a)] + ord(b)) % 65535]
            if h + ord("z") >= 65535:
                ends += [a + b + c for c in BASE62_ALPHABET]
                wraps += sum(h + ord(c) >= 65535 for c in BASE62_ALPHABET)
    assert wraps
    ends += [end_for_hash[h] for h in range(65504, 65535) if h in end_for_hash]
    index = build_buckets(RainbowTable([f"w{i}" for i in range(len(ends))], ends, 44))
    hashes = [pearson16(end, perm44) for end in ends]
    masks = [0] * 4096
    for h in hashes:
        masks[h // BUCKET_WIDTH] |= 1 << h % BUCKET_WIDTH
    assert list(index.masks) == masks
    assert [hashes[row] for row in index.rows] == sorted(hashes)
    for row, (end, h) in enumerate(zip(ends, hashes)):
        assert row in index.rows_for(h, end)


def test_buckets_keep_duplicates(end_for_hash):
    # a bucket holds each residue once; the sorted index keeps every row
    index = build_buckets(_table(end_for_hash, [5, 5]))
    assert index.buckets == {0: [5]}
    assert index.rows_for(5, end_for_hash[5]) == [0, 1]


def test_buckets_share_one_permutation(end_for_hash, perm44):
    a = build_buckets(_table(end_for_hash, [37]))
    b = build_buckets(_table(end_for_hash, [5, 5]))
    assert a.perm is b.perm
    assert a.perm.table == perm44.table


def test_build_buckets_builds_one_permutation_per_seed(end_for_hash, monkeypatch):
    seeds = []

    def counting(seed):
        seeds.append(seed)
        return build_permutation(seed)

    monkeypatch.setattr(rainbow_table, "build_permutation", counting)
    rainbow_table._permutation.cache_clear()
    build_buckets(_table(end_for_hash, [37]))
    build_buckets(_table(end_for_hash, [5, 5]))
    assert seeds == [44]


def test_bucket_ranges_and_nonempty(buckets100):
    for key, residues in buckets100.buckets.items():
        assert 0 <= key <= 4095
        assert residues
        assert all(0 <= r <= 15 for r in residues)
        assert residues == sorted(set(residues))


@pytest.fixture(scope="module")
def base62_table():
    """One seed-44 row for each of the 238,328 three-character base62 ends."""
    ends = [a + b + c for a in BASE62_ALPHABET for b in BASE62_ALPHABET for c in BASE62_ALPHABET]
    return RainbowTable(["w"] * len(ends), ends, 44)


# base62_table holds every end: sums past 65535 occur only for some, and a
# gather that wraps them in uint16 moves those ends to other buckets
@pytest.mark.parametrize("table_name", ["table100", "base62_table"])
def test_bucket_reconstruction_roundtrip(table_name, request, perm44):
    table = request.getfixturevalue(table_name)
    index = build_buckets(table)
    end_hashes = [pearson16(end, perm44) for end in table.ends]
    rebuilt = {key * BUCKET_WIDTH + r for key, residues in index.buckets.items() for r in residues}
    assert rebuilt == set(end_hashes)
    assert [end_hashes[row] for row in index.rows] == sorted(end_hashes)
    buckets, masks = index.buckets, index.masks
    assert isinstance(masks, array) and masks.typecode == "H" and len(masks) == 4096
    assert [mask.bit_count() for mask in masks] == [len(buckets.get(k, ())) for k in range(4096)]
    marked = [h for h in range(1 << 16) if masks[h // BUCKET_WIDTH] >> h % BUCKET_WIDTH & 1]
    assert marked == sorted(set(end_hashes))


@pytest.mark.parametrize(
    "ends,row",
    [
        (["abc", "ab", "xyz"], 1),
        (["abc", "abcd", "xyz"], 1),
        (["abc", "é", "xyz"], 1),
        (["abc", "", "xyz"], 1),
        # 2 + 4 characters fill two 3-character slots; the row must still be named
        (["ab", "abcd"], 0),
        (["abc", "a\nb"], 1),
        (["abc", "ab!"], 1),
    ],
)
def test_build_buckets_names_the_bad_end(ends, row, specs):
    # the index build and the classical scan both read the packed end column
    message = rf"^table\.chains\[{row}\]: end must be 3 base62 characters$"
    query = md5_hex("w0")
    for read_ends in (build_buckets, lambda table: crack_classical_scan(query, table, specs)):
        table = RainbowTable([f"w{i}" for i in range(len(ends))], ends, 44)
        with pytest.raises(ValueError, match=message):
            read_ends(table)


def test_end_hash_indices(end_for_hash, perm44):
    table = _table(end_for_hash, [7, 3, 7])
    index = build_buckets(table)
    assert index.rows_for(7, end_for_hash[7]) == [0, 2]
    assert index.rows_for(3, end_for_hash[3]) == [1]
    assert index.rows_for(9999, end_for_hash[9999]) == []
    assert sorted_end_hashes(table, perm44) == [3, 7, 7]
    assert list(index.rows) == [1, 0, 2]
    assert index.ends == f"{end_for_hash[3]}\n{end_for_hash[7]}\n{end_for_hash[7]}\n"
    assert index.offsets[:2].tolist() == [0, 3] and index.offsets[4096] == 3


def test_empty_table_has_an_empty_index():
    index = build_buckets(RainbowTable([], [], 44))
    assert len(index.rows) == 0 and index.ends == "" and not any(index.masks)
    assert index.offsets[0] == index.offsets[4096] == 0


def test_chains_view_reads_the_columns(table100, tmp_path):
    chains = table100.chains
    rows = [Chain(start, end) for start, end in zip(table100.starts, table100.ends)]
    assert isinstance(chains, Sequence)
    assert len(chains) == 100
    assert chains[0] == rows[0] and chains[-1] == rows[-1] and chains[-100] == rows[0]
    assert chains[2:5] == rows[2:5] and chains[::-7] == rows[::-7]
    assert list(chains) == rows
    with pytest.raises(IndexError):
        chains[100]
    with pytest.raises(TypeError):
        chains[0] = rows[1]
    path = tmp_path / "table.txt"
    save_table(table100, path)
    assert load_table(path).chains == chains
    assert chains != RainbowTable(table100.starts[:99], table100.ends[:99], 44).chains
    # the table is itself the sequence of its rows
    assert chains is table100 and isinstance(table100, Sequence)
    assert len(table100) == 100
    assert table100[-1] == rows[-1] and table100[2:5] == rows[2:5]
    assert list(table100) == rows and list(reversed(table100)) == rows[::-1]
    assert Chain(table100.starts[7], table100.ends[7]) in table100
    assert Chain("absent", table100.ends[7]) not in table100
    with pytest.raises(TypeError):
        table100[0] = rows[1]


@pytest.mark.parametrize("field", ["starts", "ends"])
def test_columns_slice_their_fields_out_of_the_body(table100, field):
    column = getattr(table100, field)
    values = [getattr(row, field[:-1]) for row in table100]
    assert isinstance(column, Sequence) and len(column) == 100
    assert column[0] == values[0] and column[-1] == values[-1] and column[-100] == values[0]
    assert column[2:5] == values[2:5] and column[::-7] == values[::-7] and column[7:7] == []
    assert type(column[2:5]) is list and list(column) == values
    for i in (100, -101):
        with pytest.raises(IndexError):
            column[i]
    with pytest.raises(TypeError):
        column[0] = values[1]


def test_tables_are_equal_when_their_rows_and_seeds_are(table100, tmp_path):
    starts, ends = list(table100.starts), list(table100.ends)
    table = RainbowTable(starts, ends, 44)
    path = tmp_path / "table.txt"
    save_table(table, path)
    assert load_table(path) == table == table100
    assert table != RainbowTable(starts[:99], ends[:99], 44)
    assert table != RainbowTable(starts, ends, 45)
    # fields holding a tab or a newline are placed by their lengths, so the
    # rows read back as given, and two tables of one body can differ
    rows = [Chain("a\tabc\nb", "xyz"), Chain("", "é€"), Chain("c", "\t")]
    odd = RainbowTable([row.start for row in rows], [row.end for row in rows], 44)
    assert list(odd) == rows and odd[-3] == rows[0] and odd[1:] == rows[1:]
    assert RainbowTable(["a\tb"], ["c"], 44) != RainbowTable(["a"], ["b\tc"], 44)


def test_row_rule_is_searched_once_per_table(monkeypatch, tmp_path):
    # save_table and the end column share one check of a table built in
    # memory, a part of rows at a time; a loaded table was checked by
    # load_table, which stored its end column
    searched, parts = [], []

    def searching(offsets):
        searched.append(len(offsets) // 2)
        return row_parts(offsets)

    def checking(data, fields):
        parts.append(len(fields) // 2)
        return row_fault(data, fields)

    row_parts, row_fault = rainbow_table._row_parts, rainbow_table._row_fault
    monkeypatch.setattr(rainbow_table, "_row_parts", searching)
    monkeypatch.setattr(rainbow_table, "_row_fault", checking)
    table = RainbowTable(_words(20_000), ["abc"] * 20_000, 44)
    path = tmp_path / "table.txt"
    save_table(table, path)
    build_buckets(table)
    save_table(table, path)
    assert len(searched) == 1
    assert parts == [rainbow_table._CHUNK, rainbow_table._CHUNK, 20_000 - 2 * rainbow_table._CHUNK]
    loaded = load_table(path)
    assert len(searched) == 2 and "end_codes" in vars(loaded)
    assert searched == [20_000, 20_000] and len(parts) == 6
    assert build_buckets(loaded) == build_buckets(table)
    save_table(loaded, path)
    assert len(searched) == 2
    assert loaded.end_codes.tobytes() == table.end_codes.tobytes()
    assert not loaded.end_codes.flags.writeable
    # the end column keeps the whole row rule, as save_table does
    bad = RainbowTable(["w0", "a b"], ["abc", "abc"], 44)
    for read_rows in (build_buckets, lambda rows: save_table(rows, path)):
        with pytest.raises(ValueError, match=r"^table\.chains\[1\]: .* whitespace$"):
            read_rows(bad)


def test_loaded_table_memory(tmp_path):
    # the loaded rows are one string and one offset array, not a string per
    # row, and the offsets are found a part of the body at a time: the file's
    # text, the body and its bytes (1.1 MB each) and what is held set the peak
    rows = 100_000
    path = tmp_path / "table.txt"
    save_table(RainbowTable(_words(rows), ["abc"] * rows, 44), path)
    tracemalloc.start()
    try:
        table = load_table(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == rows and held < 4 * 2**20 and peak < 5 * 2**20


def test_rows_ending_scans_the_end_column():
    table = RainbowTable(["a", "b", "c", "d", "e"], ["xk9", "abc", "xk9", "Z0z", "xk9"], 44)
    assert table.rows_ending("xk9") == [0, 2, 4]
    assert table.rows_ending("Z0z") == [3]
    assert table.rows_ending("xk8") == []
    # a text that is not 3 base62 characters matches no row
    for text in ["", "xk", "xk9x", "xk9\n", "é9x", "ab\n", "x!9", "x k"]:
        assert table.rows_ending(text) == []
    assert table.end_codes.dtype == "<u4" and not table.end_codes.flags.writeable
    assert table.end_codes[1] == int.from_bytes(b"abc\n", "little")
    chars = table.end_chars
    assert len(chars) == 5 and chars[0] == chars[2] == chars[4] != chars[1]
    assert min(map(ord, chars)) > 0xFFFF


def test_end_chars_give_every_base62_end_its_own_character(base62_table):
    ends = base62_table.ends
    chars = base62_table.end_chars
    assert len(chars) == len(ends) == len(set(chars))
    assert min(map(ord, chars)) > 0xFFFF and max(map(ord, chars)) <= 0x10FFFF
    for row in [0, 1, 61, 62, 3843, 3844, 123_456, len(ends) - 1]:
        assert base62_table.rows_ending(ends[row]) == [row]


@pytest.mark.parametrize("field", ["starts", "ends", "perm_seed", "body", "offsets"])
def test_table_is_frozen(table100, field):
    # a reassigned column would leave the cached end column stale
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(table100, field, getattr(table100, field))


def test_table_columns_must_match():
    with pytest.raises(ValueError, match="2 starts but 1 ends"):
        RainbowTable(["a", "b"], ["abc"], 44)


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
        # a lone CR does not end a line; the CRLF after it is named
        ("QIRIS v1 seed=44 chain=R1,R2,R3,R4\nfo\ro\tabc\nbar\tabc\r\n", "line 3: .* CRLF"),
        # the first bad row is named, not a later one
        ("QIRIS v1 seed=44 chain=R1,R2,R3,R4\nfoo\tabc\nbar\tab\nb z\tabc\n", "line 3: end"),
        ("QIRIS v1 seed=44 chain=R1,R2,R3,R4\nfoo\tabc\nbar\tab!", "line 3: end"),
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
    table = RainbowTable(["word"], ["ab"], 44)
    with pytest.raises(ValueError, match="base62"):
        save_table(table, tmp_path / "bad.txt")


def _words(rows, bad_row=None, bad_start=None):
    """Starts w0, w1, ... for `rows` rows, with `bad_start` at `bad_row`."""
    starts = [f"w{i}" for i in range(rows)]
    if bad_row is not None:
        starts[bad_row] = bad_start
    return starts


@pytest.mark.parametrize(
    "starts,ends,seed,fragment",
    [
        ([], [], 44, "no chains"),
        (["word"], ["abc"], -1, "seed -1"),
        (["word"], ["abc"], 2**64, "seed 18446744073709551616"),
        (["word", "é"], ["abc", "abc"], 44, r"\[1\]: .* ASCII"),
        # a bad row in the second 8,192-row chunk is named by its table index
        (
            _words(8200, 8195, "a\tb"),
            ["abc"] * 8200,
            44,
            r"^table\.chains\[8195\]: start plaintext contains whitespace$",
        ),
        (
            _words(8200),
            ["abc"] * 8199 + ["ab\n"],
            44,
            r"^table\.chains\[8199\]: end must be 3 base62 characters$",
        ),
        # a row holding a newline that splits it into two well-formed lines
        (["a\tabc\nb"], ["xyz"], 44, r"^table\.chains\[0\]: start plaintext contains whitespace$"),
        (["a", "b"], ["abc", "abc\nb\tcde"], 44, r"^table\.chains\[1\]: end must be 3 base62"),
    ],
    ids=[
        "empty",
        "negative-seed",
        "wide-seed",
        "late-bad-row",
        "second-chunk-start",
        "second-chunk-end",
        "start-splits-into-rows",
        "end-splits-into-rows",
    ],
)
def test_save_refuses_before_opening(starts, ends, seed, fragment, tmp_path):
    # a refused save leaves an existing file as it was, and no other file
    path = tmp_path / "table.txt"
    path.write_bytes(b"old bytes")
    with pytest.raises(ValueError, match=fragment):
        save_table(RainbowTable(starts, ends, seed), path)
    assert path.read_bytes() == b"old bytes"
    assert os.listdir(tmp_path) == ["table.txt"]


@pytest.mark.parametrize(
    "exc",
    [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()],
    ids=["ENOSPC", "KeyboardInterrupt"],
)
def test_save_failing_midway_leaves_the_old_file(exc, monkeypatch, tmp_path):
    path = tmp_path / "table.txt"
    path.write_bytes(b"old bytes")
    fail_third_chunk_write(monkeypatch, exc)
    with pytest.raises(type(exc)) as raised:
        save_table(RainbowTable(_words(20_000), ["abc"] * 20_000, 44), path)
    assert raised.value is exc
    assert path.read_bytes() == b"old bytes"
    assert os.listdir(tmp_path) == ["table.txt"]


@pytest.mark.parametrize("rows", [100_000, 300_000])
def test_save_memory_does_not_grow_with_the_table(rows, tmp_path):
    table = RainbowTable(_words(rows), ["abc"] * rows, 44)
    tracemalloc.start()
    try:
        save_table(table, tmp_path / "table.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_save_through_a_symlink_rewrites_its_target(tmp_path):
    target = tmp_path / "target.txt"
    target.write_bytes(b"old bytes")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    table = RainbowTable(["word"], ["abc"], 44)
    save_table(table, link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert load_table(target) == table
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "target.txt"]


def test_save_into_a_missing_directory_names_the_path(tmp_path):
    path = tmp_path / "missing" / "table.txt"
    with pytest.raises(OSError, match=re.escape(str(path))):
        save_table(RainbowTable(["word"], ["abc"], 44), path)
    assert os.listdir(tmp_path) == []


def test_save_refuses_a_path_that_is_not_a_regular_file(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    for path in (tmp_path, fifo):
        with pytest.raises(OSError, match="Not a regular file: " + re.escape(repr(str(path)))):
            save_table(RainbowTable(["word"], ["abc"], 44), path)
    assert fifo.is_fifo() and os.listdir(tmp_path) == ["fifo"]


def test_loaded_end_hashes_recomputed(perm44, specs, tmp_path):
    table = generate_table(["monkey"], specs, perm44)
    path = tmp_path / "t.txt"
    save_table(table, path)
    loaded = load_table(path)
    assert build_buckets(loaded) == build_buckets(table)
    # sanity: recomputation really derives from the end plaintext
    h = pearson16(table.chains[0].end, perm44)
    assert build_buckets(loaded).buckets == {h // BUCKET_WIDTH: [h % BUCKET_WIDTH]}
    assert md5_hex(loaded.chains[0].start) == md5_hex("monkey")
