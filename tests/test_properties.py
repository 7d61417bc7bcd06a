"""Property-based checks of the chain walk, the end-hash index and bucket
masks, the hybrid crack, the Grover decision table, the permutation, the
SplitMix64 stream, the table file, and the CLI's input files and flags."""

import contextlib
import dataclasses
import hashlib
import io
import os
import re
from array import array
from collections import Counter
import tempfile

import numpy as np
import pytest
from conftest import SplitMix64, sorted_end_hashes
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from qiris.hashing import (
    BASE62_ALPHABET,
    PERMUTATION_SIZE,
    ReductionSpec,
    _fisher_yates,
    _walk_chains,
    build_permutation,
    md5_hex,
    normalize_digest,
    pearson16,
    reduce,
    walk_chain,
)
from qiris.prng import GAMMA, splitmix64_block
from qiris import rainbow_table
from qiris.cli import _MAX_HASHES_LINE, _read_hashes, main
from qiris.quantum_sim import _SHOT_CHUNK, grover_decisions, grover_search
from qiris.rainbow_table import (
    BUCKET_WIDTH,
    Chain,
    RainbowTable,
    build_buckets,
    generate_table,
    load_table,
    save_table,
)
from qiris.search import (
    SearchConfig,
    _probe,
    crack,
    crack_classical,
    crack_classical_scan,
    rebuild_chain,
)

END_HASHES = st.one_of(st.integers(0, 65534), st.sampled_from([0, 1, 65533, 65534]))
WORDS = st.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)
# every ASCII character a start plaintext may hold: all but whitespace
ASCII_WORDS = st.text(
    "".join(chr(c) for c in range(128) if not chr(c).isspace()), min_size=1, max_size=12
)
# Words past one MD5 block, non-ASCII included, for the chain walk property.
WALK_WORDS = st.one_of(ASCII_WORDS, st.text(min_size=56, max_size=200))
# Specs over the whole domain that `ReductionSpec` accepts, nonces in
# 0..2**32 - 1 and lengths in 1..55, with its edges: nonces 0 and 2**32 - 1,
# and lengths 54 and 55, the last two that one MD5 block holds.
SPECS = st.builds(
    ReductionSpec,
    nonce=st.one_of(
        st.integers(0, 64),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0, 2**32 - 1]),
    ),
    length=st.one_of(st.integers(1, 16), st.integers(1, 55), st.sampled_from([54, 55])),
    index=st.integers(1, 4),
)
EDGE_SPECS = [
    ReductionSpec(2**32 - 1, 55, 1), ReductionSpec(0, 54, 2), ReductionSpec(2**32 - 1, 3, 4)
]

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
@given(st.lists(WALK_WORDS, min_size=1, max_size=4), st.lists(SPECS, min_size=1, max_size=5))
@example(words=["a" * 55, "b" * 56], specs=EDGE_SPECS)
@example(words=["x"], specs=EDGE_SPECS[::-1])
def test_chain_walk_matches_reference(words, specs):
    # the numpy walk, as generate_table runs it, on any word's UTF-8 and any
    # last text length, which no table row holds
    messages = [word.encode() for word in words]
    lengths = np.array([len(m) for m in messages], np.intp)
    ends = _walk_chains(messages, lengths, specs)
    for word, end in zip(words, ends):
        steps = _reference_walk(word, specs)
        assert end.tobytes().decode() == steps[-1][0]
        for depth, step in enumerate(steps):
            assert rebuild_chain(word, specs[:depth]) == step
            if depth:
                digest = hashlib.md5(word.encode()).digest()
                assert walk_chain(digest, specs[:depth]) == step[0]


@given(st.binary(min_size=16, max_size=16), SPECS)
@example(digest=b"\xff" * 16, spec=EDGE_SPECS[0])
@example(digest=bytes(16), spec=ReductionSpec(0, 55, 1))
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


LATIN1_TEXT = st.text(st.characters(max_codepoint=255), max_size=6)
BASE62_ENDS = st.text(BASE62_ALPHABET, min_size=3, max_size=3)
# half the rows fit the file format; the rest are drawn from the edges of
# its rule and from any latin-1 text
ROWS = st.one_of(
    st.builds(Chain, start=ASCII_WORDS, end=BASE62_ENDS),
    st.builds(
        Chain,
        start=st.one_of(
            st.sampled_from(["", " ", "\t", "\n", "é", "a b", "a\tb", "a\nb"]), LATIN1_TEXT
        ),
        end=st.one_of(BASE62_ENDS, LATIN1_TEXT),
    ),
)
SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([-2, -1, 2**64, 2**64 + 1]))


def _first_bad_row(starts, ends):
    """The error `_check_row` makes for the first of the rows that breaks the
    row rule, as a table built of them names it, or None."""
    for i, (start, end) in enumerate(zip(starts, ends)):
        try:
            rainbow_table._check_row(start, end, f"table.chains[{i}]")
        except ValueError as exc:
            return str(exc)
    return None


def _built_or_refused(starts, ends, seed=44):
    """The table of the rows, or None once building it has raised exactly
    the first bad row's error."""
    expected = _first_bad_row(starts, ends)
    try:
        table = RainbowTable(starts, ends, seed)
    except ValueError as exc:
        assert str(exc) == expected
        return None
    assert expected is None
    return table


@settings(deadline=None)
@given(st.lists(ROWS, max_size=4), SEEDS)
def test_save_table_succeeds_exactly_when_load_returns_the_table(rows, seed):
    # a table is built exactly when its rows keep the row rule; it then
    # saves, unless it has no rows or its seed is outside 64 bits, to a file
    # that loads back as the table
    table = _built_or_refused([c.start for c in rows], [c.end for c in rows], seed)
    if table is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.txt")
        with open(path, "wb") as fh:
            fh.write(b"old bytes")
        try:
            save_table(table, path)
        except ValueError:
            with open(path, "rb") as fh:
                assert fh.read() == b"old bytes"
            assert not rows or not 0 <= seed <= 2**64 - 1
            return
        assert load_table(path) == table


# Starts and ends of tables built in memory: rows that keep the row rule,
# and fields holding tabs, newlines or non-ASCII, empty ones, and ends of 2
# and 4 characters.
MEMORY_STARTS = st.one_of(
    ASCII_WORDS,
    st.sampled_from(
        ["", " ", "\t", "\n", "é", "€", "a b", "a\tb", "a\nb", "\x00", "\x7f", "\x1c", "\r"]
    ),
    LATIN1_TEXT,
    st.text(max_size=4),
)
MEMORY_ENDS = st.one_of(
    BASE62_ENDS,
    st.text(BASE62_ALPHABET, min_size=2, max_size=4),
    st.sampled_from(["", "ab\t", "a\nb", "\tab", "ab\n", "é12", "a b", "ab", "abcd"]),
    LATIN1_TEXT,
)


@settings(deadline=None)
@given(
    st.lists(st.tuples(MEMORY_STARTS, MEMORY_ENDS), min_size=1, max_size=6),
    st.sampled_from([0, rainbow_table._CHUNK - 3]),
)
def test_building_a_table_names_its_first_bad_row(rows, filler):
    # the drawn rows follow `filler` good ones, so they can straddle the
    # edge of the row check's first part
    starts = [f"w{i}" for i in range(filler)] + [start for start, _ in rows]
    ends = ["abc"] * filler + [end for _, end in rows]
    table = _built_or_refused(starts, ends)
    if table is None:
        return
    assert list(table.starts) == starts and list(table.ends) == ends
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.txt")
        save_table(table, path)
        assert load_table(path) == table


# Any string as a field of a table built in memory: lone surrogates (and a
# pair of them, which is not the astral character they would encode), astral
# characters, tabs, newlines and the empty string among them.
ANY_FIELDS = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=4),
    st.sampled_from(
        ["", "\t", "\n", "a\tb", "a\nb", "\ud800", "\udfff", "\ud83d\ude00", "\U0001f600",
         "\U0010ffff", "abc", "w0"]
    ),
)
ANY_ROWS = st.lists(st.builds(Chain, start=ANY_FIELDS, end=ANY_FIELDS), max_size=4)


def _as_pairs(text):
    """`text` with each astral character spelled as two lone surrogates."""
    return "".join(
        c if ord(c) < 0x10000 else chr(0xD7C0 + (ord(c) >> 10)) + chr(0xDC00 + (ord(c) & 0x3FF))
        for c in text
    )


def _variant(rows, data):
    """Rows drawn to sit near `rows`: the same, each row's start and end
    split at another of their tabs, or astral characters spelled as
    surrogate pairs; or any rows."""
    how = data.draw(st.sampled_from(["same", "tabs", "pairs", "any"]))
    if how == "tabs":
        texts = [f"{row.start}\t{row.end}" for row in rows]
        cuts = [data.draw(st.sampled_from([i for i, c in enumerate(t) if c == "\t"])) for t in texts]
        return [Chain(t[:k], t[k + 1:]) for t, k in zip(texts, cuts)]
    if how == "pairs":
        return [Chain(_as_pairs(row.start), _as_pairs(row.end)) for row in rows]
    return rows if how == "same" else data.draw(ANY_ROWS)


@settings(deadline=None)
@given(ANY_ROWS, st.data())
def test_a_table_built_in_memory_reads_back_its_rows(rows, data):
    # any strings: a table is built of them exactly when they keep the row
    # rule, its first bad row named, and then reads them back as given
    table = _built_or_refused([row.start for row in rows], [row.end for row in rows])
    other_rows, seed = _variant(rows, data), data.draw(st.sampled_from([44, 45]))
    other = _built_or_refused([row.start for row in other_rows], [row.end for row in other_rows], seed)
    if table is None:
        return
    assert list(table) == rows and table[:] == rows
    assert [table.starts[i] for i in range(len(rows))] == [row.start for row in rows]
    # tables are equal exactly when their rows and seeds are
    assert other is None or (other == table) == (other_rows == rows and seed == 44)


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


# The edges of the row rule's byte classes: \x00 and \x7f may start a row;
# \v, \f, \r, \x1c-\x1f and space are whitespace to str.split; \x80 and
# \xff are not ASCII.
CLASS_EDGES = [bytes([b]) for b in b"\x00\x7f\x0b\x0c\r\x1c\x1d\x1e\x1f \x80\xff"]
START_BYTES = [bytes([b]) for b in range(128) if not chr(b).isspace()]
VALID_LINES = st.builds(
    lambda start, end: start + b"\t" + end.encode(),
    st.lists(st.sampled_from(START_BYTES), min_size=1, max_size=4).map(b"".join),
    BASE62_ENDS,
)
# a valid line with one edit at the edge of the rule: one class-edge byte
# inserted, no start, no tab or two, a 2- or a 4-character end
EDGE_LINES = st.one_of(
    st.builds(
        lambda line, at, byte: line[:at] + byte + line[at:],
        VALID_LINES,
        st.integers(0, 8),
        st.sampled_from(CLASS_EDGES),
    ),
    VALID_LINES.map(lambda line: line[line.index(b"\t"):]),
    VALID_LINES.map(lambda line: line.replace(b"\t", b"")),
    VALID_LINES.map(lambda line: line.replace(b"\t", b"\t\t")),
    VALID_LINES.map(lambda line: line[:-1]),
    VALID_LINES.map(lambda line: line + b"0"),
)
EDGE_TABLES = st.builds(
    lambda lines, last: HEADER + b"\n".join(lines) + last,
    st.one_of(
        st.lists(VALID_LINES, min_size=1, max_size=4),
        st.lists(st.one_of(VALID_LINES, EDGE_LINES), min_size=1, max_size=4),
    ),
    # with or without the final newline
    st.sampled_from([b"\n", b""]),
)


def _reference_parse_lines(data):
    """The table in `data` read one line at a time, as the earlier per-line
    loader read it; an error names the line. (That loader echoed 80
    characters of a malformed header, which could make a message of 365
    bytes; both now echo it as `_clip` does, in at most 60 characters.)"""
    text = data.decode("latin-1")
    crlf = text.find("\r\n")
    if crlf >= 0:
        lineno = text.count("\n", 0, crlf) + 1
        raise ValueError(f"line {lineno}: file has CRLF line endings; use LF")
    lines = text.split("\n")
    if not lines[0]:
        raise ValueError("line 1: missing table header")
    header = rainbow_table._HEADER_RE.match(lines[0])
    if header is None:
        raise ValueError(f"line 1: malformed table header: {rainbow_table._clip(lines[0])}")
    version = int(header.group(1))
    if version != rainbow_table.TABLE_VERSION:
        raise ValueError(f"line 1: unsupported table version v{version}")
    seed = int(header.group(2))
    if seed > 2**64 - 1:
        raise ValueError(f"line 1: permutation seed {seed} does not fit in 64 bits")

    body = lines[1:]
    if body and body[-1] == "":
        body = body[:-1]
    starts, ends = [], []
    for lineno, line in enumerate(body, start=2):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected exactly one tab separator")
        start, end = parts
        rainbow_table._check_row(start, end, f"line {lineno}")
        starts.append(start)
        ends.append(end)
    if not starts:
        raise ValueError("table has no chains")
    return RainbowTable(starts, ends, seed)


def _assert_loaders_agree(data):
    # load_table returns the per-line reference's table or raises its message
    try:
        expected = _reference_parse_lines(data)
    except ValueError as exc:
        expected = str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            assert load_table(path) == expected
        except ValueError as exc:
            assert str(exc) == expected


@settings(deadline=None)
@given(st.one_of(FUZZED_TABLES, EDGE_TABLES))
def test_vectorized_and_per_line_loaders_agree(data):
    _assert_loaders_agree(data)


@pytest.mark.parametrize(
    "data",
    [HEADER + b"a" + byte + b"\tabc\nb\tabc\n" for byte in CLASS_EDGES]
    + [HEADER + b"a\tab" + byte + b"\n" for byte in CLASS_EDGES]
    + [
        HEADER + b"password\txk9\nmonkey\tA0z",
        HEADER + b"\tabc\n",
        HEADER + b"a\tabc\n\tabc\n",
        HEADER + b"foo\tab\n",
        HEADER + b"foo\tabcd\n",
        HEADER + b"foo\tab\nbar\tabcd\n",
        HEADER + b"a\tb\tc\n",
        HEADER + b"a\t\tabc\n",
        HEADER + b"a\tabc\n\n",
    ],
)
def test_loaders_agree_at_each_edge(data):
    _assert_loaders_agree(data)


# a table line is what lies between two newlines, so it holds none
TABLE_LINES = st.one_of(
    VALID_LINES, EDGE_LINES, st.sampled_from(CLASS_EDGES), st.binary(max_size=8)
).filter(lambda line: b"\n" not in line)


@given(TABLE_LINES)
def test_row_check_accepts_exactly_the_lines_the_row_rule_accepts(line):
    try:
        rainbow_table._check_line(line.decode("latin-1"), 2)
    except ValueError:
        is_row = False
    else:
        is_row = True
    # the line as every table's parse checks it: after the newline before
    # it, the line offsets the newline scan finds
    data = b"\n" + line + b"\n"
    offsets, codes, fault = rainbow_table._parse(data)
    assert list(offsets) == [1, len(data)]
    assert (fault < 0) == is_row
    # a fault lies in the line or at the newline that ends it; a row's
    # check gathers its end code, its end's 3 bytes and the newline
    assert is_row or 1 <= fault <= len(line) + 1
    assert not is_row or codes.tolist() == [int.from_bytes(data[-4:], "little")]


def _lines_file(lines):
    """File bytes: the lines joined by LF or CRLF, with or without a final LF."""
    return st.builds(
        lambda lines, sep, last: sep.join(lines) + last,
        st.lists(lines, max_size=5),
        st.sampled_from([b"\n", b"\r\n"]),
        st.sampled_from([b"", b"\n"]),
    )


PASSWORD_MD5 = md5_hex("password")
WORDLISTS = st.one_of(
    _lines_file(st.one_of(st.sampled_from([b"password", b"monkey", b""]), st.binary(max_size=10))),
    st.binary(max_size=100),
)
HASHES_FILES = st.one_of(
    _lines_file(
        st.one_of(
            st.sampled_from([PASSWORD_MD5.encode(), PASSWORD_MD5.upper().encode(), b""]),
            st.binary(max_size=34),
        )
    ),
    st.binary(max_size=100),
)
# the messages about a whole file, which name no line
WHOLE_FILE_ERRORS = {"wordlist is empty", "table has no chains"}
# the line prefixes a content error may carry, by the files each command reads
LINE_PREFIXES = {
    "generate": r"wordlist line \d+: ",
    "crack": r"line \d+: ",
    "compare": r"(hashes )?line \d+: ",
}


@settings(deadline=None)
@given(
    st.sampled_from(sorted(LINE_PREFIXES)),
    WORDLISTS,
    st.one_of(FUZZED_TABLES, EDGE_TABLES),
    HASHES_FILES,
)
# a long header line of bytes that repr escapes as 4 characters each
@example(command="crack", wordlist=b"", table=b"\x00" * 200, hashes=b"")
def test_cli_input_files_fail_only_with_one_line_naming_error(command, wordlist, table, hashes):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in [("wordlist", wordlist), ("table", table), ("hashes", hashes)]:
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "wb") as fh:
                fh.write(data)
        argv = {
            "generate": ["--wordlist", paths["wordlist"], "--out", os.path.join(tmp, "out")],
            "crack": ["--table", paths["table"], PASSWORD_MD5],
            "compare": ["--table", paths["table"], "--hashes", paths["hashes"]],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, *argv])
    assert code in (0, 1, 2)
    if code != 2:
        return
    stderr = err.getvalue()
    _assert_one_error_line(stderr)
    message = stderr[len("error: "):-1]
    assert message in WHOLE_FILE_ERRORS or re.match(LINE_PREFIXES[command], message)


# wordlist lines: words, empty lines, any bytes, and a word with one byte at
# the edge of a byte class inserted
WORDLIST_LINES = st.one_of(
    st.sampled_from([b"password", b"monkey", b""]),
    st.binary(max_size=10),
    st.builds(
        lambda word, at, byte: word[:at] + byte + word[at:],
        st.sampled_from([b"word", b""]),
        st.integers(0, 4),
        st.sampled_from(CLASS_EDGES),
    ),
)
# each line ending in LF or CRLF, so a CRLF line falls before or after a bad
# line, and a last line with no newline after it, or none
MIXED_WORDLISTS = st.builds(
    lambda lines, last: b"".join(line + end for line, end in lines) + last,
    st.lists(st.tuples(WORDLIST_LINES, st.sampled_from([b"\n", b"\r\n"])), max_size=5),
    st.one_of(st.just(b""), WORDLIST_LINES),
)


def _reference_read_wordlist(data):
    """The words of wordlist bytes `data`, one a non-empty line, read one
    line at a time: the first line that ends in CRLF is named first, then
    the first non-empty line that is not ASCII or holds whitespace."""
    lines = data.split(b"\n")
    for lineno, line in enumerate(lines[:-1], start=1):  # the last has no LF
        if line.endswith(b"\r"):
            raise ValueError(f"wordlist line {lineno}: file has CRLF line endings; use LF")
    words = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        if max(line) > 0x7F:
            raise ValueError(f"wordlist line {lineno}: start plaintext is not ASCII")
        if any(byte in b"\t\x0b\x0c\r\x1c\x1d\x1e\x1f " for byte in line):
            raise ValueError(f"wordlist line {lineno}: start plaintext contains whitespace")
        words.append(line.decode("ascii"))
    return words


@settings(deadline=None)
@given(st.one_of(WORDLISTS, MIXED_WORDLISTS))
@example(data=b"ok\nbad word\nx\r\n")
@example(data=b"a\r\nb\x80\n")
@example(data=b"a\nb\r")
@example(data=b"\n\nlast\x1f")
def test_wordlist_reader_matches_a_per_line_reference(data):
    # `qiris generate` makes a table of exactly the non-empty lines, or
    # refuses the file with exactly what the per-line reference raises
    try:
        expected = _reference_read_wordlist(data) or "wordlist is empty"
    except ValueError as exc:
        expected = str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "words.txt"), os.path.join(tmp, "table.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["generate", "--wordlist", path, "--out", out])
        if isinstance(expected, str):
            assert (code, stdout.getvalue(), stderr.getvalue()) == (2, "", f"error: {expected}\n")
            assert not os.path.exists(out)
        else:
            assert code == 0 and stderr.getvalue() == ""
            assert stdout.getvalue().startswith(f"chains={len(expected)}\nbuckets=")
            assert list(load_table(out).starts) == expected


def _whole_hashes_file(data):
    """The hashes file rule on the whole file at once: a CRLF line anywhere is
    named first, then the first line that is not a digest."""
    crlf = data.find(b"\r\n")
    if crlf >= 0:
        lineno = data.count(b"\n", 0, crlf) + 1
        return f"hashes line {lineno}: file has CRLF line endings; use LF"
    digests = []
    for lineno, line in enumerate(data.decode("latin-1").split("\n"), start=1):
        if line:
            try:
                digests.append(normalize_digest(line))
            except ValueError:
                return f"hashes line {lineno}: not a 32-character hex digest"
    return digests


@settings(deadline=None)
@given(st.one_of(HASHES_FILES, _lines_file(st.binary(max_size=2 * _MAX_HASHES_LINE))))
# a long line is named though a later line has CRLF, and an earlier bad
# line is named before it
@example(data=b"x" * 70 + b"\n" + PASSWORD_MD5.encode() + b"\r\n")
@example(data=b"zz\n" + b"y" * 80)
def test_hashes_file_reads_as_whole_up_to_its_first_long_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "hashes")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            read = _read_hashes(path)
        except ValueError as exc:
            read = str(exc)
    # a line longer than the cap, its newline counted, ends the read as a
    # bad line would, whatever follows it
    pos = 0
    for line in data.split(b"\n"):
        end = min(pos + len(line) + 1, len(data))
        if end - pos > _MAX_HASHES_LINE:
            data = data[:pos] + b"x"
            break
        pos = end
    assert read == _whole_hashes_file(data)


def _assert_one_error_line(stderr):
    # under 300 bytes in any stderr encoding: a non-ASCII character takes at
    # most as many bytes as its backslash escape
    assert len(stderr.encode("ascii", "backslashreplace")) < 300
    assert stderr.startswith("error: ") and stderr.endswith("\n") and stderr.count("\n") == 1


# each integer flag's bounds and the values just past them, 64-bit and
# 400-digit values, then values that are not an optional "-" and ASCII
# digits, among them ones that are long or hold control, non-ASCII and
# astral characters, ones that int() reads (spaces, "_", "+", non-ASCII
# digits) and a digit run past int()'s length limit
INT_BOUNDS = [0, 1, 2, 16, 17, 2**24, 2**24 + 1, 2**64 - 1, 2**64]
INT_BOUNDS += [-1, -(2**64), 10**399, -(10**399)]
NOT_INTS = ["", "abc", "1.5", "0x10", "1e3", "-x", "1\n2", "\x00", "\xe9", "\U0001f600" * 30]
NOT_INTS += [" 1_024 ", "\u0667", "+44", "\u0661\u0660_\u0662\u0664", "9" * 5000]
INT_VALUES = st.sampled_from([str(b) for b in INT_BOUNDS] + NOT_INTS)
# an accepted --shots value builds the decision table in time linear in it,
# about 0.5 s at the 2^24 cap, so accepted values stay at or below 4096
SHOTS_VALUES = st.sampled_from([str(b) for b in INT_BOUNDS if b != 2**24] + ["4096"] + NOT_INTS)
# <name> stands for a file the test makes; "9" * 400 is a name too long to open
PATHS = st.sampled_from(["<missing>", "<dir>", "", "9" * 400])
SEARCH_FLAGS = [
    ("--shots", SHOTS_VALUES),
    ("--rng-seed", INT_VALUES),
    ("--classical-threshold", INT_VALUES),
    ("--no-quantum", None),
]
INT_FLAGS = {"--perm-seed", "--shots", "--rng-seed", "--classical-threshold"}
# each command's arguments: a flag and its values (None for a flag that takes
# none), or a positional and its values
CLI_ARGUMENTS = {
    "generate": [
        ("--wordlist", st.one_of(st.just("<wordlist>"), PATHS)),
        ("--out", st.one_of(st.just("<out>"), PATHS)),
        ("--perm-seed", INT_VALUES),
    ],
    "crack": [
        ("--table", st.one_of(st.just("<table>"), PATHS)),
        *SEARCH_FLAGS,
        ("--report", None),
        ("", st.sampled_from([PASSWORD_MD5, md5_hex("not in the table"), "abc", "", "f" * 400])),
    ],
    "compare": [
        ("--table", st.one_of(st.just("<table>"), PATHS)),
        ("--hashes", st.one_of(st.just("<hashes>"), PATHS)),
        *SEARCH_FLAGS,
    ],
}
# drawn once far more often than left out or given twice
REQUIRED_ARGUMENTS = {"--wordlist", "--out", "--table", "--hashes", ""}
UNKNOWN_ARGUMENTS = st.sampled_from(
    [["--frobnicate"], ["-x", "1"], ["--r", "5"], ["--no-quantum=1"], ["--"], ["a\nb"], ["-h1"]]
)


@st.composite
def cli_argvs(draw):
    """A command and its arguments in any order, each left out, given once or
    given twice, and sometimes an argument no command takes."""
    command = draw(st.sampled_from(sorted(CLI_ARGUMENTS)))
    pieces = draw(st.lists(UNKNOWN_ARGUMENTS, max_size=1))
    for name, values in CLI_ARGUMENTS[command]:
        counts = [1, 0, 2] if name in REQUIRED_ARGUMENTS else [0, 0, 1, 2]
        for _ in range(draw(st.sampled_from(counts))):
            value = [] if values is None else [draw(values)]
            pieces.append([name, *value] if name else value)
    return [command, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory, words100, specs, perm44):
    root = tmp_path_factory.mktemp("flags")
    paths = {name: root / name for name in ("wordlist", "table", "hashes", "out", "missing")}
    paths["wordlist"].write_text("\n".join(words100[:20]) + "\n", encoding="ascii")
    save_table(generate_table(words100[:20], specs, perm44), paths["table"])
    paths["hashes"].write_text(f"{PASSWORD_MD5}\n{md5_hex('not in the table')}\n")
    paths["dir"] = root
    return {f"<{name}>": str(path) for name, path in paths.items()}


@settings(deadline=None)
@given(cli_argvs())
@example(["crack", "--table", "<table>", "--report", md5_hex("not in the table")])
@example(["crack", "--table", "<table>", "--shots", "9" * 400, PASSWORD_MD5])
# int() reads these two values, as 1024 and 7; a flag refuses them
@example(
    ["crack", "--table", "<table>", "--shots", " 1_024 ", "--rng-seed", "\u0667", PASSWORD_MD5]
)
@example(["generate", "--wordlist", "<wordlist>", "--out", "<out>", "--perm-seed", "-" + "9" * 400])
def test_cli_flags_exit_0_1_or_2_with_one_short_error_line(cli_paths, argv):
    argv = [cli_paths.get(token, token) for token in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            raise AssertionError(f"SystemExit({exc.code}) escaped main") from None
    assert code in (0, 1, 2)
    if any(flag in INT_FLAGS and value in NOT_INTS for flag, value in zip(argv, argv[1:])):
        assert code == 2
    if code == 2:
        _assert_one_error_line(err.getvalue())


@given(st.lists(BASE62_ENDS, min_size=1, max_size=40))
def test_index_hashes_are_pearson16(perm44, ends):
    index = build_buckets(RainbowTable([f"w{i}" for i in range(len(ends))], ends, 44))
    hashes = [pearson16(end, perm44) for end in ends]
    assert [hashes[row] for row in index.rows] == sorted(hashes)
    assert index.ends == "".join(ends[row] + "\n" for row in index.rows)
    sizes = Counter(h // BUCKET_WIDTH for h in set(hashes))
    assert [mask.bit_count() for mask in index.masks] == [sizes[key] for key in range(4096)]


def _buckets_from_hashes(hashes):
    """Each bucket key of the sorted `hashes` mapped to its distinct residues,
    ascending: index.buckets as it was derived from the end-hash index."""
    buckets = {}
    for h in dict.fromkeys(hashes):
        buckets.setdefault(h // BUCKET_WIDTH, []).append(h % BUCKET_WIDTH)
    return buckets


@given(
    st.lists(BASE62_ENDS, min_size=1, max_size=40),
    st.lists(st.integers(0, 255), max_size=40),
)
def test_masks_mark_exactly_the_end_hashes(perm44, reachable_hashes, end_for_hash, ends, near):
    # `near` adds ends among the 256 lowest hashes that seed 44 reaches, so
    # that masks with many bits set are drawn too
    ends = ends + [end_for_hash[reachable_hashes[i]] for i in near]
    table = RainbowTable([f"w{i}" for i in range(len(ends))], ends, 44)
    index = build_buckets(table)
    masks = [0] * 4096
    for end in ends:
        h = pearson16(end, perm44)
        masks[h // BUCKET_WIDTH] |= 1 << h % BUCKET_WIDTH
    assert index.masks.typecode == "H" and index.masks.tolist() == masks
    expected = _buckets_from_hashes(sorted_end_hashes(table, perm44))
    assert list(index.buckets.items()) == list(expected.items())


@given(st.data(), st.lists(END_HASHES, max_size=5))
def test_index_lookup_matches_scan(end_for_hash, reachable_hashes, data, probes):
    reachable = reachable_hashes
    edges = st.sampled_from([reachable[0], reachable[1], reachable[-2], reachable[-1]])
    hashes = data.draw(
        st.lists(
            st.one_of(st.integers(0, len(reachable) - 1).map(reachable.__getitem__), edges),
            min_size=1,
            max_size=60,
        )
    )
    starts = [f"w{i}" for i in range(len(hashes))]
    index = build_buckets(RainbowTable(starts, [end_for_hash[h] for h in hashes], 44))
    # each hash has one end here, so the rows ending in it are those of its hash
    for h in (set(hashes) | set(probes)) & end_for_hash.keys():
        assert index.rows_for(h, end_for_hash[h]) == [i for i, v in enumerate(hashes) if v == h]


ASCII = "".join(map(chr, range(128)))
# ASCII texts that are no chain end: 2 or 4 characters, or 3 with one
# character outside base62 (newline included)
NON_ENDS = st.one_of(
    st.text(ASCII, min_size=2, max_size=2),
    st.text(ASCII, min_size=4, max_size=4),
    st.builds(
        lambda text, c, at: text[:at] + c + text[at:],
        st.text(ASCII, min_size=2, max_size=2),
        st.sampled_from([c for c in ASCII if c not in BASE62_ALPHABET]),
        st.integers(0, 2),
    ),
)


@given(st.data())
def test_rows_for_finds_the_rows_ending_in_the_text(
    perm44, end_for_hash, twin_ends, suffix_twins, data
):
    edges = [end_for_hash[h] for h in (*range(16), *range(65520, 65536)) if h in end_for_hash]
    shifted = [end for end, _ in suffix_twins]
    distinct = data.draw(
        st.lists(
            st.one_of(BASE62_ENDS, st.sampled_from(edges), st.sampled_from(shifted)),
            min_size=1,
            max_size=20,
        )
    )
    # different ends sharing one hash: the first of each pair is a row, the
    # second a row or only a query
    # (drawn by index: a sampled_from over all 57k pairs is slow to build)
    pair = st.integers(0, len(twin_ends) - 1).map(twin_ends.__getitem__)
    twins = data.draw(st.lists(st.tuples(pair, st.booleans()), max_size=4))
    distinct += [a for (a, _), _ in twins] + [b for (_, b), kept in twins if kept]
    repeats = data.draw(st.lists(st.sampled_from(distinct), max_size=20))
    ends = data.draw(st.permutations(distinct + repeats))
    table = RainbowTable([f"w{i}" for i in range(len(ends))], ends, 44)
    index = build_buckets(table)

    sizes = Counter(pearson16(end, perm44) // BUCKET_WIDTH for end in ends)
    offsets = index.offsets
    assert offsets[0] == 0 and offsets[4096] == len(ends)
    assert [offsets[k + 1] - offsets[k] for k in range(4096)] == [sizes[k] for k in range(4096)]

    queries = set(ends) | {b for (_, b), _ in twins} | set(data.draw(st.lists(NON_ENDS)))
    # a stored end's prefix, suffix, extension and shifted copy are no ends
    queries |= {q for end in ends for q in (end[:2], end[1:], end + "0", end[1:] + "\n")}
    for text in queries:
        assert index.rows_for(pearson16(text, perm44), text) == table.rows_ending(text)


def _reference_classical_scan(hash_hex, table, specs):
    """The classical scan as a pure-Python `list.index` loop over the ends column."""
    query = normalize_digest(hash_hex)
    raw = bytes.fromhex(query)
    n = len(specs)
    ends = table.ends
    scanned = 0
    for i in range(1, n + 1):
        text = walk_chain(raw, specs[n - i:])
        row = -1
        while True:
            try:
                row = ends.index(text, row + 1)
            except ValueError:
                scanned += len(ends)
                break
            candidate, candidate_hash = rebuild_chain(table.starts[row], specs[: n - i])
            if candidate_hash == query:
                return candidate, scanned + row + 1
    return None, scanned


@settings(deadline=None)
@given(
    st.lists(WORDS, min_size=1, max_size=30),
    # (insert position, chain whose end the filler repeats)
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 40)), max_size=20),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3)), min_size=1, max_size=6),
    st.lists(st.binary(min_size=1, max_size=12), max_size=3),
)
def test_classical_scan_matches_the_list_index_reference(
    perm44, specs, words, fills, hits, misses
):
    table = generate_table(words, specs, perm44)
    starts, ends = list(table.starts), list(table.ends)
    # a filler shares a real chain's end but rebuilds to another hash, so it is
    # a false alarm that must not end the pass, before or after the real row
    for i, (pos, source) in enumerate(fills):
        pos %= len(starts) + 1
        starts.insert(pos, f"fill{i}")
        ends.insert(pos, table.ends[source % len(words)])
    table = RainbowTable(starts, ends, table.perm_seed)
    queries = [rebuild_chain(words[row % len(words)], specs[:depth])[1] for row, depth in hits]
    queries += [md5_hex(b"miss:" + data) for data in misses]
    for query in queries:
        expected = _reference_classical_scan(query, table, specs)
        assert crack_classical_scan(query, table, specs) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(WORDS, min_size=1, max_size=30),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3)), min_size=1, max_size=6),
    st.lists(st.binary(min_size=1, max_size=12), max_size=3),
    st.integers(2, BUCKET_WIDTH),
    # shot counts small enough for the vote to reject present residues at
    # some seeds
    st.integers(1, 16),
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, BUCKET_WIDTH), min_size=1, max_size=4),
    st.integers(0, 1),
)
def test_crack_agrees_with_classical(
    perm44, end_for_hash, specs, words, hits, misses, threshold, shots, seed, fills, lost
):
    try:
        cfg = SearchConfig(shots=shots, classical_threshold=threshold, rng_seed=seed)
    except ValueError:
        # refused: the vote would reject a present residue above the threshold
        reject()
    table = generate_table(words, specs, perm44)
    # extra rows, whose starts rebuild to no query, put residues 0..fill-1 in
    # each chain's bucket, so probes meet buckets on both sides of the threshold
    keys = sorted({h // BUCKET_WIDTH for h in sorted_end_hashes(table, perm44)})
    ends = [
        end_for_hash.get(key * BUCKET_WIDTH + r)
        for j, key in enumerate(keys)
        for r in range(fills[j % len(fills)])
    ]
    ends = [end for end in ends if end]
    fillers = [f"fill{i}" for i in range(len(ends))]
    table = RainbowTable(list(table.starts) + fillers, list(table.ends) + ends, table.perm_seed)
    index = build_buckets(table)
    # two unsound pairs, so the paths stop at different suffixes or fetch
    # different rows: an index that lost the masks of every other bucket key,
    # and a table whose stored ends moved up a row, probed with the index of
    # the true ends, whose rows verify though the scan does not fetch them
    masks = array("H", (mask * (k % 2 == lost) for k, mask in enumerate(index.masks)))
    lossy = dataclasses.replace(index, masks=masks)
    ends = list(table.ends)
    shifted = RainbowTable(list(table.starts), ends[1:] + ends[:1], table.perm_seed)
    queries = [rebuild_chain(words[row % len(words)], specs[:depth])[1] for row, depth in hits]
    queries += [md5_hex(b"miss:" + data) for data in misses]
    for query in queries:
        report = crack(query, table, index, perm44, specs, cfg)
        assert report.result == crack_classical(query, table, specs)
        if report.result is not None:
            assert md5_hex(report.result) == query
        # each suffix tried takes exactly one path: miss, classical or Grover
        paths = report.bucket_misses + report.classical_fallbacks + report.grover_invocations
        assert paths == report.chains_examined
        if cfg.classical_threshold == BUCKET_WIDTH:
            assert report.grover_invocations == 0
        # with both paths on, the one loop answers as the separate calls do
        for probed, bucket_index in ((table, index), (table, lossy), (shifted, index)):
            separate = (
                crack(query, probed, bucket_index, perm44, specs, cfg),
                *crack_classical_scan(query, probed, specs),
            )
            assert _probe(query, probed, specs, bucket_index, cfg, scan=True) == separate


@settings(deadline=None)
@given(
    st.one_of(st.integers(1, 16), st.just(1024)),
    st.integers(0, 2**64 - 1),
    st.integers(2, BUCKET_WIDTH),
)
# at seed 7, 2 shots reject 54 present keys and 3 shots only (7, 1)
@example(shots=2, seed=7, threshold=2)
@example(shots=3, seed=7, threshold=6)
def test_search_config_accepts_exactly_when_the_vote_accepts_every_grover_key(
    shots, seed, threshold
):
    # crack decides every probe by membership, which matches the vote only
    # because a config whose vote rejects a present residue above its
    # threshold is refused
    rejected = [
        key
        for key, accept in grover_decisions(shots, seed).items()
        if key[0] > threshold and not accept
    ]
    try:
        SearchConfig(shots=shots, classical_threshold=threshold, rng_seed=seed)
    except ValueError as exc:
        m, rank = min(rejected)
        assert f"rank {rank} in an m = {m} bucket" in str(exc)
    else:
        assert not rejected


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 15), min_size=3, max_size=16, unique=True).map(sorted),
    st.integers(0, 15),
    st.integers(0, 2**64 - 1),
    # shot counts on both sides of each shot-stream chunk boundary
    st.one_of(
        st.integers(1, 3 * _SHOT_CHUNK + 1),
        st.sampled_from([1, 2, _SHOT_CHUNK, _SHOT_CHUNK + 1, 3 * _SHOT_CHUNK + 1]),
    ),
)
def test_grover_decision_is_the_relabelled_canonical_search(bucket, target, seed, shots):
    # the table is exact only if a search over any m residues measures like the
    # one over range(m): the summation order inside np.vdot must not depend on
    # where the zero amplitudes sit
    outcome = grover_search(bucket, target, shots=shots, rng_seed=seed)
    if target not in bucket:
        assert outcome.counts.get(target, 0) == 0
        assert not outcome.decision
        return
    m, rank = len(bucket), bucket.index(target)
    canonical = grover_search(range(m), rank, shots=shots, rng_seed=seed)
    assert outcome.counts == {bucket[j]: n for j, n in canonical.counts.items()}
    assert outcome.decision == grover_decisions(shots, seed)[m, rank]


def _sequential_permutation(seed):
    table = list(range(PERMUTATION_SIZE))
    rng = SplitMix64(seed)
    for i in range(PERMUTATION_SIZE - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        table[i], table[j] = table[j], table[i]
    return tuple(table)


@pytest.mark.parametrize("seed", [0, 44, 2**64 - 1, 2**64 + 5])
def test_permutation_matches_sequential_shuffle(seed):
    assert tuple(build_permutation(seed).table) == _sequential_permutation(seed)


def _swap_loop(draws):
    table = list(range(len(draws)))
    for i in range(len(draws) - 1, 0, -1):
        table[i], table[draws[i]] = table[draws[i]], table[i]
    return table


_SHUFFLE_SIZES = st.integers(1, 64)


@given(
    st.one_of(
        _SHUFFLE_SIZES.flatmap(lambda n: st.tuples(*(st.integers(0, i) for i in range(n)))),
        _SHUFFLE_SIZES.map(lambda n: [0] * n),
        _SHUFFLE_SIZES.map(lambda n: list(range(n))),  # every step swaps with itself
        _SHUFFLE_SIZES.map(lambda n: [0, *range(n - 1)]),  # the longest chains of later swaps
    )
)
def test_fisher_yates_matches_swap_loop(draws):
    assert _fisher_yates(np.array(draws, np.uint16)).tolist() == _swap_loop(draws)


@given(st.integers(0, 2**65), st.integers(0, 300), st.integers(0, 300))
def test_splitmix64_block_offset_and_stream(seed, k, n):
    # measure draws outputs k+1 onward as the block for seed + k*gamma
    rng = SplitMix64(seed)
    stream = [rng.next_u64() for _ in range(k + n)]
    assert splitmix64_block(seed, k + n).tolist() == stream
    assert splitmix64_block(seed + k * GAMMA, n).tolist() == stream[k:]
