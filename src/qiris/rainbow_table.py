"""Rainbow table construction, persistence, and the bucket index.

A table stores one chain per wordlist entry, a starting plaintext and a
final 3-character reduction, as its file's body holds them: the ASCII bytes
of `start<TAB>end` lines, one uint32 offset per line, and the packed end
column, one uint32 per row holding the end's 3 bytes and a newline, which
the bucket index hashes. One parser, `_parse`, makes the offsets and the end
column of every table, whether its body was read from a file (`load_table`),
made by a wordlist walk (`generate_table`) or joined from two lists: a numpy
scan of the body's newlines, then one numpy check of the rows against the
row rule, `_CHUNK` rows at a time, gathering their end codes as it goes. So
every table keeps the row rule: a body that breaks it is refused as its
table is built, its first bad row named by the row check. `generate_table`
walks a wordlist's chains in numpy chunks (`hashing._walk_chains`) and
makes each chunk's rows as bytes, the words' UTF-8 with the walk's end
bytes. The classical baseline finds the rows ending in a text by one O(N)
`str.find` over a string of one character per row.
The bucket index Pearson-hashes all chain ends at once into 16-bit values
whose high 12 bits select a bucket and whose low 4 bits are the residues
searched at crack time. It keeps one 16-bit mask per bucket, bit r of bucket
k's mask set when some end hashes to 16k + r, and the rows grouped by bucket
with their ends beside them, so the rows ending in a given text are found by
one search of that text's bucket.
"""

import errno
import os
import re
import stat
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, repeat

import numpy as np

from .hashing import (
    BASE62_ALPHABET,
    PearsonPermutation,
    _walk_chains,
    build_permutation,
)
from .prng import MASK64

TABLE_VERSION = 1
BUCKET_WIDTH = 16

# A table is joined from lists, walked and checked this many rows at a time.
_CHUNK = 8192

# `_parse` scans a body for its newlines this many bytes at a time.
_SCAN = 1 << 16

_HEADER_RE = re.compile(r"^QIRIS v(\d{1,20}) seed=(\d{1,20}) chain=R1,R2,R3,R4$")

# The largest table file whose body, 4 GiB - 1 bytes from the header's newline
# on, fits the uint32 line offsets after the longest header _HEADER_RE takes.
_MAX_FILE = 0xFFFFFFFF + len(f"QIRIS v{'9' * 20} seed={'9' * 20} chain=R1,R2,R3,R4")

# The ASCII bytes that no row holds: whitespace as str.split sees it, but
# for the tab and the newline that separate fields. A row holds any other
# ASCII byte, and no byte above 0x7F.
_NOT_ROW_ASCII = b"\x0b\x0c\x0d\x1c\x1d\x1e\x1f "

# Each byte's class in an end code, an end's 3 bytes and the newline after
# it: 1 for a base62 byte, 2 for a newline, else 0. An end code keeps the
# row rule when its classes, read as a little-endian uint32, are _END_CODE.
_END_CLASS = bytes(2 if b == 10 else int(chr(b) in BASE62_ALPHABET) for b in range(256))
_END_CODE = 0x02010101

# A base62 byte is one of the 75 values from ord("0") to ord("z"), so an
# end's bytes read in radix 75 give each end its own code point. The points
# run from 273648 ("000") to 695522, above U+FFFF, so a string of them is
# stored 4 bytes a character, which is what lets `str.find` use wmemchr.
_POINT_RADIX = 75


@dataclass(frozen=True, slots=True)
class Chain:
    """Stored endpoints of one hash chain."""

    start: str
    end: str


@dataclass(frozen=True, init=False)
class RainbowTable(Sequence):
    """What a table file holds: its rows, as the file's body holds them, and the seed.

    `body` is the file's ASCII bytes after the header: its newline, then
    each row as a line, `start<TAB>end`. Line r begins at `offsets[r]` (N + 1
    entries, the last at the body's end), so row r's end code, its end's 3
    bytes and the newline, is the 4 bytes before `offsets[r + 1]`, and its
    tab is the byte before them. `end_codes` holds those codes, one
    read-only little-endian uint32 a row. `starts`, `ends` and the table,
    the sequence of its `Chain` rows (`chains`), slice and decode on read.
    Every table keeps the row rule: one built from two lists, or by
    `generate_table`, refuses its first bad row as `table.chains[i]`, i
    being the error's `row`. Tables are equal when their rows and seeds are.
    """

    body: bytes
    offsets: array
    perm_seed: int
    end_codes: np.ndarray = field(compare=False, repr=False)

    def __init__(self, starts, ends, perm_seed: int):
        if len(starts) != len(ends):
            raise ValueError(f"{len(starts)} starts but {len(ends)} ends")
        chunks = range(0, len(starts), _CHUNK)
        parts = (_listed_rows(starts[i:i + _CHUNK], ends[i:i + _CHUNK]) for i in chunks)
        self._hold(parts, perm_seed, len(starts), lambda i: (starts[i], ends[i]))

    def _hold(self, parts, perm_seed: int, n: int, row) -> None:
        """Join `parts`, chunks of rows as bytes, into the body and hold it
        as the `n` rows `row(i)` gives, (start, end) pairs, if its lines are
        those rows and keep the row rule. Else check the row `_parse` refused
        (every row, where a newline or a lone surrogate in a field leaves no
        line per row); the first bad one raises, its index as the error's `row`."""
        try:
            body = b"".join([b"\n", *parts])
        except UnicodeEncodeError:  # a lone surrogate, which no row holds
            end_codes, fault = (), 0
        else:
            offsets, end_codes, fault = _parse(body)
        placed = len(end_codes) == n  # no field holds a newline: line i is row i
        if placed and fault < 0:
            vars(self).update(body=body, offsets=offsets, perm_seed=perm_seed, end_codes=end_codes)
            return
        for i in [fault] if placed else range(n):
            try:
                _check_row(*row(i), f"table.chains[{i}]")
            except ValueError as exc:
                exc.row = i
                raise
        raise AssertionError("table.chains: row check and rule disagree")

    def __len__(self):
        return len(self.offsets) - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[row] for row in range(len(self))[i]]
        return Chain(self.starts[i], self.ends[i])

    def __iter__(self):
        return map(Chain, self.starts, self.ends)

    @property
    def chains(self) -> "RainbowTable":
        return self

    @cached_property
    def starts(self) -> "_Column":
        return _Column(self, False)

    @cached_property
    def ends(self) -> "_Column":
        return _Column(self, True)

    @cached_property
    def end_chars(self) -> str:
        """The end column for the classical scan: one character per row, the
        code point `_end_point` gives that row's end.
        """
        end_bytes = self.end_codes.view(np.uint8).reshape(-1, 4)
        points = end_bytes[:, 0].astype("<u4")
        for column in (1, 2):
            points *= _POINT_RADIX
            points += end_bytes[:, column]
        return str(points, "utf-32-le")

    def rows_ending(self, text: str) -> list:
        """All row ids whose end equals `text`, ascending; one O(N) column scan.

        A `text` that is not 3 base62 characters matches no row.
        """
        if not _is_end(text):
            return []
        chars, point = self.end_chars, _end_point(text)
        rows = []
        row = chars.find(point)
        while row >= 0:
            rows.append(row)
            row = chars.find(point, row + 1)
        return rows


def _end_point(end: str) -> str:
    """The character that stands for the 3-base62 `end` in `table.end_chars`."""
    return chr((ord(end[0]) * _POINT_RADIX + ord(end[1])) * _POINT_RADIX + ord(end[2]))


class _Column(Sequence):
    """A table's starts or, for `ends`, its ends; a slice of it is a list."""

    def __init__(self, table: RainbowTable, ends: bool):
        self._body, self._offsets = table.body, table.offsets
        self._ends, self._rows = ends, len(table)

    def __len__(self):
        return self._rows

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[row] for row in range(self._rows)[i]]
        if i < 0:
            i += self._rows
        if not 0 <= i < self._rows:
            raise IndexError("column index out of range")
        offsets = self._offsets
        stop = offsets[i + 1]  # one past the row's newline
        if self._ends:
            return self._body[stop - 4:stop - 1].decode()
        return self._body[offsets[i]:stop - 5].decode()


def _listed_rows(starts, ends) -> bytes:
    """One chunk of a table's rows from lists: `start<TAB>end` lines in UTF-8,
    so of all characters only a lone surrogate raises UnicodeEncodeError."""
    rows = zip(starts, repeat("\t"), ends, repeat("\n"))
    return "".join(chain.from_iterable(rows)).encode()


def _walked_rows(words, specs) -> bytearray:
    """One chunk of `generate_table`'s rows.

    The rows are made as UTF-8 bytes, each word's own then a tab, its end's
    bytes as the walk gives them and a newline.
    """
    messages = [word.encode() for word in words]
    lengths = np.fromiter(map(len, messages), np.intp, len(messages))
    ends = _walk_chains(messages, lengths, specs)
    width = ends.shape[1]
    # each word, then a tab, `width` bytes that its end's bytes replace, a newline
    rows = bytearray(b"\t%b\n" % bytes(width)).join([*messages, b""])
    # row k's tab follows the words up to its own and k tails of width + 2
    tabs = np.cumsum(lengths) + np.arange(0, len(words) * (width + 2), width + 2)
    np.frombuffer(rows, np.uint8)[tabs[:, None] + np.arange(1, width + 1)] = ends
    return rows


def _parse(body: bytes) -> tuple:
    """The line offsets of `body`, a newline then rows as lines, its end
    column, and the first row that breaks the row rule, -1 if none does.

    A numpy scan finds the newlines 64 KiB at a time, so its masks stay
    small, and `_row_fault` checks the rows `_CHUNK` at a time, gathering
    their end codes. On a fault the end column is not whole.
    """
    chars = np.frombuffer(body, np.uint8)
    # a line begins after each newline
    found = [np.flatnonzero(chars[i:i + _SCAN] == 10).astype(np.uintc) + (i + 1)
             for i in range(0, len(chars), _SCAN)]
    offsets = array("I", [0]) * sum(map(len, found))  # exactly N + 1 entries
    lines = np.concatenate(found, out=np.frombuffer(offsets, np.uintc))
    del found  # freed before the rows are checked
    end_codes = np.empty(len(lines) - 1, "<u4")
    for i in range(0, len(end_codes), _CHUNK):
        part = lines[i:i + _CHUNK + 1]
        lo = int(part[0]) - 1  # the newline before the part's first row
        fault, codes = _row_fault(body[lo:int(part[-1])], np.subtract(part, lo, dtype=np.intp))
        if fault >= 0:
            return offsets, end_codes, bisect_right(offsets, lo + fault) - 1
        end_codes[i:i + len(codes)] = codes
    end_codes.flags.writeable = False
    return offsets, end_codes, -1


def _row_fault(data: bytes, lines: np.ndarray) -> tuple:
    """Where the rows in `data` first break the row rule, or -1 if none does,
    and the end codes (see `_end_column`) of the rows before that: with no
    fault, the part's whole end column.

    `data` is a part of a body: a newline, then rows as lines, line r
    beginning at `lines[r]`, the last ending at `data`'s end. The fault is
    the earliest of: a byte that no row holds; a line too short for a
    start, a tab and an end; the byte before a row's end not a tab; any
    other tab; an end byte not base62. The earliest lies in the first
    line that the per-line row check refuses.
    """
    chars = np.frombuffer(data, np.uint8)
    # the first byte above 0x7F, or the first of an ASCII value no row holds
    fault = len(data) if data.isascii() else int(np.argmax(chars > 0x7F))
    for byte in _NOT_ROW_ASCII:
        found = data.find(byte, 0, fault)
        if found >= 0:
            fault = found
    # each row's tab is 5 bytes before the next line, after a start byte
    tabs = lines[1:] - 5
    short = np.flatnonzero(tabs <= lines[:-1])
    if len(short):
        fault = min(fault, int(lines[short[0]]))
    tabs = tabs[:np.searchsorted(tabs, fault - 4)]  # the rows wholly before the fault
    wrong = np.flatnonzero(chars[tabs] != 9)
    if len(wrong):
        fault, tabs = int(tabs[wrong[0]]), tabs[:wrong[0]]
    # those tabs being in place, a further tab lies in a start or an end
    if np.count_nonzero(chars[:fault] == 9) != len(tabs):
        found = np.flatnonzero(chars[:fault] == 9)
        other = np.flatnonzero(found[:len(tabs)] != tabs)
        fault = int(found[other[0] if len(other) else len(tabs)])
    ends = tabs[:np.searchsorted(tabs, fault)] + 1
    codes = _end_column(data, ends)
    bad = np.flatnonzero(np.frombuffer(codes.tobytes().translate(_END_CLASS), "<u4") != _END_CODE)
    if len(bad):
        fault = int(ends[bad[0]])
    return (fault if fault < len(data) else -1), codes


def _end_column(data: bytes, ends: np.ndarray) -> np.ndarray:
    """The 4 bytes of `data` at each of `ends`, as little-endian uint32: at
    the offset of an end, its 3 bytes and the newline after it."""
    return np.ndarray((max(len(data) - 3, 0),), "<u4", data, strides=(1,))[ends]


@dataclass
class BucketIndex:
    """One residue mask per bucket, and the table's rows grouped by bucket
    with their ends beside them.

    `rows` holds every row id ordered by end hash, rows sharing a hash in
    ascending order. `ends` holds those rows' ends in the same order, each
    as its 3 characters and a newline, so row `rows[i]`'s end is
    `ends[4 * i:4 * i + 3]`. The rows of bucket k, whose end hashes are
    16k to 16k + 15, sit at `offsets[k]:offsets[k + 1]` of both (4097
    entries). `masks` holds one 16-bit mask for each of the 4096 12-bit
    bucket keys: bit r of `masks[k]` is set when some row's end hash is
    16k + r, so a bucket's size m is its mask's bit count, 0 for an empty
    bucket. `perm` is the permutation that hashed the ends, and the one
    `crack` must hash its candidates with.
    """

    rows: array
    ends: str
    offsets: array
    masks: array
    perm: PearsonPermutation

    @property
    def buckets(self) -> dict:
        """Each non-empty bucket key mapped to its residues, ascending."""
        masks = enumerate(self.masks)
        return {k: [r for r in range(BUCKET_WIDTH) if m >> r & 1] for k, m in masks if m}

    def rows_for(self, h: int, end: str) -> list:
        """All row ids whose end is `end`, in ascending order, where `h` is
        `end`'s hash: one search of bucket h // 16's part of `ends`.

        A text that is not 3 base62 characters matches no row.
        """
        # Newlines sit in `ends` only at the positions 3 mod 4, so the key's
        # final newline lets it match only at the start of a row's 4
        # characters, and only when its first 3 are that row's whole end.
        # Past the length check, a text that is no end thus matches nothing.
        if len(end) != 3:
            return []
        key = end + "\n"
        k = h // BUCKET_WIDTH
        ends, stop = self.ends, 4 * self.offsets[k + 1]
        rows = []
        pos = ends.find(key, 4 * self.offsets[k], stop)
        while pos >= 0:
            rows.append(self.rows[pos >> 2])
            pos = ends.find(key, pos + 4, stop)
        return rows


def generate_table(wordlist, specs, perm: PearsonPermutation) -> RainbowTable:
    """Build one chain per word by alternating MD5 and the reduction functions.

    Pure computation: a non-empty list of words is walked, duplicates
    included, in input order, through the non-empty `specs`, in numpy chunks
    of rows whose ends equal walk_chain's, joined as the walk goes. `perm`
    fixes the table's seed; the ends are hashed by build_buckets. The rows
    keep the file format's row rule: the first word that is no plaintext,
    one with no UTF-8 encoding included, or a last spec whose length is not
    3, is refused as `table.chains[i]`.
    """
    starts = list(wordlist)
    if not starts:
        raise ValueError("wordlist is empty")
    if not specs:
        raise ValueError("a chain walk needs at least one reduction")
    chunks = range(0, len(starts), _CHUNK)
    table = RainbowTable.__new__(RainbowTable)
    # every end the walk makes is base62 of the last spec's length, so a
    # stand-in of that length keeps the row rule exactly when they do
    table._hold((_walked_rows(starts[i:i + _CHUNK], specs) for i in chunks), perm.seed,
                len(starts), lambda i: (starts[i], "0" * specs[-1].length))
    return table


def _clip(value, limit: int = 60) -> str:
    """`value` as an error message echoes it: whole if it is printable and at
    most `limit` characters backslash-escaped, else its first `limit` escaped
    characters and "..." if any were cut."""
    text = str(value)
    escaped = text.encode("unicode_escape").decode("ascii")
    if text.isprintable() and len(escaped) <= limit:
        return text
    return escaped[:limit] + ("..." if len(escaped) > limit else "")


def _check_plaintext(text: str, where: str) -> None:
    """Reject a chain start plaintext unless it is non-empty ASCII without whitespace.

    `_row_fault` holds every table's starts to this rule; this form names
    the one bad row or line of a refused body, which `where` locates.
    """
    if text.isascii() and text.split() == [text]:
        return
    if not text:
        raise ValueError(f"{where}: empty start plaintext")
    if not text.isascii():
        raise ValueError(f"{where}: start plaintext is not ASCII")
    raise ValueError(f"{where}: start plaintext contains whitespace")


def _is_end(text: str) -> bool:
    """Whether `text` is a chain end: 3 base62 characters."""
    # on ASCII text, isalnum() accepts exactly the base62 alphabet
    return len(text) == 3 and text.isascii() and text.isalnum()


def _check_row(start: str, end: str, where: str) -> None:
    """The file format's row rule: a plaintext start and a 3-base62 chain end."""
    _check_plaintext(start, where)
    if not _is_end(end):
        raise ValueError(f"{where}: end must be 3 base62 characters")


def _check_line(line: str, lineno: int) -> None:
    """The row rule for one table line: a start, one tab and an end."""
    parts = line.split("\t")
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: expected exactly one tab separator")
    _check_row(*parts, f"line {lineno}")


def _read_bytes(path, label: str) -> bytes:
    """A text file's bytes, refusing CRLF line endings by the first such line.

    The error is prefixed by `label` (e.g. "line" or "wordlist line"). A
    reader that decodes the bytes as latin-1, which maps every byte to one
    character, makes no byte a decode error: a non-ASCII byte reaches the
    checks of its line and is reported with the line's number.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # every row ends in the needle's "\n", so the two-byte search is slow;
    # a one-byte scan rules out most files first
    crlf = data.find(b"\r\n") if b"\r" in data else -1
    if crlf >= 0:
        lineno = data.count(b"\n", 0, crlf) + 1
        raise ValueError(f"{label} {lineno}: file has CRLF line endings; use LF")
    return data


@lru_cache(maxsize=1)
def _permutation(seed: int) -> PearsonPermutation:
    """The permutation for `seed`, built once while `seed` is the last seed asked for."""
    return build_permutation(seed)


def build_buckets(table: RainbowTable) -> BucketIndex:
    """Hash every chain end and index the rows by bucket; the one place ends are hashed.

    The ends are hashed with the permutation for the table's seed, three
    gathers over all rows at once through its uint16 table widened to intp
    (a hash plus an end byte would wrap in uint16) and by its first 128
    entries, so no step takes a modulo, bit-identical to pearson16.
    Each end hash h sets bit h % 16 of the mask under bucket key h // 16.
    The rows and their ends, ordered by end hash, cost 8 bytes per row;
    the bucket offsets cost 16 KB and the masks 8 KB. The permutation
    comes from a one-entry memo, so indexes built one after another over
    one seed share one permutation object and one build.
    """
    perm = _permutation(table.perm_seed)
    permutation = np.frombuffer(perm.table, np.uint16)
    # a hash (at most 65534) plus an ASCII byte is below 65535 + 128, where
    # the wrap that pearson16 takes modulo 65535 is the table's first 128
    lookup = np.concatenate([permutation, permutation[:128]]).astype(np.intp)
    codes = table.end_codes
    first, second, third = codes.view(np.uint8).reshape(-1, 4)[:, :3].T
    h = lookup[first + 3]  # pearson16 starts at len(text), 3
    h = lookup[h + second]
    h = lookup[h + third]
    hashes = h.astype(np.uint16)  # sorts an order of magnitude faster than intp
    order = np.argsort(hashes, kind="stable")
    seen = np.zeros(1 << 16, bool)
    seen[hashes] = True
    # little-endian bits: seen[16k + r] lands in bit r of the k-th 16-bit word
    masks = np.packbits(seen, bitorder="little").view("<u2").astype(np.uint16)
    offsets = np.zeros(len(masks) + 1, np.uintc)
    offsets[1:] = np.bincount(hashes // BUCKET_WIDTH, minlength=len(masks)).cumsum()
    return BucketIndex(
        rows=array("i", order.astype(np.intc).tobytes()),
        ends=str(codes[order], "ascii"),
        offsets=array("I", offsets.tobytes()),
        masks=array("H", masks.tobytes()),
        perm=perm,
    )


def save_table(table: RainbowTable, path) -> None:
    """Write the table as ASCII text: a header line, then its body's `start<TAB>end` rows.

    Refuses what load_table would: no chains, or a seed outside 0..2^64-1;
    the rows kept the row rule when the table was built.
    The body goes in one write to a temporary file beside the regular
    file, or no file, that `path` names, which it replaces once whole. So a
    save that returns is one load_table reads back as an equal table, and
    any other leaves `path` as it was.
    """
    if not len(table):
        raise ValueError("table has no chains")
    if not 0 <= table.perm_seed <= MASK64:
        raise ValueError(f"permutation seed {table.perm_seed} is outside 0..{MASK64}")
    real = os.path.realpath(path)
    tmp = f"{real}.{os.urandom(4).hex()}.tmp"
    try:
        if os.path.exists(real) and not os.path.isfile(real):  # e.g. /dev/null, a FIFO
            raise OSError(errno.EEXIST, "Not a regular file")
        fh = open(tmp, "xb")
    except OSError as exc:
        exc.filename = os.fspath(path)  # name the path asked for, not the temporary file
        raise
    try:
        with fh:
            # the body begins with the header's newline
            fh.write(b"QIRIS v%d seed=%d chain=R1,R2,R3,R4" % (TABLE_VERSION, table.perm_seed))
            fh.write(table.body)
        os.replace(tmp, real)
    except BaseException:
        os.remove(tmp)
        raise


def load_table(path) -> RainbowTable:
    """Read a table file written by save_table.

    A path that is no regular file is refused unopened, a file larger than
    `_MAX_FILE` unread. The file is read once, as bytes; its body, the bytes
    after the header, is kept whole. The permutation seed comes from the
    header; build_buckets derives the end hashes from it. `_parse` finds the
    line offsets, checks the rows and gathers the stored end column, as for
    every table. Malformed headers, unsupported versions and malformed rows
    are refused with the number of the offending line: for rows, the line
    the first fault lies in, whose error _check_line makes.
    """
    info = os.stat(path)
    if not stat.S_ISREG(info.st_mode):  # e.g. /dev/zero, a FIFO, a directory
        raise OSError(errno.EINVAL, "Not a regular file", os.fspath(path))
    if info.st_size > _MAX_FILE:
        raise ValueError("table file is 4 GiB or more")
    data = _read_bytes(path, "line")
    if not data.endswith(b"\n"):
        data += b"\n"
    newline = data.index(b"\n")
    header = data[:newline].decode("latin-1")
    if not header:
        raise ValueError("line 1: missing table header")
    match = _HEADER_RE.match(header)
    if match is None:
        raise ValueError(f"line 1: malformed table header: {_clip(header)}")
    version = int(match.group(1))
    if version != TABLE_VERSION:
        raise ValueError(f"line 1: unsupported table version v{version}")
    seed = int(match.group(2))
    if seed > MASK64:
        raise ValueError(f"line 1: permutation seed {seed} does not fit in 64 bits")

    body = data[newline:]
    del data  # the file's bytes, held only until the body is sliced out
    if len(body) > 0xFFFFFFFF:
        raise ValueError("table file is 4 GiB or more")
    offsets, end_codes, row = _parse(body)
    if row >= 0:  # row r is line r + 2, after the header
        _check_line(body[offsets[row]:offsets[row + 1] - 1].decode("latin-1"), row + 2)
        raise AssertionError(f"line {row + 2}: row check and rule disagree")
    if not len(end_codes):
        raise ValueError("table has no chains")
    table = RainbowTable.__new__(RainbowTable)
    vars(table).update(body=body, offsets=offsets, perm_seed=seed, end_codes=end_codes)
    return table
