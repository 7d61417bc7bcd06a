"""Rainbow table construction, persistence, and the bucket index.

A table stores one chain per wordlist entry, a starting plaintext and a
final 3-character reduction, as its file's body holds them: one string of
`start<TAB>end` lines and uint32 field offsets, read through views that
slice fields out. Field offsets come from the fields' lengths wherever
rows are joined. `generate_table` walks a wordlist's chains in numpy chunks
(`hashing._walk_chains`) and makes each chunk's rows as bytes, the words'
UTF-8 with the walk's end bytes, decoded once. A table's packed end column,
one uint32 per row holding the end's 3 bytes and a newline, is what the
bucket index hashes. The classical baseline finds the rows ending in a text
by one O(N) `str.find` over a string of one character per row. One numpy
check of a body's bytes, `_CHUNK` rows at a time, holds it to the row rule,
once per table: in `load_table`, from the field offsets that its scan of
the bytes finds, or, for a table built in memory, in `save_table` or the
end column, from the offsets the table holds. On a fault, the per-line row
check makes the error for the line the fault lies in, or the per-row check
for a table's first bad row. The bucket index
Pearson-hashes all chain ends at once into 16-bit values whose high 12 bits
select a bucket and whose low 4 bits are the residues searched at crack
time. It keeps one 16-bit mask per bucket, bit r of bucket k's mask set when
some end hashes to 16k + r, and the rows grouped by bucket with their ends
beside them, so the rows ending in a given text are found by one search of
that text's bucket.
"""

import errno
import os
import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
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

# A table is joined from lists, walked, and saved, this many rows at a time.
_CHUNK = 8192

# `load_table` scans a body for its field offsets this many bytes at a time.
_SCAN = 1 << 16

_HEADER_RE = re.compile(r"^QIRIS v(\d{1,20}) seed=(\d{1,20}) chain=R1,R2,R3,R4$")

# The bytes a body's rows may hold: a tab, a newline, or a start's bytes,
# ASCII but not whitespace as str.split sees it.
_ROW_BYTES = bytes([9, 10, *range(0x00, 0x09), *range(0x0E, 0x1C), *range(0x21, 0x80)])

# Each byte's class in an end code, an end's 3 bytes and the newline after
# it: 1 for a base62 byte, 2 for a newline, else 0. An end code keeps the
# row rule when its classes, read as a little-endian uint32, are _END_CODE.
_END_CLASS = bytes(2 if b == 10 else int(chr(b) in BASE62_ALPHABET) for b in range(256))
_END_CODE = 0x02010101

# The separators of a part of `_CHUNK` rows: a newline before each start
# and at the part's end, a tab before each end.
_SEPARATORS = np.resize(np.array([10, 9], np.uint8), 2 * _CHUNK + 1)

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

    `body` is the file's text after the header: its newline, then each row as
    a line, `start<TAB>end`. Field k begins at `offsets[k]` (2N + 1 entries)
    and ends one character before the next: row r's start is field 2r, its
    end field 2r + 1. `starts`, `ends` and the table, the sequence of its
    `Chain` rows (`chains`), slice fields on read. Tables are equal when their
    rows and seeds are; one built from two lists joins them once, placing the
    fields by their lengths, and accepts any strings. Frozen, its row check
    and end column, made once, stay true.
    """

    body: str
    offsets: array
    perm_seed: int

    def __init__(self, starts, ends, perm_seed: int):
        if len(starts) != len(ends):
            raise ValueError(f"{len(starts)} starts but {len(ends)} ends")
        chunks = range(0, len(starts), _CHUNK)
        self._join((_listed_rows(starts[i:i + _CHUNK], ends[i:i + _CHUNK]) for i in chunks),
                   perm_seed)

    def _join(self, parts, perm_seed: int) -> None:
        """Set body and offsets from `parts`, chunks of rows taken one by one to
        bound memory: each its rows' text, `start<TAB>end` lines, and the
        lengths of their starts and of their ends, which place the fields."""
        texts, offsets = ["\n"], array("I", [1])
        for text, start_lengths, end_lengths in parts:
            sizes = np.empty((len(start_lengths), 2), np.intp)
            sizes[:, 0] = start_lengths
            sizes[:, 1] = end_lengths
            sizes += 1  # the tab or newline after each field
            texts.append(text)
            offsets.frombytes((sizes.cumsum() + offsets[-1]).astype(np.uintc).tobytes())
        vars(self).update(body="".join(texts), offsets=offsets, perm_seed=perm_seed)

    def __len__(self):
        return len(self.offsets) // 2

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
        return _Column(self, 0)

    @cached_property
    def ends(self) -> "_Column":
        return _Column(self, 1)

    @cached_property
    def _checked(self) -> bool:
        """True when every row keeps the row rule, checked by `_row_fault` a part
        of `_CHUNK` rows at a time. A part's only tabs and newlines must be the
        separators its offsets place, which a field holding one adds to, and a
        non-ASCII part fails its encode. On any fault the first row that breaks
        the rule is named as `table.chains[i]`."""
        body = self.body
        try:
            for lo, hi, fields in _row_parts(np.frombuffer(self.offsets, np.uintc)):
                data = body[lo:hi].encode("ascii")
                separators = np.count_nonzero(np.frombuffer(data, np.uint8) - 9 <= 1)  # \t, \n
                if separators != len(fields) or _row_fault(data, fields) >= 0:
                    break
            else:
                return True
        except UnicodeEncodeError:
            pass
        for pos, row in enumerate(self):
            _check_row(row.start, row.end, f"table.chains[{pos}]")
        raise AssertionError("table.chains: row check and rule disagree")

    @cached_property
    def end_codes(self) -> np.ndarray:
        """The packed end column: each row's 3 end bytes and a newline as a read-only
        little-endian uint32, once the rows keep the row rule (`_checked`)."""
        self._checked  # noqa: B018  (raises at the first row that breaks the rule)
        return _end_column(self.body.encode("ascii"), np.frombuffer(self.offsets, np.uintc)[1::2])

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
        chars = self.end_chars  # a bad row is refused whatever `text` is
        if not _is_end(text):
            return []
        point = _end_point(text)
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
    """A table's starts (field 0) or ends (1); a slice of it is a list."""

    def __init__(self, table: RainbowTable, field: int):
        self._body, self._offsets = table.body, table.offsets
        self._field, self._rows = field, len(table)

    def __len__(self):
        return self._rows

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[row] for row in range(self._rows)[i]]
        if i < 0:
            i += self._rows
        if not 0 <= i < self._rows:
            raise IndexError("column index out of range")
        k = 2 * i + self._field
        offsets = self._offsets
        return self._body[offsets[k]:offsets[k + 1] - 1]


def _listed_rows(starts, ends):
    """One chunk of a table's rows, from lists, as `RainbowTable._join` takes it."""
    rows = zip(starts, repeat("\t"), ends, repeat("\n"))
    return "".join(chain.from_iterable(rows)), _lengths(starts), _lengths(ends)


def _walked_rows(words, specs):
    """One chunk of `generate_table`'s rows, as `RainbowTable._join` takes it.

    The rows are made as UTF-8 bytes, each word's own then a tab, its end's
    bytes as the walk gives them and a newline, and decoded once.
    """
    messages = [word.encode() for word in words]
    lengths = _lengths(messages)
    ends = _walk_chains(messages, lengths, specs)
    width = ends.shape[1]
    # each word, then a tab, `width` bytes that its end's bytes replace, a newline
    rows = bytearray(b"\t%b\n" % bytes(width)).join([*messages, b""])
    # row k's tab follows the words up to its own and k tails of width + 2
    tabs = np.cumsum(lengths) + np.arange(0, len(words) * (width + 2), width + 2)
    np.frombuffer(rows, np.uint8)[tabs[:, None] + np.arange(1, width + 1)] = ends
    return rows.decode(), _lengths(words), width


def _lengths(items) -> np.ndarray:
    """The length of each of `items`, as an intp array."""
    return np.fromiter(map(len, items), np.intp, len(items))


def _field_offsets(data: bytes) -> array:
    """Where each field of a body's rows begins, one past each tab and newline,
    found 64 KiB at a time so the scan's arrays stay small."""
    chars = np.frombuffer(data, np.uint8)
    offsets = array("I")
    for start in range(0, len(chars), _SCAN):
        # a tab or a newline, 9 or 10, is the one byte that this leaves at most 1
        found = np.flatnonzero(chars[start:start + _SCAN] - 9 <= 1)
        offsets.frombytes((found + (start + 1)).astype(np.uintc).tobytes())
    return offsets


def _row_parts(offsets: np.ndarray):
    """A body's rows as the row check takes them, `_CHUNK` rows at a time:
    each part as `(lo, hi, fields)`, the body's `lo:hi` from the newline
    before its first row to the end of its last, and its fields' offsets
    into that text. `offsets` are the body's, their last at its end."""
    for i in range(0, len(offsets) - 1, 2 * _CHUNK):
        fields = offsets[i:i + 2 * _CHUNK + 1]
        lo = int(fields[0]) - 1
        yield lo, int(fields[-1]), np.subtract(fields, lo, dtype=np.intp)


def _row_fault(data: bytes, fields: np.ndarray) -> int:
    """Where the rows in `data` first break the row rule, or -1 if none does.

    `data` is a part of a body (see `_row_parts`): a newline, then rows
    whose field k begins at `fields[k]`, ending at its last separator. The
    fault is the earliest of: a byte that no row holds; a separator before
    field k that is not a newline for even k, a tab for odd k; an empty
    start, an end not 3 bytes long, or an end byte not base62. The earliest
    lies in the first line that the per-line row check refuses.
    """
    # the bytes that no row holds, in order: the first is the first of its value
    odd = data.translate(None, _ROW_BYTES)
    fault = data.find(odd[:1]) if odd else len(data)
    wrong = np.flatnonzero(np.frombuffer(data, np.uint8)[fields - 1] != _SEPARATORS[:len(fields)])
    if len(wrong):
        fault = min(fault, int(fields[wrong[0]]) - 1)
    sizes = np.diff(fields)  # each field's length and the separator after it
    bad = sizes != 4
    bad[::2] = sizes[::2] < 2
    bad = np.flatnonzero(bad)
    if len(bad):
        fault = min(fault, int(fields[bad[0]]))
    # the ends before the fault have their 3 bytes and a separator
    ends = fields[1::2]
    ends = ends[:np.searchsorted(ends, fault)]
    classes = _end_column(data, ends).tobytes().translate(_END_CLASS)
    bad = np.flatnonzero(np.frombuffer(classes, "<u4") != _END_CODE)
    if len(bad):
        fault = int(ends[bad[0]])
    return fault if fault < len(data) else -1


def _end_column(data: bytes, ends: np.ndarray) -> np.ndarray:
    """The read-only 4 bytes of `data` at each of `ends`, the offsets of ends
    that keep the row rule: each end's 3 bytes and the separator after it."""
    codes = np.ndarray((max(len(data) - 3, 0),), "<u4", data, strides=(1,))[ends]
    codes.flags.writeable = False
    return codes


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

    Pure computation: any non-empty list of strings is walked, duplicates
    included, in input order, through the non-empty `specs`, in numpy chunks
    of rows whose ends equal walk_chain's. `perm` fixes the table's seed;
    the ends are hashed by build_buckets. The file format's row rule is
    checked by save_table.
    """
    starts = list(wordlist)
    if not starts:
        raise ValueError("wordlist is empty")
    table = RainbowTable.__new__(RainbowTable)  # joined chunk by chunk as the walk goes
    chunks = (starts[i:i + _CHUNK] for i in range(0, len(starts), _CHUNK))
    table._join((_walked_rows(chunk, specs) for chunk in chunks), perm.seed)
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

    The one rule for every plaintext that enters a table, whether from a
    wordlist or a table file; `where` locates it in the error message.
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


def _read_text(path, label: str) -> str:
    """A text file's contents, refusing CRLF line endings by the first such line.

    latin-1 maps every byte to one character, so no byte is a decode error:
    a non-ASCII byte reaches the checks of its line and is reported with
    the line's number. The error is prefixed by `label` (e.g. "line" or
    "wordlist line").
    """
    with open(path, "rb") as fh:
        text = fh.read().decode("latin-1")
    # every row ends in the needle's "\n", so the two-character search is
    # slow; a one-character scan rules out most files first
    crlf = text.find("\r\n") if "\r" in text else -1
    if crlf >= 0:
        lineno = text.count("\n", 0, crlf) + 1
        raise ValueError(f"{label} {lineno}: file has CRLF line endings; use LF")
    return text


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
    """Write the table as ASCII text: a header line, then `start<TAB>end` rows.

    Refuses what load_table would: no chains, a seed outside 0..2^64-1, or a
    row that breaks _check_row, found by the table's one row check.
    The body goes in chunks of rows to a temporary file beside the regular
    file, or no file, that `path` names, which it replaces once whole. So a
    save that returns is one load_table reads back as an equal table, and
    any other leaves `path` as it was.
    """
    if not len(table):
        raise ValueError("table has no chains")
    if not 0 <= table.perm_seed <= MASK64:
        raise ValueError(f"permutation seed {table.perm_seed} is outside 0..{MASK64}")
    table._checked  # noqa: B018  (raises at the first row that breaks the rule)
    real = os.path.realpath(path)
    tmp = f"{real}.{os.urandom(4).hex()}.tmp"
    try:
        if os.path.exists(real) and not os.path.isfile(real):  # e.g. /dev/null, a FIFO
            raise OSError(errno.EEXIST, "Not a regular file")
        fh = open(tmp, "x", encoding="ascii", newline="")
    except OSError as exc:
        exc.filename = os.fspath(path)  # name the path asked for, not the temporary file
        raise
    try:
        with fh:
            fh.write(f"QIRIS v{TABLE_VERSION} seed={table.perm_seed} chain=R1,R2,R3,R4\n")
            for i in range(0, len(table), _CHUNK):
                j = min(i + _CHUNK, len(table))
                fh.write(table.body[table.offsets[2 * i]:table.offsets[2 * j]])
        os.replace(tmp, real)
    except BaseException:
        os.remove(tmp)
        raise


def load_table(path) -> RainbowTable:
    """Read a table file written by save_table.

    The permutation seed comes from the header; build_buckets derives the end
    hashes from it. The body is kept whole. A numpy scan of its bytes, 64 KiB
    at a time, finds the field offsets; `_row_fault` checks the rows against
    them, `_CHUNK` rows at a time, and the end column is gathered from them.
    Malformed headers, unsupported versions and malformed rows are refused
    with the number of the offending line: for rows, the line the first
    fault lies in, whose error _check_line makes.
    """
    text = _read_text(path, "line")
    if not text.endswith("\n"):
        text += "\n"
    header = text[:text.index("\n")]
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

    body = text[len(header):]
    if len(body) > 0xFFFFFFFF:
        raise ValueError("table file is 4 GiB or more")
    data = body.encode("latin-1")
    offsets = _field_offsets(data)
    fields = np.frombuffer(offsets, np.uintc)
    for lo, hi, part in _row_parts(fields):
        fault = _row_fault(data[lo:hi], part)
        if fault >= 0:
            fault += lo
            lineno = body.count("\n", 0, fault) + 1
            _check_line(body[body.rfind("\n", 0, fault) + 1:body.index("\n", fault)], lineno)
            raise AssertionError(f"line {lineno}: row check and rule disagree")
    if body == "\n":
        raise ValueError("table has no chains")
    end_codes = _end_column(data, fields[1::2])
    table = RainbowTable.__new__(RainbowTable)  # checked above, with its end column stored
    vars(table).update(body=body, offsets=offsets, perm_seed=seed, _checked=True,
                       end_codes=end_codes)
    return table
