"""Hash and reduction primitives.

MD5 digests, the seeded 16-bit Pearson hash used to bucket chain ends, the
base62 reduction functions R1..R4 that map digests back into the plaintext
space, and the chain walk that alternates the two. `walk_chain` walks one
chain with hashlib, for crack and verify. `generate_table` walks a whole
wordlist with `_walk_chains`, the same walk in numpy over chunks of rows.
One RFC 1321 block step in numpy, `_md5_block`, takes the padded message
words of all rows at once: first of the words' UTF-8 bytes, each word that
one block holds padded with its own length, a longer word hashed by hashlib;
then of the fixed-length base62 texts after them. `build_permutation`'s
Fisher-Yates shuffle is computed in numpy too, identical to the swap loop,
and its table is held once, as a read-only uint16 buffer that `pearson16`
and numpy both read.
"""

import hashlib
import math
import re
import struct
from dataclasses import dataclass

import numpy as np

from .prng import MASK64, splitmix64_block

BASE62_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

# The Pearson table deliberately has 65535 entries (not 65536); the hash
# recurrence reduces modulo the table length, so 65535 is unreachable.
PERMUTATION_SIZE = 65535

DEFAULT_PERM_SEED = 44

_HEX_DIGEST_RE = re.compile(r"[0-9a-fA-F]{32}")

# Two base62 digits at a time: entry d0 + 62*d1 is the string of digit d0
# then digit d1, least significant first as `reduce` emits them.
_BASE62_PAIRS = tuple(lo + hi for hi in BASE62_ALPHABET for lo in BASE62_ALPHABET)

# A reduction reads the first 4 digest bytes as a big-endian integer, the
# same number as the first 8 hex characters.
_prefix = struct.Struct(">I").unpack_from

_BASE62_BYTES = np.frombuffer(BASE62_ALPHABET.encode(), np.uint8)

# A prefix (below 2**32) plus a nonce's low part (below 62**10) is below
# 2 * 62**10 < 2**64, so its low 10 digits come from uint64 arithmetic.
_LOW_DIGITS = 10

# The longest message that one MD5 block holds with its padding: a 0x80
# byte and the 8-byte bit length.
_BLOCK_BYTES = 55

# RFC 1321's MD5 round constants T[i] and per-step shifts, its initial state,
# and which message word step i reads.
_MD5_K = tuple(int(abs(math.sin(i + 1)) * 2**32) for i in range(64))
_MD5_S = (7, 12, 17, 22) * 4 + (5, 9, 14, 20) * 4 + (4, 11, 16, 23) * 4 + (6, 10, 15, 21) * 4
_MD5_INIT = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
_MD5_WORD = tuple(
    (i, (5 * i + 1) % 16, (3 * i + 5) % 16, 7 * i % 16)[i // 16] for i in range(64)
)


@dataclass(frozen=True)
class ReductionSpec:
    """One reduction function: add `nonce` to the digest prefix and emit `length` base62 chars."""

    nonce: int
    length: int
    index: int

    def __post_init__(self):
        if self.nonce < 0:
            raise ValueError("nonce must be non-negative")
        if self.length < 1:
            raise ValueError("length must be at least 1")
        if not 1 <= self.index <= 4:
            raise ValueError("index must be in 1..4")


@dataclass(frozen=True)
class PearsonPermutation:
    """Seeded permutation of 0..65534 backing the 16-bit Pearson hash."""

    table: memoryview  # read-only, format "H": 65535 native uint16, 128 KB
    seed: int


def canonical_reduction_specs() -> list[ReductionSpec]:
    """The four chain reduction functions R1..R4, in application order."""
    return [
        ReductionSpec(nonce=2, length=6, index=1),
        ReductionSpec(nonce=3, length=4, index=2),
        ReductionSpec(nonce=4, length=5, index=3),
        ReductionSpec(nonce=1, length=3, index=4),
    ]


def md5_hex(data) -> str:
    """MD5 digest of `data` (str or bytes) as 32 lowercase hex characters."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.md5(data).hexdigest()


def normalize_digest(hex_digest: str) -> str:
    """Validate a 32-character hex digest and return it lowercased."""
    if not isinstance(hex_digest, str) or _HEX_DIGEST_RE.fullmatch(hex_digest) is None:
        raise ValueError(f"not a 32-character hex digest: {hex_digest!r}")
    return hex_digest.lower()


def build_permutation(seed: int = DEFAULT_PERM_SEED) -> PearsonPermutation:
    """Fisher-Yates shuffle of 0..65534 driven by the SplitMix64 stream for `seed`.

    The shuffle walks indices 65534 down to 1, swapping each with the
    stream's next output % (i + 1), so the table is reproducible
    bit-for-bit from the seed alone. The 65534 draws are computed in numpy
    as one block, and `_fisher_yates` then finds the table those swaps
    leave without making them one by one.
    """
    seed = seed & MASK64
    draws = np.zeros(PERMUTATION_SIZE, np.uint16)  # draws[i] is step i's; step 0 swaps 0 with 0
    # the bounds stay a temporary: held through the shuffle, they raise its peak memory
    draws[:0:-1] = splitmix64_block(seed, PERMUTATION_SIZE - 1) % np.arange(
        PERMUTATION_SIZE, 1, -1, dtype=np.uint64
    )
    return PearsonPermutation(table=memoryview(_fisher_yates(draws).tobytes()).cast("H"), seed=seed)


def _fisher_yates(draws: np.ndarray) -> np.ndarray:
    """The table left by swapping positions i and draws[i] of 0..n-1, for i
    from n - 1 down to 1: n = len(draws) <= 65535, and uint16 draws[i] <= i.

    Step i leaves position i final. It holds what position draws[i] held
    just before step i: what the earliest later step with the same draw
    moved there, or draws[i] if no later step drew it. A step i' moves there
    what position i' held just before step i': by the same rule, what the
    earliest step after i' that drew i' moved there, or i' itself. So each
    value is the root of a forest over positions, found by pointer doubling.
    One stable sort groups the steps by draw. A step that follows another is
    never step 0, so 0 stands for "no such step".
    """
    n = len(draws)
    order = np.argsort(draws, kind="stable").astype(np.uint16)
    grouped = draws.take(order)
    same = grouped[1:] == grouped[:-1]
    # later[k]: the next step after step order[k] with the same draw
    later = np.zeros(n, np.uint16)
    np.multiply(order[1:], same, out=later[:-1])
    # first[x]: the first step that drew x, the first after x unless it is
    # x itself. Then nothing reads held[x]: step x's value comes from
    # later[x], and no rule leads to a position whose own step drew it.
    # Steps that are not their group's first all land in spare slot 0xFFFF.
    starts = grouped.copy()
    np.bitwise_or(grouped[1:], same * np.uint16(0xFFFF), out=starts[1:])
    first = np.zeros(1 << 16, np.uint16)
    first[starts] = order
    # held[x]: first[x], or x itself where that is 0, pointer-doubled until
    # it is what position x held just before step x
    held = np.maximum(first[:n], np.arange(n, dtype=np.uint16))
    while True:
        up = held.take(held)
        if np.array_equal(up, held):
            break
        held = up
    table = np.empty(n, np.uint16)
    table[order] = np.where(later == 0, grouped, held.take(later))
    return table


def pearson16(text: str, perm: PearsonPermutation) -> int:
    """Table-driven 16-bit hash of an ASCII string; result is in [0, 65534]."""
    if not text:
        raise ValueError("text must be non-empty")
    if not text.isascii():
        raise ValueError("text must be ASCII")
    table = perm.table
    h = len(text)
    for ch in text:
        h = table[(h + ord(ch)) % PERMUTATION_SIZE]
    return h


def reduce(hex_digest: str, spec: ReductionSpec) -> str:
    """Reduce a digest to a plaintext of exactly `spec.length` base62 characters.

    The first 8 hex characters are read as an integer, `spec.nonce` is added,
    and successive base62 digits are peeled off least-significant first.
    """
    return walk_chain(bytes.fromhex(normalize_digest(hex_digest)), (spec,))


def walk_chain(digest: bytes, specs) -> str:
    """Reduce a raw MD5 `digest` through the non-empty sequence `specs`.

    MD5 is applied between reductions but not after the last one, whose
    plaintext is returned. The digest stays raw bytes, so no hex is
    formatted or checked; `reduce` is the one-step walk from a hex digest.
    """
    if not specs:
        raise ValueError("a chain walk needs at least one reduction")
    for spec in specs[:-1]:
        text = _base62(_prefix(digest)[0] + spec.nonce, spec.length)
        digest = hashlib.md5(text.encode()).digest()
    spec = specs[-1]
    return _base62(_prefix(digest)[0] + spec.nonce, spec.length)


def _base62(v: int, length: int) -> str:
    """The `length` least significant base62 digits of `v`, least significant first."""
    text = ""
    while length > 1:
        text += _BASE62_PAIRS[v % 3844]
        v //= 3844
        length -= 2
    if length:
        text += BASE62_ALPHABET[v % 62]
    return text


def _walk_chains(messages: list, lengths: np.ndarray, specs) -> np.ndarray:
    """`walk_chain` from the MD5 of each of `messages`, bytes of the given
    `lengths`, through `specs`: the ends as an (n, length) uint8 array whose
    row k holds the base62 bytes of message k's end.

    The messages' own MD5s take one block step over all rows, and hashlib
    for a message longer than a block. Every later text is `length` base62
    bytes, so numpy reduces and hashes all rows at once.
    """
    if not specs:
        raise ValueError("a chain walk needs at least one reduction")
    *inner, last = specs
    prefixes = _message_prefixes(messages, lengths)
    for spec in inner:
        prefixes = _md5_prefixes(_text_words(_base62_digits(prefixes, spec)))
    return _base62_digits(prefixes, last).T


def _base62_digits(prefixes: np.ndarray, spec: ReductionSpec) -> np.ndarray:
    """`_base62(prefix + spec.nonce, spec.length)` for every uint64 prefix, as
    base62 bytes: row k holds digit k of every prefix's text.
    """
    high, low = divmod(spec.nonce, 62**_LOW_DIGITS)
    v = prefixes + low
    digits = np.empty((spec.length, len(v)), np.uint8)
    for k in range(min(spec.length, _LOW_DIGITS)):
        v, digit = np.divmod(v, 62)
        digits[k] = _BASE62_BYTES[digit]
    if spec.length > _LOW_DIGITS:
        # v is now the carry into digit 10, 0 or 1, so the digits above it
        # are those of `high` or of `high + 1`
        width = spec.length - _LOW_DIGITS
        above = (_base62(high, width) + _base62(high + 1, width)).encode()
        digits[_LOW_DIGITS:] = np.frombuffer(above, np.uint8).reshape(2, width).T[:, v]
    return digits


def _message_prefixes(messages: list, lengths: np.ndarray) -> np.ndarray:
    """The reduction prefix of the MD5 of each of `messages` as uint64.

    The messages that one padded block holds, at most `_BLOCK_BYTES` long, go
    through one RFC 1321 block step at once, each padded with its own length.
    A longer one is hashed by hashlib, so a chunk costs one block step in
    numpy whatever its longest message, and memory stays 64 bytes a row.
    """
    # np.array keeps each message's first 64 bytes, NULs included, zero-filled
    block = np.array(messages, "S64").view(np.uint8).reshape(len(messages), 64)
    short = np.flatnonzero(lengths <= _BLOCK_BYTES)
    block[short, lengths[short]] = 0x80
    block.view("<u8")[:, 7] = 8 * lengths
    prefixes = _md5_prefixes(list(block.view("<u4").T))
    long = np.flatnonzero(lengths > _BLOCK_BYTES)  # their rows above are cut short
    prefixes[long] = [_prefix(hashlib.md5(messages[i]).digest())[0] for i in long.tolist()]
    return prefixes


def _text_words(text: np.ndarray) -> list:
    """The padded MD5 message words of every column of `text`, an (L, N)
    array of byte k of N texts of L bytes each: (N,) uint32 arrays for the
    words holding text bytes, then the padding's words as ints, the same in
    every row.
    """
    length, n = text.shape
    padding = bytearray(64 * ((length + 8) // 64 + 1))
    padding[length] = 0x80
    padding[-8:] = (8 * length).to_bytes(8, "little")
    padding = struct.unpack(f"<{len(padding) // 4}I", padding)
    message = np.zeros(((length + 3) // 4, n, 4), np.uint8)
    for k in range(length):
        message[k // 4, :, k % 4] = text[k]
    message = message.view("<u4")[..., 0]
    message += np.array(padding[:len(message)], np.uint32)[:, None]
    return [*message, *padding[len(message):]]


def _md5_prefixes(words) -> np.ndarray:
    """The reduction prefix of the MD5 of N padded messages of B blocks, given
    as their 16 * B message words (see `_md5_block`), the first an array.

    The prefix is the digest's first 4 bytes read big-endian: the
    byte-swapped first state word.
    """
    state = [np.full(len(words[0]), s, np.uint32) for s in _MD5_INIT]
    for block in range(len(words) // 16 - 1):
        state = [x + y for x, y in zip(state, _md5_block(state, words[16 * block:16 * block + 16]))]
    # steps 61-63 only carry step 60's b into a, so the last block stops there
    b = _md5_block(state, words[-16:], 61)[1]
    return (state[0] + b).byteswap().astype(np.uint64)


def _md5_block(state, m, steps: int = 64) -> tuple:
    """The first `steps` steps of RFC 1321's compression of one block into
    `state`, four (N,) uint32 arrays, one step over all N messages at a time:
    the working words a, b, c, d they leave, to be added to `state`. The 16
    message words `m` are little-endian, each an (N,) uint32 array or an int
    that every message shares.
    """
    a, b, c, d = state
    for i in range(steps):
        if i < 16:
            f = d ^ (b & (c ^ d))
        elif i < 32:
            f = c ^ (d & (b ^ c))
        elif i < 48:
            f = b ^ c ^ d
        else:
            f = c ^ (b | ~d)
        f += a
        word = m[_MD5_WORD[i]]
        if isinstance(word, int):
            f += (word + _MD5_K[i]) & 0xFFFFFFFF
        else:
            f += word
            f += _MD5_K[i]
        s = _MD5_S[i]
        a, d, c, b = d, c, b, b + (f << s | f >> (32 - s))
    return a, b, c, d
