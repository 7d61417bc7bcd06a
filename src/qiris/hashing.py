"""Hash and reduction primitives.

MD5 digests, the seeded 16-bit Pearson hash used to bucket chain ends, and
the base62 reduction functions R1..R4 that map digests back into the
plaintext space.
"""

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .prng import GAMMA, MASK64, splitmix64_block

BASE62_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

# The Pearson table deliberately has 65535 entries (not 65536); the hash
# recurrence reduces modulo the table length, so 65535 is unreachable.
PERMUTATION_SIZE = 65535

DEFAULT_PERM_SEED = 44

_HEX_DIGEST_RE = re.compile(r"^[0-9a-fA-F]{32}$")

# Shuffle draws are made this many at a time, keeping numpy buffers small.
_DRAW_CHUNK = 4096


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

    table: tuple
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
    if not isinstance(hex_digest, str) or _HEX_DIGEST_RE.match(hex_digest) is None:
        raise ValueError(f"not a 32-character hex digest: {hex_digest!r}")
    return hex_digest.lower()


def build_permutation(seed: int = DEFAULT_PERM_SEED) -> PearsonPermutation:
    """Fisher-Yates shuffle of 0..65534 driven by the SplitMix64 stream for `seed`.

    The shuffle walks indices 65534 down to 1, swapping each with
    next_u64() % (i + 1), so the table is reproducible bit-for-bit from the
    seed alone. The draws are computed in numpy, a chunk at a time: the
    stream is counter-based, so draw k + 1 onward is the block for seed
    + k*gamma.
    """
    seed = seed & MASK64
    table = list(range(PERMUTATION_SIZE))
    for start in range(0, PERMUTATION_SIZE - 1, _DRAW_CHUNK):
        top = PERMUTATION_SIZE - start  # i + 1 for the chunk's first draw
        count = min(_DRAW_CHUNK, top - 1)
        draws = splitmix64_block(seed + start * GAMMA, count)
        bounds = np.arange(top, top - count, -1, dtype=np.uint64)
        for i, j in zip(range(top - 1, top - 1 - count, -1), (draws % bounds).tolist()):
            table[i], table[j] = table[j], table[i]
    return PearsonPermutation(table=tuple(table), seed=seed)


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
    digest = normalize_digest(hex_digest)
    v = int(digest[:8], 16) + spec.nonce
    chars = []
    for _ in range(spec.length):
        chars.append(BASE62_ALPHABET[v % 62])
        v //= 62
    return "".join(chars)
