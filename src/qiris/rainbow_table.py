"""Rainbow table construction, persistence, and the bucket index.

A table stores one chain per wordlist entry: only the starting plaintext and
the final 3-character reduction survive. Chain ends are Pearson-hashed into
16-bit values whose high 12 bits select a bucket and whose low 4 bits are the
residues searched at crack time. The index also keeps the end hashes sorted,
so the rows ending in a given hash are found by binary search.
"""

import re
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .hashing import (
    BASE62_ALPHABET,
    PearsonPermutation,
    build_permutation,
    md5_hex,
    pearson16,
    reduce,
)
from .prng import MASK64

TABLE_VERSION = 1
BUCKET_WIDTH = 16

_BASE62_SET = frozenset(BASE62_ALPHABET)
_HEADER_RE = re.compile(r"^QIRIS v(\d+) seed=(\d+) chain=R1,R2,R3,R4$")


@dataclass(frozen=True, slots=True)
class Chain:
    """Stored endpoints of one hash chain."""

    start: str
    end: str


@dataclass
class RainbowTable:
    chains: list
    end_hashed: list
    perm_seed: int


@dataclass
class BucketIndex:
    """Bucket residues plus a sorted end-hash index over the table's rows.

    `buckets` maps each 12-bit bucket key to the 4-bit residues stored under
    it. `hashes` holds every row's end hash in ascending order and `rows` the
    row id at the same position; rows sharing a hash stay in ascending order.
    """

    buckets: dict
    hashes: array
    rows: array

    def rows_for(self, h: int) -> list:
        """All row ids whose end hash equals `h`, in ascending order; O(log N)."""
        return self.rows[bisect_left(self.hashes, h):bisect_right(self.hashes, h)].tolist()


def generate_table(wordlist, specs, perm: PearsonPermutation) -> RainbowTable:
    """Build one chain per word by alternating MD5 and the reduction functions.

    Words must be non-empty ASCII without whitespace; duplicates are allowed
    and produce duplicate chains. Input order is preserved.
    """
    words = list(wordlist)
    if not words:
        raise ValueError("wordlist is empty")
    chains = []
    end_hashed = []
    for pos, word in enumerate(words, start=1):
        _check_word(word, pos)
        end = _chain_end(word, specs)
        chains.append(Chain(start=word, end=end))
        end_hashed.append(pearson16(end, perm))
    return RainbowTable(chains=chains, end_hashed=end_hashed, perm_seed=perm.seed)


def _check_word(word, pos):
    if not word:
        raise ValueError(f"wordlist entry {pos} is empty")
    if not word.isascii():
        raise ValueError(f"wordlist entry {pos} is not ASCII")
    if any(ch.isspace() for ch in word):
        raise ValueError(f"wordlist entry {pos} contains whitespace")


def _chain_end(word, specs):
    text = word
    digest = md5_hex(text)
    for spec in specs:
        text = reduce(digest, spec)
        digest = md5_hex(text)
    return text


def build_buckets(table: RainbowTable) -> BucketIndex:
    """Insert each end hash h as residue h % 16 under bucket key h // 16.

    Duplicate residues are kept in insertion order; deduplication is the
    search layer's concern. Only non-empty buckets exist. The sorted index
    costs 6 bytes per row.
    """
    buckets = {}
    for h in table.end_hashed:
        buckets.setdefault(h // BUCKET_WIDTH, []).append(h % BUCKET_WIDTH)
    hashes = np.array(table.end_hashed, dtype=np.uint16)
    order = np.argsort(hashes, kind="stable")
    return BucketIndex(
        buckets=buckets,
        hashes=array("H", hashes[order].tobytes()),
        rows=array("i", order.astype(np.intc).tobytes()),
    )


def save_table(table: RainbowTable, path) -> None:
    """Write the table as ASCII text: a header line, then `start<TAB>end` rows.

    The v1 format only round-trips tables built with the canonical four-spec
    chain, so ends that are not 3 base62 characters are rejected up front.
    """
    for chain in table.chains:
        if len(chain.end) != 3 or any(ch not in _BASE62_SET for ch in chain.end):
            raise ValueError(
                f"chain end {chain.end!r} is not 3 base62 characters; "
                "only canonical-chain tables can be saved"
            )
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(f"QIRIS v{TABLE_VERSION} seed={table.perm_seed} chain=R1,R2,R3,R4\n")
        for chain in table.chains:
            fh.write(f"{chain.start}\t{chain.end}\n")


def load_table(path) -> RainbowTable:
    """Read a table file written by save_table.

    The permutation seed comes from the header and the end hashes are
    recomputed from it, so a loaded table is self-consistent by construction.
    Malformed headers, unsupported versions, and malformed rows are rejected.
    """
    with open(path, "r", encoding="ascii", newline="") as fh:
        lines = fh.read().split("\n")
    if not lines or not lines[0]:
        raise ValueError("missing table header")
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise ValueError(f"malformed table header: {lines[0]!r}")
    version = int(header.group(1))
    if version != TABLE_VERSION:
        raise ValueError(f"unsupported table version v{version}")
    seed = int(header.group(2))
    if seed > MASK64:
        raise ValueError(f"line 1: permutation seed {seed} does not fit in 64 bits")

    body = lines[1:]
    if body and body[-1] == "":
        body = body[:-1]
    chains = []
    for lineno, line in enumerate(body, start=2):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected exactly one tab separator")
        start, end = parts
        if not start:
            raise ValueError(f"line {lineno}: empty start plaintext")
        if len(end) != 3 or any(ch not in _BASE62_SET for ch in end):
            raise ValueError(f"line {lineno}: end must be 3 base62 characters")
        chains.append(Chain(start=start, end=end))
    if not chains:
        raise ValueError("table has no chains")

    perm = build_permutation(seed)
    end_hashed = [pearson16(chain.end, perm) for chain in chains]
    return RainbowTable(chains=chains, end_hashed=end_hashed, perm_seed=seed)
