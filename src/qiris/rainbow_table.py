"""Rainbow table construction, persistence, and the bucket index.

A table stores one chain per wordlist entry: only the starting plaintext and
the final 3-character reduction survive. The bucket index Pearson-hashes the
chain ends into 16-bit values whose high 12 bits select a bucket and whose
low 4 bits are the residues searched at crack time. It also keeps the end
hashes sorted, so the rows ending in a given hash are found by binary search.
"""

import hashlib
import re
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hashing import PearsonPermutation, build_permutation, pearson16, walk_chain
from .prng import MASK64

TABLE_VERSION = 1
BUCKET_WIDTH = 16

_HEADER_RE = re.compile(r"^QIRIS v(\d{1,20}) seed=(\d{1,20}) chain=R1,R2,R3,R4$")


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

    Pure computation: any non-empty list of strings is walked, duplicates
    included, in input order. With no specs a chain ends at its start word.
    `perm` fixes the table's seed; the ends are hashed by build_buckets. The
    file format's row rule is checked by save_table.
    """
    words = list(wordlist)
    if not words:
        raise ValueError("wordlist is empty")
    chains = []
    for word in words:
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


def _check_row(start: str, end: str, where: str) -> None:
    """The file format's row rule: a plaintext start and a 3-base62 chain end."""
    _check_plaintext(start, where)
    # on ASCII text, isalnum() accepts exactly the base62 alphabet
    if not (len(end) == 3 and end.isascii() and end.isalnum()):
        raise ValueError(f"{where}: end must be 3 base62 characters")


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


@lru_cache(maxsize=1)
def _permutation(seed: int) -> PearsonPermutation:
    """The permutation for `seed`, built once while it is the last seed asked for."""
    return build_permutation(seed)


def build_buckets(table: RainbowTable) -> BucketIndex:
    """Hash every chain end and index the hashes; the one place ends are hashed.

    The ends are hashed with the permutation for the table's seed, and each
    distinct end hash h becomes residue h % 16 under bucket key h // 16.
    Only non-empty buckets exist. The sorted index costs 6 bytes per row.
    The permutation comes from a one-entry memo, so indexes built one after
    another over one seed share one permutation object and one build.
    """
    perm = _permutation(table.perm_seed)
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

    Refuses, before `path` is opened, every table that load_table would:
    no chains, a seed outside 0..2^64-1, or a row that breaks _check_row.
    So a save that returns is one load_table reads back as an equal table.
    """
    if not table.chains:
        raise ValueError("table has no chains")
    if not 0 <= table.perm_seed <= MASK64:
        raise ValueError(f"permutation seed {table.perm_seed} is outside 0..{MASK64}")
    for pos, chain in enumerate(table.chains):
        _check_row(chain.start, chain.end, f"table.chains[{pos}]")
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
        more = "..." if len(lines[0]) > 80 else ""  # echo a bounded prefix of the line
        raise ValueError(f"line 1: malformed table header: {lines[0][:80]!r}{more}")
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
        _check_row(start, end, f"line {lineno}")
        chains.append(Chain(start=start, end=end))
    if not chains:
        raise ValueError("table has no chains")
    return RainbowTable(chains=chains, perm_seed=seed)
