import pytest

from qiris import rainbow_table
from qiris.hashing import (
    BASE62_ALPHABET,
    build_permutation,
    canonical_reduction_specs,
    pearson16,
)
from qiris.rainbow_table import BUCKET_WIDTH, build_buckets, generate_table


# The sequential SplitMix64 generator: the reference that the library's
# counter-based `splitmix64_block` and the permutation shuffle are checked
# against.
_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator; bit-exact on every platform for a given seed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64


# Fixed 100-word list used across the suite; all ASCII, no whitespace, distinct.
# The last six words have chain ends that share one Pearson bucket with six
# distinct residues, so crack() exercises the Grover probe at the default
# classical threshold instead of always taking the small-bucket fallback.
WORDS_100 = [
    "123456", "password", "12345678", "qwerty", "abc123",
    "monkey", "1234567", "letmein", "trustno1", "dragon",
    "baseball", "111111", "iloveyou", "master", "sunshine",
    "ashley", "bailey", "passw0rd", "shadow", "123123",
    "654321", "superman", "qazwsx", "michael", "football",
    "welcome", "jesus", "ninja", "mustang", "password1",
    "jordan23", "harley", "hunter", "buster", "thomas",
    "tigger", "robert", "soccer", "batman", "killer",
    "hockey", "george", "charlie", "andrew", "michelle",
    "jessica", "pepper", "daniel", "access", "123456789",
    "joshua", "maggie", "starwars", "silver", "william",
    "dallas", "yankees", "123321", "hello", "amanda",
    "orange", "biteme", "freedom", "computer", "thunder",
    "nicole", "ginger", "heather", "hammer", "summer",
    "corvette", "taylor", "austin", "1234", "a1b2c3",
    "tigers", "purple", "angela", "bear", "house",
    "security", "sparky", "phoenix", "mickey", "cricket",
    "matthew", "golfer", "cheese", "princess", "chelsea",
    "diamond", "yellow", "bigdog", "secret",
    "soccer1", "violet105", "copper107", "blaze91", "bison8", "heron58",
]

assert len(WORDS_100) == 100 and len(set(WORDS_100)) == 100


@pytest.fixture(scope="session")
def words100():
    return list(WORDS_100)


@pytest.fixture(scope="session")
def specs():
    return canonical_reduction_specs()


@pytest.fixture(scope="session")
def perm44():
    return build_permutation(44)


@pytest.fixture(scope="session")
def table100(words100, specs, perm44):
    return generate_table(words100, specs, perm44)


@pytest.fixture(scope="session")
def buckets100(table100):
    return build_buckets(table100)


@pytest.fixture(scope="session")
def two_ends_for_hash(perm44):
    """Up to two 3-character base62 chain ends for each end hash that seed 44
    reaches, in alphabet order: the first ends found by brute force."""
    ends = {}
    for a in BASE62_ALPHABET:
        for b in BASE62_ALPHABET:
            for c in BASE62_ALPHABET:
                group = ends.setdefault(pearson16(a + b + c, perm44), [])
                if len(group) < 2:
                    group.append(a + b + c)
    return ends


@pytest.fixture(scope="session")
def end_for_hash(two_ends_for_hash):
    """One 3-character base62 chain end for each end hash that seed 44 reaches.

    Tests that need rows with given end hashes build them from these ends.
    """
    return {h: group[0] for h, group in two_ends_for_hash.items()}


@pytest.fixture(scope="session")
def twin_ends(two_ends_for_hash):
    """Pairs of different chain ends that share one seed-44 hash, by hash."""
    return [tuple(group) for _, group in sorted(two_ends_for_hash.items()) if len(group) == 2]


@pytest.fixture(scope="session")
def suffix_twins(perm44):
    """Chain ends whose last 2 characters hash into the end's own seed-44
    bucket, each paired with that 2-character suffix: a bucket search that
    took the suffix for an end would find the end's row at an odd offset."""
    pairs = []
    for b in BASE62_ALPHABET:
        for c in BASE62_ALPHABET:
            key = pearson16(b + c, perm44) // BUCKET_WIDTH
            for a in BASE62_ALPHABET:
                if pearson16(a + b + c, perm44) // BUCKET_WIDTH == key:
                    pairs.append((a + b + c, b + c))
    return pairs


@pytest.fixture(scope="session")
def reachable_hashes(end_for_hash):
    """The end hashes that seed 44 reaches, ascending."""
    return sorted(end_for_hash)


def sorted_end_hashes(table, perm):
    """Every row's end hash, ascending: the order in which the bucket index
    holds the rows, derived from `table.ends` with pearson16."""
    return sorted(pearson16(end, perm) for end in table.ends)


class _FailingFile:
    """A file opened for writing whose fourth write raises `exc`: save_table
    writes the header, then one write per chunk of rows, so the fourth is
    the third chunk."""

    def __init__(self, fh, exc):
        self.fh, self.exc, self.writes = fh, exc, 0

    def write(self, text):
        self.writes += 1
        if self.writes == 4:
            raise self.exc
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


def fail_third_chunk_write(monkeypatch, exc):
    """Make every file that `qiris.rainbow_table` opens for writing raise
    `exc` when its third chunk of rows is written; reads are untouched."""

    def opening(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return fh if "r" in mode else _FailingFile(fh, exc)

    monkeypatch.setattr(rainbow_table, "open", opening, raising=False)
