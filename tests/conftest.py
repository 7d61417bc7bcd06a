import pytest

from qiris.hashing import (
    BASE62_ALPHABET,
    build_permutation,
    canonical_reduction_specs,
    pearson16,
)
from qiris.rainbow_table import build_buckets, generate_table

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
def end_for_hash(perm44):
    """One 3-character base62 chain end for each end hash that seed 44 reaches.

    Tests that need rows with given end hashes build them from these ends.
    """
    ends = {}
    for a in BASE62_ALPHABET:
        for b in BASE62_ALPHABET:
            for c in BASE62_ALPHABET:
                ends.setdefault(pearson16(a + b + c, perm44), a + b + c)
    return ends
