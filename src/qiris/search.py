"""Hybrid crack procedure and its classical baseline.

For each chain suffix the query hash is reduced to a candidate end plaintext.
The quantum path reads the candidate's bucket mask, whose bit count picks
the probe and whose bit at the 4-bit residue is its presence, and only then
finds the rows ending in the candidate by one search of its bucket's ends
in the index; the classical baseline compares the candidate with every
chain end instead, one O(N) scan of the table's end column per suffix. Any
hit is verified by rebuilding the chain and comparing MD5 digests, so both
paths only ever return true preimages. The simulated Grover vote is checked
once per config: `SearchConfig` refuses one whose vote rejects a present
residue in a bucket it sends to Grover. An absent residue never receives a
shot, so for an accepted config the vote is membership, and `crack` decides
every probe by whether the residue is present.
"""

import hashlib
from dataclasses import dataclass

from .hashing import (
    PearsonPermutation,
    md5_hex,
    normalize_digest,
    pearson16,
    reduce,  # noqa: F401  (kept bound: perfbench's tracer test reads qiris.search.reduce)
    walk_chain,
)
from .prng import MASK64
from .quantum_sim import DEFAULT_SHOTS, grover_decisions, grover_iterations
from .rainbow_table import BUCKET_WIDTH, BucketIndex, RainbowTable, _clip

# the decision table is built in time linear in shots: about 0.5 s at 2^24
MAX_SHOTS = 1 << 24


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the hybrid crack; the CLI reads its defaults from here.

    `shots` and `rng_seed` only decide whether a config is accepted: their
    Grover vote must accept every present residue in every bucket larger
    than `classical_threshold`, the buckets that count as Grover probes.
    """

    shots: int = DEFAULT_SHOTS
    classical_threshold: int = 2
    rng_seed: int = 7

    def __post_init__(self):
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots (--shots) must be in 1..{MAX_SHOTS}, got {_clip(self.shots)}")
        if not 2 <= self.classical_threshold <= BUCKET_WIDTH:
            raise ValueError(
                "classical_threshold (--classical-threshold) must be in "
                f"2..{BUCKET_WIDTH}, got {_clip(self.classical_threshold)}: below 2, an m = 2 "
                "bucket gets one Grover round, which is right with probability 1/2"
            )
        if not 0 <= self.rng_seed <= MASK64:
            raise ValueError(
                f"rng_seed (--rng-seed) must be in 0..{MASK64}, got {_clip(self.rng_seed)}"
            )
        # at threshold 16 no probe runs Grover, and no table is built
        if self.classical_threshold < BUCKET_WIDTH:
            decisions = grover_decisions(self.shots, self.rng_seed)
            rejected = [
                key
                for key, accept in decisions.items()
                if key[0] > self.classical_threshold and not accept
            ]
            if rejected:
                # the table lists m ascending
                (m, rank), largest = rejected[0], rejected[-1][0]
                raise ValueError(
                    f"--shots {self.shots} with --rng-seed {self.rng_seed} is unsound: "
                    f"the Grover vote rejects the present target of rank {rank} in an "
                    f"m = {m} bucket, so hybrid and classical could disagree; choose "
                    "another --shots or --rng-seed, or a --classical-threshold of at "
                    f"least {largest}"
                )


@dataclass
class SearchReport:
    """Crack outcome plus per-probe accounting."""

    result: str | None = None
    chains_examined: int = 0
    grover_invocations: int = 0
    grover_iterations_total: int = 0
    classical_fallbacks: int = 0
    bucket_misses: int = 0


def rebuild_chain(start: str, remaining_specs) -> tuple:
    """Walk a chain from `start` through `remaining_specs`; returns (text, md5(text))."""
    text = start
    if remaining_specs:
        text = walk_chain(hashlib.md5(start.encode()).digest(), remaining_specs)
    return text, md5_hex(text)


def crack(
    hash_hex: str,
    table: RainbowTable,
    buckets: BucketIndex,
    perm: PearsonPermutation,
    specs,
    cfg: SearchConfig = SearchConfig(),
) -> SearchReport:
    """Attempt to invert `hash_hex` against the table.

    Tries suffixes of increasing length i = 1..len(specs); the i-th suffix
    reproduces a chain end when the query hash sits at depth len(specs)-i.
    The rows whose end is the candidate itself are found in its bucket
    (`buckets.rows_for`) and rebuilt in row order, so 16-bit hash
    collisions cannot cause false positives or mask recoverable entries,
    and a row that only shares the candidate's hash is never fetched. Each
    suffix increments exactly one of bucket_misses, classical_fallbacks,
    grover_invocations.
    Each probe reads one bucket mask: 0 is a miss, its bit count is m, and
    its bit at the residue decides the probe by membership: `cfg` was
    accepted only because its vote agrees with membership (`SearchConfig`).
    An index whose row count or seed differs from the table's is refused.
    """
    query = normalize_digest(hash_hex)
    raw = bytes.fromhex(query)
    if perm.seed != table.perm_seed:
        raise ValueError(
            f"permutation seed {perm.seed} does not match table seed {table.perm_seed}"
        )
    if len(buckets.rows) != len(table) or buckets.perm.seed != table.perm_seed:
        raise ValueError(
            f"index over {len(buckets.rows)} rows with seed {buckets.perm.seed} was not "
            f"built from this table ({len(table)} rows, seed {table.perm_seed})"
        )
    report = SearchReport()
    n = len(specs)
    for i in range(1, n + 1):
        report.chains_examined = i
        text = walk_chain(raw, specs[n - i:])
        h = pearson16(text, perm)
        mask = buckets.masks[h // BUCKET_WIDTH]
        if mask == 0:
            report.bucket_misses += 1
            continue
        m = mask.bit_count()
        if m <= cfg.classical_threshold:
            report.classical_fallbacks += 1
        else:
            report.grover_invocations += 1
            report.grover_iterations_total += grover_iterations(m)
        if not mask >> h % BUCKET_WIDTH & 1:
            continue
        for row in buckets.rows_for(h, text):
            candidate, candidate_hash = rebuild_chain(table.starts[row], specs[: n - i])
            if candidate_hash == query:
                report.result = candidate
                return report
    return report


def crack_classical(hash_hex: str, table: RainbowTable, specs) -> str | None:
    """Baseline inversion: same suffix walk, membership by scanning every chain end.

    Each suffix's candidate is compared with all N ends, one O(N)
    single-character search of the end column (`table.rows_ending`), and
    the matching rows are verified in row order.
    """
    result, _ = crack_classical_scan(hash_hex, table, specs)
    return result


def crack_classical_scan(hash_hex: str, table: RainbowTable, specs) -> tuple:
    """Classical crack plus the number of end-plaintext comparisons it made."""
    query = normalize_digest(hash_hex)
    raw = bytes.fromhex(query)
    n = len(specs)
    scanned = 0
    for i in range(1, n + 1):
        text = walk_chain(raw, specs[n - i:])
        # a pass compares the rows up to the verified match, or every row
        for row in table.rows_ending(text):
            candidate, candidate_hash = rebuild_chain(table.starts[row], specs[: n - i])
            if candidate_hash == query:
                return candidate, scanned + row + 1
        scanned += len(table.end_chars)  # the column scanned; len(table) is a Python call
    return None, scanned
