"""Hybrid crack procedure and its classical baseline.

For each chain suffix the query hash is reduced to a candidate end plaintext.
The quantum path asks the bucket index whether the candidate's 4-bit residue
is present (classically for tiny buckets, by simulated Grover search
otherwise) and only then looks up the rows ending in the candidate's hash in
the sorted end-hash index; the classical baseline scans every stored chain
end instead. Any hit is verified by rebuilding the chain and comparing MD5
digests, so both paths only ever return true preimages.
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
from .quantum_sim import grover_search
from .rainbow_table import BUCKET_WIDTH, BucketIndex, RainbowTable


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the hybrid crack; defaults mirror the CLI."""

    shots: int = 1024
    classical_threshold: int = 2
    rng_seed: int = 7
    quantum_enabled: bool = True

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots (--shots) must be at least 1, got {self.shots}")
        if not 0 <= self.classical_threshold <= 16:
            raise ValueError(
                "classical_threshold (--classical-threshold) must be in 0..16, "
                f"got {self.classical_threshold}"
            )
        if not 0 <= self.rng_seed <= MASK64:
            raise ValueError(
                f"rng_seed (--rng-seed) must be in 0..{MASK64}, got {self.rng_seed}"
            )


@dataclass
class SearchReport:
    """Crack outcome plus per-probe accounting."""

    result: str | None
    chains_examined: int
    grover_invocations: int
    grover_iterations_total: int
    classical_fallbacks: int
    bucket_misses: int


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
    Every candidate row whose end hash matches is checked for an exact end
    plaintext match and then rebuilt, so 16-bit hash collisions cannot cause
    false positives or mask recoverable entries. Each suffix increments
    exactly one of bucket_misses, classical_fallbacks, grover_invocations.
    """
    query = normalize_digest(hash_hex)
    raw = bytes.fromhex(query)
    if perm.seed != table.perm_seed:
        raise ValueError(
            f"permutation seed {perm.seed} does not match table seed {table.perm_seed}"
        )
    report = SearchReport(
        result=None,
        chains_examined=0,
        grover_invocations=0,
        grover_iterations_total=0,
        classical_fallbacks=0,
        bucket_misses=0,
    )
    n = len(specs)
    for i in range(1, n + 1):
        report.chains_examined = i
        text = walk_chain(raw, specs[n - i:])
        h = pearson16(text, perm)
        key, residue = divmod(h, BUCKET_WIDTH)
        bucket = buckets.buckets.get(key)
        if bucket is None:
            report.bucket_misses += 1
            continue
        if not cfg.quantum_enabled or len(bucket) <= cfg.classical_threshold:
            report.classical_fallbacks += 1
            present = residue in bucket
        else:
            outcome = grover_search(
                bucket, residue, shots=cfg.shots, rng_seed=cfg.rng_seed
            )
            report.grover_invocations += 1
            report.grover_iterations_total += outcome.iterations
            present = outcome.decision
        if not present:
            continue
        for row in buckets.rows_for(h):
            if table.chains[row].end != text:
                continue
            candidate, candidate_hash = rebuild_chain(
                table.chains[row].start, specs[: n - i]
            )
            if candidate_hash == query:
                report.result = candidate
                return report
    return report


def crack_classical(hash_hex: str, table: RainbowTable, specs) -> str | None:
    """Baseline inversion: same suffix walk, membership by scanning every chain end."""
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
        for chain in table.chains:
            scanned += 1
            if chain.end != text:
                continue
            candidate, candidate_hash = rebuild_chain(chain.start, specs[: n - i])
            if candidate_hash == query:
                return candidate, scanned
    return None, scanned
