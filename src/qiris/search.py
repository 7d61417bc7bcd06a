"""Hybrid crack procedure and its classical baseline, over one suffix loop.

For each chain suffix the query hash is reduced to a candidate end plaintext.
The quantum path reads the candidate's bucket mask, whose bit count picks
the probe and whose bit at the 4-bit residue is its presence, and only then
finds the rows ending in the candidate by one search of its bucket's ends
in the index; the classical baseline compares the candidate with every
chain end instead, one O(N) scan of the table's end column per suffix. Any
hit is verified by rebuilding the chain and comparing MD5 digests, so both
paths only ever return true preimages. Both paths run in one loop,
`_probe`: `crack` turns the bucket path on, `crack_classical_scan` the scan
path, and `qiris compare` both, so each suffix is walked once and each row
both paths fetch is rebuilt once, while each path still finds its own rows.
The simulated Grover vote is checked once per config: `SearchConfig`
refuses one whose vote rejects a present residue in a bucket it sends to
Grover. An absent residue never receives a shot, so for an accepted config
the vote is membership, and `crack` decides every probe by whether the
residue is present.
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
    """Attempt to invert `hash_hex` against the table: `_probe` with the bucket path on.

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
    A permutation or an index whose row count or seed differs from the
    table's is refused.
    """
    query = normalize_digest(hash_hex)
    if perm.seed != table.perm_seed:
        raise ValueError(
            f"permutation seed {perm.seed} does not match table seed {table.perm_seed}"
        )
    return _probe(query, table, specs, buckets, cfg)[0]


def crack_classical(hash_hex: str, table: RainbowTable, specs) -> str | None:
    """Baseline inversion: same suffix walk, membership by scanning every chain end.

    Each suffix's candidate is compared with all N ends, one O(N)
    single-character search of the end column (`table.rows_ending`), and
    the matching rows are verified in row order.
    """
    result, _ = crack_classical_scan(hash_hex, table, specs)
    return result


def crack_classical_scan(hash_hex: str, table: RainbowTable, specs) -> tuple:
    """Classical crack plus the number of end-plaintext comparisons it made:
    `_probe` with the scan path on.

    Each suffix's pass compares the rows up to the verified match, or every
    row. The suffix walks and verify rebuilds are the ones `crack` makes;
    only the row lookup differs, the O(N) end-column scan against the
    bucket masks and `rows_for`.
    """
    return _probe(normalize_digest(hash_hex), table, specs, scan=True)[1:]


def _probe(query: str, table: RainbowTable, specs, index=None, cfg=None, scan=False) -> tuple:
    """The suffix loop of both crack paths, for the normalised digest `query`.

    The bucket path is on when `index` and `cfg` are given, the scan path
    when `scan` is true, and `qiris compare` turns both on. Each suffix is
    walked once. The bucket path finds the candidate's rows by its mask and
    `index.rows_for`, and counts the probe in its report; the scan path
    finds them by `table.rows_ending`, one O(N) pass over the end column,
    and counts the rows compared. The rows either path fetched are rebuilt
    once each, in ascending order, and a verified row counts only for a
    path that fetched it. A path stops at its first verified row, and the
    loop once every path that is on has stopped. Returns (report, result,
    scanned): the bucket path's report, None when it is off, and the scan
    path's result and count. An index whose row count or seed differs
    from the table's is refused.
    """
    raw = bytes.fromhex(query)
    n = len(specs)
    report = found = None
    scanned = 0
    bucket = index is not None  # this and `scan` stay true while their path probes
    if bucket:
        if len(index.rows) != len(table) or index.perm.seed != table.perm_seed:
            raise ValueError(
                f"index over {len(index.rows)} rows with seed {index.perm.seed} was not "
                f"built from this table ({len(table)} rows, seed {table.perm_seed})"
            )
        report = SearchReport(None, n)
        masks, perm, threshold = index.masks, index.perm, cfg.classical_threshold
    if scan:
        column = len(table.end_chars)  # the rows one pass compares; len(table) is a Python call
    # the suffix specs[depth:] reaches a chain end from the query at `depth`
    for depth in range(n - 1, -1, -1):
        text = walk_chain(raw, specs[depth:])
        if bucket:
            h = pearson16(text, perm)
            mask = masks[h // BUCKET_WIDTH]
            if not mask:
                report.bucket_misses += 1
                fetched = ()
            else:
                m = mask.bit_count()
                if m <= threshold:
                    report.classical_fallbacks += 1
                else:
                    report.grover_invocations += 1
                    report.grover_iterations_total += grover_iterations(m)
                fetched = index.rows_for(h, text) if mask >> h % BUCKET_WIDTH & 1 else ()
        if scan:
            rows = ending = table.rows_ending(text)
            scanned += column
            # a sound index fetches just the rows the scan finds
            if bucket and fetched and fetched != ending:
                rows = sorted({*fetched, *ending})
        elif fetched:
            rows = fetched
        else:
            continue
        for row in rows:
            plain, digest = rebuild_chain(table.starts[row], specs[:depth])
            if digest == query:
                if bucket and row in fetched:
                    report.result, report.chains_examined, bucket = plain, n - depth, False
                if scan and row in ending:
                    found, scan = plain, False
                    # the pass compared only the rows up to the verified one
                    scanned -= column - row - 1
                if not (bucket or scan):
                    return report, found, scanned
    return report, found, scanned
