"""QIris: hybrid quantum-classical rainbow table attack on MD5 hashes.

Classical hash chains with base62 reductions are bucketed by a 16-bit
Pearson hash; at crack time, bucket membership is decided by a simulated
Grover search over the bucket's 4-bit residues.
"""

from .hashing import (
    BASE62_ALPHABET,
    DEFAULT_PERM_SEED,
    PearsonPermutation,
    ReductionSpec,
    build_permutation,
    canonical_reduction_specs,
    md5_hex,
    normalize_digest,
    pearson16,
    reduce,
)
from .prng import SplitMix64
from .quantum_sim import (
    GroverOutcome,
    apply_oracle,
    basis_bitstring,
    grover_iterations,
    grover_search,
    measure,
    prepare_state,
    reflect_about,
)
from .rainbow_table import (
    BucketIndex,
    Chain,
    RainbowTable,
    build_buckets,
    generate_table,
    load_table,
    save_table,
)
from .search import (
    SearchConfig,
    SearchReport,
    crack,
    crack_classical,
    crack_classical_scan,
    rebuild_chain,
)

__version__ = "0.1.0"

__all__ = [
    "BASE62_ALPHABET",
    "BucketIndex",
    "Chain",
    "DEFAULT_PERM_SEED",
    "GroverOutcome",
    "PearsonPermutation",
    "RainbowTable",
    "ReductionSpec",
    "SearchConfig",
    "SearchReport",
    "SplitMix64",
    "apply_oracle",
    "basis_bitstring",
    "build_buckets",
    "build_permutation",
    "canonical_reduction_specs",
    "crack",
    "crack_classical",
    "crack_classical_scan",
    "generate_table",
    "grover_iterations",
    "grover_search",
    "load_table",
    "md5_hex",
    "measure",
    "normalize_digest",
    "pearson16",
    "prepare_state",
    "rebuild_chain",
    "reduce",
    "reflect_about",
    "save_table",
]
