"""Command-line front end: generate tables, crack hashes, compare search paths.

Exit codes: 0 success, 1 not-found or quantum/classical disagreement,
2 usage or format error. All randomness flows from --perm-seed (table
construction) and --rng-seed (measurement sampling).
"""

import argparse
import sys

from .hashing import (
    DEFAULT_PERM_SEED,
    build_permutation,
    canonical_reduction_specs,
    normalize_digest,
)
from .prng import MASK64
from .rainbow_table import (
    _check_plaintext,
    _read_lines,
    build_buckets,
    generate_table,
    load_table,
    save_table,
)
from .search import SearchConfig, crack, crack_classical_scan

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_USAGE = 2

COMPARE_CSV_HEADER = (
    "hash,found_q,found_c,agree,"
    "grover_invocations,grover_iterations_total,classical_scan_length"
)

_REPORT_FIELDS = (
    "chains_examined",
    "grover_invocations",
    "grover_iterations_total",
    "classical_fallbacks",
    "bucket_misses",
)


def _read_wordlist(path):
    words = []
    for lineno, line in enumerate(_read_lines(path, "wordlist line"), start=1):
        if line:
            _check_plaintext(line, f"wordlist line {lineno}")
            words.append(line)
    if not words:
        raise ValueError("wordlist is empty")
    return words


def _read_hashes(path):
    digests = []
    for lineno, line in enumerate(_read_lines(path, "hashes line"), start=1):
        if line == "":
            continue
        try:
            digests.append(normalize_digest(line))
        except ValueError:
            raise ValueError(f"hashes line {lineno}: not a 32-character hex digest")
    return digests


def _load_search_context(table_path):
    table = load_table(table_path)
    index = build_buckets(table)
    return table, index, index.perm


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        shots=args.shots,
        classical_threshold=args.classical_threshold,
        rng_seed=args.rng_seed,
        quantum_enabled=not args.no_quantum,
    )


def cmd_generate(args) -> int:
    if not 0 <= args.perm_seed <= MASK64:
        raise ValueError(f"--perm-seed must be in 0..{MASK64}, got {args.perm_seed}")
    words = _read_wordlist(args.wordlist)
    perm = build_permutation(args.perm_seed)
    table = generate_table(words, canonical_reduction_specs(), perm)
    save_table(table, args.out)
    print(f"chains={len(table.chains)}")
    print(f"buckets={len(build_buckets(table).buckets)}")
    return EXIT_OK


def cmd_crack(args) -> int:
    digest = normalize_digest(args.hash)
    cfg = _search_config(args)
    table, buckets, perm = _load_search_context(args.table)
    report = crack(digest, table, buckets, perm, canonical_reduction_specs(), cfg)
    if report.result is not None:
        print(report.result)
    if args.report:
        for field in _REPORT_FIELDS:
            print(f"{field}={getattr(report, field)}")
    if report.result is not None:
        return EXIT_OK
    print("not found", file=sys.stderr)
    return EXIT_NOT_FOUND


def cmd_compare(args) -> int:
    digests = _read_hashes(args.hashes)
    cfg = _search_config(args)
    table, buckets, perm = _load_search_context(args.table)
    specs = canonical_reduction_specs()
    print(COMPARE_CSV_HEADER)
    all_agree = True
    for digest in digests:
        report = crack(digest, table, buckets, perm, specs, cfg)
        classical, scanned = crack_classical_scan(digest, table, specs)
        agree = report.result == classical
        all_agree = all_agree and agree
        row = (
            digest,
            _bool_str(report.result is not None),
            _bool_str(classical is not None),
            _bool_str(agree),
            str(report.grover_invocations),
            str(report.grover_iterations_total),
            str(scanned),
        )
        print(",".join(row))
    return EXIT_OK if all_agree else EXIT_NOT_FOUND


def _bool_str(value: bool) -> str:
    return "true" if value else "false"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qiris",
        description="Rainbow-table MD5 cracking with a simulated quantum bucket search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="precompute a table from a wordlist")
    gen.add_argument("--wordlist", required=True, help="one plaintext per line")
    gen.add_argument("--out", required=True, help="table file to write")
    gen.add_argument("--perm-seed", type=int, default=DEFAULT_PERM_SEED)
    gen.set_defaults(func=cmd_generate)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--table", required=True, help="table file from `generate`")
    common.add_argument("--shots", type=int, default=1024)
    common.add_argument("--rng-seed", type=int, default=7)
    common.add_argument("--classical-threshold", type=int, default=2)
    common.add_argument(
        "--no-quantum",
        action="store_true",
        help="route every bucket probe through the classical membership test",
    )

    crack_p = sub.add_parser(
        "crack", parents=[common], help="recover the plaintext for one MD5 digest"
    )
    crack_p.add_argument("--report", action="store_true", help="print probe counters")
    crack_p.add_argument("hash", help="32-character hex digest")
    crack_p.set_defaults(func=cmd_crack)

    cmp_p = sub.add_parser(
        "compare",
        parents=[common],
        help="run quantum and classical cracks side by side, emitting CSV",
    )
    cmp_p.add_argument("--hashes", required=True, help="one hex digest per line")
    cmp_p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
