"""Command-line front end: generate tables, crack hashes, compare search paths.

Exit codes: 0 success, 1 not-found or quantum/classical disagreement,
2 usage or format error. All randomness flows from --perm-seed (table
construction) and --rng-seed (measurement sampling). Each input is checked
once: a wordlist's words by the row check of the table they make (a refused
row names its line), a digest by one normalisation.
"""

import argparse
import dataclasses
import sys
from itertools import compress, count, islice

from .hashing import DEFAULT_PERM_SEED, canonical_reduction_specs, normalize_digest
from .prng import MASK64
from .rainbow_table import (
    BUCKET_WIDTH,
    _check_plaintext,
    _clip,
    _permutation,
    _read_bytes,
    build_buckets,
    generate_table,
    load_table,
    save_table,
)
from .search import SearchConfig, SearchReport, _probe

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_USAGE = 2

COMPARE_CSV_HEADER = (
    "hash,found_q,found_c,agree,"
    "grover_invocations,grover_iterations_total,classical_scan_length"
)

# the longest hashes line read, its newline counted: a digest line takes 33 bytes
_MAX_HASHES_LINE = 64

_REPORT_FIELDS = tuple(f.name for f in dataclasses.fields(SearchReport) if f.name != "result")


def _read_hashes(path):
    """The digests of a hashes file, one a line, read a line at a time.

    A line longer than _MAX_HASHES_LINE bytes ends the read at once, so an
    endless line is never held, and a CRLF line is refused at once. The
    first bad digest, or that long line, is named once reading has ended.
    """
    digests, bad = [], None
    with open(path, "rb") as fh:
        for lineno, line in enumerate(iter(lambda: fh.readline(_MAX_HASHES_LINE + 1), b""), 1):
            if len(line) > _MAX_HASHES_LINE:
                bad = bad or lineno
                break
            if line.endswith(b"\r\n"):
                raise ValueError(f"hashes line {lineno}: file has CRLF line endings; use LF")
            line = line.removesuffix(b"\n").decode("latin-1")
            if not line:
                continue
            try:
                digests.append(normalize_digest(line))
            except ValueError:
                bad = bad or lineno
    if bad:
        raise ValueError(f"hashes line {bad}: not a 32-character hex digest")
    return digests


def cmd_generate(args) -> int:
    if not 0 <= args.perm_seed <= MASK64:
        raise ValueError(f"--perm-seed must be in 0..{MASK64}, got {_clip(args.perm_seed)}")
    lines = _read_bytes(args.wordlist, "wordlist line").decode("latin-1").split("\n")
    perm = _permutation(args.perm_seed)
    try:
        table = generate_table(filter(None, lines), canonical_reduction_specs(), perm)
    except ValueError as exc:
        if hasattr(exc, "row"):  # a refused word: name its line, the row-th non-empty one
            lineno = next(islice(compress(count(1), lines), exc.row, None))
            _check_plaintext(lines[lineno - 1], f"wordlist line {lineno}")
        raise
    save_table(table, args.out)
    print(f"chains={len(table)}")
    print(f"buckets={sum(1 for mask in build_buckets(table).masks if mask)}")
    return EXIT_OK


def cmd_crack(args) -> int:
    digest = normalize_digest(args.hash)
    cfg = SearchConfig(args.shots, args.classical_threshold, args.rng_seed)
    table = load_table(args.table)
    index = build_buckets(table)
    report = _probe(digest, table, canonical_reduction_specs(), index, cfg)[0]
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
    cfg = SearchConfig(args.shots, args.classical_threshold, args.rng_seed)
    table = load_table(args.table)
    index = build_buckets(table)
    specs = canonical_reduction_specs()
    print(COMPARE_CSV_HEADER)
    all_agree = True
    for digest in digests:
        # one suffix loop with both paths on: each suffix walked, each row rebuilt, once
        report, classical, scanned = _probe(digest, table, specs, index, cfg, scan=True)
        agree = report.result == classical
        all_agree = all_agree and agree
        found = (report.result is not None, classical is not None, agree)
        counts = (report.grover_invocations, report.grover_iterations_total, scanned)
        print(",".join([digest, *(str(flag).lower() for flag in found), *map(str, counts)]))
    return EXIT_OK if all_agree else EXIT_NOT_FOUND


def _int(text: str) -> int:
    """An integer flag value: an optional "-" and ASCII digits, nothing else.

    int() alone would also take spaces, "_", "+" and non-ASCII digits.
    Every refusal is argparse's message for a refused int.
    """
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            return int(text)
        except ValueError:  # past int()'s digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors, as do its subparsers (`parser_class`), for `main` to report."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qiris",
        description="Rainbow-table MD5 cracking with a simulated quantum bucket search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="precompute a table from a wordlist")
    gen.add_argument("--wordlist", required=True, help="one plaintext per line")
    gen.add_argument("--out", required=True, help="table file to write")
    gen.add_argument("--perm-seed", type=_int, default=DEFAULT_PERM_SEED)
    gen.set_defaults(func=cmd_generate)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--table", required=True, help="table file from `generate`")
    common.add_argument("--shots", type=_int, default=SearchConfig.shots)
    common.add_argument("--rng-seed", type=_int, default=SearchConfig.rng_seed)
    routing = common.add_mutually_exclusive_group()
    routing.add_argument(
        "--classical-threshold", type=_int, default=SearchConfig.classical_threshold
    )
    routing.add_argument(
        "--no-quantum",
        dest="classical_threshold",
        action="store_const",
        const=BUCKET_WIDTH,
        help=f"same as --classical-threshold {BUCKET_WIDTH}: no probe runs Grover",
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
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:
        # a message may echo any input; bounded, it is one line under 300 bytes
        print(f"error: {_clip(str(exc), 280)}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
