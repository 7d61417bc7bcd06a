"""The three QIris workloads and the checks on their outputs.

Inputs are made here from the workload seed; qiris only ever sees the
generated words, table files and digests. Load is one client in a closed
loop: the next operation is issued only after the previous one returned.
Expected answers come from a reference chain walk written with hashlib, not
from qiris, so the checks do not trust the code under test.
"""

import contextlib
import dataclasses
import gc
import hashlib
import io
import random
import statistics
import time
from array import array
from dataclasses import dataclass

BASE62 = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
# (nonce, length) of R1..R4, the canonical chain every table file uses
CHAIN_SPECS = ((2, 6), (3, 4), (4, 5), (1, 3))
PERM_SEED = 44
DEFAULT_SEED = 1
# Timings are reported at the machine speed at which the reference loop in
# `Speed` takes this long: about its time in the fast state of the machine
# the benchmark was written on (2 vCPUs of a shared Intel Xeon host).
REFERENCE_S = 100e-6

# sha256 of the generated table file and of the `compare` CSV at the default
# seed and full scale. Table files and CSV rows must stay byte-identical.
PINNED = {
    "generate-1e5": {
        "table": "21274935f0d5fe32dfc709bb5b176abbf4d5b0e7681390d04329c49534824252",
        "compare_csv": "45ab22768bc4d6af77fddc982f2635f944554a2be0fc664ce4bcd8991dce6737",
    },
    "crack-dense-1e5": {
        "table": "21274935f0d5fe32dfc709bb5b176abbf4d5b0e7681390d04329c49534824252",
        "compare_csv": "714349cd0d6aecb1c36d584086d8e253efab84e4b391641309cbc0f17a1305d1",
    },
    "crack-sparse-1e3": {  # the 64 table files, concatenated in order
        "table": "8551612a051364cfebd9ca89dba418d8a98f7347d14eabbc0aa047fad924858b",
        "compare_csv": "a3fac24820f49ccaf3bac352e3996b20f1f90871f26ee84d8c8933d68b1297e9",
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    chains: int  # words per generated table file
    tables: int  # independent tables of that size; the read phases rotate over them
    read_chains: int  # leading rows of each file that the read phases open
    gen_words: int  # leading words of each table that one timed generate pass writes
    setup: str  # what setup_s times: "permutation", or "open" (load + perm + buckets)
    setup_units: int  # setup operations per round, over the tables in turn
    queries: int  # crack queries per mix per round, over the tables in turn
    classical: int  # crack_classical_scan queries per round, half hits, half misses
    compare_rows: int  # digests in the hash file of one `compare` pass
    gen_passes: int  # generate passes per round
    compare_passes: int  # `compare` passes per round


WORKLOADS = {
    w.name: w
    for w in (
        # The write path: chain walk and pearson16 dominate. The read phases
        # open the file's first 1e4 rows, a table whose shape is steady
        # across seeds, so every metric exists while generation keeps about
        # half of the time.
        Workload("generate-1e5", 100_000, 1, 10_000, 100_000, "permutation", 3,
                 queries=2000, classical=200, compare_rows=200, gen_passes=1,
                 compare_passes=1),
        # Every bucket occupied (mean m ~11.4): every probe goes to Grover and
        # most pass the filter into the O(N) row scan. Setup and `compare`
        # are long single calls, so a round makes several of each.
        Workload("crack-dense-1e5", 100_000, 1, 100_000, 10_000, "open", 5,
                 queries=1000, classical=100, compare_rows=10, gen_passes=6,
                 compare_passes=5),
        # ~890 of 4096 buckets occupied, 99% with m <= 2: probes end at a bucket
        # miss or the classical fallback, so index and Grover work is bypassed.
        # One such table has only ~8 buckets with m >= 3, so the share of
        # queries that reach Grover (0.7-2.6% of hits, ~0.8% of misses)
        # straddles the 1% that p99 sits on; rotating 8000 queries per mix over
        # 64 tables keeps that share steady from seed to seed.
        Workload("crack-sparse-1e3", 1_000, 64, 1_000, 1_000, "open", 8,
                 queries=8000, classical=200, compare_rows=1000, gen_passes=1,
                 compare_passes=1),
    )
}


def tiny(w):
    """The same workload at a size that runs in about a second."""
    chains = max(200, w.chains // 50)
    read = chains if w.read_chains == w.chains else max(100, w.read_chains // 50)
    tables = min(w.tables, 2)
    return dataclasses.replace(
        w, chains=chains, tables=tables, read_chains=read, gen_words=min(chains, w.gen_words),
        setup_units=min(w.setup_units, tables), queries=30, classical=6, compare_rows=20)


def make_words(rng, n):
    """`n` distinct ASCII base62 words of 6-10 characters."""
    seen = set()
    words = []
    while len(words) < n:
        word = "".join(rng.choices(BASE62, k=rng.randint(6, 10)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def md5(text):
    return hashlib.md5(text.encode("ascii")).hexdigest()


def chain_texts(word):
    """Plaintexts at depths 0..4 of the chain that starts at `word`."""
    texts = [word]
    for nonce, length in CHAIN_SPECS:
        v = int(md5(texts[-1])[:8], 16) + nonce
        chars = []
        for _ in range(length):
            chars.append(BASE62[v % 62])
            v //= 62
        texts.append("".join(chars))
    return texts


class Queries:
    """Seeded hit and miss digests over the first `rows` words.

    A hit is the MD5 of a chain text at depth 0-3 of a uniformly drawn row;
    a miss is a random 128-bit digest, which no chain can verify against.
    """

    def __init__(self, seed, purpose, words, rows):
        self._rng = random.Random(f"{seed}:{purpose}")
        self._words = words
        self._rows = rows

    def hit(self):
        row = self._rng.randrange(self._rows)
        depth = self._rng.randrange(4)
        return md5(chain_texts(self._words[row])[depth])

    def miss(self):
        return f"{self._rng.getrandbits(128):032x}"


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = -(-len(sorted_values) * p // 100)
    return sorted_values[max(1, rank) - 1]


class Speed:
    """An interleaved reference loop that tracks how fast the machine runs now.

    The loop does the kind of work qiris does, MD5 digests, hex and integer
    conversions and a list scan, on data small enough to stay in cache
    whatever ran before it; it calls no qiris code. It is timed at most every
    SAMPLE_EVERY seconds, and `sample` returns the latest timing. The host
    this was written on runs whole stretches of seconds about 1.7x slower
    (CPU time grows with wall time, so this is not preemption), and that
    slows the loop and qiris alike.
    """

    SAMPLE_EVERY = 0.01

    def __init__(self):
        rng = random.Random(0)
        self.words = [f"{rng.getrandbits(64):x}".encode() for _ in range(64)]
        self.ints = [rng.getrandbits(16) for _ in range(2_000)]
        self.times = []
        self.last = float("-inf")

    def _loop(self):
        total = 0
        for word in self.words:
            total += int(hashlib.md5(word).hexdigest()[:8], 16) % 62
        return total + len([i for i, v in enumerate(self.ints) if v == total])

    def sample(self):
        if time.perf_counter() - self.last >= self.SAMPLE_EVERY:
            self._loop()  # warm-up: whatever ran before may have left the caches cold
            t0 = time.perf_counter()
            self._loop()
            self.last = time.perf_counter()
            self.times.append(self.last - t0)
        return self.times[-1]


class Session:
    """One run of one workload: makes inputs, drives qiris, checks every output.

    The timed operations are a fixed, seed-determined list: the setup calls,
    the generate passes, the crack queries of both mixes, the classical
    scans and the `compare` passes. A round runs every operation once, in an
    order shuffled per round, so the phases interleave. A timed run repeats
    rounds until `seconds` have passed; the first round always completes. Around
    every operation the `Speed` loop is sampled, and each elapsed time is
    scaled by REFERENCE_S / (mean loop time before and after it): figures are
    given at one fixed machine speed, so a run that lands in a slow stretch
    of a shared host reads the same as one that does not. Each operation's
    figure is the median of its scaled times over the rounds. With `seconds`
    None the run makes exactly one round, so it is a pure function of the
    seed.
    """

    def __init__(self, qiris, workload, seed, seconds, workdir, pin):
        self.q = qiris
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.pin = pin
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = {}
        self.shape = {}
        self.values = {}
        self.raw_values = {}
        self.artifacts = {}

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def check_answer(self, kind, digest, result, path):
        if kind == "hit":
            self.check(result is not None and md5(result) == digest,
                       f"{path} returned {result!r} for hit {digest}")
        else:
            self.check(result is None, f"{path} returned {result!r} for miss {digest}")

    def run(self):
        w, q = self.w, self.q
        self.specs = q.canonical_reduction_specs()
        self.perm = q.build_permutation(PERM_SEED)
        self.words = [make_words(random.Random(f"{self.seed}:words:{k}"), w.chains)
                      for k in range(w.tables)]
        self.table_paths = [self.workdir / f"table{k}.txt" for k in range(w.tables)]
        self.gen_paths = [self.workdir / f"gen{k}.txt" for k in range(w.tables)]
        for words, path in zip(self.words, self.table_paths):
            q.save_table(q.generate_table(words, self.specs, self.perm), path)
        self.read_paths = self.table_paths
        if w.read_chains < w.chains:
            self.read_paths = [p.with_name("read_" + p.name) for p in self.table_paths]
            for path, read_path in zip(self.table_paths, self.read_paths):
                self._copy_head(path, read_path, w.read_chains)
        # every table file names PERM_SEED, so the queries share one permutation
        self.opened = [self._load(k) for k in range(w.tables)]
        self._check_table_files()
        self._shape()

        # the fixed operations: one hit and one miss per crack slot, on the tables in turn
        queries = [Queries(self.seed, f"crack:{k}", words, w.read_chains)
                   for k, words in enumerate(self.words)]
        self.crack_ops = []
        for j in range(w.queries):
            k = j % w.tables
            self.crack_ops += [(k, "hit", queries[k].hit()), (k, "miss", queries[k].miss())]
        # a seeded subset of the crack queries, as many hits as misses
        picks = random.Random(f"{self.seed}:classical").sample(range(w.queries), w.classical // 2)
        self.classical_ops = sorted(2 * j + m for j in picks for m in (0, 1))
        self._write_hashes()

        ops = ([("setup", i) for i in range(w.setup_units)]
               + [("generate", i) for i in range(w.gen_passes)]
               + [("crack", j) for j in range(len(self.crack_ops))]
               + [("classical", j) for j in self.classical_ops]
               + [("compare", i) for i in range(w.compare_passes)])
        steps = {"setup": self._setup, "generate": self._generate, "crack": self._crack,
                 "classical": self._classical, "compare": self._compare}
        self.timings = {op: (array("d"), array("d")) for op in ops}  # elapsed, reference
        self.results = {}
        self.digests = {"generate": set(), "compare": set()}
        self.speed = Speed()
        self.rounds = 0
        # Keep the collector off the inputs held here, as in a `qiris` process
        # that holds only its own table.
        gc.collect()
        gc.freeze()
        try:
            self._rounds(ops, steps)
        finally:
            gc.unfreeze()
        self._finish()

    def _rounds(self, ops, steps):
        """Run rounds of `ops` until time is up, sampling the reference loop around each."""
        start = time.perf_counter()

        def over():
            return (self.seconds is not None and self.rounds >= 1
                    and time.perf_counter() - start >= self.seconds)

        while True:
            order = ops[:]
            random.Random(f"{self.seed}:round:{self.rounds}").shuffle(order)
            for op in order:
                before = self.speed.sample()
                elapsed = steps[op[0]](op[1])
                after = self.speed.sample()
                if elapsed is not None:
                    self.timings[op][0].append(elapsed)
                    self.timings[op][1].append((before + after) / 2)
                if over():
                    return
            self.rounds += 1
            if self.seconds is None or over():
                return

    @staticmethod
    def _copy_head(src_path, dst_path, rows):
        """The header and first `rows` rows of a table file."""
        with open(src_path, "rb") as src, open(dst_path, "wb") as dst:
            for _ in range(rows + 1):
                dst.write(src.readline())

    def _open(self, k):
        """What `qiris crack` does before its first query."""
        table = self.q.load_table(self.read_paths[k])
        self.q.build_permutation(table.perm_seed)
        self.q.build_buckets(table)

    def _load(self, k):
        table = self.q.load_table(self.read_paths[k])
        self.check(len(table.chains) == self.w.read_chains, "opened table has wrong row count")
        self.check(table.perm_seed == PERM_SEED, "opened table has the wrong permutation seed")
        return table, self.q.build_buckets(table)

    def _setup(self, i):
        t0 = time.perf_counter()
        if self.w.setup == "open":
            self._open(i % self.w.tables)
        else:
            self.q.build_permutation(PERM_SEED)
        return time.perf_counter() - t0

    def _generate(self, _):
        n = self.w.gen_words
        t0 = time.perf_counter()
        for words, path in zip(self.words, self.gen_paths):
            self.q.save_table(self.q.generate_table(words[:n], self.specs, self.perm), path)
        elapsed = time.perf_counter() - t0
        digest = hashlib.sha256()
        for path in self.gen_paths:
            digest.update(path.read_bytes())
        self.digests["generate"].add(digest.hexdigest())
        return elapsed

    def _check_table_files(self):
        rng = random.Random(f"{self.seed}:table-sample")
        for words, path in zip(self.words, self.table_paths):
            with open(path, "r", encoding="ascii", newline="") as fh:
                lines = fh.read().split("\n")
            self.check(lines[0] == f"QIRIS v1 seed={PERM_SEED} chain=R1,R2,R3,R4",
                       "table header")
            self.check(len(lines) == len(words) + 2 and lines[-1] == "", "table row count")
            for row in rng.sample(range(len(words)), min(len(words), 300)):
                expected = f"{words[row]}\t{chain_texts(words[row])[4]}"
                self.check(lines[row + 1] == expected, f"{path.name} row {row} is not the chain")

    def _shape(self):
        """Bucket occupancy of the opened tables, seen from outside through build_buckets."""
        ms = []
        occupied = []
        for table, _ in self.opened:
            index = self.q.build_buckets(table)
            sizes = [len(set(residues)) for residues in index.buckets.values()]
            occupied.append(len(sizes))
            ms += sizes
        threshold = self.q.SearchConfig().classical_threshold
        self.shape = {
            "tables": len(self.opened),
            "rows_per_table": self.w.read_chains,
            "buckets_occupied_per_table": occupied,
            "mean_m": statistics.fmean(ms),
            "m_histogram": {m: ms.count(m) for m in sorted(set(ms))},
            "share_m_le_classical_threshold": sum(m <= threshold for m in ms) / len(ms),
            "classical_threshold": threshold,
        }

    def _answer(self, path, j, result):
        """Check one answer, and that every round gives the same one."""
        k, kind, digest = self.crack_ops[j]
        self.check_answer(kind, digest, result, path)
        first = self.results.setdefault((path, j), result)
        self.check(result == first, f"{path} {digest} gave {result!r}, earlier {first!r}")

    def _crack(self, j):
        k, _, digest = self.crack_ops[j]
        table, buckets = self.opened[k]
        t0 = time.perf_counter()
        try:
            result = self.q.crack(digest, table, buckets, self.perm, self.specs).result
        except Exception as exc:  # a failed op is counted and the run goes on
            self.check(False, f"crack {digest} raised {exc!r}")
            return None
        elapsed = time.perf_counter() - t0
        self._answer("crack", j, result)
        return elapsed

    def _classical(self, j):
        k, _, digest = self.crack_ops[j]
        t0 = time.perf_counter()
        result, _ = self.q.crack_classical_scan(digest, self.opened[k][0], self.specs)
        elapsed = time.perf_counter() - t0
        self._answer("classical", j, result)
        return elapsed

    def _write_hashes(self):
        queries = Queries(self.seed, "compare", self.words[0], self.w.read_chains)
        self.expected = []
        for i in range(self.w.compare_rows):
            hit = i % 2 == 0
            self.expected.append((queries.hit() if hit else queries.miss(), hit))
        self.hashes_path = self.workdir / "hashes.txt"
        self.hashes_path.write_text("".join(f"{d}\n" for d, _ in self.expected), encoding="ascii")

    def _compare(self, _):
        argv = ["compare", "--table", str(self.read_paths[0]), "--hashes", str(self.hashes_path)]
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = self.q.cli.main(argv)
        elapsed = time.perf_counter() - t0
        text = out.getvalue()
        self.digests["compare"].add(hashlib.sha256(text.encode()).hexdigest())
        self.check(code == 0, f"compare exited {code}")
        lines = text.split("\n")
        self.check(lines[0].startswith("hash,found_q,found_c,agree,"), "compare CSV header")
        rows = [line.split(",") for line in lines[1:] if line]
        self.check(len(rows) == len(self.expected), f"compare printed {len(rows)} rows")
        for row, (digest, hit) in zip(rows, self.expected):
            flag = "true" if hit else "false"
            self.check(row[:4] == [digest, flag, flag, "true"], f"compare row {row[:4]}")
        return elapsed

    def _check_pinned(self, artifact, digest):
        expected = PINNED[self.w.name][artifact] if self.pin else None
        if expected is not None:
            self.check(digest == expected, f"{artifact} sha256 {digest} != pinned {expected}")

    def _finish(self):
        w = self.w
        # the timed generate pass writes the same bytes every round, and the
        # same bytes as the head of the full table file
        self.check(len(self.digests["generate"]) == 1, "generate passes wrote different bytes")
        self.check(len(self.digests["compare"]) == 1, "compare passes printed different CSVs")
        head = hashlib.sha256()
        for path, gen_path in zip(self.table_paths, self.gen_paths):
            self._copy_head(path, gen_path, w.gen_words)
            head.update(gen_path.read_bytes())
        self.check(head.hexdigest() in self.digests["generate"],
                   "generate pass differs from the table file's head")
        table = hashlib.sha256()
        for path in self.table_paths:
            table.update(path.read_bytes())
        artifacts = {"table": table.hexdigest(), "compare_csv": min(self.digests["compare"])}
        for artifact, digest in artifacts.items():
            self._check_pinned(artifact, digest)
        self.artifacts = artifacts
        for op in self.classical_ops:
            hybrid, classical = self.results.get(("crack", op)), self.results.get(("classical", op))
            self.check(hybrid == classical,
                       f"hybrid {hybrid!r} != classical {classical!r} on {self.crack_ops[op][2]}")

        self.values = self._metrics(REFERENCE_S)
        self.raw_values = self._metrics(None)
        self.samples = {
            "rounds": self.rounds,
            "reference_probes": len(self.speed.times),
            "reference_fastest_ms": min(self.speed.times) * 1e3,
            "reference_median_ms": statistics.median(self.speed.times) * 1e3,
            "reference_deciles_ms": [x * 1e3 for x in statistics.quantiles(self.speed.times, n=10)],
            "setup_ops": w.setup_units,
            "hit_queries": w.queries,
            "miss_queries": w.queries,
            "classical_queries": len(self.classical_ops),
            "compare_rows": w.compare_rows,
            "generate_chains_per_pass": w.tables * w.gen_words,
            "generate_passes_per_round": w.gen_passes,
            "compare_passes_per_round": w.compare_passes,
        }

    def _metrics(self, reference):
        """The end-to-end figures, each operation scaled to the reference speed `reference`.

        An operation's time is the median over its rounds of elapsed *
        reference / (reference loop time around it); with `reference` None
        the times are left as measured.
        """
        w = self.w

        def t(op):
            elapsed, ref = self.timings[op]
            return statistics.median(
                elapsed if reference is None else [e * reference / r for e, r in zip(elapsed, ref)])

        v = {"setup_s": statistics.median(t(("setup", i)) for i in range(w.setup_units)),
             "generate_chains_per_s": w.tables * w.gen_words / statistics.median(
                 t(("generate", i)) for i in range(w.gen_passes))}
        for kind in ("hit", "miss"):
            s = sorted(t(("crack", j)) for j, op in enumerate(self.crack_ops)
                       if op[1] == kind and self.timings[("crack", j)][0])
            v[f"{kind}_qps"] = len(s) / sum(s)
            v[f"{kind}_p50_ms"] = percentile(s, 50) * 1e3
            v[f"{kind}_p99_ms"] = percentile(s, 99) * 1e3
        v["classical_qps"] = len(self.classical_ops) / sum(
            t(("classical", j)) for j in self.classical_ops)
        v["compare_rows_per_s"] = w.compare_rows / statistics.median(
            t(("compare", i)) for i in range(w.compare_passes))
        return v
