"""Call tracing for the benchmark's per-layer run.

The tracer wraps the public functions of each qiris module and installs the
wrappers in every qiris namespace that binds them. The package binds names
with `from .hashing import reduce`, so a wrapper placed only in
`qiris.hashing` would miss the callers in `qiris.search`, `qiris.cli` and the
other modules. Every wrapper returns the callee's value unchanged and records
one span: its name, start, end and parent span. Spans stay in memory in
compact arrays and are reduced to per-function call counts and self times
(span time minus the child spans inside it) when the run ends.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("prng", "hashing", "quantum_sim", "rainbow_table", "search", "cli")

# The CLI's other public functions are argparse callbacks behind `main`;
# only the entry point is a call made into the layer.
_ONLY = {"cli": ("main",)}


class Tracer:
    """Span recorder for calls into the qiris layers; install, run, uninstall."""

    def __init__(self):
        self.names = []
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters = Counter()
        self.grover_keys = set()
        self._stack = [-1]
        self._patched = []
        self._hooks = {
            "search.crack": self._on_crack,
            "search.crack_classical_scan": self._on_classical_scan,
            "rainbow_table.end_hash_indices": self._on_end_hash_indices,
            "quantum_sim.grover_search": self._on_grover_search,
        }

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qiris.{layer}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__ or attr not in _ONLY.get(layer, (attr,)):
                    continue
                wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qiris" and not mod_name.startswith("qiris."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    def _wrap(self, qualname, fn):
        index = len(self.names)
        self.names.append(qualname)
        hook = self._hooks.get(qualname)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(index)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if hook is not None:
                hook(sid, args, kwargs, result)
            return result

        return traced

    # Hooks read only the arguments and results that callers already see.

    def _on_crack(self, sid, args, kwargs, report):
        c = self.counters
        c["crack_calls"] += 1
        c["probes"] += report.chains_examined
        c["bucket_misses"] += report.bucket_misses
        c["classical_fallbacks"] += report.classical_fallbacks
        c["grover_invocations"] += report.grover_invocations
        c["crack_found"] += report.result is not None

    def _on_classical_scan(self, sid, args, kwargs, result):
        found, scanned = result
        self.counters["classical_scan_length"] += scanned
        self.counters["classical_found"] += found is not None

    def _on_end_hash_indices(self, sid, args, kwargs, rows):
        # the seed lookup walks every row of the table on each call
        self.counters["rows_scanned"] += len(args[0].chains)
        parent = self.parent[sid]
        if parent >= 0 and self.names[self.name[parent]] == "search.crack":
            self.counters["filter_passes"] += 1

    def _on_grover_search(self, sid, args, kwargs, outcome):
        self.counters["grover_iterations_total"] += outcome.iterations
        self.counters["grover_accepts"] += bool(outcome.decision)
        self.grover_keys.add((frozenset(args[0]), *args[1:], *sorted(kwargs.items())))

    def summary(self):
        """Per-function call counts and summed self times in nanoseconds."""
        n = len(self.start)
        k = len(self.names)
        if n == 0:
            return {}, {}
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.uint16)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_ns = dur - child
        calls = np.bincount(name, minlength=k)
        self_total = np.bincount(name, weights=self_ns, minlength=k)
        return (
            {q: int(calls[i]) for i, q in enumerate(self.names)},
            {q: float(self_total[i]) for i, q in enumerate(self.names)},
        )


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, overhead_ratio):
    """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""
    calls, self_ns = tracer.summary()
    c = tracer.counters

    def count(fn):
        return calls.get(fn, 0)

    def self_time(fn, scale):
        return self_ns.get(fn, 0.0) / scale

    us, ms, s = 1e3, 1e6, 1e9
    metrics = {
        "hashing.build_permutation_ms": (self_time("hashing.build_permutation", ms), "ms"),
        "hashing.reduce_calls": (count("hashing.reduce"), "count"),
        "hashing.reduce_us": (self_time("hashing.reduce", us), "us"),
        "hashing.normalize_digest_calls": (count("hashing.normalize_digest"), "count"),
        "hashing.md5_hex_calls": (count("hashing.md5_hex"), "count"),
        "hashing.md5_hex_us": (self_time("hashing.md5_hex", us), "us"),
        "hashing.pearson16_calls": (count("hashing.pearson16"), "count"),
        "hashing.pearson16_us": (self_time("hashing.pearson16", us), "us"),
        "prng.unit_floats_calls": (count("prng.unit_floats"), "count"),
        "prng.unit_floats_us": (self_time("prng.unit_floats", us), "us"),
        "rainbow_table.generate_table_s": (self_time("rainbow_table.generate_table", s), "s"),
        "rainbow_table.save_table_s": (self_time("rainbow_table.save_table", s), "s"),
        "rainbow_table.load_table_s": (self_time("rainbow_table.load_table", s), "s"),
        "rainbow_table.build_buckets_ms": (self_time("rainbow_table.build_buckets", ms), "ms"),
        "rainbow_table.end_hash_indices_calls": (count("rainbow_table.end_hash_indices"), "count"),
        "rainbow_table.end_hash_indices_us": (self_time("rainbow_table.end_hash_indices", us), "us"),
        "rainbow_table.rows_scanned": (c["rows_scanned"], "count"),
        "quantum_sim.grover_search_calls": (count("quantum_sim.grover_search"), "count"),
        "quantum_sim.grover_search_us": (self_time("quantum_sim.grover_search", us), "us"),
        "quantum_sim.measure_us": (self_time("quantum_sim.measure", us), "us"),
        "quantum_sim.grover_iterations_total": (c["grover_iterations_total"], "count"),
        "quantum_sim.accept_ratio": (
            _ratio(c["grover_accepts"], count("quantum_sim.grover_search")), "ratio"),
        "quantum_sim.distinct_key_share": (
            _ratio(len(tracer.grover_keys), count("quantum_sim.grover_search")), "ratio"),
        "search.crack_self_us": (self_time("search.crack", us), "us"),
        "search.probes": (c["probes"], "count"),
        "search.bucket_misses": (c["bucket_misses"], "count"),
        "search.classical_fallbacks": (c["classical_fallbacks"], "count"),
        "search.grover_invocations": (c["grover_invocations"], "count"),
        "search.filter_pass_ratio": (_ratio(c["filter_passes"], c["probes"]), "ratio"),
        "search.false_alarm_ratio": (
            _ratio(c["filter_passes"] - c["crack_found"], c["filter_passes"]), "ratio"),
        "search.rebuild_chain_calls": (count("search.rebuild_chain"), "count"),
        "search.rebuild_chain_us": (self_time("search.rebuild_chain", us), "us"),
        # each found crack or classical scan ends with exactly one verified rebuild
        "search.verify_success_ratio": (
            _ratio(c["crack_found"] + c["classical_found"], count("search.rebuild_chain")),
            "ratio"),
        "search.crack_classical_scan_us": (self_time("search.crack_classical_scan", us), "us"),
        "search.classical_scan_length": (c["classical_scan_length"], "count"),
        "cli.main_self_ms": (self_time("cli.main", ms), "ms"),
    }
    for layer in LAYERS:
        total = sum(v for q, v in self_ns.items() if q.startswith(layer + "."))
        metrics[f"{layer}.self_ms"] = (total / ms, "ms")
    metrics["trace.spans"] = (len(tracer.start), "count")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics
