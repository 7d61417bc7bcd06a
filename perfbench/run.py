#!/usr/bin/env python3
"""QIris benchmark: one workload per process, metrics as JSON on stdout.

    python3 perfbench/run.py --workload crack-dense-1e5 --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with nothing patched. `--trace 1`
runs a fixed, seed-determined set of operations twice, first untraced and
then with timing wrappers around every call into the qiris layers, and
reports the per-layer metrics plus the tracing overhead between the two.
The next-to-last stdout line is a detailed report (provenance, sample
counts, table shape, failures); the last line is the result object.
Exit status is 0 for a correct run, 1 when an output check failed and 2
when the qiris sources are missing.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches in the checkout

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_qiris():
    if not (SRC / "qiris" / "__init__.py").is_file():
        print(f"error: qiris sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qiris
    import qiris.cli  # noqa: F401  (compare runs through qiris.cli.main)

    if Path(qiris.__file__).resolve().parent != SRC / "qiris":
        print(f"error: imported qiris from {qiris.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return qiris


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance(seed):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


UNITS = {
    "setup_s": "s",
    "generate_chains_per_s": "1/s",
    "hit_qps": "1/s",
    "miss_qps": "1/s",
    "hit_p50_ms": "ms",
    "hit_p99_ms": "ms",
    "miss_p50_ms": "ms",
    "miss_p99_ms": "ms",
    "classical_qps": "1/s",
    "compare_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size so the workload runs in about a second")
    args = parser.parse_args(argv)

    qiris = _import_qiris()
    from workloads import DEFAULT_SEED, WORKLOADS, Session, tiny

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    pin = seed == DEFAULT_SEED and not args.tiny

    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            sessions, metrics = _traced(qiris, workload, seed, workdir, pin)
        else:
            session = Session(qiris, workload, seed, args.seconds, workdir, pin)
            session.run()
            sessions = [session]
            session.values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            metrics = {name: (session.values[name], unit) for name, unit in UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "tiny": args.tiny,
        "seconds": args.seconds,
        "provenance": _provenance(seed),
        "samples": sessions[-1].samples,
        "uncorrected": sessions[-1].raw_values,
        "shape": sessions[-1].shape,
        "sha256": sessions[-1].artifacts,
        "failures": [f for s in sessions for f in s.failures],
    }
    print(json.dumps(report))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _traced(qiris, workload, seed, workdir, pin):
    """Run the fixed operations untraced, then traced; per-layer metrics and overhead."""
    from spans import Tracer, layer_metrics
    from workloads import Session

    walls = []
    sessions = []
    tracer = Tracer()
    for traced in (False, True):
        session = Session(qiris, workload, seed, None, workdir, pin)
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            session.run()
        finally:
            walls.append(time.perf_counter() - t0)
            tracer.uninstall()
        sessions.append(session)
    return sessions, layer_metrics(tracer, walls[1] / walls[0] - 1)


if __name__ == "__main__":
    sys.exit(main())
