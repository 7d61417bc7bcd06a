"""Smoke tests for the benchmark itself: every workload at tiny size, both modes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=5):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                         "--trace", str(trace), "--tiny"])
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    code, report, result = bench(workload, trace)
    assert code == 0, report["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert report["provenance"]["seed"] == 5
    assert min(report["shape"]["buckets_occupied_per_table"]) >= 1


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        _, _, result = bench("crack-dense-1e5", 1)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["search.probes"] > 0


def test_tracer_restores_every_function():
    import qiris
    import qiris.search

    before = (qiris.search.reduce, qiris.hashing.reduce, qiris.crack, qiris.cli.main)
    bench("crack-sparse-1e3", 1)
    assert (qiris.search.reduce, qiris.hashing.reduce, qiris.crack, qiris.cli.main) == before


def test_wrong_plaintext_is_a_failed_op(monkeypatch):
    import qiris

    real = qiris.crack

    def wrong(*args, **kwargs):
        report = real(*args, **kwargs)
        if report.result is not None:
            report.result += "x"
        return report

    monkeypatch.setattr(qiris, "crack", wrong)
    code, report, result = bench("crack-sparse-1e3", 0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("for hit" in f for f in report["failures"])


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
