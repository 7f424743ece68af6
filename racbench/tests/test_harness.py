"""Tests of the benchmark harness itself, on tiny inputs (K16, 5 vertices).

Run from the repository root: ``python3 -m pytest racbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import workloads as wl

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
K16 = wl.SMOKE_WORKLOADS["k16-smoke"]
EDGES5 = wl.SMOKE_WORKLOADS["edges5-smoke"]


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "racbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_metric_tables_match_benchmark_json():
    declared = lambda key: {m["name"]: m["unit"] for m in SPEC[key]}
    assert declared("end_to_end") == harness.END_TO_END
    assert declared("per_layer") == harness.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_metric_by_name_with_unit(trace, key):
    proc = run_cli("--workload", "k16-smoke", "--seed", "1", "--seconds", "0.2",
                   "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines[:-1]), name


def test_inputs_are_deterministic_per_seed():
    sparse = wl.WORKLOADS["sparse-l16-report"]
    assert wl.make_input(sparse, 7) == wl.make_input(sparse, 7)
    assert wl.make_input(sparse, 7) != wl.make_input(sparse, 8)
    assert wl.make_input(K16, 7) == wl.make_input(K16, 8) == 16


def test_runs_are_deterministic_per_seed(tmp_path):
    brute = harness.BruteCache(tmp_path, ROOT / "src" / "racdraw")
    runs = [harness.measure(EDGES5, 5, 0.0, True, brute) for _ in range(2)]
    counts = [
        {k: v for k, v in r.metrics.items() if harness.PER_LAYER[k] in ("count", "B")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert all(r.failed == 0 and r.attempted == 4 for r in runs)


def test_span_self_times_add_up_to_the_pass(tmp_path):
    brute = harness.BruteCache(tmp_path, ROOT / "src" / "racdraw")
    result = harness.measure(K16, 1, 0.0, True, brute)
    spans = result.tracer.of_run(1)
    root = next(s for s in spans if s.name == "pass")
    assert sum(s.self_s for s in spans) == pytest.approx(root.end - root.start, abs=1e-9)
    layers = sum(v for k, v in result.metrics.items()
                 if k.endswith("_s") and k not in ("gc.pause_s", "trace.overhead_s"))
    assert layers == pytest.approx(root.end - root.start, abs=1e-9)


@pytest.mark.parametrize("delta", [1, -1])
def test_moved_bend_counts_the_run_as_failed(monkeypatch, tmp_path, delta):
    real = wl.dumps_drawing

    def corrupt(drawing):
        doc = json.loads(real(drawing))
        bend = doc["edges"][17]["bends"][2]
        bend[0] = str(int(bend[0]) + delta)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    monkeypatch.setattr(wl, "dumps_drawing", corrupt)
    brute = harness.BruteCache(tmp_path, ROOT / "src" / "racdraw")
    result = harness.measure(K16, 1, 0.0, False, brute)
    assert result.attempted >= 1
    assert result.failed == result.attempted
    assert any("digest" in p for p in result.problems)


def test_malformed_output_counts_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(wl, "verdict_summary", lambda report: "")
    brute = harness.BruteCache(tmp_path, ROOT / "src" / "racdraw")
    result = harness.measure(K16, 1, 0.0, False, brute)
    assert result.attempted >= 1
    assert result.failed == result.attempted


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "racbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_cli("--workload", "k81-verdict", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
