"""Output schema of benchmarks/run.py against BENCHMARK.json.

Checks metric names and units, the final-line keys and the per-layer
record fields.  Asserts no timings.  Run from the repository root:

    python3 -m pytest benchmarks/tests
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

RECORD_FIELDS = {
    "layer": str, "op": str, "params": str, "calls": int, "self_ms": float, "ops": int, "failed": int,
}


def load_run_module():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_bench(workload: str, trace: int) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return [json.loads(line) for line in proc.stdout.splitlines()]


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))


def test_benchmark_json_matches_harness():
    run = load_run_module()
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    # Work and time in the traced phase are per pass, not totals over a
    # phase whose pass count depends on speed.
    for m in SPEC["per_layer"]:
        if m["name"].endswith((".calls", ".self_ms")):
            assert m["unit"].endswith("/pass"), m
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_end_to_end_output():
    lines = run_bench("handshake", trace=0)
    info = lines[0]["run"]
    assert info["seed"] == 7 and info["python"]
    assert info["latency_samples"] >= 1 and "samples_above_p90" in info
    check_result(lines[-1], SPEC["end_to_end"])


@pytest.mark.parametrize("workload", ["handshake", "attack"])
def test_traced_output(workload):
    lines = run_bench(workload, trace=1)
    info = lines[0]["run"]
    assert info["missing_targets"] == []
    assert info["traced_passes"] >= 1
    records = lines[-2]["per_layer"]
    assert records
    for record in records:
        assert set(record) == set(RECORD_FIELDS)
        for field, kind in RECORD_FIELDS.items():
            assert isinstance(record[field], kind), (field, record)
    layers = {r["layer"] for r in records}
    assert {"kex", "rng", "metacyclic", "bench"} <= layers
    if workload == "attack":
        assert {"arith", "cryptanalysis", "cli"} <= layers
    check_result(lines[-1], SPEC["per_layer"])
