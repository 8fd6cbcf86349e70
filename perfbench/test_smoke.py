"""Tests of the benchmark harness on its tiny case matrix.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds",
                "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    want = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in want}
            == {k: v["unit"] for k, v in result["metrics"].items()})
    if trace == "0":
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0


def test_traced_smoke_records_plan_and_spans():
    proc = _run(ROOT, "--workload", "alltoall_large", "--seed", "2",
                "--seconds", "0", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    report = json.loads((BENCH_DIR / "out" /
                         "alltoall_large-seed2-trace1-smoke.json").read_text())
    layer = report["metrics"]
    nodes = 0
    for case in report["cases"].values():
        plan = case["plan"]
        nodes += len(plan["nodes"])
        by_level = {}
        for node in plan["nodes"]:
            by_level[node["layer"]] = max(by_level.get(node["layer"], 0),
                                          node["depth"])
            assert node["variant"] in ("ancilla", "path")
        assert plan["level_max_depth"] == [by_level[i]
                                           for i in sorted(by_level)]
    assert layer["synth.plan_nodes"] == nodes
    spans = report["spans"][0]
    assert {s["name"] for s in spans} >= {"synth.synth_alltoall",
                                          "circuit.loads", "synth.templates"}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
