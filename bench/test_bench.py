"""Self-test of the benchmark in its small-size mode.

    python3 -m pytest bench/test_bench.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json
is emitted with its unit for every workload, that a wrong expected answer
is caught, that outputs repeat under one seed, and that the benchmark
refuses to report when the program's sources are missing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(*extra: str, workload: str, trace: int = 0, seed: int = 5,
              cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None, dict | None]:
    """Run the benchmark small; returns the process, the last line and the report."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--small", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc, None, None
    reports = [json.loads(line[len("report "):]) for line in lines if line.startswith("report ")]
    return proc, json.loads(lines[-1]), reports[-1] if reports else None


def expected_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    proc, result, report = run_bench(workload=workload, trace=trace)
    assert result is not None, proc.stderr
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0, report["failures"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected_units(kind)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert report["failed_ratio"] == 0.0
    else:
        assert report["unwrapped_targets"] == []
        assert result["metrics"]["trace.coverage"]["value"] > 0.5


@pytest.mark.parametrize("workload", WORKLOADS)
def test_flipped_truth_raises_failed_ratio(workload):
    proc, result, report = run_bench("--flip-truth", workload=workload)
    assert result is not None, proc.stderr
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert report["failed_ratio"] > 0.0


def test_outputs_digest_repeats_under_one_seed():
    digests = set()
    for _ in range(2):
        proc, result, report = run_bench(workload="mcq_studies", seed=9)
        assert result is not None, proc.stderr
        digests.add(report["outputs_digest"])
    assert len(digests) == 1


def test_one_command_runs_every_workload():
    proc, result, _ = run_bench(workload="all")
    assert result is not None, proc.stderr
    assert result["correct"] is True
    names = {f"{w}.{m}" for w in WORKLOADS for m in expected_units("end_to_end")}
    assert set(result["metrics"]) == names


def test_refuses_to_report_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, result, _ = run_bench(workload=WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
    assert not proc.stdout.strip()
