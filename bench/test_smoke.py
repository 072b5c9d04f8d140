"""Smoke test of the benchmark at tiny input sizes.

From the root of the repository:

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def test_benchmark_names_the_workloads_the_code_runs():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == named
    printed = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("metric ")}
    summary = {"wall_s": "s", "reference_s": "s", "ops_failed_ratio": "ratio"}
    if workload == "curve-certify":
        summary.update(scan_s="s", algebra_s="s")
    assert printed == {**named, **summary}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_digest_counts_as_failed_operations(workload, tmp_path):
    eq = run.import_package()
    bench = workloads.WORKLOADS[workload](eq, 3, "tiny", str(tmp_path))
    result, right, _ = run.run_checked(bench, run.SCAN_RESULTS, None)
    assert right.failed == 0 and right.attempted >= 1
    assert workloads.check_pass(bench, result.outputs, right.digest).failed == 0
    wrong = workloads.check_pass(bench, result.outputs, "0" * 64)
    assert wrong.failed == wrong.attempted == right.attempted
