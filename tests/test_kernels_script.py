"""Smoke test of scripts/kernels.py: two --quick runs write a well-formed
BENCH_<label>.json with equal output digests."""

import json
import statistics
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "kernels.py"


def test_quick_runs_repeat_their_digests(tmp_path):
    digests = []
    for _ in range(2):
        run = subprocess.run(
            [sys.executable, str(SCRIPT), "--quick", "--label", "smoke"],
            cwd=tmp_path, capture_output=True, text=True, check=True,
        )
        report = json.loads((tmp_path / "BENCH_smoke.json").read_text())
        assert set(report) == {"label", "size", "revision", "cpu_count", "python", "runs", "kernels", "digest"}
        assert (report["label"], report["size"], report["runs"]) == ("smoke", "quick", 5)
        assert set(report["kernels"]) == {
            "real_and_rational_roots", "rational_factors", "nearest_real_root",
            "_row_runs short", "_row_runs long", "_run_count short", "_run_count long", "_class_sum",
            "scaling_experiment long", "_count wide grid", "_count tall grid", "_count square grid",
            "_count parallel lines", "_count transposed section", "_count square grid, no area", "cold start",
            "sylvester_resultant_y", "_pencil_count", "_pair_count", "probe_matching_on_lines",
            "join_matching_on_lines", "reconstruct_generators",
        }
        for kernel in report["kernels"].values():
            assert set(kernel) == {"inputs", "best_s", "median_s", "runs_s", "spread", "digest"}
            runs = kernel["runs_s"]
            assert kernel["inputs"] > 0 and len(runs) == 5
            assert kernel["best_s"] == min(runs) and kernel["median_s"] == statistics.median(runs)
            assert kernel["spread"] == (max(runs) - min(runs)) / min(runs)
        assert run.stdout.splitlines()[-1] == report["digest"]
        digests.append((report["digest"], {name: kernel["digest"] for name, kernel in report["kernels"].items()}))
    assert digests[0] == digests[1]
