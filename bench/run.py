"""Benchmark of the equiarea package: one workload per run, in one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scaling-lattice --seed 1 --seconds 36 --trace 0

The run sets up (import, inputs, warm-up) and then repeats passes of the
workload until the next one would end after --seconds, checking and
digesting each pass's outputs outside the timed region. Untraced passes also
time a fixed reference computation as they go (reference.py), and report
their wall time in units of it as well as in seconds. With --trace 0 it
reports the end-to-end metrics of untraced passes; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones. Metric names and units come from BENCHMARK.json. Summary
lines go to stdout before the last line, which is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The package is imported from src/ of the checkout; without it the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import HostSampler
from tracer import SCAN_RESULTS, TRACED, Tracer, layer_metrics
from workloads import SIZES, WORKLOADS, check_pass

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPEC = Path(__file__).resolve().parent / "spec.json"
WORKDIR = ROOT / ".bench_out"

# Set-ups timed per run: this process plus fresh child processes.
SETUP_SAMPLES = 11
COVERAGE_FLOOR = 0.95
# Printed on every run besides the metrics BENCHMARK.json names, each in s
# but the ratio; curve-certify adds its two halves.
SUMMARY = ("wall_s", "reference_s", "ops_failed_ratio")


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    if not (SRC / "equiarea" / "__init__.py").is_file():
        fail(f"no package at {SRC / 'equiarea'}")
    sys.path.insert(0, str(SRC))
    eq = importlib.import_module("equiarea")
    if Path(eq.__file__).resolve().parent != SRC / "equiarea":
        fail(f"imported equiarea from {eq.__file__}, not from {SRC}")
    importlib.import_module("equiarea.cli")
    return eq


def set_up(args, workdir: str):
    """Import the package, build the workload's inputs and warm it up."""
    started = time.perf_counter()
    eq = import_package()
    workload = WORKLOADS[args.workload](eq, args.seed, args.size, workdir)
    return workload, time.perf_counter() - started


def child_set_up_seconds(args) -> float:
    command = [sys.executable, __file__, "--setup-only", "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_checked(workload, entries, expected):
    """One pass with the given functions wrapped, then its checks. An
    untraced pass also times the reference computation as it goes."""
    tracer = Tracer()
    with tracer.installed(entries):
        if entries is TRACED:
            result = workload.run_pass(tracer, time.perf_counter)
        else:
            sampler = HostSampler()
            with sampler.running():
                result = workload.run_pass(tracer, sampler.clock)
            result.reference_s = sampler.mean
    return result, check_pass(workload, result.outputs, expected), tracer.spans


def measure(workload, args, pinned):
    """Repeat passes (or untraced/traced pairs) until the next would overrun."""
    attempted = failed = 0
    problems, plain, traced, layers, rounds = [], [], [], [], []
    expected = pinned
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        passes = [(plain, SCAN_RESULTS)] + ([(traced, TRACED)] if args.trace else [])
        for results, entries in passes:
            result, checked, spans = run_checked(workload, entries, expected)
            expected = expected or checked.digest
            attempted, failed = attempted + checked.attempted, failed + checked.failed
            problems.extend(checked.problems)
            results.append(result)
            if entries is TRACED:
                layers.append(layer_metrics(spans, result.seconds))
        rounds.append(time.perf_counter() - round_started)
        if time.perf_counter() - started + statistics.median(rounds) > args.seconds:
            break
    return plain, traced, layers, expected, (attempted, failed), problems


def median_of(results, key):
    return statistics.median(key(r) for r in results)


def per_layer_metrics(layers, traced, untraced, problems) -> dict:
    """Medians of the traced passes' layer metrics; counts must repeat exactly."""
    out = {}
    for key in layers[0]:
        seen = [m[key] for m in layers]
        if isinstance(seen[0], int):
            if len(set(seen)) > 1:
                problems.append(f"count {key} differs between traced passes: {seen}")
            out[key] = seen[0]
        else:
            out[key] = statistics.median(seen)
    out["trace.wall_s"] = median_of(traced, lambda r: r.seconds)
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced["wall_s"]
    for half in ("scan_s", "algebra_s"):
        out[half] = untraced.get(half, 0.0)
    coverage = min(m["trace.coverage"] for m in layers)
    if coverage < COVERAGE_FLOOR:
        problems.append(f"top-level spans cover {coverage:.3f} of a traced pass")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the seconds it took, and exit")
    args = parser.parse_args(argv)

    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORKDIR)
    try:
        if args.setup_only:
            print(set_up(args, workdir)[1])
            return 0
        return report(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not args.setup_only:
            shutil.rmtree(WORKDIR, ignore_errors=True)


def report(args, workdir: str) -> int:
    workload, own_setup = set_up(args, workdir)
    setups = [own_setup] + [child_set_up_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
    spec = json.loads(SPEC.read_text())
    pinned = spec["pinned_digests"].get(args.workload, {}).get(args.size)
    plain, traced, layers, digest, (attempted, failed), problems = measure(workload, args, pinned)

    values = {
        "wall_ref": median_of(plain, lambda r: r.seconds / r.reference_s),
        "wall_s": median_of(plain, lambda r: r.seconds),
        "reference_s": median_of(plain, lambda r: r.reference_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_failed_ratio": failed / attempted,
    }
    for half in plain[0].halves:
        values[half] = median_of(plain, lambda r: r.halves[half])
    print(f"workload {args.workload} seed {args.seed} size {args.size}"
          f" nproc {os.cpu_count()} python {platform.python_version()}")
    print("passes_s " + " ".join(f"{r.seconds:.3f}" for r in plain))
    print("reference_ms " + " ".join(f"{r.reference_s * 1e3:.4f}" for r in plain))
    if traced:
        print("traced_passes_s " + " ".join(f"{r.seconds:.3f}" for r in traced))
    print(f"digest {args.workload} {digest}")

    for key in SUMMARY + tuple(plain[0].halves):
        print(f"metric {key} {values[key]!r} {'ratio' if key == 'ops_failed_ratio' else 's'}")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = per_layer_metrics(layers, traced, values, problems)
        named = benchmark["per_layer"]
    else:
        named = benchmark["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in named}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
