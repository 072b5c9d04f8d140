"""Kernel timings for the univariate root kit of `equiarea.polynomial`.

Usage, from any directory:

    python scripts/kernels.py [--quick] [--label rootkit]

Times three kernels on the inputs the curve code hands them, each as best of
5 runs, with the 5 times and their spread, (max - min) / best:

- `real_and_rational_roots` on the resultants of seeded `_bezout_trial` pairs;
- `rational_factors` on the leading-form profiles of curves from
  `random_general_position_pair`;
- `nearest_real_root` on the sections of the asymptote probe.

The inputs are recorded by calling the curve code once with the kernel
wrapped, outside the timed region. The package is imported from src/ of this
checkout. The script writes BENCH_<label>.json in the current directory, with
a sha256 digest of the kernels' outputs, the git revision, the CPU count and
the Python version, and prints that digest as its last line: equal digests
mean equal outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from equiarea import curves, polynomial  # noqa: E402

RUNS = 5
SEED = 1
PROBE_TAUS = (10**3, 10**4, 10**5, 10**6)
# (bezout trials, general-position curves, probed curves)
SIZES = {"full": (120, 100, 20), "quick": (20, 20, 4)}


def recorded(name: str, run) -> list[tuple]:
    """The arguments of every call of curves.<name> while run() runs."""
    calls, kernel = [], getattr(curves, name)

    def record(*args):
        calls.append(args)
        return kernel(*args)

    setattr(curves, name, record)
    try:
        run()
    finally:
        setattr(curves, name, kernel)
    return calls


def general_curves(count: int) -> list:
    rng = random.Random(SEED)
    return [curves.match_curve(*curves.random_general_position_pair(rng)).curve for _ in range(count)]


def inputs(size: str) -> dict[str, list[tuple]]:
    trials, general, probed = SIZES[size]
    cubics = general_curves(general)

    def scan():
        for index in range(trials):
            curves._bezout_trial(SEED, index)

    def profiles():
        for cubic in cubics:
            curves.leading_form_factors(cubic)

    def probes():
        for cubic in cubics[:probed]:
            curves.asymptote_convergence_probe(cubic, curves.asymptotes(cubic)[0], PROBE_TAUS)

    return {
        "real_and_rational_roots": recorded("real_and_rational_roots", scan),
        "rational_factors": recorded("rational_factors", profiles),
        "nearest_real_root": recorded("nearest_real_root", probes),
    }


def plain(value):
    """Outputs as JSON: Fractions as strings, tuples as lists."""
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value if value is None or isinstance(value, int) else str(value)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def time_kernel(kernel, calls: list[tuple]) -> tuple[list[float], list]:
    runs, outputs = [], None
    for _ in range(RUNS):
        started = time.perf_counter()
        out = [kernel(*args) for args in calls]
        runs.append(time.perf_counter() - started)
        if outputs is not None and out != outputs:
            raise SystemExit(f"{kernel.__name__} gave different outputs on the same inputs")
        outputs = out
    return runs, outputs


def revision() -> str:
    """HEAD's commit, with "-dirty" when src/ differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        return head + ("-dirty" if git("status", "--porcelain", "--", "src") else "") if head else "unknown"
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="small inputs, for a smoke run")
    parser.add_argument("--label", default="rootkit", help="writes BENCH_<label>.json")
    args = parser.parse_args(argv)
    size = "quick" if args.quick else "full"
    kernels, outputs = {}, {}
    for name, calls in inputs(size).items():
        runs, out = time_kernel(getattr(polynomial, name), calls)
        outputs[name] = plain(out)
        kernels[name] = {
            "inputs": len(calls),
            "best_s": min(runs),
            "median_s": statistics.median(runs),
            "runs_s": runs,
            "spread": (max(runs) - min(runs)) / min(runs),
            "digest": digest(outputs[name]),
        }
        print(f"{name}: {len(calls)} inputs, best {min(runs):.4f} s, spread {kernels[name]['spread']:.1%}")
    report = {
        "label": args.label,
        "size": size,
        "revision": revision(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "runs": RUNS,
        "kernels": kernels,
        "digest": digest(outputs),
    }
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(report["digest"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
