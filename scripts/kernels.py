"""Kernel timings for the univariate root kit and the resultant of
`equiarea.polynomial`, the census of `equiarea.incidence`, the matching
count of `equiarea.matching` and the reconstruction of `equiarea.curves`.

Usage, from any directory:

    python scripts/kernels.py [--quick] [--label rootkit]

Times each kernel on the inputs its callers hand it, as best of 5 runs,
with the 5 times and their spread, (max - min) / best:

- `real_and_rational_roots` on the resultants of seeded `_bezout_trial` pairs,
  and `sylvester_resultant_y` on the sheared cubic pairs of the same trials;
- `rational_factors` on the leading-form profiles of curves from
  `random_general_position_pair`;
- `nearest_real_root` on the sections of the asymptote probe;
- `_row_runs short` and `_row_runs long` on the sorted pairs of lattice
  sections of n = 800 and n = 409 600 (25 600 with --quick);
- `_run_count short` and `_run_count long` on those sections' runs, at
  area 1/2 and with the line sizes, as the census calls it;
- `_class_sum` on every class sum of `scaling_experiment('lattice', [100,
  200, 400, 800])` and of the row runs of `gen_random(120, 8, 1)` at area
  1/2 (`gen_random(40, 8, 1)` with --quick);
- `scaling_experiment long` on the long section, its rows less `seconds`;
- the census routing, `_count` with the line sizes at 2A = 2 on sets the row
  runs serve by their rows or by their columns: `_count wide grid` on
  `gen_grid(16, 100)`, `_count tall grid` on `gen_grid(100, 16)`,
  `_count square grid` on `gen_grid(40, 40)`, `_count parallel lines` on
  `gen_parallel_lines(20, 50, 7)`, `_count transposed section` on the
  lattice section of n = 1600 with x and y swapped, and
  `_count square grid, no area` on `gen_grid(30, 30)` with no area (with
  --quick: 8x50, 50x8 and 20x20 grids, 10 lines of 25, n = 400 and 15x15);
- the branches `_count` routes to, with the line sizes at 2A = 2:
  `_pencil_count` on `gen_random(200, 7, 1)` and `_pair_count` on the
  scaling experiment's random set of n = 400, `_random_pairs(400, 42, 400)`
  (with --quick, `gen_random(60, 4, 1)` and the random set of n = 100);
- the matching count at area 1/2 and k = 2: `probe_matching_on_lines`
  without q in S on the lattice section of n = 100, and
  `join_matching_on_lines` with q in S on that of n = 200 (40 and 60 with
  --quick), on their rich tables, built outside the timed region;
- `reconstruct_generators` on the curves of `random_general_position_pair`;
- `cold start`, `import equiarea.cli` timed inside each of 5 fresh
  interpreters. Each imports a copy of src/equiarea without `__pycache__`,
  with -B, so it compiles the package from source, as every process does
  on a host that writes no bytecode. Its output is the --help text of the
  root parser and of each subcommand, at 80 columns, so equal digests show
  an unchanged CLI surface.

The root-kit, resultant and class-sum inputs are recorded by calling the curve code or
the census once with the kernel wrapped, outside the timed region. The
package is imported from src/ of this checkout. The script writes
BENCH_<label>.json in the current directory, with a sha256 digest of the
kernels' outputs, the git revision, the CPU count and the Python version,
and prints that digest as its last line: equal digests mean equal outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from equiarea import counting, curves, incidence, matching, polynomial  # noqa: E402

RUNS = 5
SEED = 1
PROBE_TAUS = (10**3, 10**4, 10**5, 10**6)
# (bezout trials, general-position curves, probed curves)
SIZES = {"full": (120, 100, 20), "quick": (20, 20, 4)}
# (short lattice section, long lattice section, random set of the class sums)
CENSUS_SIZES = {"full": (800, 409600, 120), "quick": (800, 25600, 40)}
# (wide grid, tall grid, square grid, parallel lines, transposed section's n,
# square grid with no area); grids as (rows, cols), lines as (lines, per line).
ROUTING_SIZES = {
    "full": ((16, 100), (100, 16), (40, 40), (20, 50), 1600, (30, 30)),
    "quick": ((8, 50), (50, 8), (20, 20), (10, 25), 400, (15, 15)),
}
# (pencils' random set as (n, bound), pair table's scaling n, probe's and
# join's lattice n)
BRANCH_SIZES = {"full": ((200, 7), 400, 100, 200), "quick": ((60, 4), 100, 40, 60)}


def recorded(name: str, run, module=curves) -> list[tuple]:
    """The arguments of every call of <module>.<name> while run() runs."""
    calls, kernel = [], getattr(module, name)

    def record(*args):
        calls.append(args)
        return kernel(*args)

    setattr(module, name, record)
    try:
        run()
    finally:
        setattr(module, name, kernel)
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
        "sylvester_resultant_y": recorded("sylvester_resultant_y", scan),
        "rational_factors": recorded("rational_factors", profiles),
        "nearest_real_root": recorded("nearest_real_root", probes),
    }


def with_sizes(kernel, data, twice):
    """A census kernel with the line sizes, as the census calls it: the count and the sizes."""
    sizes = Counter()
    return kernel(data, twice, sizes), sorted(sizes.items())


def scaling_rows(n):
    """The rows of `scaling_experiment('lattice', [n])`, less `seconds`."""
    rows = counting.scaling_experiment("lattice", [n])
    return [[getattr(row, field.name) for field in fields(row) if field.name != "seconds"] for row in rows]


def census_kernels(size: str) -> dict[str, tuple]:
    """Census kernel name -> (kernel, calls). The lattice sections are
    generated and sorted outside the timed region, as are their runs."""
    short, long, random_n = CENSUS_SIZES[size]
    pts = {n: sorted(counting._lattice_pairs(n)) for n in (short, long)}
    runs = {n: incidence._row_runs(pts[n]) for n in (short, long)}
    random_runs = incidence._row_runs(sorted(counting._random_pairs(random_n, 8, 1)))

    def class_sums():
        counting.scaling_experiment("lattice", [100, 200, 400, 800])
        incidence._run_count(random_runs, 1)

    return {
        "_row_runs short": (incidence._row_runs, [(pts[short],)]),
        "_row_runs long": (incidence._row_runs, [(pts[long],)]),
        "_run_count short": (with_sizes, [(incidence._run_count, runs[short], 1)]),
        "_run_count long": (with_sizes, [(incidence._run_count, runs[long], 1)]),
        "_class_sum": (incidence._class_sum, recorded("_class_sum", class_sums, incidence)),
        "scaling_experiment long": (scaling_rows, [(long,)]),
    }


def routing_kernels(size: str) -> dict[str, tuple]:
    """Census routing kernel name -> (kernel, calls): `_count` with the line
    sizes, on pairs sorted outside the timed region."""
    wide, tall, square, (lines, per_line), section, unsized = ROUTING_SIZES[size]
    sets = {
        "_count wide grid": (counting._grid_pairs(*wide), 2),
        "_count tall grid": (counting._grid_pairs(*tall), 2),
        "_count square grid": (counting._grid_pairs(*square), 2),
        "_count parallel lines": (counting._parallel_pairs(lines, per_line, 7), 2),
        "_count transposed section": ([(y, x) for x, y in counting._lattice_pairs(section)], 2),
        "_count square grid, no area": (counting._grid_pairs(*unsized), None),
    }
    return {name: (with_sizes, [(incidence._count, sorted(pts), twice)]) for name, (pts, twice) in sets.items()}


def branch_kernels(size: str) -> dict[str, tuple]:
    """Census branch, matching and reconstruction kernel name -> (kernel,
    calls); pairs are sorted, rich tables built and curves derived outside
    the timed region."""
    (pencil_n, bound), pair_n, probe_n, join_n = BRANCH_SIZES[size]
    pencil_pts = sorted(counting._random_pairs(pencil_n, bound, 1))
    # The scaling experiment's random set of n, at seed 0: seed n.
    pair_pts = sorted(counting._generate("random", pair_n, pair_n))
    probe_pts, join_pts = (sorted(counting._lattice_pairs(n)) for n in (probe_n, join_n))
    half = Fraction(1, 2)
    return {
        "_pencil_count": (with_sizes, [(incidence._pencil_count, pencil_pts, 2)]),
        "_pair_count": (with_sizes, [(incidence._pair_count, pair_pts, 2)]),
        "probe_matching_on_lines": (matching.probe_matching_on_lines, [(incidence.rich_table(probe_pts, 2), half)]),
        "join_matching_on_lines": (matching.join_matching_on_lines,
                                   [(incidence.rich_table(join_pts, 2), half, set(join_pts))]),
        "reconstruct_generators": (curves.reconstruct_generators,
                                   [(cubic,) for cubic in general_curves(SIZES[size][1])]),
    }


# The cold-start child: argv[1] is the src/ directory to import from.
COLD_START = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
import equiarea.cli
seconds = time.perf_counter() - started
parser = equiarea.cli.build_parser()
(commands,) = parser._subparsers._group_actions
print(json.dumps([seconds, [p.format_help() for p in (parser, *commands.choices.values())]]))
"""


def cold_start() -> tuple[float, list[str]]:
    """One fresh interpreter's `import equiarea.cli` seconds and its parsers' --help texts."""
    with tempfile.TemporaryDirectory() as src:
        shutil.copytree(ROOT / "src" / "equiarea", Path(src) / "equiarea",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, "-B", "-c", COLD_START, src], capture_output=True,
                              text=True, check=True, env={**os.environ, "COLUMNS": "80"})
    seconds, helps = json.loads(done.stdout)
    return seconds, helps


def plain(value):
    """Outputs as JSON: Fractions as strings, tuples as lists."""
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value if value is None or isinstance(value, int) else str(value)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def timed_calls(kernel, calls: list[tuple]):
    """A run of the kernel on every call's arguments: its seconds and outputs."""
    def run() -> tuple[float, list]:
        started = time.perf_counter()
        out = [kernel(*args) for args in calls]
        return time.perf_counter() - started, out

    return run


def time_kernel(name: str, run) -> tuple[list[float], object]:
    """The seconds of RUNS runs and their outputs, which must repeat."""
    runs, outputs = [], None
    for _ in range(RUNS):
        seconds, out = run()
        runs.append(seconds)
        if outputs is not None and out != outputs:
            raise SystemExit(f"{name} gave different outputs on the same inputs")
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
    timed = {name: (getattr(polynomial, name), calls) for name, calls in inputs(size).items()}
    timed.update(census_kernels(size))
    timed.update(routing_kernels(size))
    timed.update(branch_kernels(size))
    runners = {name: (len(calls), timed_calls(kernel, calls)) for name, (kernel, calls) in timed.items()}
    runners["cold start"] = (1, cold_start)
    for name, (n_inputs, run) in runners.items():
        runs, out = time_kernel(name, run)
        outputs[name] = plain(out)
        kernels[name] = {
            "inputs": n_inputs,
            "best_s": min(runs),
            "median_s": statistics.median(runs),
            "runs_s": runs,
            "spread": (max(runs) - min(runs)) / min(runs),
            "digest": digest(outputs[name]),
        }
        print(f"{name}: {n_inputs} inputs, best {min(runs):.6f} s, spread {kernels[name]['spread']:.1%}")
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
