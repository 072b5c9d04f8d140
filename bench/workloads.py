"""The benchmark's three workloads.

Each workload builds its inputs from the seed, runs one pass through the
package's public entry points (the only timed region), and then checks the
pass's outputs and digests them. Calls go through module attributes, such as
`counting.matching_identity_check`, so that the tracer's wrappers see them.
Every pass runs under a tracer: untraced passes wrap only the two functions
whose results give each scan trial's bound (`tracer.SCAN_RESULTS`), traced
passes wrap all of `tracer.TRACED`. A pass reads time from the clock it is
given, which in untraced passes leaves out the reference computation
(`reference.HostSampler`).

An operation is one CSV row, one identity check, one scan trial or one curve
round trip. It fails if it raises or if any check on it fails; failures are
counted, never raised.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from tracer import Tracer, trial_bounds

# Inputs per size. "full" is what the benchmark measures; "tiny" keeps the
# smoke test fast and runs the same code.
SIZES = {
    "full": {
        "scaling_sizes": "100,200,400,800",
        "grids": ((4, 4), (5, 5)),
        "random_sets": 2,
        "random_n": 20,
        "ks": (2, 3, 4),
        "scan_trials": 60,
        "general_curves": 100,
        "squared_curves": 20,
        "probed_curves": 20,
    },
    "tiny": {
        "scaling_sizes": "10,20,40",
        "grids": ((3, 3),),
        "random_sets": 1,
        "random_n": 8,
        "ks": (2, 3),
        "scan_trials": 3,
        "general_curves": 4,
        "squared_curves": 2,
        "probed_curves": 2,
    },
}

PROBE_TAUS = (10**3, 10**4, 10**5, 10**6)
PROBE_LIMIT = 1e-4


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassResult:
    """One pass: its wall time, its halves where the workload has them, the
    raw outputs the checks read, and (untraced passes) the mean time of the
    reference computation during the pass."""

    seconds: float
    outputs: object
    halves: dict[str, float] = field(default_factory=dict)
    reference_s: float = 0.0


@dataclass
class Checked:
    digest: str
    attempted: int
    failed: int
    problems: list[str]


def check_pass(workload, outputs, expected_digest: str | None) -> Checked:
    """The workload's checks, plus the digest comparison: a pass whose digest
    differs from the expected one fails every operation."""
    checked = workload.check(outputs)
    if expected_digest is not None and checked.digest != expected_digest:
        checked.problems.append(f"digest {checked.digest} != expected {expected_digest}")
        checked.failed = checked.attempted
    return checked


class ScalingLattice:
    """`equiarea scaling --kind lattice` at the CLI defaults, run in-process."""

    name = "scaling-lattice"

    def __init__(self, eq, seed: int, size: str, workdir: str):
        self.cli = eq.cli
        self.sizes = [int(s) for s in SIZES[size]["scaling_sizes"].split(",")]
        self.out = os.path.join(workdir, "scaling.csv")
        self._scaling("8")

    def _scaling(self, sizes: str) -> int:
        return self.cli.main(["scaling", "--kind", "lattice", "--sizes", sizes, "--out", self.out])

    def run_pass(self, tracer: Tracer, clock: Callable[[], float]) -> PassResult:
        if os.path.exists(self.out):
            os.remove(self.out)
        started = clock()
        try:
            code = self._scaling(",".join(map(str, self.sizes)))
            with open(self.out, encoding="utf-8") as fh:
                text = fh.read()
        except Exception as exc:  # every row of the pass fails
            code, text = repr(exc), ""
        return PassResult(clock() - started, (code, text))

    def check(self, outputs) -> Checked:
        code, text = outputs
        lines = text.splitlines()
        header, rows = lines[0].split(",") if lines else [], [line.split(",") for line in lines[1:]]
        problems = []
        if code != 0 or "seconds" not in header or len(rows) != len(self.sizes):
            problems.append(f"exit code {code}, CSV starts {lines[:2]}")
            return Checked(digest(text), len(self.sizes), len(self.sizes), problems)
        col = header.index("seconds")
        kept = [",".join(f for i, f in enumerate(fields) if i != col) for fields in [header, *rows]]
        rows = [dict(zip(header, fields)) for fields in rows]
        bad = {i for i, row in enumerate(rows) if int(row["n"]) != self.sizes[i] or row["area"] != "1/2"}
        ratios = [Fraction(int(row["count"]), int(row["n"]) ** 2) for row in rows]
        for i in range(1, len(ratios)):
            if ratios[i] < ratios[i - 1]:
                problems.append(f"count/n^2 decreased at n={rows[i]['n']}")
                bad.add(i)
        return Checked(digest(kept), len(rows), len(bad), problems)


class MatchingIdentity:
    """`matching_identity_check` for k in {2, 3, 4} on two grids and two random sets."""

    name = "matching-identity"

    def __init__(self, eq, seed: int, size: str, workdir: str):
        spec = SIZES[size]
        counting = self.counting = eq.counting
        self.ks = spec["ks"]
        self.sets = [(f"grid{r}x{c}", counting.gen_grid(r, c)) for r, c in spec["grids"]]
        self.sets += [
            (f"random{i}", counting.gen_random(spec["random_n"], 8, seed + i))
            for i in range(spec["random_sets"])
        ]
        # Oracle agreement per set; the timed pass never calls these counters.
        self.counters_agree = {
            name: counting.count_pairline(points, 1) == counting.count_brute(points, 1)
            for name, points in self.sets
        }
        counting.matching_identity_check(counting.gen_grid(3, 3), 2, 1)

    def run_pass(self, tracer: Tracer, clock: Callable[[], float]) -> PassResult:
        out = []
        started = clock()
        for name, points in self.sets:
            for k in self.ks:
                try:
                    out.append((name, k, self.counting.matching_identity_check(points, k, 1)))
                except Exception as exc:  # counted as a failed operation
                    out.append((name, k, exc))
        return PassResult(clock() - started, out)

    def check(self, outputs) -> Checked:
        problems, payload, failed = [], [], 0
        for name, k, report in outputs:
            if isinstance(report, Exception):
                problems.append(f"{name} k={k}: {report!r}")
                payload.append([name, k, repr(report)])
                failed += 1
                continue
            t = report.tally
            payload.append([name, k, report.M, t.T0, t.T1, t.T2, t.T3])
            ok = report.holds and report.M == 3 * report.T3 + report.T2 and self.counters_agree[name]
            if not ok:
                problems.append(f"{name} k={k}: identity or counter check failed")
                failed += 1
        return Checked(digest(payload), len(outputs), failed, problems)


class CurveCertify:
    """Both certification scans, then curve round trips and asymptote probes."""

    name = "curve-certify"

    def __init__(self, eq, seed: int, size: str, workdir: str):
        spec = SIZES[size]
        curves = self.curves = eq.curves
        self.seed = seed
        self.trials = spec["scan_trials"]
        rng = random.Random(seed)
        self.pairs = [curves.random_general_position_pair(rng) for _ in range(spec["general_curves"])]
        self.general = len(self.pairs)
        self.pairs += [curves.random_point_on_line_pair(rng) for _ in range(spec["squared_curves"])]
        step = self.general // spec["probed_curves"]
        self.probed = set(range(0, step * spec["probed_curves"], step))
        curves.bezout_scan(1, seed + 1)
        curves.k310_scan(1, seed + 1)
        self._round_trip(0, *self.pairs[0])

    def _round_trip(self, index: int, q1, q2):
        curves = self.curves
        case = curves.match_curve(q1, q2)
        generators = curves.reconstruct_generators(case.curve)
        factor = curves.has_linear_factor(case.curve)
        lines = curves.asymptotes(case.curve)
        distances = None
        if index in self.probed:
            distances = curves.asymptote_convergence_probe(case.curve, lines[0], PROBE_TAUS)
        return case.tag, generators, factor, lines, distances

    def run_pass(self, tracer: Tracer, clock: Callable[[], float]) -> PassResult:
        scans = []
        started = clock()
        for scan in (self.curves.bezout_scan, self.curves.k310_scan):
            try:
                scans.append(scan(self.trials, self.seed, 1))
            except Exception as exc:  # every trial of the scan fails
                scans.append(exc)
        halfway = clock()
        trips = []
        for index, (q1, q2) in enumerate(self.pairs):
            try:
                trips.append(self._round_trip(index, q1, q2))
            except Exception as exc:  # counted as a failed operation
                trips.append(exc)
        finished = clock()
        outputs = (scans, trial_bounds(tracer.spans), trips)
        return PassResult(
            finished - started, outputs, {"scan_s": halfway - started, "algebra_s": finished - halfway}
        )

    def _trip_ok(self, index: int, trip) -> bool:
        CurveTag = self.curves.CurveTag
        q1, q2 = self.pairs[index]
        tag, generators, factor, lines, distances = trip
        if index < self.general:
            joining = self.curves.Line(q2.b - q1.b, -(q2.a - q1.a), q2.a * q1.b - q1.a * q2.b)
            expected_tag, expected_lines = CurveTag.GENERAL, sorted({q1.line, q2.line, joining})
        else:
            expected_tag, expected_lines = CurveTag.POINT_ON_LINE_1, sorted({q1.line, q2.line})
        ok = (
            tag is expected_tag
            and generators == tuple(sorted((q1, q2)))
            and factor is None
            and lines == expected_lines
        )
        if distances is not None:
            decreasing = all(a > b for a, b in zip(distances, distances[1:]))
            ok = ok and decreasing and distances[-1] < PROBE_LIMIT
        return ok

    def check(self, outputs) -> Checked:
        scans, bounds, trips = outputs
        problems, failed = [], 0
        reports = []
        for label, report in zip(("bezout", "k310"), scans):
            if isinstance(report, Exception):
                problems.append(f"{label}: {report!r}")
                failed += self.trials
                reports.append(repr(report))
                continue
            reports.append([report.trials, report.max_value, report.violations])
            consistent = report.trials == self.trials and report.max_value <= 9
            if report.violations or not consistent:
                problems.append(f"{label}: {report}")
                failed += report.violations if consistent else self.trials
        if len(bounds) != 2 * self.trials or any(b > 9 for b in bounds):
            problems.append(f"bound histogram covers {len(bounds)} trials, max {max(bounds, default=0)}")
            failed = 2 * self.trials
        trip_payload = []
        for index, trip in enumerate(trips):
            if isinstance(trip, Exception):
                problems.append(f"curve {index}: {trip!r}")
                trip_payload.append(repr(trip))
                failed += 1
                continue
            _, generators, _, lines, _ = trip
            trip_payload.append([
                [[str(q.a), str(q.b), str(q.kappa)] for q in generators],
                [[str(l.A), str(l.B), str(l.C)] for l in lines],
            ])
            if not self._trip_ok(index, trip):
                problems.append(f"curve {index}: round trip check failed")
                failed += 1
        histogram = [bounds.count(v) for v in range(max(bounds, default=0) + 1)]
        return Checked(
            digest({"scans": reports, "histogram": histogram, "curves": trip_payload}),
            2 * self.trials + len(trips),
            failed,
            problems,
        )


WORKLOADS = {cls.name: cls for cls in (ScalingLattice, MatchingIdentity, CurveCertify)}
