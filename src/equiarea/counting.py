"""Brute-force oracles, the matching identity, generators, and experiments.

Two independent counters back every experiment: the cubic brute-force
oracle `count_brute` over all point triples, and `count_pairline`, which
looks the third vertex up on the two parallel lines where it must lie,
through the census in `incidence`. They must agree exactly on every input,
and both are invariant under shears. `count_pairline`, `tally_by_richness`
and `RichnessTally` live in `incidence`, the module that walks every base,
and are re-exported here.
"""

from __future__ import annotations

import logging
import math
import random
import time
from collections import Counter
from dataclasses import astuple, dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .geometry import (GeometryError, InvariantViolation, Point, ZeroArea, check_area, check_distinct, integer_points,
                       signed_area2)
from .incidence import RichnessTally, census_of_pairs, rich_table, tally_by_richness
from .matching import count_matching_on_lines

# Not called here: public re-exports, and names bench/tracer.py wraps on this module.
from .geometry import find_shear, shear
from .incidence import count_pairline, incidence_stats
from .matching import count_matching_pairs

log = logging.getLogger("equiarea")


class Unsatisfiable(GeometryError):
    """The requested random configuration cannot exist."""


def count_brute(points: Sequence, area: Fraction | int) -> int:
    """Reference oracle: test all triples for |signed area| equal to the target."""
    area = check_area(area)
    check_distinct(points)
    target = 2 * area
    neg = -target
    # Read without integer_points, so that this oracle shares no code with the kernel.
    pts = [tuple(int(c) if c.denominator == 1 else c for c in (x, y)) for x, y in points]
    count = 0
    for (ax, ay), (bx, by), (cx, cy) in combinations(pts, 3):
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if cross == target or cross == neg:
            count += 1
    return count


#: Exhaustive area search scans all C(n,3) triples; keep it a small-n utility.
MODE_AREA_SIZE_LIMIT = 300


def mode_area(points: Sequence) -> tuple[Fraction, int]:
    """The most repeated triangle area and its count, by full enumeration.

    The fixed-area experiments track one chosen area; this reports which area
    is actually best for a given set. Ties break toward the smaller area.
    """
    if len(points) > MODE_AREA_SIZE_LIMIT:
        raise ValueError(f"mode_area is capped at n = {MODE_AREA_SIZE_LIMIT}")
    pts, _, scale = integer_points(points)
    tallies: Counter = Counter()
    for (ax, ay), (bx, by), (cx, cy) in combinations(pts, 3):
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if cross != 0:
            tallies[abs(cross)] += 1
    if not tallies:
        raise ZeroArea("the set spans no triangles")
    best = max(tallies.items(), key=lambda kv: (kv[1], -kv[0]))
    return Fraction(best[0], 2 * scale * scale), best[1]


def fixed_area_triangles(
    points: Sequence[Point], area: Fraction | int
) -> list[tuple[Point, Point, Point]]:
    """All unordered triples spanning the given area (brute enumeration)."""
    area = check_area(area)
    check_distinct(points)
    target = 2 * area
    return [tri for tri in combinations(points, 3) if abs(signed_area2(*tri)) == target]


@dataclass(frozen=True, slots=True)
class MatchingIdentityReport:
    M: int
    T2: int
    T3: int
    holds: bool
    tally: RichnessTally


def matching_count(
    points: Sequence, k: int, area: Fraction | int, require_q_in_s: bool = True
) -> tuple[int, int]:
    """(N, M): incidences on k-rich lines, and ordered counterclockwise matching
    pairs among them (with require_q_in_s, only those whose third vertex is in
    the set). About min(N*m, 2*P*N) integer steps over `incidence.rich_table`,
    for P the points on those m lines, with no shear.
    """
    pts, _, scale = integer_points(points)
    lines = rich_table(pts, k)
    m = count_matching_on_lines(lines, Fraction(area) * scale * scale, set(pts) if require_q_in_s else None)
    return sum(map(len, lines.values())), m


def matching_identity_check(
    points: Sequence, k: int, area: Fraction | int = 1
) -> MatchingIdentityReport:
    """Check M = 3*T3 + T2 on one point set.

    M counts ordered counterclockwise matching pairs whose completed third
    vertex lies in the set; every fixed-area triangle contributes one such
    pair per vertex pair whose two top lines are rich, which is three pairs
    when all three top lines are rich and one when exactly two are. Both
    sides run on the integer kernel, vertical rich lines included.
    """
    area = check_area(area)
    _, m = matching_count(points, k, area)
    tally = tally_by_richness(points, k, area)
    return MatchingIdentityReport(m, tally.T2, tally.T3, m == 3 * tally.T3 + tally.T2, tally)


# ---------------------------------------------------------------------------
# Point-set generators


def _lattice_pairs(n: int) -> list[tuple[int, int]]:
    if n < 4:
        raise ValueError("lattice sections start at n = 4")
    rows = max(2, round(math.sqrt(math.log2(n))))
    return _grid_pairs(rows, -(-n // rows))[:n]


def _random_pairs(n: int, coordinate_bound: int, seed: int) -> list[tuple[int, int]]:
    if n < 0:
        raise ValueError("n must be non-negative")
    if coordinate_bound < 0:
        raise ValueError(f"coordinate bound must be non-negative, got {coordinate_bound}")
    available = (2 * coordinate_bound + 1) ** 2
    if n > available:
        raise Unsatisfiable(f"cannot place {n} distinct points in {available} cells")
    rng, b = random.Random(seed), coordinate_bound
    drawn: dict[tuple[int, int], None] = {}  # first draws in order, repeats dropped
    while len(drawn) < n:
        drawn[rng.randint(-b, b), rng.randint(-b, b)] = None
    return list(drawn)


def _grid_pairs(rows: int, cols: int) -> list[tuple[int, int]]:
    if rows <= 0 or cols <= 0:
        raise ValueError("grid dimensions must be positive")
    return [(x, y) for y in range(rows) for x in range(cols)]


def _parallel_pairs(lines: int, per_line: int, spacing: int) -> list[tuple[int, int]]:
    if lines <= 0 or per_line <= 0 or spacing <= 0:
        raise ValueError("dimensions must be positive")
    return [(x, y * spacing) for y in range(lines) for x in range(per_line)]


def gen_lattice_section(n: int) -> list[Point]:
    """First n points of a short-and-wide integer grid section.

    Rows = max(2, round(sqrt(log2 n))); such flat sections force many repeated
    triangle areas, which is what the scaling experiment tracks.
    """
    return [Point(x, y) for x, y in _lattice_pairs(n)]


def gen_random(n: int, coordinate_bound: int, seed: int) -> list[Point]:
    """n distinct integer points in the square [-bound, bound]^2, seeded."""
    return [Point(x, y) for x, y in _random_pairs(n, coordinate_bound, seed)]


def gen_grid(rows: int, cols: int) -> list[Point]:
    return [Point(x, y) for x, y in _grid_pairs(rows, cols)]


def gen_parallel_lines(lines: int, per_line: int, spacing: int) -> list[Point]:
    """Points on equally spaced horizontal lines."""
    return [Point(x, y) for x, y in _parallel_pairs(lines, per_line, spacing)]


# ---------------------------------------------------------------------------
# Scaling experiments

CSV_HEADER = "generator,n,k,area,count,m,N,M,T0,T1,T2,T3,seconds,seed"

#: Above this size the matching count and richness tally are skipped. Both are
#: cheap now (about min(N*m, 2*P*N) steps, and O(n^2 + T)); the cutoff stays at
#: 30 because raising it changes the scaling CSV.
MATCHING_SIZE_LIMIT = 30


@dataclass(frozen=True)
class ExperimentRow:
    generator: str
    n: int
    k: int
    area: Fraction
    count: int
    m: int
    N: int
    M: int | None
    T0: int | None
    T1: int | None
    T2: int | None
    T3: int | None
    seconds: float
    seed: int

    def csv(self) -> str:
        fields = (self.generator, self.n, self.k, self.area, self.count, self.m, self.N,
                  self.M, self.T0, self.T1, self.T2, self.T3, f"{self.seconds:.6f}", self.seed)
        return ",".join("" if v is None else str(v) for v in fields)


def _generate(kind: str, n: int, seed: int) -> list[tuple[int, int]]:
    """The integer pairs of one scaling row's set, as its public generator orders them."""
    if kind == "lattice":
        return _lattice_pairs(n)
    if kind == "random":
        bound = max(4, 2 * math.isqrt(n) + 2)
        return _random_pairs(n, bound, seed)
    if kind == "grid":
        rows = max(1, math.isqrt(n))
        return _grid_pairs(rows, -(-n // rows))[:n]
    if kind == "parallel":
        return _parallel_pairs(3, -(-n // 3), 1)[:n]
    raise ValueError(f"unknown generator kind: {kind}")


def default_area(kind: str) -> Fraction:
    """The documented default target area per generator.

    Integer-lattice sections get 1/2, the smallest area an integer triangle
    can have. It is a fixed choice, not the most repeated area: on
    `gen_lattice_section(100)` area 1 has more triangles (7 417 against 5 442).
    """
    return Fraction(1, 2) if kind == "lattice" else Fraction(1)


def scaling_experiment(
    kind: str,
    sizes: Sequence[int],
    k: int = 2,
    area: Fraction | int | None = None,
    seed: int = 0,
) -> list[ExperimentRow]:
    """One row per size; count, m and N from one `incidence.census_of_pairs`
    of the size's sorted integer pairs at scale 1, with no `Point` built and
    no hash set: the census raises DuplicatePoints on a repeated pair.

    For sizes up to MATCHING_SIZE_LIMIT the same pairs go to
    `matching_identity_check`, whose tally total must equal the count; above
    it the matching CSV cells stay blank. For lattice sections count/n^2 is a
    trend, not a theorem (a section's last row fills in gradually): a drop
    from one size to the next is logged as a warning.
    """
    if list(sizes) != sorted(sizes):
        raise ValueError("sizes must be ascending")
    if sizes and sizes[0] < 0:
        raise ValueError(f"sizes must be non-negative, got {sizes[0]}")
    area = default_area(kind) if area is None else check_area(area)
    rows: list[ExperimentRow] = []
    for n in sizes:
        started = time.perf_counter()
        pts = sorted(_generate(kind, n, seed + n))
        count, stats = census_of_pairs(pts, 1, k, area)
        m_val, tally = None, (None,) * 4
        if n <= MATCHING_SIZE_LIMIT:
            report = matching_identity_check(pts, k, area)
            if not report.holds:
                raise InvariantViolation(f"matching identity failed at n={n}")
            if report.tally.total != count:
                raise InvariantViolation(f"tally total {report.tally.total} is not the census count {count} at n={n}")
            m_val, tally = report.M, astuple(report.tally)
        seconds = time.perf_counter() - started
        rows.append(ExperimentRow(kind, n, k, area, count, stats.m, stats.N, m_val, *tally, seconds, seed))
    if kind == "lattice":
        for prev, cur in zip(rows, rows[1:]):
            if cur.count * prev.n**2 < prev.count * cur.n**2:
                log.warning("count/n^2 decreased from n=%d to n=%d", prev.n, cur.n)
    return rows


def experiment_csv(rows: Iterable[ExperimentRow]) -> str:
    return "\n".join([CSV_HEADER, *(row.csv() for row in rows)]) + "\n"
