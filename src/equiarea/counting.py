"""Fixed-area triangle counting, richness tallies, generators, and experiments.

Two independent counters back every experiment: a cubic brute-force oracle
over all point triples, and `count_pairline`, which looks the third vertex up
on the two parallel lines where it must lie, through the census
`incidence._count`. They must agree exactly on every input, and both are
invariant under shears.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import astuple, dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

# find_shear, shear, incidence_stats and count_matching_pairs are not called here; bench/tracer.py wraps them on this module.
from .geometry import (
    GeometryError,
    InvariantViolation,
    Point,
    ZeroArea,
    check_distinct,
    find_shear,
    integer_points,
    shear,
    signed_area2,
)
from .incidence import incidence_stats
from .matching import count_matching_on_lines, count_matching_pairs
from . import incidence as _incidence


class Unsatisfiable(GeometryError):
    """The requested random configuration cannot exist."""


def _check_area(area: Fraction | int) -> Fraction:
    area = Fraction(area)
    if area <= 0:
        raise ZeroArea("area must be a positive rational")
    return area


def count_brute(points: Sequence[Point], area: Fraction | int) -> int:
    """Reference oracle: test all triples for |signed area| equal to the target."""
    area = _check_area(area)
    check_distinct(points)
    target = 2 * area
    neg = -target
    # Read without integer_points, so that this oracle shares no code with the kernel.
    pts = [tuple(int(c) if c.denominator == 1 else c for c in (p.x, p.y)) for p in points]
    count = 0
    for (ax, ay), (bx, by), (cx, cy) in combinations(pts, 3):
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if cross == target or cross == neg:
            count += 1
    return count


def count_pairline(points: Sequence[Point], area: Fraction | int) -> int:
    """Pair-and-pencil counter, exactly equal to count_brute on every input.

    For each base pair the third vertex lies on one of the two lines parallel
    to the base at the matching area offset. Within a parallel pencil the line
    through a point is keyed by the linear functional p*y - q*x of the
    primitive direction (p, q), so each lookup is a hash probe that also
    catches lines holding just that one point. All of it is integer
    arithmetic, on the branch that `incidence._count` picks.
    """
    area = _check_area(area)
    pts, _, scale = integer_points(points)
    twice = _incidence._twice_area(area, scale)
    return 0 if twice is None else _incidence._count(pts, twice)


#: Exhaustive area search scans all C(n,3) triples; keep it a small-n utility.
MODE_AREA_SIZE_LIMIT = 300


def mode_area(points: Sequence[Point]) -> tuple[Fraction, int]:
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
    area = _check_area(area)
    check_distinct(points)
    target = 2 * area
    return [tri for tri in combinations(points, 3) if abs(signed_area2(*tri)) == target]


@dataclass(frozen=True, slots=True)
class RichnessTally:
    """Fixed-area triangles split by how many of their top lines are k-rich."""

    T0: int
    T1: int
    T2: int
    T3: int

    @property
    def total(self) -> int:
        return self.T0 + self.T1 + self.T2 + self.T3


def tally_by_richness(
    points: Sequence[Point], k: int, area: Fraction | int = 1
) -> RichnessTally:
    """Classify every area-A triangle by its number of k-rich top lines.

    Stores every base by direction, as the census's pair table does
    (`incidence._bases_by_direction`), in O(n^2 + T) for T triangles: a third
    vertex r found over a base sits in the pencil bucket of r's top line over
    that base, so the bucket holds that line's members. Each triangle is met
    once per side, which yields all three of its top lines.

    Also enforces the assignment bound behind the poor-triangle count: a base
    pair can own at most 2*(k-1) triangles whose top line over that base is
    poor, because each of the two candidate parallel lines then holds at most
    k-1 points.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    area = _check_area(area)
    pts, originals, scale = integer_points(points)
    limit = 2 * (k - 1)
    rich_top_lines: dict[tuple[int, int, int], int] = {}
    for (p, q), bases in _incidence._bases_by_direction(pts, _incidence._twice_area(area, scale), True).items():
        pencil: dict[int, list[int]] = {}
        for r, (x, y) in enumerate(pts):
            pencil.setdefault(p * y - q * x, []).append(r)
        for i, j, value, offset in bases:
            poor = 0
            for line in (pencil.get(value + offset, ()), pencil.get(value - offset, ())):
                rich = len(line) >= k
                poor += 0 if rich else len(line)
                for r in line:
                    triangle = (i, j, r) if r > j else (i, r, j) if r > i else (r, i, j)
                    rich_top_lines[triangle] = rich_top_lines.get(triangle, 0) + rich
            if poor > limit:
                base = (originals[i], originals[j])
                raise InvariantViolation(f"base {base} was assigned {poor} poor triangles (limit {limit})")
    buckets = Counter(rich_top_lines.values())
    return RichnessTally(*(buckets[rich] for rich in range(4)))


@dataclass(frozen=True, slots=True)
class MatchingIdentityReport:
    M: int
    T2: int
    T3: int
    holds: bool
    tally: RichnessTally


def matching_count(
    points: Sequence[Point], k: int, area: Fraction | int, require_q_in_s: bool = True
) -> tuple[int, int]:
    """(N, M): incidences on k-rich lines, and ordered counterclockwise matching
    pairs among them (with require_q_in_s, only those whose third vertex is in
    the set). About min(N*m, 2*P*N) integer steps over `incidence.rich_table`,
    for P the points on those m lines, with no shear.
    """
    pts, _, scale = integer_points(points)
    lines = _incidence.rich_table(pts, k)
    m = count_matching_on_lines(lines, Fraction(area) * scale * scale, set(pts) if require_q_in_s else None)
    return sum(map(len, lines.values())), m


def matching_identity_check(
    points: Sequence[Point], k: int, area: Fraction | int = 1
) -> MatchingIdentityReport:
    """Check M = 3*T3 + T2 on one point set.

    M counts ordered counterclockwise matching pairs whose completed third
    vertex lies in the set; every fixed-area triangle contributes one such
    pair per vertex pair whose two top lines are rich, which is three pairs
    when all three top lines are rich and one when exactly two are. Both
    sides run on the integer kernel, vertical rich lines included.
    """
    area = _check_area(area)
    _, m = matching_count(points, k, area)
    tally = tally_by_richness(points, k, area)
    return MatchingIdentityReport(m, tally.T2, tally.T3, m == 3 * tally.T3 + tally.T2, tally)


# ---------------------------------------------------------------------------
# Point-set generators


def gen_lattice_section(n: int) -> list[Point]:
    """First n points of a short-and-wide integer grid section.

    Rows = max(2, round(sqrt(log2 n))); such flat sections force many repeated
    triangle areas, which is what the scaling experiment tracks.
    """
    if n < 4:
        raise ValueError("lattice sections start at n = 4")
    rows = max(2, round(math.sqrt(math.log2(n))))
    cols = -(-n // rows)
    return [Point(x, y) for y in range(rows) for x in range(cols)][:n]


def gen_random(n: int, coordinate_bound: int, seed: int) -> list[Point]:
    """n distinct integer points in the square [-bound, bound]^2, seeded."""
    if n < 0:
        raise ValueError("n must be non-negative")
    available = (2 * coordinate_bound + 1) ** 2
    if n > available:
        raise Unsatisfiable(f"cannot place {n} distinct points in {available} cells")
    rng, b = random.Random(seed), coordinate_bound
    drawn: dict[Point, None] = {}  # first draws in order, repeats dropped
    while len(drawn) < n:
        drawn[Point(rng.randint(-b, b), rng.randint(-b, b))] = None
    return list(drawn)


def gen_grid(rows: int, cols: int) -> list[Point]:
    if rows <= 0 or cols <= 0:
        raise ValueError("grid dimensions must be positive")
    return [Point(x, y) for y in range(rows) for x in range(cols)]


def gen_parallel_lines(lines: int, per_line: int, spacing: int) -> list[Point]:
    """Points on equally spaced horizontal lines."""
    if lines <= 0 or per_line <= 0 or spacing <= 0:
        raise ValueError("dimensions must be positive")
    return [Point(x, y * spacing) for y in range(lines) for x in range(per_line)]


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


def _generate(kind: str, n: int, seed: int) -> list[Point]:
    if kind == "lattice":
        return gen_lattice_section(n)
    if kind == "random":
        bound = max(4, 2 * math.isqrt(n) + 2)
        return gen_random(n, bound, seed)
    if kind == "grid":
        rows = max(1, math.isqrt(n))
        return gen_grid(rows, -(-n // rows))[:n]
    if kind == "parallel":
        return gen_parallel_lines(3, -(-n // 3), 1)[:n]
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
    """One row per size; count, m and N from one `incidence.census` of each size's set.

    The matching count and richness tally are only computed for sizes up to
    MATCHING_SIZE_LIMIT; above it their CSV cells stay blank. For lattice sections the
    normalized count/n^2 must be non-decreasing across the run.
    """
    if list(sizes) != sorted(sizes):
        raise ValueError("sizes must be ascending")
    area = default_area(kind) if area is None else _check_area(area)
    rows: list[ExperimentRow] = []
    for n in sizes:
        started = time.perf_counter()
        points = _generate(kind, n, seed + n)
        count, stats = _incidence.census(points, k, area)
        m_val, tally = None, (None,) * 4
        if n <= MATCHING_SIZE_LIMIT:
            report = matching_identity_check(points, k, area)
            if not report.holds:
                raise InvariantViolation(f"matching identity failed at n={n}")
            m_val, tally = report.M, astuple(report.tally)
        seconds = time.perf_counter() - started
        rows.append(ExperimentRow(kind, n, k, area, count, stats.m, stats.N, m_val, *tally, seconds, seed))
    if kind == "lattice":
        for prev, cur in zip(rows, rows[1:]):
            if cur.count * prev.n**2 < prev.count * cur.n**2:
                raise InvariantViolation(f"count/n^2 decreased from n={prev.n} to n={cur.n}")
    return rows


def experiment_csv(rows: Iterable[ExperimentRow]) -> str:
    return "\n".join([CSV_HEADER, *(row.csv() for row in rows)]) + "\n"
