"""Fixed-area triangle counting, richness tallies, generators, and experiments.

Two independent counters back every experiment: a cubic brute-force oracle
over all point triples, and a quadratic pair-and-pencil counter that looks the
third vertex up on the two parallel lines where it must lie. They must agree
exactly on every input, and both are invariant under shears.
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

# find_shear, shear, incidence_stats and count_matching_pairs are not called here; callers look them up on this module.
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


def _twice_area(area: Fraction, scale: int) -> int | None:
    """2*A*scale^2, the integer |cross| of an area-A triangle on the scaled points.

    Scaled points are integers, so every cross is one too: when 2*A*scale^2 is
    not an integer, no triangle has area A and no base has an integer offset.
    """
    twice = 2 * area * scale * scale
    return twice.numerator if twice.denominator == 1 else None


def _bases_by_direction(
    pts, twice: int | None, with_indices: bool = False, others: dict | None = None
) -> dict:
    """Base pairs by primitive direction (p, q), as (value, offset) or (i, j, value, offset).

    This is `incidence.pair_lines` inlined, being the pair table's hot loop.
    A base of step g*(p, q) and key value p*y - q*x spans area A with every
    point whose value differs by offset = twice / g, for twice = 2*A*scale^2.
    Values are integers, so a base whose offset is not is dropped; with
    `others`, its value is appended to others[(p, q)] instead. Empty when
    twice is None, as no base can exist.
    """
    if twice is None:
        return {}
    gcd = math.gcd
    by_direction: dict[tuple[int, int], list] = {}
    for i, (ax, ay) in enumerate(pts):
        for j, (bx, by) in enumerate(pts[i + 1 :], i + 1):
            dx, dy = bx - ax, by - ay
            g = gcd(dx, dy)
            offset, rem = divmod(twice, g)
            if rem and others is None:
                continue
            p, q = dx // g, dy // g
            value = p * ay - q * ax
            if rem:
                others.setdefault((p, q), []).append(value)
            else:
                by_direction.setdefault((p, q), []).append(
                    (i, j, value, offset) if with_indices else (value, offset)
                )
    return by_direction


def _triangles(total: int) -> int:
    if total % 3:
        raise InvariantViolation("each triangle must be found once per side")
    return total // 3


def _pair_count(pts, twice: int, sizes: Counter | None = None) -> int:
    """The pair table: every base pair stored by direction, then each base's
    two parallel lines probed in its direction's pencil.

    About n^2/2 stored entries. With `sizes`, every line through 2 or more
    points is also tallied there by its member count: a direction with a
    base has a pencil anyway, and the lines of the other directions come
    from the values of their own pairs, which `_bases_by_direction` leaves
    in `others`.
    """
    others = None if sizes is None else {}
    by_direction = _bases_by_direction(pts, twice, others=others)
    n = len(pts)
    total = 0
    for (p, q), bases in by_direction.items():
        pencil = Counter([p * y - q * x for x, y in pts])
        for value, offset in bases:
            total += pencil[value + offset] + pencil[value - offset]
        if sizes is not None:
            # A line of m members takes m - 1 values out of the pencil and
            # holds C(m, 2) pairs; the two agree only for m = 2.
            pairs = len(bases) + len(others.get((p, q), ()))
            if n - len(pencil) == pairs:
                sizes[2] += pairs
            else:
                sizes.update(members for members in pencil.values() if members > 1)
    if sizes is not None:
        for direction, values in others.items():
            if direction not in by_direction:
                for pairs in Counter(values).values():
                    sizes[_incidence.members_from_pairs(pairs)] += 1
    return _triangles(total)


#: On sets of more than n^(1/3) row runs, the pencils run when n * (the sum
#: over their directions of 1 + steps) is at most this many times C(n, 2).
#: That ratio is 4.0-5.4 on grids, and 67-83 on the scaling experiment's
#: random sets; the pencils and the pair table take about equal time near
#: 10-20, on denser random sets. Lattice sections and parallel lines have
#: r^3 <= n and run the row runs.
PENCIL_COST_LIMIT = 8


def _pencil_plan(pts, twice: int, every_direction: bool, limit: int | None = None):
    """(codes, width, radius, plan), where plan maps each primitive direction
    the pencils need to its steps; None once they would cost more than
    limit * C(n, 2).

    A point is coded as x*W + y - y_min, for W = 2*radius + 1 and radius the
    range of y. Codes ascend with `pts`, and code(b) - code(a) = dx*W + dy
    tells every difference (dx, dy) apart, as |dy| <= radius. The distinct
    differences, met row by row, reduce to a direction code p*W + q and a
    step g = gcd(dx, dy), which is kept when it divides `twice`. A direction
    with a step, or any direction with `every_direction`, costs n * (1 + its
    steps). On random sets nearly every difference is a new direction, so a
    plan over the limit is dropped within a few rows.
    """
    n = len(pts)
    low = min((y for _, y in pts), default=0)
    radius = max((y for _, y in pts), default=0) - low
    width = 2 * radius + 1
    codes = [x * width + y - low for x, y in pts]
    budget = None if limit is None else limit * math.comb(n, 2)
    gcd = math.gcd
    plan: dict[int, list[int]] = {}
    seen: set[int] = set()
    cost = 0
    for i, code in enumerate(codes):
        new = {other - code for other in codes[i + 1 :]} - seen
        seen |= new
        for difference in new:
            dx = (difference + radius) // width
            g = gcd(dx, difference - dx * width)
            step = twice % g == 0
            if step or every_direction:
                direction = difference // g
                steps = plan.get(direction)
                if steps is None:
                    plan[direction] = steps = []
                    cost += n
                if step:
                    steps.append(g)
                    cost += n
        if budget is not None and cost > budget:
            return None
    return codes, width, radius, plan


def _pencil_count(pts, twice: int, sizes: Counter | None = None, limit: int | None = None) -> int | None:
    """The pencils: one n-point pencil per direction, and no stored pair.

    For each direction (p, q) of `_pencil_plan` the pencil maps the value
    p*y - q*x of every line to its member count. For each step g, every
    base a -> a + g*(p, q) is found by a set lookup and adds the pencil
    counts at its value +- twice / g. That is O(n * |D|) time and
    O(n + |D|) memory, for D the distinct differences. With `sizes`, every
    spanned direction gets a pencil, and its lines through 2 or more points
    are tallied there by member count. None, with `sizes` untouched, when
    the plan is over `limit`.
    """
    planned = _pencil_plan(pts, twice, sizes is not None, limit)
    if planned is None:
        return None
    codes, width, radius, plan = planned
    code_set = set(codes)
    total = 0
    for direction, steps in plan.items():
        p = (direction + radius) // width
        q = direction - p * width
        values = [p * y - q * x for x, y in pts]
        pencil = Counter(values)
        get = pencil.get
        if sizes is not None:
            sizes.update(pencil.values())
        for g in steps:
            shift, offset = g * direction, twice // g
            total += sum([get(v + offset, 0) + get(v - offset, 0)
                          for code, v in zip(codes, values) if code + shift in code_set])
    if sizes is not None:
        del sizes[1]  # the pencils also hold every line through one point
    return _triangles(total)


def _row_runs(pts) -> list[list[int]]:
    """The maximal horizontal runs [y, x0, x1] of consecutive x, ascending by (y, x0)."""
    runs: list[list[int]] = []
    for y, x in sorted((y, x) for x, y in pts):
        if runs and runs[-1][0] == y and runs[-1][2] == x - 1:
            runs[-1][2] = x
        else:
            runs.append([y, x, x])
    return runs


def _run_count(runs, twice: int | None, sizes: Counter | None = None) -> int:
    """The row runs: every base, third vertex and line from the r runs, with
    no per-point pencil and no stored pair.

    A base a -> a + g*(p, q), canonical as q > 0 or q = 0 < p, runs from run
    i to run j with y_j = y_i + g*q; over one step dx = g*p its starts x_a
    form one interval I. Its value p*y - q*x moves by +-t, t = twice / g, at
    a third vertex, which on run k sits at x_a + delta for
    q*delta = p*(y_k - y_i) -+ t, so run k adds |I meet [x0_k, x1_k] - delta|
    when q divides that. A horizontal base adds |I| times the row sizes at
    y +- t. With `sizes`, each line through 2 or more points is tallied
    there by member count: a row is one line, and a sloped line meets a run
    at most once, while run k's values p*y_k - q*x step by q. So within each
    residue mod q a sweep over the runs' ends gives the member counts. A
    difference (dx, dy) meets at most r^2 run pairs and r third runs each,
    so that is O(|D| * r^3) time for D the distinct differences, and
    O(r + |D|) memory. With `twice` None only the sizes are filled, and the
    count is 0.
    """
    gcd = math.gcd
    # Runs grouped by row, so that a third row's delta is found once.
    by_row: dict[int, list[tuple[int, int]]] = {}
    for y, x0, x1 in runs:
        by_row.setdefault(y, []).append((x0, x1))
    rows = {y: sum(x1 - x0 + 1 for x0, x1 in spans) for y, spans in by_row.items()}
    directions: set[tuple[int, int]] = set()
    total = 0
    for i, (yi, a0, a1) in enumerate(runs):
        for yj, b0, b1 in runs[i:]:
            dy = yj - yi
            # Every step dx from a point of run i to one of run j; a row keeps dx > 0.
            for dx in range(b0 - a1 if dy else max(1, b0 - a1), b1 - a0 + 1):
                g = gcd(dx, dy)
                p, q = dx // g, dy // g
                if sizes is not None and q:
                    directions.add((p, q))
                if twice is None or twice % g:
                    continue
                t = twice // g
                lo, hi = max(a0, b0 - dx), min(a1, b1 - dx)
                if not q:
                    total += (hi - lo + 1) * (rows.get(yi + t, 0) + rows.get(yi - t, 0))
                    continue
                for yk, spans in by_row.items():
                    rise = p * (yk - yi)
                    for shifted in (rise - t, rise + t):
                        delta, rem = divmod(shifted, q)
                        if not rem:
                            for c0, c1 in spans:
                                overlap = min(hi, c1 - delta) - max(lo, c0 - delta)
                                if overlap >= 0:
                                    total += overlap + 1
    if sizes is not None:
        sizes.update(members for members in rows.values() if members > 1)
        for p, q in directions:
            residues: dict[int, list[tuple[int, int]]] = {}
            for yk, x0, x1 in runs:
                # Run k holds the values residue + q*m for m in [base - x1, base - x0].
                base, residue = divmod(p * yk, q)
                residues.setdefault(residue, []).append((base - x1, base - x0))
            for ends in residues.values():
                if len(ends) > 1:
                    events = sorted([(start, 1) for start, _ in ends] + [(end + 1, -1) for _, end in ends])
                    depth = 0
                    for (at, step), (following, _) in zip(events, events[1:]):
                        depth += step
                        if depth > 1 and following > at:
                            sizes[depth] += following - at
    return 0 if twice is None else _triangles(total)


def _count(pts, twice: int | None, sizes: Counter | None = None) -> int:
    """The row runs, in O(|D| * r^3), when the r row runs have r^3 <= n; else
    the pencils, in O(n * |D|), when their plan is within PENCIL_COST_LIMIT;
    else the pair table. D is the set of distinct differences. With `twice`
    None no base exists: the count is 0 and only `sizes` is filled."""
    runs = _row_runs(pts)
    if len(runs) ** 3 <= len(pts):
        return _run_count(runs, twice, sizes)
    if twice is None:
        sizes.update(_incidence.line_sizes(pts))
        return 0
    count = _pencil_count(pts, twice, sizes, PENCIL_COST_LIMIT)
    return _pair_count(pts, twice, sizes) if count is None else count


def count_pairline(points: Sequence[Point], area: Fraction | int) -> int:
    """Pair-and-pencil counter, exactly equal to count_brute on every input.

    For each base pair the third vertex lies on one of the two lines parallel
    to the base at the matching area offset. Within a parallel pencil the line
    through a point is keyed by the linear functional p*y - q*x of the
    primitive direction (p, q), so each lookup is a hash probe that also
    catches lines holding just that one point. All of it is integer
    arithmetic, on one of three branches that `_count` picks. Sets of r
    maximal row runs with r^3 <= n, such as lattice sections and parallel
    lines, run the row runs (`_run_count`), in O(|D| * r^3) for D the
    distinct differences. Other sets that span few directions, such as grids,
    run the pencils (`_pencil_count`), in O(n * |D|); neither stores a pair.
    Sets that span about one direction per pair, such as random sets, run
    the pair table (`_pair_count`).
    """
    area = _check_area(area)
    pts, _, scale = integer_points(points)
    twice = _twice_area(area, scale)
    return 0 if twice is None else _count(pts, twice)


def _census(points: Sequence[Point], k: int, area: Fraction) -> tuple[int, _incidence.IncidenceStats]:
    """count_pairline and incidence_stats of one set, from one pass.

    `_count` picks the branch as count_pairline does, and each branch also
    tallies the lines through 2 or more points by member count: the row
    runs sweep each spanned direction's run values, the pencils give every
    spanned direction one, and the pair table reads the lines of a
    direction without a base off the values of its own pairs.
    `stats_from_sizes` checks that the lines hold all C(n, 2) pairs, so no
    direction was missed. When no base can exist the count is 0 and only
    the line sizes are computed: by the row runs when they would run, else
    by `incidence.line_sizes`.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    pts, _, scale = integer_points(points)
    sizes: Counter = Counter()
    count = _count(pts, _twice_area(area, scale), sizes)
    return count, _incidence.stats_from_sizes(len(pts), k, sizes)


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

    Runs count_pairline's pencil enumeration, in O(n^2 + T) for T triangles:
    a third vertex r found over a base sits in the pencil bucket of r's top
    line over that base, so the bucket holds that line's members. Each
    triangle is met once per side, which yields all three of its top lines.

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
    for (p, q), bases in _bases_by_direction(pts, _twice_area(area, scale), True).items():
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
    """One row per size; count, m and N from one pass over each size's point pairs.

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
        count, stats = _census(points, k, area)
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
