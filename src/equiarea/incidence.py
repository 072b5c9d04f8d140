"""Spanned lines, k-rich lines, their incidence pairs, and the line census.

The line lists run on the integer line kernel `pair_lines` and the line
table `rich_table` that counting, matching and curves share. `ordered_table`
sorts the rich lines once by canonical `Line`, compared as the integer
triple `key_triple`: the order every line and incidence list here follows.
`incidence_param` builds an incidence pair straight from a line key and an
integer point. The census `_count` counts the triangles of one area and
sizes every spanned line in one pass, on one of three branches;
`count_pairline`, `census` and `incidence_stats` all run it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .geometry import GeometryError, InvariantViolation, Line, Point, integer_points
from .matching import IncidencePairParam


class VerticalLinePresent(GeometryError):
    """A rich line is vertical, so it cannot be parametrized; shear first."""


@dataclass(frozen=True)
class SpannedLine:
    """A line through at least two input points, with its members sorted."""

    line: Line
    members: tuple[Point, ...]


def pair_lines(pts: Sequence[tuple[int, int]]) -> Iterator[tuple[int, int, tuple[int, int, int]]]:
    """The integer line kernel: (i, j, key) for every index pair i < j.

    `pts` holds distinct integer points in lexicographic order (as returned by
    `integer_points`), so the step from point i to point j, divided by its
    gcd, is the sign-normalised primitive direction (p, q). The functional
    p*y - q*x is constant along (p, q), so key = (p, q, p*y - q*x) names the
    line through both points.
    """
    gcd = math.gcd
    for i, (ax, ay) in enumerate(pts):
        for j, (bx, by) in enumerate(pts[i + 1 :], i + 1):
            dx, dy = bx - ax, by - ay
            g = gcd(dx, dy)
            p, q = dx // g, dy // g
            yield i, j, (p, q, p * ay - q * ax)


def key_line(key: tuple[int, int, int], scale: int) -> Line:
    """The canonical Line of a key: p*Y - q*X = c with (X, Y) = scale*(x, y)."""
    p, q, c = key
    return Line(-q * scale, p * scale, -c)


def key_triple(key: tuple[int, int, int], scale: int) -> tuple[int, int, int]:
    """(A, B, C) of `key_line(key, scale)`, without building the Line.

    (p, q) is primitive, so the gcd of (-q*scale, p*scale, -c) is
    gcd(scale, c); the sign is flipped when q > 0, which leaves A >= 0, and
    B = p*scale/t > 0 when A = 0.
    """
    p, q, c = key
    t = math.gcd(scale, c)
    unit = scale // t
    if q > 0:
        return q * unit, -p * unit, c // t
    return -q * unit, p * unit, -c // t


def members_from_pairs(pairs: int) -> int:
    """The m with C(m, 2) = pairs: a line with m members holds that many pairs."""
    m = (1 + math.isqrt(1 + 8 * pairs)) // 2
    if m * (m - 1) // 2 != pairs:
        raise InvariantViolation(f"{pairs} point pairs on one line is not a triangular number")
    return m


def rich_table(pts: Sequence[tuple[int, int]], k: int) -> dict[tuple[int, int, int], list[tuple[int, int]]]:
    """Key (p, q, c) -> member points, ascending, per line p*y - q*x = c holding >= k of `pts`."""
    if k < 2:
        raise ValueError("k must be at least 2")
    # Pairs reach a line in lexicographic order, so its first pair (i, j)
    # holds its two least members and every later member arrives with i.
    table: dict[tuple[int, int, int], list[int]] = {}
    for i, j, key in pair_lines(pts):
        members = table.get(key)
        if members is None:
            table[key] = [i, j]
        elif members[0] == i:
            members.append(j)
    return {key: [pts[i] for i in members] for key, members in table.items() if len(members) >= k}


def ordered_table(pts: Sequence[tuple[int, int]], k: int, scale: int) -> list[tuple[tuple, list]]:
    """`rich_table` as (key, members), sorted by the canonical Line of the
    key, compared as its `key_triple`: the order of every line and incidence
    list here."""
    return sorted(rich_table(pts, k).items(), key=lambda item: key_triple(item[0], scale))


def incidence_param(key: tuple[int, int, int], point: tuple[int, int], scale: int) -> IncidencePairParam:
    """The pair (x/scale, y/scale, q/p) of a key and a point from one
    `rich_table`, which agree by construction, so nothing is re-checked; a
    vertical line (p = 0) raises VerticalLinePresent."""
    p, q, _ = key
    if p == 0:
        raise VerticalLinePresent(f"{key_line(key, scale)} is rich and vertical")
    x, y = point
    return IncidencePairParam(Fraction(x, scale), Fraction(y, scale), Fraction(q, p))


def spanned_lines(points: Sequence[Point]) -> list[SpannedLine]:
    """Every line through >= 2 points, sorted by canonical form."""
    return rich_lines(points, 2)


def rich_lines(points: Sequence[Point], k: int) -> list[SpannedLine]:
    """Spanned lines holding at least k points."""
    pts, originals, scale = integer_points(points)
    original = dict(zip(pts, originals))
    return [SpannedLine(key_line(key, scale), tuple(map(original.get, on))) for key, on in ordered_table(pts, k, scale)]


def incidence_pairs(points: Sequence[Point], k: int) -> list[IncidencePairParam]:
    """One parametrized pair per (rich line, member point), in `ordered_table` order.

    Every rich line must be sloped; run the point set through a shear first if
    any spanned line is vertical.
    """
    pts, _, scale = integer_points(points)
    return [incidence_param(key, point, scale) for key, on in ordered_table(pts, k, scale) for point in on]


@dataclass(frozen=True)
class IncidenceStats:
    n: int
    k: int
    m: int
    N: int
    ratio_m: Fraction
    ratio_N: Fraction


def line_sizes(pts: Sequence[tuple[int, int]]) -> Counter:
    """Member count -> number of lines, over every line through 2 or more of `pts`."""
    lines_per_pair_count = Counter(Counter(key for _, _, key in pair_lines(pts)).values())
    return Counter({members_from_pairs(pairs): lines for pairs, lines in lines_per_pair_count.items()})


def stats_from_sizes(n: int, k: int, sizes: Counter) -> IncidenceStats:
    """IncidenceStats of n points from their line sizes (member count -> lines).

    Checks that the lines hold each of the C(n,2) point pairs exactly once,
    and the bounds m * C(k,2) <= C(n,2) and N >= m*k.
    """
    pairs = math.comb(n, 2)
    if sum(lines * math.comb(members, 2) for members, lines in sizes.items()) != pairs:
        raise InvariantViolation(f"the spanned lines of {n} points do not hold {pairs} point pairs")
    m = sum(lines for members, lines in sizes.items() if members >= k)
    big_n = sum(members * lines for members, lines in sizes.items() if members >= k)
    if m * math.comb(k, 2) > pairs:
        raise InvariantViolation(f"rich-line bound failed: m={m}, k={k}, n={n}")
    if big_n < m * k:
        raise InvariantViolation(f"incidence count {big_n} below m*k = {m * k}")
    denom = n * n
    return IncidenceStats(
        n=n,
        k=k,
        m=m,
        N=big_n,
        ratio_m=Fraction(m * k**3, denom) if denom else Fraction(0),
        ratio_N=Fraction(big_n * k**2, denom) if denom else Fraction(0),
    )


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

    This is `pair_lines` inlined, being the pair table's hot loop.
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
                    sizes[members_from_pairs(pairs)] += 1
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
    """The census behind `census`, `count_pairline` and `incidence_stats`:
    the triangles of |cross| `twice` on the cleared points, and with `sizes`
    each line through 2 or more of them, tallied by member count (each
    branch's docstring says how). Sets of r row runs with r^3 <= n, such as
    lattice sections and parallel lines, run the row runs, in O(|D| * r^3)
    for D the distinct differences. Other sets run the pencils, in
    O(n * |D|), when their plan is within PENCIL_COST_LIMIT, as on grids;
    else the pair table, as on random sets. With `twice` None no base
    exists: the count is 0 and only `sizes` is filled, by the row runs when
    they would run, else by `line_sizes`."""
    runs = _row_runs(pts)
    if len(runs) ** 3 <= len(pts):
        return _run_count(runs, twice, sizes)
    if twice is None:
        sizes.update(line_sizes(pts))
        return 0
    count = _pencil_count(pts, twice, sizes, PENCIL_COST_LIMIT)
    return _pair_count(pts, twice, sizes) if count is None else count


def census(points: Sequence[Point], k: int, area: Fraction | None = None) -> tuple[int, IncidenceStats]:
    """The number of area-`area` triangles and the IncidenceStats of one
    set, from one `_count`. With `area` None the count is 0 and only the
    line sizes are computed. `stats_from_sizes` checks that the lines hold
    all C(n, 2) pairs, so no direction was missed.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    pts, _, scale = integer_points(points)
    sizes: Counter = Counter()
    count = _count(pts, None if area is None else _twice_area(area, scale), sizes)
    return count, stats_from_sizes(len(pts), k, sizes)


def incidence_stats(points: Sequence[Point], k: int) -> IncidenceStats:
    """Rich-line count m, incidence count N, and their scaling ratios, from
    the `census` with no area. The two ratios are reported for trend
    inspection, never asserted.
    """
    return census(points, k)[1]
