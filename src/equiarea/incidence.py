"""Spanned lines, k-rich lines, their incidence pairs, and every base walk.

The line lists run on the integer line kernel `pair_lines` and the line
table `rich_table` that counting, matching and curves share. `ordered_table`
sorts the rich lines once by canonical `Line`, compared as the integer
triple `key_triple`: the order every line and incidence list here follows.
`incidence_param` builds an incidence pair straight from a line key and an
integer point. The census `_count` counts the triangles of one area and
sizes every spanned line in one pass, on one of three branches;
`count_pairline` and `census_of_pairs` (under `census`) both run it.
`tally_by_richness` walks the bases once more, to split the triangles by
their rich top lines.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .geometry import DuplicatePoints, GeometryError, InvariantViolation, Line, check_area, integer_points
from .matching import IncidencePairParam


class VerticalLinePresent(GeometryError):
    """A rich line is vertical, so it cannot be parametrized; shear first."""


@dataclass(frozen=True)
class SpannedLine:
    """A line through at least two input points, with its members sorted."""

    line: Line
    members: tuple


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


def spanned_lines(points: Sequence) -> list[SpannedLine]:
    """Every line through >= 2 points, sorted by canonical form."""
    return rich_lines(points, 2)


def rich_lines(points: Sequence, k: int) -> list[SpannedLine]:
    """Spanned lines holding at least k points."""
    pts, originals, scale = integer_points(points)
    original = dict(zip(pts, originals))
    return [SpannedLine(key_line(key, scale), tuple(map(original.get, on))) for key, on in ordered_table(pts, k, scale)]


def incidence_pairs(points: Sequence, k: int) -> list[IncidencePairParam]:
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


def _twice_area(area: Fraction | int, scale: int) -> int | None:
    """2*A*scale^2, the integer |cross| of an area-A triangle on the scaled points.

    Scaled points are integers, so every cross is one too: when 2*A*scale^2 is
    not an integer, no triangle has area A and no base has an integer offset.
    A is checked to be positive.
    """
    twice = 2 * check_area(area) * scale * scale
    return twice.numerator if twice.denominator == 1 else None


def _triangles(total: int) -> int:
    if total % 3:
        raise InvariantViolation("each triangle must be found once per side")
    return total // 3


def _pair_count(pts, twice: int, sizes: Counter | None = None) -> int:
    """The pair table: every base pair stored by direction, then each base's
    two parallel lines probed in its direction's pencil. A base of step
    g*(p, q) and value p*y - q*x spans area A with every point whose value
    differs by offset = twice / g; a pair whose offset is no integer is no
    base. About n^2/2 stored entries. With `sizes`, every line through 2 or
    more points is also tallied there by its member count: a direction with
    a base has a pencil anyway, and the lines of the other directions come
    from the values of their own pairs, kept in `others`.
    """
    gcd = math.gcd
    by_direction: dict[tuple[int, int], list[tuple[int, int]]] = {}
    others: dict[tuple[int, int], list[int]] = {}
    for i, (ax, ay) in enumerate(pts):
        for bx, by in pts[i + 1 :]:
            dx, dy = bx - ax, by - ay
            g = gcd(dx, dy)
            offset, rem = divmod(twice, g)
            if rem and sizes is None:
                continue
            p, q = dx // g, dy // g
            value = p * ay - q * ax
            if rem:
                others.setdefault((p, q), []).append(value)
            else:
                by_direction.setdefault((p, q), []).append((value, offset))
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


#: On sets whose rows and columns both give more than sqrt(n) runs, the
#: pencils run when n * (the sum over their directions of 1 + steps) is at
#: most this many times C(n, 2). At area 1 that ratio is 5.6-5.9 on dense
#: random sets such as `gen_random(200, 7, 1)`, and 67-83 on the scaling
#: experiment's random sets; the pencils and the pair table take about equal
#: time near 10-20, as on `gen_random(120, 8, 1)` at 12.
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
    """The maximal horizontal runs [y, x0, x1] of consecutive x, ascending by (y, x0).

    `pts` holds sorted, distinct integer pairs, so each row's x values arrive
    ascending and a repeated pair follows its twin: one pass extends or
    opens the row's last run, in one dict lookup per pair, and only the r
    runs are sorted. A repeat raises DuplicatePoints, and an x below its
    row's last one ValueError.
    """
    open_runs: dict[int, list[int]] = {}
    runs: list[list[int]] = []
    for x, y in pts:
        run = open_runs.get(y)
        if run is not None and run[2] == x - 1:
            run[2] = x
        elif run is None or run[2] < x:
            open_runs[y] = run = [y, x, x]
            runs.append(run)
        elif run[2] == x:
            raise DuplicatePoints(f"point set has repeats: ({x}, {y})")
        else:
            raise ValueError(f"pairs are not sorted: ({x}, {y}) follows x = {run[2]} on its row")
    runs.sort()
    return runs


def _class_sum(upper, lower, last: int) -> int:
    """The sum over m = 0..last of max(0, U(m) - L(m) + 1), for U the least
    of the three lines c + s*m given as (c, s) in `upper` and L the greatest
    of the three in `lower`.

    U and L are each one line between the floors of their lines' crossings,
    so U - L + 1 is linear on each piece between those cuts. A piece is
    summed from its two ends as an arithmetic series, first clipped to where
    it is not negative; twice each sum is added up, so that no piece is
    halved.
    """
    (u1, t1), (u2, t2), (u3, t3) = upper
    (l1, s1), (l2, s2), (l3, s3) = lower
    if not last:
        return max(0, min(u1, u2, u3) - max(l1, l2, l3) + 1)
    cuts = {last}
    if t1 != t2:
        cuts.add((u2 - u1) // (t1 - t2))
    if t1 != t3:
        cuts.add((u3 - u1) // (t1 - t3))
    if t2 != t3:
        cuts.add((u3 - u2) // (t2 - t3))
    if s1 != s2:
        cuts.add((l2 - l1) // (s1 - s2))
    if s1 != s3:
        cuts.add((l3 - l1) // (s1 - s3))
    if s2 != s3:
        cuts.add((l3 - l2) // (s2 - s3))
    twice = 0
    before = -1
    for end in sorted(cuts):
        if end <= before or end > last:
            continue
        start = before + 1
        before = end
        # A piece longer than one point starts past every crossing of its
        # lines, so the least upper and greatest lower line at its start are
        # U and L on all of it.
        top, t = min((u1 + t1 * start, t1), (u2 + t2 * start, t2), (u3 + t3 * start, t3))
        bottom, s = max((l1 + s1 * start, s1), (l2 + s2 * start, s2), (l3 + s3 * start, s3))
        first, step = top - bottom + 1, t - s
        final = first + step * (end - start)
        if first < 0 and final < 0:
            continue
        if first < 0:
            start -= first // step
            first %= step
        elif final < 0:
            end = start + first // -step
            final = first + step * (end - start)
        twice += (first + final) * (end - start + 1)
    return twice // 2


def _line_depths(groups, first: int, last: int, doubled: dict[int, int]) -> None:
    """Adds to `doubled`, per member count, twice the number of lines of
    the directions (pi + q*s, q), s = first..last, that meet two or more
    runs, for the residue groups of `_run_count`'s class (q, pi).

    No two runs' ends cross between first and last, so the sweep's order at
    `first` holds at every s there and each gap between two consecutive ends
    is linear in s: its sum over the range is summed from its two ends.
    """
    steps = last - first
    for group in groups:
        events = sorted([(start + y * first, 1, y) for y, start, _ in group]
                        + [(stop + y * first, -1, y) for y, _, stop in group])
        depth = 0
        for (at, step, y), (following, _, y2) in zip(events, events[1:]):
            depth += step
            if depth > 1:
                gaps = 2 * (following - at) + (y2 - y) * steps
                if gaps:
                    doubled[depth] = doubled.get(depth, 0) + gaps * (steps + 1)


def _run_count(runs, twice: int | None, sizes: Counter | None = None) -> int:
    """The row runs: every base, third vertex and line from the r runs, with
    no per-point pencil and no stored pair.

    A base a -> a + (dx, dy), dy > 0, from run i to run j has its starts
    x_a on one interval I. With g = gcd(dx, dy) dividing twice, a third
    vertex on row y_k = y_i + e sits at x_a + delta for
    dy*delta = dx*e -+ twice, so run k adds |I meet [x0_k, x1_k] - delta|
    when dy divides that. Whether g divides twice and dy divides
    dx*e -+ twice depends only on the residue class rho of dx mod dy, and
    within a class dx = rho + dy*m every end of that overlap is linear in m,
    so `_class_sum` adds up the whole class. A pair walks only the classes
    its range of dx meets, at most min(dy, that range's length). A
    horizontal base, of a step dx dividing twice, so at most twice, adds
    |I| times the row sizes at y +- twice / dx. So at a fixed twice the work
    does not grow with the runs' lengths.

    With `sizes`, each line through 2 or more points is tallied there by
    member count: a row is one line, and a sloped line of direction (p, q)
    meets a run at most once, while run k's values p*y_k - q*x step by q. A
    class (q, pi) holds the directions (pi + q*s, q), gcd(pi, q) = 1, and
    as s grows each run's interval of values moves linearly, by y_k per
    step. So within each residue mod q the sweep over the runs' ends is
    linear in s between the floors of the points where two ends cross, and
    holds no line of 2 or more points outside them: each piece is summed
    from the sweeps at its ends. The classes are those of the run pairs'
    residues rho, with q = dy / gcd(rho, dy). So for r runs a pair costs at
    most min(dy, its range of dx) classes of O(r) class sums each, and a
    class of the line sizes O(r^2) pieces of O(r log r) each. With `twice`
    None only the sizes are filled, and the count is 0.
    """
    gcd = math.gcd
    # Runs grouped by row, so that a third row's delta is found once.
    by_row: dict[int, list[tuple[int, int]]] = {}
    for y, x0, x1 in runs:
        by_row.setdefault(y, []).append((x0, x1))
    rows = {y: sum(x1 - x0 + 1 for x0, x1 in spans) for y, spans in by_row.items()}
    classes: set[tuple[int, int]] = set()
    total = 0
    for i, (yi, a0, a1) in enumerate(runs):
        for yj, b0, b1 in runs[i:]:
            dy, low, high = yj - yi, b0 - a1, b1 - a0
            if not dy:
                # A row keeps dx > 0, and only a dx dividing twice is a step: none
                # when twice is None.
                for dx in range(max(1, low), min(high, twice or 0) + 1):
                    if twice % dx == 0:
                        t = twice // dx
                        overlap = min(a1, b1 - dx) - max(a0, b0 - dx) + 1
                        total += overlap * (rows.get(yi + t, 0) + rows.get(yi - t, 0))
                continue
            for rho in range(low, low + min(dy, high - low + 1)):
                g = gcd(rho, dy)
                if sizes is not None:
                    classes.add((dy // g, rho // g % (dy // g)))
                if twice is None or twice % g:
                    continue
                last = (high - rho) // dy
                for yk, spans in by_row.items():
                    e = yk - yi
                    for shifted in (rho * e - twice, rho * e + twice):
                        delta, rem = divmod(shifted, dy)
                        if not rem:
                            for c0, c1 in spans:
                                total += _class_sum(((a1, 0), (b1 - rho, -dy), (c1 - delta, -e)),
                                                    ((a0, 0), (b0 - rho, -dy), (c0 - delta, -e)), last)
    if sizes is not None:
        sizes.update(members for members in rows.values() if members > 1)
        doubled: dict[int, int] = {}
        for q, pi in classes:
            residues: dict[int, list[tuple[int, int, int]]] = {}
            for yk, x0, x1 in runs:
                # At s, run k holds the values residue + q*m for m from
                # base - x1 + y_k*s up to, not including, base - x0 + 1 + y_k*s.
                base, residue = divmod(pi * yk, q)
                residues.setdefault(residue, []).append((yk, base - x1, base - x0 + 1))
            groups = [group for group in residues.values() if len(group) > 1]
            cuts = set()
            for group in groups:
                for index, (y, start, stop) in enumerate(group):
                    for y2, start2, stop2 in group[index + 1 :]:
                        if y != y2:
                            d = y - y2
                            cuts.update(((start2 - start) // d, (stop2 - start) // d,
                                         (start2 - stop) // d, (stop2 - stop) // d))
            ends = sorted(cuts)
            for before, end in zip(ends, ends[1:]):
                _line_depths(groups, before + 1, end, doubled)
        for members, lines in doubled.items():
            sizes[members] += lines // 2
    return 0 if twice is None else _triangles(total)


def _count(pts, twice: int | None, sizes: Counter | None = None) -> int:
    """The census behind `census_of_pairs` and `count_pairline`:
    the triangles of |cross| `twice` on the cleared points, and with `sizes`
    each line through 2 or more of them, tallied by member count (each
    branch's docstring says how). `pts` holds sorted, distinct integer
    pairs: `_row_runs` reads them first, whatever the branch, at one dict
    lookup a pair, and raises DuplicatePoints on a repeat. When the rows give
    more than sqrt(n) runs, the columns are read too, as the rows of the
    transposed pairs; a transpose keeps every |cross| and every line size.
    The row runs run on the first of the two with r^2 <= n runs, such as
    lattice sections, parallel lines and grids, at a cost that at a fixed
    area depends on the runs and not on their length. Other sets run the
    pencils, in O(n * |D|), when their plan is within PENCIL_COST_LIMIT;
    else the pair table, as on random sets. With `twice` None no base
    exists: the count is 0 and only `sizes` is filled, by the row runs when
    they would run, else by `line_sizes`."""
    n = len(pts)
    runs = _row_runs(pts)
    if len(runs) ** 2 > n:
        runs = _row_runs(sorted([(y, x) for x, y in pts]))
    if len(runs) ** 2 <= n:
        return _run_count(runs, twice, sizes)
    if twice is None:
        sizes.update(line_sizes(pts))
        return 0
    count = _pencil_count(pts, twice, sizes, PENCIL_COST_LIMIT)
    return _pair_count(pts, twice, sizes) if count is None else count


def census_of_pairs(pts: Sequence[tuple[int, int]], scale: int, k: int,
                    area: Fraction | int | None = None) -> tuple[int, IncidenceStats]:
    """The number of area-`area` triangles and the IncidenceStats of one set,
    given as sorted, distinct integer pairs, `scale` times its points, from
    one `_count`, in which a repeated pair raises DuplicatePoints. With
    `area` None the count is 0 and only the line sizes are computed; any
    other area must be positive. `stats_from_sizes` checks that the lines
    hold all C(n, 2) pairs, so no direction was missed.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    sizes: Counter = Counter()
    count = _count(pts, None if area is None else _twice_area(area, scale), sizes)
    return count, stats_from_sizes(len(pts), k, sizes)


def census(points: Sequence, k: int, area: Fraction | int | None = None) -> tuple[int, IncidenceStats]:
    """`census_of_pairs` of the points, cleared by `integer_points`."""
    pts, _, scale = integer_points(points)
    return census_of_pairs(pts, scale, k, area)


def incidence_stats(points: Sequence, k: int) -> IncidenceStats:
    """Rich-line count m, incidence count N, and their scaling ratios, from
    the `census` with no area. The two ratios are reported for trend
    inspection, never asserted.
    """
    return census(points, k)[1]


def count_pairline(points: Sequence, area: Fraction | int) -> int:
    """The number of area-`area` triangles, exactly `counting.count_brute`'s.

    A base's third vertex lies on one of its two parallel lines at the area's
    offset, found by the key p*y - q*x of the primitive direction (p, q), in
    integers throughout, on the branch that `_count` picks.
    """
    pts, _, scale = integer_points(points)
    twice = _twice_area(area, scale)
    return 0 if twice is None else _count(pts, twice)


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


def tally_by_richness(points: Sequence, k: int, area: Fraction | int = 1) -> RichnessTally:
    """Classify every area-A triangle by its number of k-rich top lines.

    Stores every base (i, j, value, offset) by direction, in O(n^2 + T) for
    T triangles: a third vertex r found over a base sits in the pencil bucket
    of r's top line over that base, so the bucket holds that line's members.
    Each triangle is met once per side, which yields all three top lines.

    Also enforces the assignment bound behind the poor-triangle count: a base
    pair can own at most 2*(k-1) triangles whose top line over that base is
    poor, because each of the two candidate parallel lines then holds at most
    k-1 points.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    pts, originals, scale = integer_points(points)
    twice = _twice_area(area, scale)
    if twice is None:
        return RichnessTally(0, 0, 0, 0)
    gcd = math.gcd
    by_direction: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
    for i, (ax, ay) in enumerate(pts):
        for j, (bx, by) in enumerate(pts[i + 1 :], i + 1):
            dx, dy = bx - ax, by - ay
            g = gcd(dx, dy)
            offset, rem = divmod(twice, g)
            if not rem:
                p, q = dx // g, dy // g
                by_direction.setdefault((p, q), []).append((i, j, p * ay - q * ax, offset))
    limit = 2 * (k - 1)
    rich_top_lines: dict[tuple[int, int, int], int] = {}
    for (p, q), bases in by_direction.items():
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
