"""Parametrized incidence pairs and the oriented fixed-area matching predicate.

A non-vertical line together with one of its points is encoded by the triple
(a, b, kappa): point coordinates plus the line's slope. Two such pairs match
when their lines meet at a point o and the triangle (o, p1, p2) has signed
area exactly +A (counterclockwise) or -A (clockwise). The predicate is
evaluated in a division-free product form, so no denominator can vanish:

    (y - b - kappa*(x - a)) * (y - b - w*(x - a)) == 2*A*(w - kappa)

with (a, b, kappa) the first pair and (x, y, w) the second. For lines
p_i*y - q_i*x = c_i, det = p1*q2 - p2*q1 and (dx, dy) the step between the
points, it reads (p1*dy - q1*dx) * (p2*dy - q2*dx) == 2*A*det, so the count
runs on `incidence.rich_table`'s integer lines, vertical ones included.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .geometry import (
    GeometryError,
    Line,
    Point,
    ZeroArea,
    cleared,
    intersect,
    line_through,
    signed_area2,
)


class PointNotOnLine(GeometryError):
    pass


class ParallelSlopes(GeometryError):
    pass


class DegenerateTriangle(GeometryError):
    pass


@dataclass(frozen=True, order=True, slots=True)
class IncidencePairParam:
    """A (line, point-on-line) pair as the triple (a, b, kappa): the point's
    coordinates and the line's slope, which determine both.

    Orders lexicographically by (a, b, kappa). The line and the point are
    built from the triple when they are read.
    """

    a: Fraction
    b: Fraction
    kappa: Fraction

    @classmethod
    def from_triple(
        cls, a: Fraction | int, b: Fraction | int, kappa: Fraction | int
    ) -> "IncidencePairParam":
        return cls(Fraction(a), Fraction(b), Fraction(kappa))

    @property
    def point(self) -> Point:
        return Point(self.a, self.b)

    @property
    def line(self) -> Line:
        return _line_point_slope(self.a, self.b, self.kappa)


def _line_point_slope(x0: Fraction, y0: Fraction, m: Fraction) -> Line:
    # m*x - y + (y0 - m*x0) = 0
    return Line(m, -1, y0 - m * x0)


def to_param(line: Line, point: Point) -> IncidencePairParam:
    """Parametrize a (line, point) incidence pair; a vertical line raises
    VerticalLine and a point off the line PointNotOnLine."""
    kappa = line.slope()
    if not line.contains(point):
        raise PointNotOnLine(f"{point} not on {line}")
    return IncidencePairParam(point.x, point.y, kappa)


def matches_ccw(
    p1: IncidencePairParam, p2: IncidencePairParam, area: Fraction | int = 1
) -> bool:
    """True when p2's point lies counterclockwise of p1's around the lines'
    intersection and the triangle they span with it has area exactly `area`.

    Equal slopes never match (the lines share no single intersection point).
    """
    a, b, k = p1.a, p1.b, p1.kappa
    x, y, w = p2.a, p2.b, p2.kappa
    if k == w:
        return False
    return (y - b - k * (x - a)) * (y - b - w * (x - a)) == 2 * Fraction(area) * (w - k)


def matches_cw(
    p1: IncidencePairParam, p2: IncidencePairParam, area: Fraction | int = 1
) -> bool:
    """Clockwise variant: matches_ccw with the pair swapped."""
    return matches_ccw(p2, p1, area)


def third_vertex(p1: IncidencePairParam, p2: IncidencePairParam) -> Point:
    """Intersection of the line through p1 with p2's slope and vice versa.

    Equals the reflection of the lines' intersection o through the midpoint of
    p1 p2, so triangle (p1, p2, q) has the same area as (o, p1, p2).
    """
    if p1.kappa == p2.kappa:
        raise ParallelSlopes("equal slopes leave the third vertex undefined")
    l1 = _line_point_slope(p1.a, p1.b, p2.kappa)
    l2 = _line_point_slope(p2.a, p2.b, p1.kappa)
    return intersect(l1, l2)


def top_lines(triangle: Sequence[Point]) -> tuple[Line, Line, Line]:
    """For each vertex, the line through it parallel to the opposite side."""
    p, q, r = triangle
    if signed_area2(p, q, r) == 0:
        raise DegenerateTriangle(f"collinear: {p}, {q}, {r}")
    rotations = ((p, q, r), (q, r, p), (r, p, q))
    return tuple(line_through(v, w).parallel_through(u) for u, v, w in rotations)  # type: ignore[return-value]


@dataclass(frozen=True)
class TriangleRichness:
    triangle: tuple[Point, Point, Point]
    rich_top_lines: int


def classify_triangle(
    points: Sequence[Point], k: int, triangle: Sequence[Point]
) -> TriangleRichness:
    """Count how many of the triangle's top lines hold at least k input points."""
    if k < 2:
        raise ValueError("k must be at least 2")
    pset = set(points)
    tri = tuple(triangle)
    if any(v not in pset for v in tri):
        raise ValueError("triangle vertices must belong to the point set")
    rich = sum(sum(map(line.contains, points)) >= k for line in top_lines(tri))
    return TriangleRichness(tri, rich)


def count_matching_pairs(
    pairs: Sequence[IncidencePairParam],
    area: Fraction | int = 1,
    points: Iterable[Point] | None = None,
) -> int:
    """Number of ordered counterclockwise matching pairs, by `count_matching_on_lines`,
    in about min(N*m, 2*P*N) steps for N pairs on m lines through P points.

    With `points`, only pairs whose completed third vertex lies in that point
    set are counted.
    """
    lines, in_s, scale = pair_incidences(pairs, points)
    return count_matching_on_lines(lines, Fraction(area) * scale * scale, in_s)


def pair_incidences(
    pairs: Sequence[IncidencePairParam], points: Iterable[Point] | None = None
) -> tuple[dict[tuple[int, int, int], list[tuple[int, int]]], set[tuple[int, int]] | None, int]:
    """(lines, in_s, scale): the pairs as the integer line table of
    `count_matching_on_lines`, and `points` as a set, both scaled by `scale`,
    the least common denominator. A pair of slope n/d on the scaled point
    (x, y) has the `rich_table` key (d, n, d*y - n*x)."""
    listed = [] if points is None else list(points)
    coords, scale = cleared([c for p in pairs for c in (p.a, p.b)] + [c for p in listed for c in (p.x, p.y)])
    lines: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for p, x, y in zip(pairs, coords[::2], coords[1::2]):
        d, n = p.kappa.denominator, p.kappa.numerator
        lines.setdefault((d, n, d * y - n * x), []).append((x, y))
    rest = coords[2 * len(pairs) :]
    in_s = None if points is None else set(zip(rest[::2], rest[1::2]))
    return lines, in_s, scale


def _checked_twice(area: Fraction | int) -> Fraction:
    twice = 2 * Fraction(area)
    if not twice:
        raise ZeroArea("matching needs a nonzero area")
    return twice


def count_matching_on_lines(
    lines: dict[tuple[int, int, int], list[tuple[int, int]]],
    area: Fraction | int,
    points: set[tuple[int, int]] | None = None,
) -> int:
    """Ordered counterclockwise matching pairs among integer incidences, in
    about min(N*m, 2*P*N) steps.

    `lines` is a `rich_table`: key (p, q, c), for the line p*y - q*x = c, to
    the integer points on it, N in all, through P distinct points. With
    `points`, a match also needs its third vertex r1 + r2 - o in `points`, for
    r1, r2 its points and o the lines' intersection. The probe takes about N*m
    steps and the join about P*N, each up to about two probe steps, so this
    keeps the probe when m < 2*P and runs the join otherwise. Both count
    exactly the same pairs.
    """
    on_lines = {p for members in lines.values() for p in members}
    if len(lines) < 2 * len(on_lines):
        return probe_matching_on_lines(lines, area, points)
    return join_matching_on_lines(lines, area, points)


def probe_matching_on_lines(
    lines: dict[tuple[int, int, int], list[tuple[int, int]]],
    area: Fraction | int,
    points: set[tuple[int, int]] | None = None,
) -> int:
    """`count_matching_on_lines` by one probe per (line, member, other line).

    For L_i(x, y) = p_i*y - q_i*x - c_i and points r1, r2, as L1(r1) =
    L2(r2) = 0 the predicate reads -L1(r2) * L2(r1) == 2*area*det, so for a
    fixed (l1, r1) and each l2 not parallel to l1 the one candidate r2 has
    L1(r2) = -2*area*det / L2(r1), or there is none when L2(r1) = 0.
    """
    twice = _checked_twice(area)
    num, den = twice.numerator, twice.denominator
    on_line = [(line, Counter(members)) for line, members in lines.items()]
    total = 0
    for (p1, q1, c1), members in lines.items():
        for (p2, q2, c2), on2 in on_line:
            det = p1 * q2 - p2 * q1
            if not det:
                continue
            # det * o; a candidate is r2 = o + t * (p2, q2) / det for t = L1(r2).
            xo, yo = p2 * c1 - p1 * c2, q2 * c1 - q1 * c2
            if points is not None:
                if xo % det or yo % det:
                    continue  # o, hence the third vertex, is not an integer point
                ox, oy = xo // det, yo // det
            target = -num * det
            for x1, y1 in members:
                v = (p2 * y1 - q2 * x1 - c2) * den
                if not v:
                    continue
                t, r = divmod(target, v)
                if r:
                    continue
                x, rx = divmod(xo + t * p2, det)
                y, ry = divmod(yo + t * q2, det)
                if rx or ry:
                    continue
                hits = on2.get((x, y))
                if hits and (points is None or (x1 + x - ox, y1 + y - oy) in points):
                    total += hits
    return total


def join_matching_on_lines(
    lines: dict[tuple[int, int, int], list[tuple[int, int]]],
    area: Fraction | int,
    points: set[tuple[int, int]] | None = None,
) -> int:
    """`count_matching_on_lines` by a join over ordered pairs of distinct points.

    For o = l1 ∩ l2 the predicate reads cross(p1 - o, p2 - o) == 2*area. Fix
    p1, p2 and u = p2 - p1: a line through p1 with direction v and
    c = cross(u, v) != 0 meets that locus once, at o = p1 + (2*area / c) * v,
    and its one partner is the line through p2 and o, with direction
    2*area*v - c*u. Each point keeps its lines by their keys' primitive
    directions (p, q), under both signs, so the partner is one lookup of its
    direction over its gcd. With `points`, o must be an integer point, which
    for a primitive v means that c divides 2*area (so a fractional 2*area
    matches nothing), and the third vertex p2 - (o - p1) must be in `points`.
    """
    twice = _checked_twice(area)
    num, den = twice.numerator, twice.denominator
    if points is not None and den != 1:
        return 0
    fans: dict[tuple[int, int], Counter[tuple[int, int]]] = {}
    for (p, q, _), members in lines.items():
        for point, hits in Counter(members).items():
            fan = fans.setdefault(point, Counter())
            fan[p, q] += hits
            fan[-p, -q] += hits
    gcd = math.gcd
    total = 0
    for (x1, y1), fan1 in fans.items():
        spokes = [(vx, vy, hits) for (vx, vy), hits in fan1.items() if vx > 0 or (not vx and vy > 0)]
        for (x2, y2), fan2 in fans.items():
            ux, uy = x2 - x1, y2 - y1
            if not (ux or uy):
                continue
            for vx, vy, hits in spokes:
                c = ux * vy - uy * vx
                if not c:
                    continue
                if points is None:
                    # den*c * (o - p2)
                    wx, wy = num * vx - den * c * ux, num * vy - den * c * uy
                else:
                    if num % c:
                        continue
                    t = num // c  # o - p1 = t * v
                    if (x2 - t * vx, y2 - t * vy) not in points:
                        continue
                    wx, wy = t * vx - ux, t * vy - uy
                g = gcd(wx, wy)
                partners = fan2.get((wx // g, wy // g))
                if partners:
                    total += hits * partners
    return total
