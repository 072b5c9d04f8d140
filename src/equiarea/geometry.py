"""Exact rational plane geometry: points, canonical lines, area predicates, shears.

Every predicate in this package is an equality test over the rationals, so
nothing here ever touches floating point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class GeometryError(Exception):
    """Base class for geometric failure modes (bad inputs, degenerate cases)."""


class IdenticalPoints(GeometryError):
    """Two points that were required to be distinct coincide."""


class DuplicatePoints(GeometryError):
    """A point set that must consist of distinct points has repeats."""


class VerticalLine(GeometryError):
    """A slope was requested for a line with B = 0."""


class ParallelLines(GeometryError):
    """Two distinct parallel lines have no intersection point."""


class IdenticalLines(GeometryError):
    """Two lines with the same canonical form were passed where distinct ones are needed."""


class ZeroArea(GeometryError):
    """Fixed-area counting needs a nonzero area; collinear triples are not triangles."""


class InvariantViolation(Exception):
    """A provable structural bound failed.

    This is deliberately not a GeometryError: it signals a counterexample to
    something the library asserts unconditionally, not a misused API.
    """


# ASCII digits only: `\d` also matches other scripts' digits, which Fraction reads.
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")


def parse_rational(text: str) -> Fraction:
    """Parse 'n' or 'n/d', in ASCII digits, into an exact Fraction.

    Decimal notation is rejected on purpose: it would invite silent precision
    loss at the boundary of an exact kernel.
    """
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"not a rational 'n' or 'n/d': {text!r}")
    return Fraction(s)


@dataclass(frozen=True, order=True, slots=True)
class Point:
    """Immutable exact point; orders lexicographically by (x, y)."""

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.x, Fraction):
            object.__setattr__(self, "x", Fraction(self.x))
        if not isinstance(self.y, Fraction):
            object.__setattr__(self, "y", Fraction(self.y))

    def __str__(self) -> str:
        return f"{self.x} {self.y}"


@dataclass(frozen=True, order=True, slots=True)
class Line:
    """A*x + B*y + C = 0 in canonical form.

    Canonical means: integer coefficients, gcd(|A|,|B|,|C|) = 1, and the first
    nonzero of (A, B) positive. Equal lines therefore compare and hash equal,
    which lets a Line act as a dictionary key.
    """

    A: int
    B: int
    C: int

    def __post_init__(self) -> None:
        ai, bi, ci = self.A, self.B, self.C
        if not (isinstance(ai, int) and isinstance(bi, int) and isinstance(ci, int)):
            (ai, bi, ci), _ = cleared(map(Fraction, (ai, bi, ci)))
        if ai == 0 and bi == 0:
            raise GeometryError("line needs (A, B) != (0, 0)")
        g = math.gcd(ai, bi, ci)
        ai, bi, ci = ai // g, bi // g, ci // g
        if ai < 0 or (ai == 0 and bi < 0):
            ai, bi, ci = -ai, -bi, -ci
        object.__setattr__(self, "A", ai)
        object.__setattr__(self, "B", bi)
        object.__setattr__(self, "C", ci)

    def evaluate(self, p: Point) -> Fraction:
        return self.A * p.x + self.B * p.y + self.C

    def contains(self, p: Point) -> bool:
        return self.evaluate(p) == 0

    @property
    def is_vertical(self) -> bool:
        return self.B == 0

    def slope(self) -> Fraction:
        if self.B == 0:
            raise VerticalLine(f"{self} has no slope")
        return Fraction(-self.A, self.B)

    def parallel_through(self, p: Point) -> "Line":
        """The line through p parallel to this one."""
        return Line(self.A, self.B, -(self.A * p.x + self.B * p.y))

    def __str__(self) -> str:
        return f"({self.A})x + ({self.B})y + ({self.C}) = 0"


def signed_area2(p: Point, q: Point, r: Point) -> Fraction:
    """Twice the signed area of triangle pqr: (q-p) x (r-p).

    Positive for a counterclockwise triple, zero exactly when collinear.
    """
    return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)


def line_through(p: Point, q: Point) -> Line:
    """Canonical line through two distinct points."""
    if p == q:
        raise IdenticalPoints(f"no unique line through {p} twice")
    a = p.y - q.y
    b = q.x - p.x
    c = -(a * p.x + b * p.y)
    return Line(a, b, c)


def intersect(l1: Line, l2: Line) -> Point:
    """Unique intersection point of two non-parallel lines."""
    det = l1.A * l2.B - l2.A * l1.B
    if det == 0:
        if l1 == l2:
            raise IdenticalLines(f"{l1} given twice")
        raise ParallelLines(f"{l1} and {l2} are parallel")
    x = Fraction(l1.B * l2.C - l2.B * l1.C, det)
    y = Fraction(l2.A * l1.C - l1.A * l2.C, det)
    return Point(x, y)


def shear(points: Sequence[Point], t: Fraction) -> list[Point]:
    """Apply (x, y) -> (x + t*y, y) to every point.

    The map is unimodular, so every signed_area2 value (and hence every
    fixed-area count) is preserved exactly, as is collinearity.
    """
    t = Fraction(t)
    return [Point(p.x + t * p.y, p.y) for p in points]


def check_distinct(points: Sequence) -> None:
    if len(set(points)) != len(points):
        raise DuplicatePoints("point set has repeats")


def check_area(area: Fraction | int) -> Fraction:
    area = Fraction(area)
    if area <= 0:
        raise ZeroArea("area must be a positive rational")
    return area


def cleared(values: Iterable[Fraction | int]) -> tuple[list[int], int]:
    """Clear denominators once: integers n_i and the lcm d of the
    denominators, with value_i = n_i / d. The package's one lcm."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def integer_points(points: Sequence[Point]) -> tuple[list[tuple[int, int]], list[Point], int]:
    """The points `cleared` to integer pairs, and L.

    L is the lcm of every coordinate denominator, so (L*x, L*y) is an integer
    pair. Scaling by L multiplies every signed area by L^2 and keeps
    collinearity and the lexicographic order. The pairs come back sorted, with
    the caller's points in the same order; repeats raise DuplicatePoints.
    """
    coords, scale = cleared([c for p in points for c in (p.x, p.y)])
    keyed = sorted(zip(zip(coords[::2], coords[1::2]), points))
    pts = [pair for pair, _ in keyed]
    check_distinct(pts)
    return pts, [p for _, p in keyed], scale


def shear_denominator(pts: Sequence[tuple[int, int]]) -> int:
    """0 when distinct integer points have distinct x, else the least j >= 1
    with j*x + y distinct: (x, y) -> (x + y/j, y) then leaves no spanned line
    vertical. Finitely many j fail (one per spanned direction)."""
    n = len(pts)
    if len({x for x, _ in pts}) == n:
        return 0
    check_distinct(pts)  # repeats would make every j fail
    j = 1
    while len({j * x + y for x, y in pts}) < n:
        j += 1
    return j


def find_shear(points: Sequence[Point]) -> Fraction:
    """Smallest t in 0, 1, 1/2, 1/3, ... leaving no spanned line vertical,
    by `shear_denominator` on the cleared points, which must be distinct."""
    pts = list(points)
    if len(pts) < 2:
        raise GeometryError("need at least two points")
    j = shear_denominator(integer_points(pts)[0])
    return Fraction(1, j) if j else Fraction(0)
