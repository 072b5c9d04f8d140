"""Spanned lines, k-rich lines, their incidence pairs, and summary statistics.

All of it runs on the integer line kernel `pair_lines` and the line table
`rich_table` that counting, matching and curves share. `ordered_table` sorts
the rich lines once by canonical `Line`, compared as the integer triple
`key_triple`: the order every line and incidence list here follows.
`incidence_param` builds an incidence pair straight from a line key and an
integer point.
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


def incidence_stats(points: Sequence[Point], k: int) -> IncidenceStats:
    """Rich-line count m, incidence count N, and their scaling ratios.

    Both come from the point pairs per line key, grouped by that pair count;
    `stats_from_sizes` checks the bounds. The two ratios are reported for
    trend inspection, never asserted.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    pts, _, _ = integer_points(points)
    return stats_from_sizes(len(pts), k, line_sizes(pts))
