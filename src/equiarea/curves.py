"""Cubic match curves.

Each parametrized incidence pair generates a degree-3 surface in (x, y, w)
space: the locus of pairs that match it counterclockwise. For two generators,
the xy-projection of their surfaces' intersection is a cubic plane curve with
a rigid structure: its equation is a product of three affine linear forms plus
a linear correction, its asymptotes are recoverable exactly from the leading
form, and the two generators can be reconstructed from the curve alone. That
reconstruction is what keeps any two such curves from sharing more than nine
points, which this module checks by exact resultant computations. Its
K_{3,10} trial lists incidences as `incidence_pairs` does, through geometry's
shear rule and incidence's ordered table, and builds only the pairs it samples.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Sequence

# find_shear, shear, incidence_pairs and count_real_roots are not called here; callers look them up
# on this module.
from .geometry import (
    GeometryError,
    InvariantViolation,
    Line,
    Point,
    VerticalLine,
    cleared,
    find_shear,
    intersect,
    parse_rational,
    shear,
    shear_denominator,
)
from .incidence import incidence_pairs, incidence_param, ordered_table
from .matching import IncidencePairParam, matches_ccw, to_param
from .polynomial import (
    MONOMIALS,
    Y_COLUMNS,
    count_real_roots,
    cubic_degree,
    cubic_value,
    form_value,
    nearest_real_root,
    on_line,
    poly_gcd,
    rational_factors,
    rational_roots,
    real_and_rational_roots,
    substitute,
    sylvester_resultant_y,
    times_linear,
    x_section,
)


class CurveError(GeometryError):
    pass


class SamePair(CurveError):
    """Both generators are the same incidence pair."""


class NonSimpleFactorUnsupported(CurveError):
    """The cubic's leading form is outside the two supported shapes."""


class AmbiguousMedian(CurveError):
    """More than one median of the asymptote triangle is parallel to the
    linear remainder; reported rather than guessed."""


class NotAMatchCurve(CurveError):
    """The cubic cannot be written as a match curve of any generator pair."""


class InfiniteSharedComponent(CurveError):
    """Two curves share a whole component, so their intersection is infinite."""


class DegenerateTriple(CurveError):
    """A surface triple whose projection curve is undefined."""


class NoBranch(CurveError):
    """No real curve branch exists at a probe sample."""


def _l6_holds(l1: tuple, l2: tuple, l4: tuple, l5: tuple, l6: tuple) -> bool:
    """L1*L4 - L2*L5 == L6 for integer forms (cx, cy, c0): the quadratic part
    must cancel and the linear part must be L6."""
    (a1, b1, c1), (a2, b2, c2), (a4, b4, c4), (a5, b5, c5) = l1, l2, l4, l5
    quadratic = (a1 * a4 - a2 * a5, a1 * b4 + b1 * a4 - a2 * b5 - b2 * a5, b1 * b4 - b2 * b5)
    linear = (a1 * c4 + c1 * a4 - a2 * c5 - c2 * a5, b1 * c4 + c1 * b4 - b2 * c5 - c2 * b5, c1 * c4 - c2 * c5)
    return not any(quadratic) and linear == l6


class CurveTag(Enum):
    GENERAL = "general"
    POINT_ON_LINE_1 = "point_on_line_1"
    POINT_ON_LINE_2 = "point_on_line_2"
    EMPTY = "empty"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class BivariateCubic:
    """Dense degree <= 3 polynomial, normalized to primitive integers.

    The sign rule (first nonzero coefficient in graded-lex order positive)
    makes equality of curves structural equality of this record.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(MONOMIALS) or all(c == 0 for c in self.coeffs):
            raise ValueError("need a nonzero coefficient vector of length 10")

    @classmethod
    def from_ints(cls, ints: Sequence[int]) -> "BivariateCubic":
        """The curve of an integer coefficient vector in MONOMIALS order."""
        g = math.gcd(*ints)
        if g and next(c for c in ints if c) < 0:
            g = -g
        return cls(tuple(c // g for c in ints) if g else tuple(ints))

    def coeff(self, i: int, j: int) -> int:
        return self.coeffs[MONOMIALS.index((i, j))]

    def evaluate(self, x: Fraction | int, y: Fraction | int) -> Fraction:
        (xn, yn), w = cleared((Fraction(x), Fraction(y)))
        return Fraction(cubic_value(self.coeffs, xn, yn, w), w**3)

    def total_degree(self) -> int:
        return cubic_degree(self.coeffs)

    def coefficient_list(self) -> list[list]:
        """JSON form: [[i, j, "coeff"], ...] for nonzero monomials in canonical order."""
        return [[i, j, str(c)] for (i, j), c in zip(MONOMIALS, self.coeffs) if c != 0]

    @classmethod
    def from_coefficient_list(cls, entries: Sequence[Sequence]) -> "BivariateCubic":
        """The curve of a JSON list [[i, j, "num/den"], ...] (i, j integers, not
        booleans); entries for one monomial add up, denominators clear once."""
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"coefficients must be a list of [i, j, value] entries, not {entries!r}")
        slots = [Fraction(0)] * len(MONOMIALS)
        for entry in entries:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3 and isinstance(entry[2], str)
                    and all(isinstance(e, int) and not isinstance(e, bool) for e in entry[:2])):
                raise ValueError(f"coefficient entry {entry!r} is not [i, j, \"n/d\"] with integers i, j")
            i, j, val = entry[0], entry[1], parse_rational(entry[2])
            if i < 0 or j < 0 or i + j > 3:
                raise ValueError(f"monomial x^{i} y^{j} out of range")
            slots[MONOMIALS.index((i, j))] += val
        if not any(slots):
            raise ValueError("zero polynomial is not a curve")
        return cls.from_ints(cleared(slots)[0])


@dataclass(frozen=True)
class CurveCase:
    tag: CurveTag
    curve: BivariateCubic | None
    generators: tuple[IncidencePairParam, IncidencePairParam]

    @property
    def bundle(self) -> dict[str, tuple[Fraction, Fraction, Fraction] | Fraction] | None:
        """The curve's linear-form bundle, built on each read from
        `match_curve`'s integer forms: L1..L5 over w^2 and L6 over w^4, each
        as (cx, cy, c0) for cx*x + cy*y + c0, then the constants C, D, E, F
        and s, for w the generators' common denominator.

        L1 and L2 vanish on the generating lines, L3 on the line joining the
        two points. L4 runs through the first point parallel to the second
        line, L5 symmetrically. L6 = L1*L4 - L2*L5 collapses to the linear
        form D*x + E*y + F, which spans the median from the lines'
        intersection point to the midpoint of the two generator points. C is
        the slope difference, and s = L4 - L2 is the constant gap between
        those two parallel forms.
        """
        if self.curve is None:
            return None
        values, w, forms = _bundle_forms(*self.generators)
        bundle = {f"L{i}": tuple(Fraction(c, w * w) for c in form) for i, form in enumerate(forms[:5], 1)}
        bundle["L6"] = d, e, f = tuple(Fraction(c, w**4) for c in forms[5])
        s = Fraction(forms[3][2] - forms[1][2], w * w)
        return {**bundle, "C": Fraction(values[2] - values[5], w), "D": d, "E": e, "F": f, "s": s}


def _bundle_forms(
    p1: IncidencePairParam, p2: IncidencePairParam
) -> tuple[list[int], int, list[tuple[int, int, int]]]:
    """The six generator values (a1, b1, k1, a2, b2, k2) over one denominator
    w, and the bundle's forms (cx, cy, c0) on them: L1..L5 times w^2, then L6
    = D*x + E*y + F times w^4, with L6 = L1*L4 - L2*L5 checked."""
    values, w = cleared((p1.a, p1.b, p1.kappa, p2.a, p2.b, p2.kappa))
    a1, b1, k1, a2, b2, k2 = values
    da, db, ks, ww = a2 - a1, b2 - b1, k1 + k2, w * w
    forms = [
        (-k1 * w, ww, k1 * a1 - b1 * w),
        (-k2 * w, ww, k2 * a2 - b2 * w),
        (db * w, -da * w, a2 * b1 - a1 * b2),
        (-k2 * w, ww, k2 * a1 - b1 * w),
        (-k1 * w, ww, k1 * a2 - b2 * w),
        (
            w * (2 * k1 * k2 * da - ks * db * w),
            ww * (2 * db * w - ks * da),
            k1 * k2 * (a1 * a1 - a2 * a2) + ks * (a2 * b2 - a1 * b1) * w + (b1 * b1 - b2 * b2) * ww,
        ),
    ]
    if not _l6_holds(*forms[:2], *forms[3:]):
        raise CurveError("bundle identity L6 = L1*L4 - L2*L5 failed")
    return values, w, forms


def match_curve(p1: IncidencePairParam, p2: IncidencePairParam) -> CurveCase:
    """The plane cubic whose points are the (x, y) of parameters matching both
    generators; its linear-form bundle is read through `CurveCase.bundle`.

    Two degenerate inputs produce no curve: identical points on different
    lines (the constraints contradict, so the locus is empty) and identical
    lines with different points (the equation degenerates to a forbidden
    triple line). When one generator's point lies on the other's line the
    curve exists but its leading form carries that line squared.
    """
    (a1, b1, k1, a2, b2, k2), w, (l1, l2, l3, _, _, l6) = _bundle_forms(p1, p2)
    if (a1, b1, k1) == (a2, b2, k2):
        raise SamePair("need two distinct incidence pairs")
    if (a1, b1) == (a2, b2):
        return CurveCase(CurveTag.EMPTY, None, (p1, p2))
    da, db, ww = a2 - a1, b2 - b1, w * w
    # w^2 * L1(p2) and -w^2 * L2(p1): zero when a point lies on the other line.
    off1, off2 = db * w - k1 * da, db * w - k2 * da
    if k1 == k2 and off1 == 0:
        return CurveCase(CurveTag.UNDEFINED, None, (p1, p2))
    # w^6 times the curve L1*L2*L3 + 2*L6 + 4*C, with C = k1 - k2.
    product = times_linear(times_linear([0] * 7 + list(l1), *l2), *l3)
    for k, c in zip((7, 8, 9), l6):
        product[k] += 2 * ww * c
    product[9] += 4 * ww * ww * w * (k1 - k2)
    if off1 == 0:
        tag = CurveTag.POINT_ON_LINE_1
    elif off2 == 0:
        tag = CurveTag.POINT_ON_LINE_2
    else:
        tag = CurveTag.GENERAL
    return CurveCase(tag, BivariateCubic.from_ints(product), (p1, p2))


@dataclass(frozen=True)
class LeadingFormFactors:
    """Factorization of the top homogeneous part into rational linear forms.

    leading_form == scale * product(direction^multiplicity) * remainder,
    with each direction a canonical homogeneous Line and the remainder (when
    present) a form with no rational linear factor: its primitive integer
    coefficients, x^d first, the first one positive.
    """

    scale: Fraction
    factors: tuple[tuple[Line, int], ...]
    remainder: tuple[int, ...] | None


def leading_form_factors(cubic: BivariateCubic) -> LeadingFormFactors:
    """Split the leading form into rational linear factors with multiplicity.

    Any part without rational roots is returned whole as an irreducible
    remainder (for our generated curves this never occurs; the factorization
    is rational by construction).
    """
    d = cubic.total_degree()
    start = (9, 7, 4, 0)[d]  # the first MONOMIALS slot of degree d
    # Restrict to y = 1, low x-degree first; the lost factor is a power of y.
    profile = list(cubic.coeffs[start:start + d + 1][::-1])
    while not profile[-1]:
        profile.pop()
    y_mult = d + 1 - len(profile)
    factors: list[tuple[Line, int]] = [(Line(0, 1, 0), y_mult)] if y_mult else []
    roots, rest = rational_factors(profile)
    remainder: tuple[int, ...] | None = None
    product = [1]
    if len(rest) > 1:
        product = [c if rest[-1] > 0 else -c for c in rest]
        remainder = tuple(reversed(product))
    for root, mult in roots:
        factors.append((Line(root.denominator, -root.numerator, 0), mult))
        for _ in range(mult):
            product = [root.denominator * lo - root.numerator * hi for lo, hi in zip([0, *product], [*product, 0])]
    if len(product) != len(profile) or any(a * product[-1] != b * profile[-1] for a, b in zip(profile, product)):
        raise InvariantViolation("leading-form factors do not multiply back to the leading form")
    factors.sort()
    return LeadingFormFactors(Fraction(profile[-1], product[-1]), tuple(factors), remainder)


def _simple_asymptote(f: Sequence[int], direction: Line) -> Line:
    """Asymptote parallel to a simple rational factor of the leading form.

    With f = u*q + f2 + lower (u = A*x + B*y the factor, q its cofactor) the
    offset is c = f2(d) / q(d) at the direction d = (B, -A) annihilated by u,
    giving u + c = 0. Since grad f3(d) = q(d) * (A, B), q(d) * (A^2 + B^2) is
    grad f3(d) . (A, B), with no division by u.
    """
    a, b = direction.A, direction.B
    c0, c1, c2, c3 = f[:4]
    if form_value(f[:4], b, -a):
        raise InvariantViolation(f"{direction} does not divide the leading form")
    # q(d) * (A^2 + B^2), from the partial derivatives of f3 at d.
    qd = a * form_value((3 * c0, 2 * c1, c2), b, -a) + b * form_value((c1, 2 * c2, 3 * c3), b, -a)
    if qd == 0:
        raise NonSimpleFactorUnsupported("offset formula needs a simple factor")
    return Line(a * qd, b * qd, form_value(f[4:7], b, -a) * (a * a + b * b))


def _in_factor_frame(f: Sequence[int], u: tuple[int, int, int], v: tuple[int, int, int]) -> list[int]:
    """f in affine coordinates (U, V) = (u(x,y), v(x,y)), times det^3."""
    a1, b1, c1 = u
    a2, b2, c2 = v
    det = a1 * b2 - a2 * b1
    if det == 0:
        raise CurveError("frame forms are parallel")
    return substitute(f, (b2, -b1, b1 * c2 - b2 * c1), (-a2, a1, a2 * c1 - a1 * c2), det)


def _double_factor_asymptotes(f: Sequence[int], double: Line, simple: Line) -> tuple[Line, Line]:
    """Asymptotes when the leading form is (double)^2 * (simple).

    The simple factor's asymptote comes from the offset formula. Writing f in
    the frame (U, V) = (double direction, simple asymptote) must then leave
    exactly the shape g*(U+c)^2*V + h*U + const; the double asymptote is
    U + c = 0 with c read off the U*V coefficient.
    """
    v_line = _simple_asymptote(f, simple)
    F = _in_factor_frame(f, (double.A, double.B, 0), (v_line.A, v_line.B, v_line.C))
    # Slots of U^3, U V^2, V^3, U^2 and V^2; the shape allows none of them.
    if any(F[k] for k in (0, 2, 3, 4, 6)):
        raise NonSimpleFactorUnsupported("not the squared-line curve shape")
    g, guv, gv, h, const = F[1], F[5], F[8], F[7], F[9]
    if g == 0:
        raise NonSimpleFactorUnsupported("degenerate squared-line shape")
    # c = guv / (2g), and the V coefficient must be g*c^2.
    if 4 * g * gv != guv * guv:
        raise NonSimpleFactorUnsupported("squared-line shape check failed")
    if h == 0 and const == 0:
        raise NonSimpleFactorUnsupported("curve degenerates to its double line")
    return Line(2 * g * double.A, 2 * g * double.B, guv), v_line


def _asymptote_lines(f: Sequence[int], lf: LeadingFormFactors) -> tuple[list[Line], bool]:
    """The asymptotes of the leading form's rational factors, and whether
    the form has the squared-line shape (double)^2 * (simple), whose two
    asymptotes then come double first.

    Simple factors go through the offset formula; a squared factor is handled
    via the squared-line normal form. Triple factors and shapes outside those
    two are refused rather than guessed.
    """
    by_mult = {m: line for line, m in lf.factors}
    if 3 in by_mult:
        raise NonSimpleFactorUnsupported("triple linear factor")
    if 2 not in by_mult:
        return [_simple_asymptote(f, line) for line, _ in lf.factors], False
    if len(lf.factors) != 2:
        raise NonSimpleFactorUnsupported("unsupported repeated-factor shape")
    return list(_double_factor_asymptotes(f, by_mult[2], by_mult[1])), True


def asymptotes(cubic: BivariateCubic) -> list[Line]:
    """All asymptotes recoverable from rational leading-form factors, exactly
    (see `_asymptote_lines`)."""
    if not any(cubic.coeffs[:4]):
        raise NonSimpleFactorUnsupported("asymptote analysis needs a cubic")
    lines, _ = _asymptote_lines(cubic.coeffs, leading_form_factors(cubic))
    if not lines:
        raise NonSimpleFactorUnsupported("no rational linear factor in the leading form")
    return sorted(lines)


def has_linear_factor(cubic: BivariateCubic) -> Line | None:
    """A rational linear factor of the cubic, or None.

    Any linear factor's direction divides the leading form, so only the
    rational directions found there are candidates; for each, the constant
    offset is solved exactly by requiring the substituted polynomial to vanish
    identically.
    """
    lf = leading_form_factors(cubic)
    for direction, _ in lf.factors:
        a, b = direction.A, direction.B
        F = _in_factor_frame(cubic.coeffs, (a, b, 0), (0, 1, 0) if a else (1, 0, 0))
        # (U + c) divides F  iff  F(-c, V) == 0 identically: per power of V,
        # the coefficient (a y-column of F) is a polynomial in c, and c is a
        # common root.
        polys = [p for p in ([F[k] * (-1) ** i for i, k in enumerate(col)] for col in Y_COLUMNS) if any(p)]
        if any(not any(p[1:]) for p in polys):
            continue
        for c in rational_roots(polys[0]):
            if not any(x_section(F, -c.numerator, c.denominator)):
                return Line(a * c.denominator, b * c.denominator, c.numerator)
    return None


def reconstruct_generators(
    cubic: BivariateCubic,
) -> tuple[IncidencePairParam, IncidencePairParam]:
    """Recover the unique generator pair of a match curve, in (a, b, kappa)
    lexicographic order.

    General shape: the three asymptotes span a triangle; subtracting the right
    multiple of their product leaves a linear remainder parallel to exactly
    one median, whose vertex is the lines' intersection point and whose
    opposite side holds the two generator points. Squared-line shape: the
    curve meets the simple asymptote once; that point fixes the gap between
    the two parallel forms through the first point, and everything else
    follows. The result is verified by regenerating the curve.
    """
    if not any(cubic.coeffs[:4]):
        raise NotAMatchCurve("match curves are cubic")
    lf = leading_form_factors(cubic)
    lines, squared = _asymptote_lines(cubic.coeffs, lf)
    if squared:
        pair = _reconstruct_squared_line(cubic.coeffs, *lines)
    elif lf.remainder is not None or len(lines) != 3:
        raise NonSimpleFactorUnsupported("leading form does not split into three lines")
    else:
        pair = _reconstruct_general(cubic.coeffs, lines)
    regenerated = match_curve(pair[0], pair[1])
    if regenerated.curve != cubic:
        raise NotAMatchCurve("curve is not generated by any incidence pair")
    return pair


def _reconstruct_general(
    f: Sequence[int], asys: list[Line]
) -> tuple[IncidencePairParam, IncidencePairParam]:
    product = [0] * 7 + [asys[0].A, asys[0].B, asys[0].C]
    for line in asys[1:]:
        product = times_linear(product, line.A, line.B, line.C)
    # The asymptote product matches the curve's cubic part up to one constant
    # nu = f[k] / product[k]; rest is f - nu * product, times product[k].
    k = next(k for k in range(4) if product[k])
    rest = [product[k] * c - f[k] * p for c, p in zip(f, product)]
    if any(rest[:7]):
        raise NotAMatchCurve("asymptote product does not linearize the cubic")
    rx, ry = rest[7], rest[8]
    if rx == 0 and ry == 0:
        raise NotAMatchCurve("no median direction left after linearization")
    # Vertices of the asymptote triangle, whose sides have distinct directions; vertex[i] avoids asymptote i.
    verts = [intersect(asys[1], asys[2]), intersect(asys[0], asys[2]), intersect(asys[0], asys[1])]
    # The median from vertex i to the others' midpoint runs along (sum - 3 * vertex i) / 2.
    sx, sy = sum(v.x for v in verts), sum(v.y for v in verts)
    hits = [i for i, v in enumerate(verts) if rx * (sx - 3 * v.x) + ry * (sy - 3 * v.y) == 0]
    if len(hits) > 1:
        raise AmbiguousMedian("several medians parallel to the linear remainder")
    if not hits:
        raise NotAMatchCurve("no median parallel to the linear remainder")
    # Asymptote j holds just vertex k, and k just j: a concurrent triple, the one exception, raised above.
    j, k = (i for i in range(3) if i != hits[0])
    try:
        pairs = (to_param(asys[j], verts[k]), to_param(asys[k], verts[j]))
    except VerticalLine as exc:
        raise NotAMatchCurve("generator line would be vertical") from exc
    return tuple(sorted(pairs))


def _reconstruct_squared_line(
    f: Sequence[int], line1: Line, line2: Line
) -> tuple[IncidencePairParam, IncidencePairParam]:
    if line1.is_vertical or line2.is_vertical:
        raise NotAMatchCurve("generator line would be vertical")
    k1, k2 = line1.slope(), line2.slope()
    # The curve meets the simple asymptote, x = t and B*y = -A*t - C, once.
    section = on_line(f, (0, line2.B), (-line2.C, -line2.A), line2.B)
    if len(section) != 2:
        raise NotAMatchCurve("curve does not meet the simple asymptote once")
    x0 = Fraction(-section[0], section[1])
    # L1, the first line on the unit-y scale, is 2 / (a1 - a2) at that point.
    val = line1.evaluate(Point(x0, k2 * x0 - Fraction(line2.C, line2.B))) / line1.B
    if val == 0:
        raise NotAMatchCurve("crossing point lies on the double line")
    # L4 = L2 + s, with s = -C * (a1 - a2) and C = k1 - k2.
    s = -(k1 - k2) * 2 / val
    p1 = intersect(line1, Line(line2.A, line2.B, line2.C + s * line2.B))
    p2 = intersect(line1, line2)
    return tuple(sorted((to_param(line1, p1), to_param(line2, p2))))


@dataclass(frozen=True)
class CurveIntersection:
    upper_bound: int
    rational_points: tuple[Point, ...]


def curve_intersection_bound(f: BivariateCubic, g: BivariateCubic) -> CurveIntersection:
    """The distinct real roots of two distinct cubics' resultant in y, and
    their exact rational intersection points.

    Eliminates y by a Sylvester resultant (after a shared x -> x + t*y shear
    making both y-leading coefficients constant), counts the distinct real
    roots of the squarefree resultant by exact sign variations, and lists the
    exact rational intersection points by back-substitution. An identically
    zero resultant means a shared component. `upper_bound` counts sheared x
    values, not points, so intersections sharing one count once.
    """
    if f == g:
        raise InfiniteSharedComponent("identical curves")
    fc, gc = f.coeffs, g.coeffs
    if not any(fc[:4]) or not any(gc[:4]):
        raise ValueError("intersection bound expects two cubics")
    t = 0
    while form_value(fc[:4], t, 1) == 0 or form_value(gc[:4], t, 1) == 0:
        t += 1
    fs, gs = (substitute(c, (1, t, 0), (0, 1, 0)) for c in (fc, gc))
    resultant = sylvester_resultant_y(fs, gs)
    if not resultant.coeffs:
        raise InfiniteSharedComponent("curves share a component")
    upper, roots = real_and_rational_roots(resultant.coeffs)
    points = set()
    for x0 in roots:
        common = poly_gcd(*(x_section(c, x0.numerator, x0.denominator) for c in (fs, gs)))
        for y0 in rational_roots(common):
            candidate = Point(x0 + t * y0, y0)
            if f.evaluate(candidate.x, candidate.y) == 0 and g.evaluate(candidate.x, candidate.y) == 0:
                points.add(candidate)
    return CurveIntersection(upper, tuple(sorted(points)))


@dataclass(frozen=True)
class TripleCommonPoints:
    upper_bound: int
    rational_witnesses: tuple[tuple[Fraction, Fraction, Fraction], ...]


def triple_common_points(
    g1: IncidencePairParam, g2: IncidencePairParam, g3: IncidencePairParam
) -> TripleCommonPoints:
    """Bound the parameter triples matching three distinct generators, the
    common points of their match surfaces.

    Common points project into the intersection of the two projection curves
    through the first surface, so the plane bound applies; each exact rational
    plane point is lifted back to its unique slope coordinate and kept only
    when it matches all three generators.
    """
    gens = (g1, g2, g3)
    if len(set(gens)) != 3:
        raise ValueError("generators must be pairwise distinct")
    c12 = match_curve(gens[0], gens[1])
    c13 = match_curve(gens[0], gens[2])
    if CurveTag.UNDEFINED in (c12.tag, c13.tag):
        raise DegenerateTriple("a projection curve is undefined (shared line)")
    if CurveTag.EMPTY in (c12.tag, c13.tag):
        return TripleCommonPoints(0, ())
    inter = curve_intersection_bound(c12.curve, c13.curve)
    a, b, k = gens[0].a, gens[0].b, gens[0].kappa
    witnesses = []
    for pt in inter.rational_points:
        x, y = pt.x, pt.y
        l1v = y - b - k * (x - a)
        den = l1v * (x - a) + 2
        if den == 0:
            continue
        w = (l1v * (y - b) + 2 * k) / den
        candidate = IncidencePairParam.from_triple(x, y, w)
        if all(matches_ccw(gen, candidate) for gen in gens):
            witnesses.append((x, y, w))
    return TripleCommonPoints(inter.upper_bound, tuple(sorted(witnesses)))


PROBE_WIDTH = Fraction(1, 10**12)


def asymptote_convergence_probe(
    cubic: BivariateCubic, line: Line, xs: Sequence[Fraction | int]
) -> list[float]:
    """Perpendicular distances from the curve to one of its asymptotes.

    For each sample parameter, walks that far along the asymptote, slices the
    curve along the normal direction, and reports the distance to the nearest
    real branch. This is the single numeric probe in the package: each real
    root of the slice is isolated exactly and bisected to width PROBE_WIDTH,
    and only the final distance is a float. The exact machinery never depends
    on it.
    """
    if line not in asymptotes(cubic):
        raise ValueError(f"{line} is not an asymptote of the curve")
    norm = math.hypot(line.A, line.B)
    out = []
    for tau in xs:
        sigma = nearest_real_root(_probe_section(cubic, line, tau), PROBE_WIDTH)
        if sigma is None:
            raise NoBranch(f"no real branch at sample {tau}")
        out.append(float(abs(sigma)) * norm)
    return out


def _probe_section(cubic: BivariateCubic, line: Line, tau: Fraction | int) -> tuple[int, ...]:
    """The curve along the normal to `line` at parameter tau along it, as a
    primitive polynomial in the normal coordinate sigma: f(q + sigma*(A, B))
    with q = base + tau*(B, -A) and base the line's point on an axis."""
    a, b, c, tau = line.A, line.B, line.C, Fraction(tau)
    base = (Fraction(0), Fraction(-c, b)) if b != 0 else (Fraction(-c, a), Fraction(0))
    (qx, qy), w = cleared((base[0] + tau * b, base[1] - tau * a))
    return on_line(cubic.coeffs, (qx, a * w), (qy, b * w), w)


# ---------------------------------------------------------------------------
# Randomized scans


def _random_fraction(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.choice((1, 1, 1, 2)))


def random_incidence_pair(rng: random.Random, bound: int = 4) -> IncidencePairParam:
    return IncidencePairParam.from_triple(
        _random_fraction(rng, bound), _random_fraction(rng, bound), _random_fraction(rng, bound)
    )


def random_general_position_pair(
    rng: random.Random, bound: int = 4
) -> tuple[IncidencePairParam, IncidencePairParam]:
    """Two generators with distinct slopes, points off each other's lines, and
    a joining line parallel to neither; exactly the inputs whose curve has
    three simple asymptotes."""
    while True:
        q1 = random_incidence_pair(rng, bound)
        q2 = random_incidence_pair(rng, bound)
        if q1.kappa == q2.kappa or q1.point == q2.point:
            continue
        if q1.line.contains(q2.point) or q2.line.contains(q1.point):
            continue
        dx, dy = q2.a - q1.a, q2.b - q1.b
        if dx != 0 and Fraction(dy, dx) in (q1.kappa, q2.kappa):
            continue
        return q1, q2


def random_point_on_line_pair(
    rng: random.Random, bound: int = 4
) -> tuple[IncidencePairParam, IncidencePairParam]:
    """A pair whose second point lies on the first line (squared-line curve)."""
    while True:
        a1 = _random_fraction(rng, bound)
        b1 = _random_fraction(rng, bound)
        k1 = _random_fraction(rng, bound)
        a2 = _random_fraction(rng, bound)
        if a2 == a1:
            continue
        k2 = _random_fraction(rng, bound)
        if k2 == k1:
            continue
        b2 = b1 + k1 * (a2 - a1)
        return (
            IncidencePairParam.from_triple(a1, b1, k1),
            IncidencePairParam.from_triple(a2, b2, k2),
        )


def _random_curve(rng: random.Random, bound: int = 4) -> BivariateCubic:
    if rng.random() < 0.3:
        q1, q2 = random_point_on_line_pair(rng, bound)
    else:
        q1, q2 = random_general_position_pair(rng, bound)
    return match_curve(q1, q2).curve


@dataclass(frozen=True)
class ScanReport:
    trials: int
    max_value: int
    violations: int


def _trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def _bezout_trial(seed: int, index: int) -> tuple[int, bool]:
    rng = _trial_rng(seed, index)
    f = _random_curve(rng)
    g = _random_curve(rng)
    while g == f:
        g = _random_curve(rng)
    try:
        inter = curve_intersection_bound(f, g)
    except InfiniteSharedComponent:
        return 0, True
    return inter.upper_bound, inter.upper_bound > 9


def _sheared_incidences(points: Iterable[tuple[int, int]]) -> tuple[list[tuple[tuple, tuple]], int]:
    """(line key, point) per incidence of distinct integer points, in
    `incidence_pairs` order after `find_shear`'s shear, and the denominator d:
    the shear (x + y/j, y) is (j*x + y, j*y) / j, or d = 1 when j = 0."""
    pts = list(points)
    j = shear_denominator(pts)
    d, e = (j, 1) if j else (1, 0)
    sheared = sorted((d * x + e * y, d * y) for x, y in pts)
    return [(key, point) for key, members in ordered_table(sheared, 2, d) for point in members], d


def _k310_trial(seed: int, index: int) -> tuple[int, bool]:
    rng = _trial_rng(seed, index)
    while True:
        n = rng.randint(8, 14)
        pts: set[tuple[int, int]] = set()
        while len(pts) < n:
            pts.add((rng.randint(-6, 6), rng.randint(-6, 6)))
        incidences, d = _sheared_incidences(pts)
        if len(incidences) < 3:
            continue
        for _ in range(40):
            trio = rng.sample(range(len(incidences)), 3)
            try:
                result = triple_common_points(*(incidence_param(*incidences[i], d) for i in trio))
            except DegenerateTriple:
                continue
            except InfiniteSharedComponent:
                return 0, True
            return result.upper_bound, result.upper_bound > 9


def _run_scan(trial, trials: int, seed: int, threads: int) -> ScanReport:
    """The report of trial(seed, i) -> (bound, violated) for i in range(trials)."""
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if threads == 1 or trials <= 1:
        results = list(map(trial, repeat(seed), range(trials)))
    else:
        chunk = (trials + threads - 1) // threads
        # Imported here: the pool loads multiprocessing, which nothing else needs.
        from concurrent.futures import ProcessPoolExecutor

        # A forking pool starts all its workers at once: no more than chunks or usable CPUs.
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        with ProcessPoolExecutor(max_workers=min(threads, (trials + chunk - 1) // chunk, cpus)) as pool:
            results = list(pool.map(trial, repeat(seed), range(trials), chunksize=chunk))
    return ScanReport(trials, max((value for value, _ in results), default=0), sum(bad for _, bad in results))


def bezout_scan(trials: int, seed: int = 0, threads: int = 1) -> ScanReport:
    """Random distinct curve pairs; every intersection bound must stay <= 9."""
    return _run_scan(_bezout_trial, trials, seed, threads)


def k310_scan(trials: int, seed: int = 0, threads: int = 1) -> ScanReport:
    """Random surface triples from real incidence sets; common points <= 9
    certifies the incidence graph free of a complete 3-by-10 subgraph."""
    return _run_scan(_k310_trial, trials, seed, threads)
