"""Cubic match curves.

Each parametrized incidence pair generates a degree-3 surface in (x, y, w)
space: the locus of pairs that match it counterclockwise. For two generators,
the xy-projection of their surfaces' intersection is a cubic plane curve with
a rigid structure: its equation is a product of three affine linear forms plus
a linear correction, its asymptotes are recoverable exactly from the leading
form, and the two generators can be reconstructed from the curve alone. That
reconstruction is what keeps any two such curves from sharing more than nine
points, which this module also certifies by exact resultant computations.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .geometry import (
    GeometryError,
    InvariantViolation,
    Line,
    ParallelLines,
    Point,
    VerticalLine,
    find_shear,
    intersect,
    shear,
)
from .incidence import incidence_pairs
from .matching import IncidencePairParam, matches_ccw, to_param
from .polynomial import (
    BivariatePoly,
    UnivariatePoly,
    count_real_roots,
    nearest_real_root,
    poly_gcd,
    rational_roots,
    rational_roots_with_multiplicity,
    sylvester_resultant_y,
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


@dataclass(frozen=True)
class LinearForm:
    """cx*x + cy*y + c0 with the exact scale kept (unlike canonical Line)."""

    cx: Fraction
    cy: Fraction
    c0: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "cx", Fraction(self.cx))
        object.__setattr__(self, "cy", Fraction(self.cy))
        object.__setattr__(self, "c0", Fraction(self.c0))

    def evaluate(self, x: Fraction | int, y: Fraction | int) -> Fraction:
        return self.cx * Fraction(x) + self.cy * Fraction(y) + self.c0

    def poly(self) -> BivariatePoly:
        return BivariatePoly.linear(self.cx, self.cy, self.c0)

    def as_line(self) -> Line:
        return Line(self.cx, self.cy, self.c0)

    def shifted(self, delta: Fraction) -> "LinearForm":
        return LinearForm(self.cx, self.cy, self.c0 + delta)


@dataclass(frozen=True)
class LinearFormBundle:
    """The six linear forms and five constants behind a match curve.

    L1 and L2 vanish on the generating lines, L3 on the line joining the two
    points. L4 runs through the first point parallel to the second line, L5
    symmetrically. L6 = L1*L4 - L2*L5 collapses to the linear form
    D*x + E*y + F, which spans the median from the lines' intersection point
    to the midpoint of the two generator points. C is the slope difference,
    and s = L4 - L2 is the constant gap between those two parallel forms.
    """

    L1: LinearForm
    L2: LinearForm
    L3: LinearForm
    L4: LinearForm
    L5: LinearForm
    L6: LinearForm
    C: Fraction
    D: Fraction
    E: Fraction
    F: Fraction
    s: Fraction

    def __post_init__(self) -> None:
        # L1*L4 - L2*L5, coefficient by coefficient: its quadratic part must
        # cancel and its linear part must be L6 = D*x + E*y + F.
        a1, b1, c1 = self.L1.cx, self.L1.cy, self.L1.c0
        a2, b2, c2 = self.L2.cx, self.L2.cy, self.L2.c0
        a4, b4, c4 = self.L4.cx, self.L4.cy, self.L4.c0
        a5, b5, c5 = self.L5.cx, self.L5.cy, self.L5.c0
        quadratic = (a1 * a4 - a2 * a5, a1 * b4 + b1 * a4 - a2 * b5 - b2 * a5, b1 * b4 - b2 * b5)
        linear = (a1 * c4 + c1 * a4 - a2 * c5 - c2 * a5, b1 * c4 + c1 * b4 - b2 * c5 - c2 * b5, c1 * c4 - c2 * c5)
        if any(quadratic) or linear != (self.L6.cx, self.L6.cy, self.L6.c0) or linear != (self.D, self.E, self.F):
            raise CurveError("bundle identity L6 = L1*L4 - L2*L5 failed")


class CurveTag(Enum):
    GENERAL = "general"
    POINT_ON_LINE_1 = "point_on_line_1"
    POINT_ON_LINE_2 = "point_on_line_2"
    EMPTY = "empty"
    UNDEFINED = "undefined"


# Graded-lex descending monomial order; also the canonical sign-rule order.
MONOMIALS: tuple[tuple[int, int], ...] = (
    (3, 0), (2, 1), (1, 2), (0, 3),
    (2, 0), (1, 1), (0, 2),
    (1, 0), (0, 1),
    (0, 0),
)


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
    def from_poly(cls, p: BivariatePoly) -> "BivariateCubic":
        if p.is_zero():
            raise ValueError("zero polynomial is not a curve")
        if p.total_degree() > 3:
            raise ValueError("degree exceeds 3")
        vals = [p.coeff(i, j) for i, j in MONOMIALS]
        den = math.lcm(*(v.denominator for v in vals))
        ints = [int(v * den) for v in vals]
        g = math.gcd(*ints)
        ints = [c // g for c in ints]
        first = next(c for c in ints if c != 0)
        if first < 0:
            ints = [-c for c in ints]
        return cls(tuple(ints))

    def coeff(self, i: int, j: int) -> int:
        return self.coeffs[MONOMIALS.index((i, j))]

    def poly(self) -> BivariatePoly:
        return BivariatePoly({m: c for m, c in zip(MONOMIALS, self.coeffs) if c != 0})

    def evaluate(self, x: Fraction | int, y: Fraction | int) -> Fraction:
        return self.poly().evaluate(x, y)

    def total_degree(self) -> int:
        return self.poly().total_degree()

    def coefficient_list(self) -> list[list]:
        """JSON form: [[i, j, "coeff"], ...] for nonzero monomials in canonical order."""
        return [[i, j, str(c)] for (i, j), c in zip(MONOMIALS, self.coeffs) if c != 0]

    @classmethod
    def from_coefficient_list(cls, entries: Sequence[Sequence]) -> "BivariateCubic":
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"coefficients must be a list of [i, j, value] entries, not {entries!r}")
        coeffs: dict[tuple[int, int], Fraction] = {}
        for entry in entries:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                    and all(isinstance(e, int) for e in entry[:2])):
                raise ValueError(f"coefficient entry {entry!r} is not [i, j, value] with integers i, j")
            i, j, val = entry[0], entry[1], Fraction(str(entry[2]))
            if i < 0 or j < 0 or i + j > 3:
                raise ValueError(f"monomial x^{i} y^{j} out of range")
            coeffs[(i, j)] = coeffs.get((i, j), Fraction(0)) + val
        return cls.from_poly(BivariatePoly(coeffs))


@dataclass(frozen=True)
class CurveCase:
    tag: CurveTag
    curve: BivariateCubic | None
    bundle: LinearFormBundle | None


def _pair_form(a: Fraction, b: Fraction, kappa: Fraction) -> LinearForm:
    # y - b - kappa*(x - a)
    return LinearForm(-kappa, Fraction(1), kappa * a - b)


def make_bundle(p1: IncidencePairParam, p2: IncidencePairParam) -> LinearFormBundle:
    a1, b1, k1 = p1.a, p1.b, p1.kappa
    a2, b2, k2 = p2.a, p2.b, p2.kappa
    l1 = _pair_form(a1, b1, k1)
    l2 = _pair_form(a2, b2, k2)
    l3 = LinearForm(b2 - b1, -(a2 - a1), a2 * b1 - a1 * b2)
    l4 = LinearForm(-k2, Fraction(1), k2 * a1 - b1)
    l5 = LinearForm(-k1, Fraction(1), k1 * a2 - b2)
    c = k1 - k2
    d = 2 * k1 * k2 * (a2 - a1) - (k1 + k2) * (b2 - b1)
    e = 2 * (b2 - b1) - (k1 + k2) * (a2 - a1)
    f = k1 * k2 * (a1**2 - a2**2) + (k1 + k2) * (a2 * b2 - a1 * b1) + (b1**2 - b2**2)
    l6 = LinearForm(d, e, f)
    s = (b2 - b1) - k2 * (a2 - a1)
    return LinearFormBundle(l1, l2, l3, l4, l5, l6, c, d, e, f, s)


def match_curve(p1: IncidencePairParam, p2: IncidencePairParam) -> CurveCase:
    """The plane cubic whose points are the (x, y) of parameters matching both
    generators, together with its linear-form bundle.

    Two degenerate inputs produce no curve: identical points on different
    lines (the constraints contradict, so the locus is empty) and identical
    lines with different points (the equation degenerates to a forbidden
    triple line). When one generator's point lies on the other's line the
    curve exists but its leading form carries that line squared.
    """
    if p1 == p2:
        raise SamePair("need two distinct incidence pairs")
    if p1.point == p2.point:
        return CurveCase(CurveTag.EMPTY, None, None)
    if p1.line == p2.line:
        return CurveCase(CurveTag.UNDEFINED, None, None)
    bundle = make_bundle(p1, p2)
    poly = (
        bundle.L1.poly() * bundle.L2.poly() * bundle.L3.poly()
        + bundle.L6.poly().scale(2)
        + BivariatePoly.constant(4 * bundle.C)
    )
    curve = BivariateCubic.from_poly(poly)
    if p1.line.contains(p2.point):
        tag = CurveTag.POINT_ON_LINE_1
    elif p2.line.contains(p1.point):
        tag = CurveTag.POINT_ON_LINE_2
    else:
        tag = CurveTag.GENERAL
    return CurveCase(tag, curve, bundle)


@dataclass(frozen=True)
class MatchSurface:
    """The surface of all parameter triples matching one generator."""

    generator: IncidencePairParam

    def contains(self, x: Fraction, y: Fraction, w: Fraction) -> bool:
        try:
            other = IncidencePairParam.from_triple(x, y, w)
        except GeometryError:
            return False
        return matches_ccw(self.generator, other)


@dataclass(frozen=True)
class LeadingFormFactors:
    """Factorization of the top homogeneous part into rational linear forms.

    leading_form == scale * product(direction^multiplicity) * remainder,
    with each direction a canonical homogeneous Line and the remainder (when
    present) a primitive integer form with no rational linear factor.
    """

    scale: Fraction
    factors: tuple[tuple[Line, int], ...]
    remainder: BivariatePoly | None


def _homogenize(p: UnivariatePoly, degree: int) -> BivariatePoly:
    # sum c_i x^i y^(degree - i)
    return BivariatePoly({(i, degree - i): c for i, c in enumerate(p.coeffs)})


def leading_form_factors(cubic: BivariateCubic) -> LeadingFormFactors:
    """Split the leading form into rational linear factors with multiplicity.

    Any part without rational roots is returned whole as an irreducible
    remainder (for our generated curves this never occurs; the factorization
    is rational by construction).
    """
    fpoly = cubic.poly()
    d = fpoly.total_degree()
    top = fpoly.homogeneous_part(d)
    # Restrict to y = 1; the lost factor is a power of y.
    profile = UnivariatePoly([top.coeff(i, d - i) for i in range(d + 1)])
    y_mult = d - profile.degree
    factors: list[tuple[Line, int]] = []
    if y_mult > 0:
        factors.append((Line(0, 1, 0), y_mult))
    work = profile
    for root, mult in rational_roots_with_multiplicity(profile):
        factors.append((Line(root.denominator, -root.numerator, 0), mult))
        divisor = UnivariatePoly([-root, 1])
        for _ in range(mult):
            work, rem = work.divmod(divisor)
            if not rem.is_zero():
                raise InvariantViolation(f"root {root} of the leading form left a remainder")
    remainder: BivariatePoly | None = None
    product = BivariatePoly.constant(1)
    for line, mult in factors:
        form = BivariatePoly.linear(line.A, line.B, 0)
        for _ in range(mult):
            product = product * form
    if work.degree >= 1:
        rem_int = work.primitive()
        if rem_int.coeffs[-1] < 0:
            rem_int = rem_int.scale(-1)
        remainder = _homogenize(rem_int, work.degree)
        product = product * remainder
    key = next(iter(product.coeffs))
    scale = top.coeff(*key) / product.coeff(*key)
    if product.scale(scale) != top:
        raise InvariantViolation("leading-form factors do not multiply back to the leading form")
    factors.sort()
    return LeadingFormFactors(scale, tuple(factors), remainder)


def _simple_asymptote(fpoly: BivariatePoly, direction: Line) -> Line:
    """Asymptote parallel to a simple rational factor of the leading form.

    With f = u*q + f2 + lower (u the factor, q its cofactor) the offset is
    c = f2(d) / q(d) at the direction d annihilated by u, giving u + c = 0.
    """
    d = fpoly.total_degree()
    top = fpoly.homogeneous_part(d)
    q, rem = top.divide_by_linear(direction.A, direction.B, 0)
    if not rem.is_zero():
        raise InvariantViolation(f"{direction} does not divide the leading form")
    dx, dy = Fraction(direction.B), Fraction(-direction.A)
    qd = q.evaluate(dx, dy)
    if qd == 0:
        raise NonSimpleFactorUnsupported("offset formula needs a simple factor")
    c = fpoly.homogeneous_part(d - 1).evaluate(dx, dy) / qd
    return Line(direction.A, direction.B, c)


def _in_factor_frame(
    fpoly: BivariatePoly, u: tuple[Fraction, Fraction, Fraction], v: tuple[Fraction, Fraction, Fraction]
) -> BivariatePoly:
    """Rewrite f in affine coordinates (U, V) = (u(x,y), v(x,y))."""
    a1, b1, c1 = u
    a2, b2, c2 = v
    det = a1 * b2 - a2 * b1
    if det == 0:
        raise CurveError("frame forms are parallel")
    px = BivariatePoly({(1, 0): b2 / det, (0, 1): -b1 / det, (0, 0): (b1 * c2 - b2 * c1) / det})
    py = BivariatePoly({(1, 0): -a2 / det, (0, 1): a1 / det, (0, 0): (a2 * c1 - a1 * c2) / det})
    return fpoly.substitute(px, py)


def _double_factor_asymptotes(
    fpoly: BivariatePoly, double: Line, simple: Line
) -> tuple[Line, Line]:
    """Asymptotes when the leading form is (double)^2 * (simple).

    The simple factor's asymptote comes from the offset formula. Writing f in
    the frame (U, V) = (double direction, simple asymptote) must then leave
    exactly the shape g*(U+c)^2*V + h*U + const; the double asymptote is
    U + c = 0 with c read off the U*V coefficient.
    """
    v_line = _simple_asymptote(fpoly, simple)
    F = _in_factor_frame(
        fpoly,
        (Fraction(double.A), Fraction(double.B), Fraction(0)),
        (Fraction(v_line.A), Fraction(v_line.B), Fraction(v_line.C)),
    )
    allowed = {(2, 1), (1, 1), (0, 1), (1, 0), (0, 0)}
    if any(key not in allowed for key in F.coeffs):
        raise NonSimpleFactorUnsupported("not the squared-line curve shape")
    g = F.coeff(2, 1)
    if g == 0:
        raise NonSimpleFactorUnsupported("degenerate squared-line shape")
    c = F.coeff(1, 1) / (2 * g)
    if F.coeff(0, 1) != g * c * c:
        raise NonSimpleFactorUnsupported("squared-line shape check failed")
    h = F.coeff(1, 0)
    const = F.coeff(0, 0) - h * c
    if h == 0 and const == 0:
        raise NonSimpleFactorUnsupported("curve degenerates to its double line")
    return Line(double.A, double.B, c), v_line


def asymptotes(cubic: BivariateCubic) -> list[Line]:
    """All asymptotes recoverable from rational leading-form factors, exactly.

    Simple factors go through the offset formula; a squared factor is handled
    via the squared-line normal form. Triple factors and shapes outside those
    two are refused rather than guessed.
    """
    fpoly = cubic.poly()
    if fpoly.total_degree() != 3:
        raise NonSimpleFactorUnsupported("asymptote analysis needs a cubic")
    lf = leading_form_factors(cubic)
    mults = sorted(m for _, m in lf.factors)
    if 3 in mults:
        raise NonSimpleFactorUnsupported("triple linear factor")
    if 2 in mults:
        doubles = [line for line, m in lf.factors if m == 2]
        simples = [line for line, m in lf.factors if m == 1]
        if len(doubles) != 1 or len(simples) != 1:
            raise NonSimpleFactorUnsupported("unsupported repeated-factor shape")
        d_line, s_line = _double_factor_asymptotes(fpoly, doubles[0], simples[0])
        return sorted([d_line, s_line])
    simples = [line for line, m in lf.factors if m == 1]
    if not simples:
        raise NonSimpleFactorUnsupported("no rational linear factor in the leading form")
    return sorted(_simple_asymptote(fpoly, line) for line in simples)


def has_linear_factor(cubic: BivariateCubic) -> Line | None:
    """A rational linear factor of the cubic, or None.

    Any linear factor's direction divides the leading form, so only the
    rational directions found there are candidates; for each, the constant
    offset is solved exactly by requiring the substituted polynomial to vanish
    identically.
    """
    fpoly = cubic.poly()
    lf = leading_form_factors(cubic)
    for direction, _ in lf.factors:
        a, b = direction.A, direction.B
        if a != 0:
            frame_v = (Fraction(0), Fraction(1), Fraction(0))
        else:
            frame_v = (Fraction(1), Fraction(0), Fraction(0))
        F = _in_factor_frame(fpoly, (Fraction(a), Fraction(b), Fraction(0)), frame_v)
        # (U + c) divides F  iff  F(-c, V) == 0 identically: collect, per power
        # of V, the coefficient as a polynomial in c and intersect their roots.
        per_v: dict[int, dict[int, Fraction]] = {}
        for (i, j), coeff in F.coeffs.items():
            per_v.setdefault(j, {})[i] = coeff * (-1) ** i
        polys = []
        for j in sorted(per_v):
            col = per_v[j]
            polys.append(UnivariatePoly([col.get(i, Fraction(0)) for i in range(max(col) + 1)]))
        polys = [p for p in polys if not p.is_zero()]
        if not polys:
            return direction
        if any(p.degree == 0 for p in polys):
            continue
        candidates = rational_roots(polys[0])
        for c in candidates:
            if all(p.evaluate(c) == 0 for p in polys[1:]):
                return Line(a, b, c)
    return None


def _line_poly(line: Line) -> BivariatePoly:
    return BivariatePoly.linear(line.A, line.B, line.C)


def _midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


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
    fpoly = cubic.poly()
    if fpoly.total_degree() != 3:
        raise NotAMatchCurve("match curves are cubic")
    lf = leading_form_factors(cubic)
    mults = sorted(m for _, m in lf.factors)
    if 3 in mults:
        raise NonSimpleFactorUnsupported("triple linear factor")
    if 2 in mults:
        pair = _reconstruct_squared_line(cubic, fpoly, lf)
    else:
        pair = _reconstruct_general(cubic, fpoly, lf)
    regenerated = match_curve(pair[0], pair[1])
    if regenerated.curve != cubic:
        raise NotAMatchCurve("curve is not generated by any incidence pair")
    return pair


def _sorted_pair(
    q1: IncidencePairParam, q2: IncidencePairParam
) -> tuple[IncidencePairParam, IncidencePairParam]:
    return (q1, q2) if q1 <= q2 else (q2, q1)


def _reconstruct_general(
    cubic: BivariateCubic, fpoly: BivariatePoly, lf: LeadingFormFactors
) -> tuple[IncidencePairParam, IncidencePairParam]:
    if lf.remainder is not None or len(lf.factors) != 3:
        raise NonSimpleFactorUnsupported("leading form does not split into three lines")
    asys = [_simple_asymptote(fpoly, line) for line, _ in lf.factors]
    product = _line_poly(asys[0]) * _line_poly(asys[1]) * _line_poly(asys[2])
    # The asymptote product matches the curve's cubic part up to one constant
    # (canonical lines may rescale each form, so read the constant off the
    # actual leading coefficients rather than the factorization's scale).
    prod3 = product.homogeneous_part(3)
    key = next(iter(prod3.coeffs))
    nu = fpoly.coeff(*key) / prod3.coeff(*key)
    rest = fpoly - product.scale(nu)
    if rest.total_degree() > 1:
        raise NotAMatchCurve("asymptote product does not linearize the cubic")
    rx, ry = rest.coeff(1, 0), rest.coeff(0, 1)
    if rx == 0 and ry == 0:
        raise NotAMatchCurve("no median direction left after linearization")
    # Vertices of the asymptote triangle; vertex[i] avoids asymptote i.
    try:
        verts = [
            intersect(asys[1], asys[2]),
            intersect(asys[0], asys[2]),
            intersect(asys[0], asys[1]),
        ]
    except ParallelLines as exc:
        raise NonSimpleFactorUnsupported("parallel asymptotes") from exc
    hits = []
    for i in range(3):
        others = [verts[j] for j in range(3) if j != i]
        mid = _midpoint(others[0], others[1])
        dx, dy = mid.x - verts[i].x, mid.y - verts[i].y
        if rx * dx + ry * dy == 0:
            hits.append(i)
    if len(hits) > 1:
        raise AmbiguousMedian("several medians parallel to the linear remainder")
    if not hits:
        raise NotAMatchCurve("no median parallel to the linear remainder")
    o_index = hits[0]
    o_lines = [asys[j] for j in range(3) if j != o_index]
    pairs = []
    for line in o_lines:
        others = [verts[j] for j in range(3) if j != o_index]
        on_line = [p for p in others if line.contains(p)]
        if len(on_line) != 1:
            raise NotAMatchCurve("asymptote triangle is degenerate")
        try:
            pairs.append(to_param(line, on_line[0]))
        except VerticalLine as exc:
            raise NotAMatchCurve("generator line would be vertical") from exc
    return _sorted_pair(pairs[0], pairs[1])


def _reconstruct_squared_line(
    cubic: BivariateCubic, fpoly: BivariatePoly, lf: LeadingFormFactors
) -> tuple[IncidencePairParam, IncidencePairParam]:
    doubles = [line for line, m in lf.factors if m == 2]
    simples = [line for line, m in lf.factors if m == 1]
    if len(doubles) != 1 or len(simples) != 1:
        raise NonSimpleFactorUnsupported("unsupported repeated-factor shape")
    line1, line2 = _double_factor_asymptotes(fpoly, doubles[0], simples[0])
    if line1.is_vertical or line2.is_vertical:
        raise NotAMatchCurve("generator line would be vertical")
    k1, k2 = line1.slope(), line2.slope()
    # Unit-y-coefficient forms match the parametrized forms exactly.
    form1 = LinearForm(Fraction(line1.A, line1.B), Fraction(1), Fraction(line1.C, line1.B))
    # The curve meets the simple asymptote in a single point.
    section = fpoly.restrict_to_line(k2, Fraction(-line2.C, line2.B))
    if section.degree != 1:
        raise NotAMatchCurve("curve does not meet the simple asymptote once")
    x0 = -section.coeffs[0] / section.coeffs[1]
    y0 = k2 * x0 - Fraction(line2.C, line2.B)
    val = form1.evaluate(x0, y0)
    if val == 0:
        raise NotAMatchCurve("crossing point lies on the double line")
    a1_minus_a2 = 2 / val
    c = k1 - k2
    s = -c * a1_minus_a2
    form4 = LinearForm(Fraction(line2.A, line2.B), Fraction(1), Fraction(line2.C, line2.B) + s)
    p1 = intersect(line1, form4.as_line())
    p2 = intersect(line1, line2)
    return _sorted_pair(to_param(line1, p1), to_param(line2, p2))


@dataclass(frozen=True)
class CurveIntersection:
    upper_bound: int
    rational_points: tuple[Point, ...]


def curve_intersection_bound(f: BivariateCubic, g: BivariateCubic) -> CurveIntersection:
    """Certified bound on the real intersections of two distinct cubics.

    Eliminates y by a Sylvester resultant (after a shared x -> x + t*y shear
    making both y-leading coefficients constant), counts the distinct real
    roots of the squarefree resultant by exact sign variations, and lists the
    exact rational intersection points by back-substitution. An identically
    zero resultant means a shared component.
    """
    if f == g:
        raise InfiniteSharedComponent("identical curves")
    fp, gp = f.poly(), g.poly()
    if fp.total_degree() != 3 or gp.total_degree() != 3:
        raise ValueError("intersection bound expects two cubics")
    f3, g3 = fp.homogeneous_part(3), gp.homogeneous_part(3)
    t = 0
    while f3.evaluate(t, 1) == 0 or g3.evaluate(t, 1) == 0:
        t += 1
    fs, gs = fp.shear_x(t), gp.shear_x(t)
    resultant = sylvester_resultant_y(fs, gs)
    if resultant.is_zero():
        raise InfiniteSharedComponent("curves share a component")
    upper = count_real_roots(resultant)
    points = set()
    for x0 in rational_roots(resultant):
        common = poly_gcd(fs.section_at_x(x0), gs.section_at_x(x0))
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
    s1: MatchSurface, s2: MatchSurface, s3: MatchSurface
) -> TripleCommonPoints:
    """Bound the parameter triples incident to three distinct surfaces.

    Common points project into the intersection of the two projection curves
    through the first surface, so the plane bound applies; each exact rational
    plane point is lifted back to its unique slope coordinate and kept only
    when all three surfaces contain it.
    """
    gens = (s1.generator, s2.generator, s3.generator)
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
        try:
            candidate = IncidencePairParam.from_triple(x, y, w)
        except GeometryError:
            continue
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
    fpoly = cubic.poly()
    a, b, c = line.A, line.B, line.C
    if b != 0:
        base = Point(Fraction(0), Fraction(-c, b))
    else:
        base = Point(Fraction(-c, a), Fraction(0))
    norm = math.hypot(a, b)
    out = []
    for tau in xs:
        tau = Fraction(tau)
        qx = base.x + tau * b
        qy = base.y - tau * a
        section = fpoly.substitute(
            BivariatePoly({(1, 0): Fraction(a), (0, 0): qx}),
            BivariatePoly({(1, 0): Fraction(b), (0, 0): qy}),
        )
        deg = max((i for i, _ in section.coeffs), default=-1)
        sigma = nearest_real_root(UnivariatePoly([section.coeff(i, 0) for i in range(deg + 1)]), PROBE_WIDTH)
        if sigma is None:
            raise NoBranch(f"no real branch at sample {tau}")
        out.append(float(abs(sigma)) * norm)
    return out


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


def _k310_trial(seed: int, index: int) -> tuple[int, bool]:
    rng = _trial_rng(seed, index)
    while True:
        n = rng.randint(8, 14)
        pts: set[Point] = set()
        while len(pts) < n:
            pts.add(Point(rng.randint(-6, 6), rng.randint(-6, 6)))
        points = sorted(pts)
        sheared = shear(points, find_shear(points))
        pairs = incidence_pairs(sheared, 2)
        if len(pairs) < 3:
            continue
        for _ in range(40):
            trio = rng.sample(range(len(pairs)), 3)
            surfaces = [MatchSurface(pairs[i]) for i in trio]
            try:
                result = triple_common_points(*surfaces)
            except DegenerateTriple:
                continue
            except InfiniteSharedComponent:
                return 0, True
            return result.upper_bound, result.upper_bound > 9


def _scan_chunk(kind: str, seed: int, lo: int, hi: int) -> tuple[int, int]:
    trial = _bezout_trial if kind == "bezout" else _k310_trial
    max_value = 0
    violations = 0
    for i in range(lo, hi):
        value, bad = trial(seed, i)
        max_value = max(max_value, value)
        violations += int(bad)
    return max_value, violations


def _run_scan(kind: str, trials: int, seed: int, threads: int) -> ScanReport:
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if threads <= 1 or trials <= 1:
        max_value, violations = _scan_chunk(kind, seed, 0, trials)
        return ScanReport(trials, max_value, violations)
    chunk = max(1, (trials + threads - 1) // threads)
    ranges = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
    max_value = 0
    violations = 0
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for mv, vi in pool.map(_scan_chunk_star, [(kind, seed, lo, hi) for lo, hi in ranges]):
            max_value = max(max_value, mv)
            violations += vi
    return ScanReport(trials, max_value, violations)


def _scan_chunk_star(args: tuple[str, int, int, int]) -> tuple[int, int]:
    return _scan_chunk(*args)


def bezout_scan(trials: int, seed: int = 0, threads: int = 1) -> ScanReport:
    """Random distinct curve pairs; every intersection bound must stay <= 9."""
    return _run_scan("bezout", trials, seed, threads)


def k310_scan(trials: int, seed: int = 0, threads: int = 1) -> ScanReport:
    """Random surface triples from real incidence sets; common points <= 9
    certifies the incidence graph free of a complete 3-by-10 subgraph."""
    return _run_scan("k310", trials, seed, threads)
