"""The integer cubic kit against the package's former Fraction path.

Every bivariate step of `equiarea.curves` runs on 10 integer coefficients in
MONOMIALS order. The oracles below are the steps as they were written on
Fraction `BivariatePoly` arithmetic (`bivariate_oracle`): products of forms,
division by a linear form, generic substitution, shears, sections and line
restrictions. They share only the univariate root kit with the package,
which `test_polynomial.py` checks against sympy. Inputs: general and
point-on-line generator pairs, arbitrary pairs, and arbitrary cubics, with
mixed denominators and parameters above 2^64. Examples are derandomized, so
every run draws the same inputs. `has_linear_factor` is also compared with
sympy's factorization where sympy is installed.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from equiarea import curves
from equiarea.curves import (
    AmbiguousMedian,
    BivariateCubic,
    CurveError,
    InfiniteSharedComponent,
    LeadingFormFactors,
    NonSimpleFactorUnsupported,
    NotAMatchCurve,
    asymptotes,
    curve_intersection_bound,
    has_linear_factor,
    leading_form_factors,
    match_curve,
    reconstruct_generators,
)
from equiarea.geometry import (
    GeometryError,
    InvariantViolation,
    Line,
    ParallelLines,
    Point,
    VerticalLine,
    intersect,
)
from equiarea.matching import IncidencePairParam, to_param
from equiarea.polynomial import (
    MONOMIALS,
    count_real_roots,
    cubic_value,
    on_line,
    poly_gcd,
    rational_roots,
    rational_roots_with_multiplicity,
    substitute,
    sylvester_resultant_y,
    x_section,
)

from bivariate_oracle import BivariatePoly, UnivariatePoly, make_bundle

ORACLES = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

BIG = 2**64 + 12345


# ---------------------------------------------------------------------------
# The Fraction path, as the package had it.


def oracle_coeffs(p: BivariatePoly) -> tuple[int, ...]:
    """Primitive integer coefficients with the first nonzero positive."""
    vals = [p.coeff(i, j) for i, j in MONOMIALS]
    den = math.lcm(*(v.denominator for v in vals))
    ints = [int(v * den) for v in vals]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    if next(c for c in ints if c != 0) < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def fpoly(cubic: BivariateCubic) -> BivariatePoly:
    return BivariatePoly.of(cubic.poly())


def oracle_match_coeffs(q1: IncidencePairParam, q2: IncidencePairParam) -> tuple[int, ...]:
    b = make_bundle(q1, q2)
    l1, l2, l3, l6 = (BivariatePoly.linear(f.cx, f.cy, f.c0) for f in (b.L1, b.L2, b.L3, b.L6))
    return oracle_coeffs(l1 * l2 * l3 + l6.scale(2) + BivariatePoly.constant(4 * b.C))


def oracle_leading_form_factors(cubic: BivariateCubic) -> LeadingFormFactors:
    f = fpoly(cubic)
    d = f.total_degree()
    top = f.homogeneous_part(d)
    profile = UnivariatePoly([top.coeff(i, d - i) for i in range(d + 1)])
    y_mult = d - profile.degree
    factors = [(Line(0, 1, 0), y_mult)] if y_mult > 0 else []
    work = profile
    for root, mult in rational_roots_with_multiplicity(profile):
        factors.append((Line(root.denominator, -root.numerator, 0), mult))
        for _ in range(mult):
            work, rem = work.divmod(UnivariatePoly([-root, 1]))
            assert rem.is_zero()
    remainder = None
    product = BivariatePoly.constant(1)
    for line, mult in factors:
        for _ in range(mult):
            product = product * BivariatePoly.linear(line.A, line.B, 0)
    if work.degree >= 1:
        rem_int = work.primitive()
        if rem_int.coeffs[-1] < 0:
            rem_int = rem_int.scale(-1)
        remainder = BivariatePoly({(i, work.degree - i): c for i, c in enumerate(rem_int.coeffs)})
        product = product * remainder
    key = next(iter(product.coeffs))
    scale = top.coeff(*key) / product.coeff(*key)
    assert product.scale(scale) == top
    factors.sort()
    return LeadingFormFactors(scale, tuple(factors), remainder)


def oracle_simple_asymptote(f: BivariatePoly, direction: Line) -> Line:
    d = f.total_degree()
    q, rem = f.homogeneous_part(d).divide_by_linear(direction.A, direction.B, 0)
    if not rem.is_zero():
        raise InvariantViolation("not a factor")
    dx, dy = F(direction.B), F(-direction.A)
    qd = q.evaluate(dx, dy)
    if qd == 0:
        raise NonSimpleFactorUnsupported("offset formula needs a simple factor")
    return Line(direction.A, direction.B, f.homogeneous_part(d - 1).evaluate(dx, dy) / qd)


def oracle_in_factor_frame(f: BivariatePoly, u, v) -> BivariatePoly:
    a1, b1, c1 = map(F, u)
    a2, b2, c2 = map(F, v)
    det = a1 * b2 - a2 * b1
    px = BivariatePoly({(1, 0): b2 / det, (0, 1): -b1 / det, (0, 0): (b1 * c2 - b2 * c1) / det})
    py = BivariatePoly({(1, 0): -a2 / det, (0, 1): a1 / det, (0, 0): (a2 * c1 - a1 * c2) / det})
    return f.substitute(px, py)


def oracle_double_factor_asymptotes(f: BivariatePoly, double: Line, simple: Line) -> tuple[Line, Line]:
    v_line = oracle_simple_asymptote(f, simple)
    G = oracle_in_factor_frame(f, (double.A, double.B, 0), (v_line.A, v_line.B, v_line.C))
    if any(key not in {(2, 1), (1, 1), (0, 1), (1, 0), (0, 0)} for key in G.coeffs):
        raise NonSimpleFactorUnsupported("not the squared-line curve shape")
    g = G.coeff(2, 1)
    if g == 0:
        raise NonSimpleFactorUnsupported("degenerate squared-line shape")
    c = G.coeff(1, 1) / (2 * g)
    if G.coeff(0, 1) != g * c * c:
        raise NonSimpleFactorUnsupported("squared-line shape check failed")
    h = G.coeff(1, 0)
    if h == 0 and G.coeff(0, 0) - h * c == 0:
        raise NonSimpleFactorUnsupported("curve degenerates to its double line")
    return Line(double.A, double.B, c), v_line


def oracle_asymptotes(cubic: BivariateCubic) -> list[Line]:
    f = fpoly(cubic)
    if f.total_degree() != 3:
        raise NonSimpleFactorUnsupported("asymptote analysis needs a cubic")
    lf = oracle_leading_form_factors(cubic)
    mults = sorted(m for _, m in lf.factors)
    if 3 in mults:
        raise NonSimpleFactorUnsupported("triple linear factor")
    doubles = [line for line, m in lf.factors if m == 2]
    simples = [line for line, m in lf.factors if m == 1]
    if 2 in mults:
        if len(doubles) != 1 or len(simples) != 1:
            raise NonSimpleFactorUnsupported("unsupported repeated-factor shape")
        return sorted(oracle_double_factor_asymptotes(f, doubles[0], simples[0]))
    if not simples:
        raise NonSimpleFactorUnsupported("no rational linear factor in the leading form")
    return sorted(oracle_simple_asymptote(f, line) for line in simples)


def oracle_has_linear_factor(cubic: BivariateCubic) -> Line | None:
    f = fpoly(cubic)
    for direction, _ in oracle_leading_form_factors(cubic).factors:
        a, b = direction.A, direction.B
        G = oracle_in_factor_frame(f, (a, b, 0), (0, 1, 0) if a != 0 else (1, 0, 0))
        per_v: dict[int, dict[int, F]] = {}
        for (i, j), coeff in G.coeffs.items():
            per_v.setdefault(j, {})[i] = coeff * (-1) ** i
        polys = [UnivariatePoly([col.get(i, 0) for i in range(max(col) + 1)]) for _, col in sorted(per_v.items())]
        polys = [p for p in polys if not p.is_zero()]
        if any(p.degree == 0 for p in polys):
            continue
        for c in rational_roots(polys[0]):
            if all(p.evaluate(c) == 0 for p in polys[1:]):
                return Line(a, b, c)
    return None


def oracle_reconstruct(cubic: BivariateCubic) -> tuple[IncidencePairParam, IncidencePairParam]:
    f = fpoly(cubic)
    if f.total_degree() != 3:
        raise NotAMatchCurve("match curves are cubic")
    lf = oracle_leading_form_factors(cubic)
    mults = sorted(m for _, m in lf.factors)
    if 3 in mults:
        raise NonSimpleFactorUnsupported("triple linear factor")
    pair = (oracle_squared_line if 2 in mults else oracle_general)(f, lf)
    q1, q2 = pair
    if q1.point == q2.point or q1.line == q2.line or oracle_match_coeffs(q1, q2) != cubic.coeffs:
        raise NotAMatchCurve("curve is not generated by any incidence pair")
    return pair


def oracle_general(f: BivariatePoly, lf: LeadingFormFactors):
    if lf.remainder is not None or len(lf.factors) != 3:
        raise NonSimpleFactorUnsupported("leading form does not split into three lines")
    asys = [oracle_simple_asymptote(f, line) for line, _ in lf.factors]
    product = BivariatePoly.constant(1)
    for line in asys:
        product = product * BivariatePoly.linear(line.A, line.B, line.C)
    prod3 = product.homogeneous_part(3)
    key = next(iter(prod3.coeffs))
    rest = f - product.scale(f.coeff(*key) / prod3.coeff(*key))
    if rest.total_degree() > 1:
        raise NotAMatchCurve("asymptote product does not linearize the cubic")
    rx, ry = rest.coeff(1, 0), rest.coeff(0, 1)
    if rx == 0 and ry == 0:
        raise NotAMatchCurve("no median direction left after linearization")
    try:
        verts = [intersect(asys[1], asys[2]), intersect(asys[0], asys[2]), intersect(asys[0], asys[1])]
    except ParallelLines as exc:
        raise NonSimpleFactorUnsupported("parallel asymptotes") from exc
    hits = []
    for i in range(3):
        p, q = (verts[j] for j in range(3) if j != i)
        if rx * ((p.x + q.x) / 2 - verts[i].x) + ry * ((p.y + q.y) / 2 - verts[i].y) == 0:
            hits.append(i)
    if len(hits) > 1:
        raise AmbiguousMedian("several medians parallel to the linear remainder")
    if not hits:
        raise NotAMatchCurve("no median parallel to the linear remainder")
    others = [verts[j] for j in range(3) if j != hits[0]]
    pairs = []
    for line in (asys[j] for j in range(3) if j != hits[0]):
        on_line_ = [p for p in others if line.contains(p)]
        if len(on_line_) != 1:
            raise NotAMatchCurve("asymptote triangle is degenerate")
        try:
            pairs.append(to_param(line, on_line_[0]))
        except VerticalLine as exc:
            raise NotAMatchCurve("generator line would be vertical") from exc
    return tuple(sorted(pairs))


def oracle_squared_line(f: BivariatePoly, lf: LeadingFormFactors):
    doubles = [line for line, m in lf.factors if m == 2]
    simples = [line for line, m in lf.factors if m == 1]
    if len(doubles) != 1 or len(simples) != 1:
        raise NonSimpleFactorUnsupported("unsupported repeated-factor shape")
    line1, line2 = oracle_double_factor_asymptotes(f, doubles[0], simples[0])
    if line1.is_vertical or line2.is_vertical:
        raise NotAMatchCurve("generator line would be vertical")
    k1, k2 = line1.slope(), line2.slope()
    section = f.restrict_to_line(k2, F(-line2.C, line2.B))
    if section.degree != 1:
        raise NotAMatchCurve("curve does not meet the simple asymptote once")
    x0 = -section.coeffs[0] / section.coeffs[1]
    y0 = k2 * x0 - F(line2.C, line2.B)
    val = F(line1.A, line1.B) * x0 + y0 + F(line1.C, line1.B)
    if val == 0:
        raise NotAMatchCurve("crossing point lies on the double line")
    s = -(k1 - k2) * 2 / val
    p1 = intersect(line1, Line(F(line2.A, line2.B), 1, F(line2.C, line2.B) + s))
    p2 = intersect(line1, line2)
    return tuple(sorted((to_param(line1, p1), to_param(line2, p2))))


def oracle_intersection(f: BivariateCubic, g: BivariateCubic):
    fp, gp = fpoly(f), fpoly(g)
    t = 0
    while fp.homogeneous_part(3).evaluate(t, 1) == 0 or gp.homogeneous_part(3).evaluate(t, 1) == 0:
        t += 1
    fs, gs = fp.shear_x(t), gp.shear_x(t)
    resultant = sylvester_resultant_y(fs, gs)
    if resultant.is_zero():
        raise InfiniteSharedComponent("curves share a component")
    points = set()
    for x0 in rational_roots(resultant):
        for y0 in rational_roots(poly_gcd(fs.section_at_x(x0), gs.section_at_x(x0))):
            candidate = Point(x0 + t * y0, y0)
            if fp.evaluate(candidate.x, candidate.y) == 0 == gp.evaluate(candidate.x, candidate.y):
                points.add(candidate)
    return count_real_roots(resultant), tuple(sorted(points))


def oracle_probe_section(cubic: BivariateCubic, line: Line, tau: F) -> UnivariatePoly:
    a, b, c = line.A, line.B, line.C
    base = Point(0, F(-c, b)) if b != 0 else Point(F(-c, a), 0)
    section = fpoly(cubic).substitute(
        BivariatePoly({(1, 0): a, (0, 0): base.x + tau * b}),
        BivariatePoly({(1, 0): b, (0, 0): base.y - tau * a}),
    )
    deg = max((i for i, _ in section.coeffs), default=-1)
    return UnivariatePoly([section.coeff(i, 0) for i in range(deg + 1)])


def outcome(fn, *args):
    """The result, or the name of the exception raised."""
    try:
        return fn(*args)
    except (CurveError, GeometryError, InvariantViolation) as exc:
        return type(exc).__name__


# ---------------------------------------------------------------------------
# Inputs

SMALL = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 1, 2, 3, 7]))
HUGE = st.builds(
    lambda n, d, sign: F(sign * BIG + n, d), st.integers(-5, 5), st.sampled_from([1, 3]), st.sampled_from([1, -1])
)
PARAM = st.one_of(SMALL, SMALL, SMALL, HUGE)
PAIR = st.builds(IncidencePairParam.from_triple, PARAM, PARAM, PARAM)


def is_general(q1: IncidencePairParam, q2: IncidencePairParam) -> bool:
    """The conditions of `random_general_position_pair`."""
    if q1.kappa == q2.kappa or q1.point == q2.point:
        return False
    if q1.line.contains(q2.point) or q2.line.contains(q1.point):
        return False
    dx, dy = q2.a - q1.a, q2.b - q1.b
    return dx == 0 or dy / dx not in (q1.kappa, q2.kappa)


@st.composite
def general_pairs(draw, param=PARAM):
    q1, q2 = (IncidencePairParam.from_triple(draw(param), draw(param), draw(param)) for _ in range(2))
    assume(is_general(q1, q2))
    return q1, q2


@st.composite
def point_on_line_pairs(draw, param=PARAM):
    a1, b1, k1, a2, k2 = (draw(param) for _ in range(5))
    assume(a2 != a1 and k2 != k1)
    return IncidencePairParam.from_triple(a1, b1, k1), IncidencePairParam.from_triple(a2, b1 + k1 * (a2 - a1), k2)


@st.composite
def any_pairs(draw):
    q1, q2 = draw(PAIR), draw(PAIR)
    assume(q1 != q2 and q1.point != q2.point and q1.line != q2.line)
    return q1, q2


def generated(param=PARAM):
    return st.one_of(general_pairs(param), point_on_line_pairs(param)).map(lambda qs: match_curve(*qs).curve)


GENERATED = generated()
COEFF = st.one_of(st.integers(-6, 6), st.integers(-6, 6), st.sampled_from([BIG, -BIG, 3 * BIG]))


@st.composite
def arbitrary_cubics(draw, coeff=COEFF):
    """Integer cubics, half of them with a leading form that splits into
    rational lines, so the asymptote paths run too."""
    coeffs = draw(st.lists(coeff, min_size=10, max_size=10))
    if draw(st.booleans()):
        top = BivariatePoly.constant(1)
        for _ in range(3):
            top = top * BivariatePoly.linear(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)), 0)
        coeffs[:4] = [top.coeff(i, j) for i, j in MONOMIALS[:4]]
    assume(any(coeffs[:4]))
    return BivariateCubic(oracle_coeffs(BivariatePoly(dict(zip(MONOMIALS, coeffs)))))


CUBICS = st.one_of(GENERATED, GENERATED, arbitrary_cubics())
AFFINE = st.tuples(COEFF, COEFF, COEFF)


# ---------------------------------------------------------------------------
# The kit's primitives


@ORACLES
@given(arbitrary_cubics(), AFFINE, AFFINE, st.integers(-7, 7).filter(bool))
def test_substitute(cubic, px, py, w):
    expected = fpoly(cubic).substitute(
        BivariatePoly({(1, 0): F(px[0], w), (0, 1): F(px[1], w), (0, 0): F(px[2], w)}),
        BivariatePoly({(1, 0): F(py[0], w), (0, 1): F(py[1], w), (0, 0): F(py[2], w)}),
    )
    got = substitute(cubic.coeffs, px, py, w)
    assert BivariatePoly(dict(zip(MONOMIALS, got))) == expected.scale(w**3)


@ORACLES
@given(CUBICS, PARAM, PARAM, PARAM)
def test_sections_and_values(cubic, x, y, slope):
    f = fpoly(cubic)
    assert cubic.evaluate(x, y) == f.evaluate(x, y)
    assert UnivariatePoly(x_section(cubic.coeffs, x.numerator, x.denominator)) == f.section_at_x(x).primitive()
    (n0, n1), w = (x.numerator * slope.denominator, slope.numerator * x.denominator), x.denominator * slope.denominator
    # Along the line x = t, y = x + slope*t (x drawn above as the offset).
    line = on_line(cubic.coeffs, (0, w), (n0, n1), w)
    assert UnivariatePoly(line) == f.restrict_to_line(slope, x).primitive()
    (xn, yn), d = (x.numerator * y.denominator, y.numerator * x.denominator), x.denominator * y.denominator
    assert F(cubic_value(cubic.coeffs, xn, yn, d), d**3) == f.evaluate(x, y)


# ---------------------------------------------------------------------------
# The curve algebra


@ORACLES
@given(st.one_of(general_pairs(), point_on_line_pairs(), any_pairs()))
def test_match_curve(pair):
    assert match_curve(*pair).curve.coeffs == oracle_match_coeffs(*pair)


@ORACLES
@given(CUBICS)
def test_leading_form_factors(cubic):
    assert leading_form_factors(cubic) == oracle_leading_form_factors(cubic)


@ORACLES
@given(CUBICS)
def test_asymptotes(cubic):
    assert outcome(asymptotes, cubic) == outcome(oracle_asymptotes, cubic)


@st.composite
def line_times_conic(draw):
    line = BivariatePoly.linear(*(draw(SMALL) for _ in range(3)))
    assume(line.coeff(1, 0) or line.coeff(0, 1))
    conic = BivariatePoly({(i, j): draw(SMALL) for i in range(3) for j in range(3 - i)})
    product = line * conic
    assume(product.total_degree() == 3)
    return BivariateCubic.from_poly(product)


@ORACLES
@given(st.one_of(CUBICS, line_times_conic()))
def test_has_linear_factor(cubic):
    assert outcome(has_linear_factor, cubic) == outcome(oracle_has_linear_factor, cubic)


@ORACLES
@given(st.one_of(general_pairs(), point_on_line_pairs()))
def test_reconstruct_generated(pair):
    curve = match_curve(*pair).curve
    assert reconstruct_generators(curve) == oracle_reconstruct(curve) == tuple(sorted(pair))


@ORACLES
@given(st.one_of(arbitrary_cubics(), any_pairs().map(lambda qs: match_curve(*qs).curve)))
def test_reconstruct_any(cubic):
    assert outcome(reconstruct_generators, cubic) == outcome(oracle_reconstruct, cubic)


@st.composite
def one_huge_generated(draw):
    """A generated curve with small parameters, but in some draws one
    parameter above 2^64: root isolation on the resultant then takes about a
    second, so those draws are kept few."""
    params = [draw(SMALL) for _ in range(6)]
    if (k := draw(st.integers(0, 39))) < 6:
        params[k] = draw(HUGE)
    q1, q2 = IncidencePairParam.from_triple(*params[:3]), IncidencePairParam.from_triple(*params[3:])
    assume(is_general(q1, q2) or q2.line.contains(q1.point) != q1.line.contains(q2.point))
    return match_curve(q1, q2).curve


@ORACLES
@given(
    st.one_of(generated(SMALL), arbitrary_cubics(st.integers(-6, 6))),
    st.one_of(one_huge_generated(), arbitrary_cubics(st.integers(-6, 6))),
)
def test_curve_intersection_bound(f, g):
    assume(f != g)
    try:
        inter = curve_intersection_bound(f, g)
    except InfiniteSharedComponent:
        with pytest.raises(InfiniteSharedComponent):
            oracle_intersection(f, g)
        return
    assert (inter.upper_bound, inter.rational_points) == oracle_intersection(f, g)


@ORACLES
@given(GENERATED, st.integers(0, 2), st.one_of(st.integers(-(10**6), 10**6), SMALL, HUGE))
def test_probe_section(cubic, index, tau):
    lines = asymptotes(cubic)
    line = lines[index % len(lines)]
    expected = oracle_probe_section(cubic, line, F(tau)).primitive()
    assert UnivariatePoly(curves._probe_section(cubic, line, tau)) == expected


# ---------------------------------------------------------------------------
# has_linear_factor against sympy's factorization

try:
    import sympy
except ImportError:
    sympy = None
needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")


def sympy_linear_factors(cubic: BivariateCubic) -> set[Line]:
    x, y = sympy.symbols("x y")
    expr = sum(c * x**i * y**j for (i, j), c in zip(MONOMIALS, cubic.coeffs))
    _, factors = sympy.factor_list(expr)
    lines = set()
    for factor, _ in factors:
        p = sympy.Poly(factor, x, y)
        if p.total_degree() == 1:
            lines.add(Line(int(p.coeff_monomial(x)), int(p.coeff_monomial(y)), int(p.coeff_monomial(1))))
    return lines


@needs_sympy
@ORACLES
@given(st.one_of(GENERATED, line_times_conic(), arbitrary_cubics()))
def test_has_linear_factor_against_sympy(cubic):
    found, expected = has_linear_factor(cubic), sympy_linear_factors(cubic)
    assert found in expected if expected else found is None
