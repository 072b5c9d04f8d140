"""Polynomial kit tests: exact division, gcd, root counting, resultants.

The integer kit is also compared with two independent oracles on
derandomized property-generated inputs: sympy, and the kit's former Fraction
path (Gaussian-elimination Sylvester determinants plus Lagrange
interpolation), kept here as `oracle_resultant_y`. Inputs include
coefficients above 2^64, repeated roots, roots at 0, negative leading
coefficients and non-integer rational coefficients.
"""

import math
from fractions import Fraction as F
from typing import Sequence

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equiarea import curves, polynomial
from equiarea.curves import BivariateCubic, curve_intersection_bound
from equiarea.geometry import InvariantViolation, Point
from equiarea.polynomial import (
    count_real_roots,
    nearest_real_root,
    poly_gcd,
    rational_factors,
    rational_roots,
    real_and_rational_roots,
    sylvester_resultant_y,
)

from bivariate_oracle import BivariatePoly, UnivariatePoly


ORACLES = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)

BIG = 2**64 + 12345


def lagrange_interpolate(samples: Sequence[tuple[F, F]]) -> UnivariatePoly:
    """Exact interpolation through (x, value) samples with distinct x."""
    total = UnivariatePoly()
    for i, (xi, yi) in enumerate(samples):
        if yi == 0:
            continue
        basis = UnivariatePoly([1])
        denom = F(1)
        for j, (xj, _) in enumerate(samples):
            if i == j:
                continue
            basis = basis * UnivariatePoly([-xj, 1])
            denom *= xi - xj
        total = total + basis.scale(yi / denom)
    return total


def det_fraction(matrix: list[list[F]]) -> F:
    """Determinant by fraction Gaussian elimination with partial pivoting."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def y_coefficients(f: BivariatePoly) -> list[UnivariatePoly]:
    """Coefficient of y^j as a polynomial in x, for j = 0..y_degree."""
    cols = [[F(0)] * (f.total_degree() + 1) for _ in range(f.y_degree() + 1)]
    for (i, j), c in f.coeffs.items():
        cols[j][i] = c
    return [UnivariatePoly(col) for col in cols]


def old_degree_bound(f: BivariatePoly, g: BivariatePoly) -> int:
    """The former sample count: the sum of the y-coefficients' x-degrees,
    which can fall below the resultant's true degree."""
    return sum(max(p.degree, 0) for p in y_coefficients(f) + y_coefficients(g))


def oracle_resultant_y(f: BivariatePoly, g: BivariatePoly, bound: int) -> UnivariatePoly:
    """Res_y(f, g) from Fraction Sylvester determinants at x = 0..bound and
    Lagrange interpolation; exact when bound >= its true degree."""
    fc, gc = y_coefficients(f), y_coefficients(g)
    n, m = len(fc) - 1, len(gc) - 1
    samples = []
    for k in range(bound + 1):
        frow = [p.evaluate(k) for p in reversed(fc)]
        grow = [p.evaluate(k) for p in reversed(gc)]
        rows = [[F(0)] * s + frow + [F(0)] * (m - 1 - s) for s in range(m)]
        rows += [[F(0)] * s + grow + [F(0)] * (n - 1 - s) for s in range(n)]
        samples.append((F(k), det_fraction(rows)))
    return lagrange_interpolate(samples)


def from_roots(*roots):
    p = UnivariatePoly([1])
    for r in roots:
        p = p * UnivariatePoly([-F(r), 1])
    return p


class TestUnivariateBasics:
    def test_divmod_roundtrip(self):
        a = UnivariatePoly([1, -2, 0, 5, 3])
        b = UnivariatePoly([2, 1, 1])
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_gcd(self):
        a = from_roots(1, 2)
        b = from_roots(1, 3)
        assert UnivariatePoly(poly_gcd(a.ints(), b.ints())) == from_roots(1)

    def test_squarefree(self):
        p = from_roots(1, 1, -2)
        assert polynomial._squarefree(tuple(p.ints())) == tuple(from_roots(1, -2).ints())

    def test_primitive(self):
        p = UnivariatePoly([F(2, 3), F(4, 3)])
        assert p.primitive() == UnivariatePoly([1, 2])

    def test_oracle_coerces_ints(self):
        # Built from ints, the oracle must still divide exactly, not into floats.
        q, r = UnivariatePoly([1, 0, 1]).divmod(UnivariatePoly([1, 2]))
        assert all(type(c) is F for c in UnivariatePoly([1, 2]).coeffs + q.coeffs + r.coeffs)
        assert q * UnivariatePoly([1, 2]) + r == UnivariatePoly([1, 0, 1])


class TestRealRootCounting:
    def test_distinct_roots(self):
        assert count_real_roots(from_roots(1, 2, -3).ints()) == 3

    def test_no_real_roots(self):
        assert count_real_roots((1, 0, 1)) == 0

    def test_mixed(self):
        p = UnivariatePoly([1, 0, 1]) * from_roots(5)
        assert count_real_roots(p.ints()) == 1

    def test_multiplicity_collapses(self):
        assert count_real_roots(from_roots(2, 2, 2).ints()) == 1

    def test_degree_nine(self):
        p = from_roots(*range(-4, 5))
        assert count_real_roots(p.ints()) == 9


class TestRationalRoots:
    def test_simple(self):
        p = from_roots(F(1, 2), -3, 7)
        assert rational_roots(p.ints()) == [-3, F(1, 2), 7]

    def test_irrational_filtered(self):
        assert rational_roots((-2, 0, 1)) == []  # x^2 - 2

    def test_large_denominator(self):
        p = UnivariatePoly([-1, 100003]) * UnivariatePoly([-2, 0, 1])
        assert rational_roots(p.ints()) == [F(1, 100003)]

    def test_zero_root(self):
        assert rational_roots((0, 0, 1, 1)) == [-1, 0]  # x^2 (x + 1)

    def test_multiplicities(self):
        p = from_roots(1, 1, -2)
        assert rational_factors(p.ints())[0] == [(-2, 1), (1, 2)]

    def test_close_roots_separated(self):
        p = from_roots(F(1, 3), F(1, 3) + F(1, 1000))
        assert rational_roots(p.ints()) == [F(1, 3), F(1, 3) + F(1, 1000)]


HUGE = st.sampled_from([BIG, -BIG, 2**65 + 1, -(3**41)])
INTEGER_COEFF = st.one_of(st.integers(-9, 9), HUGE)
LINEAR_FACTOR = st.tuples(st.one_of(st.integers(-20, 20), HUGE), st.one_of(st.integers(1, 12), HUGE))


@st.composite
def with_rational_roots(draw):
    """A product of 1-3 rational linear factors q*x - n and a random integer
    cofactor, with coefficients above 2^64."""
    cofactor = draw(st.lists(INTEGER_COEFF, min_size=1, max_size=5))
    p = UnivariatePoly(cofactor if cofactor[-1] else cofactor + [1])
    for n, q in draw(st.lists(LINEAR_FACTOR, min_size=1, max_size=3)):
        p = p * UnivariatePoly([-n, q])
    return p


class TestNoRationalRootCertificate:
    def test_no_root_mod_three_clears(self):
        # x^2 - 2 takes the values 1, 2, 2 mod 3.
        assert polynomial._no_rational_root((-2, 0, 1))
        assert real_and_rational_roots((-2, 0, 1)) == (2, [])

    def test_root_mod_every_prime_takes_the_fallback(self):
        # 2, 3 or 6 is a square mod every prime, so the table clears nothing.
        p = UnivariatePoly([-2, 0, 1]) * UnivariatePoly([-3, 0, 1]) * UnivariatePoly([-6, 0, 1])
        assert not polynomial._no_rational_root(tuple(p.ints()))
        assert real_and_rational_roots(p.ints()) == (6, [])

    def test_leading_coefficient_divisible_by_every_prime(self):
        lead = 614889782588491410
        assert lead == math.prod(polynomial._CERTIFICATE_PRIMES)
        p = UnivariatePoly([-1, lead]) * UnivariatePoly([7, 0, 1])
        assert not polynomial._no_rational_root(tuple(p.ints()))
        assert real_and_rational_roots(p.ints()) == (1, [F(1, lead)])

    @ORACLES
    @given(with_rational_roots())
    def test_never_clears_a_polynomial_with_a_rational_root(self, p):
        assert not polynomial._no_rational_root(polynomial._primitive(p.ints()))


class TestNearestRealRoot:
    def test_narrows_to_width(self):
        assert nearest_real_root((-2, 0, 1), F(1, 10)) == F(45, 32)

    @pytest.mark.parametrize("width", [F(0), F(-1)])
    def test_rejects_width_that_is_not_positive(self, width):
        # Such a width used to bisect forever.
        with pytest.raises(ValueError, match=f"root width must be positive, got {width}$"):
            nearest_real_root((-2, 0, 1), width)


class TestBivariate:
    def test_product_and_substitute(self):
        x_plus_y = BivariatePoly.linear(1, 1, 0)
        sq = x_plus_y * x_plus_y
        assert sq.coeff(2, 0) == 1 and sq.coeff(1, 1) == 2 and sq.coeff(0, 2) == 1
        swapped = sq.substitute(BivariatePoly.linear(0, 1, 0), BivariatePoly.linear(1, 0, 0))
        assert swapped == sq

    def test_divide_by_linear(self):
        u = BivariatePoly.linear(1, 1, 1)
        v = BivariatePoly.linear(1, -1, 0)
        f = u * v + BivariatePoly.constant(5)
        q, r = f.divide_by_linear(1, 1, 1)
        assert q == v
        assert r == BivariatePoly.constant(5)

    def test_divide_by_vertical_form(self):
        u = BivariatePoly.linear(0, 2, -1)
        f = u * BivariatePoly.linear(3, 1, 0)
        q, r = f.divide_by_linear(0, 2, -1)
        assert q == BivariatePoly.linear(3, 1, 0)
        assert r.is_zero()

    def test_shear_fixes_y_leading_term(self):
        f = BivariatePoly({(3, 0): 1, (1, 2): 1})  # x^3 + x y^2: no y^3 term
        sheared = f.shear_x(1)
        assert sheared.coeff(0, 3) != 0
        assert sheared.total_degree() == 3

    def test_section(self):
        f = BivariatePoly({(2, 1): 3, (0, 2): 1, (1, 0): -1})
        section = f.section_at_x(2)
        assert section == UnivariatePoly([-2, 12, 1])


class TestResultant:
    def test_line_against_circle(self):
        circle = BivariatePoly({(2, 0): 1, (0, 2): 1, (0, 0): -1})
        diagonal = BivariatePoly.linear(1, -1, 0)
        res = sylvester_resultant_y(circle.slots(), diagonal.slots())
        # The elimination of y from y = x must leave 2x^2 - 1 up to sign.
        assert UnivariatePoly.of(res).primitive() in (
            UnivariatePoly([-1, 0, 2]),
            UnivariatePoly([1, 0, -2]),
        )
        assert count_real_roots(res.coeffs) == 2

    def test_common_root_detected(self):
        f = BivariatePoly.linear(1, 1, -3) * BivariatePoly.linear(2, -1, 0)
        g = BivariatePoly.linear(1, 1, -3) * BivariatePoly.linear(1, 1, 5)
        res = sylvester_resultant_y(f.slots(), g.slots())
        assert res.coeffs == ()  # the shared line kills the resultant

    def test_moved_sample_is_caught(self, monkeypatch):
        # The circle against the diagonal has Bezout bound 2, so samples x = 0..3;
        # moving the last one by 1 moves the third difference from 0 to +-1.
        circle = BivariatePoly({(2, 0): 1, (0, 2): 1, (0, 0): -1})
        f, g = circle.slots(), BivariatePoly.linear(1, -1, 0).slots()
        exact, samples = polynomial._bareiss, []

        def moved(rows):
            samples.append(exact(rows))
            return samples[-1] + (len(samples) == 4)

        monkeypatch.setattr(polynomial, "_bareiss", moved)
        with pytest.raises(InvariantViolation, match="not of degree <= 2"):
            sylvester_resultant_y(f, g)
        assert len(samples) == 4

    def test_rejects_missing_y(self):
        f = BivariatePoly({(2, 0): 1})
        g = BivariatePoly.linear(0, 1, 0)
        with pytest.raises(ValueError):
            sylvester_resultant_y(f.slots(), g.slots())


class TestInterpolation:
    def test_recovers_cubic(self):
        target = UnivariatePoly([F(1, 2), -3, 0, 4])
        samples = [(F(k), target.evaluate(k)) for k in range(5)]
        assert lagrange_interpolate(samples) == target


# Trials 15 and 27 of bezout_scan(60, seed=2), in MONOMIALS order. With the
# former degree bound their resultants were interpolated at degree 8, not 9,
# and the scan reported bounds 2 and 4.
PINNED_TRIALS = {
    15: ((2, 3, 0, -1, 18, 12, -6, 42, -6, -4), (0, 0, 3, -1, 0, -24, 9, 48, -30, 36)),
    27: ((108, 0, -36, 8, -324, 180, -24, 315, -102, -188), (0, 0, 2, 1, 0, 8, 6, 8, 8, -4)),
}


def sheared(f: BivariateCubic, g: BivariateCubic) -> tuple[int, BivariatePoly, BivariatePoly]:
    """The shear x -> x + t*y that `curve_intersection_bound` applies."""
    fp, gp = BivariatePoly.from_slots(f.coeffs), BivariatePoly.from_slots(g.coeffs)
    t = 0
    while fp.homogeneous_part(3).evaluate(t, 1) == 0 or gp.homogeneous_part(3).evaluate(t, 1) == 0:
        t += 1
    return t, fp.shear_x(t), gp.shear_x(t)


class TestResultantDegreeBound:
    def test_bezout_bound_example(self):
        f = BivariatePoly({(0, 2): 1, (3, 0): 1})  # y^2 + x^3
        g = BivariatePoly({(0, 2): 1, (1, 0): 1})  # y^2 + x
        expected = from_roots(0, 0, 1, 1, -1, -1)  # (x^3 - x)^2
        assert UnivariatePoly.of(sylvester_resultant_y(f.slots(), g.slots())) == expected
        assert oracle_resultant_y(f, g, old_degree_bound(f, g)) == UnivariatePoly([0, -240, 477, -300, 63])

    @pytest.mark.parametrize("index", sorted(PINNED_TRIALS))
    def test_pinned_scan_trials(self, index):
        rng = curves._trial_rng(2, index)
        f, g = curves._random_curve(rng), curves._random_curve(rng)
        assert (f.coeffs, g.coeffs) == PINNED_TRIALS[index]
        assert curves._bezout_trial(2, index) == (3, False)
        assert curve_intersection_bound(f, g).upper_bound == 3
        _, fs, gs = sheared(f, g)
        assert sylvester_resultant_y(fs.slots(), gs.slots()).degree == 9
        assert old_degree_bound(fs, gs) == 8


# ---------------------------------------------------------------------------
# Differential tests against sympy and the Fraction oracle. Only these need
# sympy; everything above runs without it.

try:
    import sympy
except ImportError:
    sympy = None
needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")
X, Y = sympy.symbols("x y") if sympy else (None, None)

SMALL = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 1, 2, 3, 7]))
COEFF = st.one_of(SMALL, SMALL, st.sampled_from([F(BIG), F(-BIG), F(BIG, 3), F(-7, BIG)]))
SCALE = st.sampled_from([F(1), F(-1), F(BIG), F(-BIG), F(1, BIG), F(-5, 3)])


@st.composite
def univariates(draw):
    """A scaled product of random cofactor, repeated rational roots and x^k."""
    p = UnivariatePoly(draw(st.lists(COEFF, min_size=1, max_size=5)))
    if p.is_zero():
        p = UnivariatePoly([1])
    for root in draw(st.lists(SMALL, max_size=3)):
        for _ in range(draw(st.integers(1, 3))):
            p = p * UnivariatePoly([-root, 1])
    p = p * UnivariatePoly([0] * draw(st.integers(0, 2)) + [1])
    return p.scale(draw(SCALE))


@st.composite
def y_polys(draw):
    """A polynomial of total degree <= 3 in x, y whose y-leading coefficient
    is a nonzero constant."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, d))
    coeffs = {(i, j): draw(COEFF) for j in range(n) for i in range(d - j + 1) if draw(st.booleans())}
    coeffs[(0, n)] = draw(st.sampled_from([F(1), F(-1), F(-3, 2), F(BIG)]))
    return BivariatePoly(coeffs)


def to_sympy(p: UnivariatePoly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], X)


def bivariate_to_sympy(p: BivariatePoly):
    return sum(sympy.Rational(c.numerator, c.denominator) * X**i * Y**j for (i, j), c in p.coeffs.items())


def sympy_resultant(f: BivariatePoly, g: BivariatePoly) -> UnivariatePoly:
    # sympy's `resultant` returns Res(g, f) when deg_y f < deg_y g; swapping
    # with the sign (-1)^(nm) gives the Sylvester determinant in both cases.
    n, m = f.y_degree(), g.y_degree()
    fs, gs = bivariate_to_sympy(f), bivariate_to_sympy(g)
    res = sympy.resultant(fs, gs, Y) if n >= m else (-1) ** (n * m) * sympy.resultant(gs, fs, Y)
    return from_sympy(sympy.Poly(res, X))


def from_sympy(p) -> UnivariatePoly:
    return UnivariatePoly(F(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def sympy_rational_roots(p: UnivariatePoly) -> list[tuple[F, int]]:
    _, factors = sympy.factor_list(to_sympy(p))
    roots = [(F(-int(q.nth(0)), int(q.nth(1))), mult) for q, mult in factors if q.degree() == 1]
    return sorted(roots)


@needs_sympy
class TestAgainstSympy:
    @ORACLES
    @given(univariates())
    def test_count_real_roots(self, p):
        expected = to_sympy(p).sqf_part().count_roots()
        for zeros in range(3):
            assert count_real_roots(p.ints() + [0] * zeros) == expected

    @ORACLES
    @given(univariates())
    def test_rational_roots_with_multiplicity(self, p):
        expected = sympy_rational_roots(p)
        for zeros in range(3):
            assert rational_factors(p.ints() + [0] * zeros)[0] == expected
            assert rational_roots(p.ints() + [0] * zeros) == [r for r, _ in expected]

    @ORACLES
    @given(st.one_of(with_rational_roots(), st.builds(UnivariatePoly, st.lists(INTEGER_COEFF, max_size=8))))
    def test_real_and_rational_roots(self, p):
        # The products take the isolation; most random polynomials, the certificate.
        expected = to_sympy(p).sqf_part().count_roots(), [r for r, _ in sympy_rational_roots(p)]
        assert real_and_rational_roots(p.ints()) == expected

    @ORACLES
    @given(univariates())
    def test_nearest_real_root(self, p):
        width, eps = F(1, 10**12), F(1, 10**20)
        roots = [(a + b) / 2 for (a, b), _ in to_sympy(p).sqf_part().intervals(eps=sympy.Rational(1, 10**20))]
        for zeros in range(3):
            found = nearest_real_root(p.ints() + [0] * zeros, width)
            if not roots:
                assert found is None
                continue
            nearest = min(abs(F(int(r.p), int(r.q))) for r in roots)
            assert abs(abs(found) - nearest) <= width / 2 + eps

    @ORACLES
    @given(y_polys(), y_polys())
    def test_sylvester_resultant(self, f, g):
        # The kit takes integer slots; both oracles run on the same cleared
        # polynomials.
        fi, gi = f.slots(), g.slots()
        f, g = BivariatePoly.from_slots(fi), BivariatePoly.from_slots(gi)
        res = UnivariatePoly.of(sylvester_resultant_y(fi, gi))
        assert res == sympy_resultant(f, g)
        assert res.degree <= f.total_degree() * g.total_degree()
        if old_degree_bound(f, g) >= res.degree:
            assert res == oracle_resultant_y(f, g, old_degree_bound(f, g))


def oracle_intersection(f: BivariateCubic, g: BivariateCubic) -> tuple[int, tuple[Point, ...]]:
    """`curve_intersection_bound` on the Fraction oracle resultant, with
    sympy's real-root count, rational roots and gcd."""
    t, fs, gs = sheared(f, g)
    res = oracle_resultant_y(fs, gs, 9)
    upper = to_sympy(res).sqf_part().count_roots()
    points = set()
    for x0, _ in sympy_rational_roots(res):
        common = sympy.gcd(to_sympy(fs.section_at_x(x0)), to_sympy(gs.section_at_x(x0)))
        for y0, _ in sympy_rational_roots(from_sympy(common)) if common.degree() > 0 else ():
            points.add(Point(x0 + t * y0, y0))
    return upper, tuple(sorted(p for p in points if f.evaluate(p.x, p.y) == 0 == g.evaluate(p.x, p.y)))


@needs_sympy
@pytest.mark.parametrize("seed", [2, 3])
def test_intersection_bound_matches_oracle_on_scan_pairs(seed):
    for index in range(60):
        rng = curves._trial_rng(seed, index)
        f, g = curves._random_curve(rng), curves._random_curve(rng)
        if f == g:
            continue
        inter = curve_intersection_bound(f, g)
        assert (inter.upper_bound, inter.rational_points) == oracle_intersection(f, g)
