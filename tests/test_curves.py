"""Match-curve derivation, asymptotes, reconstruction, intersection bounds."""

import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import equiarea
from equiarea.curves import (
    AmbiguousMedian,
    BivariateCubic,
    CurveError,
    CurveTag,
    DegenerateTriple,
    InfiniteSharedComponent,
    LinearForm,
    NonSimpleFactorUnsupported,
    NotAMatchCurve,
    SamePair,
    asymptote_convergence_probe,
    asymptotes,
    curve_intersection_bound,
    has_linear_factor,
    leading_form_factors,
    match_curve,
    random_general_position_pair,
    random_point_on_line_pair,
    reconstruct_generators,
    triple_common_points,
)
from equiarea.geometry import Line, Point
from equiarea.matching import IncidencePairParam, matches_ccw

from bivariate_oracle import BivariatePoly, make_bundle

P1 = IncidencePairParam.from_triple(0, 0, 0)          # line y = 0
P2 = IncidencePairParam.from_triple(1, 2, 1)          # line y = x + 1
P2_ON_L1 = IncidencePairParam.from_triple(1, 0, 1)    # point on y = 0, line y = x - 1

# Hand expansion of y(y-x-1)(2x-y) + 2(-2x+3y-2) - 4, then canonical sign flip.
WORKED_COEFFS = (0, 2, -3, 1, 0, 2, -1, 4, -6, 8)
# Hand expansion of -y^2(y-x+1) - 2y - 4 (already canonical: first nonzero is x y^2).
SPECIAL_COEFFS = (0, 0, 1, -1, 0, 0, -1, 0, -2, -4)


def cubic_of(coeffs_dict):
    return BivariateCubic.from_poly(BivariatePoly(coeffs_dict))


def partner_matching(rng, x, y, w):
    """A generator that the parameter triple (x, y, w) matches; see the
    matching equation solved for the slope."""
    while True:
        a = F(rng.randint(-4, 4))
        b = F(rng.randint(-4, 4))
        g = y - b - w * (x - a)
        den = 2 - (x - a) * g
        if den == 0:
            continue
        kappa = (2 * w - (y - b) * g) / den
        if kappa == w:
            continue
        gen = IncidencePairParam.from_triple(a, b, kappa)
        if matches_ccw(gen, IncidencePairParam.from_triple(x, y, w)):
            return gen


class TestBundle:
    def test_changed_l6_is_rejected(self):
        bundle = make_bundle(P1, P2)
        shifted = LinearForm(bundle.L6.cx, bundle.L6.cy, bundle.L6.c0 + 1)
        with pytest.raises(CurveError):
            dataclasses.replace(bundle, L6=shifted)
        # Moving F along with L6 still breaks L6 = L1*L4 - L2*L5.
        with pytest.raises(CurveError):
            dataclasses.replace(bundle, L6=shifted, F=bundle.F + 1)

    def test_worked_example_forms(self):
        bundle = match_curve(P1, P2).bundle
        assert bundle.L1 == LinearForm(0, 1, 0)
        assert bundle.L2 == LinearForm(-1, 1, -1)
        assert bundle.L3 == LinearForm(2, -1, 0)
        assert bundle.L4 == LinearForm(-1, 1, 0)
        assert bundle.L5 == LinearForm(0, 1, -2)
        assert bundle.L6 == LinearForm(-2, 3, -2)
        assert (bundle.C, bundle.D, bundle.E, bundle.F) == (-1, -2, 3, -2)

    def test_form_geometry(self):
        rng = random.Random(12)
        for _ in range(100):
            q1, q2 = random_general_position_pair(rng)
            b = match_curve(q1, q2).bundle
            # L6 = L1*L4 - L2*L5 is asserted by the bundle itself; check the
            # geometric reading of each form.
            assert b.L3.evaluate(q1.a, q1.b) == 0
            assert b.L3.evaluate(q2.a, q2.b) == 0
            assert b.L4.evaluate(q1.a, q1.b) == 0
            assert Line(b.L4.cx, b.L4.cy, b.L4.c0).slope() == q2.kappa
            assert b.L5.evaluate(q2.a, q2.b) == 0
            assert Line(b.L5.cx, b.L5.cy, b.L5.c0).slope() == q1.kappa
            assert b.C == q1.kappa - q2.kappa
            assert b.L6 == LinearForm(b.D, b.E, b.F)

    def test_median_direction(self):
        # L6 = 0 joins the lines' intersection to the midpoint of the points.
        rng = random.Random(13)
        for _ in range(50):
            q1, q2 = random_general_position_pair(rng)
            b = match_curve(q1, q2).bundle
            from equiarea.geometry import intersect

            o = intersect(q1.line, q2.line)
            mid = Point((q1.a + q2.a) / 2, (q1.b + q2.b) / 2)
            assert b.L6.evaluate(o.x, o.y) == 0
            assert b.L6.evaluate(mid.x, mid.y) == 0


class TestMatchCurveCases:
    def test_worked_example_curve(self):
        case = match_curve(P1, P2)
        assert case.tag is CurveTag.GENERAL
        assert case.curve.coeffs == WORKED_COEFFS

    def test_same_pair_rejected(self):
        with pytest.raises(SamePair):
            match_curve(P1, P1)

    def test_shared_point_is_empty(self):
        q1 = IncidencePairParam.from_triple(0, 0, 0)
        q2 = IncidencePairParam.from_triple(0, 0, 1)
        case = match_curve(q1, q2)
        assert case.tag is CurveTag.EMPTY
        assert case.curve is None and case.bundle is None

    def test_shared_line_is_undefined(self):
        q1 = IncidencePairParam.from_triple(0, 0, 1)
        q2 = IncidencePairParam.from_triple(1, 1, 1)
        case = match_curve(q1, q2)
        assert case.tag is CurveTag.UNDEFINED

    def test_point_on_line_example(self):
        case = match_curve(P1, P2_ON_L1)
        assert case.tag is CurveTag.POINT_ON_LINE_1
        assert case.curve.coeffs == SPECIAL_COEFFS
        assert case.bundle.C == -1
        assert case.bundle.s == -1  # s = C*(a2-a1)

    def test_point_on_line_symmetric_tag(self):
        case = match_curve(P2_ON_L1, P1)
        assert case.tag is CurveTag.POINT_ON_LINE_2
        assert case.curve.coeffs == SPECIAL_COEFFS  # same locus either way

    def test_curve_order_symmetry(self):
        rng = random.Random(3)
        for _ in range(40):
            q1, q2 = random_general_position_pair(rng)
            assert match_curve(q1, q2).curve == match_curve(q2, q1).curve

    def test_point_surface_duality(self):
        # A parameter triple matching both generators projects onto the curve,
        # and the slope recovered from either generator's equation agrees.
        rng = random.Random(21)
        for _ in range(40):
            x, y, w = F(rng.randint(-3, 3)), F(rng.randint(-3, 3)), F(rng.randint(-3, 3), 2)
            g1 = partner_matching(rng, x, y, w)
            g2 = partner_matching(rng, x, y, w)
            if g1 == g2 or g1.point == g2.point or g1.line == g2.line:
                continue
            case = match_curve(g1, g2)
            assert case.curve is not None
            assert case.curve.evaluate(x, y) == 0
            for gen in (g1, g2):
                l1v = y - gen.b - gen.kappa * (x - gen.a)
                den = l1v * (x - gen.a) + 2
                assert den != 0
                assert (l1v * (y - gen.b) + 2 * gen.kappa) / den == w
            assert matches_ccw(g1, IncidencePairParam.from_triple(x, y, w))
            assert matches_ccw(g2, IncidencePairParam.from_triple(x, y, w))


class TestCanonicalCubic:
    def test_normalization(self):
        a = cubic_of({(2, 1): F(2, 3), (0, 0): F(-4, 3)})
        b = cubic_of({(2, 1): -1, (0, 0): 2})
        assert a == b
        assert a.coeffs[1] > 0  # sign rule pins the first nonzero positive

    def test_json_round_trip(self):
        curve = match_curve(P1, P2).curve
        assert BivariateCubic.from_coefficient_list(curve.coefficient_list()) == curve

    def test_rejects_zero_and_quartic(self):
        with pytest.raises(ValueError):
            BivariateCubic.from_poly(BivariatePoly())
        with pytest.raises(ValueError):
            BivariateCubic.from_poly(BivariatePoly({(4, 0): 1}))


class TestLeadingFormFactors:
    def test_worked_example(self):
        lf = leading_form_factors(match_curve(P1, P2).curve)
        assert lf.factors == ((Line(0, 1, 0), 1), (Line(1, -1, 0), 1), (Line(2, -1, 0), 1))
        assert lf.remainder is None

    def test_special_case_has_double_factor(self):
        lf = leading_form_factors(match_curve(P1, P2_ON_L1).curve)
        assert lf.factors == ((Line(0, 1, 0), 2), (Line(1, -1, 0), 1))

    def test_irreducible_quadratic_remainder(self):
        lf = leading_form_factors(cubic_of({(3, 0): 1, (1, 2): 1}))  # x^3 + x y^2
        assert lf.factors == ((Line(1, 0, 0), 1),)
        assert lf.remainder == BivariatePoly({(2, 0): 1, (0, 2): 1})

    def test_factorization_reconstructs_leading_form(self):
        rng = random.Random(31)
        for _ in range(60):
            q1, q2 = random_general_position_pair(rng)
            curve = match_curve(q1, q2).curve
            lf = leading_form_factors(curve)
            product = BivariatePoly.constant(1)
            for line, mult in lf.factors:
                for _ in range(mult):
                    product = product * BivariatePoly.linear(line.A, line.B, 0)
            if lf.remainder is not None:
                product = product * lf.remainder
            assert product.scale(lf.scale) == BivariatePoly.of(curve.poly()).homogeneous_part(3)


class TestAsymptotes:
    def test_worked_example_exact(self):
        lines = asymptotes(match_curve(P1, P2).curve)
        assert lines == sorted([Line(0, 1, 0), Line(1, -1, 1), Line(2, -1, 0)])

    def test_general_curves_hit_generators_exactly(self):
        rng = random.Random(17)
        for _ in range(80):
            q1, q2 = random_general_position_pair(rng)
            expected = sorted(
                {q1.line, q2.line, Line(q2.b - q1.b, -(q2.a - q1.a), q2.a * q1.b - q1.a * q2.b)}
            )
            assert asymptotes(match_curve(q1, q2).curve) == expected

    def test_special_case(self):
        lines = asymptotes(match_curve(P1, P2_ON_L1).curve)
        assert lines == sorted([Line(0, 1, 0), Line(1, -1, -1)])

    def test_point_on_line_curves_hit_generators(self):
        rng = random.Random(18)
        for _ in range(60):
            q1, q2 = random_point_on_line_pair(rng)
            assert asymptotes(match_curve(q1, q2).curve) == sorted({q1.line, q2.line})

    def test_product_shape_asymptotes(self):
        # x*y*(x+y+1) + (2x+3y+5) = 0 is asymptotic to both axes.
        f = (
            BivariatePoly.linear(1, 0, 0)
            * BivariatePoly.linear(0, 1, 0)
            * BivariatePoly.linear(1, 1, 1)
            + BivariatePoly.linear(2, 3, 5)
        )
        lines = asymptotes(BivariateCubic.from_poly(f))
        assert Line(1, 0, 0) in lines and Line(0, 1, 0) in lines
        assert lines == sorted([Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 1)])

    def test_triple_factor_refused(self):
        with pytest.raises(NonSimpleFactorUnsupported):
            asymptotes(cubic_of({(0, 3): 1, (0, 0): -1}))  # y^3 - 1

    def test_parallel_generator_lines_refused(self):
        # Distinct parallel lines make the leading form a square times the
        # joining direction, which is not the supported squared-line shape.
        q1 = IncidencePairParam.from_triple(0, 0, 1)
        q2 = IncidencePairParam.from_triple(2, 0, 1)
        case = match_curve(q1, IncidencePairParam.from_triple(q2.a, F(5), F(1)))
        assert case.tag is CurveTag.GENERAL
        with pytest.raises(NonSimpleFactorUnsupported):
            asymptotes(case.curve)


class TestReconstruction:
    def test_worked_example(self):
        assert reconstruct_generators(match_curve(P1, P2).curve) == (P1, P2)

    def test_special_case_trace(self):
        # The curve meets y = x - 1 only at (-1, -2), which pins a1 - a2 = -1.
        curve = match_curve(P1, P2_ON_L1).curve
        assert curve.evaluate(-1, -2) == 0
        assert reconstruct_generators(curve) == (P1, P2_ON_L1)

    def test_round_trip_general(self):
        rng = random.Random(77)
        for _ in range(60):
            q1, q2 = random_general_position_pair(rng)
            assert reconstruct_generators(match_curve(q1, q2).curve) == tuple(sorted((q1, q2)))

    def test_round_trip_point_on_line(self):
        rng = random.Random(78)
        for _ in range(30):
            q1, q2 = random_point_on_line_pair(rng)
            assert reconstruct_generators(match_curve(q1, q2).curve) == tuple(sorted((q1, q2)))

    def test_regenerated_curve_matches(self):
        rng = random.Random(79)
        for _ in range(30):
            q1, q2 = random_general_position_pair(rng)
            curve = match_curve(q1, q2).curve
            out = reconstruct_generators(curve)
            assert match_curve(*out).curve == curve

    def test_not_a_match_curve(self):
        # Three lines plus a wrong-direction linear part: no median can agree.
        f = (
            BivariatePoly.linear(1, 0, 0)
            * BivariatePoly.linear(0, 1, 0)
            * BivariatePoly.linear(1, 1, 1)
            + BivariatePoly.linear(2, 3, 5)
        )
        with pytest.raises((NotAMatchCurve, AmbiguousMedian)):
            reconstruct_generators(BivariateCubic.from_poly(f))

    def test_pure_product_rejected(self):
        f = (
            BivariatePoly.linear(1, 0, 0)
            * BivariatePoly.linear(0, 1, 0)
            * BivariatePoly.linear(1, 1, 1)
        )
        with pytest.raises(NotAMatchCurve):
            reconstruct_generators(BivariateCubic.from_poly(f))


class TestLinearFactors:
    def test_constructed_product(self):
        f = cubic_of({(1, 2): 1, (0, 1): 1})  # x y^2 + y = y (xy + 1)
        assert has_linear_factor(f) == Line(0, 1, 0)

    def test_worked_example_irreducible(self):
        assert has_linear_factor(match_curve(P1, P2).curve) is None

    def test_triple_line(self):
        f = (
            BivariatePoly.linear(0, 1, -1)
            * BivariatePoly.linear(0, 1, -1)
            * BivariatePoly.linear(0, 1, -1)
        )
        assert has_linear_factor(BivariateCubic.from_poly(f)) == Line(0, 1, -1)

    def test_zero_slope_gap_product(self):
        # With matching slopes the squared-line equation loses its constant
        # and factors as the line times a hyperbola.
        l1 = BivariatePoly.linear(0, 1, -1)  # y - 1
        l2 = BivariatePoly.linear(1, 0, 0)   # x
        f = l1 * (l1 * l2 + BivariatePoly.constant(1))
        assert has_linear_factor(BivariateCubic.from_poly(f)) == Line(0, 1, -1)

    def test_generated_curves_have_none(self):
        rng = random.Random(55)
        for _ in range(40):
            q1, q2 = random_general_position_pair(rng)
            assert has_linear_factor(match_curve(q1, q2).curve) is None
        for _ in range(20):
            q1, q2 = random_point_on_line_pair(rng)
            assert has_linear_factor(match_curve(q1, q2).curve) is None


class TestIntersectionBound:
    def test_identical_curve(self):
        curve = match_curve(P1, P2).curve
        with pytest.raises(InfiniteSharedComponent):
            curve_intersection_bound(curve, curve)

    def test_shared_component(self):
        l1 = BivariatePoly.linear(0, 1, -1)
        f = BivariateCubic.from_poly(l1 * (l1 * BivariatePoly.linear(1, 0, 0) + BivariatePoly.constant(1)))
        g = BivariateCubic.from_poly(l1 * (l1 * BivariatePoly.linear(1, 0, 5) + BivariatePoly.constant(1)))
        with pytest.raises(InfiniteSharedComponent):
            curve_intersection_bound(f, g)

    def test_bound_and_common_point(self):
        rng = random.Random(91)
        x, y, w = F(1), F(2), F(1, 2)
        g1 = partner_matching(rng, x, y, w)
        g2 = partner_matching(rng, x, y, w)
        g3 = partner_matching(rng, x, y, w)
        assert len({g1, g2, g3}) == 3
        f = match_curve(g1, g2).curve
        g = match_curve(g1, g3).curve
        inter = curve_intersection_bound(f, g)
        assert inter.upper_bound <= 9
        assert Point(x, y) in inter.rational_points

    def test_random_pairs_stay_under_nine(self):
        rng = random.Random(92)
        for _ in range(25):
            qa = random_general_position_pair(rng)
            qb = random_general_position_pair(rng)
            f, g = match_curve(*qa).curve, match_curve(*qb).curve
            if f == g:
                continue
            assert curve_intersection_bound(f, g).upper_bound <= 9


class TestTripleCommonPoints:
    def test_empty_projection_gives_zero(self):
        shared_point = IncidencePairParam.from_triple(0, 0, 0)
        also_there = IncidencePairParam.from_triple(0, 0, 1)
        third = IncidencePairParam.from_triple(5, 1, 2)
        result = triple_common_points(shared_point, also_there, third)
        assert result.upper_bound == 0
        assert result.rational_witnesses == ()

    def test_shared_line_is_degenerate(self):
        q1 = IncidencePairParam.from_triple(0, 0, 0)
        q2 = IncidencePairParam.from_triple(1, 0, 0)
        q3 = IncidencePairParam.from_triple(5, 1, 2)
        with pytest.raises(DegenerateTriple):
            triple_common_points(q1, q2, q3)

    def test_constructed_witness_appears(self):
        rng = random.Random(93)
        x, y, w = F(-1), F(1), F(3)
        gens = []
        while len(gens) < 3:
            g = partner_matching(rng, x, y, w)
            if all(g != h and g.point != h.point and g.line != h.line for h in gens):
                gens.append(g)
        result = triple_common_points(*gens)
        assert result.upper_bound <= 9
        assert (x, y, w) in result.rational_witnesses

    def test_duplicate_generators_rejected(self):
        with pytest.raises(ValueError):
            triple_common_points(P1, P1, P2)


class TestConvergenceProbe:
    def test_worked_example_rate(self):
        curve = match_curve(P1, P2).curve
        dist = asymptote_convergence_probe(curve, Line(0, 1, 0), [10**3, 10**4, 10**5, 10**6])
        assert all(a > b for a, b in zip(dist, dist[1:]))
        assert dist[-1] < 1e-4

    def test_product_shape_both_sides(self):
        f = BivariateCubic.from_poly(
            BivariatePoly.linear(1, 0, 0)
            * BivariatePoly.linear(0, 1, 0)
            * BivariatePoly.linear(1, 1, 1)
            + BivariatePoly.linear(2, 3, 5)
        )
        for tau in ([10**3, 10**4, 10**5, 10**6], [-(10**3), -(10**4), -(10**5), -(10**6)]):
            dist = asymptote_convergence_probe(f, Line(0, 1, 0), tau)
            assert all(a > b for a, b in zip(dist, dist[1:]))

    def test_non_asymptote_rejected(self):
        curve = match_curve(P1, P2).curve
        with pytest.raises(ValueError):
            asymptote_convergence_probe(curve, Line(1, 1, 7), [1000])


def test_probe_runs_without_mpmath():
    env = {**os.environ, "PYTHONPATH": str(Path(equiarea.__file__).parents[1])}
    code = (
        "import sys; sys.modules['mpmath'] = None\n"
        "from equiarea.curves import asymptote_convergence_probe, match_curve\n"
        "from equiarea.geometry import Line\n"
        "from equiarea.matching import IncidencePairParam as P\n"
        "curve = match_curve(P.from_triple(0, 0, 0), P.from_triple(1, 2, 1)).curve\n"
        "print(*asymptote_convergence_probe(curve, Line(0, 1, 0), [10**3, 10**6]))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    first, last = map(float, out.stdout.split())
    assert first > last and last < 1e-4


def test_importing_the_cli_loads_no_process_pool():
    # Only scans with threads > 1 start processes, so only they import the pool.
    env = {**os.environ, "PYTHONPATH": str(Path(equiarea.__file__).parents[1])}
    code = (
        "import sys\n"
        "import equiarea.cli\n"
        "print(*(name in sys.modules for name in ('concurrent.futures.process', 'multiprocessing')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]
