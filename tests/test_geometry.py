"""Exact geometry kernel tests."""

import math
import random
import re
from decimal import Decimal
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiarea.geometry import (
    DuplicatePoints,
    GeometryError,
    IdenticalLines,
    IdenticalPoints,
    Line,
    ParallelLines,
    Point,
    VerticalLine,
    cleared,
    find_shear,
    integer_points,
    intersect,
    line_through,
    parse_int,
    parse_rational,
    shear,
    shear_denominator,
    signed_area2,
)

small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=4)


def pt(x, y):
    return Point(F(x), F(y))


class TestRationalParsing:
    def test_integers_and_fractions(self):
        assert parse_rational("7") == 7
        assert parse_rational("-3/4") == F(-3, 4)
        assert parse_rational(" +2/6 ") == F(1, 3)

    @pytest.mark.parametrize("bad", ["1.5", "1/0", "a", "", "1/-2", "2/"])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    # The ASCII forms the point files, areas and pairs of the tests use.
    @pytest.mark.parametrize(
        "text, value",
        [("0", 0), ("+0", 0), ("-0", 0), ("1/2", F(1, 2)), ("-7/2", F(-7, 2)), ("+7/2", F(7, 2)),
         ("2/4", F(1, 2)), ("-1/3", F(-1, 3)), ("007", 7), ("5000000000000000000000", 5 * 10**21),
         (" 12\t", 12), ("1/2\n", F(1, 2))],
    )
    def test_ascii_forms_parse(self, text, value):
        assert parse_rational(text) == value

    # Other scripts' digits: fullwidth, Arabic-Indic, Devanagari, and mixed.
    @pytest.mark.parametrize("bad", ["\uff10", "\u0661", "\u0663", "\uff11/\uff12", "1/\u0662", "\u0969", "1\uff10"])
    def test_rejects_non_ascii_digits(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(st.fractions(max_denominator=1000), st.fractions(max_denominator=1000))
    def test_fraction_arithmetic_is_exact(self, a, b):
        assert (a + b) - b == a


class TestIntegerParsing:
    @pytest.mark.parametrize(
        "text, value",
        [("0", 0), ("+3", 3), ("-0", 0), ("-12", -12), ("007", 7), (" 10", 10), ("10\n", 10),
         ("5000000000000000000000", 5 * 10**21)],
    )
    def test_ascii_forms_parse(self, text, value):
        assert parse_int(text) == value

    # int() reads all of these: other scripts' digits and `_` separators.
    @pytest.mark.parametrize("bad", ["\u0661\u0660", "\u0663", "\uff12", "1_0", "2_0", "\u0969", "1\uff10"])
    def test_rejects_what_int_would_read(self, bad):
        assert int(bad) >= 0
        with pytest.raises(ValueError, match=f"not an integer: {bad!r}"):
            parse_int(bad)

    @pytest.mark.parametrize("bad", ["", " ", "1.5", "1/2", "2e2", "+-1", "0x10", "a"])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ValueError, match="not an integer"):
            parse_int(bad)


class TestPoint:
    def test_fraction_coordinates_are_kept(self):
        x, y = F(1, 3), F(-5, 2)
        p = Point(x, y)
        assert p.x is x and p.y is y

    def test_other_coordinates_become_fractions(self):
        p = Point(1, 2)
        assert type(p.x) is F and type(p.y) is F
        assert (p.x, p.y) == (1, 2)
        assert Point(1, F(2)) == p and hash(Point(1, F(2))) == hash(p)

    def test_unpacks_as_its_pair(self):
        x, y = Point(F(1, 3), 2)
        assert (x, y) == (F(1, 3), 2) and tuple(Point(0, -1)) == (0, -1)


class TestIntegerPoints:
    def test_points_and_pairs_clear_alike(self):
        points = [Point(F(1, 2), 3), Point(-1, F(2, 3)), Point(0, 0)]
        pairs = [(F(1, 2), 3), (-1, F(2, 3)), (0, 0)]
        pts, originals, scale = integer_points(pairs)
        assert (pts, scale) == ([(-6, 4), (0, 0), (3, 18)], 6) == integer_points(points)[::2]
        assert originals == [(-1, F(2, 3)), (0, 0), (F(1, 2), 3)]

    def test_a_point_and_its_pair_repeat(self):
        with pytest.raises(DuplicatePoints):
            integer_points([Point(1, 2), (0, 0), (1, F(4, 2))])

    @pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), "1", None, 1j])
    def test_other_coordinates_raise_type_error(self, bad):
        with pytest.raises(TypeError, match=re.escape(f"coordinate {bad!r} is not an int or a Fraction")):
            integer_points([(0, 0), (1, bad)])
        with pytest.raises(TypeError):
            cleared([F(1, 2), bad])

    def test_an_iterator_is_read_once(self):
        # Both reads of one iterator used to leave the second empty: no points.
        pairs = [(0, 0), (1, 0), (0, F(1, 2))]
        assert integer_points(iter(pairs)) == integer_points(pairs)
        assert find_shear(p for p in pairs) == find_shear(pairs) == 1

    def test_a_point_is_a_pair(self):
        with pytest.raises(ValueError):
            integer_points([(0, 0), (1, 2, 3)])


class TestLineCanonicalForm:
    def test_scaling_collapses(self):
        assert Line(0, 2, 4) == Line(0, 1, 2)
        assert Line(-1, 1, 0) == Line(1, -1, 0)
        assert Line(F(1, 2), 0, F(3, 2)) == Line(1, 0, 3)

    def test_sign_rule_and_gcd(self):
        line = Line(-4, 6, -2)
        assert (line.A, line.B, line.C) == (2, -3, 1)

    def test_line_through_examples(self):
        assert line_through(pt(0, 0), pt(1, 0)) == Line(0, 1, 0)
        assert line_through(pt(0, 0), pt(1, 1)) == Line(1, -1, 0)
        assert line_through(pt(F(1, 2), 0), pt(0, F(1, 3))) == Line(2, 3, -1)

    def test_line_through_is_symmetric(self):
        rng = random.Random(7)
        for _ in range(200):
            p = pt(rng.randint(-9, 9), rng.randint(-9, 9))
            q = pt(rng.randint(-9, 9), rng.randint(-9, 9))
            if p == q:
                continue
            assert line_through(p, q) == line_through(q, p)

    def test_identical_points_rejected(self):
        with pytest.raises(IdenticalPoints):
            line_through(pt(1, 2), pt(1, 2))

    def test_members_satisfy_equation(self):
        line = line_through(pt(F(1, 2), 0), pt(0, F(1, 3)))
        assert line.contains(pt(F(1, 2), 0))
        assert line.contains(pt(0, F(1, 3)))


class TestSignedArea:
    def test_examples(self):
        assert signed_area2(pt(0, 0), pt(2, 0), pt(0, 1)) == 2
        assert signed_area2(pt(0, 0), pt(1, 1), pt(2, 2)) == 0
        assert signed_area2(pt(2, 0), pt(1, 1), pt(3, 1)) == -2

    @given(st.lists(small_fractions, min_size=6, max_size=6))
    def test_antisymmetry_under_swaps(self, coords):
        p, q, r = pt(coords[0], coords[1]), pt(coords[2], coords[3]), pt(coords[4], coords[5])
        base = signed_area2(p, q, r)
        for perm in permutations((p, q, r)):
            value = signed_area2(*perm)
            assert value == base or value == -base
        assert signed_area2(q, p, r) == -base
        assert signed_area2(p, r, q) == -base


class TestSlopeAndIntersect:
    def test_slopes(self):
        assert Line(0, 1, 0).slope() == 0
        assert Line(1, -1, 0).slope() == 1
        with pytest.raises(VerticalLine):
            Line(1, 0, -3).slope()

    def test_intersections(self):
        assert intersect(Line(0, 1, 0), Line(1, -1, 1)) == pt(-1, 0)
        with pytest.raises(ParallelLines):
            intersect(Line(0, 1, 0), Line(0, 1, -1))
        with pytest.raises(IdenticalLines):
            intersect(Line(0, 1, 0), Line(0, 2, 0))

    def test_intersection_lies_on_both(self):
        rng = random.Random(3)
        for _ in range(100):
            l1 = Line(rng.randint(-5, 5), rng.randint(1, 5), rng.randint(-5, 5))
            l2 = Line(rng.randint(1, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            if l1.A * l2.B == l2.A * l1.B:
                continue
            p = intersect(l1, l2)
            assert l1.contains(p) and l2.contains(p)


class TestShear:
    def test_zero_is_identity(self):
        pts = [pt(1, 2), pt(-3, F(1, 2))]
        assert shear(pts, F(0)) == pts

    def test_pairs_shear_as_points(self):
        assert shear([(0, 0), (F(1, 2), 2)], F(1, 4)) == [pt(0, 0), pt(1, 2)]

    def test_unit_shear_removes_vertical(self):
        sheared = shear([pt(0, 0), pt(0, 1)], F(1))
        assert sheared == [pt(0, 0), pt(1, 1)]
        assert not line_through(*sheared).is_vertical

    @given(
        st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=8),
        small_fractions,
    )
    @settings(max_examples=60)
    def test_preserves_every_signed_area(self, raw, t):
        pts = [pt(x, y) for x, y in raw]
        sheared = shear(pts, t)
        for i, j, k in combinations(range(len(pts)), 3):
            assert signed_area2(pts[i], pts[j], pts[k]) == signed_area2(
                sheared[i], sheared[j], sheared[k]
            )


class TestFindShear:
    def test_zero_when_no_vertical(self):
        assert find_shear([pt(0, 0), pt(1, 1), pt(2, 5)]) == 0

    def test_vertical_pair_needs_one(self):
        assert find_shear([pt(0, 0), pt(0, 1)]) == 1

    def test_result_clears_all_verticals(self):
        rng = random.Random(11)
        for _ in range(30):
            pts = set()
            while len(pts) < 8:
                pts.add(pt(rng.randint(-4, 4), rng.randint(-4, 4)))
            pts = sorted(pts)
            t = find_shear(pts)
            sheared = shear(pts, t)
            for p, q in combinations(sheared, 2):
                assert not line_through(p, q).is_vertical

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePoints):
            find_shear([pt(0, 0), pt(0, 0)])
        with pytest.raises(DuplicatePoints):
            shear_denominator([(0, 0), (0, 1), (0, 0)])

    def test_fewer_than_two_points_rejected(self):
        for pts in ([], [pt(1, 2)]):
            with pytest.raises(GeometryError, match="need at least two points"):
                find_shear(pts)


class TestLineIntegerInputs:
    @settings(derandomize=True, database=None, max_examples=200)
    @given(
        st.integers(-50, 50),
        st.integers(-50, 50),
        st.integers(-50, 50),
        st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
    )
    def test_int_and_equal_fraction_inputs_give_one_line(self, a, b, c, scale):
        if a == b == 0:
            with pytest.raises(GeometryError):
                Line(a, b, c)
            return
        from_ints = Line(a, b, c)
        for line in (Line(F(a), F(b), F(c)), Line(a * scale, b * scale, c * scale)):
            assert (line.A, line.B, line.C) == (from_ints.A, from_ints.B, from_ints.C)
        assert all(type(v) is int for v in (from_ints.A, from_ints.B, from_ints.C))
        assert math.gcd(from_ints.A, from_ints.B, from_ints.C) == 1
        assert from_ints.A > 0 or (from_ints.A == 0 and from_ints.B > 0)
