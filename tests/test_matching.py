"""Oriented matching predicate, third vertex, top lines, richness."""

import random
from fractions import Fraction as F
from itertools import product

import pytest

from equiarea.geometry import (
    IdenticalLines,
    Line,
    ParallelLines,
    Point,
    VerticalLine,
    ZeroArea,
    find_shear,
    intersect,
    shear,
    signed_area2,
)
from equiarea.counting import matching_count
from equiarea.incidence import incidence_pairs
from equiarea.matching import (
    DegenerateTriangle,
    IncidencePairParam,
    ParallelSlopes,
    PointNotOnLine,
    classify_triangle,
    count_matching_on_lines,
    count_matching_pairs,
    join_matching_on_lines,
    matches_ccw,
    matches_cw,
    pair_incidences,
    probe_matching_on_lines,
    third_vertex,
    to_param,
    top_lines,
)

P_A = IncidencePairParam.from_triple(2, 0, 0)
P_B = IncidencePairParam.from_triple(1, 1, 1)


def random_param(rng, bound=6):
    return IncidencePairParam.from_triple(
        F(rng.randint(-bound, bound), rng.choice((1, 2))),
        F(rng.randint(-bound, bound), rng.choice((1, 2))),
        F(rng.randint(-bound, bound), rng.choice((1, 2))),
    )


def geometric_ccw(p1, p2, area=F(1)):
    """Independent oracle: intersect the lines and check the signed area."""
    try:
        o = intersect(p1.line, p2.line)
    except (ParallelLines, IdenticalLines):
        return False
    return signed_area2(o, p1.point, p2.point) == 2 * area


class TestToParam:
    def test_examples(self):
        assert to_param(Line(0, 1, 0), Point(2, 0)) == P_A
        q = to_param(Line(1, -1, 0), Point(1, 1))
        assert (q.a, q.b, q.kappa) == (1, 1, 1)

    def test_point_off_line(self):
        with pytest.raises(PointNotOnLine):
            to_param(Line(0, 1, 0), Point(0, 1))

    def test_vertical_line(self):
        with pytest.raises(VerticalLine):
            to_param(Line(1, 0, -3), Point(3, 0))

    def test_from_triple_consistency(self):
        q = IncidencePairParam.from_triple(F(1, 2), -2, F(3, 4))
        assert q.line.contains(q.point)
        assert q.line.slope() == F(3, 4)


class TestMatchingPredicate:
    def test_worked_example(self):
        assert matches_ccw(P_A, P_B)
        assert not matches_cw(P_A, P_B)

    def test_swapped_roles_flip_orientation(self):
        assert not matches_ccw(P_B, P_A)
        assert matches_cw(P_B, P_A)

    def test_equal_slopes_never_match(self):
        q1 = IncidencePairParam.from_triple(0, 0, 1)
        q2 = IncidencePairParam.from_triple(3, 0, 1)
        assert not matches_ccw(q1, q2)
        assert not matches_cw(q1, q2)

    def test_same_pair_never_matches(self):
        assert not matches_ccw(P_A, P_A)

    def test_swap_identity_random(self):
        rng = random.Random(0)
        for _ in range(2000):
            q1, q2 = random_param(rng), random_param(rng)
            assert matches_cw(q1, q2) == matches_ccw(q2, q1)

    @pytest.mark.parametrize("area", [F(1), F(1, 2), F(3), F(7, 2)])
    def test_algebraic_equals_geometric(self, area):
        rng = random.Random(int(area * 2))
        for _ in range(1500):
            q1, q2 = random_param(rng), random_param(rng)
            assert matches_ccw(q1, q2, area) == geometric_ccw(q1, q2, area)


class TestThirdVertex:
    def test_worked_example(self):
        q = third_vertex(P_A, P_B)
        assert q == Point(3, 1)
        assert abs(signed_area2(P_A.point, P_B.point, q)) == 2

    def test_parallel_slopes(self):
        q1 = IncidencePairParam.from_triple(0, 0, 0)
        q2 = IncidencePairParam.from_triple(0, 2, 0)
        with pytest.raises(ParallelSlopes):
            third_vertex(q1, q2)

    def test_parallelogram_identity(self):
        rng = random.Random(4)
        for _ in range(300):
            q1, q2 = random_param(rng), random_param(rng)
            if q1.kappa == q2.kappa:
                continue
            q = third_vertex(q1, q2)
            o = intersect(q1.line, q2.line)
            assert q == Point(q1.a + q2.a - o.x, q1.b + q2.b - o.y)

    def test_matched_pair_area(self):
        rng = random.Random(9)
        checked = 0
        while checked < 50:
            q1, q2 = random_param(rng), random_param(rng)
            if not matches_ccw(q1, q2):
                continue
            q = third_vertex(q1, q2)
            assert abs(signed_area2(q1.point, q2.point, q)) == 2
            checked += 1


class TestTopLines:
    TRI = (Point(0, 0), Point(2, 0), Point(3, 1))

    def test_example_top_line(self):
        lines = top_lines(self.TRI)
        assert lines[2] == Line(0, 1, -1)  # through (3,1), parallel to y=0

    def test_each_parallel_to_opposite_side(self):
        lines = top_lines(self.TRI)
        verts = self.TRI
        for i, line in enumerate(lines):
            u, v = verts[(i + 1) % 3], verts[(i + 2) % 3]
            assert line.contains(verts[i])
            base_dir = (v.x - u.x, v.y - u.y)
            assert line.A * base_dir[0] + line.B * base_dir[1] == 0

    def test_touches_triangle_only_at_vertex(self):
        rng = random.Random(2)
        for _ in range(100):
            pts = [Point(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3)]
            if signed_area2(*pts) == 0:
                continue
            for i, line in enumerate(top_lines(pts)):
                for j, v in enumerate(pts):
                    assert line.contains(v) == (i == j)

    def test_degenerate(self):
        with pytest.raises(DegenerateTriangle):
            top_lines((Point(0, 0), Point(1, 1), Point(2, 2)))


class TestClassifyTriangle:
    TRI = (Point(0, 0), Point(2, 0), Point(3, 1))

    def test_bare_triangle_has_no_rich_top_line(self):
        res = classify_triangle(list(self.TRI), 2, self.TRI)
        assert res.rich_top_lines == 0

    def test_enriched_configuration(self):
        pts = list(self.TRI) + [Point(0, 1), Point(1, 1)]
        # y=1 gains three points; y=x through (0,0) also holds (1,1).
        assert classify_triangle(pts, 2, self.TRI).rich_top_lines == 2
        assert classify_triangle(pts, 3, self.TRI).rich_top_lines == 1
        assert classify_triangle(pts, 4, self.TRI).rich_top_lines == 0

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            classify_triangle(list(self.TRI), 1, self.TRI)

    def test_foreign_triangle_rejected(self):
        with pytest.raises(ValueError):
            classify_triangle(list(self.TRI), 2, (Point(9, 9), Point(8, 8), Point(7, 9)))


class TestCountMatchingPairs:
    def test_empty(self):
        assert count_matching_pairs([], 1) == 0

    def test_grid_against_exhaustive_classification(self):
        pts = [Point(x, y) for y in range(3) for x in range(3)]
        sheared = shear(pts, find_shear(pts))
        pairs = incidence_pairs(sheared, 2)
        m = count_matching_pairs(pairs, 1, points=sheared)
        # Independent oracle: enumerate unit-area triangles, count vertex pairs
        # whose two top lines both hold >= 2 points.
        from itertools import combinations

        expected = 0
        for tri in combinations(sheared, 3):
            if abs(signed_area2(*tri)) != 2:
                continue
            lines = top_lines(tri)
            rich = [sum(1 for p in sheared if l.contains(p)) >= 2 for l in lines]
            for i, j in combinations(range(3), 2):
                if rich[i] and rich[j]:
                    expected += 1
        assert m == expected

    def test_zero_area_rejected(self):
        pts = [Point(x, y) for y in range(3) for x in range(3)]
        sheared = shear(pts, find_shear(pts))
        pairs = incidence_pairs(sheared, 2)
        with pytest.raises(ZeroArea):
            count_matching_pairs(pairs, 0)
        with pytest.raises(ZeroArea):
            matching_count(pts, 2, 0)
        lines, in_s, _ = pair_incidences(pairs, sheared)
        for count in (count_matching_on_lines, probe_matching_on_lines, join_matching_on_lines):
            for points in (None, in_s):
                with pytest.raises(ZeroArea):
                    count(lines, 0, points)

    def test_vertical_rich_lines_need_no_shear(self):
        # The 3x3 grid's columns are rich and vertical; M is the sheared value.
        pts = [Point(x, y) for y in range(3) for x in range(3)]
        sheared = shear(pts, find_shear(pts))
        pairs = incidence_pairs(sheared, 3)
        for require_q_in_s, expected in ((False, 36), (True, 16)):
            assert count_matching_pairs(pairs, 1, sheared if require_q_in_s else None) == expected
            assert matching_count(pts, 3, 1, require_q_in_s) == (24, expected)
            assert matching_count(pts, 3, -1, require_q_in_s) == (24, expected)

    def test_repeated_pairs_count_with_multiplicity(self):
        pairs = [P_A, P_B, P_B]
        assert count_matching_pairs(pairs, 1) == 2 * count_matching_pairs([P_A, P_B], 1) == 2
        for count in (probe_matching_on_lines, join_matching_on_lines):
            for repeated, expected in ((pairs, 2), ([P_A, P_B], 1), ([P_A, P_A, P_B, P_B], 4)):
                lines, _, scale = pair_incidences(repeated)
                assert count(lines, scale * scale) == expected

    def test_lines_whose_direction_is_not_primitive(self):
        # Cleared by scale 2, the line y = x + 1/2 is 2y - 2x = 2; its key is
        # the primitive (1, 1, 1), whose direction (1, 1) the join reads
        # integrality off. 13 lines through 3 points send
        # count_matching_pairs to the join.
        on_line = [(0, F(1, 2)), (F(1, 2), 1), (1, F(3, 2))]
        pairs = [IncidencePairParam.from_triple(x, y, k) for (x, y), k in product(on_line, (1, 0, 2, -1, F(1, 2)))]
        lines, _, scale = pair_incidences(pairs)
        assert (scale, len(lines)) == (2, 13) and (1, 1, 1) in lines
        area = F(1, 4)
        matched = [(p1, p2) for p1 in pairs for p2 in pairs if geometric_ccw(p1, p2, area)]
        assert len(matched) == 6
        assert count_matching_pairs(pairs, area) == count_matching_pairs(pairs, -area) == 6
        # Keep the third vertex of the first two matches only.
        kept = {third_vertex(p1, p2) for p1, p2 in matched[:2]}
        points = [p.point for p in pairs] + sorted(kept)
        expected = sum(third_vertex(p1, p2) in kept for p1, p2 in matched)
        assert 2 <= expected < 6
        assert count_matching_pairs(pairs, area, points) == expected
        lines, in_s, scale = pair_incidences(pairs, points)
        for count in (probe_matching_on_lines, join_matching_on_lines):
            assert count(lines, area * scale * scale) == 6
            assert count(lines, area * scale * scale, in_s) == expected
