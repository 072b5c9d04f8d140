"""Spanned/rich line enumeration and incidence statistics."""

import math
from fractions import Fraction as F
from itertools import combinations

import pytest

from equiarea.counting import gen_grid, gen_lattice_section
from equiarea.geometry import DuplicatePoints, Line, Point, ZeroArea, find_shear, shear, signed_area2
from equiarea.incidence import (
    VerticalLinePresent,
    census,
    incidence_pairs,
    incidence_stats,
    rich_lines,
    spanned_lines,
)

FIVE = [Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 1), Point(1, 1)]


class TestSpannedLines:
    def test_collinear_triple(self):
        lines = spanned_lines([Point(0, 0), Point(1, 1), Point(2, 2)])
        assert len(lines) == 1
        assert lines[0].line == Line(1, -1, 0)
        assert len(lines[0].members) == 3

    def test_five_point_configuration(self):
        lines = spanned_lines(FIVE)
        assert len(lines) == 8
        sizes = sorted(len(sl.members) for sl in lines)
        assert sizes == [2, 2, 2, 2, 2, 2, 2, 3]
        y0 = next(sl for sl in lines if sl.line == Line(0, 1, 0))
        assert y0.members == (Point(0, 0), Point(1, 0), Point(2, 0))

    def test_general_position_gives_all_pairs(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 1), Point(2, 3), Point(5, 1)]
        for tri in combinations(pts, 3):
            assert signed_area2(*tri) != 0  # construction really is general position
        lines = spanned_lines(pts)
        assert len(lines) == 10
        assert all(len(sl.members) == 2 for sl in lines)

    def test_members_satisfy_equation(self):
        for sl in spanned_lines(FIVE):
            for p in sl.members:
                assert sl.line.contains(p)

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePoints):
            spanned_lines([Point(0, 0), Point(0, 0), Point(1, 1)])

    def test_member_sets_invariant_under_shear(self):
        t = F(1, 3)
        def profile(pts):
            # Identify each line by the x-coordinates... use original indices.
            idx = {p: i for i, p in enumerate(pts)}
            return sorted(
                tuple(sorted(idx[m] for m in sl.members)) for sl in spanned_lines(pts)
            )
        sheared = shear(FIVE, t)
        assert profile(FIVE) == profile(sheared)


class TestRichLines:
    def test_threshold_three(self):
        rich = rich_lines(FIVE, 3)
        assert [sl.line for sl in rich] == [Line(0, 1, 0)]

    def test_threshold_two_keeps_all(self):
        assert len(rich_lines(FIVE, 2)) == 8

    def test_k_above_n_empty(self):
        assert rich_lines(FIVE, 6) == []

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            rich_lines(FIVE, 1)


class TestIncidencePairs:
    def test_vertical_rich_line_rejected(self):
        with pytest.raises(VerticalLinePresent) as exc:
            incidence_pairs(FIVE, 2)  # x=0 and x=1 are spanned and vertical
        # The first of them in canonical line order is named.
        assert str(exc.value) == "(1)x + (0)y + (-1) = 0 is rich and vertical"

    def test_sizes_after_shear(self):
        sheared = shear(FIVE, find_shear(FIVE))
        assert len(incidence_pairs(sheared, 2)) == 17
        assert len(incidence_pairs(sheared, 3)) == 3
        assert incidence_pairs(sheared, 6) == []

    def test_members_sum_matches_stats(self):
        sheared = shear(FIVE, find_shear(FIVE))
        for k in (2, 3):
            assert len(incidence_pairs(sheared, k)) == incidence_stats(sheared, k).N


class TestIncidenceStats:
    def test_five_point_values(self):
        st = incidence_stats(FIVE, 2)
        assert (st.n, st.k, st.m, st.N) == (5, 2, 8, 17)
        assert st.ratio_m == F(8 * 8, 25)
        assert st.ratio_N == F(17 * 4, 25)

    def test_grid_rows_and_columns_are_rich(self):
        n = 5
        grid = [Point(x, y) for y in range(n) for x in range(n)]
        st = incidence_stats(grid, n)
        assert st.m >= 2 * n

    def test_pair_packing_bound_over_instances(self):
        # m * C(k,2) <= C(n,2) is asserted inside incidence_stats.
        import random

        rng = random.Random(5)
        for _ in range(10):
            pts = set()
            while len(pts) < 12:
                pts.add(Point(rng.randint(-6, 6), rng.randint(-6, 6)))
            for k in (2, 3, 4):
                st = incidence_stats(sorted(pts), k)
                assert st.m * math.comb(k, 2) <= math.comb(st.n, 2)

    def test_pair_bound_at_k_two(self):
        st = incidence_stats(FIVE, 2)
        assert st.m <= 5 * 4 // 2

    def test_incidences_dominate_rich_lines(self):
        for k in (2, 3):
            st = incidence_stats(FIVE, k)
            assert st.N >= st.m * k


class TestCensus:
    @pytest.mark.parametrize("area", [0, F(0), -1, F(-1, 2)])
    @pytest.mark.parametrize("points", [gen_grid(3, 3), gen_lattice_section(20)], ids=["pencils", "row-runs"])
    def test_area_must_be_positive(self, points, area):
        # Unchecked, area 0 counted collinear triples on the grid (64), and
        # on the lattice section tripped the once-per-side invariant.
        with pytest.raises(ZeroArea):
            census(points, 2, area)

    def test_no_area_gives_stats_alone(self):
        count, stats = census(gen_grid(3, 3), 2)
        assert count == 0 and stats == incidence_stats(gen_grid(3, 3), 2)
        assert census(gen_grid(3, 3), 2, F(1, 2))[0] == 32
