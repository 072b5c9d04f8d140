"""Counters, tallies, the matching identity, generators, experiments."""

import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from equiarea.counting import (
    CSV_HEADER,
    MATCHING_SIZE_LIMIT,
    RichnessTally,
    Unsatisfiable,
    ZeroArea,
    _generate,
    count_brute,
    count_pairline,
    default_area,
    experiment_csv,
    fixed_area_triangles,
    gen_grid,
    gen_lattice_section,
    gen_parallel_lines,
    gen_random,
    matching_identity_check,
    mode_area,
    scaling_experiment,
    tally_by_richness,
)
from equiarea import counting
from equiarea.geometry import DuplicatePoints, InvariantViolation, Point, integer_points, shear, signed_area2
from equiarea.incidence import census, incidence_stats, line_sizes, stats_from_sizes


def public_points(kind, n, seed):
    """A scaling row's set from the public generators, its parameters restated."""
    if kind == "lattice":
        return gen_lattice_section(n)
    if kind == "random":
        return gen_random(n, max(4, 2 * math.isqrt(n) + 2), seed)
    if kind == "grid":
        rows = max(1, math.isqrt(n))
        return gen_grid(rows, -(-n // rows))[:n]
    return gen_parallel_lines(3, -(-n // 3), 1)[:n]


SQUARE = [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)]
FIVE = [Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 2), Point(1, 2)]


class TestBruteCount:
    def test_single_triangle(self):
        assert count_brute([Point(0, 0), Point(2, 0), Point(0, 1)], 1) == 1

    def test_unit_square(self):
        assert count_brute(SQUARE, F(1, 2)) == 4
        assert count_brute(SQUARE, 1) == 0

    def test_five_points(self):
        assert count_brute(FIVE, 1) == 7

    def test_zero_area_rejected(self):
        with pytest.raises(ZeroArea):
            count_brute(SQUARE, 0)
        with pytest.raises(ZeroArea):
            count_brute(SQUARE, -1)


class TestPairlineCount:
    @pytest.mark.parametrize(
        "points,area",
        [
            ([Point(0, 0), Point(2, 0), Point(0, 1)], F(1)),
            (SQUARE, F(1, 2)),
            (SQUARE, F(1)),
            (FIVE, F(1)),
        ],
    )
    def test_matches_brute_on_examples(self, points, area):
        assert count_pairline(points, area) == count_brute(points, area)

    def test_zero_area_rejected(self):
        with pytest.raises(ZeroArea):
            count_pairline(SQUARE, 0)

    def test_matches_brute_on_random_sets(self):
        rng = random.Random(1)
        for trial in range(25):
            pts = set()
            n = rng.randint(5, 25)
            while len(pts) < n:
                pts.add(Point(rng.randint(-10, 10), rng.randint(-10, 10)))
            pts = sorted(pts)
            for area in (F(1), F(1, 2), F(3), F(7, 2)):
                assert count_pairline(pts, area) == count_brute(pts, area)

    def test_matches_brute_on_rational_coordinates(self):
        rng = random.Random(2)
        pts = set()
        while len(pts) < 12:
            pts.add(Point(F(rng.randint(-8, 8), rng.choice((1, 2, 3))), F(rng.randint(-8, 8), rng.choice((1, 2)))))
        pts = sorted(pts)
        for area in (F(1), F(2, 3)):
            assert count_pairline(pts, area) == count_brute(pts, area)

    def test_shear_invariance(self):
        pts = gen_random(15, 9, seed=4)
        for t in (F(1), F(1, 2), F(2)):
            sheared = shear(pts, t)
            assert count_brute(sheared, 1) == count_brute(pts, 1)
            assert count_pairline(sheared, 1) == count_pairline(pts, 1)


class TestNoBaseShortcut:
    """When 2*A*L^2 is not an integer no triangle has area A, and no base is enumerated."""

    @pytest.mark.parametrize("area", [F(1, 3), F(5, 6)])
    def test_integer_and_rational_sets(self, area):
        integer = gen_random(16, 6, seed=4)
        sets = [
            integer,
            gen_grid(4, 5),
            [Point(p.x / 2, p.y / 3) for p in integer],
            [Point(p.x / 6, p.y) for p in gen_grid(3, 4)],
        ]
        for pts in sets:
            count = count_brute(pts, area)
            assert count_pairline(pts, area) == count
            assert tally_by_richness(pts, 2, area).total == count
        assert count_brute(sets[0], area) == count_brute(sets[1], area) == 0
        assert count_brute(sets[2], area) > 0

    def test_lattice_census_sizes_lines_without_a_table(self):
        # Keying a Counter by each of the lattice's spanned lines peaks at about 16 MiB.
        points = gen_lattice_section(800)
        pts, _, _ = integer_points(points)
        expected = stats_from_sizes(len(pts), 2, line_sizes(pts))
        for name, run in (("census", lambda: census(points, 2, F(1, 3))),
                          ("incidence_stats", lambda: (0, incidence_stats(points, 2)))):
            tracemalloc.start()
            try:
                count, stats = run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert count == 0 and stats == expected
            assert peak < 2**20, f"{name} peaked at {peak / 2**20:.2f} MiB"

    def test_duplicates_still_raise(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 0)]
        with pytest.raises(DuplicatePoints):
            count_pairline(pts, F(1, 3))
        with pytest.raises(DuplicatePoints):
            tally_by_richness(pts, 2, F(1, 3))


class TestModeArea:
    def test_square(self):
        assert mode_area(SQUARE) == (F(1, 2), 4)

    def test_five_points(self):
        assert mode_area(FIVE) == (F(1), 7)

    def test_mode_count_matches_counters(self):
        pts = gen_random(18, 8, seed=6)
        area, count = mode_area(pts)
        assert count_brute(pts, area) == count
        assert count_pairline(pts, area) == count
        # No other tested area can beat the mode.
        assert count_brute(pts, F(1)) <= count

    def test_collinear_rejected(self):
        with pytest.raises(ZeroArea):
            mode_area(gen_grid(1, 5))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            mode_area(gen_lattice_section(301))


class TestLargeInstance:
    def test_wide_lattice_pairline_is_fast_and_consistent(self):
        import time

        pts = gen_lattice_section(1500)
        started = time.perf_counter()
        count = count_pairline(pts, F(1, 2))
        assert time.perf_counter() - started < 30
        assert count > 0
        prefix = pts[:60]
        assert count_pairline(prefix, F(1, 2)) == count_brute(prefix, F(1, 2))


class TestTally:
    def test_no_triangles(self):
        pts = [Point(0, 0), Point(1, 0), Point(5, 5)]
        tally = tally_by_richness(pts, 2, F(100))
        assert tally == RichnessTally(0, 0, 0, 0)

    def test_grid_total_matches_brute(self):
        grid = gen_grid(3, 3)
        tally = tally_by_richness(grid, 2, 1)
        assert tally.total == count_brute(grid, 1)

    def test_enumeration_matches_brute(self):
        pts = gen_random(14, 7, seed=9)
        assert len(fixed_area_triangles(pts, 1)) == count_brute(pts, 1)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            tally_by_richness(SQUARE, 1, 1)


class TestMatchingIdentity:
    def test_no_triangles_holds_trivially(self):
        rep = matching_identity_check([Point(0, 0), Point(1, 0), Point(5, 5)], 2, F(100))
        assert rep.M == 0 and rep.holds

    def test_grid(self):
        rep = matching_identity_check(gen_grid(3, 3), 2, 1)
        assert rep.holds
        assert rep.M == 3 * rep.T3 + rep.T2

    def test_random_sweep(self):
        for seed in range(5):
            pts = gen_random(20, 8, seed)
            for k in (2, 3):
                assert matching_identity_check(pts, k, 1).holds

    def test_shear_invariance_of_m(self):
        pts = gen_random(12, 8, seed=3)
        base = matching_identity_check(pts, 2, 1).M
        for t in (F(1), F(1, 2)):
            assert matching_identity_check(shear(pts, t), 2, 1).M == base


class TestGenerators:
    def test_lattice_sixteen(self):
        pts = gen_lattice_section(16)
        assert pts == [Point(x, y) for y in range(2) for x in range(8)]

    def test_lattice_1024_shape(self):
        pts = gen_lattice_section(1024)
        assert len(pts) == 1024
        assert len(set(pts)) == 1024
        assert max(p.y for p in pts) == 2  # three rows
        assert max(p.x for p in pts) == 341

    def test_lattice_always_n_distinct(self):
        for n in (4, 7, 100, 333):
            pts = gen_lattice_section(n)
            assert len(pts) == n and len(set(pts)) == n

    def test_lattice_minimum(self):
        with pytest.raises(ValueError):
            gen_lattice_section(3)

    def test_random_determinism(self):
        assert gen_random(20, 9, 7) == gen_random(20, 9, 7)
        assert gen_random(20, 9, 7) != gen_random(20, 9, 8)

    def test_random_bounds_and_edge_cases(self):
        assert gen_random(0, 3, 0) == []
        pts = gen_random(30, 4, 2)
        assert all(-4 <= p.x <= 4 and -4 <= p.y <= 4 for p in pts)
        assert len(set(pts)) == 30
        with pytest.raises(Unsatisfiable):
            gen_random(100, 3, 0)

    def test_grid(self):
        assert len(gen_grid(3, 3)) == 9
        with pytest.raises(ValueError):
            gen_grid(0, 3)

    def test_collinear_grid_has_no_triangles(self):
        row = gen_grid(1, 10)
        assert count_pairline(row, 1) == 0
        assert count_brute(row, F(1, 2)) == 0

    def test_generators_keep_their_points(self):
        # The comprehensions the public generators ran before they read the
        # integer bodies, inlined: same points, same order.
        def drawn_points(n, b, seed):
            rng, drawn = random.Random(seed), {}
            while len(drawn) < n:
                drawn[Point(rng.randint(-b, b), rng.randint(-b, b))] = None
            return list(drawn)

        for n in range(4, 301):
            rows = max(2, round(math.sqrt(math.log2(n))))
            cols = -(-n // rows)
            assert gen_lattice_section(n) == [Point(x, y) for y in range(rows) for x in range(cols)][:n]
            rows = max(1, math.isqrt(n))
            cols = -(-n // rows)
            assert gen_grid(rows, cols) == [Point(x, y) for y in range(rows) for x in range(cols)]
            cols = -(-n // 3)
            assert gen_parallel_lines(3, cols, 7) == [Point(x, y * 7) for y in range(3) for x in range(cols)]
            # Seed n % 30: each of the seeds 0..29 over about ten sizes.
            bound = max(4, 2 * math.isqrt(n) + 2)
            assert gen_random(n, bound, n % 30) == drawn_points(n, bound, n % 30)

    @pytest.mark.parametrize("kind", ["lattice", "random", "grid", "parallel"])
    def test_scaling_pairs_are_the_public_points(self, kind):
        for n in range(4, 301):
            pairs = _generate(kind, n, n % 30)
            assert all(type(x) is int and type(y) is int for x, y in pairs)
            assert pairs == [(p.x, p.y) for p in public_points(kind, n, n % 30)]

    def test_parallel_lines_make_unit_triangles(self):
        pts = gen_parallel_lines(3, 4, 1)
        # Base (0,0)-(1,0) with apex on the line y = 2 spans area 1.
        assert signed_area2(Point(0, 0), Point(1, 0), Point(2, 2)) == 2
        assert count_brute(pts, 1) > 0


class TestScalingExperiment:
    def test_rows_and_csv(self):
        rows = scaling_experiment("lattice", [16, 32], k=2)
        assert len(rows) == 2
        assert rows[0].area == F(1, 2)  # documented lattice default
        csv = experiment_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "lattice" and first[1] == "16"

    def test_matching_columns_blank_above_limit(self):
        assert 16 <= MATCHING_SIZE_LIMIT < 64
        rows = scaling_experiment("lattice", [16, 64], k=2)
        assert rows[0].M is not None
        assert rows[1].M is None
        csv_row = rows[1].csv().split(",")
        assert csv_row[7] == ""  # M column empty

    def test_determinism_without_seconds(self):
        def strip_seconds(rows):
            return [tuple(r.csv().split(",")[:12] + r.csv().split(",")[13:]) for r in rows]

        a = scaling_experiment("random", [10, 20], k=2, seed=5)
        b = scaling_experiment("random", [10, 20], k=2, seed=5)
        assert strip_seconds(a) == strip_seconds(b)

    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError):
            scaling_experiment("lattice", [32, 16])

    def test_points_are_built_only_for_the_matching_check(self, monkeypatch):
        def no_point(x, y):
            raise AssertionError(f"Point({x}, {y}) built")

        expected = [row.csv().split(",") for row in scaling_experiment("lattice", [100, 800])]
        monkeypatch.setattr(counting, "Point", no_point)
        rows = [row.csv().split(",") for row in scaling_experiment("lattice", [100, 800])]
        assert [r[:12] + r[13:] for r in rows] == [r[:12] + r[13:] for r in expected]
        with pytest.raises(AssertionError, match="built"):
            scaling_experiment("lattice", [12])
        monkeypatch.undo()
        (row,) = scaling_experiment("lattice", [12])
        assert row.M == 3 * row.T3 + row.T2 and row.T0 + row.T1 + row.T2 + row.T3 == row.count

    @pytest.mark.parametrize("kind", ["lattice", "random", "grid", "parallel"])
    def test_rows_equal_the_two_kernels(self, kind):
        sizes = [12, 24, 40]
        assert sizes[0] < MATCHING_SIZE_LIMIT < sizes[-1]
        for k in (2, 3):
            for area in (None, F(1, 3), F(3, 2)):
                for row in scaling_experiment(kind, sizes, k=k, area=area, seed=3):
                    points = public_points(kind, row.n, row.seed + row.n)
                    pts, _, _ = integer_points(points)
                    stats = stats_from_sizes(len(pts), k, line_sizes(pts))
                    assert (row.count, row.m, row.N) == (count_brute(points, row.area), stats.m, stats.N)

    def test_tally_total_must_equal_the_census_count(self, monkeypatch):
        def off_by_one(points, k, area):
            tally = tally_by_richness(points, k, area)
            return RichnessTally(tally.T0 + 1, tally.T1, tally.T2, tally.T3)

        # T0 does not enter M = 3*T3 + T2, so only the cross-check can catch this.
        monkeypatch.setattr(counting, "tally_by_richness", off_by_one)
        with pytest.raises(InvariantViolation, match="tally total 61 is not the census count 60 at n=12"):
            scaling_experiment("lattice", [12], k=2)

    def test_default_areas(self):
        assert default_area("lattice") == F(1, 2)
        assert default_area("random") == 1
