"""The integer line kernel against independent slow oracles.

Each fast path is compared on property-generated inputs with a path that
shares none of its code: `count_brute` for `count_pairline`, a
`line_through`/Fraction member count for the integer line keys, and the
O(n^3) enumeration through `fixed_area_triangles` and `top_lines` for
`tally_by_richness`, both of the first two for the scaling experiment's
one-pass census and for each of its three branches (the row runs, the
pencils and the pair table), and the O(N^2) Fraction scan over sheared
incidence pairs for the integer matching probe and join, and the row runs
taken one step at a time, `oracle_run_count`, for the row runs' sums over
residue classes, with the generic piecewise sum `oracle_class_sum` (and the
sum one step at a time) for the three-line `_class_sum`, and the runs of the
pairs sorted by row, `oracle_row_runs`, for the one pass of `_row_runs`. The
input families are rational coordinates with mixed denominators, coordinates
above 2^64, sets with vertical lines, collinear-heavy sets, few rows of runs
with gaps, lattice sections, parallel lines and rows far apart. Examples are
derandomized, so every run draws the same inputs.
"""

import math
from collections import Counter
from dataclasses import astuple
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equiarea import counting, incidence
from equiarea.counting import (
    RichnessTally,
    count_brute,
    count_pairline,
    fixed_area_triangles,
    gen_grid,
    gen_lattice_section,
    gen_parallel_lines,
    gen_random,
    matching_count,
    scaling_experiment,
    tally_by_richness,
)
from equiarea.geometry import (
    DuplicatePoints,
    InvariantViolation,
    Line,
    Point,
    find_shear,
    integer_points,
    line_through,
    shear,
    signed_area2,
)
from equiarea.incidence import (
    _class_sum,
    _pair_count,
    _pencil_count,
    _row_runs,
    _run_count,
    _twice_area,
    census,
    census_of_pairs,
    incidence_pairs,
    incidence_stats,
    key_line,
    key_triple,
    line_sizes,
    members_from_pairs,
    ordered_table,
    pair_lines,
    rich_table,
    spanned_lines,
    stats_from_sizes,
)
from equiarea.matching import (
    count_matching_pairs,
    join_matching_on_lines,
    pair_incidences,
    probe_matching_on_lines,
    third_vertex,
    top_lines,
)

ORACLES = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

BIG = 2**64 + 12345


def _distinct_points(coords):
    return st.lists(coords, min_size=3, max_size=11, unique=True).map(
        lambda raw: [Point(x, y) for x, y in raw]
    )


_small = st.integers(-6, 6)
_fraction = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6)))

RATIONAL = _distinct_points(st.tuples(_fraction, _fraction))
# Integer sets pushed above 2^64 by an area-preserving map: a large shear
# and a large translation.
HUGE = _distinct_points(st.tuples(_small, _small)).map(
    lambda pts: [Point(p.x + BIG * p.y + BIG**2, p.y - 3 * BIG) for p in pts]
)
VERTICAL = _distinct_points(st.tuples(st.integers(0, 2), st.integers(-8, 8)))
# Points on three parallel rows, sheared so the rows are sloped lines.
COLLINEAR = st.tuples(
    _distinct_points(st.tuples(st.integers(-7, 7), st.integers(0, 2))),
    st.sampled_from((F(0), F(1), F(-2), F(1, 3))),
).map(lambda drawn: shear(*drawn))

FAMILIES = {"rational": RATIONAL, "huge": HUGE, "vertical": VERTICAL, "collinear": COLLINEAR}


@st.composite
def _row_sets(draw):
    """2-4 rows, not always adjacent, of 1-3 runs each, split by gaps; up to
    40 points. Runs of 5 or more points let r^2 <= n hold often, so that
    the dispatch itself picks the row runs; shorter runs are in VERTICAL."""
    points = []
    for y in draw(st.lists(st.integers(-4, 4), min_size=2, max_size=4, unique=True)):
        x = draw(_small)
        for _ in range(draw(st.integers(1, 3))):
            length = draw(st.integers(5, 16))
            points += [Point(x + step, y) for step in range(length)]
            x += length + draw(st.integers(1, 4))
    return points[:40]


ROWS = _row_sets()
AREAS = st.sampled_from((F(1, 2), F(1), F(3, 2), F(2), F(1, 3), F(5, 6), F(1, 12)))
# The matching oracle is quadratic in the incidences, so its sets stay small.
MATCHING_FAMILIES = {name: family.map(lambda pts: pts[:8]) for name, family in FAMILIES.items()}
SIGNED_AREAS = st.sampled_from((F(1), F(1, 2), F(3, 2), F(-1), F(-5, 6)))
CENSUS_AREAS = (F(1, 2), F(1), F(3, 2), F(1, 3), F(5, 6))


def _areas_to_check(points, drawn):
    """The drawn area plus the area of one spanned triangle, so counts are not all zero."""
    areas = {drawn}
    for tri in combinations(points, 3):
        twice = abs(signed_area2(*tri))
        if twice:
            areas.add(twice / 2)
            break
    return areas


def oracle_member_counts(points):
    """Member count per spanned line, from Fraction lines through every pair."""
    pair_counts = Counter(line_through(p, q) for p, q in combinations(points, 2))
    out = {}
    for line, pairs in pair_counts.items():
        m = (1 + math.isqrt(1 + 8 * pairs)) // 2
        if m * (m - 1) // 2 != pairs:
            raise AssertionError(f"{pairs} pairs on {line}")
        out[line] = m
    return out


def oracle_tally(points, k, area):
    """The O(n^3) richness tally: brute enumeration, top lines, member lookups."""
    member_counts = oracle_member_counts(points)
    buckets = [0, 0, 0, 0]
    poor_per_base = Counter()
    for tri in fixed_area_triangles(points, area):
        rich = 0
        for vertex_index, line in enumerate(top_lines(tri)):
            # A line absent from the table holds one point, the vertex.
            if member_counts.get(line, 1) >= k:
                rich += 1
            else:
                poor_per_base[tuple(sorted(v for j, v in enumerate(tri) if j != vertex_index))] += 1
        buckets[rich] += 1
    assert all(assigned <= 2 * (k - 1) for assigned in poor_per_base.values())
    return RichnessTally(*buckets)


def oracle_matching_pairs(pairs, area, require_q_in_s, points):
    """The O(N^2) Fraction scan: the slope form of the predicate on every
    ordered pair of sloped incidence pairs, and `third_vertex` for q."""
    in_s = set(points) if require_q_in_s else None
    twice = 2 * F(area)
    count = 0
    for i, (a, b, k) in enumerate((p.a, p.b, p.kappa) for p in pairs):
        for j, (x, y, w) in enumerate((p.a, p.b, p.kappa) for p in pairs):
            if i == j or k == w:
                continue
            dx, dy = x - a, y - b
            if (dy - k * dx) * (dy - w * dx) != twice * (w - k):
                continue
            if in_s is not None and third_vertex(pairs[i], pairs[j]) not in in_s:
                continue
            count += 1
    return count


def oracle_run_count(runs, twice, sizes=None):
    """The row runs one step at a time: every step dx of every run pair,
    its gcd g, its base interval, and for each third row the delta of each
    sign; and with `sizes` one sweep over the runs' ends per spanned
    direction. O(|D| * r^3) for D the distinct differences."""
    gcd = math.gcd
    by_row = {}
    for y, x0, x1 in runs:
        by_row.setdefault(y, []).append((x0, x1))
    rows = {y: sum(x1 - x0 + 1 for x0, x1 in spans) for y, spans in by_row.items()}
    directions = set()
    total = 0
    for i, (yi, a0, a1) in enumerate(runs):
        for yj, b0, b1 in runs[i:]:
            dy = yj - yi
            for dx in range(b0 - a1 if dy else max(1, b0 - a1), b1 - a0 + 1):
                g = gcd(dx, dy)
                p, q = dx // g, dy // g
                if sizes is not None and q:
                    directions.add((p, q))
                if twice is None or twice % g:
                    continue
                t = twice // g
                lo, hi = max(a0, b0 - dx), min(a1, b1 - dx)
                if not q:
                    total += (hi - lo + 1) * (rows.get(yi + t, 0) + rows.get(yi - t, 0))
                    continue
                for yk, spans in by_row.items():
                    rise = p * (yk - yi)
                    for shifted in (rise - t, rise + t):
                        delta, rem = divmod(shifted, q)
                        if not rem:
                            for c0, c1 in spans:
                                overlap = min(hi, c1 - delta) - max(lo, c0 - delta)
                                if overlap >= 0:
                                    total += overlap + 1
    if sizes is not None:
        sizes.update(members for members in rows.values() if members > 1)
        for p, q in directions:
            residues = {}
            for yk, x0, x1 in runs:
                base, residue = divmod(p * yk, q)
                residues.setdefault(residue, []).append((base - x1, base - x0))
            for ends in residues.values():
                if len(ends) > 1:
                    events = sorted([(start, 1) for start, _ in ends] + [(end + 1, -1) for _, end in ends])
                    depth = 0
                    for (at, step), (following, _) in zip(events, events[1:]):
                        depth += step
                        if depth > 1 and following > at:
                            sizes[depth] += following - at
    assert total % 3 == 0
    return 0 if twice is None else total // 3


def oracle_row_runs(pts):
    """The maximal horizontal runs [y, x0, x1], ascending by (y, x0), from
    all the pairs sorted by (y, x): any order in, and no repeat checked."""
    runs = []
    for y, x in sorted((y, x) for x, y in pts):
        if runs and runs[-1][0] == y and runs[-1][2] == x - 1:
            runs[-1][2] = x
        else:
            runs.append([y, x, x])
    return runs


def oracle_class_sum(upper, lower, last):
    """The sum over m = 0..last of max(0, U(m) - L(m) + 1), for U the least
    and L the greatest of any number of lines (c, s): every crossing of two
    lines of one side cuts, and each piece is summed from its ends."""
    cuts = {-1, last}
    for lines in (upper, lower):
        for index, (c, s) in enumerate(lines):
            for c2, s2 in lines[index + 1 :]:
                if s != s2:
                    cut = (c2 - c) // (s - s2)
                    if 0 <= cut < last:
                        cuts.add(cut)
    ends = sorted(cuts)
    total = 0
    for before, end in zip(ends, ends[1:]):
        start = before + 1
        first = min([c + s * start for c, s in upper]) - max([c + s * start for c, s in lower]) + 1
        final = min([c + s * end for c, s in upper]) - max([c + s * end for c, s in lower]) + 1
        if first < 0 and final < 0:
            continue
        if first < 0 or final < 0:
            step = (final - first) // (end - start)
            if first < 0:
                start -= first // step
                first %= step
            else:
                end = start + first // -step
                final = first + step * (end - start)
        total += (first + final) * (end - start + 1) // 2
    return total


def _runs(pts, twice, sizes=None):
    """The row runs branch, with the signature of the other two."""
    return _run_count(_row_runs(pts), twice, sizes)


BRANCHES = (_runs, _pencil_count, _pair_count)


def kernel_member_counts(points):
    pts, _, scale = integer_points(points)
    pair_counts = Counter(key for _, _, key in pair_lines(pts))
    return {key_line(key, scale): members_from_pairs(pairs) for key, pairs in pair_counts.items()}


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestAgainstOracles:
    def test_pairline_equals_brute(self, family):
        @ORACLES
        @given(FAMILIES[family], AREAS)
        def check(points, drawn):
            for area in _areas_to_check(points, drawn):
                assert count_pairline(points, area) == count_brute(points, area)

        check()

    def test_member_counts_equal_fraction_lines(self, family):
        @ORACLES
        @given(FAMILIES[family], st.integers(2, 4))
        def check(points, k):
            expected = oracle_member_counts(points)
            assert kernel_member_counts(points) == expected
            assert {sl.line: len(sl.members) for sl in spanned_lines(points)} == expected
            for sl in spanned_lines(points):
                assert sl.members == tuple(sorted(p for p in points if sl.line.contains(p)))
            rich = [m for m in expected.values() if m >= k]
            stats = incidence_stats(points, k)
            assert (stats.m, stats.N) == (len(rich), sum(rich))

        check()

    def test_census_equals_brute_and_fraction_lines(self, family):
        @ORACLES
        @given(FAMILIES[family], st.integers(2, 4))
        def check(points, k):
            member_counts = oracle_member_counts(points)
            rich = [m for m in member_counts.values() if m >= k]
            for area in _areas_to_check(points, CENSUS_AREAS[0]) | set(CENSUS_AREAS):
                count, stats = census(points, k, area)
                assert (count, stats.m, stats.N) == (count_brute(points, area), len(rich), sum(rich))
                assert stats == stats_from_sizes(len(points), k, Counter(member_counts.values()))

        check()

    def test_both_census_branches_equal_brute_and_fraction_lines(self, family):
        """The row runs, the pencils and the pair table, called directly,
        whichever the dispatch would pick, with and without the line sizes.
        With no base, the row runs still size the lines."""

        @ORACLES
        @given(FAMILIES[family])
        def check(points):
            expected_sizes = Counter(oracle_member_counts(points).values())
            pts, _, scale = integer_points(points)
            for area in _areas_to_check(points, CENSUS_AREAS[0]) | set(CENSUS_AREAS):
                expected = count_brute(points, area)
                twice = _twice_area(area, scale)
                if twice is None:
                    sizes = Counter()
                    assert expected == 0 == _runs(pts, None, sizes)
                    assert sizes == expected_sizes
                    continue
                for branch in BRANCHES:
                    sizes = Counter()
                    assert branch(pts, twice) == branch(pts, twice, sizes) == expected
                    assert sizes == expected_sizes

        check()

    def test_tally_equals_cubic_enumeration(self, family):
        @ORACLES
        @given(FAMILIES[family], AREAS, st.sampled_from((F(0), F(1, 2), F(-2, 3))))
        def check(points, drawn, t):
            sheared = shear(points, t)
            for area in _areas_to_check(points, drawn):
                for k in (2, 3, 4):
                    assert tally_by_richness(sheared, k, area) == oracle_tally(sheared, k, area)

        check()


@pytest.mark.parametrize("family", sorted(MATCHING_FAMILIES))
def test_matching_probe_equals_sheared_scan(family):
    """The probe and the join, whichever the dispatch picks, on the unsheared
    set and on the sheared pairs, against the Fraction scan on the sheared copy."""

    @ORACLES
    @given(MATCHING_FAMILIES[family], SIGNED_AREAS, st.integers(2, 3), st.booleans())
    def check(points, drawn, k, require_q_in_s):
        sheared = shear(points, find_shear(points))
        pairs = incidence_pairs(sheared, k)
        pts, _, scale = integer_points(points)
        lines = rich_table(pts, k)
        tables = (
            (lines, set(pts) if require_q_in_s else None, scale),
            pair_incidences(pairs, sheared if require_q_in_s else None),
        )
        sign = 1 if drawn > 0 else -1
        for area in {sign * a for a in _areas_to_check(points, abs(drawn))}:
            expected = oracle_matching_pairs(pairs, area, require_q_in_s, sheared)
            assert matching_count(points, k, area, require_q_in_s) == (len(pairs), expected)
            assert count_matching_pairs(pairs, area, sheared if require_q_in_s else None) == expected
            for table, in_s, cleared in tables:
                for count in (probe_matching_on_lines, join_matching_on_lines):
                    assert count(table, area * cleared * cleared, in_s) == expected

    check()


@pytest.mark.parametrize("family", ["collinear", "huge", "rational"])
def test_one_line_gets_one_key(family):
    """`rich_table` of the cleared set and `pair_incidences` of its incidence
    pairs give every line the same key, with the same members in the same order."""

    @ORACLES
    @given(FAMILIES[family], st.integers(2, 4))
    def check(points, k):
        sheared = shear(points, find_shear(points))
        pts, _, scale = integer_points(sheared)
        lines, in_s, cleared = pair_incidences(incidence_pairs(sheared, k), sheared)
        assert (in_s, cleared) == (set(pts), scale)
        assert list(lines.items()) == ordered_table(pts, k, scale)
        assert lines == rich_table(pts, k)

    check()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ordered_table_sorts_by_the_canonical_line(family):
    @ORACLES
    @given(FAMILIES[family], st.integers(2, 3))
    def check(points, k):
        pts, _, scale = integer_points(points)
        table = ordered_table(pts, k, scale)
        lines = [key_line(key, scale) for key, _ in table]
        assert lines == sorted(lines) and len(table) == len(rich_table(pts, k))
        assert [key_triple(key, scale) for key, _ in table] == list(map(astuple, lines))

    check()


LARGER_SETS = {
    "lattice 150": gen_lattice_section(150),
    "grid 12x12": gen_grid(12, 12),
    "parallel 3x50": gen_parallel_lines(3, 50, 1),
    "random 120 seed 1": gen_random(120, 8, 1),
    "random 120 seed 2": gen_random(120, 8, 2),
}


@pytest.mark.parametrize("name", sorted(LARGER_SETS))
def test_census_branches_agree_on_larger_sets(name):
    """All three branches, with and without line sizes, on the set and on
    copies moved by a negative and by a huge offset, which change no count."""
    counts = {}
    for dx, dy in ((0, 0), (-37, -1000), (BIG, -(BIG**2))):
        pts, _, scale = integer_points([Point(p.x + dx, p.y + dy) for p in LARGER_SETS[name]])
        expected_sizes = line_sizes(pts)
        for area in (F(1, 2), F(1), F(3, 2)):
            twice = _twice_area(area, scale)
            for branch in BRANCHES:
                sizes = Counter()
                counts.setdefault(area, set()).update((branch(pts, twice), branch(pts, twice, sizes)))
                assert sizes == expected_sizes
    assert all(len(found) == 1 for found in counts.values()), counts


def test_row_runs_equal_the_pencils_on_a_wide_lattice_section():
    pts, _, scale = integer_points(gen_lattice_section(1600))
    expected_sizes = line_sizes(pts)
    for area in (F(1, 2), F(1), F(3, 2)):
        twice = _twice_area(area, scale)
        run_sizes, pencil_sizes = Counter(), Counter()
        assert _runs(pts, twice, run_sizes) == _pencil_count(pts, twice, pencil_sizes) > 0
        assert run_sizes == pencil_sizes == expected_sizes


STEP_SETS = {
    "lattice": [gen_lattice_section(n) for n in [*range(4, 101), *range(150, 1600, 50), 1600]],
    "parallel": [gen_parallel_lines(3, 20, spacing) for spacing in range(1, 8)],
}


def _assert_runs_equal_steps(pts, twices):
    runs = _row_runs(pts)
    for twice in twices:
        sizes, expected_sizes = Counter(), Counter()
        expected = oracle_run_count(runs, twice, expected_sizes)
        assert _run_count(runs, twice) == _run_count(runs, twice, sizes) == expected, (len(pts), twice)
        assert sizes == expected_sizes, (len(pts), twice)


def test_row_runs_equal_the_step_oracle_on_row_sets():
    @ORACLES
    @given(ROWS)
    def check(points):
        pts, _, _ = integer_points(points)
        _assert_runs_equal_steps(pts, (None, 1, 2, 3, 4, 6, 12, 60))

    check()


@pytest.mark.parametrize("family", sorted(STEP_SETS))
def test_row_runs_equal_the_step_oracle(family):
    """Lattice sections n = 4..1600 and parallel lines of spacing 1..7 at 2A
    from 1 to 2520, and for sets of up to 100 points also copies moved by a
    negative offset and by one above 2^64."""
    for points in STEP_SETS[family]:
        offsets = ((0, 0), (-37, -1000), (BIG, BIG + 1)) if len(points) <= 100 else ((0, 0),)
        for dx, dy in offsets:
            pts, _, _ = integer_points([Point(p.x + dx, p.y + dy) for p in points])
            _assert_runs_equal_steps(pts, (None, 1, 2, 3, 12, 120, 2520))


@pytest.mark.parametrize("gap", [2**64 + 1, 10**21])
def test_far_rows_equal_brute(monkeypatch, gap):
    """Two rows far apart, one of them split in two runs, where a walk over
    every residue mod dy would not end: the row runs, through the dispatch,
    still count and size every line exactly."""
    dispatched = []
    run_count = incidence._run_count
    monkeypatch.setattr(incidence, "_run_count", lambda *args: dispatched.append(args) or run_count(*args))
    points = [Point(x, 0) for x in [*range(10), *range(12, 20)]] + [Point(x, gap) for x in range(3, 15)]
    member_counts = oracle_member_counts(points)
    pts, _, scale = integer_points(points)
    for area in (F(1, 2), F(1), F(gap, 2), F(gap), F(3 * gap, 2), F(7 * gap, 2)):
        expected = count_brute(points, area)
        count, stats = census(points, 2, area)
        assert count == count_pairline(points, area) == expected
        assert stats == stats_from_sizes(len(points), 2, Counter(member_counts.values()))
        _assert_runs_equal_steps(pts, (None, _twice_area(area, scale)))
    assert len(dispatched) == 12
    assert count_brute(points, F(gap, 2)) > 0


@pytest.mark.parametrize("short, long", [(800, 3200), (6400, 102400)])
def test_row_run_work_does_not_grow_with_row_length(monkeypatch, short, long):
    """Lattice sections of one row count: the class sums run the same number
    of times whatever the rows' length. The count and line sizes of
    `gen_lattice_section(102400)` at area 1/2 are the step oracle's."""
    calls = []
    class_sum = incidence._class_sum
    monkeypatch.setattr(incidence, "_class_sum", lambda *args: calls.append(args) or class_sum(*args))
    counts = {}
    for n in (short, long):
        calls.clear()
        count, stats = census(gen_lattice_section(n), 2, F(1, 2))
        counts[n] = len(calls)
    assert counts[short] == counts[long] > 0
    if long == 102400:
        sizes = Counter({2: 1966080000, 3: 218453332, 4: 218453334, 25600: 4})
        assert (count, stats) == (6116539732, stats_from_sizes(long, 2, sizes))


# Three lines a side, with slopes from -3 to 3 so that equal slopes are
# common; sometimes the lower side takes the upper side's slopes, as in
# `_run_count`'s calls. All intercepts are sometimes moved below -2^64 or
# above 2^64, which changes no sum, and classes run to m = 10^21.
_LINE_TRIPLES = st.tuples(*[st.tuples(st.integers(-60, 60), st.integers(-3, 3))] * 3)


@st.composite
def _class_sum_inputs(draw):
    upper, lower = draw(_LINE_TRIPLES), draw(_LINE_TRIPLES)
    if draw(st.booleans()):
        lower = tuple((c, s) for (c, _), (_, s) in zip(lower, upper))
    shift = draw(st.sampled_from((0, -BIG, BIG)))
    last = draw(st.one_of(st.integers(0, 60), st.integers(0, 10**21)))
    return tuple((c + shift, s) for c, s in upper), tuple((c + shift, s) for c, s in lower), last


def _sum_by_steps(upper, lower, last):
    return sum(max(0, min(c + s * m for c, s in upper) - max(c + s * m for c, s in lower) + 1) for m in range(last + 1))


def test_class_sum_equals_the_generic_oracle():
    """And, for classes of up to 61 steps, the sum taken one m at a time."""

    @settings(ORACLES, max_examples=1000)
    @given(_class_sum_inputs())
    def check(drawn):
        expected = oracle_class_sum(*drawn)
        assert _class_sum(*drawn) == expected
        if drawn[2] <= 60:
            assert expected == _sum_by_steps(*drawn)

    check()


def test_class_sum_equals_the_generic_oracle_on_census_calls(monkeypatch):
    """Every class sum the census asks for on lattice sections, parallel
    lines and a dense random set, called through the row runs."""
    calls = []
    monkeypatch.setattr(incidence, "_class_sum", lambda *args: calls.append(args) or _class_sum(*args))
    for points in (gen_lattice_section(100), gen_lattice_section(800), gen_parallel_lines(3, 40, 2),
                   gen_random(50, 5, 1)):
        pts, _, scale = integer_points(points)
        for area in (F(1, 2), F(1), F(3, 2), F(6)):
            _runs(pts, _twice_area(area, scale))
    assert len(calls) > 1000
    assert [_class_sum(*args) for args in calls] == [oracle_class_sum(*args) for args in calls]


@st.composite
def _pair_sets(draw):
    """Distinct pairs on up to 4 rows, their x from -20 to 20 so that rows
    split into runs, the rows sometimes 10^21 apart; in any order."""
    gap = draw(st.sampled_from((1, 10**21)))
    rows = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
    row = st.sampled_from(rows).map(lambda y: y * gap)
    return draw(st.lists(st.tuples(st.integers(-20, 20), row), max_size=60, unique=True))


def test_row_runs_equal_the_sorting_oracle():
    """One pass over the sorted pairs gives the oracle's runs of the pairs in
    any order, and a repeated pair raises."""

    @settings(ORACLES, max_examples=500)
    @given(_pair_sets(), st.data())
    def check(pairs, data):
        pts = sorted(pairs)
        assert _row_runs(pts) == oracle_row_runs(pairs)
        if pts:
            with pytest.raises(DuplicatePoints):
                _row_runs(sorted([*pts, data.draw(st.sampled_from(pts))]))

    check()


def test_row_runs_reject_a_row_out_of_order():
    with pytest.raises(ValueError, match="not sorted"):
        _row_runs([(0, 1), (2, 0), (1, 0)])


RANDOM_40 = counting._random_pairs(40, 8, 1)
REPEATED = {
    "one row": [(0, 0), (1, 0), (1, 0), (2, 0)],
    "far rows": [(0, 5), (1, -(10**21)), (1, -(10**21)), (2, 10**21)],
    "random 40": sorted([*RANDOM_40, RANDOM_40[7]]),
}


@pytest.mark.parametrize("name", sorted(REPEATED))
def test_a_repeated_pair_raises_through_the_census(monkeypatch, name):
    """Through `census_of_pairs` with and without an area, whichever branch
    the dispatch would pick, and through `scaling_experiment`, which keeps
    no hash set of its own."""
    pts = REPEATED[name]
    for area in (None, F(1, 2), F(1)):
        with pytest.raises(DuplicatePoints):
            census_of_pairs(pts, 1, 2, area)
    monkeypatch.setattr(counting, "_generate", lambda kind, n, seed: pts[::-1])
    with pytest.raises(DuplicatePoints):
        scaling_experiment("random", [len(pts)])


def test_row_sets_with_gaps_equal_brute_and_fraction_lines(monkeypatch):
    """Few rows of runs, through the dispatch and through the row runs
    called directly, against `count_brute` and the Fraction lines."""
    dispatched = []
    run_count = incidence._run_count
    monkeypatch.setattr(incidence, "_run_count", lambda *args: dispatched.append(args) or run_count(*args))
    reached = []

    @ORACLES
    @given(ROWS, st.integers(2, 4))
    def check(points, k):
        dispatched.clear()
        member_counts = oracle_member_counts(points)
        rich = [m for m in member_counts.values() if m >= k]
        pts, _, scale = integer_points(points)
        for area in _areas_to_check(points, CENSUS_AREAS[0]) | set(CENSUS_AREAS):
            expected = count_brute(points, area)
            count, stats = census(points, k, area)
            assert (count, stats.m, stats.N) == (expected, len(rich), sum(rich))
            assert count_pairline(points, area) == expected
            sizes = Counter()
            twice = _twice_area(area, scale)
            assert _runs(pts, twice) == _runs(pts, twice, sizes) == expected
            assert sizes == Counter(member_counts.values())
        reached.append(bool(dispatched))

    check()
    assert sum(reached) >= 30, f"the dispatch picked the row runs on {sum(reached)} of {len(reached)} sets"


TRANSPOSE_FAMILIES = {**FAMILIES, "rows": ROWS}


@pytest.mark.parametrize("family", sorted(TRANSPOSE_FAMILIES))
def test_transpose_keeps_the_census(family):
    """The census may read the columns as the rows of the transposed pairs:
    a transpose keeps every |cross|, so the count, and every line size,
    whichever branch each side takes. The row sets' transposes take the
    columns; some copies are moved above 2^64."""

    @ORACLES
    @given(TRANSPOSE_FAMILIES[family], AREAS, st.sampled_from(((0, 0), (BIG, -(BIG**2)))))
    def check(points, drawn, offset):
        pts, _, scale = integer_points([Point(p.x + offset[0], p.y + offset[1]) for p in points])
        transposed = sorted((y, x) for x, y in pts)
        for area in _areas_to_check(points, drawn) | {None}:
            twice = None if area is None else _twice_area(area, scale)
            sizes, transposed_sizes = Counter(), Counter()
            assert incidence._count(pts, twice, sizes) == incidence._count(transposed, twice, transposed_sizes)
            assert sizes == transposed_sizes

    check()


@pytest.mark.parametrize(
    "name, points, branch",
    [
        ("lattice", gen_lattice_section(200), "runs"),
        ("grid", gen_grid(14, 14), "runs"),
        ("parallel", gen_parallel_lines(3, 60, 1), "runs"),
        ("random, scaling bound", gen_random(200, 30, 1), "pair table"),
        ("random, dense", gen_random(120, 8, 1), "pair table"),
        ("tall grid, by its columns", gen_grid(100, 16), "runs"),
        ("random, denser", gen_random(200, 7, 1), "pencils"),
    ],
)
def test_dispatch_picks_one_branch_per_set(monkeypatch, name, points, branch):
    """The branch that answers each count; the pencils answer None when over
    their limit. The tall grid has 100 rows but 16 columns."""
    answered = []
    for attr, label in (("_run_count", "runs"), ("_pencil_count", "pencils"), ("_pair_count", "pair table")):

        def spy(*args, _kernel=getattr(incidence, attr), _label=label):
            count = _kernel(*args)
            if count is not None:
                answered.append(_label)
            return count

        monkeypatch.setattr(incidence, attr, spy)
    for area in (F(1, 2), F(1)):
        assert census(points, 2, area)[0] == count_pairline(points, area)
    assert answered == [branch] * 4


@pytest.mark.parametrize("k", [2, 3])
def test_join_equals_probe_on_a_lattice_section(k):
    pts, _, _ = integer_points(gen_lattice_section(60))
    lines = rich_table(pts, k)
    for area in (F(1, 2), F(1)):
        for in_s in (set(pts), None):
            assert join_matching_on_lines(lines, area, in_s) == probe_matching_on_lines(lines, area, in_s)


def test_key_line_is_the_canonical_line():
    points = [Point(F(1, 2), F(1, 3)), Point(F(3, 2), F(-1, 3)), Point(F(5, 2), -1)]
    pts, _, scale = integer_points(points)
    [(_, _, key)] = list(pair_lines(pts[:2]))
    assert scale == 6
    assert key_line(key, scale) == line_through(points[0], points[1]) == Line(2, 3, -2)
    assert key_triple(key, scale) == (2, 3, -2)


def test_non_triangular_pair_count_raises():
    assert members_from_pairs(6) == 4
    with pytest.raises(InvariantViolation):
        members_from_pairs(5)


def test_line_sizes_must_hold_every_pair_once():
    # Four points: six 2-point lines, or one 3-point line and three 2-point lines.
    assert (stats_from_sizes(4, 2, Counter({2: 6})).m, stats_from_sizes(4, 3, Counter({3: 1, 2: 3})).N) == (6, 3)
    for sizes in (Counter({2: 5}), Counter({3: 1, 2: 4}), Counter({4: 1, 2: 1})):
        with pytest.raises(InvariantViolation):
            stats_from_sizes(4, 2, sizes)
