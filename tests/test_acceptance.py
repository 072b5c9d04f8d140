"""Acceptance suite.

One test per criterion, each printing a PASS line when it completes (run with
`pytest tests/test_acceptance.py -v -s` to watch them). Tolerances and trial
counts are pinned here; nothing is deferred to later calibration.
"""

import io
import random
import time
import tracemalloc
from fractions import Fraction as F

from equiarea.counting import (
    count_brute,
    count_pairline,
    gen_grid,
    gen_lattice_section,
    gen_random,
    matching_identity_check,
    scaling_experiment,
)
from equiarea.curves import (
    BivariateCubic,
    CurveTag,
    asymptote_convergence_probe,
    asymptotes,
    bezout_scan,
    has_linear_factor,
    k310_scan,
    match_curve,
    random_general_position_pair,
    random_point_on_line_pair,
    reconstruct_generators,
)
from equiarea.geometry import (
    IdenticalLines,
    Line,
    ParallelLines,
    intersect,
    shear,
    signed_area2,
)
from equiarea.incidence import incidence_stats
from equiarea.matching import IncidencePairParam, matches_ccw, matches_cw

from bivariate_oracle import BivariatePoly


def _report(number: int, label: str) -> None:
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    areas = (F(1), F(1, 2), F(3), F(7, 2))
    for seed in range(50):
        n = 5 + round(55 * seed / 49)
        points = gen_random(n, 12, seed)
        for area in areas:
            assert count_pairline(points, area) == count_brute(points, area), (seed, area)
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"oracle sweep took {elapsed:.1f}s"
    _report(1, "pair-line counter equals brute force on 50 sets x 4 areas")


def test_criterion_02_predicate_consistency():
    def geometric(p1, p2, area, clockwise=False):
        try:
            o = intersect(p1.line, p2.line)
        except (ParallelLines, IdenticalLines):
            return False
        target = -2 * area if clockwise else 2 * area
        return signed_area2(o, p1.point, p2.point) == target

    rng = random.Random(20)
    areas = (F(1), F(1, 2), F(3), F(7, 2))
    checked = 0
    for i in range(10_000):
        q1 = IncidencePairParam.from_triple(
            F(rng.randint(-8, 8), rng.choice((1, 2))),
            F(rng.randint(-8, 8), rng.choice((1, 2))),
            F(rng.randint(-8, 8), rng.choice((1, 2))),
        )
        q2 = IncidencePairParam.from_triple(
            F(rng.randint(-8, 8), rng.choice((1, 2))),
            F(rng.randint(-8, 8), rng.choice((1, 2))),
            F(rng.randint(-8, 8), rng.choice((1, 2))),
        )
        area = areas[i % 4]
        assert matches_ccw(q1, q2, area) == geometric(q1, q2, area)
        assert matches_cw(q1, q2, area) == geometric(q1, q2, area, clockwise=True)
        checked += 1
    assert checked == 10_000
    _report(2, "algebraic predicate equals intersection-plus-area on 10^4 pairs")


def test_criterion_03_matching_identity():
    failures = []
    for name, points in (("grid3", gen_grid(3, 3)), ("grid4", gen_grid(4, 4))):
        for k in (2, 3, 4):
            report = matching_identity_check(points, k, 1)
            if not report.holds:
                failures.append((name, k, report))
    for seed in range(30):
        points = gen_random(20, 8, 1000 + seed)
        for k in (2, 3, 4):
            report = matching_identity_check(points, k, 1)
            if not report.holds:
                failures.append((seed, k, report))
    assert not failures, failures
    _report(3, "M = 3*T3 + T2 on grids and 30 random sets, k in {2,3,4}")


def test_criterion_04_reconstruction_round_trip():
    started = time.perf_counter()
    rng = random.Random(40)
    for _ in range(500):
        q1, q2 = random_general_position_pair(rng)
        case = match_curve(q1, q2)
        assert case.tag is CurveTag.GENERAL
        assert reconstruct_generators(case.curve) == tuple(sorted((q1, q2)))
    for _ in range(100):
        q1, q2 = random_point_on_line_pair(rng)
        case = match_curve(q1, q2)
        assert case.tag is CurveTag.POINT_ON_LINE_1
        assert reconstruct_generators(case.curve) == tuple(sorted((q1, q2)))
    same_point = match_curve(
        IncidencePairParam.from_triple(2, 3, 1), IncidencePairParam.from_triple(2, 3, 4)
    )
    assert same_point.tag is CurveTag.EMPTY
    same_line = match_curve(
        IncidencePairParam.from_triple(0, 1, 1), IncidencePairParam.from_triple(2, 3, 1)
    )
    assert same_line.tag is CurveTag.UNDEFINED
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"round trips took {elapsed:.1f}s"
    _report(4, "500 general + 100 squared-line reconstructions, all exact")


def test_criterion_05_asymptote_exactness():
    rng = random.Random(50)
    for _ in range(500):
        q1, q2 = random_general_position_pair(rng)
        joining = Line(q2.b - q1.b, -(q2.a - q1.a), q2.a * q1.b - q1.a * q2.b)
        expected = sorted({q1.line, q2.line, joining})
        assert asymptotes(match_curve(q1, q2).curve) == expected
    for _ in range(100):
        q1, q2 = random_point_on_line_pair(rng)
        assert asymptotes(match_curve(q1, q2).curve) == sorted({q1.line, q2.line})
    # Numeric convergence at the documented 1/x rate.
    taus = [10**3, 10**4, 10**5, 10**6]
    probed = [
        match_curve(
            IncidencePairParam.from_triple(0, 0, 0), IncidencePairParam.from_triple(1, 2, 1)
        ).curve
    ]
    probe_rng = random.Random(51)
    for _ in range(20):
        q1, q2 = random_general_position_pair(probe_rng, bound=3)
        probed.append(match_curve(q1, q2).curve)
    for curve in probed:
        line = asymptotes(curve)[0]
        distances = asymptote_convergence_probe(curve, line, taus)
        assert all(a > b for a, b in zip(distances, distances[1:])), distances
        assert distances[-1] < 1e-4, distances
    _report(5, "asymptotes exactly the generating lines; probe decays below 1e-4")


def test_criterion_06_irreducibility():
    rng = random.Random(60)
    for _ in range(140):
        q1, q2 = random_general_position_pair(rng)
        assert has_linear_factor(match_curve(q1, q2).curve) is None
    for _ in range(60):
        q1, q2 = random_point_on_line_pair(rng)
        # Slope gap is nonzero by construction, so these stay irreducible.
        assert has_linear_factor(match_curve(q1, q2).curve) is None
    for _ in range(10):
        # Zero slope gap: the squared-line equation factors as line * hyperbola.
        cx = F(rng.randint(1, 5))
        cy = F(rng.randint(-4, 4))
        c0 = F(rng.randint(-4, 4))
        line_form = BivariatePoly.linear(cx, cy, c0)
        other = BivariatePoly.linear(F(rng.randint(1, 3)), F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        product = line_form * (line_form * other + BivariatePoly.constant(1))
        found = has_linear_factor(BivariateCubic.from_ints(product.slots()))
        assert found == Line(cx, cy, c0)
    _report(6, "no linear factor on 200 generated curves; planted factor recovered")


def test_criterion_07_bezout_and_k310():
    started = time.perf_counter()
    bez = bezout_scan(500, seed=0)
    assert bez.violations == 0, bez
    assert bez.max_value <= 9
    k310 = k310_scan(500, seed=0)
    assert k310.violations == 0, k310
    assert k310.max_value <= 9
    elapsed = time.perf_counter() - started
    assert elapsed < 600, f"scans took {elapsed:.1f}s"
    _report(7, "500 curve pairs and 500 surface triples all bounded by 9")


def test_criterion_08_lattice_trend():
    started = time.perf_counter()
    rows = scaling_experiment("lattice", [100, 200, 400, 800], k=2)
    # scaling_experiment only logs a drop of count/n^2; on this sweep there is none.
    ratios = [F(r.count, r.n * r.n) for r in rows]
    assert all(a <= b for a, b in zip(ratios, ratios[1:])), ratios
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"lattice sweep took {elapsed:.1f}s"
    # The default sweep's rows, pinned: (n, count, m, N).
    assert [(r.n, r.count, r.m, r.N) for r in rows] == [
        (100, 5442, 2247, 5132),
        (200, 21977, 8914, 20233),
        (400, 88442, 35647, 80532),
        (800, 354577, 142314, 320933),
    ]
    _report(8, "lattice count/n^2 non-decreasing over n = 100..800")


def test_criterion_08_lattice_count_stores_no_pair_table():
    # A table of the C(400, 2) = 79 800 point pairs alone takes several MiB.
    points = gen_lattice_section(400)
    tracemalloc.start()
    try:
        count = count_pairline(points, F(1, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 88442
    assert peak < 2**20, f"count_pairline peaked at {peak / 2**20:.2f} MiB"


def test_criterion_08_wide_lattice_row():
    # The pencils take about 15-18 s here; the row runs well under one.
    points = gen_lattice_section(6400)
    started = time.perf_counter()
    count = count_pairline(points, F(1, 2))
    elapsed = time.perf_counter() - started
    assert count == 23883732
    assert elapsed < 5, f"count_pairline took {elapsed:.1f}s"


def test_criterion_09_incidence_bound_and_ratios():
    import math

    out = io.StringIO()
    out.write("n,k,m,N,ratio_m,ratio_N\n")
    instances = [gen_grid(3, 3), gen_grid(4, 4), gen_grid(5, 5), gen_lattice_section(50)]
    instances += [gen_random(30, 9, seed) for seed in range(10)]
    rows = 0
    for points in instances:
        for k in (2, 3, 4, 5):
            st = incidence_stats(points, k)  # raises on a bound violation
            assert st.m * math.comb(k, 2) <= math.comb(st.n, 2)
            out.write(
                f"{st.n},{st.k},{st.m},{st.N},{float(st.ratio_m)!r},{float(st.ratio_N)!r}\n"
            )
            rows += 1
    csv = out.getvalue()
    assert csv.count("\n") == rows + 1
    _report(9, "m*C(k,2) <= C(n,2) everywhere; ratios emitted as CSV diagnostics")


def test_criterion_10_shear_invariance():
    shears = (F(1), F(1, 2), F(2))
    for seed in range(20):
        points = gen_random(12, 9, 2000 + seed)
        brute = count_brute(points, 1)
        pairline = count_pairline(points, 1)
        matches = matching_identity_check(points, 2, 1).M
        for t in shears:
            moved = shear(points, t)
            assert count_brute(moved, 1) == brute
            assert count_pairline(moved, 1) == pairline
            assert matching_identity_check(moved, 2, 1).M == matches
    _report(10, "counts and M invariant under shears 1, 1/2, 2 on 20 sets")
