"""The integer K_{3,10} trial and the integer match curve against their
Fraction oracles, and the scans' per-trial bounds pinned.

`curves._sheared_incidences` finds the trial's shear on integer points and
lists the incidences from `incidence.rich_table`; its list, parametrized,
must be `incidence_pairs(shear(points, find_shear(points)), 2)` in content and
order, since the trial draws its generators by index. `match_curve` builds
the curve from the generators' cleared values, and `CurveCase.bundle` divides
the same integer forms back; the Fraction `make_bundle` of `bivariate_oracle`
gives the oracle bundle, its product the oracle curve, and `Line.contains` the
oracle tag. Examples are derandomized, so every run draws the same inputs.
"""

from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from equiarea import curves
from equiarea.curves import CurveTag, ScanReport, bezout_scan, k310_scan, match_curve
from equiarea.geometry import Point, find_shear, shear
from equiarea.incidence import incidence_pairs
from equiarea.matching import IncidencePairParam

from bivariate_oracle import make_bundle
from test_cubic_kit import PARAM, any_pairs, general_pairs, oracle_match_coeffs, point_on_line_pairs

ORACLES = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


# ---------------------------------------------------------------------------
# The incidence list of the K_{3,10} trial


def oracle_incidences(pts: list[tuple[int, int]]) -> list[IncidencePairParam]:
    points = [Point(x, y) for x, y in pts]
    return incidence_pairs(shear(points, find_shear(points)), 2)


def integer_incidences(pts: list[tuple[int, int]]) -> list[IncidencePairParam]:
    incidences, j = curves._sheared_incidences(pts)
    return [curves._incidence_param(incidence, j) for incidence in incidences]


COORD = st.integers(-6, 6)
GRID_SETS = st.sets(st.tuples(COORD, COORD), min_size=2, max_size=14).map(sorted)


@st.composite
def shared_x_sets(draw):
    """Few columns, so that shearing by 1, 1/2, ... keeps failing for a while."""
    pts = sorted(draw(st.sets(st.tuples(st.integers(-1, 1), COORD), min_size=3, max_size=14)))
    assume(find_shear([Point(x, y) for x, y in pts]) not in (0, 1))
    return pts


@st.composite
def collinear_sets(draw):
    """Up to three rows of points, vertical ones included, plus a few strays."""
    pts = set(draw(st.sets(st.tuples(COORD, COORD), max_size=3)))
    for _ in range(draw(st.integers(1, 3))):
        x0, y0 = draw(COORD), draw(COORD)
        dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2), (3, 2)]))
        pts.update((x0 + t * dx, y0 + t * dy) for t in range(draw(st.integers(2, 7))))
    return sorted(pts)


@ORACLES
@given(st.one_of(GRID_SETS, shared_x_sets(), collinear_sets()))
def test_sheared_incidences_match_the_fraction_path(pts):
    assert integer_incidences(pts) == oracle_incidences(pts)
    t = find_shear([Point(x, y) for x, y in pts])
    assert t in (0, F(1, curves._sheared_incidences(pts)[1]))


def test_shear_search_on_integers():
    assert curves._sheared_incidences([(0, 0), (1, 2), (2, -1)])[1] == 1
    # j*x + y collides for j = 1, 2, 3, 4 and first separates the points at 5.
    column = [(0, y) for y in range(4)] + [(1, -1)]
    incidences, j = curves._sheared_incidences(column)
    assert j == 5
    assert find_shear([Point(x, y) for x, y in column]) == F(1, 5)
    assert integer_incidences(column) == oracle_incidences(column)
    # The column's line holds four points, and each line to (1, -1) two.
    assert len(incidences) == 4 + 4 * 2


# ---------------------------------------------------------------------------
# The integer match curve


def oracle_case(q1: IncidencePairParam, q2: IncidencePairParam):
    """Tag and coefficients from the Fraction bundle, as `match_curve` had them."""
    if q1.point == q2.point:
        return CurveTag.EMPTY, None
    if q1.line == q2.line:
        return CurveTag.UNDEFINED, None
    if q1.line.contains(q2.point):
        tag = CurveTag.POINT_ON_LINE_1
    elif q2.line.contains(q1.point):
        tag = CurveTag.POINT_ON_LINE_2
    else:
        tag = CurveTag.GENERAL
    return tag, oracle_match_coeffs(q1, q2)


@st.composite
def degenerate_pairs(draw):
    """A shared point with two slopes, or a shared line with two points."""
    a, b, k1, k2, da = (draw(PARAM) for _ in range(5))
    assume(k1 != k2 and da != 0)
    q1 = IncidencePairParam.from_triple(a, b, k1)
    if draw(st.booleans()):
        return q1, IncidencePairParam.from_triple(a, b, k2)
    return q1, IncidencePairParam.from_triple(a + da, b + k1 * da, k1)


@ORACLES
@given(st.one_of(general_pairs(), point_on_line_pairs(), any_pairs(), degenerate_pairs()), st.booleans())
def test_match_curve_matches_the_fraction_bundle(pair, swap):
    q1, q2 = pair[::-1] if swap else pair
    case = match_curve(q1, q2)
    tag, coeffs = oracle_case(q1, q2)
    assert case.tag is tag
    assert (case.curve.coeffs if case.curve else None) == coeffs
    assert case.bundle == (make_bundle(q1, q2) if coeffs else None)


# ---------------------------------------------------------------------------
# Per-trial bounds of both scans, as the Fraction trial path gave them.

BEZOUT_BOUNDS = {
    1: [5, 2, 3, 8, 4, 6, 3, 3, 3, 2, 1, 5, 6, 3, 7, 4, 3, 4, 5, 5, 5, 7, 3, 3, 3, 3, 5, 7, 2, 5,
        7, 5, 9, 7, 3, 3, 7, 3, 4, 2, 3, 3, 5, 3, 5, 2, 4, 2, 1, 3, 4, 1, 4, 3, 1, 6, 1, 5, 2, 5],
    2: [4, 3, 5, 6, 5, 5, 3, 2, 3, 7, 7, 6, 5, 4, 6, 3, 2, 6, 1, 1, 3, 3, 6, 3, 3, 1, 1, 3, 3, 3,
        5, 5, 3, 3, 3, 4, 6, 2, 1, 1, 3, 6, 3, 1, 7, 3, 1, 1, 3, 3, 7, 3, 2, 5, 3, 1, 7, 5, 6, 1],
    3: [5, 7, 4, 5, 7, 6, 4, 3, 5, 1, 3, 7, 3, 5, 4, 3, 1, 7, 2, 2, 5, 3, 3, 5, 7, 1, 3, 5, 2, 5,
        4, 1, 3, 3, 5, 4, 4, 5, 3, 2, 3, 2, 1, 3, 5, 3, 1, 7, 6, 1, 5, 2, 1, 4, 3, 3, 9, 4, 1, 3],
}
K310_BOUNDS = {
    1: [4, 4, 4, 0, 0, 4, 3, 4, 4, 0, 4, 4, 4, 2, 0, 3, 2, 2, 2, 4, 0, 0, 2, 6, 6, 2, 6, 0, 0, 4,
        4, 3, 6, 4, 0, 4, 0, 2, 2, 6, 2, 6, 6, 0, 6, 0, 0, 6, 2, 3, 3, 2, 4, 2, 2, 2, 4, 6, 3, 2],
    2: [3, 6, 3, 4, 0, 0, 2, 2, 4, 4, 0, 4, 0, 0, 2, 4, 6, 0, 4, 0, 6, 4, 4, 2, 0, 4, 6, 0, 4, 0,
        4, 4, 2, 2, 6, 0, 4, 6, 0, 6, 0, 6, 2, 2, 0, 4, 2, 4, 4, 2, 2, 2, 4, 4, 6, 0, 0, 6, 2, 2],
    3: [4, 3, 2, 4, 0, 6, 0, 2, 0, 6, 0, 4, 2, 0, 2, 0, 4, 6, 2, 0, 2, 0, 2, 2, 4, 0, 2, 4, 2, 3,
        0, 2, 6, 2, 2, 2, 0, 0, 1, 1, 0, 0, 5, 2, 6, 4, 4, 4, 4, 0, 4, 2, 0, 2, 6, 0, 2, 4, 2, 0],
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scan_trial_bounds_are_pinned(seed):
    assert [curves._bezout_trial(seed, i) for i in range(60)] == [(b, False) for b in BEZOUT_BOUNDS[seed]]
    assert [curves._k310_trial(seed, i) for i in range(60)] == [(b, False) for b in K310_BOUNDS[seed]]
    assert bezout_scan(60, seed) == ScanReport(60, max(BEZOUT_BOUNDS[seed]), 0)
    assert k310_scan(60, seed) == ScanReport(60, max(K310_BOUNDS[seed]), 0)
