"""Exact-arithmetic toolkit for triangles of a fixed area.

Counts them two independent ways, classifies them by top-line richness,
evaluates the oriented matching predicate on parametrized incidence pairs,
and analyzes the cubic curves those pairs generate, including exact asymptote
extraction, generator reconstruction, and exact intersection bounds.
"""

from .geometry import (
    DuplicatePoints,
    GeometryError,
    IdenticalLines,
    IdenticalPoints,
    InvariantViolation,
    Line,
    ParallelLines,
    Point,
    VerticalLine,
    find_shear,
    intersect,
    line_through,
    parse_rational,
    shear,
    signed_area2,
)
from .incidence import (
    IncidenceStats,
    SpannedLine,
    VerticalLinePresent,
    incidence_pairs,
    incidence_stats,
    rich_lines,
    spanned_lines,
)
from .matching import (
    DegenerateTriangle,
    IncidencePairParam,
    ParallelSlopes,
    PointNotOnLine,
    TriangleRichness,
    classify_triangle,
    count_matching_on_lines,
    count_matching_pairs,
    matches_ccw,
    matches_cw,
    third_vertex,
    to_param,
    top_lines,
)
from .curves import (
    AmbiguousMedian,
    BivariateCubic,
    CurveCase,
    CurveIntersection,
    CurveTag,
    DegenerateTriple,
    InfiniteSharedComponent,
    LeadingFormFactors,
    NoBranch,
    NonSimpleFactorUnsupported,
    NotAMatchCurve,
    SamePair,
    ScanReport,
    TripleCommonPoints,
    asymptote_convergence_probe,
    asymptotes,
    bezout_scan,
    curve_intersection_bound,
    has_linear_factor,
    k310_scan,
    leading_form_factors,
    match_curve,
    reconstruct_generators,
    triple_common_points,
)
from .counting import (
    ExperimentRow,
    MatchingIdentityReport,
    RichnessTally,
    Unsatisfiable,
    ZeroArea,
    count_brute,
    count_pairline,
    experiment_csv,
    fixed_area_triangles,
    gen_grid,
    gen_lattice_section,
    gen_parallel_lines,
    gen_random,
    matching_count,
    matching_identity_check,
    mode_area,
    scaling_experiment,
    tally_by_richness,
)
from .pointset import PointFileError, parse_points, read_points, write_points

__version__ = "0.1.0"
