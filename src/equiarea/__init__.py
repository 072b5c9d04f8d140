"""Exact-arithmetic toolkit for triangles of a fixed area.

Counts them two independent ways, classifies them by top-line richness,
evaluates the oriented matching predicate on parametrized incidence pairs,
and analyzes the cubic curves those pairs generate, including exact asymptote
extraction, generator reconstruction, and exact intersection bounds.

`import equiarea` loads no submodule. Each public name below, and each
submodule, is imported on its first access (PEP 562), so a caller pays only
for the modules it uses: the counters never load the curve algebra.
"""

import importlib

__version__ = "0.1.0"

# Each public name under the submodule that defines it.
_HOMES = {
    "geometry": (
        "DuplicatePoints", "GeometryError", "IdenticalLines", "IdenticalPoints", "InvariantViolation",
        "Line", "ParallelLines", "Point", "VerticalLine", "ZeroArea", "find_shear", "intersect",
        "line_through", "parse_rational", "shear", "signed_area2",
    ),
    "incidence": (
        "IncidenceStats", "RichnessTally", "SpannedLine", "VerticalLinePresent", "count_pairline",
        "incidence_pairs", "incidence_stats", "rich_lines", "spanned_lines", "tally_by_richness",
    ),
    "matching": (
        "DegenerateTriangle", "IncidencePairParam", "ParallelSlopes", "PointNotOnLine", "TriangleRichness",
        "classify_triangle", "count_matching_on_lines", "count_matching_pairs", "matches_ccw",
        "matches_cw", "third_vertex", "to_param", "top_lines",
    ),
    "curves": (
        "AmbiguousMedian", "BivariateCubic", "CurveCase", "CurveIntersection", "CurveTag",
        "DegenerateTriple", "InfiniteSharedComponent", "LeadingFormFactors", "NoBranch",
        "NonSimpleFactorUnsupported", "NotAMatchCurve", "SamePair", "ScanReport", "TripleCommonPoints",
        "asymptote_convergence_probe", "asymptotes", "bezout_scan", "curve_intersection_bound",
        "has_linear_factor", "k310_scan", "leading_form_factors", "match_curve",
        "reconstruct_generators", "triple_common_points",
    ),
    "counting": (
        "ExperimentRow", "MatchingIdentityReport", "Unsatisfiable", "count_brute", "experiment_csv",
        "fixed_area_triangles", "gen_grid", "gen_lattice_section", "gen_parallel_lines", "gen_random",
        "matching_count", "matching_identity_check", "mode_area", "scaling_experiment",
    ),
    "pointset": ("PointFileError", "parse_points", "read_points", "write_points"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("cli", "counting", "curves", "geometry", "incidence", "matching", "pointset", "polynomial")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the submodule behind `name`; a public name is kept as a module global."""
    if name in _SUBMODULES:
        # Importing a submodule binds it on the package.
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
