"""The package root: its public names load on first use, and the CLI loads
the curve modules only for the curve commands. Import-graph checks run in a
fresh interpreter, since this one has imported everything already."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equiarea

SRC = Path(equiarea.__file__).resolve().parents[1]

# Each public name of `equiarea`, with the submodule that defines it.
PUBLIC = {
    "geometry": [
        "DuplicatePoints", "GeometryError", "IdenticalLines", "IdenticalPoints", "InvariantViolation",
        "Line", "ParallelLines", "Point", "VerticalLine", "ZeroArea", "find_shear", "intersect",
        "line_through", "parse_rational", "shear", "signed_area2",
    ],
    "incidence": [
        "IncidenceStats", "RichnessTally", "SpannedLine", "VerticalLinePresent", "count_pairline",
        "incidence_pairs", "incidence_stats", "rich_lines", "spanned_lines", "tally_by_richness",
    ],
    "matching": [
        "DegenerateTriangle", "IncidencePairParam", "ParallelSlopes", "PointNotOnLine", "TriangleRichness",
        "classify_triangle", "count_matching_on_lines", "count_matching_pairs", "matches_ccw",
        "matches_cw", "third_vertex", "to_param", "top_lines",
    ],
    "curves": [
        "AmbiguousMedian", "BivariateCubic", "CurveCase", "CurveIntersection", "CurveTag",
        "DegenerateTriple", "InfiniteSharedComponent", "LeadingFormFactors", "NoBranch",
        "NonSimpleFactorUnsupported", "NotAMatchCurve", "SamePair", "ScanReport", "TripleCommonPoints",
        "asymptote_convergence_probe", "asymptotes", "bezout_scan", "curve_intersection_bound",
        "has_linear_factor", "k310_scan", "leading_form_factors", "match_curve",
        "reconstruct_generators", "triple_common_points",
    ],
    "counting": [
        "ExperimentRow", "MatchingIdentityReport", "Unsatisfiable", "count_brute", "experiment_csv",
        "fixed_area_triangles", "gen_grid", "gen_lattice_section", "gen_parallel_lines", "gen_random",
        "matching_count", "matching_identity_check", "mode_area", "scaling_experiment",
    ],
    "pointset": ["PointFileError", "parse_points", "read_points", "write_points"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)
SUBMODULES = ["cli", "counting", "curves", "geometry", "incidence", "matching", "pointset", "polynomial"]
SUBCOMMANDS = ["gen", "count", "rich-lines", "stats", "matching", "tally", "curve", "reconstruct",
               "bezout", "k310-scan", "scaling"]
CURVE_MODULES = ["equiarea.curves", "equiarea.polynomial"]


def fresh(code: str) -> dict:
    """Run `code` in a new interpreter importing from this checkout; it prints one JSON object."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def test_public_names_are_listed_once():
    assert len(NAMES) == len(set(NAMES)) == 81


@pytest.mark.parametrize("name", NAMES)
def test_name_is_its_home_modules_object(name):
    home = next(module for module, names in PUBLIC.items() if name in names)
    assert getattr(equiarea, name) is getattr(importlib.import_module(f"equiarea.{home}"), name)


def test_all_and_dir_list_the_names():
    assert sorted(equiarea.__all__) == NAMES
    assert set(NAMES) | set(SUBMODULES) <= set(dir(equiarea))
    assert equiarea.__version__ == "0.1.0"


def test_star_import_binds_every_name():
    namespace = {}
    exec("from equiarea import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        equiarea.no_such_name


def test_import_loads_no_submodule():
    loaded = fresh("import json, sys, equiarea\n"
                   "print(json.dumps(sorted(m for m in sys.modules if m.startswith('equiarea'))))")
    assert loaded == ["equiarea"]


def test_counting_commands_and_help_leave_the_curve_modules_out(tmp_path):
    out = str(tmp_path / "scaling.csv")
    code = f"""
import contextlib, io, json, sys
import equiarea.cli
codes = [equiarea.cli.main(["scaling", "--sizes", "8,16", "--out", {out!r}])]
for argv in [["--help"]] + [[name, "--help"] for name in {SUBCOMMANDS!r}]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            equiarea.cli.main(argv)
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps({{"codes": codes, "loaded": sorted(m for m in {CURVE_MODULES!r} if m in sys.modules)}}))
"""
    assert fresh(code) == {"codes": [0] * 13, "loaded": []}
    assert Path(out).read_text().startswith("generator,n,k,area,count,")


def test_scan_command_loads_the_curve_modules():
    code = f"""
import contextlib, io, json, sys
import equiarea.cli
before = sorted(m for m in {CURVE_MODULES!r} if m in sys.modules)
with contextlib.redirect_stdout(io.StringIO()) as out:
    status = equiarea.cli.main(["bezout", "--trials", "1"])
after = sorted(m for m in {CURVE_MODULES!r} if m in sys.modules)
print(json.dumps({{"before": before, "after": after, "status": status, "out": out.getvalue()}}))
"""
    # The lines the eagerly importing CLI printed for this scan.
    assert fresh(code) == {"before": [], "after": CURVE_MODULES, "status": 0,
                           "out": "trials,max_upper_bound,violations\n1,3,0\n"}
