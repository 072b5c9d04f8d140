"""Spans recorded around the package's public functions, from outside the package.

The tracer rebinds a function in the module that looks it up (for example
`equiarea.counting.incidence_stats`, which `scaling_experiment` calls), so
the package itself is not edited. Each call leaves one span: its name, start,
end, the span that was open when it began, the exception it raised, and a few
counts taken from its arguments and result. Spans stay in memory until the
run ends. Hot primitives such as `line_through` are not wrapped; the work
they do is counted from the outputs of the functions that call them.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

LAYERS = ("counting", "incidence", "matching", "geometry", "polynomial", "curves", "cli")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    error: str | None = None
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _pairline_counts(args, result) -> dict[str, int]:
    return {"point_pairs": math.comb(len(args[0]), 2), "triangles": result}


def _stats_counts(args, result) -> dict[str, int]:
    return {"rich_lines": result.m, "incidences": result.N}


def _matching_counts(args, result) -> dict[str, int]:
    n = len(args[0])
    return {"candidates": n * (n - 1), "matches": result}


def _bound(args, result) -> dict[str, int]:
    return {"bound": result.upper_bound}


def _degree(args, result) -> dict[str, int]:
    return {"degree": result.degree}


# (module the caller looks the name up in, attribute, span name, counts).
# A function called from two modules is wrapped in both under one span name.
TRACED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli", "main", "cli.main", None),
    ("cli", "scaling_experiment", "counting.scaling_experiment", None),
    ("counting", "count_pairline", "counting.count_pairline", _pairline_counts),
    ("counting", "incidence_stats", "incidence.incidence_stats", _stats_counts),
    ("counting", "matching_identity_check", "counting.matching_identity_check", None),
    ("counting", "tally_by_richness", "counting.tally_by_richness", None),
    ("counting", "count_matching_pairs", "matching.count_matching_pairs", _matching_counts),
    ("counting", "find_shear", "geometry.find_shear", None),
    ("counting", "shear", "geometry.shear", None),
    ("incidence", "incidence_pairs", "incidence.incidence_pairs", None),
    ("curves", "incidence_pairs", "incidence.incidence_pairs", None),
    ("curves", "find_shear", "geometry.find_shear", None),
    ("curves", "shear", "geometry.shear", None),
    ("curves", "bezout_scan", "curves.bezout_scan", None),
    ("curves", "k310_scan", "curves.k310_scan", None),
    ("curves", "match_curve", "curves.match_curve", None),
    ("curves", "reconstruct_generators", "curves.reconstruct_generators", None),
    ("curves", "has_linear_factor", "curves.has_linear_factor", None),
    ("curves", "asymptotes", "curves.asymptotes", None),
    ("curves", "asymptote_convergence_probe", "curves.asymptote_convergence_probe", None),
    ("curves", "curve_intersection_bound", "curves.curve_intersection_bound", _bound),
    ("curves", "triple_common_points", "curves.triple_common_points", _bound),
    ("curves", "sylvester_resultant_y", "polynomial.sylvester_resultant_y", _degree),
    ("curves", "count_real_roots", "polynomial.count_real_roots", None),
    ("curves", "rational_roots", "polynomial.rational_roots", None),
    ("polynomial", "rational_roots", "polynomial.rational_roots", None),
)

# The two functions whose results make up each scan trial's bound. The
# untraced run wraps only these, to build the bound histogram its digest needs.
SCAN_RESULTS = tuple(entry for entry in TRACED if entry[2] in (
    "curves.curve_intersection_bound", "curves.triple_common_points"))


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, counts: Callable | None) -> Callable:
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), open_[-1] if open_ else None)
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                open_.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, entries=TRACED) -> Iterator["Tracer"]:
        """Rebind each entry's function to its wrapper; restore them on exit."""
        originals = []
        try:
            for module_name, attr, name, counts in entries:
                module = importlib.import_module(f"equiarea.{module_name}")
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, counts))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def trial_bounds(spans: list[Span]) -> list[int]:
    """Each scan trial's bound, in trial order, read off the spans.

    A Bezout trial is one `curve_intersection_bound` call outside any
    `triple_common_points` call; a K_{3,10} trial is the last
    `triple_common_points` call of its draw (earlier ones raised
    DegenerateTriple and were redrawn). A shared component scores 0, as the
    scans themselves score it.
    """
    bounds = []
    for span in spans:
        inside_triple = span.parent is not None and spans[span.parent].name == "curves.triple_common_points"
        if span.name == "curves.triple_common_points" or (
            span.name == "curves.curve_intersection_bound" and not inside_triple
        ):
            if span.error is None:
                bounds.append(span.counts["bound"])
            elif span.error == "InfiniteSharedComponent":
                bounds.append(0)
    return bounds


def _root(spans: list[Span], index: int) -> Span:
    while spans[index].parent is not None:
        index = spans[index].parent
    return spans[index]


def layer_metrics(spans: list[Span], pass_seconds: float) -> dict[str, float]:
    """Per-function self times, per-layer self times, counts and ratios.

    A span's self time is its duration minus the durations of its child
    spans; calls are sequential, so children never overlap.
    """
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds
    selfs = [span.seconds - child for span, child in zip(spans, child_seconds)]

    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name in {entry[2] for entry in TRACED}:
        out[f"{name}.s"] = 0.0
        out[f"{name}.calls"] = 0
    for name in ("scan", "algebra"):
        out[f"polynomial.rational_roots.{name}.s"] = 0.0
        out[f"polynomial.rational_roots.{name}.calls"] = 0
    totals = {key: 0 for key in ("point_pairs", "triangles", "rich_lines", "incidences",
                                 "candidates", "matches")}
    degenerate = shared = 0
    max_degree = 0
    for index, (span, self_s) in enumerate(zip(spans, selfs)):
        out[f"{span.layer}.self_s"] += self_s
        out[f"{span.name}.s"] += self_s
        out[f"{span.name}.calls"] += 1
        for key, value in span.counts.items():
            if key in totals:
                totals[key] += value
        if span.name == "polynomial.rational_roots":
            half = "scan" if _root(spans, index).name in ("curves.bezout_scan", "curves.k310_scan") else "algebra"
            out[f"polynomial.rational_roots.{half}.s"] += self_s
            out[f"polynomial.rational_roots.{half}.calls"] += 1
        if span.name == "polynomial.sylvester_resultant_y" and span.error is None:
            max_degree = max(max_degree, span.counts["degree"])
        if span.error == "DegenerateTriple":
            degenerate += 1
        if span.error == "InfiniteSharedComponent" and span.name == "curves.curve_intersection_bound":
            shared += 1

    out["counting.point_pairs"] = totals["point_pairs"]
    out["counting.triangles"] = totals["triangles"]
    out["incidence.rich_lines"] = totals["rich_lines"]
    out["incidence.incidences"] = totals["incidences"]
    out["matching.candidates"] = totals["candidates"]
    out["matching.matches"] = totals["matches"]
    out["matching.hit_ratio"] = totals["matches"] / totals["candidates"] if totals["candidates"] else 0.0
    out["polynomial.resultant_degree.max"] = max_degree
    triples = out["curves.triple_common_points.calls"]
    out["curves.triple_common_points.degenerate"] = degenerate
    out["curves.triple_useful_ratio"] = (triples - degenerate) / triples if triples else 0.0
    out["curves.shared_component"] = shared
    bounds = trial_bounds(spans)
    for value in range(10):
        out[f"curves.bound_hist.{value}"] = bounds.count(value)
    covered = sum(span.seconds for span in spans if span.parent is None)
    out["trace.coverage"] = covered / pass_seconds if pass_seconds > 0 else 0.0
    out["trace.spans"] = len(spans)
    return out
