"""Command-line front end.

Thin adapters only: every subcommand parses flags, calls one library
function, and prints CSV or JSON. Exit codes: 0 success, 1 for a violated
structural invariant (a counterexample, not a bug in the invocation), 2 for
usage or input-file errors.

The curve commands (`curve`, `reconstruct`, `bezout`, `k310-scan`) import
`curves`, and with it `polynomial`, when they run, so the counting commands
and `--help` start without them.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .counting import (
    experiment_csv,
    gen_grid,
    gen_lattice_section,
    gen_parallel_lines,
    gen_random,
    count_brute,
    count_pairline,
    matching_count,
    scaling_experiment,
    tally_by_richness,
)
from .geometry import GeometryError, InvariantViolation, parse_rational
from .incidence import incidence_stats, rich_lines
from .matching import IncidencePairParam
from .pointset import PointFileError, read_points, read_text

log = logging.getLogger("equiarea")


def _parse_pair(text: str) -> IncidencePairParam:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'a,b,kappa', got {text!r}")
    a, b, kappa = (parse_rational(p) for p in parts)
    return IncidencePairParam.from_triple(a, b, kappa)


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "lattice":
        points = gen_lattice_section(args.n)
    elif args.kind == "random":
        points = gen_random(args.n, args.bound, args.seed)
    elif args.kind == "grid":
        points = gen_grid(args.rows, args.cols)
    else:
        points = gen_parallel_lines(args.lines, args.per_line, args.spacing)
    _write_output("".join(f"{p.x} {p.y}\n" for p in points), args.out)
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    points = read_points(args.input)
    area = parse_rational(args.area)
    counter = count_brute if args.method == "brute" else count_pairline
    print(counter(points, area))
    return 0


def cmd_rich_lines(args: argparse.Namespace) -> int:
    lines = rich_lines(read_points(args.input), args.k)
    print("A,B,C,members")
    for sl in lines:
        print(f"{sl.line.A},{sl.line.B},{sl.line.C},{len(sl.members)}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    points = read_points(args.input)
    st = incidence_stats(points, args.k)
    print("n,k,m,N,ratio_m,ratio_N")
    print(f"{st.n},{st.k},{st.m},{st.N},{float(st.ratio_m)!r},{float(st.ratio_N)!r}")
    return 0


def cmd_matching(args: argparse.Namespace) -> int:
    points = read_points(args.input)
    area = parse_rational(args.area)
    incidences, m = matching_count(points, args.k, area, args.require_q_in_s)
    print("n,k,A,N,M")
    print(f"{len(points)},{args.k},{area},{incidences},{m}")
    return 0


def cmd_tally(args: argparse.Namespace) -> int:
    points = read_points(args.input)
    area = parse_rational(args.area)
    t = tally_by_richness(points, args.k, area)
    print("n,k,area,total,T0,T1,T2,T3")
    print(f"{len(points)},{args.k},{area},{t.total},{t.T0},{t.T1},{t.T2},{t.T3}")
    return 0


def _curve_document(pair1: IncidencePairParam, pair2: IncidencePairParam) -> dict:
    from . import curves

    case = curves.match_curve(pair1, pair2)
    doc: dict = {"case": case.tag.value, "coefficients": None, "bundle": None, "asymptotes": None}
    if case.curve is None:
        return doc
    doc["coefficients"] = case.curve.coefficient_list()
    doc["bundle"] = {name: [str(c) for c in v] if isinstance(v, tuple) else str(v) for name, v in case.bundle.items()}
    try:
        doc["asymptotes"] = [[l.A, l.B, l.C] for l in curves.asymptotes(case.curve)]
    except curves.NonSimpleFactorUnsupported as exc:
        log.warning("asymptotes unavailable: %s", exc)
    return doc


def cmd_curve(args: argparse.Namespace) -> int:
    pair1 = _parse_pair(args.pair1)
    pair2 = _parse_pair(args.pair2)
    doc = _curve_document(pair1, pair2)
    _write_output(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_reconstruct(args: argparse.Namespace) -> int:
    from . import curves

    try:
        doc = json.loads(read_text(args.input))
    except json.JSONDecodeError as exc:
        raise PointFileError(args.input, exc.lineno, f"not JSON: {exc.msg} (column {exc.colno})") from exc
    try:
        if isinstance(doc, dict) and "coefficients" not in doc:
            raise ValueError('curve document has no "coefficients" field')
        entries = doc["coefficients"] if isinstance(doc, dict) else doc
        if entries is None:
            raise ValueError('"coefficients" is null: the document holds no curve')
        q1, q2 = curves.reconstruct_generators(curves.BivariateCubic.from_coefficient_list(entries))
    except (ValueError, curves.CurveError) as exc:
        raise ValueError(f"{args.input}: {exc}") from exc
    for q in (q1, q2):
        print(f"{q.a} {q.b} {q.kappa}")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    from . import curves

    report = getattr(curves, args.scan)(args.trials, args.seed, args.threads)
    print(f"trials,{args.column},violations")
    print(f"{report.trials},{report.max_value},{report.violations}")
    if report.violations:
        raise InvariantViolation(f"{report.violations} {args.violation}")
    return 0


def _parse_sizes(text: str) -> list[int]:
    """The comma-separated integers of --sizes; an empty or non-integer field
    raises ValueError, naming the field."""
    sizes = []
    for index, field in enumerate(text.split(","), start=1):
        try:
            sizes.append(int(field))
        except ValueError:
            raise ValueError(f"--sizes field {index} is not an integer: {field!r}") from None
    return sizes


def cmd_scaling(args: argparse.Namespace) -> int:
    sizes = _parse_sizes(args.sizes)
    area = None if args.area is None else parse_rational(args.area)
    rows = scaling_experiment(args.kind, sizes, k=args.k, area=area, seed=args.seed)
    _write_output(experiment_csv(rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equiarea",
        description="Exact counting and curve machinery for fixed-area triangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a point set")
    p.add_argument("--kind", choices=("lattice", "random", "grid", "parallel"), required=True)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=12)
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=3)
    p.add_argument("--lines", type=int, default=3)
    p.add_argument("--per-line", type=int, default=5)
    p.add_argument("--spacing", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("count", help="count fixed-area triangles")
    p.add_argument("--input", required=True)
    p.add_argument("--area", default="1")
    p.add_argument("--method", choices=("brute", "pairline"), default="pairline")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("rich-lines", help="list lines holding at least k points")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(func=cmd_rich_lines)

    p = sub.add_parser("stats", help="rich-line and incidence statistics")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("matching", help="count ordered matching pairs")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--area", default="1")
    p.add_argument("--require-q-in-s", action="store_true")
    p.set_defaults(func=cmd_matching)

    p = sub.add_parser("tally", help="richness tally of fixed-area triangles")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--area", default="1")
    p.set_defaults(func=cmd_tally)

    p = sub.add_parser("curve", help="derive the match curve of two pairs")
    p.add_argument("--pair1", required=True, metavar="a,b,kappa")
    p.add_argument("--pair2", required=True, metavar="a,b,kappa")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("reconstruct", help="recover the generators of a curve")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_reconstruct)

    for name, help_text, scan, column, violation in (
        ("bezout", "random curve-pair intersection scan", "bezout_scan",
         "max_upper_bound", "curve pairs exceeded 9 intersections"),
        ("k310-scan", "random surface-triple incidence scan", "k310_scan",
         "max_common_points", "surface triples exceeded 9 common points"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--trials", type=int, default=500)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        p.set_defaults(func=cmd_scan, scan=scan, column=column, violation=violation)

    p = sub.add_parser("scaling", help="size sweep with the pair-line counter")
    p.add_argument("--kind", choices=("lattice", "random", "grid", "parallel"), default="lattice")
    p.add_argument("--sizes", default="100,200,400,800")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--area", default=None, help="target area; defaults to 1/2 for lattice, 1 otherwise")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scaling)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1
    except PointFileError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (GeometryError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
