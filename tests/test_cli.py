"""CLI adapters: wiring, exit codes, deterministic output."""

import hashlib
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from equiarea import counting, curves
from equiarea.cli import _int_flag, build_parser, main
from equiarea.counting import MatchingIdentityReport, RichnessTally
from equiarea.curves import match_curve
from equiarea.matching import IncidencePairParam


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_square(tmp_path):
    path = tmp_path / "sq.txt"
    path.write_text("0 0\n1 0\n0 1\n1 1\n")
    return str(path)


class TestGenAndCount:
    def test_gen_to_count_pipeline(self, capsys, tmp_path):
        out_file = str(tmp_path / "grid.txt")
        code, _, _ = run(capsys, "gen", "--kind", "grid", "--rows", "2", "--cols", "2", "--out", out_file)
        assert code == 0
        code, out, _ = run(capsys, "count", "--input", out_file, "--area", "1/2", "--method", "brute")
        assert code == 0 and out.strip() == "4"
        code, out, _ = run(capsys, "count", "--input", out_file, "--area", "1/2", "--method", "pairline")
        assert code == 0 and out.strip() == "4"

    def test_methods_agree_on_lattice(self, capsys, tmp_path):
        out_file = str(tmp_path / "lat.txt")
        run(capsys, "gen", "--kind", "lattice", "--n", "40", "--out", out_file)
        _, brute, _ = run(capsys, "count", "--input", out_file, "--area", "1/2", "--method", "brute")
        _, pairline, _ = run(capsys, "count", "--input", out_file, "--area", "1/2", "--method", "pairline")
        assert brute == pairline

    def test_gen_random_deterministic(self, capsys):
        _, a, _ = run(capsys, "gen", "--kind", "random", "--n", "10", "--seed", "3")
        _, b, _ = run(capsys, "gen", "--kind", "random", "--n", "10", "--seed", "3")
        assert a == b


# sha256 of `equiarea gen` output, pinned from the generators that built Points directly.
GEN_DIGESTS = {
    ("--kind", "lattice", "--n", "40"): "b5f4a5f144ed640e1375b694e3d8c5be499da58962e776b1ad2bdcfeb757ae5a",
    ("--kind", "random", "--n", "40", "--bound", "14", "--seed", "40"):
        "989b11fac80fd79b5a357a34101f7639cdccff64116ddf0b7443dbdd7ef8056b",
    ("--kind", "random", "--n", "300", "--bound", "12", "--seed", "7"):
        "f60f7fa1795d3b0f2798360bf817b66660323b6403f918079f8c0e1c1c5699cd",
    ("--kind", "grid", "--rows", "6", "--cols", "6"): "6e6cbdfc0bf5b5fcee05b0516d123dd8576464a129b6c2adcacb15ad540e8495",
    ("--kind", "parallel", "--lines", "3", "--per-line", "20", "--spacing", "7"):
        "29fdf24cabac9e56e5b6b482da9902aab404ad68cc54c65b21cc976deab1b92e",
}


class TestGenRandomBound:
    @pytest.mark.parametrize("n, bound", [("1", "-1"), ("3", "-5"), ("2", "-1")])
    def test_negative_bound_exits_two(self, capsys, n, bound):
        # Before the check these reached randrange, or counted (2*bound + 1)^2 cells.
        expected = (2, "", f"error: coordinate bound must be non-negative, got {bound}\n")
        assert run(capsys, "gen", "--kind", "random", "--n", n, "--bound", bound) == expected

    def test_zero_bound_is_one_cell(self, capsys):
        assert run(capsys, "gen", "--kind", "random", "--n", "1", "--bound", "0") == (0, "0 0\n", "")
        assert run(capsys, "gen", "--kind", "random", "--n", "2", "--bound", "0") == (
            2, "", "error: cannot place 2 distinct points in 1 cells\n")


class TestGenBytes:
    @pytest.mark.parametrize("argv", list(GEN_DIGESTS), ids=" ".join)
    def test_stdout_and_file_are_pinned(self, capsys, tmp_path, argv):
        code, out, _ = run(capsys, "gen", *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == GEN_DIGESTS[argv]
        path = tmp_path / "gen.txt"
        assert run(capsys, "gen", *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()


class TestStatsAndMatching:
    def test_stats_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, "stats", "--input", write_square(tmp_path), "--k", "2")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "n,k,m,N,ratio_m,ratio_N"
        assert lines[1].startswith("4,2,6,12,")

    def test_matching_handles_vertical_lines(self, capsys, tmp_path):
        # The square spans two vertical lines; the integer probe needs no shear.
        code, out, _ = run(
            capsys, "matching", "--input", write_square(tmp_path), "--k", "2", "--require-q-in-s"
        )
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "n,k,A,N,M"
        assert lines[1] == "4,2,1,12,0"

    @pytest.mark.parametrize(
        "area, flags, row",
        [("1", (), "9,3,1,24,36"), ("1", ("--require-q-in-s",), "9,3,1,24,16"), ("-1/2", (), "9,3,-1/2,24,40")],
    )
    def test_matching_on_vertical_rich_lines(self, capsys, tmp_path, area, flags, row):
        # Columns of the 3x3 grid are rich vertical lines; the counts equal the
        # Fraction scan over a sheared copy of the grid.
        path = tmp_path / "grid.txt"
        path.write_text("".join(f"{x} {y}\n" for y in range(3) for x in range(3)))
        code, out, _ = run(capsys, "matching", "--input", str(path), "--k", "3", f"--area={area}", *flags)
        assert code == 0
        assert out == f"n,k,A,N,M\n{row}\n"

    def test_matching_zero_area_exits_two(self, capsys, tmp_path):
        code, out, err = run(capsys, "matching", "--input", write_square(tmp_path), "--area", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_tally_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, "tally", "--input", write_square(tmp_path), "--k", "2", "--area", "1/2")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "n,k,area,total,T0,T1,T2,T3"
        fields = lines[1].split(",")
        assert fields[3] == "4"

    def test_rich_lines(self, capsys, tmp_path):
        code, out, _ = run(capsys, "rich-lines", "--input", write_square(tmp_path), "--k", "2")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "A,B,C,members"
        assert len(lines) == 7  # 6 spanned lines on the square


def bundle_doc(l1, l2, l3, l4, l5, l6, c, s):
    forms = dict(zip(("L1", "L2", "L3", "L4", "L5", "L6"), (l1, l2, l3, l4, l5, l6)))
    return {**forms, "C": c, "D": l6[0], "E": l6[1], "F": l6[2], "s": s}


# The whole `curve` document per argument list, recorded from the CLI before
# the bundle became a mapping; the expected stdout is the document dumped with
# indent 2 and a trailing newline, as the CLI prints it.
CURVE_DOCUMENTS = {
    ("--pair1", "0,0,0", "--pair2", "1,2,1"): {
        "case": "general",
        "coefficients": [[2, 1, "2"], [1, 2, "-3"], [0, 3, "1"], [1, 1, "2"], [0, 2, "-1"], [1, 0, "4"],
                         [0, 1, "-6"], [0, 0, "8"]],
        "bundle": bundle_doc(["0", "1", "0"], ["-1", "1", "-1"], ["2", "-1", "0"], ["-1", "1", "0"],
                             ["0", "1", "-2"], ["-2", "3", "-2"], "-1", "1"),
        "asymptotes": [[0, 1, 0], [1, -1, 1], [2, -1, 0]],
    },
    ("--pair1", "0,0,0", "--pair2", "1,0,1"): {
        "case": "point_on_line_1",
        "coefficients": [[1, 2, "1"], [0, 3, "-1"], [0, 2, "-1"], [0, 1, "-2"], [0, 0, "-4"]],
        "bundle": bundle_doc(["0", "1", "0"], ["-1", "1", "1"], ["0", "-1", "0"], ["-1", "1", "0"],
                             ["0", "1", "0"], ["0", "-1", "0"], "-1", "-1"),
        "asymptotes": [[0, 1, 0], [1, -1, -1]],
    },
    ("--pair1", "1,0,1", "--pair2", "0,0,0"): {
        "case": "point_on_line_2",
        "coefficients": [[1, 2, "1"], [0, 3, "-1"], [0, 2, "-1"], [0, 1, "-2"], [0, 0, "-4"]],
        "bundle": bundle_doc(["-1", "1", "1"], ["0", "1", "0"], ["0", "1", "0"], ["0", "1", "0"],
                             ["-1", "1", "0"], ["0", "1", "0"], "1", "0"),
        "asymptotes": [[0, 1, 0], [1, -1, -1]],
    },
    ("--pair1", "0,0,0", "--pair2", "0,0,1"): {
        "case": "empty", "coefficients": None, "bundle": None, "asymptotes": None,
    },
    ("--pair1", "0,0,1", "--pair2", "1,1,1"): {
        "case": "undefined", "coefficients": None, "bundle": None, "asymptotes": None,
    },
    ("--pair1", "0,0,0", "--pair2=-7/2,1/3,-2/5"): {
        "case": "general",
        "coefficients": [[2, 1, "12"], [1, 2, "156"], [0, 3, "315"], [1, 1, "32"], [0, 2, "336"], [1, 0, "24"],
                         [0, 1, "-132"], [0, 0, "208"]],
        "bundle": bundle_doc(["0", "1", "0"], ["2/5", "1", "16/15"], ["1/3", "7/2", "0"], ["2/5", "1", "0"],
                             ["0", "1", "-1/3"], ["2/15", "-11/15", "16/45"], "2/5", "-16/15"),
        "asymptotes": [[0, 1, 0], [2, 21, 0], [6, 15, 16]],
    },
}


class TestCurveRoundTrip:
    def test_curve_then_reconstruct(self, capsys, tmp_path):
        curve_file = str(tmp_path / "curve.json")
        code, _, _ = run(capsys, "curve", "--pair1", "0,0,0", "--pair2", "1,2,1", "--out", curve_file)
        assert code == 0
        doc = json.loads(open(curve_file).read())
        assert doc["case"] == "general"
        assert doc["bundle"]["C"] == "-1"
        assert [0, 1, 0] in doc["asymptotes"]
        code, out, _ = run(capsys, "reconstruct", "--in", curve_file)
        assert code == 0
        assert out == "0 0 0\n1 2 1\n"

    def test_degenerate_curve_document(self, capsys, tmp_path):
        curve_file = str(tmp_path / "empty.json")
        code, _, _ = run(capsys, "curve", "--pair1", "0,0,0", "--pair2", "0,0,1", "--out", curve_file)
        assert code == 0
        doc = json.loads(open(curve_file).read())
        assert doc["case"] == "empty"
        assert doc["coefficients"] is None
        code, _, err = run(capsys, "reconstruct", "--in", curve_file)
        assert code == 2 and "no curve" in err

    def test_negative_pair_attached_with_equals(self, capsys):
        # argparse reads a separate value that starts with "-" as an option.
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--pair1", "0,0,0", "--pair2", "-7/2,1/3,-2/5"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run(capsys, "curve", "--pair1", "0,0,0", "--pair2=-7/2,1/3,-2/5")
        assert code == 0 and err == ""
        case = match_curve(
            IncidencePairParam.from_triple(0, 0, 0), IncidencePairParam.from_triple(F(-7, 2), F(1, 3), F(-2, 5))
        )
        doc = json.loads(out)
        assert doc["case"] == case.tag.value == "general"
        assert doc["coefficients"] == case.curve.coefficient_list()
        bundle = case.bundle
        assert doc["bundle"]["L6"] == [str(c) for c in bundle["L6"]]
        assert doc["bundle"]["C"] == str(bundle["C"]) and doc["bundle"]["s"] == str(bundle["s"])

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "curve", "--pair1", "0,0,0", "--pair2", "1,0,1")
        assert code == 0
        assert json.loads(out)["case"] == "point_on_line_1"

    @pytest.mark.parametrize("argv", list(CURVE_DOCUMENTS), ids=" ".join)
    def test_curve_stdout_is_pinned(self, capsys, argv):
        code, out, _ = run(capsys, "curve", *argv)
        assert code == 0
        assert out == json.dumps(CURVE_DOCUMENTS[argv], indent=2) + "\n"


class TestScans:
    def test_bezout_small(self, capsys):
        code, out, _ = run(capsys, "bezout", "--trials", "5", "--seed", "0")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "trials,max_upper_bound,violations"
        trials, max_bound, violations = lines[1].split(",")
        assert trials == "5" and int(max_bound) <= 9 and violations == "0"

    def test_k310_small(self, capsys):
        code, out, _ = run(capsys, "k310-scan", "--trials", "5", "--seed", "0")
        lines = out.strip().split("\n")
        assert code == 0
        trials, max_pts, violations = lines[1].split(",")
        assert trials == "5" and int(max_pts) <= 9 and violations == "0"

    def test_threads_do_not_change_results(self, capsys):
        for scan in ("bezout", "k310-scan"):
            _, serial, _ = run(capsys, scan, "--trials", "6", "--seed", "1")
            _, parallel, _ = run(capsys, scan, "--trials", "6", "--seed", "1", "--threads", "2")
            assert serial == parallel

    def test_a_bound_above_nine_exits_one(self, capsys, monkeypatch):
        # Exit 1 means a counterexample: here one trial reports 10 intersections.
        monkeypatch.setattr(curves, "_bezout_trial", lambda seed, index: (10, True) if index == 1 else (4, False))
        code, out, err = run(capsys, "bezout", "--trials", "3")
        assert (code, out) == (1, "trials,max_upper_bound,violations\n3,10,1\n")
        assert err == "invariant violated: 1 curve pairs exceeded 9 intersections\n"

    @pytest.mark.parametrize("threads", ["0", "-2"])
    @pytest.mark.parametrize("scan", ["bezout", "k310-scan"])
    def test_threads_below_one_exit_two(self, capsys, scan, threads):
        code, out, err = run(capsys, scan, "--trials", "3", "--threads", threads)
        assert code == 2 and out == "" and "threads must be at least 1" in err


class TestScaling:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "scaling", "--kind", "lattice", "--sizes", "16,32", "--k", "2")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0].startswith("generator,n,k,area,count")
        assert len(lines) == 3
        assert lines[1].split(",")[3] == "1/2"

    def test_deterministic_modulo_seconds(self, capsys):
        def strip_seconds(text):
            rows = []
            for line in text.strip().split("\n"):
                cells = line.split(",")
                rows.append(",".join(cells[:12] + cells[13:]))
            return rows

        _, a, _ = run(capsys, "scaling", "--kind", "random", "--sizes", "10,20", "--seed", "2")
        _, b, _ = run(capsys, "scaling", "--kind", "random", "--sizes", "10,20", "--seed", "2")
        assert strip_seconds(a) == strip_seconds(b)

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ("", "--sizes field 1 is not an integer: ''"),
            ("100,,200", "--sizes field 2 is not an integer: ''"),
            ("100,200,", "--sizes field 3 is not an integer: ''"),
            ("100,2e2", "--sizes field 2 is not an integer: '2e2'"),
            # int() reads other scripts' digits and `_` separators; the flag does not.
            ("\u0661\u0660,2_0", "--sizes field 1 is not an integer: '\u0661\u0660'"),
            ("10,2_0", "--sizes field 2 is not an integer: '2_0'"),
        ],
    )
    def test_bad_size_field_exits_two(self, capsys, sizes, message):
        assert run(capsys, "scaling", "--sizes", sizes) == (2, "", f"error: {message}\n")

    def test_sizes_keep_their_ascii_forms(self, capsys):
        def rows(sizes):
            code, out, err = run(capsys, "scaling", "--kind", "random", "--sizes", sizes)
            assert (code, err) == (0, "")
            return [line.rsplit(",", 2)[0] for line in out.splitlines()]

        assert rows(" 8,+12 ") == rows("8,12")

    def test_a_failed_identity_exits_one(self, capsys, monkeypatch):
        failed = MatchingIdentityReport(1, 0, 0, False, RichnessTally(0, 0, 0, 0))
        monkeypatch.setattr(counting, "matching_identity_check", lambda points, k, area: failed)
        code, out, err = run(capsys, "scaling", "--sizes", "8")
        assert (code, out, err) == (1, "", "invariant violated: matching identity failed at n=8\n")

    @pytest.mark.parametrize("kind, size", [("lattice", -3), ("random", -1), ("grid", -3), ("parallel", -1)])
    def test_negative_size_exits_two(self, capsys, kind, size):
        # Before the check, grid and random reached math.isqrt(n) and printed its message.
        expected = (2, "", f"error: sizes must be non-negative, got {size}\n")
        assert run(capsys, "scaling", "--kind", kind, "--sizes", str(size)) == expected
        # A list that starts with "-" must be attached with "=", or argparse reads it as a flag.
        assert run(capsys, "scaling", "--kind", kind, f"--sizes={size},12") == expected

    @pytest.mark.parametrize(
        "kind, sizes, rows",
        [
            ("lattice", "4,5", ["lattice,4,2,1/2,4,6,12,4,0,0,4,0", "lattice,5,2,1/2,7,8,17,9,0,0,6,1"]),
            ("random", "0,1,5", ["random,0,2,1,0,0,0,0,0,0,0,0", "random,1,2,1,0,0,0,0,0,0,0,0",
                                 "random,5,2,1,1,10,20,0,1,0,0,0"]),
            ("grid", "1,3,5", ["grid,1,2,1,0,0,0,0,0,0,0,0", "grid,3,2,1,0,1,3,0,0,0,0,0",
                               "grid,5,2,1,2,8,17,0,0,2,0,0"]),
            ("parallel", "1,3,5", ["parallel,1,2,1,0,0,0,0,0,0,0,0", "parallel,3,2,1,0,1,3,0,0,0,0,0",
                                   "parallel,5,2,1,2,8,17,0,0,2,0,0"]),
        ],
    )
    def test_smallest_sizes_are_pinned(self, capsys, kind, sizes, rows):
        code, out, _ = run(capsys, "scaling", "--kind", kind, "--sizes", sizes)
        assert code == 0
        assert [line.rsplit(",", 2)[0] for line in out.splitlines()[1:]] == rows


# Malformed curve documents and their pinned messages, after the "<file>: " prefix.
MALFORMED_CURVE_MESSAGES = {
    '{"case": "general"}': 'curve document has no "coefficients" field',
    '{"coefficients": null}': '"coefficients" is null: the document holds no curve',
    '{"coefficients": 5}': "coefficients must be a list of [i, j, value] entries, not 5",
    '{"coefficients": [[3, 0]]}': 'coefficient entry [3, 0] is not [i, j, "n/d"] with integers i, j',
    '{"coefficients": []}': "zero polynomial is not a curve",
    '[[1, 1, "0"]]': "zero polynomial is not a curve",
    '[[1, 1, "1/2"], [1, 1, "-1/2"]]': "zero polynomial is not a curve",
    '[[4, 0, "1"]]': "monomial x^4 y^0 out of range",
    '[[3, 0, 0.1], [0, 0, "1"]]': 'coefficient entry [3, 0, 0.1] is not [i, j, "n/d"] with integers i, j',
    '[[true, 0, "1"], [3, 0, "1"]]': "coefficient entry [True, 0, '1'] is not [i, j, \"n/d\"] with integers i, j",
    '[[3, 0, "1.5"], [0, 0, "1"]]': "not a rational 'n' or 'n/d': '1.5'",
}

# Well-formed curve documents whose cubic is no match curve, and the
# messages `reconstruct_generators` gives, after the "<file>: " prefix.
NOT_A_MATCH_CURVE_MESSAGES = {
    '{"coefficients": [[3, 0, "1"]]}': "triple linear factor",
    '[[3, 0, "1"], [0, 3, "1"]]': "leading form does not split into three lines",
}


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "count", "--input", "/nonexistent/pts.txt", "--area", "1")
        assert code == 2 and err

    def test_parse_error_cites_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n1 1\nbad line here\n")
        code, _, err = run(capsys, "count", "--input", str(path), "--area", "1")
        assert code == 2
        assert ":3:" in err

    @pytest.mark.parametrize(
        "argv",
        [["count", "--area", "1"], ["stats"], ["rich-lines"], ["matching"], ["tally"]],
        ids=lambda argv: argv[0],
    )
    def test_repeated_point_cites_line(self, capsys, tmp_path, argv):
        # 2/4 and 1/2 are one value, so line 3 repeats line 1.
        path = tmp_path / "dup.txt"
        path.write_text("1/2 0\n1 1\n2/4 0\n")
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"{path}:3: point 2/4 0 repeats line 1\n"

    @pytest.mark.parametrize(
        "data, lineno",
        [(b"0 0\n1 \xff\n2 2\n", 2), (b"0 0\r\n1 1\r\n\xfe 2\r\n", 3), (b"0 0\r1 1\r2 \xc3\n", 3)],
        ids=["lf", "crlf", "cr"],
    )
    def test_non_utf8_file_cites_line(self, capsys, tmp_path, data, lineno):
        path = tmp_path / "bytes.txt"
        path.write_bytes(data)
        code, out, err = run(capsys, "count", "--input", str(path), "--area", "1")
        assert code == 2 and out == ""
        assert err.startswith(f"{path}:{lineno}: not UTF-8: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [["count", "--area", "1/2"], ["stats"], ["tally", "--area", "1/2"]], ids=lambda argv: argv[0]
    )
    def test_byte_order_mark_is_dropped(self, capsys, tmp_path, argv):
        plain = write_square(tmp_path)
        marked = tmp_path / "bom.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        expected = run(capsys, *argv, "--input", plain)
        assert expected[0] == 0
        assert run(capsys, *argv, "--input", str(marked)) == expected

    def test_byte_order_mark_keeps_bad_byte_line(self, capsys, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf0 0\n1 \xff\n")
        code, out, err = run(capsys, "count", "--input", str(path), "--area", "1")
        assert (code, out, err) == (2, "", f"{path}:2: not UTF-8: invalid start byte 0xff\n")

    def test_curve_document_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "curve.json"
        code, _, _ = run(capsys, "curve", "--pair1", "0,0,0", "--pair2", "1,2,1", "--out", str(path))
        assert code == 0
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run(capsys, "reconstruct", "--in", str(path)) == (0, "0 0 0\n1 2 1\n", "")

    def test_lattice_trend_drop_warns_and_exits_zero(self, capsys, caplog):
        code, out, _ = run(capsys, "scaling", "--kind", "lattice", "--sizes", "100,101")
        assert code == 0
        assert [line.split(",")[:5] for line in out.splitlines()[1:]] == [
            ["lattice", "100", "2", "1/2", "5442"],
            ["lattice", "101", "2", "1/2", "5543"],
        ]
        # The last row of a section fills in gradually, so count/n^2 can fall.
        assert 5543 * 100**2 < 5442 * 101**2
        assert [(r.levelname, r.name, r.getMessage()) for r in caplog.records] == [
            ("WARNING", "equiarea", "count/n^2 decreased from n=100 to n=101")
        ]

    def test_rich_lines_bad_k_prints_nothing(self, capsys, tmp_path):
        code, out, err = run(capsys, "rich-lines", "--input", write_square(tmp_path), "--k", "0")
        assert (code, out, err) == (2, "", "error: k must be at least 2\n")

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'[[3, 0, "1"],\n[0, \xff0, "1"]]\n', "not UTF-8: invalid start byte 0xff"),
            (b'[[3, 0, "1"],\r\n', "not JSON: Expecting value (column 1)"),
        ],
        ids=["not-utf8", "truncated"],
    )
    def test_bad_curve_document_cites_line(self, capsys, tmp_path, data, message):
        path = tmp_path / "curve.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "reconstruct", "--in", str(path))
        assert (code, out, err) == (2, "", f"{path}:2: {message}\n")

    def test_decimal_area_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "count", "--input", write_square(tmp_path), "--area", "0.5")
        assert code == 2 and "rational" in err

    def test_non_ascii_digits_cite_line(self, capsys, tmp_path):
        # A fullwidth zero on line 1 and an Arabic-Indic one on line 3.
        path = tmp_path / "digits.txt"
        path.write_text("\uff10 0\n1 0\n0 \u0661\n", encoding="utf-8")
        code, out, err = run(capsys, "count", "--input", str(path), "--area", "1/2")
        assert (code, out) == (2, "")
        assert err.startswith(f"{path}:1: not a rational")

    def test_non_ascii_area_rejected(self, capsys, tmp_path):
        code, out, err = run(capsys, "count", "--input", write_square(tmp_path), "--area", "\u0663")
        assert (code, out) == (2, "") and "rational" in err

    @pytest.mark.parametrize("document", list(MALFORMED_CURVE_MESSAGES))
    def test_malformed_curve_document_exits_two(self, capsys, tmp_path, document):
        path = tmp_path / "curve.json"
        path.write_text(document)
        code, out, err = run(capsys, "reconstruct", "--in", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: {MALFORMED_CURVE_MESSAGES[document]}\n")

    @pytest.mark.parametrize("document", list(NOT_A_MATCH_CURVE_MESSAGES))
    def test_no_match_curve_names_the_file(self, capsys, tmp_path, document):
        path = tmp_path / "curve.json"
        path.write_text(document)
        code, out, err = run(capsys, "reconstruct", "--in", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: {NOT_A_MATCH_CURVE_MESSAGES[document]}\n")

    def test_short_pair_exits_two(self, capsys):
        code, out, err = run(capsys, "curve", "--pair1", "1,2", "--pair2", "0,0,1")
        assert (code, out, err) == (2, "", "error: expected 'a,b,kappa', got '1,2'\n")

    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--nope"])
        assert exc.value.code == 2

    def test_byte_identical_reruns(self, capsys, tmp_path):
        square = write_square(tmp_path)
        _, a, _ = run(capsys, "stats", "--input", square, "--k", "2")
        _, b, _ = run(capsys, "stats", "--input", square, "--k", "2")
        assert a == b


# sha256 of every parser's --help at 80 columns, root first, pinned on Python 3.11
# (argparse's layout differs between versions) from the parser as it was when
# each integer flag had `type=int`.
HELP_DIGEST = "0fcfbcd415c778d6c0ee8dcf8f27ac8ae576b3dce55512382f696354f5cacb81"


class TestIntegerFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bezout", "--trials", "\u0663"),
            ("bezout", "--trials", "abc"),
            ("k310-scan", "--seed", "1_0"),
            ("rich-lines", "--input", "points.txt", "--k", "\u0663"),
            ("gen", "--kind", "grid", "--rows", "1_0"),
            ("scaling", "--k", "\uff12"),
        ],
    )
    def test_other_digits_and_separators_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith(f"error: argument {argv[-2]}: invalid int value: {argv[-1]!r}\n")

    def test_ascii_forms_parse_as_before(self, capsys):
        assert run(capsys, "gen", "--kind", "grid", "--rows", " 2", "--cols", "+2") == run(
            capsys, "gen", "--kind", "grid", "--rows", "2", "--cols", "2")
        code, out, _ = run(capsys, "bezout", "--trials", "+2", "--seed", "-0")
        assert (code, out.splitlines()[1].split(",")[0]) == (0, "2")

    def test_every_integer_flag_has_the_ascii_type(self):
        parser = build_parser()
        (commands,) = parser._subparsers._group_actions
        flags = [action for command in commands.choices.values() for action in command._actions
                 if isinstance(action.default, int) and not isinstance(action.default, bool)]
        assert len(flags) == 20  # gen 8, four --k, the scans 3 each, scaling 2
        assert {action.type for action in flags} == {_int_flag}

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help layout pinned on Python 3.11")
    def test_help_is_unchanged(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        parser = build_parser()
        (commands,) = parser._subparsers._group_actions
        text = "".join(p.format_help() for p in (parser, *commands.choices.values()))
        assert hashlib.sha256(text.encode()).hexdigest() == HELP_DIGEST
