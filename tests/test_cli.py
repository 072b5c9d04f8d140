"""CLI adapters: wiring, exit codes, deterministic output."""

import json
from fractions import Fraction as F

import pytest

from equiarea.cli import main
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


# Curve documents whose error message is pinned.
MALFORMED_CURVE_MESSAGES = {
    '{"coefficients": []}': "zero polynomial is not a curve",
    '[[1, 1, "0"]]': "zero polynomial is not a curve",
    '[[1, 1, "1/2"], [1, 1, "-1/2"]]': "zero polynomial is not a curve",
    '[[4, 0, "1"]]': "monomial x^4 y^0 out of range",
    '[[3, 0, 0.1], [0, 0, "1"]]': 'coefficient entry [3, 0, 0.1] is not [i, j, "n/d"] with integers i, j',
    '[[true, 0, "1"], [3, 0, "1"]]': "coefficient entry [True, 0, '1'] is not [i, j, \"n/d\"] with integers i, j",
    '[[3, 0, "1.5"], [0, 0, "1"]]': "not a rational 'n' or 'n/d': '1.5'",
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

    @pytest.mark.parametrize(
        "document", ['{"coefficients": [[3, 0]]}', '{"coefficients": 5}', *MALFORMED_CURVE_MESSAGES]
    )
    def test_malformed_curve_document_exits_two(self, capsys, tmp_path, document):
        path = tmp_path / "curve.json"
        path.write_text(document)
        code, out, err = run(capsys, "reconstruct", "--in", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if document in MALFORMED_CURVE_MESSAGES:
            assert err == f"error: {MALFORMED_CURVE_MESSAGES[document]}\n"

    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--nope"])
        assert exc.value.code == 2

    def test_byte_identical_reruns(self, capsys, tmp_path):
        square = write_square(tmp_path)
        _, a, _ = run(capsys, "stats", "--input", square, "--k", "2")
        _, b, _ = run(capsys, "stats", "--input", square, "--k", "2")
        assert a == b
