import cmath
import json
import math
import os
import subprocess
import sys

import pytest

from fpfun import fp
from fpfun.cli import main
from fpfun.fp import fn_eval, fp_limit
from fpfun.suite import plane_problem
from fpfun.problems import MAX_GRID_POINTS, load_problem_file, parse_y_grid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEMS = os.path.join(ROOT, "problems")


def problem(name):
    return os.path.join(PROBLEMS, name)


with open(problem("plane.json")) as _fh:
    PLANE_TEXT = _fh.read()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


class TestHk:
    def test_regular_plane_all_ones(self, capsys):
        assert main(["hk", "--file", problem("plane.json"), "--n", "6"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert all(line.endswith("hk=1") for line in lines[:-1])
        assert lines[-1] == "stable value 1 from n=0"

    def test_parameter_ideal(self, capsys):
        assert main(["hk", "--file", problem("parameter23.json"), "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "hk=6" in out
        assert "stable value 6 from n=0" in out

    def test_three_generator_json_format(self, capsys):
        assert main(
            ["hk", "--file", problem("three_generator.json"), "--n", "3", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stable_value"] == "4"
        assert [lvl["hk"] for lvl in doc["levels"]] == ["4", "4", "4", "4"]

    def test_no_stabilization_reported(self, tmp_path, capsys):
        # the Fermat cubic at p = 5: hk = 1, 11/5, 281/125 at levels 0 to 2
        fermat = {
            "prime": 5,
            "variables": [{"name": v, "degree": 1} for v in "xyz"],
            "relations": ["x^3 + y^3 + z^3"],
            "ideal": ["x", "y", "z"],
        }
        assert main(["hk", "--file", write(tmp_path, "fermat.json", fermat), "--n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-2].endswith("hk=281/125")
        assert lines[-1] == "no stabilization observed up to n=2"

    def test_no_y_grid_flag(self, capsys):
        # hk reads no grid, so it takes no --y-grid
        with pytest.raises(SystemExit) as exit_info:
            main(["hk", "--file", problem("plane.json"), "--n", "3", "--y-grid", "1:2:3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --y-grid 1:2:3" in capsys.readouterr().err


class TestEval:
    def test_csv_columns_and_zero_row(self, capsys):
        assert main(
            ["eval", "--file", problem("plane.json"), "--n-max", "4", "--y-grid", "[0, 1]"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "y_re,y_im,n,F_re,F_im,err_bound"
        zero_row = lines[1].split(",")
        assert zero_row[0] == "0" and zero_row[4] == "0" and zero_row[5] == "0"

    def test_empty_grid_header_only(self, capsys):
        assert main(
            [
                "eval",
                "--file",
                problem("plane.json"),
                "--n-max",
                "3",
                "--y-grid",
                '{"re_min": 0, "re_max": 1, "count": 0}',
            ]
        ) == 0
        assert capsys.readouterr().out.strip() == "y_re,y_im,n,F_re,F_im,err_bound"

    def test_deterministic_output(self, capsys):
        argv = ["eval", "--file", problem("cusp.json"), "--n-max", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        assert main(
            ["eval", "--file", problem("plane.json"), "--n-max", "3", "--out", str(target)]
        ) == 0
        assert target.read_text().startswith("y_re,y_im,n,F_re,F_im,err_bound")


class TestGridRows:
    GRID = ["--y-grid", "[[0.5, 0], [1, 0]]"]
    # bytes written before the json points carried diagnostics; level 0 is
    # the direct sum and level 3 that sum times Kunz's closed-form factors,
    # within 2 ulps of the exact 0.8873879498923428896 - 0.4150579883892913189i
    # and 0.5900975113476152970 - 0.7065955234449956495i
    EVAL_CSV = (
        "y_re,y_im,n,F_re,F_im,err_bound\n"
        "0.5,0,3,0.88738794989234293,-0.41505798838929131,0.061972941895933421\n"
        "1,0,3,0.59009751134761534,-0.70659552344499543,0.12082925824129402\n"
    )
    COMPARE_ROWS = (
        "y_re,y_im,F_re,F_im,model_re,model_im,deviation,bound,ok\n"
        "0.5,0,0.88738794989234293,-0.41505798838929131,0.85945127165042301,"
        "-0.46952036960203802,0.061209549569941353,0.061972941895933421,1\n"
        "1,0,0.59009751134761534,-0.70659552344499543,0.49675144828342194,"
        "-0.7736445427901113,0.1149306681644464,0.12082925824129402,1\n"
    )

    @pytest.mark.parametrize(
        "command, fmt, expected",
        [
            (["eval"], "csv", EVAL_CSV),
            (["compare", "--method", "hsop"], "csv", COMPARE_ROWS),
            (["compare", "--method", "hsop"], "text",
             COMPARE_ROWS + "max_deviation=0.1149306681644464 result=PASS\n"),
        ],
    )
    def test_csv_and_text_bytes(self, command, fmt, expected, capsys):
        argv = [*command, "--file", problem("plane.json"), "--n-max", "3", "--format", fmt]
        assert main(argv + self.GRID) == 0
        assert capsys.readouterr() == (expected, "")

    @pytest.mark.parametrize(
        "command, grid",
        [(["eval"], "[[1, 0], [2, 0], [1, 0]]"), (["compare", "--method", "hsop"], "[[1, 0], [1, 0]]")],
    )
    def test_repeated_points_keep_their_rows(self, command, grid, capsys):
        argv = [*command, "--file", problem("plane.json"), "--n-max", "3", "--y-grid", grid]
        main(argv + ["--format", "csv"])
        rows = capsys.readouterr().out.splitlines()[1:]
        ys = [row.split(",")[:2] for row in rows]
        assert ys == [[str(int(p[0])), "0"] for p in json.loads(grid)]
        assert rows[0] == rows[-1]
        main(argv + ["--format", "json"])
        points = json.loads(capsys.readouterr().out)["points"]
        assert [p["y_re"] for p in points] == [p[0] for p in json.loads(grid)]

    @pytest.mark.parametrize("command", [["eval"], ["compare", "--method", "hsop"]])
    def test_json_points_carry_the_tail_fit(self, command, capsys):
        argv = [*command, "--file", problem("plane.json"), "--n-max", "4", "--format", "json"]
        main(argv + self.GRID)
        points = json.loads(capsys.readouterr().out)["points"]
        estimates = fp_limit(plane_problem(), [0.5, 1.0], 4)
        for point, est in zip(points, estimates.values(), strict=True):
            assert point["differences"] == list(est.differences)
            assert len(point["differences"]) == 4
            assert point["cauchy_constants"] == list(est.cauchy_constants)


class TestClosed:
    def test_hsop_value_at_zero(self, capsys):
        assert main(
            ["closed", "--file", problem("parameter23.json"), "--method", "hsop"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value_at_zero"]["re"] == pytest.approx(6.0, abs=1e-12)
        assert doc["model"]["d"] == 2

    def test_finite_pd_reports_betti(self, capsys):
        assert main(
            ["closed", "--file", problem("three_generator.json"), "--method", "finite-pd"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["betti"] == [[0, 1], [2, -2], [4, 1]]
        assert doc["value_at_zero"]["re"] == pytest.approx(4.0, abs=1e-12)

    def test_dim1_on_cusp(self, capsys):
        assert main(["closed", "--file", problem("cusp.json"), "--method", "dim1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        freqs = {(t["rho_num"], t["rho_den"]) for t in doc["model"]["terms"]}
        assert freqs == {(0, 1), (2, 1)}

    def test_hn_valid_data(self, capsys):
        assert main(
            [
                "closed",
                "--file",
                problem("plane.json"),
                "--method",
                "hn",
                "--hn-json",
                '{"delta_r": 1, "rank": 1, "factors": [["-1", 1]]}',
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value_at_zero"]["re"] == pytest.approx(1.0, abs=1e-12)

    def test_hn_invalid_slope_data_exits_3(self, capsys):
        code = main(
            [
                "closed",
                "--file",
                problem("plane.json"),
                "--method",
                "hn",
                "--hn-json",
                '{"delta_r": 1, "rank": 1, "factors": [["-2", 1]]}',
            ]
        )
        assert code == 3
        assert "violated relation" in capsys.readouterr().err

    def test_csv_format(self, capsys):
        assert main(
            [
                "closed",
                "--file",
                problem("plane.json"),
                "--method",
                "hsop",
                "--format",
                "csv",
                "--y-grid",
                "1:2:2",
            ]
        ) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "y_re,y_im,model_re,model_im"
        assert len(lines) == 3


class TestCompare:
    def test_plane_vs_hsop_passes(self, capsys):
        code = main(
            ["compare", "--file", problem("plane.json"), "--method", "hsop", "--n-max", "10"]
        )
        assert code == 0
        assert "result=PASS" in capsys.readouterr().out

    def test_cusp_vs_dim1_passes(self, capsys):
        code = main(
            ["compare", "--file", problem("cusp.json"), "--method", "dim1", "--n-max", "10"]
        )
        assert code == 0

    def test_three_generator_vs_finite_pd_passes(self, capsys):
        code = main(
            [
                "compare",
                "--file",
                problem("three_generator.json"),
                "--method",
                "finite-pd",
                "--n-max",
                "10",
            ]
        )
        assert code == 0

    def test_weighted_plane_vs_hsop_passes(self, capsys):
        code = main(
            [
                "compare",
                "--file",
                problem("weighted_plane.json"),
                "--method",
                "hsop",
                "--n-max",
                "10",
            ]
        )
        assert code == 0

    def test_odd_characteristic_vs_dim1_passes(self, capsys):
        code = main(
            ["compare", "--file", problem("cusp3.json"), "--method", "dim1", "--n-max", "7"]
        )
        assert code == 0
        assert "result=PASS" in capsys.readouterr().out

    def test_wrong_model_fails_with_4(self, capsys):
        # valid Harder-Narasimhan data that describes a different function
        code = main(
            [
                "compare",
                "--file",
                problem("plane.json"),
                "--method",
                "hn",
                "--n-max",
                "6",
                "--hn-json",
                '{"delta_r": 1, "rank": 2, "factors": [["1", 1], ["-2", 1]]}',
            ]
        )
        assert code == 4
        assert "result=FAIL" in capsys.readouterr().out


class TestDensity:
    def test_csv_and_report(self, capsys):
        assert main(["density", "--file", problem("plane.json"), "--n", "3"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "x,g_n_of_x,j,ell_j"
        assert lines[1].split(",") == ["0", "0.125", "0", "1"]
        assert "equal=True" in captured.err
        assert "max_bridge_gap" in captured.err

    def test_bridge_skips_the_origin(self, capsys):
        # y = 0 is the mass line, not a bridge point
        argv = ["density", "--file", problem("plane.json"), "--n", "2", "--y-grid", "[0, 1]"]
        assert main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split()[0] for line in err if line.startswith("y=")] == ["y=1+0i"]

    def test_dimension_zero_unsupported(self, capsys):
        code = main(["density", "--file", problem("artinian.json"), "--n", "2"])
        assert code == 3
        assert "dimension at least 1" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_file_is_parse_error(self, capsys):
        assert main(["hk", "--file", "no-such-file.json", "--n", "2"]) == 2

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = write(tmp_path, "broken.json", '{"prime": 2,\n  "variables": [}\n}')
        assert main(["hk", "--file", path, "--n", "2"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_bad_polynomial_names_location(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "badpoly.json",
            {
                "prime": 2,
                "variables": [{"name": "X", "degree": 1}, {"name": "Y", "degree": 1}],
                "ideal": ["X", "Z^2"],
            },
        )
        assert main(["hk", "--file", path, "--n", "2"]) == 2
        assert "ideal[1]" in capsys.readouterr().err

    def test_composite_prime_rejected(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "composite.json",
            {"prime": 4, "variables": [{"name": "X", "degree": 1}], "ideal": ["X"]},
        )
        assert main(["hk", "--file", path, "--n", "2"]) == 2

    @pytest.mark.parametrize("prime", [318665857834031151167461, 3317044064679887385961981])
    def test_uncertified_prime_rejected(self, tmp_path, capsys, prime):
        path = write(
            tmp_path,
            "pseudoprime.json",
            {"prime": prime, "variables": [{"name": "X", "degree": 1}], "ideal": ["X"]},
        )
        assert main(["hk", "--file", path, "--n", "2"]) == 2
        assert "'prime' must be a prime integer" in capsys.readouterr().err

    def test_infinite_colength_exits_3(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "thin.json",
            {
                "prime": 2,
                "variables": [{"name": "X", "degree": 1}, {"name": "Y", "degree": 1}],
                "ideal": ["X"],
            },
        )
        assert main(["hk", "--file", path, "--n", "2"]) == 3
        assert "'Y'" in capsys.readouterr().err

    def test_non_homogeneous_generator_exits_3(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "mixed.json",
            {
                "prime": 2,
                "variables": [{"name": "X", "degree": 1}, {"name": "Y", "degree": 1}],
                "ideal": ["X + Y^2", "Y"],
            },
        )
        assert main(["hk", "--file", path, "--n", "2"]) == 3

    def test_hsop_wrong_generator_count_exits_3(self, capsys):
        code = main(
            ["closed", "--file", problem("three_generator.json"), "--method", "hsop"]
        )
        assert code == 3

    def test_level_over_table_budget_exits_3(self, capsys):
        # q = 2^30 would need a count table of about 2^31 entries
        assert main(["density", "--file", problem("plane.json"), "--n", "30"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: level 30 needs a length table of 2147483647 degrees")


    def test_groebner_level_over_table_budget_exits_3(self, tmp_path, capsys):
        # Fermat cubic at q = 2^20: refused before the Groebner basis is computed
        path = write(
            tmp_path,
            "fermat.json",
            {
                "prime": 2,
                "variables": [{"name": v, "degree": 1} for v in ("x", "y", "z")],
                "relations": ["x^3 + y^3 + z^3"],
                "ideal": ["x", "y", "z"],
            },
        )
        assert main(["density", "--file", path, "--n", "20"]) == 3
        assert capsys.readouterr().err == (
            "error: level 20 needs a length table of at least 2097151 degrees, "
            "over the budget of 1048576\n"
        )


class TestRobustness:
    def test_negative_level_is_parse_error(self, capsys):
        assert main(["hk", "--file", problem("plane.json"), "--n", "-1"]) == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["density", "--n"], "--n"),
            (["eval", "--n-max"], "--n-max"),
            (["compare", "--method", "hsop", "--n-max"], "--n-max"),
        ],
        ids=["density", "eval", "compare"],
    )
    def test_negative_level_is_parse_error_in_other_commands(self, argv, flag, capsys):
        assert main([*argv, "-1", "--file", problem("plane.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {flag} must be non-negative\n"

    @pytest.mark.parametrize("n_max", ["0", "1"])
    def test_level_too_small_for_a_tail_fit_exits_3(self, n_max, capsys):
        assert main(["eval", "--file", problem("plane.json"), "--n-max", n_max]) == 3
        assert capsys.readouterr().err == "error: n_max must be at least 2 to fit a tail bound\n"
        # an empty grid asks for no value, but the level is still checked
        empty = '{"re_min": 0, "re_max": 1, "count": 0}'
        for command in (["eval"], ["compare", "--method", "hsop"]):
            argv = [*command, "--file", problem("plane.json"), "--n-max", n_max, "--y-grid", empty]
            assert main(argv) == 3
            assert capsys.readouterr().err == "error: n_max must be at least 2 to fit a tail bound\n"

    def test_unwritable_out_path(self, capsys):
        code = main(
            [
                "eval",
                "--file",
                problem("plane.json"),
                "--n-max",
                "3",
                "--out",
                "/no-such-dir/rows.csv",
            ]
        )
        assert code == 2
        assert "io error" in capsys.readouterr().err


class TestRenderer:
    CASES = [
        ("hk", "text", ["--n", "3"]),
        ("hk", "csv", ["--n", "3"]),
        ("hk", "json", ["--n", "3"]),
        ("eval", "csv", ["--n-max", "3"]),
        ("eval", "json", ["--n-max", "3"]),
        ("closed", "csv", ["--method", "finite-pd"]),
        ("closed", "json", ["--method", "finite-pd"]),
        ("compare", "text", ["--method", "hsop", "--n-max", "3"]),
        ("compare", "csv", ["--method", "hsop", "--n-max", "3"]),
        ("compare", "json", ["--method", "hsop", "--n-max", "3"]),
        ("density", "csv", ["--n", "3"]),
        ("density", "json", ["--n", "3"]),
    ]

    @pytest.mark.parametrize("command,fmt,extra", CASES)
    def test_out_file_gets_the_stdout_bytes(self, command, fmt, extra, tmp_path, capsys):
        argv = [command, "--file", problem("plane.json"), "--format", fmt, *extra]
        code = main(argv)
        plain = capsys.readouterr()
        target = tmp_path / "main.out"
        assert main(argv + ["--out", str(target)]) == code
        routed = capsys.readouterr()
        assert plain.out
        assert target.read_bytes() == plain.out.encode()
        if command == "density" and fmt == "csv":
            # the bridge report moves to the stdout that --out freed
            assert (routed.out, routed.err) == (plain.err, "")
        else:
            assert (routed.out, routed.err) == ("", plain.err)

    def test_closed_csv_writes_model_json_to_stderr(self, capsys):
        argv = ["closed", "--file", problem("three_generator.json"), "--method", "finite-pd"]
        assert main(argv + ["--format", "csv", "--y-grid", "[]"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "y_re,y_im,model_re,model_im\n"
        assert json.loads(captured.err)["betti"] == [[0, 1], [2, -2], [4, 1]]

    HK_TEXT = (
        "n=0 q=1 length=6 hk=6\n"
        "n=1 q=2 length=24 hk=6\n"
        "n=2 q=4 length=96 hk=6\n"
        "n=3 q=8 length=384 hk=6\n"
        "stable value 6 from n=0\n"
    )
    HK_CSV = "n,q,length,hk\n0,1,6,6\n1,2,24,6\n2,4,96,6\n3,8,384,6\n"
    HK_JSON = {
        "levels": [
            {"n": 0, "q": 1, "length": "6", "hk": "6"},
            {"n": 1, "q": 2, "length": "24", "hk": "6"},
            {"n": 2, "q": 4, "length": "96", "hk": "6"},
            {"n": 3, "q": 8, "length": "384", "hk": "6"},
        ],
        "stable_from": 0,
        "stable_value": "6",
    }

    @pytest.mark.parametrize(
        "fmt,expected",
        [("text", HK_TEXT), ("csv", HK_CSV), ("json", json.dumps(HK_JSON, indent=2) + "\n")],
    )
    def test_hk_exact_bytes(self, fmt, expected, capsys):
        argv = ["hk", "--file", problem("parameter23.json"), "--n", "3", "--format", fmt]
        assert main(argv) == 0
        assert capsys.readouterr() == (expected, "")


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval"],
            ["closed", "--method", "hsop"],
            ["compare", "--method", "hsop"],
            ["density"],
        ],
    )
    def test_overflowing_grid_point_exits_3(self, argv, capsys):
        code = main([*argv, "--file", problem("plane.json"), "--y-grid", "[[1,800]]"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["closed", "--method", "hsop"],
            ["compare", "--method", "hsop"],
            ["density"],
        ],
    )
    def test_math_domain_grid_point_exits_3(self, argv, capsys):
        # y * j / q overflows to inf inside cmath.exp, whose ValueError each
        # evaluator maps to its own OverflowError: the model's phase r * y and
        # the cusp's degrees past 1 in the density bridge's per-term sum (eval
        # sums the numerator from the exact y instead; see the next test)
        code = main([*argv, "--file", problem("cusp.json"), "--y-grid", "[[1e308,0]]"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        cause = ("direct sum with w=-9.765625e+304j" if argv[0] == "density"
                 else "model value at y=(1e+308+0j)")
        assert captured.err == f"error: floating-point overflow ({cause} is not finite)\n"

    def test_huge_real_point_is_finite_on_cusp(self, capsys):
        # the numerator sum takes its phases from the exact y; the cusp's table
        # is (sum_{a<q} z^(2a)) (1 + z^3), and at q = 2^10 the geometric sum is
        # prod_(i<10) (1 + z^(2^(i+1))), whose phases y 2^(i+1) / q, like 3y/q,
        # are exact floats
        argv = ["eval", "--file", problem("cusp.json"), "--y-grid", "[[1e308,0]]"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        row = captured.out.splitlines()[1].split(",")
        q, y = 2 ** 10, 1e308
        want = math.prod(1 + cmath.exp(-1j * y * (2 ** (i + 1) / q)) for i in range(10))
        want *= (1 + cmath.exp(-3j * (y / q))) / q
        assert abs(complex(float(row[3]), float(row[4])) - want) <= 1e-14 * abs(want)

    def test_huge_real_point_is_finite_on_plane(self, capsys):
        # plane's level-0 table is {0: 1}, and at p = 2 each Frobenius factor
        # (1 + exp(-iy/2^m))^2 / 4 takes its phase y/2^m exactly
        argv = ["eval", "--file", problem("plane.json"), "--y-grid", "[[1e308,0]]"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        row = captured.out.splitlines()[1].split(",")
        want = math.prod((1 + cmath.exp(-1e308j / 2 ** m)) ** 2 / 4 for m in range(1, 11))
        assert abs(complex(float(row[3]), float(row[4])) - want) <= 1e-15

    @pytest.mark.parametrize("name", ["parameter23.json", "three_generator.json"])
    def test_huge_points_take_the_numerator_sum(self, name, capsys):
        # level 0's per-term sum has a phase y * j past the float range, so
        # F_n is the level's numerator sum, finite, bit for bit
        pf = load_problem_file(problem(name))
        n, q = pf.n_max, 2 ** pf.n_max
        table = pf.to_problem().table(n)
        for grid, y in (("[[1e308,0]]", 1e308), ("[[-1e308,0]]", -1e308),
                        ("[[1e308,1]]", 1e308 + 1j)):
            assert main(["eval", "--file", problem(name), "--y-grid", grid]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            row = captured.out.splitlines()[1].split(",")
            want = fp._numerator_sum(table.numerator, table.weights, complex(y), n, q, q ** 2)
            assert (int(row[2]), complex(float(row[3]), float(row[4]))) == (n, want)

    @pytest.mark.parametrize("name", ["plane.json", "parameter23.json", "three_generator.json",
                                      "weighted_plane.json", "cusp.json", "cusp3.json"])
    def test_extreme_points_end_in_an_exit_code(self, name, capsys):
        # every command ends each point in exit 0, 3 or 4, never a traceback
        for point in ("[1e308,0]", "[-1e308,0]", "[1e308,1]", "[1.7e308,0]", "[-1e308,1e308]",
                      "[1e300,-3000]", "[1,709]", "[5e-324,0]", "[1e-310,0]"):
            for command in (["eval"], ["closed", "--method", "hsop"],
                            ["compare", "--method", "hsop"], ["density", "--n", "3"]):
                argv = [*command, "--file", problem(name), "--y-grid", f"[{point}]"]
                code = main(argv)
                captured = capsys.readouterr()
                assert code in (0, 3, 4), argv
                assert (captured.out == "") == (code == 3), argv
                assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["eval", "closed", "compare", "density"])
    @pytest.mark.parametrize(
        "grid",
        ["[1e400]", "[NaN]", "[-Infinity]", "[0.5, [0, Infinity]]", "0:inf:3",
         '{"re_min": 0, "re_max": NaN, "count": 2}'],
    )
    def test_non_finite_grid_point_is_parse_error(self, command, grid, capsys):
        argv = [command, "--file", problem("plane.json"), "--y-grid", grid]
        if command in ("closed", "compare"):
            argv += ["--method", "hsop"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: y_grid point ")
        assert captured.err.endswith(" is not finite\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--file", problem("cusp.json")],
            ["compare", "--method", "hsop", "--file", problem("cusp.json")],
            ["density", "--file", problem("plane.json")],
            ["density", "--file", problem("cusp.json")],
        ],
    )
    def test_non_finite_level_sum_exits_3(self, argv, capsys):
        # exp(354.5 * j / q) times ell_j overflows: at the top degrees of level
        # 10 in the density bridge's per-term transform, and F_0 = 1 + z^3
        # (exp(354.5 * 3)) in the cusp's limit; plane's limit is a finite
        # Frobenius product
        assert main([*argv, "--y-grid", "[[1,354.5]]"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        if argv[0] == "density":
            assert captured.err.startswith("error: floating-point overflow (direct sum with w=")
        else:
            assert captured.err == ("error: floating-point overflow (numerator sum at level 0 "
                                    "with w=(354.5-1j) is not finite)\n")
        assert captured.err.endswith(" is not finite)\n")

    def test_finite_limit_past_an_overflowing_level_sum(self, capsys):
        # plane's level-10 sum at 1+354.5i overflows before the q^-2 scale;
        # F_10 itself is finite, and the Frobenius product returns it
        argv = ["eval", "--file", problem("plane.json"), "--y-grid", "[[1,354.5]]"]
        assert main(argv) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert complex(float(row[3]), float(row[4])) == fn_eval(plane_problem(), 10, 1 + 354.5j)

    def test_large_imaginary_part_stays_finite(self, capsys):
        # level 0 spans one degree: exp(w * r) for r past the span would overflow
        argv = ["eval", "--file", problem("plane.json"), "--y-grid", "[[1,6],[1,40]]"]
        assert main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        expected = [
            complex(-444.54968068311041, -4338.6653094026296),
            complex(-1.2288530189062529e31, -3.0925188172236015e31),
        ]
        for row, want in zip(rows, expected, strict=True):
            got = complex(float(row[3]), float(row[4]))
            assert abs(got - want) <= 1e-13 * abs(want), (got, want)

    def test_non_finite_grid_point_in_problem_file(self, tmp_path, capsys):
        with open(problem("plane.json")) as fh:
            data = json.load(fh)
        data["options"]["y_grid"] = [0.5, float("nan")]
        path = write(tmp_path, "nan_grid.json", data)
        assert main(["eval", "--file", path]) == 2
        assert capsys.readouterr().err == "parse error: y_grid point (nan+0j) is not finite\n"

    @pytest.mark.parametrize(
        "grid, shown",
        [
            ('[{"re": "a"}]', "{'re': 'a'}"),
            ('[["a", 1]]', "['a', 1]"),
            ("[[null, 1]]", "[None, 1]"),
            ('[{"re": [1]}]', "{'re': [1]}"),
            ("[" + "9" * 400 + "]", "9" * 400),
            ("[true]", "True"),
            ("[[true, 0]]", "[True, 0]"),
            ('[{"re": false, "im": true}]', "{'re': False, 'im': True}"),
            ('[["1", 0]]', "['1', 0]"),
            ('[[1, "0"]]', "[1, '0']"),
            ('[{"re": "1"}]', "{'re': '1'}"),
            ('[{"re": 1, "im": "0.5"}]', "{'re': 1, 'im': '0.5'}"),
        ],
        ids=["re-string", "pair-string", "pair-null", "re-list", "int-overflow",
             "bool", "pair-bool", "object-bool", "pair-numeric-string",
             "pair-im-numeric-string", "re-numeric-string", "im-numeric-string"],
    )
    def test_malformed_grid_point_is_parse_error(self, grid, shown, capsys):
        assert main(["eval", "--file", problem("plane.json"), "--y-grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: cannot read y_grid point {shown}\n"

    def test_malformed_grid_point_in_problem_file(self, tmp_path, capsys):
        with open(problem("plane.json")) as fh:
            data = json.load(fh)
        data["options"]["y_grid"] = [0.5, {"re": "a", "im": 1}]
        path = write(tmp_path, "bad_grid.json", data)
        assert main(["eval", "--file", path]) == 2
        assert capsys.readouterr().err == (
            "parse error: cannot read y_grid point {'re': 'a', 'im': 1}\n"
        )

    # A coordinate, re_min or re_max that is a JSON string is not a number,
    # though float() would read "1" and "0.5".
    @pytest.mark.parametrize(
        "y_grid, message",
        [
            ([["1", 0]], "cannot read y_grid point ['1', 0]"),
            ([0.5, {"re": 1, "im": "0"}], "cannot read y_grid point {'re': 1, 'im': '0'}"),
            ({"re_min": "0.5", "re_max": 4.0, "count": 8}, "y_grid object needs numeric"),
            ({"re_min": 0.5, "re_max": "4", "count": 8}, "y_grid object needs numeric"),
        ],
        ids=["pair", "object", "re-min", "re-max"],
    )
    def test_string_coordinate_in_problem_file_is_parse_error(
        self, y_grid, message, tmp_path, capsys
    ):
        with open(problem("plane.json")) as fh:
            data = json.load(fh)
        data["options"]["y_grid"] = y_grid
        path = write(tmp_path, "string_grid.json", data)
        assert main(["eval", "--file", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: {message}")

    # JSON booleans are not numbers, though Python reads true and false as 1 and 0.
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["variables"][0].update(degree=True),
             "variables[0].degree must be a positive integer"),
            (lambda d: d["options"].update(n_max=True),
             "options.n_max must be a non-negative integer"),
            (lambda d: d["options"].update(dim_override=False),
             "options.dim_override must be a non-negative integer or null"),
        ],
        ids=["degree", "n_max", "dim_override"],
    )
    def test_boolean_integer_in_problem_file_is_parse_error(self, edit, message, tmp_path, capsys):
        with open(problem("plane.json")) as fh:
            data = json.load(fh)
        edit(data)
        path = write(tmp_path, "bool_int.json", data)
        assert main(["hk", "--file", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "grid, message",
        [
            (
                '{"re_min": 0, "re_max": 1, "count": 100000000}',
                f"y_grid has 100000000 points; at most {MAX_GRID_POINTS} are allowed",
            ),
            (
                f"0:1:{MAX_GRID_POINTS + 1}",
                f"y_grid has {MAX_GRID_POINTS + 1} points; at most {MAX_GRID_POINTS} are allowed",
            ),
            (
                "[" + ",".join(["1"] * (MAX_GRID_POINTS + 1)) + "]",
                f"y_grid has {MAX_GRID_POINTS + 1} points; at most {MAX_GRID_POINTS} are allowed",
            ),
            ('{"re_min": 0, "re_max": 1, "count": 2.7}', "y_grid object needs numeric"),
            ('{"re_min": 0, "re_max": 1, "count": 2.0}', "y_grid object needs numeric"),
            ('{"re_min": 0, "re_max": 1, "count": true}', "y_grid object needs numeric"),
            ('{"re_min": true, "re_max": 1, "count": 3}', "y_grid object needs numeric"),
            ('{"re_min": "0.5", "re_max": 1, "count": 3}', "y_grid object needs numeric"),
            ('{"re_min": 0, "re_max": "1", "count": 3}', "y_grid object needs numeric"),
            ('{"re_min": ' + "9" * 400 + ', "re_max": 1, "count": 3}',
             "y_grid object needs numeric"),
        ],
        ids=["object-huge", "shorthand-huge", "list-huge", "count-float", "count-float-int", "count-bool",
             "re-min-bool", "re-min-string", "re-max-string", "re-min-int-overflow"],
    )
    def test_bad_grid_size_is_parse_error(self, grid, message, capsys):
        assert main(["eval", "--file", problem("plane.json"), "--y-grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: {message}")

    @pytest.mark.parametrize("count", [100000000, 2.7, True])
    def test_bad_grid_size_in_problem_file(self, count, tmp_path, capsys):
        with open(problem("plane.json")) as fh:
            data = json.load(fh)
        data["options"]["y_grid"]["count"] = count
        path = write(tmp_path, "big_grid.json", data)
        assert main(["eval", "--file", path]) == 2
        assert capsys.readouterr().err.startswith("parse error: y_grid ")

    def test_largest_grid_is_accepted(self):
        grid = parse_y_grid({"re_min": 0, "re_max": 1, "count": MAX_GRID_POINTS})
        assert len(grid) == MAX_GRID_POINTS
        assert grid[-1] == 1

    @pytest.mark.parametrize(
        "hn, message",
        [
            ({"delta_r": 1, "rank": 1, "factors": 5}, "hn factors must be a list, got 5"),
            (
                {"delta_r": 1, "rank": 1, "factors": [["-1", 1.5]]},
                "cannot read hn factor ['-1', 1.5]: rank must be a JSON integer",
            ),
            (
                {"delta_r": 1, "rank": 1, "factors": [{"mu": "-1"}]},
                "cannot read hn factor {'mu': '-1'}: ",
            ),
            (
                {"delta_r": True, "rank": 1, "factors": [[-1, 1]]},
                "hn delta_r and rank must be JSON integers, got True and 1",
            ),
            (
                {"delta_r": 1, "rank": True, "factors": [[-1, 1]]},
                "hn delta_r and rank must be JSON integers, got 1 and True",
            ),
            (
                {"delta_r": 1.5, "rank": 1, "factors": [[-1, 1]]},
                "hn delta_r and rank must be JSON integers, got 1.5 and 1",
            ),
            (
                {"delta_r": "1", "rank": 1, "factors": [[-1, 1]]},
                "hn delta_r and rank must be JSON integers, got '1' and 1",
            ),
            (
                {"delta_r": 1, "rank": 1.0, "factors": [[-1, 1]]},
                "hn delta_r and rank must be JSON integers, got 1 and 1.0",
            ),
            (
                {"delta_r": 1, "rank": "1", "factors": [[-1, 1]]},
                "hn delta_r and rank must be JSON integers, got 1 and '1'",
            ),
        ],
    )
    @pytest.mark.parametrize("source", ["--hn-json", "options.hn"])
    def test_malformed_hn_data_is_parse_error(self, hn, message, source, tmp_path, capsys):
        argv = ["closed", "--method", "hn"]
        if source == "--hn-json":
            argv += ["--file", problem("plane.json"), "--hn-json", json.dumps(hn)]
        else:
            with open(problem("plane.json")) as fh:
                data = json.load(fh)
            data["options"]["hn"] = hn
            argv += ["--file", write(tmp_path, "bad_hn.json", data)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: {message}")

    @pytest.mark.parametrize("source", ["--hn-json", "options.hn"])
    def test_hn_slope_may_be_a_fraction_string(self, source, tmp_path, capsys):
        # The Fermat cubic's HN data: rank 2, semistable of slope -3/2.
        hn = {"delta_r": 3, "rank": 2, "factors": [["-3/2", 2]]}
        argv = ["closed", "--method", "hn"]
        if source == "--hn-json":
            argv += ["--file", problem("plane.json"), "--hn-json", json.dumps(hn)]
        else:
            with open(problem("plane.json")) as fh:
                data = json.load(fh)
            data["options"]["hn"] = hn
            argv += ["--file", write(tmp_path, "fermat_hn.json", data)]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value_at_zero"]["re"] == pytest.approx(9 / 4, abs=1e-12)

    def test_overflowing_model_value_exits_3(self, capsys):
        # exp(2e308) overflows to inf without raising; the model value is refused
        argv = ["closed", "--file", problem("cusp.json"), "--method", "hsop"]
        assert main(argv + ["--y-grid", "[[0, 1e308]]"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: floating-point overflow (model value at y=")

    def test_python_dash_m_runs_the_cli(self):
        paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        argv = [sys.executable, "-m", "fpfun", "hk", "--file", problem("plane.json")]
        done = subprocess.run(argv + ["--n", "2"], env=env, capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stdout.splitlines()[-1] == "stable value 1 from n=0"
        failed = subprocess.run(argv + ["--n", "-1"], env=env, capture_output=True, text=True)
        assert failed.returncode == 2
        assert failed.stderr == "parse error: --n must be non-negative\n"

    LONG = "9" * 5000  # more digits than int() and str() convert
    # a slope of 10^5000, whose slope-weighted rank sum str() refuses
    LONG_SLOPE_HN = '{"delta_r": 1, "rank": 1, "factors": [["1e5000", 1]]}'

    @pytest.mark.parametrize(
        "argv, edit, code, message",
        [
            (
                ["eval", "--n-max", "2", "--y-grid",
                 '{"re_min": 0.5, "re_max": 1, "count": "2"}'],
                None, 2, "parse error: y_grid object needs numeric re_min, re_max, integer count",
            ),
            (
                ["eval", "--n-max", "2"], ('"count": 8', '"count": "8"'),
                2, "parse error: y_grid object needs numeric re_min, re_max, integer count",
            ),
            (
                ["closed", "--method", "hn", "--hn-json",
                 '{"delta_r": 1, "rank": 1, "factors": [[-1, "1"]]}'],
                None, 2, "parse error: cannot read hn factor [-1, '1']: rank must be",
            ),
            (
                ["closed", "--method", "hn"],
                ('"options": {', '"options": {"hn": {"delta_r": 1, "rank": 1, '
                 '"factors": [[-1, "1"]]}, '),
                2, "parse error: cannot read hn factor [-1, '1']: rank must be",
            ),
            (
                ["density", "--n", "15000"], None,
                3, "error: level 15000 needs a length table of at least 10^4515 degrees",
            ),
            (
                ["density", "--n", "10000000", "--file", problem("cusp.json")], None,
                3, "error: level 10000000 needs a length table of at least 10^3010200 degrees",
            ),
            (["hk"], ('"n_max": 10', f'"n_max": {LONG}'), 2, "parse error: cannot read problem"),
            (["eval", "--y-grid", f"[{LONG}]"], None, 2, "parse error: cannot read y grid"),
            (
                ["closed", "--method", "hn", "--hn-json",
                 f'{{"delta_r": {LONG}, "rank": 1, "factors": []}}'],
                None, 2, "parse error: invalid --hn-json: Exceeds the limit",
            ),
            (
                ["hk"], ('"ideal": ["X"', f'"ideal": ["X^{LONG}"'),
                2, "parse error: ideal[0]: integer of 5000 digits is too long at position 2",
            ),
            (["hk"], ('"name": "X"', '"name": "X\u00e9"'), 2, "parse error: cannot read problem"),
            (
                ["closed", "--method", "hn", "--hn-json", LONG_SLOPE_HN], None,
                3, "error: violated relation: sum of mu_s * r_s = <over 4300 digits> != -delta_r",
            ),
            (
                ["compare", "--method", "hn", "--n-max", "2", "--hn-json", LONG_SLOPE_HN], None,
                3, "error: violated relation: sum of mu_s * r_s = <over 4300 digits> != -delta_r",
            ),
            (
                ["closed", "--method", "hn"],
                ('"options": {', f'"options": {{"hn": {LONG_SLOPE_HN}, '),
                3, "error: violated relation: sum of mu_s * r_s = <over 4300 digits> != -delta_r",
            ),
            (
                ["hk"], (PLANE_TEXT, "[]"),
                2, "parse error: <file>: problem file must be a JSON object",
            ),
            (["hk"], ('"prime": 2,', ""), 2, "parse error: <file>: missing required key 'prime'"),
            (
                ["hk"], ('"name": "Y"', '"name": "X"'),
                2, "parse error: <file>: duplicate variable names",
            ),
            (
                ["hk"], ('"options": {', '"options": 7, "x": {'),
                2, "parse error: <file>: 'options' must be an object",
            ),
            (
                ["hk"], ('"options": {', '"options": {"hn": [1], '),
                2, "parse error: <file>: options.hn must be an object",
            ),
            (
                ["hk"], ('"ideal": ["X"', '"ideal": ["X^"'),
                2, "parse error: ideal[0]: expected an integer exponent after '^' at position 0",
            ),
            (
                ["hk"], ('"ideal": ["X"', '"ideal": ["X**2"'),
                2, "parse error: ideal[0]: unexpected '*' at position 2 in 'X**2'",
            ),
            (
                ["hk"], ('"ideal": ["X"', '"ideal": ["X Y"'),
                2, "parse error: ideal[0]: expected '+' or '-' between terms, got 'Y' at",
            ),
            (
                ["eval", "--y-grid", "1:2"], None,
                2, "parse error: cannot read y grid '1:2'; use JSON or the lo:hi:count shorthand",
            ),
            (
                ["eval", "--y-grid", "a:2:3"], None,
                2, "parse error: cannot read y grid 'a:2:3': could not convert string to float",
            ),
            (
                ["closed", "--method", "hn"], None,
                2, "parse error: method hn needs --hn-json or options.hn in the problem file",
            ),
            (
                ["closed", "--method", "hn", "--hn-json", '{"delta_r": 1, "rank": 1}'], None,
                2, "parse error: hn data needs delta_r, rank, factors: 'factors'",
            ),
            (
                ["closed", "--method", "dim1"], None,
                3, "error: dim1 method applies to one-dimensional rings only",
            ),
            (
                # level 0 sums to 1; level 1's weight-3 Frobenius factor holds exp(750),
                # and so does the numerator sum the product falls back to
                ["eval", "--file", problem("weighted_plane.json"), "--y-grid", "[[0, 500]]"],
                None, 3, "error: floating-point overflow "
                "(numerator sum at level 1 with w=(250-0j) is not finite)",
            ),
            (
                # the cusp's F_0 = 1 + z^3 holds exp(750) past the float range
                ["eval", "--file", problem("cusp.json"), "--y-grid", "[[0, 250]]"],
                None, 3, "error: floating-point overflow "
                "(numerator sum at level 0 with w=(250-0j) is not finite)",
            ),
        ],
        ids=[
            "grid-count-string", "grid-count-string-in-file", "hn-rank-string",
            "hn-rank-string-in-file", "plane-level-15000", "cusp-level-1e7", "long-n-max",
            "long-grid-point", "long-hn-delta", "long-exponent", "not-utf8", "long-hn-slope",
            "long-hn-slope-compare", "long-hn-slope-in-file", "file-not-an-object",
            "file-missing-key", "duplicate-variables", "options-not-an-object",
            "hn-not-an-object", "caret-without-exponent", "double-star", "juxtaposed-factors",
            "grid-shorthand-two-parts", "grid-shorthand-not-a-number", "hn-without-data",
            "hn-without-factors", "dim1-on-a-plane", "frobenius-factor-overflow",
            "numerator-sum-overflow",
        ],
    )
    def test_bad_input_ends_in_a_documented_exit_code(self, argv, edit, code, message, tmp_path):
        path = problem("plane.json")
        if edit is not None:
            with open(path) as fh:
                text = fh.read()
            assert text.count(edit[0]) == 1
            text = text.replace(*edit)
            path = tmp_path / "edited.json"
            path.write_bytes(text.encode("latin-1"))  # so the not-utf8 case's e-acute is 0xe9
        if "--file" not in argv:
            argv = argv + ["--file", str(path)]
        paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        done = subprocess.run(
            [sys.executable, "-m", "fpfun"] + argv, env=env, capture_output=True, text=True
        )
        assert done.returncode == code
        assert "Traceback" not in done.stderr
        assert done.stderr.replace(str(path), "<file>").startswith(message)


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 8

    def test_no_quick_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["selftest", "--quick"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --quick" in capsys.readouterr().err
