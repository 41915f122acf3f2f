import json
import os
import subprocess
import sys

import pytest

from fpfun.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEMS = os.path.join(ROOT, "problems")


def problem(name):
    return os.path.join(PROBLEMS, name)


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


class TestRobustness:
    def test_negative_level_is_parse_error(self, capsys):
        assert main(["hk", "--file", problem("plane.json"), "--n", "-1"]) == 2

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


class TestSelftest:
    def test_quick_selftest_passes(self, capsys):
        assert main(["selftest", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 7
