"""End-to-end CLI behavior: reports, exit codes, determinism."""

import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import deadline
import mvtlab
import mvtlab.expr
import mvtlab.flett
import mvtlab.numerics
import mvtlab.verify
from mvtlab.cli import _SOLVES, main
from mvtlab.expr import parse
from mvtlab.numerics import Interval, TheoremId
from mvtlab.verify import THEOREMS, IdentityCheck, verify_point

FIXTURES = Path(__file__).parent / "fixtures"
README = Path(__file__).parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestSolve:
    def test_flett_report_shape(self, capsys):
        code, rep, _ = run_json(capsys, "solve", "flett",
                                "--fn", "x^3+2*x-1", "--a=-2", "-b", "2")
        assert code == 0
        assert rep["request"]["theorem"] == "flett"
        assert rep["request"]["a"] == -2.0 and rep["request"]["b"] == 2.0
        (grp,) = rep["results"]
        assert grp["theorem_id"] == "flett"
        assert grp["hypothesis_satisfied"] is True
        assert grp["degenerate"] is False
        assert [p["xi"] for p in grp["points"]] == pytest.approx([1.0], abs=1e-8)
        assert "meta" in rep

    def test_endpoint_expressions(self, capsys):
        code, rep, _ = run_json(capsys, "solve", "flett", "--fn", "sin(x)",
                                "--a=-pi/2", "-b", "5*pi/2")
        assert code == 0
        assert rep["request"]["a"] == pytest.approx(-1.5707963267948966)
        assert rep["results"][0]["points"]

    def test_pawlikowska_order_flag(self, capsys):
        code, rep, _ = run_json(capsys, "solve", "pawlikowska",
                                "--fn", "x^4-2*x^2", "--a=-1", "-b", "1",
                                "--n", "2")
        assert code == 0
        (grp,) = rep["results"]
        assert [p["xi"] for p in grp["points"]] == pytest.approx([1.0 / 3.0],
                                                                 abs=1e-8)

    def test_lupu_unit_interval_is_implicit(self, capsys):
        code, rep, _ = run_json(capsys, "solve", "lupu-4.6",
                                "--fn", "x", "--gn", "x^2")
        assert code == 0
        ids = [g["theorem_id"] for g in rep["results"]]
        assert ids == ["lupu-4.6-t", "lupu-4.6-ts", "lupu-4.6-s"]

    def test_weighted_norm_reports_norms(self, capsys):
        code, rep, _ = run_json(capsys, "solve", "weighted-norm",
                                "--fn", "sqrt(2)*sin(2*pi*x)",
                                "--gn", "sqrt(2)*cos(2*pi*x)", "--weight", "x")
        assert code == 0
        (grp,) = rep["results"]
        nf, ng = grp["weighted_norms"]
        assert nf == pytest.approx(ng, rel=1e-6)

    def test_hypothesis_false_without_points_exits_1(self, capsys):
        code, rep, err = run_json(capsys, "solve", "meyers-2.8",
                                  "--fn", "2*x+1", "-a", "0", "-b", "1")
        assert code == 1
        (grp,) = rep["results"]
        assert grp["points"] == []
        assert grp["hypothesis_satisfied"] is False
        assert "hypothesis" in err

    def test_a_group_without_points_reports_its_solvers_flag(self, capsys):
        # f' - slope is positive at all 8 grid points and crosses zero only
        # between them, so the scan finds nothing; f is smooth, so the
        # solver's differentiability flag is true
        argv = ["--fn", "sin(44*x)", "-a", "0", "-b", "1", "--scan-points", "8"]
        code, rep, err = run_json(capsys, "solve", "lagrange", *argv)
        (grp,) = rep["results"]
        assert code == 3 and "no points found" in err
        assert grp["points"] == [] and grp["hypothesis_satisfied"] is True
        f, iv = parse("sin(44*x)"), Interval(0.0, 1.0)
        pts = mvtlab.cli.lagrange_points(f, iv, mvtlab.numerics.SolverConfig(scan_points=8))
        assert pts == [] and pts.hypothesis_satisfied is True

    def test_zero_mean_violation_exits_1(self, capsys):
        code, rep, err = run_json(capsys, "solve", "thm-4.9",
                                  "--fn", "x", "--gn", "exp(x)",
                                  "-a", "0", "-b", "1")
        assert code == 1
        assert rep["results"][0]["hypothesis_satisfied"] is False
        assert "hypothesis" in err

    def test_unevaluable_function_exits_3(self, capsys):
        code, _, err = run(capsys, "solve", "flett", "--fn", "ln(x-5)",
                           "-a", "0", "-b", "1")
        assert code == 3
        assert "numeric failure" in err

    @pytest.mark.parametrize("argv, value", [
        (["lagrange", "--fn", "1/x"], "f(a)"),
        (["cauchy", "--fn", "x", "--gn", "1/(x-1)"], "g(b)"),
        (["cauchy-flett", "--fn", "x", "--gn", "ln(x)"], "g(a)"),
        (["thm-4.9", "--fn", "sin(2*pi*x)", "--gn", "ln(x)"], "g(a)"),
    ])
    def test_an_endpoint_value_that_is_not_finite_is_named(self, capsys, argv, value):
        code, _, err = run(capsys, "solve", *argv, "-a", "0", "-b", "1")
        assert code == 3
        assert f"{value} is not finite" in err


class TestSelfCheckRegressions:
    """Requests whose reported points once failed their own self-check (exit 3)."""

    @pytest.mark.parametrize("argv", [
        # order-4 sums whose forced zero at a came back as a degenerate
        # point that verify rejected (high-order requests, seeds 1, 4, 8, 9, 10)
        ["--fn=cos(exp(0.7795*x-0.1241))", "--a=0.2447", "--b=2.0949"],
        ["--fn=cos(exp(0.8679*x-0.3807))", "--a=0.5018", "--b=2.1049"],
        ["--fn=cos(exp(0.8391*x+0.3286))", "--a=0.4307", "--b=2.0616"],
        ["--fn=cos(exp(0.7137*x+0.1720))", "--a=0.3441", "--b=2.3214"],
        ["--fn=cos(exp(0.7966*x+0.0603))", "--a=0.2859", "--b=2.2353"],
        ["--fn=cos(exp(0.8944*x-0.0495))", "--a=0.5698", "--b=2.0355"],
    ])
    def test_pawlikowska_forced_zero(self, capsys, argv):
        code, rep, err = run_json(capsys, "solve", "pawlikowska", "--n", "4", *argv,
                                  "--stable")
        assert code == 0, err
        assert not any(p["degenerate"] for p in rep["results"])

    def test_sqrt_endpoint_in_the_self_check_quadrature(self, capsys):
        # adaptive Simpson at quad_tol/100 reached float resolution next to 1
        code, rep, err = run_json(capsys, "solve", "lupu-4.6", "--fn", "sqrt(1-x)",
                                  "--gn", "x+1", "--stable")
        assert code == 0, err
        assert [len(g["points"]) for g in rep["results"]] == [1, 1, 1]


class TestUsageErrors:
    def test_bad_expression_reports_offset(self, capsys):
        code, _, err = run(capsys, "solve", "flett", "--fn", "x^^3",
                           "-a", "0", "-b", "1")
        assert code == 2
        assert "usage error" in err and "offset" in err

    def test_unit_only_interval_enforced(self, capsys):
        code, _, err = run(capsys, "solve", "lupu-4.6", "--fn", "x",
                           "--gn", "x^2", "-a", "0", "-b", "2")
        assert code == 2
        assert "[0, 1]" in err

    def test_half_interval_rejected(self, capsys):
        code, _, err = run(capsys, "solve", "flett", "--fn", "x^3", "-a", "0")
        assert code == 2
        assert "-a and -b" in err

    def test_missing_gn_rejected(self, capsys):
        code, _, err = run(capsys, "solve", "cauchy", "--fn", "x^3",
                           "-a", "1", "-b", "2")
        assert code == 2
        assert "--gn" in err

    @pytest.mark.parametrize("argv", [
        ("solve", "flett", "--fn=--", "-a", "0", "-b", "1"),
        ("solve", "flett", "--fn", "x", "--a=--", "-b", "1"),
        ("classify", "--fn", "x", "-a", "0", "-b", "1", "--scan-points=--"),
    ], ids=["fn", "a", "scan-points"])
    def test_lone_double_dash_value_is_a_usage_error(self, capsys, argv):
        # argparse stores [] for the value "--"; parsing [] raised TypeError
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "lone '--'" in capsys.readouterr().err

    def test_unknown_theorem_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "meyers-9.9", "--fn", "x"])
        assert exc.value.code == 2

    def test_nonconstant_endpoint_rejected(self, capsys):
        code, _, err = run(capsys, "solve", "flett", "--fn", "x^3",
                           "-a", "x", "-b", "1")
        assert code == 2
        assert "constant" in err

    @pytest.mark.parametrize("endpoint", ["abs(x-0.5)", "x-x", "0*x"])
    def test_endpoint_containing_x_rejected(self, capsys, endpoint):
        # each of these takes one value at both x=0 and x=1
        code, _, err = run(capsys, "solve", "flett", "--fn", "x^3",
                           "-a", endpoint, "-b", "1")
        assert code == 2
        assert "constant" in err

    @pytest.mark.parametrize("fn", ["+".join(["x"] * 3000),
                                    "(" * 3000 + "x" + ")" * 3000])
    def test_too_deep_expression_is_a_usage_error(self, capsys, fn):
        code, out, err = run(capsys, "solve", "flett", "--fn", fn,
                             "-a", "0", "-b", "1")
        assert code == 2
        assert out == ""
        assert "deeper than" in err and "Traceback" not in err

    def test_weighted_norm_overflow_exits_3(self, capsys):
        code, _, err = run(capsys, "solve", "weighted-norm",
                           "--fn", "exp(400*x)", "--gn", "1", "--weight", "x")
        assert code == 3
        assert "numeric failure" in err

    @pytest.mark.parametrize("theorem", ["riedel-sahoo", "cakmak-tiryaki",
                                         "second-order-a", "second-order-b"])
    def test_squared_width_overflow_exits_3(self, capsys, theorem):
        # (x-a)^2 overflows on a 2e200-wide interval: inf, not OverflowError
        code, _, err = run(capsys, "solve", theorem, "--fn", "sin(x)",
                           "--a=-1e200", "-b", "1e200")
        assert code == 3
        assert "numeric failure" in err

    @pytest.mark.parametrize("theorem, fn, xi", [
        ("riedel-sahoo", "abs(x)+x^3", 0.75),
        ("cakmak-tiryaki", "abs(x)+x^3", 0.25),
        ("cakmak-tiryaki", "abs(x-1)+x^3", 0.25),
    ])
    def test_a_kinked_endpoint_passes_the_self_check(self, capsys, theorem, fn, xi):
        # the self-check reads the endpoint slopes a few ulps inside the
        # kink, as the solver does, not at it, where sgn(0) = 0
        code, rep, err = run_json(capsys, "solve", theorem, "--fn", fn,
                                  "-a", "0", "-b", "1", "--stable")
        assert code == 0 and err == ""
        assert [p["xi"] for p in rep["results"][0]["points"]] == pytest.approx([xi], abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ("solve", "lagrange", "--fn", "x"),
        ("solve", "integral-mvt", "--fn", "1e308*x"),
        ("classify", "--fn", "sin(x)"),
    ], ids=["lagrange", "integral-mvt", "classify"])
    def test_interval_whose_width_overflows_exits_2(self, capsys, argv):
        # both endpoints are finite, but b - a is inf: a grid of such an
        # interval would be all nan
        code, out, err = run(capsys, *argv, "--a=-1e308", "-b", "1e308")
        assert code == 2 and out == ""
        assert "usage error" in err and "width" in err

    def test_removable_singularity_inside_interval(self, capsys):
        code, rep, _ = run_json(capsys, "solve", "integral-mvt",
                                "--fn", "sin(x-0.5)/(x-0.5)", "-a", "0",
                                "-b", "1")
        assert code == 0
        (grp,) = rep["results"]
        assert grp["points"]
        f = parse("sin(x-0.5)/(x-0.5)")
        for p in grp["points"]:
            assert verify_point("integral-mvt", p["xi"], f,
                                iv=Interval(0.0, 1.0)).ok


class TestDeterminism:
    def test_stable_output_is_byte_identical(self, capsys):
        argv = ("solve", "flett", "--fn", "x^3+2*x-1", "--a=-2", "-b", "2",
                "--stable")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        assert "meta" not in json.loads(out1)


class TestCsv:
    def test_rows_per_point(self, capsys):
        code, out, _ = run(capsys, "solve", "flett", "--fn", "x^3+2*x-1",
                           "--a=-2", "-b", "2", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theorem_id,xi,residual,degenerate,hypothesis_satisfied"
        assert len(lines) == 2
        assert lines[1].startswith("flett,")
        assert lines[1].endswith(",false,true")

    def test_header_only_when_nothing_found(self, capsys):
        code, out, _ = run(capsys, "solve", "meyers-2.8", "--fn", "2*x+1",
                           "-a", "0", "-b", "1", "--csv")
        assert code == 1
        assert out.strip().splitlines() == [
            "theorem_id,xi,residual,degenerate,hypothesis_satisfied"]

    def test_csv_forbidden_outside_solve(self, capsys):
        code, _, err = run(capsys, "classify", "--fn", "x^3",
                           "-a", "0", "-b", "1", "--csv")
        assert code == 2
        assert "solve only" in err


class TestClassifyCommand:
    def test_vector_shape(self, capsys):
        code, rep, _ = run_json(capsys, "classify", "--fn", "x^3",
                                "--a=-1", "-b", "1")
        assert code == 0
        vec = rep["condition_vector"]
        assert vec["flett"] == "Satisfied"
        assert vec["malesevic_m1"] == "NotSatisfied"
        assert vec["has_flett_point"] is True
        assert vec["M"] == 0.0

    def test_pole_between_grid_points_is_not_applicable(self, capsys):
        # Tong's means integrate f; no sample lands on the pole at 0.5
        with deadline(1.0):
            code, rep, _ = run_json(capsys, "classify", "--fn", "1/(x-0.5)",
                                    "-a", "0", "-b", "0.9", "--scan-points", "256")
        assert code == 0
        assert rep["condition_vector"]["tong"] == "NotApplicable"

    def test_a_kink_on_an_endpoint_keeps_its_one_sided_slope(self, capsys):
        # abs(x-0.3) is linear on [0.3, 1]: both endpoint slopes are 1
        code, rep, _ = run_json(capsys, "classify", "--fn", "abs(x-0.3)",
                                "--a=0.3", "-b", "1", "--stable")
        assert code == 0 and rep["condition_vector"]["flett"] == "Satisfied"
        code, rep, _ = run_json(capsys, "solve", "flett", "--fn", "abs(x-0.3)",
                                "--a=0.3", "-b", "1", "--stable")
        assert code == 0 and rep["results"][0]["hypothesis_satisfied"] is True


class TestOneProcess:
    """The parser is built once per process; main stays stateless."""

    REQUESTS = (
        ("solve", "flett", "--fn", "x^3+2*x-1", "--a=-2", "-b", "2", "--stable"),
        ("solve", "no-such-theorem", "--fn", "x"),
        ("classify", "--fn", "x^3", "--a=-1", "-b", "1", "--stable"),
    )

    def test_requests_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.delenv("MVT_LAB_CONFIG", raising=False)
        env = {k: v for k, v in os.environ.items() if k != "MVT_LAB_CONFIG"}
        env["PYTHONPATH"] = str(Path(mvtlab.__file__).parents[1])
        codes = []
        for argv in self.REQUESTS:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            out, err = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "mvtlab", *argv], env=env,
                                   capture_output=True, text=True, timeout=60)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
            codes.append(code)
        assert codes == [0, 2, 0]


class TestGridMemo:
    """grid_points' memo is bounded in points, and outlives a request."""

    LUPU = ("solve", "lupu-4.6", "--fn", "exp(0.7*x)", "--gn", "x^3+0.3", "--stable")

    @pytest.fixture
    def built(self, monkeypatch):
        """A fresh memo in place of the process's own; the grids it builds."""
        own = mvtlab.numerics._grids
        memo = mvtlab.expr._Memo(own.bound, own.size)
        monkeypatch.setattr(mvtlab.numerics, "_grids", memo)
        keys = []
        original = mvtlab.numerics._grid

        def grid(*key):
            keys.append(key)
            return original(*key)

        monkeypatch.setattr(mvtlab.numerics, "_grid", grid)
        return keys

    def test_held_points_stay_within_the_bound(self, capsys, built):
        memo = mvtlab.numerics._grids
        for argv in (self.LUPU,
                     ("classify", "--fn", "x^3", "--a=-1", "-b", "1", "--stable"),
                     ("classify", "--fn", "x^3", "--a=-1", "-b", "1",
                      "--scan-points", "20000", "--stable"),
                     ("classify", "--fn", "sin(x)", "--a=-2", "-b", "3", "--stable")):
            assert run(capsys, *argv)[0] == 0
            held = sum(map(len, memo.items.values()))
            assert memo.held == held
            # a grid past the bound is kept alone, as the newest entry
            assert held <= memo.bound or len(memo.items) == 1
        assert any(key[1] == 20000 for key in built) and memo.held <= memo.bound

    def test_an_operator_solve_past_the_bound_shares_one_node_list(self, capsys, built):
        mvtlab.numerics._grids.bound = 100  # below the 4,096 points of the grid
        assert run(capsys, *self.LUPU)[0] == 0
        assert built == [(Interval(0.0, 1.0), 4096, 1e-9)]

    def test_a_second_request_on_the_interval_hits(self, capsys, built):
        assert run(capsys, *self.LUPU)[0] == 0
        first = len(built)
        assert run(capsys, *self.LUPU)[0] == 0
        assert first == 1 and len(built) == first


class TestCorpus:
    def test_fixture_file_matches_expectations(self, capsys):
        code, rep, err = run_json(capsys, "corpus",
                                  str(FIXTURES / "figura5.jsonl"))
        assert code == 0
        assert err == ""
        assert rep["mismatches"] == 0
        assert len(rep["records"]) == 4
        assert all(r["expect_ok"] is True for r in rep["records"])
        assert sum(s["count"] for s in rep["summary"]) == 4

    def test_expect_mismatch_exits_1(self, capsys, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"fn": "x^3", "a": -1, "b": 1, '
                     '"expect": {"flett": "NotSatisfied"}}\n')
        code, rep, err = run_json(capsys, "corpus", str(p))
        assert code == 1
        assert rep["mismatches"] == 1
        assert rep["records"][0]["expect_ok"] is False
        assert "line 1" in err

    def test_malformed_line_reports_number(self, capsys, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"fn": "x^3", "a": -1, "b": 1}\n{oops\n')
        code, _, err = run(capsys, "corpus", str(p))
        assert code == 2
        assert "line 2" in err

    def test_blank_lines_are_skipped(self, capsys, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('\n{"fn": "x^3", "a": -1, "b": 1}\n\n')
        code, rep, _ = run_json(capsys, "corpus", str(p))
        assert code == 0
        assert len(rep["records"]) == 1
        assert rep["records"][0]["expect_ok"] is None

    def test_empty_file(self, capsys, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        code, rep, _ = run_json(capsys, "corpus", str(p))
        assert code == 0
        assert rep["records"] == [] and rep["summary"] == []

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "corpus", str(tmp_path / "absent.jsonl"))
        assert code == 2
        assert "usage error" in err

    def test_record_whose_width_overflows_exits_2(self, capsys, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"fn": "x^3", "a": -1, "b": 1}\n'
                     '{"fn": "sin(x)", "a": -1e308, "b": 1e308}\n')
        code, out, err = run(capsys, "corpus", str(p))
        assert code == 2 and out == ""
        assert "usage error: line 2" in err and "width" in err

    def test_file_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_bytes(b'{"fn": "x^3", "a": -1, "b": 1}\n\xff\xfe\n')
        code, out, err = run(capsys, "corpus", str(p))
        assert code == 2 and out == ""
        assert "usage error" in err and str(p) in err and "UTF-8" in err

    def test_line_nested_too_deeply_for_json_exits_2(self, capsys, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"fn": "x^3", "a": -1, "b": 1}\n' + "[" * 100_000 + "\n")
        code, out, err = run(capsys, "corpus", str(p))
        assert code == 2 and out == ""
        assert "usage error: line 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("m, ok", [
        ("0.0", True),        # M is 0 for x^3 on [-1, 1]
        ("1e-10", True),      # within 1e-9
        ("1e-8", False),
        ("1e999", False),     # JSON reads this as inf
        ("-1e999", False),
        ("NaN", False),
    ])
    def test_numeric_expectation_matches_within_1e_9_and_finite(self, capsys, tmp_path,
                                                                 m, ok):
        p = tmp_path / "c.jsonl"
        p.write_text('{"fn": "x^3", "a": -1, "b": 1, '
                     f'"expect": {{"tong": "Satisfied", "M": {m}}}}}\n')
        code, rep, _ = run_json(capsys, "corpus", str(p))
        assert rep["records"][0]["expect_ok"] is ok
        assert code == (0 if ok else 1)

    @pytest.mark.parametrize("endpoint", ["true", "false", "null", "[1]", "{}"])
    def test_endpoint_that_is_no_number_nor_text_exits_2(self, capsys, tmp_path,
                                                         endpoint):
        # JSON true is a Python bool, and bool is an int subclass
        p = tmp_path / "c.jsonl"
        p.write_text('{"fn": "x^3", "a": -1, "b": 1}\n'
                     f'{{"fn": "x^3", "a": {endpoint}, "b": 2}}\n')
        code, out, err = run(capsys, "corpus", str(p))
        assert code == 2 and out == ""
        assert "usage error: line 2" in err and "Traceback" not in err


class TestConfig:
    def test_env_file_applies_and_is_echoed(self, capsys, tmp_path, monkeypatch):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"scan_points": 512}')
        monkeypatch.setenv("MVT_LAB_CONFIG", str(cfgfile))
        code, rep, _ = run_json(capsys, "solve", "flett",
                                "--fn", "x^3+2*x-1", "--a=-2", "-b", "2")
        assert code == 0
        assert rep["request"]["config_overrides"] == {"scan_points": 512}

    def test_flag_beats_env_file(self, capsys, tmp_path, monkeypatch):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"scan_points": 512}')
        monkeypatch.setenv("MVT_LAB_CONFIG", str(cfgfile))
        code, rep, _ = run_json(capsys, "solve", "flett",
                                "--fn", "x^3+2*x-1", "--a=-2", "-b", "2",
                                "--scan-points", "1024")
        assert code == 0
        assert rep["request"]["config_overrides"] == {"scan_points": 1024}

    def test_unknown_config_field_rejected(self, capsys, tmp_path, monkeypatch):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"grid": 10}')
        monkeypatch.setenv("MVT_LAB_CONFIG", str(cfgfile))
        code, _, err = run(capsys, "solve", "flett", "--fn", "x^3",
                           "-a", "0", "-b", "1")
        assert code == 2
        assert "grid" in err

    def test_env_file_is_read_once_per_request(self, capsys, tmp_path, monkeypatch):
        # main reads the file once and hands the overrides down for the echo
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"scan_points": 256}')
        monkeypatch.setenv("MVT_LAB_CONFIG", str(cfgfile))
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            if str(file) == str(cfgfile):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        code, rep, _ = run_json(capsys, "classify", "--fn", "x^3", "-a", "0", "-b", "1")
        assert code == 0
        assert rep["request"]["config_overrides"] == {"scan_points": 256}
        assert len(opened) == 1

    def test_scan_points_past_the_cap_exit_2(self, capsys, tmp_path, monkeypatch):
        # rejected when the config is made, before any grid is built
        too_many = mvtlab.numerics.MAX_SCAN_POINTS + 1
        code, _, err = run(capsys, "solve", "lupu-4.6", "--fn", "exp(x)", "--gn", "x+1",
                           "--scan-points", str(too_many))
        assert code == 2 and "scan_points" in err
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scan_points": too_many}))
        monkeypatch.setenv("MVT_LAB_CONFIG", str(cfgfile))
        code, _, err = run(capsys, "solve", "lupu-4.6", "--fn", "exp(x)", "--gn", "x+1")
        assert code == 2 and "scan_points" in err

    def test_fractional_scan_points_in_the_file_exit_2(self, capsys, tmp_path, monkeypatch):
        # used to end in a TypeError traceback from range()
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"scan_points": 512.0}')
        monkeypatch.setenv("MVT_LAB_CONFIG", str(cfgfile))
        code, _, err = run(capsys, "solve", "flett", "--fn", "x^3", "-a", "0", "-b", "1")
        assert code == 2 and "scan_points must be an integer" in err

    @pytest.mark.parametrize("body, says", [
        # json recurses once a level: this used to end in a RecursionError traceback
        (b"[" * 100000 + b"]" * 100000, "is not valid JSON"),
        # this used to exit 2 with a decoding message that did not name the file
        (b'{"scan_points": "\xff"}', "is not UTF-8"),
    ], ids=["nested-too-deeply", "not-utf-8"])
    def test_a_file_json_cannot_read_is_a_usage_error_naming_it(
            self, capsys, tmp_path, monkeypatch, body, says):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_bytes(body)
        monkeypatch.setenv("MVT_LAB_CONFIG", str(cfgfile))
        code, out, err = run(capsys, "classify", "--fn", "x^3", "-a", "0", "-b", "1")
        assert code == 2 and out == ""
        assert f"usage error: MVT_LAB_CONFIG file {str(cfgfile)!r} {says}" in err
        assert "Traceback" not in err

    def test_unreadable_config_path_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MVT_LAB_CONFIG", str(tmp_path / "nope.json"))
        code, _, err = run(capsys, "solve", "flett", "--fn", "x^3",
                           "-a", "0", "-b", "1")
        assert code == 2
        assert "MVT_LAB_CONFIG" in err


def _takes(name, field):
    return any(getattr(THEOREMS[tid], field) for tid in _SOLVES[name][0])


def _inputs(name, skip=""):
    """solve argv for the command, with every function it takes but ``skip``."""
    argv = ["solve", name, "--fn", "x"]
    if _takes(name, "needs_g") and skip != "--gn":
        argv += ["--gn", "x^2+1"]
    if _takes(name, "needs_weight") and skip != "--weight":
        argv += ["--weight", "x"]
    return argv


class TestTheoremTable:
    """Checks that run over the solve table and the theorem table."""

    def test_every_theorem_id_is_reported_by_a_command(self):
        reported = [tid for ids, _ in _SOLVES.values() for tid in ids]
        assert sorted(reported) == sorted(TheoremId)
        assert set(THEOREMS) == set(TheoremId)

    def test_every_command_has_a_golden_case(self):
        lines = (FIXTURES / "stable_golden.jsonl").read_text().splitlines()
        assert {json.loads(line)["argv"][1] for line in lines} == set(_SOLVES)

    def test_readme_lists_the_table_names(self):
        text = README.read_text(encoding="utf-8")
        sentence = text.split("Theorem names for `solve`:", 1)[1].split("`.", 1)[0]
        names = [n.strip(" `\n") for n in sentence.split(",")]
        assert names == list(_SOLVES)

    @pytest.mark.parametrize("name", list(_SOLVES))
    def test_every_reported_id_has_a_verify_form(self, name):
        for tid in _SOLVES[name][0]:
            chk = verify_point(tid, 0.5, parse("x"), g=parse("x^2+1"),
                               weight=parse("x"), iv=Interval(0.0, 1.0), n=2)
            assert isinstance(chk, IdentityCheck)

    @pytest.mark.parametrize("name,flag", [
        (name, flag) for name in _SOLVES
        for flag, field in (("--gn", "needs_g"), ("--weight", "needs_weight"))
        if _takes(name, field)])
    def test_missing_function_exits_2(self, capsys, name, flag):
        code, out, err = run(capsys, *_inputs(name, skip=flag), "-a", "0", "-b", "1")
        assert code == 2 and out == ""
        assert f"needs {flag}" in err

    @pytest.mark.parametrize("name,flag,value", [
        (name, flag, value) for name in _SOLVES
        for flag, value, field in (("--gn", "x", "needs_g"),
                                   ("--weight", "x", "needs_weight"),
                                   ("--n", "7", "takes_n"))
        if not _takes(name, field)])
    def test_input_the_theorem_does_not_take_exits_2(self, capsys, name, flag, value):
        code, out, err = run(capsys, *_inputs(name), flag, value, "-a", "0", "-b", "1")
        assert code == 2 and out == ""
        assert f"takes no {flag}" in err

    @pytest.mark.parametrize("name", [n for n in _SOLVES if _takes(n, "unit_only")])
    def test_unit_only_theorem_rejects_other_intervals(self, capsys, name):
        code, out, err = run(capsys, *_inputs(name), "-a", "0", "-b", "2")
        assert code == 2 and out == ""
        assert "[0, 1]" in err

    def test_flett_point_computes_its_hypothesis_once(self, capsys, monkeypatch):
        # f'(a) and f'(b) are taken once: the solver stamps the flag on its
        # points, and the report reads it there
        calls = []
        original = mvtlab.numerics.one_sided_derivative

        def counted(f, x, cfg):
            calls.append(x)
            return original(f, x, cfg)

        for name, mod in list(sys.modules.items()):
            if name.startswith("mvtlab") and \
                    getattr(mod, "one_sided_derivative", None) is original:
                monkeypatch.setattr(mod, "one_sided_derivative", counted)
        code, rep, _ = run_json(capsys, "solve", "flett", "--fn", "x^3+2*x-1",
                                "--a=-2", "-b", "2")
        assert code == 0 and rep["results"][0]["hypothesis_satisfied"] is True
        assert sorted(calls) == [-2.0, 2.0]

    def test_a_request_compiles_its_functions_once_for_verification(self, capsys,
                                                                    monkeypatch):
        # lupu-4.6 verifies three points; they share one Inputs and its
        # c_f, c_g, and f and g are compiled once each: every read of a
        # tree's compiled function returns the one callable compile_fn
        # memoized on it
        compiled = {}  # id(tree) -> (tree, callables returned for it)
        original = mvtlab.verify.compile_fn

        def counted(e):
            fn = original(e)
            compiled.setdefault(id(e), (e, set()))[1].add(fn)
            return fn

        monkeypatch.setattr(mvtlab.verify, "compile_fn", counted)
        code, rep, _ = run_json(capsys, "solve", "lupu-4.6", "--fn", "x", "--gn", "x^2")
        assert code == 0 and sum(len(r["points"]) for r in rep["results"]) == 3
        assert [e for e, _ in compiled.values()] == [parse("x"), parse("x^2")]
        assert [len(fns) for _, fns in compiled.values()] == [1, 1]

    def test_flett_without_points_computes_its_hypothesis_once(self, capsys, monkeypatch):
        # x^2 on [0, 1] has no interior Flett point; the empty result the
        # solver returns carries the flag it computed (f'(0) != f'(1))
        calls = []
        original = mvtlab.flett.meyers_hypothesis

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("mvtlab") and \
                    getattr(mod, "meyers_hypothesis", None) is original:
                monkeypatch.setattr(mod, "meyers_hypothesis", counted)
        code, rep, err = run_json(capsys, "solve", "flett", "--fn", "x^2",
                                  "-a", "0", "-b", "1")
        assert code == 1 and "hypothesis not satisfied" in err
        assert rep["results"][0]["points"] == []
        assert rep["results"][0]["hypothesis_satisfied"] is False
        assert len(calls) == 1
