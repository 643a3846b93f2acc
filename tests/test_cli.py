import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from umbralint import cli
from umbralint.closedforms import get_identity


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_does_not_import_scipy():
    # scipy.special is most of the import time and only oracle integrands use it
    script = ("import sys\n"
              "import umbralint.cli as cli\n"
              "assert cli.main(['eval', 'gamma', '0.5']) == 0\n"
              "print('scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.splitlines()[-1] == "False"


class TestList:
    def test_text_contains_catalog_ids(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        assert "eq08_fresnel_bessel" in out
        assert "eq12_struve_halfline" in out

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "list", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list)
        ids = {entry["id"] for entry in payload}
        assert "eq13_struve_moment" in ids
        for entry in payload:
            assert entry["parameter_domain"]


class TestEval:
    def test_gamma(self, capsys):
        code, out, _ = run(capsys, "eval", "gamma", "0.5")
        assert code == 0
        assert out.splitlines()[0].startswith("1.7724538509")

    def test_hermite_tricomi_between_powers_of_y(self, capsys):
        # the zero terms k = 1, 2, 3 between y^0 and y^1 must not stop the sum
        code, out, _ = run(capsys, "eval", "hermite_tricomi", "0", "4", "0", "5")
        assert code == 0
        assert out.splitlines()[0].startswith("1.20864339667")

    def test_struve_moment(self, capsys):
        code, out, _ = run(capsys, "eval", "struve_moment", "0")
        assert code == 0
        assert out.splitlines()[0].startswith("3.14159")

    def test_fresnel_bessel_complex_output(self, capsys):
        code, out, _ = run(capsys, "eval", "fresnel_bessel", "0", "1", "1")
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("0.1237")
        assert "+0.4844" in first and first.endswith("i")

    def test_unknown_function_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "zeta", "2")
        assert code == 2
        assert "unknown function" in err

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "eval", "gamma")
        assert code == 2

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "gamma", "0")
        assert code == 2
        assert "domain error" in err

    @pytest.mark.parametrize("argv", [
        ("gamma", "200"),
        ("beta", "1e-320", "1"),
        ("struve_moment", "200"),
        ("struve_h", "0", "1e6"),
        ("hermite_higher", "1000", "2", "10", "10"),
        ("hermite_hybrid", "400", "2", "10", "10"),
        ("truncated_e", "400", "2", "10", "10"),
    ])
    def test_kernel_overflow_is_a_domain_error(self, capsys, argv):
        code, _, err = run(capsys, "eval", *argv)
        assert code == 2
        assert err.startswith("domain error: ")
        assert "overflow" in err

    @pytest.mark.parametrize("argv", [
        ("pseudo_trig", "0", "1e300", "0"),
        ("hermite_hybrid", "1e9", "2", "1", "1"),
        ("truncated_e", "1e9", "2", "1", "1"),
        ("hermite_tricomi", "1e9", "2", "1", "1"),
        ("hermite_tricomi", "200", "2", "1", "1"),
    ])
    def test_huge_integer_order_fails_promptly(self, capsys, argv):
        # each of these ran for minutes or without end
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", *argv)
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (2, "")
        assert err.startswith("domain error: ")

    @pytest.mark.parametrize("argv", [
        ("gamma", "nan"),
        ("gamma", "inf"),
        ("gamma", "1+infj"),
        ("gamma", "nan+1j"),
        ("beta", "nan", "1"),
        ("hermite_higher", "2", "2", "nan", "1"),
        ("hermite_higher", "1e400", "2", "1", "1"),
        ("bessel_generating", "1", "1", "inf"),
        ("pseudo_trig", "0", "nan", "1"),
    ])
    def test_non_finite_argument_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "eval", *argv)
        assert (code, out) == (2, "")
        assert "finite" in err

    @pytest.mark.parametrize("argv", [
        ("bessel_generating", "1", "0.5", "2.5"),
        ("pseudo_trig", "0.5", "2.7", "1"),
        ("hermite_higher", "2.5", "2", "1", "1"),
        ("bessel_gauss_dilation", "1.5", "1"),
        ("bessel_gauss_dilation", "1j", "1"),
    ])
    def test_non_integral_order_is_a_domain_error(self, capsys, argv):
        code, out, err = run(capsys, "eval", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("domain error: ")

    @pytest.mark.parametrize("argv", [
        ("bessel_j", "1j", "1"),
        ("bessel_j", "0", "1+1j"),
        ("struve_moment", "1j"),
        ("struve_h", "0", "2j"),
        ("fresnel_bessel", "0", "1j", "1"),
        ("struve_halfline", "-0.5", "1+1j"),
        ("bessel_gauss_dilation", "1", "2j"),
    ])
    def test_complex_argument_to_real_parameter_is_a_domain_error(self, capsys, argv):
        code, out, err = run(capsys, "eval", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("domain error: ")
        assert "needs a real" in err

    @pytest.mark.parametrize("argv", [
        ("gamma", "1+1j"),
        ("b_nu", "0.5", "-1-1j"),
        ("bessel_generating", "1", "1j", "2"),
    ])
    def test_complex_parameters_still_take_complex_values(self, capsys, argv):
        code, out, _ = run(capsys, "eval", *argv)
        assert code == 0
        assert out.splitlines()[0].endswith("i")

    @pytest.mark.parametrize("argv, first_line", [
        (("struve_halfline", "-5e-1", "2"), "0.5"),
        (("gamma", "-1.5e0"), "2.36327180121"),
        (("gamma", "-1-2j"), "-0.0323612885502-0.0112294242346i"),
    ])
    def test_negative_numbers_in_exponent_form_are_arguments(self, capsys, argv,
                                                             first_line):
        code, out, _ = run(capsys, "eval", *argv)
        assert code == 0
        assert out.splitlines()[0] == first_line

    def test_tiny_negative_order_reaches_the_closed_form(self, capsys):
        code, out, err = run(capsys, "eval", "struve_halfline", "-1e-300", "1e-300")
        assert (code, out) == (2, "")
        assert err.startswith("domain error: struve_halfline_integral overflowed")

    def test_integral_orders_may_be_written_as_decimals(self, capsys):
        assert run(capsys, "eval", "pseudo_trig", "1.0", "2", "0.5")[:2] == \
            run(capsys, "eval", "pseudo_trig", "1", "2", "0.5")[:2]

    @pytest.mark.parametrize("argv", [
        ("struve_halfline", "-0.5", "1e-320"),
        ("struve_moment", "1e300"),
        ("fresnel_bessel", "10000", "3", "9"),
    ])
    def test_closed_form_overflow_is_a_domain_error(self, capsys, argv):
        code, out, err = run(capsys, "eval", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("domain error: ")
        assert "overflow" in err


class TestVerify:
    def test_single_identity_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.jsonl"
        code, out, err = run(capsys, "verify", "eq30_lorentz_gauss",
                             "--grid", "x=0,1", "--out", str(out_path))
        assert code == 0
        assert "[pass] eq30_lorentz_gauss" in err
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == 2
        for record in records:
            assert record["pass"] is True
            assert set(record) == {
                "identity_id", "equation", "point", "closed_form_value",
                "oracle_value", "relative_error", "tolerance", "pass",
                "oracle_cost", "oracle_error_estimate", "ladder_residual",
                "closed_time", "oracle_time", "reason"}
            assert record["closed_time"] > 0.0 and record["oracle_time"] > 0.0
            assert record["oracle_error_estimate"] > 0.0
            assert record["ladder_residual"] is None
            assert set(record["closed_form_value"]) == {"re", "im"}

    def test_range_grid_syntax(self, capsys, tmp_path):
        out_path = tmp_path / "report.jsonl"
        code, _, _ = run(capsys, "verify", "eq30_lorentz_gauss",
                         "--grid", "x=0:2:3", "--out", str(out_path))
        assert code == 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [r["point"]["x"] for r in records] == [0.0, 1.0, 2.0]

    def test_damped_identity_over_default_tolerance(self, capsys, tmp_path):
        out_path = tmp_path / "report.jsonl"
        code, _, _ = run(capsys, "verify", "eq12_struve_halfline",
                         "--grid", "nu=-0.5", "--grid", "b=1,2",
                         "--out", str(out_path))
        assert code == 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == 2
        assert all(r["pass"] for r in records)
        assert all(0 < r["oracle_cost"] <= 5000 for r in records)
        assert all(0.0 < r["ladder_residual"] <= r["oracle_error_estimate"]
                   for r in records)

    def test_uncorrected_variant_fails_at_origin(self, capsys, tmp_path):
        out_path = tmp_path / "report.jsonl"
        code, out, _ = run(capsys, "verify", "eq30_lorentz_gauss",
                           "--grid", "x=0", "--variant", "paper-literal",
                           "--out", str(out_path))
        assert code == 1
        record = json.loads(out_path.read_text().splitlines()[0])
        assert record["pass"] is False
        assert record["closed_form_value"]["re"] == pytest.approx(math.pi / 4.0,
                                                                  rel=1e-12)
        assert record["oracle_value"]["re"] == pytest.approx(math.pi / 2.0,
                                                             rel=1e-6)

    def test_domain_violations_are_reported_not_skipped(self, capsys, tmp_path):
        out_path = tmp_path / "report.jsonl"
        code, out, _ = run(capsys, "verify", "eq12_struve_halfline",
                           "--grid", "nu=0.5", "--grid", "b=1",
                           "--out", str(out_path))
        assert code == 1
        record = json.loads(out_path.read_text().splitlines()[0])
        assert record["pass"] is False
        assert "outside domain" in record["reason"]

    def test_non_integral_order_is_outside_domain(self, capsys, tmp_path):
        out_path = tmp_path / "report.jsonl"
        code, _, _ = run(capsys, "verify", "eq19_bessel_generating", "--grid", "m=2.5",
                         "--grid", "x=1", "--grid", "t=0.5", "--out", str(out_path))
        assert code == 1
        record = json.loads(out_path.read_text())
        assert record["pass"] is False
        assert record["reason"] == "outside domain: needs m integer >= 2"

    # each grid fails at its first point and must still report the second
    @pytest.mark.parametrize("identity_id,grid,reason", [
        ("eq13_struve_moment", ["nu=1e300,0"], "closed-form failure: "),
        ("eq19_bessel_generating", ["m=1e300,2", "x=1", "t=1"], "oracle failure: "),
    ])
    def test_overflow_fails_the_point_and_the_run_goes_on(self, capsys, tmp_path,
                                                          identity_id, grid, reason):
        out_path = tmp_path / "report.jsonl"
        options = [arg for g in grid for arg in ("--grid", g)]
        code, _, _ = run(capsys, "verify", identity_id, *options, "--out", str(out_path))
        assert code == 1
        first, second = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert first["pass"] is False
        assert first["reason"].startswith(reason)
        assert "overflow" in first["reason"]
        assert first["oracle_cost"] == 0 and first["oracle_error_estimate"] is None
        assert second["pass"] is True

    def test_unknown_identity_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "eq99_bogus")
        assert code == 2

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "eq30_lorentz_gauss",
                           "--grid", "x:0,1")
        assert code == 2
        code, _, err = run(capsys, "verify", "eq30_lorentz_gauss",
                           "--grid", "y=1")
        assert code == 2

    def test_unknown_variant_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "eq30_lorentz_gauss",
                           "--variant", "bogus")
        assert code == 2

    @pytest.mark.parametrize("grid", ["nu=nan", "nu=0,inf", "nu=0:inf:3"])
    def test_non_finite_grid_is_usage_error(self, capsys, grid):
        code, out, err = run(capsys, "verify", "eq13_struve_moment", "--grid", grid)
        assert code == 2
        assert "finite" in err
        assert out == ""

    @pytest.mark.parametrize("tol", ["-1", "-1e-5", "0", "nan", "inf"])
    def test_bad_tolerance_is_usage_error(self, capsys, tmp_path, tol):
        code, out, err = run(capsys, "verify", "eq30_lorentz_gauss", "--tol", tol)
        assert (code, out) == (2, "")
        assert "positive finite" in err
        config = tmp_path / "bad.cfg"
        config.write_text(f"eq30_lorentz_gauss.tol = {tol}\n")
        code, out, err = run(capsys, "verify", "eq30_lorentz_gauss",
                             "--config", str(config))
        assert (code, out) == (2, "")
        assert "positive finite" in err

    def test_csv_format(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, _, _ = run(capsys, "verify", "eq30_lorentz_gauss",
                         "--grid", "x=0", "--format", "csv",
                         "--out", str(out_path))
        assert code == 0
        header, row = csv.reader(io.StringIO(out_path.read_text()))
        assert header[0] == "identity_id"
        assert header[-3:] == ["closed_time", "oracle_time", "reason"]
        assert len(row) == len(header)


QUICK_CONFIG = """
# quick grids for a structural whole-catalog run
eq08_fresnel_bessel.grid.nu = 0
eq08_fresnel_bessel.grid.alpha = 1
eq08_fresnel_bessel.grid.beta = 1
eq12_struve_halfline.grid.nu = -0.5
eq12_struve_halfline.grid.b = 1
eq13_struve_moment.grid.nu = 0
eq19_bessel_generating.grid.m = 2
eq19_bessel_generating.grid.x = 0.5
eq19_bessel_generating.grid.t = 0.5
eq28_bessel_gauss_dilation.grid.n = 1
eq28_bessel_gauss_dilation.grid.x = 1
eq30_lorentz_gauss.grid.x = 1
eq02_mellin_exponential.grid.nu = 0.5
eq02_mellin_rational.grid.nu = 0.5
eq31_borel_cosine.grid.x = 0.5
eq35_borel_pseudo_trig3.grid.x = 0.5
eq36_beta_exponential.grid.alpha = 2
eq36_beta_exponential.grid.beta = 3
eq36_beta_exponential.grid.x = 1
"""


class TestVerifyPoint:
    # the Borel closed forms once overflowed here: their coefficient law
    # multiplied 1/j! by j! separately, which overflows past j = 170
    @pytest.mark.parametrize("identity_id", ["eq31_borel_cosine",
                                             "eq35_borel_pseudo_trig3"])
    @pytest.mark.parametrize("x", [-0.99, -0.9, 0.9, 0.99])
    def test_borel_closed_forms_near_the_radius(self, identity_id, x):
        identity = get_identity(identity_id)
        report = cli.verify_point(identity, {"x": x}, identity.default_tol)
        assert report.passed, report

    # at nu = 1e-6 the extrapolated singular end would be 10^4 times the
    # integral bisected so far, which the oracle does not trust, so it
    # bisects on until x ** (nu - 1) overflows near the bottom of the
    # double range
    @pytest.mark.parametrize("identity_id", ["eq02_mellin_exponential",
                                             "eq02_mellin_rational"])
    def test_integrand_overflow_is_an_oracle_failure(self, identity_id):
        identity = get_identity(identity_id)
        report = cli.verify_point(identity, {"nu": 1e-6}, identity.default_tol)
        assert not report.passed
        assert report.reason.startswith("oracle failure: ")
        assert "overflow" in report.reason

    # the origin singularity x^(nu - 1) once took bisection to the denormal
    # floor, where it overflowed
    @pytest.mark.parametrize("identity_id,nu", [
        ("eq02_mellin_exponential", 0.005), ("eq02_mellin_exponential", 0.02),
        ("eq02_mellin_rational", 0.005), ("eq02_mellin_rational", 0.02),
        ("eq02_mellin_rational", 0.995),
    ])
    def test_mellin_strip_edges_pass(self, identity_id, nu):
        identity = get_identity(identity_id)
        report = cli.verify_point(identity, {"nu": nu}, identity.default_tol)
        assert report.passed, report

    def test_extrapolated_singularity_evaluation_ceiling(self):
        # bisection alone spent 27,540 evaluations here; counts are exact
        identity = get_identity("eq02_mellin_exponential")
        report = cli.verify_point(identity, {"nu": 0.03}, identity.default_tol)
        assert report.passed
        assert report.oracle_cost <= 1_000

    def test_closed_form_overflow_is_a_closed_form_failure(self):
        identity = get_identity("eq13_struve_moment")
        report = cli.verify_point(identity, {"nu": 200.0}, identity.default_tol)
        assert not report.passed
        assert report.reason.startswith("closed-form failure: ")
        assert "overflow" in report.reason


class TestVerifyAll:
    def test_whole_catalog_with_config(self, capsys, tmp_path):
        config = tmp_path / "quick.cfg"
        config.write_text(QUICK_CONFIG)
        out_path = tmp_path / "report.jsonl"
        code, out, _ = run(capsys, "verify", "all", "--config", str(config),
                           "--out", str(out_path))
        assert code == 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        # one record per cataloged identity with these one-point grids
        from umbralint.closedforms import CATALOG
        assert len(records) == len(CATALOG)
        assert {r["identity_id"] for r in records} == {d.id for d in CATALOG}
        assert all(r["pass"] for r in records)

    def test_default_grids_pass(self, capsys, tmp_path):
        # judged on the oracle's budget scale, the eq12 points at nu = -1
        # (closed form exactly 0, oracle about -3e-8) pass at tol 1e-5
        out_path = tmp_path / "report.jsonl"
        code, _, _ = run(capsys, "verify", "all", "--out", str(out_path))
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert code == 0 and len(records) == 87
        for r in records:
            closed = complex(r["closed_form_value"]["re"], r["closed_form_value"]["im"])
            oracle = complex(r["oracle_value"]["re"], r["oracle_value"]["im"])
            scale = max(abs(closed), abs(oracle), 1.0)
            assert r["relative_error"] == abs(closed - oracle) / scale
            assert r["pass"] is (r["relative_error"] <= r["tolerance"])
        eq12 = [r for r in records if r["identity_id"] == "eq12_struve_halfline"
                and r["point"]["nu"] == -1.0]
        assert len(eq12) == 2 and all(r["closed_form_value"]["re"] == 0.0 for r in eq12)
        assert all(0.0 < r["relative_error"] < 1e-7 for r in eq12)

    def test_scipy_is_bound_before_the_first_point(self, capsys, tmp_path, monkeypatch):
        # its import would otherwise be timed as the first point's oracle
        from umbralint import reference
        monkeypatch.setattr(reference, "_sp", None)
        bound = []
        original = cli.run_verification

        def spy(*args):
            bound.append(reference._sp is not None)
            return original(*args)

        monkeypatch.setattr(cli, "run_verification", spy)
        code, _, _ = run(capsys, "verify", "eq08_fresnel_bessel", "--grid", "nu=0",
                         "--grid", "alpha=0.5", "--grid", "beta=1",
                         "--out", str(tmp_path / "report.jsonl"))
        assert code == 0 and bound == [True]

    def test_determinism(self, capsys, tmp_path):
        config = tmp_path / "quick.cfg"
        config.write_text(QUICK_CONFIG)
        outputs = []
        for name in ("a.jsonl", "b.jsonl"):
            out_path = tmp_path / name
            code, _, _ = run(capsys, "verify", "eq30_lorentz_gauss",
                             "--config", str(config), "--out", str(out_path))
            assert code == 0
            records = [json.loads(line) for line in out_path.read_text().splitlines()]
            outputs.append([(r["identity_id"], tuple(sorted(r["point"].items())),
                             r["pass"]) for r in records])
        assert outputs[0] == outputs[1]

    def test_config_tolerance_override(self, capsys, tmp_path):
        config = tmp_path / "tol.cfg"
        config.write_text("eq30_lorentz_gauss.tol = 1e-5\n"
                          "eq30_lorentz_gauss.grid.x = 0\n")
        out_path = tmp_path / "report.jsonl"
        code, _, _ = run(capsys, "verify", "eq30_lorentz_gauss",
                         "--config", str(config), "--out", str(out_path))
        assert code == 0
        record = json.loads(out_path.read_text().splitlines()[0])
        assert record["tolerance"] == 1e-5


    def test_report_streams_to_stdout_without_out(self, capsys):
        import json as _json
        code, out, err = run(capsys, "verify", "eq30_lorentz_gauss",
                             "--grid", "x=0")
        assert code == 0
        record = _json.loads(out.strip().splitlines()[0])
        assert record["identity_id"] == "eq30_lorentz_gauss"
        assert "[pass]" in err
