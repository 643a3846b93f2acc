import json
import math

import pytest

from umbralint import cli
from umbralint.closedforms import get_identity


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
                "timing", "reason"}
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
        assert all(r["oracle_cost"] > 1000 for r in records)
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

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
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
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("identity_id,")
        assert len(lines) == 2


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

    # x ** (nu - 1) overflows at x near the bottom of the double range
    @pytest.mark.parametrize("identity_id", ["eq02_mellin_exponential",
                                             "eq02_mellin_rational"])
    def test_integrand_overflow_is_an_oracle_failure(self, identity_id):
        identity = get_identity(identity_id)
        report = cli.verify_point(identity, {"nu": 0.02}, identity.default_tol)
        assert not report.passed
        assert report.reason.startswith("oracle failure: ")
        assert "overflow" in report.reason

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
