"""CLI: subcommands, exit codes, determinism, JSON/CSV round-trips."""

import csv
import io
import json
import math

import pytest

from helmholtz_means import cli
from helmholtz_means.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecfun:
    def test_zeros_reference_value(self, capsys):
        code, out, _ = run_cli(capsys, "specfun", "zeros", "--nu", "1", "--count", "1")
        assert code == 0
        assert json.loads(out)[0]["value"] == pytest.approx(3.831706, abs=1e-5)

    def test_zeros_of_a_non_half_integer_order(self, capsys):
        # j_{0.3,4..6} lie past t = 12, where bessel_j refuses order 0.3
        code, out, _ = run_cli(capsys, "specfun", "zeros", "--nu", "0.3", "--count", "6")
        assert code == 0
        values = [row["value"] for row in json.loads(out)]
        assert len(values) == 6 and values[3] > 12.0

    def test_kernel_a_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "specfun", "a", "--m", "2", "--t", "0", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "0.0,1.0"

    def test_kernel_a1_is_sinc(self, capsys):
        code, out, _ = run_cli(capsys, "specfun", "a", "--m", "1", "--t", "3.14159265")
        assert code == 0
        assert abs(json.loads(out)[0]["value"]) < 1e-8

    def test_grid_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "specfun", "j", "--nu", "0.5", "--t-min", "0.1", "--t-max", "5",
            "--count", "5", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "value"]
        assert len(rows) == 6

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "specfun", "a", "--t", "1")
        assert code == 64
        assert "error" in err

    def test_kernel_table_matches_sweep(self, capsys):
        grid = ("--m", "3", "--t-min", "0.5", "--t-max", "50", "--count", "201", "--format", "csv")
        code, out, _ = run_cli(capsys, "specfun", "a", *grid)
        assert code == 0
        table = list(csv.reader(io.StringIO(out)))[1:]
        code, out, _ = run_cli(capsys, "sweep", *grid)
        assert code == 0
        sweep = list(csv.reader(io.StringIO(out)))[1:]
        assert [row[:2] for row in sweep] == table


class TestSweep:
    def test_columns_and_endpoints(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--m", "2", "--t-min", "0", "--t-max", "10",
            "--count", "101", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "a_2", "b_2"]
        assert rows[1] == ["0.0", "1.0", "1.0"]
        a_vals = [float(r[1]) for r in rows[1:]]
        b_vals = [float(r[2]) for r in rows[1:]]
        t_vals = [float(r[0]) for r in rows[1:]]
        # b column strictly increasing
        assert all(y > x for x, y in zip(b_vals, b_vals[1:]))
        # first sign change of a_2 brackets j_{1,1} = 3.831706
        k = next(i for i, (x, y) in enumerate(zip(a_vals, a_vals[1:])) if x > 0 > y)
        assert t_vals[k] < 3.831706 < t_vals[k + 1]
        assert t_vals[k] == pytest.approx(3.8, abs=1e-12)

    def test_byte_identical_reruns(self, capsys):
        args = ("sweep", "--m", "3", "--count", "21", "--format", "csv")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestReportsCommands:
    BALL = '{"kind":"ball","center":[0,0],"r":1.0}'
    PW = '{"kind":"plane_wave","lambda":1.0,"direction":[1,0],"phase":0.0}'

    def test_mean_value_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "mean-value", "--solution", self.PW, "--x0", "0,0", "--r", "1"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "pass"
        assert abs(rep["residual"]) <= 1e-9
        assert rep["lhs"] == pytest.approx(0.8801011714898671, abs=1e-9)

    def test_mean_value_at_kernel_zero(self, capsys):
        # lambda r = j_{1,1}: both sides about zero
        code, out, _ = run_cli(
            capsys, "mean-value", "--solution", self.PW, "--x0", "0,0",
            "--r", "3.8317059702075125",
        )
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["lhs"]) < 1e-9 and abs(rep["rhs"]) < 1e-9

    def test_identity_on_ball(self, capsys):
        code, out, _ = run_cli(
            capsys, "identity", "--domain", self.BALL, "--solution", self.PW, "--x0", "0,0"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("domain, x0, code", [
        ('{"kind":"ball","center":[0.2,-0.1],"r":1.0}', "0.2,-0.1", 0),
        ('{"kind":"box","low":[0,0],"high":[1,1]}', "0.5,0.5", 1),
    ])
    def test_identity_of_a_modified_radial_field(self, capsys, domain, x0, code):
        # a modified-equation field is checked against b_norm: it holds on
        # the ball about its center and fails on the square
        solution = '{"kind":"modified_radial","mu":0.5,"center":[%s]}' % x0
        got, out, _ = run_cli(capsys, "identity", "--domain", domain, "--solution", solution,
                              "--x0", x0)
        assert got == code
        rep = json.loads(out)
        assert rep["diagnostics"]["field"] == "modified_radial"
        assert rep["tolerance"] == pytest.approx(1e-8 * rep["lhs"], rel=1e-15)

    def test_identity_on_an_interval(self, capsys):
        code, out, _ = run_cli(
            capsys, "identity", "--domain", '{"kind":"box","low":[0],"high":[2]}',
            "--solution", '{"kind":"plane_wave","lambda":1.0,"direction":[1],"phase":0.0}',
            "--x0", "1",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "pass" and rep["diagnostics"]["method"] == "box_gauss"

    def test_large_lambda_r_mean_value_passes(self, capsys):
        # lambda r = 60 in 3-D: the resolution grows with lambda r, so the
        # theorem holds at a tolerance of 2e-4 and at the default
        sol = '{"kind":"plane_wave","lambda":60.0,"direction":[0,0.6,0.8],"phase":0.3}'
        args = ("mean-value", "--solution", sol, "--x0", "0,0,0", "--r", "1")
        for tol in (("--tol", "2e-4"), ()):
            code, out, _ = run_cli(capsys, *args, *tol)
            assert code == 0
            assert json.loads(out)["verdict"] == "pass"
        # a 4-D ball at lambda r = 45, sampled while its tensor rule was
        # over the node budget, has a meridian rule of radial x n points
        sol = '{"kind":"plane_wave","lambda":45.0,"direction":[0,0,0.6,0.8],"phase":0.3}'
        code, out, _ = run_cli(capsys, "mean-value", "--solution", sol, "--x0", "0,0,0,0",
                               "--r", "1")
        rep = json.loads(out)
        assert code == 0 and rep["verdict"] == "pass"
        assert rep["diagnostics"]["method"] == "ball_spectral"
        assert rep["diagnostics"]["nodes_or_samples"] < 2000
        assert abs(rep["residual"]) <= rep["error_bar"] <= 1e-12

    @pytest.mark.parametrize("m", [4, 5])
    def test_balls_above_three_dimensions_pass(self, capsys, m):
        # one sphere rule in every dimension: each ball check meets the
        # default tolerance on a 4-D and a 5-D ball under the node budget
        c = [0.1] + [0.0] * (m - 2) + [-0.2]
        x0, ball = ",".join(map(str, c)), json.dumps({"kind": "ball", "center": c, "r": 1.0})
        radial = json.dumps({"kind": "radial", "lambda": 1.5, "center": c})
        wave = json.dumps({"kind": "plane_wave", "lambda": 1.5, "phase": 0.3,
                           "direction": [0.6] + [0.0] * (m - 2) + [0.8]})
        for argv in (("mean-value", "--solution", wave, "--x0", x0, "--r", "1"),
                     ("identity", "--domain", ball, "--solution", radial, "--x0", x0),
                     ("flux", "--solution", radial, "--x0", x0, "--r", "1"),
                     ("theorem1", "--m", str(m), "--mu", "1", "--x0", x0, "--r", "1")):
            code, out, _ = run_cli(capsys, *argv)
            rep = json.loads(out)
            assert code == 0 and rep["verdict"] == "pass", argv
            assert rep["diagnostics"].get("method", "ball_spectral") == "ball_spectral"

    def test_characterize_ball_consistent(self, capsys):
        code, out, _ = run_cli(
            capsys, "characterize", "--domain", self.BALL, "--lambda", "1.0", "--x0", "0,0"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["diagnostics"]["conclusion"] == "consistent with D = B_r(x0)"

    def test_characterize_shifted_ball_fails(self, capsys):
        shifted = '{"kind":"translate","of":{"kind":"ball","center":[0,0],"r":1.0},"by":[0.3,0]}'
        code, out, _ = run_cli(
            capsys, "characterize", "--domain", shifted, "--lambda", "1.0", "--x0", "0,0"
        )
        assert code == 1
        rep = json.loads(out)
        assert rep["diagnostics"]["conclusion"] == "not a ball centered at x0"
        assert rep["diagnostics"]["witness"]["kind"] == "radial"

    def test_characterize_square_outside_scope(self, capsys):
        square = '{"kind":"box","low":[0,0],"high":[1,1]}'
        lam = repr(math.pi * math.sqrt(5.0))
        code, out, _ = run_cli(
            capsys, "characterize", "--domain", square, "--lambda", lam, "--x0", "0.5,0.5"
        )
        assert code == 2
        assert json.loads(out)["diagnostics"]["conclusion"] == "outside theorem scope"

    def test_characterize_sampled_sup_short_of_r0_is_out_of_scope(self, capsys):
        # the bitten disk's enclosing radius 1.5627 is above r0 = 1.555; a
        # 2,000-point draw's sup falls short of r0 by less than its spacing
        bitten = ('{"kind":"difference","a":{"kind":"ball","center":[0,0],"r":1},'
                  '"b":{"kind":"ball","center":[-1,0],"r":0.8}}')
        code, out, _ = run_cli(capsys, "characterize", "--domain", bitten, "--lambda", "2.4641",
                               "--x0", "0.7,0", "--samples", "2000", "--seed", "0")
        assert code == 2
        size = json.loads(out)["diagnostics"]["size_condition"]
        assert size["verdict"] == "inconclusive" and size["method"] == "sampled_sup"
        assert size["enclosing_radius"] < size["r0"]
        assert json.loads(out)["diagnostics"]["conclusion"] == "outside theorem scope"

    def test_discrepancy_square(self, capsys):
        square = '{"kind":"box","low":[-0.5,-0.5],"high":[0.5,0.5]}'
        code, out, _ = run_cli(
            capsys, "discrepancy", "--domain", square, "--lambda", "1.0",
            "--x0", "0,0", "--samples", "1000000", "--seed", "5",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["residual"] < 0

    def test_membrane_bundle_and_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "membrane", "--a", "1")
        assert code == 1  # the size-condition item fails by design
        reps = json.loads(out)
        assert len(reps) == 5
        by_name = {r["name"]: r for r in reps}
        assert by_name["membrane_size_condition"]["lhs"] == pytest.approx(4.967294, abs=1e-5)
        assert by_name["membrane_size_condition"]["rhs"] == pytest.approx(3.831706, abs=1e-5)
        # round trip through the schema
        for r in reps:
            assert set(r) == {
                "name", "lhs", "rhs", "residual", "tolerance", "error_bar",
                "verdict", "diagnostics",
            }

    def test_membrane_scale_invariant(self, capsys):
        _, out1, _ = run_cli(capsys, "membrane", "--a", "1")
        _, out2, _ = run_cli(capsys, "membrane", "--a", "2")
        v1 = [r["verdict"] for r in json.loads(out1)]
        v2 = [r["verdict"] for r in json.loads(out2)]
        assert v1 == v2

    def test_flux(self, capsys):
        code, out, _ = run_cli(
            capsys, "flux", "--solution", self.PW, "--x0", "0,0", "--r", "1"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["lhs"] == pytest.approx(2.7649, abs=2e-4)

    def test_kuran(self, capsys):
        code, out, _ = run_cli(
            capsys, "kuran", "--domain", self.BALL, "--x0", "0,0",
            "--lambdas", "0.1,0.01,0.001",
        )
        assert code == 0
        reps = json.loads(out)
        assert [r["name"] for r in reps] == ["kuran_kernel_limit", "kuran_identity_limit"]

    def test_theorem1(self, capsys):
        code, out, _ = run_cli(
            capsys, "theorem1", "--m", "3", "--mu", "1.0", "--x0", "0,0,0", "--r", "1"
        )
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["residual"]) <= 1e-9
        assert rep["diagnostics"]["kernel_strictly_increasing"] is True


class TestPlumbing:
    def test_deterministic_json_output(self, capsys):
        square = '{"kind":"box","low":[-0.5,-0.5],"high":[0.5,0.5]}'
        args = (
            "discrepancy", "--domain", square, "--lambda", "1.0", "--x0", "0,0",
            "--samples", "200000", "--seed", "3",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        pw = '{"kind":"plane_wave","lambda":1.0,"direction":[1,0],"phase":0.0}'
        code, out, _ = run_cli(
            capsys, "mean-value", "--solution", pw,
            "--x0", "0,0", "--r", "1", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "pass"

    def test_domain_from_file(self, capsys, tmp_path):
        f = tmp_path / "dom.json"
        f.write_text('{"kind":"ball","center":[0,0],"r":1.0}')
        code, out, _ = run_cli(
            capsys, "characterize", "--domain", str(f), "--lambda", "1.0", "--x0", "0,0"
        )
        assert code == 0

    def test_bad_json_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "identity", "--domain", '{"kind":"ball","center":[0,0]}',
            "--solution", '{"kind":"plane_wave","lambda":1.0,"direction":[1,0],"phase":0.0}',
            "--x0", "0,0",
        )
        assert code == 64
        assert "missing fields" in err

    def test_unknown_field_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "characterize",
            "--domain", '{"kind":"ball","center":[0,0],"r":1.0,"color":"red"}',
            "--lambda", "1.0", "--x0", "0,0",
        )
        assert code == 64
        assert "unknown fields" in err

    BOX_MINUS_DISK = (
        '{"kind":"difference","a":{"kind":"box","low":[-1,-1],"high":[1,1]},'
        '"b":{"kind":"ball","center":[0.5,0.1],"r":0.25}}'
    )
    RADIAL = '{"kind":"radial","lambda":1.5,"center":[0,0]}'

    def test_characterize_mc_domain_byte_identical_reruns(self, capsys):
        args = (
            "characterize", "--domain", self.BOX_MINUS_DISK, "--lambda", "1.5", "--x0", "0,0",
            "--samples", "100000", "--seed", "3",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 1
        assert out1 == out2
        rep = json.loads(out1)
        assert rep["diagnostics"]["size_condition"]["verdict"] == "pass"
        assert rep["diagnostics"]["size_condition"]["method"] == "exact"

    @pytest.mark.parametrize("argv, message", [
        (("identity", "--domain", BOX_MINUS_DISK, "--solution", RADIAL, "--x0", "0,0",
          "--samples", "0"), "samples must be >= 1"),
        # the size condition reads the problem's draw; it takes no sample count
        (("characterize", "--domain", BOX_MINUS_DISK, "--lambda", "1.5", "--x0", "0,0",
          "--samples", "10000", "--budget", "0"), "arguments: --budget 0"),
        (("kuran", "--domain", BOX_MINUS_DISK, "--x0", "0,0", "--lambdas", ""), "could not convert"),
        # |D| is positive, but 15 of 200000 points land in the four corners
        # the disk leaves: the mean's acceptance floor is not met
        (("identity", "--domain",
          '{"kind":"difference","a":{"kind":"box","low":[-1,-1],"high":[1,1]},'
          '"b":{"kind":"ball","center":[0,0],"r":1.405}}',
          "--solution", '{"kind":"radial","lambda":1.0,"center":[0.999,0.999]}',
          "--x0", "0.999,0.999", "--samples", "200000"), "acceptance rate"),
        # a band lambda * size above the resolution cap: ball radius, box side, sphere radius
        (("mean-value", "--solution", '{"kind":"radial","lambda":200.0,"center":[0,0]}',
          "--x0", "0,0", "--r", "1"), "band lambda * size = 200 is above the resolution cap 120"),
        (("characterize", "--domain", '{"kind":"box","low":[0,0],"high":[1,3]}', "--lambda", "41",
          "--x0", "0.5,0.5"), "band lambda * size = 123 is above the resolution cap 120"),
        (("flux", "--solution", '{"kind":"radial","lambda":50.0,"center":[0,0,0]}',
          "--x0", "0,0,0", "--r", "2.5"), "band lambda * size = 125 is above the resolution cap 120"),
        # a disk minus itself is empty, so no x0 lies in it
        (("identity", "--domain",
          '{"kind":"difference","a":{"kind":"ball","center":[0,0],"r":1.0},'
          '"b":{"kind":"ball","center":[0,0],"r":1.0}}',
          "--solution", RADIAL, "--x0", "0,0"), "x0 must lie inside the domain"),
        # the size condition's j_{m/2,1} exists for m <= 12 only
        (("characterize", "--domain",
          '{"kind":"box","low":[0,0,0,0,0,0,0,0,0,0,0,0,0],"high":[1,1,1,1,1,1,1,1,1,1,1,1,1]}',
          "--lambda", "1", "--x0", ",".join(["0.5"] * 13)), "dimension m = 13 is above 12"),
        # the cap applies in every dimension
        (("mean-value", "--solution",
          '{"kind":"plane_wave","lambda":130.0,"direction":[0,0,0.6,0.8],"phase":0.3}',
          "--x0", "0,0,0,0", "--r", "1"), "band lambda * size = 130 is above the resolution cap 120"),
        # a sampled domain's band is lambda times its bounding box's half-diagonal:
        # a disk crossing the square's edge, refused before any draw
        (("identity", "--domain",
          '{"kind":"difference","a":{"kind":"box","low":[-1,-1],"high":[1,1]},'
          '"b":{"kind":"ball","center":[0.9,0.1],"r":0.25}}', "--solution",
          '{"kind":"radial","lambda":2000.0,"center":[0,0]}', "--x0", "0,0"),
         "band lambda * size = 2828.43 is above the resolution cap 120"),
        # zeros are served up to n = 200
        (("specfun", "zeros", "--nu", "1", "--count", "201"), "requires 1 <= n <= 200, got 201"),
        # past t = 300 exp(t) nears overflow: I and b_norm refuse it
        (("specfun", "i", "--nu", "149.5", "--t", "300.5"), "bessel_i is limited to t <= 300.0"),
        (("specfun", "b", "--m", "240", "--t", "301"), "limited to t <= 300.0 (overflow guard)"),
        (("specfun", "a", "--m", "-2", "--t", "1"), "a_norm requires integer m >= 0, got -2"),
        # mean-value and theorem1 check the identity on a problem, so m <= 12
        (("mean-value", "--solution",
          '{"kind":"plane_wave","lambda":1.0,"direction":[0,0,0,0,0,0,0,0,0,0,0,0,1],'
          '"phase":0.3}', "--x0", ",".join(["0"] * 13), "--r", "1"),
         "dimension m = 13 is above 12"),
        (("theorem1", "--m", "13", "--mu", "1", "--x0", ",".join(["0"] * 13), "--r", "1"),
         "dimension m = 13 is above 12"),
        # non-finite radii and wavenumbers are named as such
        (("mean-value", "--solution", RADIAL, "--x0", "0,0", "--r", "nan"),
         "ball radius must be finite and > 0, got nan"),
        (("mean-value", "--solution", RADIAL, "--x0", "0,0", "--r", "inf"),
         "ball radius must be finite and > 0, got inf"),
        (("characterize", "--domain", BOX_MINUS_DISK, "--lambda", "nan", "--x0", "0,0"),
         "lambda must be finite and > 0, got nan"),
        # a kernel ratio whose t^2 underflows is refused
        (("kuran", "--domain", '{"kind":"ball","center":[0,0],"r":1}', "--x0", "0,0",
          "--lambdas", "1e-200"), "its square underflows"),
        # integer-order J's downward recurrence runs 1.2 t steps: t is capped
        (("specfun", "a", "--m", "2", "--t", "1e300"), "bessel_j is limited to t <= 10000"),
        (("specfun", "j", "--nu", "0", "--t", "1e6"), "bessel_j is limited to t <= 10000"),
        # above order 6 J's ascending series runs past t = 12, where it cancels
        (("specfun", "j", "--nu", "60", "--t", "100"), "series cancels at t = 100 for order 60"),
        (("specfun", "a", "--m", "120", "--t", "110"), "series cancels at t = 110 for order 60"),
        # the flux runs over a sphere, which a 1-D ball does not have
        (("flux", "--solution", '{"kind":"plane_wave","lambda":1.0,"direction":[1],"phase":0.0}',
          "--x0", "0", "--r", "1"), "the flux identity needs a sphere, m >= 2, got m = 1"),
    ])
    def test_failed_estimate_is_usage_error(self, capsys, argv, message):
        try:
            code, out, err = run_cli(capsys, *argv)
        except SystemExit as exc:  # the parser rejects a flag, after printing its usage
            captured = capsys.readouterr()
            code, out, err = exc.code, captured.out, captured.err.splitlines(True)[-1]
        assert code == 64
        assert out == ""
        assert err.startswith("helmholtz-means: error: ") and err.count("\n") == 1
        assert message in err

    def test_table_refuses_non_finite_values(self, capsys):
        # no kernel reaches it within t <= 300 now, but a non-finite value
        # would still be refused rather than printed as Infinity
        args = cli._build_parser().parse_args(["specfun", "a", "--m", "2"])
        with pytest.raises(ValueError, match="non-finite value at t = 1.0"):
            cli._emit_table([(0.0, 1.0), (1.0, math.inf)], ("t", "value"), args)
        assert capsys.readouterr().out == ""

    def test_nodes_flag_is_usage_error(self, capsys):
        # node counts follow from lambda * size; no subcommand takes --nodes
        with pytest.raises(SystemExit) as exc:
            main(["mean-value", "--solution", self.RADIAL, "--x0", "0,0", "--r", "1",
                  "--nodes", "24"])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --nodes 24" in captured.err

    def test_parser_built_once_keeps_calls_apart(self, capsys):
        # one parser serves every call in the process; no call sees
        # another's flags, and a usage error or --help leaves it intact
        assert cli._build_parser() is cli._build_parser()
        sampled = ('{"kind":"difference","a":{"kind":"box","low":[-1,-1],"high":[1,1]},'
                   '"b":{"kind":"ball","center":[0.9,0.1],"r":0.25}}')  # crosses x = 1
        plain = ("identity", "--domain", sampled, "--solution", self.RADIAL, "--x0", "0,0",
                 "--samples", "20000")
        flagged = plain + ("--tol", "0.5", "--seed", "9")
        calls = [plain, ("identity", "--tol", "0.5"), ("--help",), flagged]

        def run(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = [run(argv) for argv in calls]
        assert [code for code, _, _ in first[1:3]] == [64, 0]
        assert first[1][1] == "" and "required" in first[1][2]
        assert first[2][1].startswith("usage: helmholtz-means") and first[2][2] == ""
        plain_rep, flagged_rep = json.loads(first[0][1]), json.loads(first[3][1])
        assert plain_rep["diagnostics"]["method"] == "monte_carlo"
        assert plain_rep["tolerance"] != 0.5 and plain_rep["diagnostics"]["seed"] == 0
        assert flagged_rep["tolerance"] == 0.5 and flagged_rep["diagnostics"]["seed"] == 9
        assert [run(argv) for argv in calls] == first

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_csv_escapes_commas(self, capsys):
        code, out, _ = run_cli(capsys, "membrane", "--a", "1", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert all(len(r) == len(rows[0]) for r in rows)
