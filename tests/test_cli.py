"""CLI: subcommands, exit codes, determinism, JSON/CSV round-trips."""

import csv
import io
import json
import math

import pytest

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

    def test_discrepancy_square(self, capsys):
        square = '{"kind":"box","low":[-0.5,-0.5],"high":[0.5,0.5]}'
        code, out, _ = run_cli(
            capsys, "discrepancy", "--domain", square, "--lambda", "1.0",
            "--x0", "0,0", "--samples", "1000000", "--seed", "5",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["residual"] < 0
        assert rep["diagnostics"]["volumes_match"] is True

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

    @pytest.mark.parametrize("argv, message", [
        (("identity", "--domain", BOX_MINUS_DISK, "--solution", RADIAL, "--x0", "0,0",
          "--samples", "0"), "samples must be >= 1"),
        (("characterize", "--domain", BOX_MINUS_DISK, "--lambda", "1.5", "--x0", "0,0",
          "--samples", "10000", "--budget", "0"), "budget must be >= 1"),
        (("kuran", "--domain", BOX_MINUS_DISK, "--x0", "0,0", "--lambdas", ""), "could not convert"),
        # |D| is positive, but 15 of 200000 points land in the four corners
        # the disk leaves: the mean's acceptance floor is not met
        (("identity", "--domain",
          '{"kind":"difference","a":{"kind":"box","low":[-1,-1],"high":[1,1]},'
          '"b":{"kind":"ball","center":[0,0],"r":1.405}}',
          "--solution", '{"kind":"radial","lambda":1.0,"center":[0.999,0.999]}',
          "--x0", "0.999,0.999", "--samples", "200000"), "acceptance rate"),
    ])
    def test_failed_estimate_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 64
        assert out == ""
        assert err.startswith("helmholtz-means: error: ") and err.count("\n") == 1
        assert message in err

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_csv_escapes_commas(self, capsys):
        code, out, _ = run_cli(capsys, "membrane", "--a", "1", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert all(len(r) == len(rows[0]) for r in rows)
