"""CLI: subcommands, exit codes, determinism, JSON/CSV round-trips."""

import argparse
import contextlib
import csv
import functools
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helmholtz_means import cli, verify
from helmholtz_means.cli import main
from helmholtz_means.geometry import EstimationError
from helmholtz_means.specfun import a_norm, b_norm, bessel_i, bessel_j, bessel_zero


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

    @pytest.mark.parametrize("what, order, t", [
        ("j", "60", "100"), ("j", "20", "30"), ("j", "20.5", "30"), ("j", "200", "400"),
        ("a", "120", "110"),
    ])
    def test_orders_past_the_series_cancellation_are_answered(self, capsys, what, order, t):
        # J's series cancels there (these exited 64); the downward recurrence answers
        sp = pytest.importorskip("scipy.special")
        flag = "--nu" if what == "j" else "--m"
        code, out, _ = run_cli(capsys, "specfun", what, flag, order, "--t", t)
        assert code == 0
        nu, x = (float(order) if what == "j" else 0.5 * float(order)), float(t)
        scale = 1.0 if what == "j" else math.exp(math.lgamma(nu + 1.0) - nu * math.log(0.5 * x))
        assert abs(json.loads(out)[0]["value"] - scale * sp.jv(nu, x)) <= 1e-11

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

    USAGE_ERRORS = [
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
        # above order 6 J's ascending series runs past t = 12, where it cancels;
        # only orders that are neither integer nor half-integer are refused there
        (("specfun", "j", "--nu", "60.25", "--t", "100"),
         "series cancels at t = 100 for order 60.25"),
        (("specfun", "j", "--nu", "60.25", "--t", "110"),
         "series cancels at t = 110 for order 60.25"),
        # the flux runs over a sphere, which a 1-D ball does not have
        (("flux", "--solution", '{"kind":"plane_wave","lambda":1.0,"direction":[1],"phase":0.0}',
          "--x0", "0", "--r", "1"), "the flux identity needs a sphere, m >= 2, got m = 1"),
        # every table refuses a negative count, zeros included
        (("specfun", "zeros", "--nu", "1", "--count", "-3"), "--count must be >= 0, got -3"),
        (("specfun", "a", "--m", "2", "--count", "-3"), "--count must be >= 0, got -3"),
        (("specfun", "b", "--m", "2", "--count", "-3"), "--count must be >= 0, got -3"),
        (("specfun", "j", "--nu", "1", "--count", "-3"), "--count must be >= 0, got -3"),
        (("specfun", "i", "--nu", "1", "--count", "-3"), "--count must be >= 0, got -3"),
        (("sweep", "--m", "2", "--count", "-1"), "--count must be >= 0, got -1"),
        # a grid's ends are checked before the grid is formed
        (("specfun", "a", "--m", "2", "--t-max", "inf", "--count", "3"),
         "--t-max must be finite, got inf"),
        (("specfun", "j", "--nu", "1", "--t-min", "nan"), "--t-min must be finite, got nan"),
        (("sweep", "--m", "2", "--t-min=-inf"), "--t-min must be finite, got -inf"),
        # a field of another dimension than the domain's is refused before any rule work
        (("identity", "--domain", '{"kind":"ball","center":[0,0,0],"r":1.0}', "--solution",
          '{"kind":"membrane","i":1,"j":1,"a":1.0}', "--x0", "0,0,0"), "field is 2-d, domain is 3-d"),
        (("identity", "--domain", '{"kind":"ball","center":[0,0,0],"r":1.0}', "--solution",
          '{"kind":"plane_wave","lambda":1.0,"direction":[1,0],"phase":0.0}', "--x0", "0,0,0"),
         "field is 2-d, domain is 3-d"),
        (("identity", "--domain", '{"kind":"ball","center":[0,0],"r":1.0}', "--solution",
          '{"kind":"radial","lambda":1.0,"center":[0,0,0]}', "--x0", "0,0"),
         "field is 3-d, domain is 2-d"),
        (("identity", "--domain", '{"kind":"box","low":[0,0,0],"high":[1,1,1]}', "--solution",
          '{"kind":"membrane","i":1,"j":1,"a":1.0}', "--x0", "0.5,0.5,0.5"),
         "field is 2-d, domain is 3-d"),
        # a negative seed is refused by every check that takes one, spectral or sampled
        (("identity", "--domain", '{"kind":"ball","center":[0,0],"r":1.0}', "--solution", RADIAL,
          "--x0", "0,0", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("discrepancy", "--domain", '{"kind":"ball","center":[0,0],"r":1.0}', "--lambda", "1",
          "--x0", "0,0", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("kuran", "--domain", '{"kind":"ball","center":[0,0],"r":1.0}', "--x0", "0,0",
          "--seed=-1"), "seed must be >= 0, got -1"),
        (("characterize", "--domain", BOX_MINUS_DISK, "--lambda", "1.5", "--x0", "0,0",
          "--seed", "-1"), "seed must be >= 0, got -1"),
    ]

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS)
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

    @staticmethod
    def top_level_main(argv):
        """main as the top-level parser alone parses argv: the oracle for
        the table parse."""
        args = cli._build_parser().parse_args(argv)
        try:
            return cli._run(args)
        except (ValueError, OverflowError, OSError, EstimationError) as exc:
            print(f"helmholtz-means: error: {exc}", file=sys.stderr)
            return cli.USAGE_ERROR

    PARSE_ORACLE = [
        [], ["--help"], ["identity", "--help"], ["specfun", "-h"], ["bogus", "--m", "2"],
        ["identity", "--domain", '{"kind":"ball","center":[0,0],"r":1.0}', "--solution",
         '{"kind":"plane_wave","lambda":1.0,"direction":[1,0],"phase":0.0}', "--x0", "0,0",
         "--bogus", "1"],
        ["specfun", "a", "--m", "2", "--t", "1", "extra", "--x"],
        ["sweep", "--m", "2", "--count", "3", "--", "--m"],
        ["--format", "csv", "sweep", "--m", "2"],
        ["membrane", "--a", "1.5", "--format", "csv"],
        ["specfun", "a", "--m", "2", "--t-mi", "0.5", "--t-max", "1", "--count", "3"],
        ["sweep", "--m", "2", "--t-min", "-1", "--count", "3"],
        ["sweep", "--m", "2", "--t-min=-1", "--count", "3"],
        ["sweep", "--m", "3", "--count", "5", "--m", "2", "--count=3"],
        ["specfun", "--m", "2", "a", "--t", "1", "b"],
        ["specfun", "c", "--m", "2"],
        ["mean-value", "--solution", "--x0", "0,0", "--r", "1"],
        ["sweep", "--m", "2", "--count"],
        ["sweep", "--m", "2.5"],
        ["identity", "--tol", "0.5"],
        ["specfun", "--m", "2"],
    ]

    @pytest.mark.parametrize("argv", [list(argv) for argv, _ in USAGE_ERRORS] + PARSE_ORACLE)
    def test_main_matches_the_top_level_parse(self, capsys, argv):
        def outcome(entry):
            try:
                code = entry(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        assert outcome(main) == outcome(self.top_level_main)

    def test_table_parse_is_parse_args_wherever_it_accepts(self):
        """The table parse against parser.parse_args on the usage errors,
        the oracle list, every workload argv at seeds 7 and 11, the README
        commands, and variants of each: = and space forms, repeated flags,
        the positional first and last, abbreviations, negative-number
        values and '--'.  Wherever the table accepts an argv, argparse
        accepts it too and gives the same namespace; the plain forms take
        the table, and the rest argparse."""
        stdout_diff = load_stdout_diff()
        plain = stdout_diff.workload_argvs([7, 11]) + stdout_diff.readme_argvs(
            str(Path(__file__).resolve().parents[1] / "README.md"))
        plain = list({json.dumps(a): a for a in plain}.values())
        assert len(plain) > 500
        picked = [list(argv) for argv, _ in self.USAGE_ERRORS] + self.PARSE_ORACLE
        checked = accepted = 0
        for base in plain:
            for argv, route in [(base, "table")] + argv_variants(base):
                assert (self.compare(argv) is not None) == (route == "table"), argv
        for argv in picked + [v for a in picked for v, _ in argv_variants(a)]:
            checked += 1
            accepted += self.compare(argv) is not None
        assert checked > 150 and accepted > 50

    def test_a_subcommand_with_another_kind_of_action_takes_parse_args(self, monkeypatch):
        """A switch has no value for the table to read, so a subcommand that
        declares one is left out of the tables and all its argvs go to
        parse_args, which fills the switch's default."""
        build = cli._build_parser.__wrapped__  # a fresh parser, not the shared one

        def with_switch():
            parser = build()
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            sub.choices["sweep"].add_argument("--verbose", action="store_true")
            return parser

        monkeypatch.setattr(cli, "_build_parser", functools.cache(with_switch))
        cli._flag_tables.cache_clear()
        try:
            assert cli._table_parse(["sweep", "--m", "2", "--count", "3"]) is None
            assert cli._table_parse(["specfun", "a", "--m", "2"]) is not None
            args = cli._build_parser().parse_args(["sweep", "--m", "2", "--count", "3"])
            assert args.verbose is False
        finally:
            cli._flag_tables.cache_clear()

    @staticmethod
    def compare(argv):
        """The table's namespace for argv, after checking it against
        parse_args', or None where the table refuses argv."""
        table = cli._table_parse(list(argv))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                full = cli._build_parser().parse_args(list(argv))
            except SystemExit:
                full = None
        if table is not None:
            assert full is not None, argv
            assert namespace_key(table) == namespace_key(full), argv
        return table

    def test_table_refuses_non_finite_values(self, capsys):
        # no kernel reaches it within t <= 300 now, but a non-finite value
        # would still be refused rather than printed as Infinity; the message
        # names the t of the first row that holds one, in either column
        cases = [
            ([0.0, 0.5, 1.0, 1.5], [1.0, 2.0, 3.0, math.inf], "1.5"),
            # a NaN in a middle row comes before an infinity in a later one
            ([0.0, 0.5, 1.0, 1.5], [1.0, math.nan, -math.inf, 4.0], "0.5"),
            ([0.0, 0.5, math.nan, 1.5], [1.0, 2.0, 3.0, 4.0], "nan"),
        ]
        for fmt in ("json", "csv"):
            args = cli._build_parser().parse_args(["specfun", "a", "--m", "2", "--format", fmt])
            for ts, values, t in cases:
                with pytest.raises(ValueError, match=f"^non-finite value at t = {t}$"):
                    cli._emit_table((np.array(ts), np.array(values)), ("t", "value"), args)
        assert capsys.readouterr().out == ""

    def test_non_finite_grid_end_prints_no_warning(self):
        # the ends are checked before np.linspace, which would warn on inf
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "helmholtz_means", "specfun", "a", "--m", "2",
             "--t-max", "inf", "--count", "3"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 64
        assert proc.stdout == ""
        assert proc.stderr == "helmholtz-means: error: --t-max must be finite, got inf\n"

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


def load_stdout_diff():
    """tools/stdout_diff.py, whose argv lists the parse oracle reads."""
    path = Path(__file__).resolve().parents[1] / "tools" / "stdout_diff.py"
    spec = importlib.util.spec_from_file_location("stdout_diff", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespace_key(ns):
    """A namespace's items with repr'd values, so NaN equals NaN and 2
    differs from 2.0."""
    return sorted((k, repr(v)) for k, v in vars(ns).items())


def argv_variants(argv):
    """(variant, route) pairs of argv: route "table" for the plain forms
    the table takes (every flag in = form, every flag in space form, the
    first flag given twice, specfun's positional moved last), "argparse"
    for the rest (an abbreviated flag, a negative-number value, '--')."""
    if not argv or argv[0].startswith("-"):
        return []
    head, words = argv[:1], list(argv[1:])
    pairs, positional, i = [], [], 0
    while i < len(words):
        word = words[i]
        if word.startswith("--") and "=" in word:
            pairs.append(tuple(word.split("=", 1)))
        elif word.startswith("--") and i + 1 < len(words):
            pairs.append((word, words[i + 1]))
            i += 1
        else:
            positional.append(word)
        i += 1
    if any(not f.startswith("--") or v.startswith("-") for f, v in pairs):
        return []  # not a plain argv: the variants below would not be either
    out = [
        (head + positional + [f"{f}={v}" for f, v in pairs], "table"),
        (head + positional + [w for f, v in pairs for w in (f, v)], "table"),
    ]
    if pairs:
        f, v = pairs[0]
        out.append((head + positional + [f, v] + [w for p in pairs for w in p], "table"))
        if len(f) > 3:  # --x0 as --x, --domain as --domai
            out.append((head + positional + [f[:-1], v] + [w for p in pairs[1:] for w in p],
                        "argparse"))
        out.append((head + positional + [w for p in pairs for w in p] + [f, "-1"], "argparse"))
        out.append((head + positional + [w for p in pairs for w in p] + ["--"], "argparse"))
    if positional:
        out.append((head + [w for p in pairs for w in p] + positional, "table"))
    return out


def old_table(header, rows, fmt) -> str:
    """A table as the CLI wrote it from rows: the reference for its bytes."""
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2, sort_keys=True) + "\n"
    return verify.csv_table(header, rows)


def old_reports(reports) -> str:
    """Reports as the CLI wrote them from report_to_dict: the reference."""
    if isinstance(reports, verify.VerificationReport):
        obj = verify.report_to_dict(reports)
    else:
        obj = [verify.report_to_dict(r) for r in reports]
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def reference_table(argv) -> str:
    """The table argv asks for, built row by row from the library as the
    table subcommands built it: a tuple of float()s per row."""
    args = cli._build_parser().parse_args(list(argv))
    grid = lambda: np.linspace(args.t_min, args.t_max, args.count)
    if args.subcommand == "sweep":
        ts = grid()
        header = ("t", f"a_{args.m}", f"b_{args.m}")
        rows = [(float(t), float(a), float(b))
                for t, a, b in zip(ts, a_norm(args.m, ts), b_norm(args.m, ts))]
    elif args.what == "zeros":
        header = ("n", "value")
        rows = [(n, bessel_zero(args.nu, n)) for n in range(1, args.count + 1)]
    else:
        fn = {"a": a_norm, "b": b_norm, "j": bessel_j, "i": bessel_i}[args.what]
        order = args.m if args.what in ("a", "b") else args.nu
        ts = np.array([args.t]) if args.t is not None else grid()
        header = ("t", "value")
        rows = [(float(t), float(v)) for t, v in zip(ts, fn(order, ts))]
    return old_table(header, rows, args.format)


class TestOutputBytes:
    """Tables written from columns and reports written without a copy give
    the bytes of the row-by-row and report_to_dict formulations."""

    BOX = '{"kind":"box","low":[-0.5,-0.5],"high":[0.5,0.5]}'
    DISK = '{"kind":"ball","center":[0,0],"r":1.0}'
    BOX_MINUS_DISK = ('{"kind":"difference","a":{"kind":"box","low":[-1,-1],"high":[1,1]},'
                      '"b":{"kind":"ball","center":[0.9,0.1],"r":0.25}}')

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [
        ("specfun", "a", "--m", "3", "--t-max", "50", "--count", "201"),
        ("specfun", "b", "--m", "4", "--t-min", "0.5", "--t-max", "20", "--count", "31"),
        ("specfun", "j", "--nu", "0.5", "--t-min", "0.1", "--t-max", "5", "--count", "5"),
        ("specfun", "i", "--nu", "2", "--t-max", "30", "--count", "7"),
        ("specfun", "a", "--m", "2", "--count", "0"),
        ("specfun", "j", "--nu", "1", "--count", "1"),
        ("specfun", "b", "--m", "3", "--t", "2.5"),
        ("specfun", "i", "--nu", "0", "--t", "0"),
        ("specfun", "zeros", "--nu", "1", "--count", "5"),
        ("specfun", "zeros", "--nu", "2.5", "--count", "1"),
        ("specfun", "zeros", "--nu", "0", "--count", "0"),
        ("sweep", "--m", "2", "--t-max", "50", "--count", "41"),
        ("sweep", "--m", "11", "--t-min", "1", "--count", "1"),
        ("sweep", "--m", "3", "--count", "0"),
    ])
    def test_tables_match_rows_formulation(self, capsys, argv, fmt):
        argv = argv + ("--format", fmt)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == reference_table(argv)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_table_of_extreme_values_and_an_int_column(self, capsys, fmt):
        args = cli._build_parser().parse_args(["specfun", "a", "--m", "2", "--format", fmt])
        ts = np.array([-0.0, 5e-324, 1e300, -1e300, 0.1])
        values = np.array([1e300, -0.0, 5e-324, 0.0, -2.5e-310])
        ns = range(1, 6)
        for columns, header in (((ts, values), ("t", "value")),
                                ((ns, list(values)), ("n", "value")),
                                ((ts, values, ns), ("t", "b_%d", "a\u03bb\"2"))):
            assert cli._emit_table(columns, header, args) == 0
            rows = list(zip(*(np.asarray(c).tolist() for c in columns)))
            assert capsys.readouterr().out == old_table(header, rows, fmt)

    @pytest.mark.parametrize("argv", [
        ("mean-value", "--solution", '{"kind":"plane_wave","lambda":1.0,"direction":[1,0],'
         '"phase":0.0}', "--x0", "0,0", "--r", "1"),
        ("identity", "--domain", BOX, "--solution", '{"kind":"radial","lambda":1.5,"center":[0,0]}',
         "--x0", "0,0"),
        ("characterize", "--domain", BOX_MINUS_DISK, "--lambda", "1.5", "--x0", "0,0",
         "--samples", "20000", "--seed", "3"),
        ("discrepancy", "--domain", BOX, "--lambda", "1.0", "--x0", "0,0",
         "--samples", "20000", "--seed", "5"),
        ("membrane", "--a", "1"),
        ("flux", "--solution", '{"kind":"radial","lambda":1.0,"center":[0,0,0]}',
         "--x0", "0,0,0", "--r", "1"),
        ("kuran", "--domain", DISK, "--x0", "0,0", "--lambdas", "0.3,0.1"),
        ("theorem1", "--m", "3", "--mu", "1.0", "--x0", "0,0,0", "--r", "1"),
    ])
    def test_reports_match_report_to_dict(self, capsys, monkeypatch, argv):
        seen = []
        emit = cli._emit_reports
        monkeypatch.setattr(cli, "_emit_reports",
                            lambda reports, args: seen.append(reports) or emit(reports, args))
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 1, 2) and len(seen) == 1
        assert out == old_reports(seen[0])

    @staticmethod
    def hand_built_report(**diagnostics):
        return verify.VerificationReport(
            name="hand built \u00e9", lhs=math.nan, rhs=-math.inf, residual=math.inf,
            tolerance=1e-8, error_bar=0.0, verdict=verify.INCONCLUSIVE, diagnostics=diagnostics,
        )

    def test_hand_built_reports_match_report_to_dict(self, capsys):
        args = cli._build_parser().parse_args(["membrane"])
        rep = self.hand_built_report(**{
            "f32": np.float32(0.1), "i64": np.int64(-7), "flag": np.bool_(True),
            "grid": np.arange(6.0).reshape(2, 3), "bools": np.array([True, False]),
            "pair": (1, "two", None, False, np.float64(-0.0)), "empty_dict": {}, "empty_list": [],
            "text": "\u03a9 \u2265 0, \"quoted\"\n\ttab", "np_text": np.str_("x\u00b2"),
            "nested": {"b": [{"z": -math.inf, "y": math.nan}, ()], 3: "int key", "a": {}},
            "sides": {"lhs": math.nan, "residual": -math.inf},
        })
        assert cli._emit_reports(rep, args) == 2
        assert capsys.readouterr().out == old_reports(rep)
        # a list of reports, one of them empty of diagnostics
        reps = [rep, self.hand_built_report()]
        assert cli._emit_reports(reps, args) == 2
        assert capsys.readouterr().out == old_reports(reps)

    def test_value_json_refuses_is_a_type_error(self, capsys):
        args = cli._build_parser().parse_args(["membrane"])
        for value in (1j, object(), np.longdouble(1.0)):
            rep = self.hand_built_report(deep=[{"value": value}])
            with pytest.raises(TypeError, match="is not JSON serializable"):
                old_reports(rep)
            with pytest.raises(TypeError, match="is not JSON serializable"):
                cli._emit_reports(rep, args)
            assert capsys.readouterr().out == ""
