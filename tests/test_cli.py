"""Command-line behavior: formats, precedence, exit codes, determinism."""

import argparse
import ast
import contextlib
import csv
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

import andersonlyap
import andersonlyap.verify
from andersonlyap import mc, variational
from andersonlyap.asymptotics import _log_functionals
from andersonlyap.cli import (
    EXIT_CONVERGENCE,
    EXIT_PARAMETER,
    EXIT_VERIFY,
    _build_parser,
    load_config_file,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLyapunovCommand:
    def test_white_wave(self, capsys):
        code, out, _ = run_cli(capsys, "lyapunov", "--family", "white",
                               "--eq", "wave", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert abs(data["lambda2"] - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_white_heat(self, capsys):
        code, out, _ = run_cli(capsys, "lyapunov", "--family", "white",
                               "--eq", "heat", "--format", "json")
        assert code == 0
        assert abs(json.loads(out)["lambda2"] - 0.25) < 1e-12

    def test_riesz_runs_eigensolver(self, capsys):
        code, out, _ = run_cli(capsys, "lyapunov", "--family", "riesz",
                               "--d", "1", "--alpha", "0.5", "--eq", "heat",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["consistency_gap"] < 1e-10
        assert "rho_solver" in data
        assert data["rho_solver"]["residual"] < 1e-8

    def test_rho_override_skips_solver(self, capsys):
        code, out, _ = run_cli(capsys, "lyapunov", "--family", "riesz",
                               "--d", "1", "--alpha", "0.5", "--eq", "wave",
                               "--rho", "1.5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert "rho_solver" not in data
        assert data["rho"] == 1.5

    def test_alpha_near_two_wave(self, capsys):
        # p = 2/(2 - alpha) = 400: beta0's power law at its steepest
        code, out, _ = run_cli(capsys, "lyapunov", "--family", "riesz",
                               "--d", "2", "--alpha", "1.995", "--rho", "1",
                               "--eq", "wave", "--format", "json")
        assert code == 0
        assert json.loads(out)["consistency_gap"] < 1e-10

    @pytest.mark.parametrize("argv, value", [
        (("--d", "1", "--alpha", "0.5", "--rho", "1e308", "--eq", "wave"),
         (2.0 ** 0.5 * 1e308) ** 0.4),
        (("--d", "3", "--alpha", "1.999", "--rho", "2", "--eq", "wave"),
         2.0 ** (0.001 / 1.001)),
        (("--d", "2", "--alpha", "1.98", "--rho", "1e3", "--eq", "heat"),
         1e300),
    ], ids=["wave-rho-1e308", "wave-d3-alpha-1.999", "heat-lambda2-1e300"])
    def test_functional_values_past_the_double_range(self, capsys, argv,
                                                       value):
        # the functional values overflow; lambda_2 and its routes do not
        code, out, _ = run_cli(capsys, "lyapunov", "--family", "riesz", *argv,
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["lambda2"] == pytest.approx(value, rel=1e-12)
        assert data["lambda2_upper_variational"] == pytest.approx(value,
                                                                  rel=1e-12)
        # rounding of log-values as large as log(lambda_2) = 283
        assert data["consistency_gap"] < 1e-12

    def test_fractional_needs_functional(self, capsys):
        code, _, err = run_cli(capsys, "lyapunov", "--family", "fractional",
                               "--H", "0.3", "--eq", "wave")
        assert code == EXIT_PARAMETER
        assert "e_gamma" in err

    def test_fractional_with_functional(self, capsys):
        code, out, _ = run_cli(capsys, "lyapunov", "--family", "fractional",
                               "--H", "0.3", "--eq", "wave",
                               "--e-gamma", "1.0", "--format", "json")
        assert code == 0
        H = 0.3
        assert json.loads(out)["lambda2"] == pytest.approx(
            2.0 ** ((3 * H - 2) / (2 * H + 1)), rel=1e-12
        )


class TestExitCodes:
    def test_parameter_error(self, capsys):
        code, _, err = run_cli(capsys, "lyapunov", "--family", "riesz",
                               "--d", "1", "--alpha", "1.5")
        assert code == EXIT_PARAMETER
        assert "alpha" in err

    def test_d2_alpha_below_resolution(self, capsys):
        code, _, err = run_cli(capsys, "rho", "--family", "riesz", "--d",
                               "2", "--alpha", "1e-300")
        assert code == EXIT_PARAMETER
        assert "d = 2" in err

    def test_dalang_violation_named(self, capsys):
        code, _, err = run_cli(capsys, "lyapunov", "--family", "riesz",
                               "--d", "3", "--alpha", "2.5", "--eq", "heat")
        assert code == EXIT_PARAMETER
        assert "admissibility" in err

    @pytest.mark.parametrize("argv, named", [
        (["--family", "riesz", "--d", "1", "--alpha", "0.5", "--beta-l", "5"],
         "beta_l must lie in (0, 2], got 5.0"),
        (["--family", "white", "--beta-l", "7"],
         "beta_l must lie in (0, 2], got 7.0"),
    ], ids=["riesz-beta-l-5", "white-beta-l-7"])
    def test_rho_rejects_inputs_outside_the_model(self, capsys, argv, named):
        code, out, err = run_cli(capsys, "rho", *argv)
        assert code == EXIT_PARAMETER
        assert out == ""
        assert named in err

    @pytest.mark.parametrize("flag, value", [("--grid-radius", "50"),
                                             ("--grid-points", "64"),
                                             ("--tol", "nan"),
                                             ("--max-iters", "0")])
    @pytest.mark.parametrize("argv", [
        ["lyapunov", "--family", "riesz", "--d", "1", "--alpha", "0.5"],
        ["rho", "--family", "riesz", "--d", "1", "--alpha", "0.5"],
        ["chaos", "--family", "white"],
        ["verify"],
        ["ml", "--a", "1", "--x", "1"],
    ], ids=lambda argv: argv[0])
    def test_grid_flags_are_retired(self, capsys, argv, flag, value):
        # the grid and tolerances are the solver's own: no subcommand
        # takes them as flags
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == EXIT_PARAMETER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err

    def test_convergence_error(self, capsys, monkeypatch):
        # a power iteration held to 3 steps at tol 1e-15 cannot converge
        power_iteration = variational.power_iteration
        monkeypatch.setattr(
            variational, "power_iteration",
            lambda matvec, v0, tol, max_iters:
                power_iteration(matvec, v0, 1e-15, 3))
        code, out, err = run_cli(capsys, "rho", "--family", "riesz", "--d",
                                 "1", "--alpha", "0.5")
        assert (code, out) == (EXIT_CONVERGENCE, "")
        assert "power iteration did not converge in 3 iterations" in err
        assert "residual" in err

    def test_zero_samples_is_parameter_error(self, capsys):
        code, _, err = run_cli(capsys, "chaos", "--samples", "0")
        assert code == EXIT_PARAMETER
        assert "n_samples" in err

    def test_one_sample_has_no_error_bar(self, capsys):
        # J_0's one exact weight passes; J_1 from one draw has no spread
        code, out, err = run_cli(capsys, "chaos", "--family", "riesz", "--d",
                                 "1", "--alpha", "0.5", "--n", "2",
                                 "--samples", "1")
        assert (code, out) == (EXIT_PARAMETER, "")
        assert "n_samples must be at least 2" in err and "/n1" in err

    @pytest.mark.parametrize("argv, named", [
        (("--family", "white", "--n", "-1"), "n must be >= 0, got -1"),
        (("--family", "riesz", "--d", "1", "--alpha", "0.5", "--method",
          "bm", "--n", "0"), "n must be >= 1, got 0"),
    ], ids=["fourier", "bm"])
    def test_empty_order_range(self, capsys, monkeypatch, argv, named):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew for an empty order range")

        monkeypatch.setattr(mc, "run_chunked", no_draws)
        code, out, err = run_cli(capsys, "chaos", *argv)
        assert (code, out) == (EXIT_PARAMETER, "")
        assert named in err

    @pytest.mark.parametrize("rho", ["inf", "nan", "0"])
    def test_bad_rho_named(self, capsys, rho):
        code, _, err = run_cli(capsys, "lyapunov", "--family", "riesz",
                               "--d", "1", "--alpha", "0.5", "--rho", rho)
        assert code == EXIT_PARAMETER
        assert "rho must be positive and finite" in err

    def test_bad_functional_named(self, capsys):
        code, _, err = run_cli(capsys, "lyapunov", "--family", "fractional",
                               "--H", "0.3", "--eq", "wave",
                               "--e-gamma", "inf")
        assert code == EXIT_PARAMETER
        assert "e_gamma must be positive and finite" in err

    @pytest.mark.parametrize("argv", [
        # only heat refuses: the wave exponent 1/(3 - alpha) is below 1
        ("--d", "1", "--alpha", "0.5", "--rho", "1e300", "--eq", "heat"),
        ("--d", "3", "--alpha", "1.999", "--rho", "1e300", "--eq", "heat"),
    ])
    def test_out_of_range_rho_named(self, capsys, argv):
        code, _, err = run_cli(capsys, "lyapunov", "--family", "riesz", *argv)
        assert code == EXIT_PARAMETER
        assert "rho=1e+30" in err and "double range" in err

    def test_subnormal_lambda2_named(self, capsys):
        # log lambda_2 = -708.846 lies below log(2.2e-308) = -708.396: the
        # exponent would print as a subnormal
        code, out, err = run_cli(capsys, "lyapunov", "--family", "riesz",
                                 "--d", "1", "--alpha", "0.5", "--eq", "heat",
                                 "--rho", "1.3e-231", "--format", "json")
        assert (code, out) == (EXIT_PARAMETER, "")
        assert "lambda_2 at rho=1.3e-231 is exp(-708.846), below the " \
               "double range" in err

    @pytest.mark.parametrize("d", ["1", "3"])
    @pytest.mark.parametrize("alpha", ["1e-16", "1e-300"])
    def test_chaos_alpha_too_close_to_zero(self, capsys, d, alpha):
        # the proposal's inner piece would take every draw
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "chaos", "--family", "riesz",
                                     "--d", d, "--alpha", alpha, "--n", "2",
                                     "--samples", "1000")
        assert code == EXIT_PARAMETER
        assert out == ""
        assert f"alpha={float(alpha)!r} is too close to 0" in err

    def test_unconverged_rho_grid(self, capsys):
        # the default grid refines to 4800 points and still misses
        code, out, err = run_cli(capsys, "rho", "--family", "riesz", "--d",
                                 "3", "--alpha", "0.5")
        assert code == EXIT_CONVERGENCE
        assert out == ""
        assert ("stopped at 4800 points with richardson_gap 2.169e-03 above "
                "refine_tol 1.000e-03") in err

    @pytest.mark.parametrize("step", ["1e-300", "1e-17"])
    def test_bm_time_step_below_floor(self, capsys, step):
        code, _, err = run_cli(capsys, "chaos", "--family", "riesz", "--d",
                               "1", "--alpha", "0.5", "--method", "bm",
                               "--n", "1", "--samples", "2000",
                               "--time-step", step)
        assert code == EXIT_PARAMETER
        assert "time_step must lie in [1e-05, 0.1]" in err

    @pytest.mark.parametrize("d, alpha", [("3", "1.9"), ("2", "1.7")])
    def test_bm_alpha_above_three_halves(self, capsys, d, alpha):
        # the oracle's bridge rule grades its steps for alpha <= 3/2 only;
        # past it T_1 read 34 % low at d = 3, alpha = 1.9
        code, out, err = run_cli(capsys, "chaos", "--family", "riesz", "--d",
                                 d, "--alpha", alpha, "--method", "bm",
                                 "--n", "1", "--samples", "4000", "--format",
                                 "json")
        assert (code, out) == (EXIT_PARAMETER, "")
        assert f"alpha must be <= 3/2 for the path oracle, got {alpha}" in err
        code, _, _ = run_cli(capsys, "chaos", "--family", "riesz", "--d", d,
                             "--alpha", "1.5", "--method", "bm", "--n", "1",
                             "--samples", "200", "--format", "json")
        assert code == 0

    @pytest.mark.parametrize("seed", ["-1", "-5", str(2 ** 64)])
    @pytest.mark.parametrize("argv", [
        ("chaos", "--family", "white", "--eq", "heat", "--n", "1",
         "--samples", "100"),
        ("chaos", "--family", "riesz", "--d", "1", "--alpha", "0.5",
         "--method", "bm", "--n", "1", "--samples", "100"),
        ("verify",),
    ])
    def test_seed_outside_the_key_range(self, capsys, argv, seed):
        code, out, err = run_cli(capsys, *argv, "--seed", seed)
        assert code == EXIT_PARAMETER
        assert out == ""
        assert f"seed must lie in [0, 2**64), got {seed}" in err

    @pytest.mark.parametrize("t", [(), ("--t", "1.5")], ids=["exp", "fixed"])
    def test_order_zero_checks_the_seed(self, capsys, t):
        # J_0 = 1 needs no draws, but its sub-seed is derived all the same
        code, out, err = run_cli(capsys, "chaos", "--family", "white", "--eq",
                                 "heat", "--n", "0", "--samples", "100",
                                 "--seed", "-1", *t)
        assert code == EXIT_PARAMETER
        assert out == ""
        assert "seed must lie in [0, 2**64), got -1" in err

    @pytest.mark.parametrize("threads, named", [
        ("0", "at least 1, got 0"), ("257", "at most 256, got 257")])
    @pytest.mark.parametrize("t", [(), ("--t", "1.5")], ids=["exp", "fixed"])
    def test_order_zero_checks_the_threads(self, capsys, t, threads, named):
        code, out, err = run_cli(capsys, "chaos", "--family", "white", "--eq",
                                 "heat", "--n", "0", "--samples", "10",
                                 "--threads", threads, *t)
        assert (code, out) == (EXIT_PARAMETER, "")
        assert f"threads must be {named}" in err

    @pytest.mark.parametrize("t", [(), ("--t", "1.5")], ids=["exp", "fixed"])
    def test_order_zero_checks_the_samples(self, capsys, t):
        # one weight answers J_0, yet a count below 1 is refused like any
        # other order's, and one sample still passes
        for samples in ("0", "-5"):
            code, out, err = run_cli(capsys, "chaos", "--family", "white",
                                     "--eq", "heat", "--n", "0", "--samples",
                                     samples, "--format", "json", *t)
            assert (code, out) == (EXIT_PARAMETER, "")
            assert f"n_samples must be positive, got {samples}" in err
        code, out, _ = run_cli(capsys, "chaos", "--family", "white", "--eq",
                               "heat", "--n", "0", "--samples", "1",
                               "--format", "json", *t)
        assert code == 0 and json.loads(out)["rows"][0]["mean"] == 1.0

    def test_bm_underflow_exits_3(self, capsys):
        # every path's zeta^n / n! underflows long before n = 300
        code, out, err = run_cli(capsys, "chaos", "--family", "riesz", "--d",
                                 "1", "--alpha", "0.5", "--method", "bm",
                                 "--n", "300", "--samples", "100",
                                 "--time-step", "0.1")
        assert code == EXIT_CONVERGENCE
        assert out == ""
        assert "underflows the double range" in err

    def test_underflowed_estimate_exits_3(self, capsys):
        # the d = 3 rows underflow long before n = 150; none prints
        code, out, err = run_cli(capsys, "chaos", "--family", "riesz", "--d",
                                 "3", "--alpha", "1.5", "--eq", "heat",
                                 "--n", "150", "--samples", "200")
        assert code == EXIT_CONVERGENCE
        assert out == ""
        assert "underflows the double range" in err

    def test_underflowed_oracle_exits_2_unsampled(self, capsys, monkeypatch):
        # 2^-n leaves the normal range at n = 1023, and every oracle is
        # checked before the first draw
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking every oracle")

        monkeypatch.setattr(mc, "run_chunked", no_draws)
        code, out, err = run_cli(capsys, "chaos", "--family", "white", "--eq",
                                 "heat", "--n", "1080", "--samples", "10")
        assert code == EXIT_PARAMETER
        assert out == ""
        assert "at n=1023" in err and "underflows the double range" in err

    def test_bm_method_rejects_fixed_time(self, capsys):
        code, out, err = run_cli(capsys, "chaos", "--family", "riesz", "--d",
                                 "1", "--alpha", "0.5", "--method", "bm",
                                 "--t", "2", "--n", "1", "--samples", "100")
        assert (code, out) == (EXIT_PARAMETER, "")
        assert ("--t would be ignored: --method bm estimates the "
                "exponential-time heat moments T_n") in err

    def test_verify_injection_fails(self, capsys, monkeypatch):
        def wrong_residual(a, r):
            # the remark-14 identity with a wrong denominator exponent
            e = math.exp(_log_functionals(a, r)[1])
            lhs = (2.0 ** (1.0 - a) * r) ** (1.0 / (3.0 - a))
            rhs = 2.0 ** ((2.0 - 3.0 * a) / (6.0 - 3.0 * a)) * e ** (
                (2.0 - a) / (6.0 - 2.0 * a)
            )
            return lhs - rhs

        monkeypatch.setattr(andersonlyap.verify, "remark14_residual",
                            wrong_residual)
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == EXIT_VERIFY
        data = json.loads(out)
        failed = [c["name"] for c in data["checks"] if not c["passed"]]
        assert failed == ["exponent_identity_residual"]

    def test_verify_guards_the_wave_heat_link(self, capsys, monkeypatch):
        # a wave transform off I^w_beta = (2 beta)^-1 I^h_{beta^2/4} by a
        # relative 1e-5 fails the time quadrature, which reads it
        laplace_green_sq = andersonlyap.verify.laplace_green_sq

        def off_the_link(eq, beta, r):
            value = laplace_green_sq(eq, beta, r)
            return value * (1.0 + 1e-5) if eq.is_wave else value

        monkeypatch.setattr(andersonlyap.verify, "laplace_green_sq",
                            off_the_link)
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == EXIT_VERIFY
        data = json.loads(out)
        failed = [c["name"] for c in data["checks"] if not c["passed"]]
        assert failed == ["laplace_transform_quadrature"]


class TestChaosCommand:
    def test_white_heat_table(self, capsys):
        code, out, _ = run_cli(capsys, "chaos", "--family", "white", "--eq",
                               "heat", "--n", "3", "--samples", "50000",
                               "--seed", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["n"] == 0 and rows[0]["mean"] == 1.0
        assert rows[0]["std_error"] == 0.0
        for row in rows[1:]:
            assert row["oracle"] == pytest.approx(0.5 ** row["n"])
            assert abs(row["z"]) <= 3.0

    def test_riesz_oracle_column(self, capsys):
        code, out, _ = run_cli(capsys, "chaos", "--family", "riesz", "--d",
                               "1", "--alpha", "0.5", "--eq", "heat", "--n",
                               "1", "--samples", "50000", "--seed", "3",
                               "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][1]
        assert row["oracle"] == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert abs(row["z"]) <= 3.0

    def test_zero_variance_z_at_rounding_level(self, capsys):
        # every weight is 1 up to rounding at this alpha: z reads that rounding,
        # not a deviation
        code, out, _ = run_cli(capsys, "chaos", "--family", "riesz", "--d",
                               "1", "--alpha", "1e-15", "--n", "2", "--eq",
                               "heat", "--samples", "10000", "--format",
                               "json")
        assert code == 0
        row = json.loads(out)["rows"][1]
        assert row["mean"] == pytest.approx(row["oracle"], rel=1e-15)
        assert abs(row["z"]) <= 1.0

    def test_bm_method_requires_riesz(self, capsys):
        code, _, err = run_cli(capsys, "chaos", "--family", "white",
                               "--method", "bm", "--n", "1",
                               "--samples", "100")
        assert code == EXIT_PARAMETER
        assert "Riesz" in err

    def test_bm_method(self, capsys):
        code, out, _ = run_cli(capsys, "chaos", "--family", "riesz", "--d",
                               "1", "--alpha", "0.5", "--method", "bm",
                               "--n", "1", "--samples", "2000",
                               "--time-step", "0.002", "--seed", "3",
                               "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["n"] == 1
        assert abs(row["z"]) <= 4.0

    def test_fixed_time_oracle_past_gamma_overflow(self, capsys):
        # Gamma(2n + 1) overflows from n = 86 on; the oracle goes to log
        # space there instead of raising (at t = 1 it leaves the normal
        # range from n = 80 on, which is a parameter error)
        code, out, _ = run_cli(capsys, "chaos", "--family", "white", "--eq",
                               "wave", "--t", "10", "--n", "90", "--samples",
                               "200", "--threads", "1", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["n"] for r in rows] == list(range(91))
        assert all(r["oracle"] is not None
                   and r["oracle"] >= sys.float_info.min for r in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fixed_time_oracle_overflow_named(self, capsys):
        code, _, err = run_cli(capsys, "chaos", "--family", "white", "--eq",
                               "wave", "--t", "1e30", "--n", "6",
                               "--samples", "10", "--threads", "1")
        assert code == EXIT_PARAMETER
        assert "n=6, t=1e+30" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_moment_with_finite_squares_exits_0(self, capsys):
        # the n = 5 moment, 8.6e291, is in range; its weights are those of
        # E[J_5(tau)], so their squares are too and the row prints
        code, out, _ = run_cli(capsys, "chaos", "--family", "white", "--eq",
                               "wave", "--t", "1e30", "--n", "5",
                               "--samples", "1000", "--threads", "1",
                               "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][5]
        assert row["oracle"] > 1e291 and abs(row["z"]) < 3.0

    @staticmethod
    def _no_draws(monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking every time factor")

        monkeypatch.setattr(mc, "run_chunked", no_draws)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_wave_time_exits_2_quietly(self, capsys, monkeypatch):
        # no closed form from n = 2 on, but the n = 3 time factor alone,
        # t^(a n)/Gamma(a n + 1) = exp(1717), is past log(max/min): the
        # oracles rule the row out before any draw, without a warning
        self._no_draws(monkeypatch)
        code, out, err = run_cli(capsys, "chaos", "--family", "riesz", "--d",
                                 "1", "--alpha", "0.5", "--eq", "wave", "--t",
                                 "1e100", "--n", "4", "--samples", "1000",
                                 "--threads", "1")
        assert code == EXIT_PARAMETER
        assert out == ""
        assert "fixed-time factor t^(a n)/Gamma(a n + 1) at n=3, t=1e+100 " \
               "is exp(" in err
        assert "beyond the double range" in err

    def test_tiny_time_exits_2_unsampled(self, capsys, monkeypatch):
        # the n = 3 time factor is exp(-1555): rows 2 and 3 printed 0 +- 0
        self._no_draws(monkeypatch)
        code, out, err = run_cli(capsys, "chaos", "--family", "riesz", "--d",
                                 "1", "--alpha", "0.5", "--eq", "heat", "--t",
                                 "1e-300", "--n", "3", "--samples", "1000",
                                 "--threads", "1")
        assert code == EXIT_PARAMETER
        assert out == ""
        assert "at n=3, t=1e-300 is exp(" in err
        assert "below the double range" in err

    def test_tiny_time_moment_exits_2_after_its_draw(self, capsys):
        # the n = 2 factor is in range, so J_2(1e-300), about exp(-1035),
        # is drawn and then meets the range rule; it printed 0 +- 0
        code, out, err = run_cli(capsys, "chaos", "--family", "riesz", "--d",
                                 "1", "--alpha", "0.5", "--eq", "heat", "--t",
                                 "1e-300", "--n", "2", "--samples", "1000",
                                 "--threads", "1")
        assert code == EXIT_PARAMETER
        assert out == ""
        assert "fixed-time moment at n=2, t=1e-300 is exp(" in err
        assert "below the double range" in err


class TestFormats:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "chaos", "--family", "white", "--eq",
                               "heat", "--n", "2", "--samples", "20000",
                               "--seed", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["n"] == "0"
        assert float(rows[1]["mean"]) == pytest.approx(0.5)
        # '.' decimal separator, 17 significant digits for non-integers
        assert "," not in rows[1]["mean"]

    def test_json_17_digits(self, capsys):
        code, out, _ = run_cli(capsys, "lyapunov", "--family", "white",
                               "--eq", "wave", "--format", "json")
        assert code == 0
        assert "0.70710678118654757" in out

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "lyapunov", "--family", "white",
                               "--eq", "heat", "--format", "json",
                               "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["lambda2"] == 0.25

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_named(self, capsys, tmp_path, where):
        path = tmp_path / "absent" / "r.json" if where == "missing_dir" \
            else tmp_path
        code, out, err = run_cli(capsys, "lyapunov", "--family", "white",
                                 "--out", str(path))
        assert code == EXIT_PARAMETER
        assert out == ""
        assert str(path) in err

    def test_unwritable_out_found_before_any_draw(self, capsys, tmp_path,
                                                  monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking --out")

        monkeypatch.setattr(mc, "run_chunked", no_draws)
        path = tmp_path / "absent" / "x.json"
        code, out, err = run_cli(capsys, "chaos", "--family", "riesz", "--d",
                                 "2", "--alpha", "0.8", "--n", "4",
                                 "--samples", "2000", "--threads", "1",
                                 "--out", str(path))
        assert (code, out) == (EXIT_PARAMETER, "")
        assert f"cannot write the report to {path}: " in err

    def test_out_file_kept_until_the_report_is_written(self, capsys,
                                                       tmp_path):
        # the early check appends nothing, so a failed run leaves an
        # earlier report as it was
        path = tmp_path / "report.json"
        path.write_text("earlier report\n")
        code, _, _ = run_cli(capsys, "lyapunov", "--family", "riesz", "--d",
                             "1", "--alpha", "0.5", "--rho", "-1",
                             "--out", str(path))
        assert code == EXIT_PARAMETER
        assert path.read_text() == "earlier report\n"


class TestConfigPrecedence:
    def test_config_file_used(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "anderson.cfg"
        cfg.write_text("family = white\neq = heat\nformat = json\n")
        monkeypatch.setenv("ANDERSON_CONFIG", str(cfg))
        code, out, _ = run_cli(capsys, "lyapunov")
        assert code == 0
        assert json.loads(out)["lambda2"] == 0.25

    def test_config_seed_outside_the_key_range(self, capsys, tmp_path,
                                               monkeypatch):
        cfg = tmp_path / "anderson.cfg"
        cfg.write_text("seed = -1\n")
        monkeypatch.setenv("ANDERSON_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, "verify")
        assert code == EXIT_PARAMETER
        assert out == ""
        assert "seed must lie in [0, 2**64), got -1" in err

    def test_flag_overrides_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "anderson.cfg"
        cfg.write_text("family = white\neq = heat\nformat = json\n")
        monkeypatch.setenv("ANDERSON_CONFIG", str(cfg))
        code, out, _ = run_cli(capsys, "lyapunov", "--eq", "wave")
        assert code == 0
        assert abs(json.loads(out)["lambda2"] - 2.0 ** -0.5) < 1e-12

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "anderson.cfg"
        cfg.write_text("flux_capacitor = 1\n")
        with pytest.raises(Exception):
            load_config_file(str(cfg))

    def test_command_key_rejected(self, capsys, tmp_path, monkeypatch):
        # the subcommand is chosen on the command line, not in the file
        cfg = tmp_path / "anderson.cfg"
        cfg.write_text("family = white\ncommand = rho\n")
        monkeypatch.setenv("ANDERSON_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, "lyapunov")
        assert code == EXIT_PARAMETER
        assert out == ""
        assert f"{cfg}:2: unknown key 'command'" in err

    @pytest.mark.parametrize("key", ["grid_radius", "grid_points", "tol",
                                     "max_iters"])
    @pytest.mark.parametrize("command", ["lyapunov", "rho"])
    def test_retired_grid_key_rejected(self, capsys, tmp_path, monkeypatch,
                                       key, command):
        cfg = tmp_path / "anderson.cfg"
        cfg.write_text(f"family = white\n{key} = 64\n")
        monkeypatch.setenv("ANDERSON_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, command)
        assert (code, out) == (EXIT_PARAMETER, "")
        assert f"{cfg}:2: unknown key {key!r}" in err

    def test_bad_value_names_line_and_key(self, capsys, tmp_path,
                                          monkeypatch):
        cfg = tmp_path / "anderson.cfg"
        cfg.write_text("family = riesz\nd = abc\n")
        monkeypatch.setenv("ANDERSON_CONFIG", str(cfg))
        code, _, err = run_cli(capsys, "lyapunov")
        assert code == EXIT_PARAMETER
        assert f"{cfg}:2: d needs a int value, got 'abc'" in err

    @pytest.mark.parametrize("key, value, command", [
        ("method", "banana", "chaos"), ("format", "xml", "lyapunov"),
        ("family", "Riesz", "rho"), ("eq", "schroedinger", "lyapunov")])
    def test_value_outside_the_choices_names_line_and_key(
            self, capsys, tmp_path, monkeypatch, key, value, command):
        # the config file meets the choices the flag meets
        cfg = tmp_path / "anderson.cfg"
        cfg.write_text(f"samples = 100\n{key} = {value}\n")
        monkeypatch.setenv("ANDERSON_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, command)
        assert (code, out) == (EXIT_PARAMETER, "")
        assert f"{cfg}:2: {key} must be one of " in err
        assert f"got {value!r}" in err

    def test_missing_file_named(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "absent.cfg"
        monkeypatch.setenv("ANDERSON_CONFIG", str(path))
        code, _, err = run_cli(capsys, "lyapunov")
        assert code == EXIT_PARAMETER
        assert str(path) in err

    def test_commands_ignore_keys_they_do_not_read(self, capsys, tmp_path,
                                                   monkeypatch):
        # an inadmissible kernel: only the commands that build one fail
        cfg = tmp_path / "anderson.cfg"
        cfg.write_text("family = riesz\nd = 1\nalpha = 3\nthreads = 1\n")
        monkeypatch.setenv("ANDERSON_CONFIG", str(cfg))
        assert run_cli(capsys, "ml", "--a", "1", "--x", "1")[0] == 0
        assert run_cli(capsys, "verify")[0] == 0
        assert run_cli(capsys, "lyapunov")[0] == EXIT_PARAMETER


class TestFlagTable:
    """Each subcommand has flags only for the settings it reads."""

    def test_long_option_count(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = [opt for p in sub.choices.values() for a in p._actions
                   for opt in a.option_strings
                   if opt.startswith("--") and opt != "--help"]
        assert len(options) == 41

    @pytest.mark.parametrize("argv", [
        ["lyapunov", "--family", "white", "--samples", "5"],
        ["chaos", "--family", "white", "--rho", "1.0"],
        ["rho", "--family", "fractional", "--H", "0.3"],
        ["verify", "--alpha", "0.5"],
        ["ml", "--a", "1", "--x", "1", "--samples", "5"],
    ])
    def test_rejects_flag_it_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARAMETER
        assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["rho", "--family", "white", "--alpha", "0.3"], "--alpha"),
        (["lyapunov", "--family", "white", "--d", "3", "--alpha", "1.7",
          "--H", "0.1"], "--d"),
        (["chaos", "--family", "white", "--samples", "100", "--d", "2"],
         "--d"),
        (["lyapunov", "--family", "riesz", "--d", "1", "--alpha", "0.5",
          "--H", "0.3"], "--H"),
        (["lyapunov", "--family", "riesz", "--d", "1", "--alpha", "0.5",
          "--e-gamma", "1.0"], "--e-gamma"),
        (["lyapunov", "--family", "fractional", "--e-gamma", "1.0",
          "--rho", "2.0"], "--rho"),
        (["chaos", "--family", "white", "--samples", "100", "--H", "0.3"],
         "--H"),
        (["chaos", "--family", "white", "--samples", "100", "--time-step",
          "0.01"], "--time-step"),
        (["chaos", "--family", "riesz", "--d", "1", "--alpha", "0.5",
          "--method", "bm", "--n", "1", "--samples", "100", "--eq", "wave"],
         "--eq"),
        (["chaos", "--family", "riesz", "--d", "1", "--alpha", "0.5",
          "--method", "bm", "--n", "1", "--samples", "100", "--t", "2"],
         "--t"),
        (["chaos", "--family", "riesz", "--d", "1", "--alpha", "0.5",
          "--method", "bm", "--n", "1", "--samples", "100", "--beta-l", "2"],
         "--beta-l"),
    ])
    def test_rejects_flag_the_family_or_mode_does_not_read(self, capsys, argv,
                                                           named):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PARAMETER
        assert out == ""
        assert f"{named} would be ignored" in err

    def test_config_keys_the_family_does_not_read_stay_accepted(
            self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "anderson.cfg"
        cfg.write_text("d = 3\nalpha = 1.7\nH = 0.1\ntime_step = 0.01\n")
        monkeypatch.setenv("ANDERSON_CONFIG", str(cfg))
        code, out, _ = run_cli(capsys, "lyapunov", "--family", "white",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["lambda2"] == pytest.approx(0.5 ** 0.5,
                                                           rel=1e-15)

    def test_bm_ignores_config_keys_it_does_not_read(self, capsys, tmp_path,
                                                      monkeypatch):
        # t and beta_l are read by ml, fixed-time rows and lyapunov
        argv = ["chaos", "--family", "riesz", "--d", "1", "--alpha", "0.5",
                "--method", "bm", "--n", "1", "--samples", "200",
                "--format", "json"]
        monkeypatch.delenv("ANDERSON_CONFIG", raising=False)
        plain = run_cli(capsys, *argv)
        cfg = tmp_path / "anderson.cfg"
        cfg.write_text("t = 2.0\nbeta_l = 1.5\neq = wave\n")
        monkeypatch.setenv("ANDERSON_CONFIG", str(cfg))
        assert run_cli(capsys, *argv) == plain
        assert plain[0] == 0

    def test_readme_commands_parse(self):
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                              "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("## CLI", 1)[1].split("```")[1]
        lines = [line for line in block.splitlines()
                 if line.startswith("andersonlyap ")]
        assert {shlex.split(line)[1] for line in lines} == \
            {"lyapunov", "chaos", "rho", "verify", "ml"}
        for line in lines:
            _build_parser().parse_args(shlex.split(line)[1:])

    def test_readme_flag_table_matches_the_parser(self):
        # README's subcommand table lists each parser's flags bar --format
        # and --out, which every subcommand takes
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                              "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("| subcommand | flags |", 1)[1].split("\n\n")[0]
        table = {cells[1].strip(" `"): set(re.findall(r"--[A-Za-z-]+",
                                                       cells[2]))
                 for cells in (line.split("|")
                               for line in block.splitlines()[2:])}
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        parsed = {name: {opt for a in p._actions for opt in a.option_strings
                         if opt.startswith("--") and opt not in (
                             "--help", "--format", "--out")}
                  for name, p in sub.choices.items()}
        assert table == parsed

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_rho_refuses_fractional(self, capsys, tmp_path, monkeypatch,
                                    route):
        argv = ["rho"]
        if route == "flag":
            argv += ["--family", "fractional"]
        else:
            cfg = tmp_path / "anderson.cfg"
            cfg.write_text("family = fractional\nH = 0.3\n")
            monkeypatch.setenv("ANDERSON_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PARAMETER
        assert out == ""
        assert "--e-gamma" in err

    def test_verify_rejects_zero_threads(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--threads", "0")
        assert code == EXIT_PARAMETER
        assert out == ""
        assert "threads" in err

    def test_chaos_rejects_threads_past_the_ceiling(self, capsys, monkeypatch):
        # a pool that would start records its size and starts no thread
        pools = []

        def no_pool(max_workers):
            pools.append(max_workers)
            raise RuntimeError("no threads in this test")

        monkeypatch.setattr(mc, "ThreadPoolExecutor", no_pool)
        code, out, err = run_cli(capsys, "chaos", "--threads", "100000",
                                 "--samples", "1000000000")
        assert (code, out, pools) == (EXIT_PARAMETER, "", [])
        assert "threads must be at most" in err


class TestVerifyDeterminism:
    def test_byte_identical_runs(self, capsys, tmp_path):
        p1, p2 = tmp_path / "v1.json", tmp_path / "v2.json"
        for p in (p1, p2):
            code, _, _ = run_cli(capsys, "verify", "--seed", "11",
                                 "--threads", "2", "--format", "json",
                                 "--out", str(p))
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_nine_checks(self):
        report = andersonlyap.verify.run_verification(seed=0)
        assert [c["name"] for c in report["checks"]] == [
            "white_noise_exact_exponents", "exponent_identity_residual",
            "laplace_transform_quadrature", "mittag_leffler_values",
            "mittag_leffler_branch_consistency", "growth_rate_deviation",
            "chaos_time_scaling", "white_noise_chaos_moments",
            "eigensolver_flat_control"]
        assert report["all_passed"]


class TestMlCommand:
    def test_point_value(self, capsys):
        code, out, _ = run_cli(capsys, "ml", "--a", "1.0", "--x", "1.0",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][0]["value"] == pytest.approx(math.e)

    def test_growth(self, capsys):
        code, out, _ = run_cli(capsys, "ml", "--a", "1.0", "--growth-c",
                               "2.0", "--t", "100", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][0]["growth_rate"] == pytest.approx(2.0)

    def test_growth_past_the_argument_range(self, capsys):
        # (c t)^a = 1e400 leaves the double range; the rate 1e200 does not
        code, out, _ = run_cli(capsys, "ml", "--a", "2.0", "--growth-c",
                               "1e200", "--t", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][0]["growth_rate"] == pytest.approx(
            1e200, rel=1e-12)

    def test_needs_argument(self, capsys):
        code, _, err = run_cli(capsys, "ml", "--a", "1.0")
        assert code == EXIT_PARAMETER

    def test_overflow_is_parameter_error(self, capsys):
        code, _, err = run_cli(capsys, "ml", "--a", "3.9", "--x", "1e300")
        assert code == EXIT_PARAMETER
        assert "E_3.9(1e+300) is exp(8.37678e+76), beyond the double range" \
            in err

    def test_series_cap_is_convergence_error(self, capsys):
        code, _, err = run_cli(capsys, "ml", "--a", "1e-300", "--x", "1")
        assert code == EXIT_CONVERGENCE
        assert "did not converge" in err

    @pytest.mark.parametrize("argv, named", [
        (("--a", "1.0", "--x", "inf"), "nonnegative and finite"),
        (("--a", "1e-308", "--x", "974"), "exceeds the double range"),
        (("--a", "2.0", "--growth-c", "1e308", "--t", "2"),
         "exceeds the double range at log x"),
        (("--a", "2.0", "--growth-c", "nan"), "positive finite c, t"),
    ])
    def test_out_of_range_named(self, capsys, argv, named):
        code, _, err = run_cli(capsys, "ml", *argv)
        assert code == EXIT_PARAMETER
        assert named in err


# ----------------------------------------------------------------------
# import cost: no command loads scipy, and a closed-form one loads no numpy
# ----------------------------------------------------------------------

_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import andersonlyap
from andersonlyap.cli import main
closed_form = [
    ["lyapunov", "--family", "white", "--eq", "wave"],
    ["lyapunov", "--family", "white", "--eq", "heat"],
    ["lyapunov", "--family", "fractional", "--e-gamma", "1.0"],
    ["lyapunov", "--family", "riesz", "--d", "1", "--alpha", "0.5",
     "--rho", "1.0"],
    ["ml", "--a", "1", "--x", "1"],
]
helps = [[], ["lyapunov"], ["chaos"], ["rho"], ["verify"], ["ml"]]
arrays = [
    ["lyapunov", "--family", "riesz", "--d", "1", "--alpha", "0.5"],
    ["rho", "--family", "riesz", "--d", "1", "--alpha", "0.5"],
    ["rho", "--family", "riesz", "--d", "2", "--alpha", "1.5"],
    ["lyapunov", "--family", "riesz", "--d", "2", "--alpha", "0.5",
     "--eq", "heat"],
    ["rho", "--family", "riesz", "--d", "3", "--alpha", "1.5"],
    ["lyapunov", "--family", "riesz", "--d", "3", "--alpha", "1.5",
     "--eq", "heat"],
    ["chaos", "--family", "white", "--eq", "heat", "--samples", "2000"],
    ["chaos", "--family", "riesz", "--d", "1", "--alpha", "0.5", "--eq",
     "heat", "--n", "2", "--samples", "2000"],
    ["chaos", "--family", "riesz", "--d", "2", "--alpha", "1.5", "--eq",
     "wave", "--n", "2", "--samples", "2000"],
    ["chaos", "--family", "white", "--eq", "wave", "--t", "1.0",
     "--samples", "2000"],
    ["chaos", "--family", "riesz", "--d", "1", "--alpha", "0.5",
     "--method", "bm", "--samples", "200"],
    ["verify", "--seed", "0"],
]


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # --help
            return exc.code


print([run(argv + ["--format", "json"]) for argv in closed_form]
      + [run(argv + ["--help"]) for argv in helps])
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
print([run(argv + ["--format", "json"]) for argv in arrays])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_closed_form_commands_skip_scipy():
    # a fresh interpreter: this one has long since imported scipy and numpy
    src = os.path.dirname(os.path.dirname(andersonlyap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("ANDERSON_CONFIG", None)
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    closed_codes, numpy_modules, array_codes, scipy_modules = \
        proc.stdout.splitlines()
    assert closed_codes == str([0] * 11)
    assert numpy_modules == "[]"
    assert array_codes == str([0] * 12)
    assert scipy_modules == "[]"


_BM_IMPORT_SCRIPT = """
import contextlib, io, sys
from andersonlyap.cli import main
loaded = []
for argv in (["chaos", "--family", "white", "--eq", "heat", "--samples",
              "2000"],
             ["chaos", "--family", "riesz", "--d", "1", "--alpha", "0.5",
              "--method", "bm", "--samples", "200"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--format", "json"]) == 0
    loaded.append("andersonlyap.brownian" in sys.modules)
print(loaded)
"""


def test_chaos_loads_the_path_oracle_only_for_bm():
    src = os.path.dirname(os.path.dirname(andersonlyap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("ANDERSON_CONFIG", None)
    proc = subprocess.run([sys.executable, "-c", _BM_IMPORT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, True]"


def test_every_lazy_export_resolves():
    # the table is read only on first use, so a stale name would fail
    # nowhere else
    for name in andersonlyap.__all__:
        assert getattr(andersonlyap, name) is not None, name
    for name, module in andersonlyap._EXPORTS.items():
        assert name in importlib.import_module(
            f"andersonlyap.{module}").__all__, name
        # the table names each name's home, not a module that imports it
        assert getattr(andersonlyap, name).__module__ == \
            f"andersonlyap.{module}", name


def test_every_public_name_has_a_caller():
    # a name in _EXPORTS or a module's __all__ that no module (bar the
    # lazy-export table) and no script reads gets a caller or is deleted
    pkg = os.path.dirname(andersonlyap.__file__)
    scripts = os.path.join(os.path.dirname(os.path.dirname(pkg)), "scripts")
    paths = [os.path.join(folder, name) for folder in (pkg, scripts)
             for name in sorted(os.listdir(folder))
             if name.endswith(".py") and name != "__init__.py"]
    public, read = set(andersonlyap._EXPORTS), set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                public.update(ast.literal_eval(node.value))
    assert len(paths) > 12
    assert sorted(public - read) == []


# ----------------------------------------------------------------------
# fuzzing: no input reaches a traceback
# ----------------------------------------------------------------------

_EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, 1.0, 1e308, -1e308,
                1e-308, -1e-308]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(0.0, 4.0),
                    st.floats())


def _flag(name, value):
    # the --name=value form keeps "-1e+308" from reading as a flag
    return f"--{name}={value!r}"


_NOISE = st.one_of(
    st.just(["--family", "white"]),
    st.builds(lambda h, e: ["--family", "fractional", _flag("H", h),
                            _flag("e-gamma", e)], _FLOATS, _FLOATS),
    st.builds(lambda d, a, r: ["--family", "riesz", f"--d={d}",
                               _flag("alpha", a), _flag("rho", r)],
              st.integers(-1, 4), _FLOATS, _FLOATS),
)
_LYAPUNOV = st.builds(
    lambda noise, eq, b: ["lyapunov", f"--eq={eq}"] + noise
    + ([] if b is None else [_flag("beta-l", b)]),
    _NOISE, st.sampled_from(["wave", "heat"]), st.none() | _FLOATS,
)
_ML = st.builds(
    lambda a, xs, c, t: ["ml", _flag("a", a)] + [_flag("x", x) for x in xs]
    + ([] if c is None else [_flag("growth-c", c), _flag("t", t)]),
    _FLOATS, st.lists(_FLOATS, max_size=2), st.none() | _FLOATS, _FLOATS,
)
# tiny orders near x = 1, where the series terms barely decay
_ML_SERIES = st.builds(
    lambda a, x: ["ml", _flag("a", a), _flag("x", x)],
    st.floats(1e-300, 1e-2), st.floats(0.999, 1.0),
)
_CHAOS = st.one_of(
    st.builds(
        lambda eq, n, samples, t: ["chaos", "--family", "white", f"--eq={eq}",
                                   f"--n={n}", f"--samples={samples}",
                                   "--threads=1"]
        + ([] if t is None else [_flag("t", t)]),
        st.sampled_from(["wave", "heat"]), st.integers(-1, 120),
        st.integers(-1, 500), st.none() | _FLOATS,
    ),
    st.builds(
        lambda d, a, eq, n, samples: ["chaos", "--family", "riesz",
                                      f"--d={d}", _flag("alpha", a),
                                      f"--eq={eq}", f"--n={n}",
                                      f"--samples={samples}", "--threads=1"],
        st.integers(-1, 4), _FLOATS, st.sampled_from(["wave", "heat"]),
        st.integers(-1, 3), st.integers(-1, 500),
    ),
)


def _ml_floor(a, x):
    """Lower bound on E_a(x), x >= 0: the sum of x^n over n <= 1/a, where
    Gamma(a n + 1) <= 1.  A series cut off early at tiny a falls below."""
    if x >= 1.0:
        return 1.0 / a
    return (1.0 - x ** (1.0 / a)) / (1.0 - x)


@given(st.one_of(_LYAPUNOV, _ML, _ML_SERIES, _CHAOS),
       st.sampled_from(["json", "csv", "table"]))
def test_fuzz_exit_codes(argv, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv + ["--format", fmt])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, EXIT_PARAMETER, EXIT_CONVERGENCE, EXIT_VERIFY), argv
    if code == 0 and argv[0] == "ml" and fmt != "table":
        text = out.getvalue()
        rows = json.loads(text)["rows"] if fmt == "json" else \
            list(csv.DictReader(io.StringIO(text)))
        for row in rows:
            if row.get("x") not in (None, ""):
                a, x, value = (float(row[k]) for k in ("a", "x", "value"))
                assert value >= _ml_floor(a, x) * (1.0 - 1e-12), argv
