"""The scripts in scripts/ run end to end at tiny sizes."""

import os
import subprocess
import sys

import pytest

import andersonlyap

SRC = os.path.dirname(os.path.dirname(andersonlyap.__file__))
SCRIPTS = os.path.join(os.path.dirname(SRC), "scripts")


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("exponent_table.py", ["--alphas", "0.5"],
         ["alpha", "rho", "richardson_gap", "lambda2_wave", "lambda2_heat",
          "consistency_gap"]),
        ("rho_convergence.py", ["--radii", "25", "--points", "256"],
         ["R", "m", "rho", "richardson_gap", "residual", "seconds"]),
        ("moment_crosscheck.py",
         ["--n-max", "1", "--samples", "2000", "--paths", "200"],
         ["n", "spectral_mc", "spectral_se", "path_mc", "path_se", "exact",
          "z", "z_se", "rate"]),
        # d = 2 just above alpha = 1, where the diagonal cells need
        # their singular part
        ("exponent_table.py", ["--d", "2", "--alphas", "1.2"],
         ["alpha", "rho", "richardson_gap", "lambda2_wave", "lambda2_heat",
          "consistency_gap"]),
    ],
)
def test_script_runs(script, args, header):
    proc = _run(script, args)
    assert proc.returncode == 0, proc.stderr
    assert header in [line.split() for line in proc.stdout.splitlines()]


@pytest.mark.parametrize(
    "script,args,code,message",
    [
        ("exponent_table.py", ["--alphas", "2.5"], 2,
         "parameter error: alpha must lie in (0, d)"),
        ("rho_convergence.py", ["--points", "0"], 2,
         "parameter error: R must be positive and finite, m at least 1"),
        ("moment_crosscheck.py", ["--n-max", "1", "--samples", "0"], 2,
         "parameter error: n_samples must be at least 2"),
        # an empty order range prints no empty table
        ("moment_crosscheck.py", ["--n-max", "0"], 2,
         "parameter error: n_max must be at least 1, got 0"),
        # a rho whose Richardson pair disagrees is not printed
        ("exponent_table.py", ["--d", "3", "--alphas", "0.5"], 3,
         "convergence error: rho grid refinement stopped at 4800 points"),
    ],
    ids=["alpha-past-d", "no-points", "no-samples", "no-orders",
         "unrefined-rho"],
)
def test_script_maps_errors_to_exit_codes(script, args, code, message):
    proc = _run(script, args)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith(message)
    assert "Traceback" not in proc.stderr


def _run(script, args):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("ANDERSON_CONFIG", None)
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, script)]
                          + args, env=env, capture_output=True, text=True,
                          timeout=120)
