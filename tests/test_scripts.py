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
    ],
)
def test_script_runs(script, args, header):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("ANDERSON_CONFIG", None)
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script)]
                          + args, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert header in [line.split() for line in proc.stdout.splitlines()]
