#!/usr/bin/env python3
"""Sweep the Riesz exponent and tabulate lambda_2 for both equations.

For each alpha the variational constant is solved once and the wave and
heat exponents are derived, together with the route-consistency gap.
Exits 2 on a parameter error and 3 when a solve misses its Richardson
tolerance, as the CLI does, printing no table.

    python3 scripts/exponent_table.py --alphas 0.3 0.5 0.8 --format csv
"""

import argparse
import sys

from andersonlyap import (
    EquationKind,
    KernelSpec,
    lambda2_closed_form,
    rho_eigen,
)
from andersonlyap.cli import run_with_exit_codes
from andersonlyap.reporting import csv_render, table_render


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--alphas", type=float, nargs="+",
                        default=[0.3, 0.5, 0.7, 0.9])
    parser.add_argument("--format", choices=["table", "csv"],
                        default="table")
    args = parser.parse_args()

    rows = []
    for alpha in args.alphas:
        est = rho_eigen(args.d, alpha).require_refined()
        kernel = KernelSpec("riesz", d=args.d, alpha=alpha)
        wave = lambda2_closed_form(EquationKind("wave"), kernel,
                                   rho=est.value)
        heat = lambda2_closed_form(EquationKind("heat"), kernel,
                                   rho=est.value)
        rows.append({
            "alpha": alpha,
            "rho": est.value,
            "richardson_gap": est.params["richardson_gap"],
            "lambda2_wave": wave.lambda2_thm2,
            "lambda2_heat": heat.lambda2_thm2,
            "consistency_gap": wave.consistency_gap,
        })
    render = csv_render if args.format == "csv" else table_render
    sys.stdout.write(render(rows))


if __name__ == "__main__":
    sys.exit(run_with_exit_codes(main))
