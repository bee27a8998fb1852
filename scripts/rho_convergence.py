#!/usr/bin/env python3
"""Discretization study for the variational constant.

Tabulates rho over a (grid points, radius) ladder so truncation and
quadrature errors can be read off separately.  Exits 2 on a parameter
error and 3 on a convergence error, as the CLI does, printing no table.

    python3 scripts/rho_convergence.py --alpha 0.5 --format csv
"""

import argparse
import sys
import time

from andersonlyap import rho_eigen
from andersonlyap.cli import run_with_exit_codes
from andersonlyap.reporting import csv_render, table_render


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--radii", type=float, nargs="+",
                        default=[25.0, 50.0, 100.0, 200.0])
    parser.add_argument("--points", type=int, nargs="+",
                        default=[1024, 2048, 4096])
    parser.add_argument("--format", choices=["table", "csv"],
                        default="table")
    args = parser.parse_args()

    rows = []
    for radius in args.radii:
        for m in args.points:
            t0 = time.monotonic()
            est = rho_eigen(args.d, args.alpha, R=radius, m=m,
                            refine_tol=1.0)
            rows.append({
                "R": radius,
                "m": est.grid_points,
                "rho": est.value,
                "richardson_gap": est.params["richardson_gap"],
                "residual": est.residual,
                "seconds": round(time.monotonic() - t0, 3),
            })
    render = csv_render if args.format == "csv" else table_render
    sys.stdout.write(render(rows))


if __name__ == "__main__":
    sys.exit(run_with_exit_codes(main))
