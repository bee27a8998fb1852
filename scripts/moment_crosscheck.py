#!/usr/bin/env python3
"""Cross-check the chaos moments through all three routes.

For each order n the exponential-time heat moment T_n is estimated by
the spectral Monte Carlo (``log_rate_tn``, which also gives the rate
(1/n) log T_n) and by the Brownian-path oracle, beside its closed form
where one exists (T_1).  The two estimates are compared by z, which
divides by both error bounds (truncation bias included), and by z_se,
which divides by the standard errors alone.  The rate sequence is
compared against log(rho) from the eigensolver, printed with its
Richardson gap and the tolerance that gap meets.  Exits 2 on a
parameter error and 3 on a convergence error, as the CLI does, printing
no table.

    python3 scripts/moment_crosscheck.py --alpha 0.5 --n-max 4
"""

import argparse
import math
import sys

from andersonlyap import (ChaosQuery, EquationKind, KernelSpec, exact_moment,
                          log_rate_tn, rho_eigen, tn_bm_oracle)
from andersonlyap.cli import run_with_exit_codes
from andersonlyap.reporting import table_render


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--samples", type=int, default=400_000)
    parser.add_argument("--paths", type=int, default=20_000)
    parser.add_argument("--time-step", type=float, default=2e-3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # a rho that misses its Richardson tolerance exits 3 before any draw
    est = rho_eigen(args.d, args.alpha).require_refined()
    heat = EquationKind("heat")
    kernel = KernelSpec("riesz", d=args.d, alpha=args.alpha)
    rows = []
    for n, rate, _, fr in log_rate_tn(args.d, args.alpha, args.n_max,
                                      args.samples, args.seed):
        bm = tn_bm_oracle(args.d, args.alpha, n, args.paths, args.time_step,
                          args.seed)
        gap = fr.mean - bm.mean
        sigma = math.hypot(fr.error_bound(), bm.error_bound())
        sigma_se = math.hypot(fr.std_error, bm.std_error)
        rows.append({
            "n": n,
            "spectral_mc": fr.mean,
            "spectral_se": fr.std_error,
            "path_mc": bm.mean,
            "path_se": bm.std_error,
            "exact": exact_moment(ChaosQuery(heat, kernel, n)),
            "z": gap / sigma if sigma else 0.0,
            "z_se": gap / sigma_se if sigma_se else 0.0,
            "rate": rate,
        })
    gap, refine_tol = est.params["richardson_gap"], est.params["refine_tol"]
    sys.stdout.write(table_render(rows, title="exponential-time moments"))
    sys.stdout.write(
        f"\nlog(rho) = {math.log(est.value):.6f}   "
        f"(rho = {est.value:.6f}, grid {est.grid_points} points, "
        f"richardson_gap {gap:.3e}, refine_tol {refine_tol:.3e})\n"
    )


if __name__ == "__main__":
    sys.exit(run_with_exit_codes(main))
