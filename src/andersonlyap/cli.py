"""Command-line front end.

Subcommands:

* ``lyapunov`` -- the closed-form second-order exponent report for a
  chosen noise family and equation (runs the eigensolver for Riesz
  kernels unless ``--rho`` is supplied);
* ``chaos``    -- a table of chaos-moment Monte-Carlo estimates with
  oracle values and z-scores where closed forms exist;
* ``rho``      -- the variational constant with discretization metadata
  (exit 3 when the grid refinement misses its Richardson tolerance);
* ``verify``   -- the machine-checkable invariant suite (exit 4 on any
  failure);
* ``ml``       -- Mittag-Leffler point values and growth rates.

Configuration precedence: command-line flags override the key=value
config file named by ANDERSON_CONFIG, which overrides built-in
defaults.  All randomness flows from one --seed; per-target sub-streams
are derived by keyed hashing so new targets never disturb old ones.

Exit codes: 0 success, 2 parameter error, 3 convergence error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields
from typing import Optional, get_args, get_type_hints

from .asymptotics import at_growth, lambda2_closed_form, mittag_leffler
from .brownian import MAX_TIME_STEP, MIN_TIME_STEP, tn_bm_oracle
from .chaos import ChaosQuery, exact_moment, jn_exp_time_mc, jn_fixed_time
from .errors import ConvergenceError, ParameterError
from .propagators import EquationKind
from .reporting import csv_render, flatten, json_render, table_render
from .spectral import KernelSpec, dalang_check
from .variational import RhoEstimate, rho_eigen
from .verify import run_verification

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_CONVERGENCE = 3
EXIT_VERIFY = 4

CONFIG_ENV = "ANDERSON_CONFIG"


@dataclass
class RunConfig:
    """Resolved run configuration (flags over config file over defaults)."""

    command: str = "lyapunov"
    family: str = "white"
    d: int = 1
    alpha: float = 0.5
    H: float = 0.3
    eq: str = "wave"
    beta_l: float = 2.0
    n: int = 4
    t: Optional[float] = None
    samples: int = 1_000_000
    seed: int = 0
    grid_radius: float = 50.0
    grid_points: Optional[int] = None
    tol: float = 1e-8
    rho: Optional[float] = None
    e_gamma: Optional[float] = None
    format: str = "table"
    out: Optional[str] = None
    threads: int = max(1, os.cpu_count() or 1)
    max_iters: int = 5000
    method: str = "fourier"
    time_step: float = 2e-3

    def kernel(self) -> KernelSpec:
        if self.family == "riesz":
            return KernelSpec("riesz", d=self.d, alpha=self.alpha)
        if self.family == "fractional":
            return KernelSpec("fractional", H=self.H)
        if self.family == "white":
            return KernelSpec("white")
        raise ParameterError(f"unknown family {self.family!r}")

    def equation(self) -> EquationKind:
        return EquationKind(self.eq, self.beta_l)


# key -> int / float / str, from the annotations (Optional[X] reads as X)
_FIELD_TYPES = {
    name: next((a for a in get_args(hint) if a is not type(None)), hint)
    for name, hint in get_type_hints(RunConfig).items()
}


def load_config_file(path: str) -> dict:
    """Parse the flat key = value config format."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from None
    values = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(
                f"{path}:{lineno}: expected key = value, got {line!r}"
            )
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FIELD_TYPES:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        kind = _FIELD_TYPES[key]
        try:
            values[key] = kind(raw.strip())
        except ValueError:
            raise ParameterError(
                f"{path}:{lineno}: {key} needs a {kind.__name__} value, "
                f"got {raw.strip()!r}"
            ) from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="andersonlyap",
        description="Second-order Lyapunov exponents of the stochastic "
        "heat and wave equations with spatially homogeneous noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--family", choices=["riesz", "fractional", "white"])
        p.add_argument("--d", type=int, help="spatial dimension (Riesz)")
        p.add_argument("--alpha", type=float, help="Riesz scaling exponent")
        p.add_argument("--H", type=float, help="Hurst index (fractional)")
        p.add_argument("--eq", choices=["wave", "heat"])
        p.add_argument("--beta-l", dest="beta_l", type=float,
                       help="dispersion power in (0, 2]")
        p.add_argument("--n", type=int, help="chaos order / max order")
        p.add_argument("--t", type=float, help="fixed time for chaos terms")
        p.add_argument("--samples", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--grid-radius", dest="grid_radius", type=float)
        p.add_argument("--grid-points", dest="grid_points", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--rho", type=float, help="override the constant rho")
        p.add_argument("--e-gamma", dest="e_gamma", type=float,
                       help="functional value for the fractional family")
        p.add_argument("--format", choices=["json", "csv", "table"])
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--threads", type=int)
        p.add_argument("--max-iters", dest="max_iters", type=int)

    for name in ("lyapunov", "chaos", "rho", "verify", "ml"):
        p = sub.add_parser(name)
        add_common(p)
        if name == "chaos":
            p.add_argument("--method", choices=["fourier", "bm"],
                           help="Fourier-side sampler or Brownian oracle")
            p.add_argument("--time-step", dest="time_step", type=float,
                           help="Brownian oracle step size, in "
                           f"[{MIN_TIME_STEP:g}, {MAX_TIME_STEP:g}]")
        if name == "ml":
            p.add_argument("--a", type=float, required=True,
                           help="Mittag-Leffler order in (0, 4)")
            p.add_argument("--x", type=float, action="append",
                           help="evaluation point (repeatable)")
            p.add_argument("--growth-c", dest="growth_c", type=float,
                           help="report (1/t) log E_a((c t)^a) instead")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    path = os.environ.get(CONFIG_ENV)
    if path:
        for key, val in load_config_file(path).items():
            setattr(cfg, key, val)
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None and f.name != "command":
            setattr(cfg, f.name, flag)
    return cfg


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _emit(cfg: RunConfig, payload, rows=None, title=""):
    """Render to the chosen format; rows drive csv/table output."""
    if cfg.format == "json":
        text = json_render(payload)
    elif cfg.format == "csv":
        text = csv_render(rows if rows is not None else [flatten(payload)])
    elif rows is not None:
        text = table_render(rows, title)
    else:
        # single report: vertical key/value layout
        kv = [{"field": k, "value": v} for k, v in flatten(payload).items()]
        text = table_render(kv, title)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solve_rho(cfg: RunConfig, profile: str = "riesz") -> RhoEstimate:
    """The eigensolver at the configured grid; a Richardson pair that
    still disagrees after the last refinement is a convergence error."""
    est = rho_eigen(cfg.d, cfg.alpha, cfg.beta_l, R=cfg.grid_radius,
                    m=cfg.grid_points, tol=cfg.tol, max_iters=cfg.max_iters,
                    profile=profile)
    gap, refine_tol = est.params["richardson_gap"], est.params["refine_tol"]
    if not gap <= refine_tol:
        raise ConvergenceError(
            f"rho grid refinement stopped at {est.grid_points} points with "
            f"richardson_gap {gap:.3e} above refine_tol {refine_tol:.3e}",
            gap,
        )
    return est


def cmd_lyapunov(cfg: RunConfig) -> int:
    kernel = cfg.kernel()
    eq = cfg.equation()
    rho = cfg.rho
    rho_meta = None
    if kernel.family == "riesz" and rho is None:
        est = _solve_rho(cfg)
        rho = est.value
        rho_meta = est.to_dict()
    report = lambda2_closed_form(eq, kernel, rho=rho, e_gamma=cfg.e_gamma)
    payload = report.to_dict()
    if rho_meta is not None:
        payload["rho_solver"] = rho_meta
    _emit(cfg, payload, title="second-order Lyapunov exponent")
    return EXIT_OK


def cmd_chaos(cfg: RunConfig) -> int:
    kernel = cfg.kernel()
    eq = cfg.equation()
    if cfg.method == "bm":
        if cfg.beta_l != 2.0:
            raise ParameterError(
                "the Brownian oracle represents the classical Laplacian only"
            )
        if cfg.family != "riesz":
            raise ParameterError(
                "the Brownian oracle is defined for the Riesz family only"
            )
        if cfg.t is not None:
            raise ParameterError(
                f"t = {cfg.t} does not apply to the Brownian oracle, which "
                "estimates the exponential-time moments T_n"
            )
        # the path functional estimates the heat-side moments T_n
        eq = EquationKind("heat")
    queries = [ChaosQuery(eq, kernel, n, cfg.t)
               for n in range(1 if cfg.method == "bm" else 0, cfg.n + 1)]
    # every oracle first: a moment past the double range exits 2 unsampled
    oracles = [exact_moment(query) for query in queries]
    rows = []
    for query, oracle in zip(queries, oracles):
        if cfg.method == "bm":
            est = tn_bm_oracle(cfg.d, cfg.alpha, query.n, cfg.samples,
                               cfg.time_step, cfg.seed, threads=cfg.threads)
        elif cfg.t is None:
            est = jn_exp_time_mc(query, cfg.samples, cfg.seed,
                                 threads=cfg.threads)
        else:
            est = jn_fixed_time(query, cfg.samples, cfg.seed,
                                threads=cfg.threads)
        row = {
            "n": query.n,
            "mean": est.mean,
            "std_error": est.std_error,
            "oracle": oracle,
            "z": est.z_score(oracle) if oracle is not None else None,
            "target": est.target,
        }
        rows.append(row)
    payload = {
        "kernel": kernel.to_config(),
        "eq": eq.kind,
        "beta_l": eq.beta_l,
        "t": cfg.t,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "method": cfg.method,
        "rows": rows,
    }
    _emit(cfg, payload, rows=rows, title="chaos moments")
    return EXIT_OK


def cmd_rho(cfg: RunConfig) -> int:
    est = _solve_rho(cfg, "flat" if cfg.family == "white" else "riesz")
    _emit(cfg, est.to_dict(), title="variational constant")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    report = run_verification(seed=cfg.seed, threads=cfg.threads)
    rows = report["checks"]
    _emit(cfg, report, rows=rows, title="verification")
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY


def cmd_ml(cfg: RunConfig, a: float, xs, growth_c: Optional[float]) -> int:
    rows = []
    if growth_c is not None:
        t = cfg.t if cfg.t is not None else 50.0
        rows.append({
            "a": a, "c": growth_c, "t": t,
            "growth_rate": at_growth(a, growth_c, t),
        })
    for x in xs or []:
        rows.append({"a": a, "x": x, "value": mittag_leffler(a, x)})
    if not rows:
        raise ParameterError("ml needs --x or --growth-c")
    _emit(cfg, {"rows": rows}, rows=rows, title="mittag-leffler")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if not dalang_check(cfg.kernel().alpha_eff, cfg.beta_l) and \
                args.command in ("lyapunov", "chaos", "rho"):
            raise ParameterError(
                "admissibility condition violated: the spectral measure "
                f"scaling exponent {cfg.kernel().alpha_eff} must be below "
                f"the dispersion power {cfg.beta_l}"
            )
        if args.command == "lyapunov":
            return cmd_lyapunov(cfg)
        if args.command == "chaos":
            return cmd_chaos(cfg)
        if args.command == "rho":
            return cmd_rho(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "ml":
            return cmd_ml(cfg, args.a, args.x, args.growth_c)
        raise ParameterError(f"unknown command {args.command!r}")
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except ConvergenceError as exc:
        print(f"convergence error: {exc} (residual={exc.residual})",
              file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
