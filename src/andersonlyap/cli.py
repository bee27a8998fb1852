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
defaults; each subcommand has flags only for the settings it reads, and
a flag that the chosen family or mode leaves unread is an error.  Array
modules load inside the handlers that run them: closed forms skip numpy.
All randomness flows from one --seed; per-target sub-streams are
derived by keyed hashing so new targets never disturb old ones.

Exit codes: 0 success, 2 parameter error, 3 convergence error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional, get_args, get_type_hints

from .asymptotics import at_growth, lambda2_closed_form, mittag_leffler
from .errors import ConvergenceError, ParameterError
from .reporting import csv_render, flatten, json_render, table_render
from .spectral import EquationKind, KernelSpec, require_admissible

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_CONVERGENCE = 3
EXIT_VERIFY = 4

CONFIG_ENV = "ANDERSON_CONFIG"


@dataclass
class RunConfig:
    """Resolved run configuration (flags over config file over defaults);
    a solver setting left None takes ``rho_eigen``'s default."""

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
    grid_radius: Optional[float] = None
    grid_points: Optional[int] = None
    tol: Optional[float] = None
    rho: Optional[float] = None
    e_gamma: Optional[float] = None
    format: str = "table"
    out: Optional[str] = None
    threads: int = max(1, os.cpu_count() or 1)
    max_iters: Optional[int] = None
    method: str = "fourier"
    time_step: float = 2e-3

    def kernel(self) -> KernelSpec:
        """The configured noise, checked admissible against beta_l."""
        params = {"riesz": {"d": self.d, "alpha": self.alpha},
                  "fractional": {"H": self.H}}.get(self.family, {})
        kernel = KernelSpec(self.family, **params)
        require_admissible(kernel.alpha_eff, self.beta_l)
        return kernel

    def equation(self) -> EquationKind:
        return EquationKind(self.eq, self.beta_l)


# settable key -> int / float / str, from the annotations (Optional[X]
# reads as X); the subcommand is named on the command line only
_FIELD_TYPES = {
    name: next((a for a in get_args(hint) if a is not type(None)), hint)
    for name, hint in get_type_hints(RunConfig).items() if name != "command"
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


# The RunConfig settings each subcommand reads: its flags, besides
# --format and --out.  A config file may set any of them for any command.
_MODEL = ("family", "d", "alpha", "H", "eq", "beta_l")
_SOLVER = ("grid_radius", "grid_points", "tol", "max_iters")
_COMMAND_KEYS = {
    "lyapunov": _MODEL + _SOLVER + ("rho", "e_gamma"),
    "chaos": _MODEL + ("n", "t", "samples", "seed", "threads", "method",
                       "time_step"),
    "rho": ("family", "d", "alpha", "beta_l") + _SOLVER,
    "verify": ("seed", "threads"),
    "ml": ("t",),
}
_CHOICES = {"family": ["riesz", "fractional", "white"], "eq": ["wave", "heat"],
            "format": ["json", "csv", "table"], "method": ["fourier", "bm"]}
_HELP = {
    "d": "spatial dimension (Riesz)",
    "alpha": "Riesz scaling exponent",
    "H": "Hurst index (fractional)",
    "beta_l": "dispersion power in (0, 2]",
    "n": "chaos order / max order",
    "t": "fixed time of the chaos terms or of the ml growth rate",
    "rho": "override the constant rho",
    "e_gamma": "functional value for the fractional family",
    "out": "write the report to this path",
    "method": "Fourier-side sampler or Brownian oracle",
    "time_step": "Brownian oracle step size",
}

# Flags that some families or modes leave unread: key -> (whether the
# resolved config reads it, why not).
_RIESZ = (lambda cfg: cfg.family == "riesz", "only the riesz family reads it")
_FRACTIONAL = (lambda cfg: cfg.family == "fractional",
               "only the fractional family reads it")
_READ_BY = {
    "d": _RIESZ, "alpha": _RIESZ, "H": _FRACTIONAL, "e_gamma": _FRACTIONAL,
    "rho": (lambda cfg: cfg.family != "fractional",
            "the fractional family derives rho from --e-gamma"),
    "eq": (lambda cfg: cfg.command != "chaos" or cfg.method != "bm",
           "--method bm estimates the heat moments T_n"),
    "time_step": (lambda cfg: cfg.method == "bm", "only --method bm reads it"),
    **dict.fromkeys(_SOLVER, (
        lambda cfg: cfg.command == "rho" or (cfg.family == "riesz"
                                             and cfg.rho is None),
        "lyapunov solves for rho only for riesz noise without --rho")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="andersonlyap",
        description="Second-order Lyapunov exponents of the stochastic "
        "heat and wave equations with spatially homogeneous noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in _COMMAND_KEYS.items():
        p = sub.add_parser(name)
        for key in keys + ("format", "out"):
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=_FIELD_TYPES[key], choices=_CHOICES.get(key),
                           help=_HELP.get(key))
    ml = sub.choices["ml"]
    ml.add_argument("--a", type=float, required=True,
                    help="Mittag-Leffler order in (0, 4)")
    ml.add_argument("--x", type=float, action="append",
                    help="evaluation point (repeatable)")
    ml.add_argument("--growth-c", dest="growth_c", type=float,
                    help="report (1/t) log E_a((c t)^a) instead")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Config file values overridden by the given flags; a given flag
    (not a file value) that the resolved config leaves unread raises."""
    path = os.environ.get(CONFIG_ENV)
    values = load_config_file(path) if path else {}
    flags = {key: flag for key, flag in vars(args).items()
             if key in _FIELD_TYPES and flag is not None}
    values.update(flags)
    cfg = RunConfig(command=args.command, **values)
    for key in flags:
        reads, why_not = _READ_BY.get(key, (None, None))
        if reads is not None and not reads(cfg):
            raise ParameterError(
                f"--{key.replace('_', '-')} would be ignored: {why_not}")
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
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(
                f"cannot write the report to {cfg.out}: {exc.strerror}"
            ) from None
    else:
        sys.stdout.write(text)


def _solve_rho(cfg: RunConfig, kernel: KernelSpec):
    """The eigensolver's RhoEstimate for a checked Riesz or white kernel
    at the configured grid; a Richardson pair that still disagrees after
    the last refinement is a convergence error."""
    from .variational import rho_eigen

    solver = {"R": cfg.grid_radius, "m": cfg.grid_points, "tol": cfg.tol,
              "max_iters": cfg.max_iters}
    est = rho_eigen(cfg.d, cfg.alpha, cfg.beta_l,
                    **{k: v for k, v in solver.items() if v is not None},
                    profile="flat" if kernel.family == "white" else "riesz")
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
        est = _solve_rho(cfg, kernel)
        rho = est.value
        rho_meta = asdict(est)
    report = lambda2_closed_form(eq, kernel, rho=rho, e_gamma=cfg.e_gamma)
    payload = report.to_dict()
    if rho_meta is not None:
        payload["rho_solver"] = rho_meta
    _emit(cfg, payload, title="second-order Lyapunov exponent")
    return EXIT_OK


def cmd_chaos(cfg: RunConfig) -> int:
    from .brownian import tn_bm_oracle
    from .chaos import ChaosQuery, exact_moment, jn_exp_time_mc, jn_fixed_time

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
        rows.append({
            "n": query.n,
            "mean": est.mean,
            "std_error": est.std_error,
            "oracle": oracle,
            "z": est.z_score(oracle) if oracle is not None else None,
            "target": est.target,
        })
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
    if cfg.family == "fractional":
        raise ParameterError("the fractional family has no rho to solve for; "
                             "give lyapunov its functional value, --e-gamma")
    est = _solve_rho(cfg, cfg.kernel())
    _emit(cfg, asdict(est), title="variational constant")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    from .verify import run_verification

    report = run_verification(seed=cfg.seed, threads=cfg.threads)
    _emit(cfg, report, rows=report["checks"], title="verification")
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
        if args.command == "ml":
            return cmd_ml(cfg, args.a, args.x, args.growth_c)
        return {"lyapunov": cmd_lyapunov, "chaos": cmd_chaos,
                "rho": cmd_rho, "verify": cmd_verify}[args.command](cfg)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except ConvergenceError as exc:
        print(f"convergence error: {exc} (residual={exc.residual})",
              file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
