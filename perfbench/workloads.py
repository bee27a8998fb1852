"""The four benchmark workloads, their inputs and their correctness gates.

Each workload is a fixed list of operations run one at a time.  An
operation returns a record with its wall and CPU seconds, whether every
gate on it held, and a fingerprint of its output.  Repeating a pass must
reproduce every fingerprint bit for bit, because all inputs derive from
the workload seed alone.

Why these four:

* ``cli_cold`` -- cold ``python -m andersonlyap`` processes.  Every
  interactive call pays interpreter start plus package import, about
  three quarters of this workload and almost nothing of the others, so
  an import-time change shows here and nowhere else.
* ``moments_mc`` -- spectral Monte Carlo in one warm process: Riesz
  rejection and white Cauchy draws, d = 1 and d = 2 directions, Laplace
  and fixed-time propagators, the chunked driver at 1 and 2 threads.
* ``path_oracle`` -- the Brownian-path oracle, the slowest layer: the
  refinement-heavy d = 1, alpha = 1/2 case and the d = 2, 3 norm path
  under a lighter refinement load.
* ``rho_solve`` -- the eigensolver on its d = 1 FFT path, the d = 2
  tabulated angular profile and the dense d = 3 grid that refines to
  4800 points, then the closed-form exponents on each rho.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

WORKLOADS = ("cli_cold", "moments_mc", "path_oracle", "rho_solve")

Z_MAX = 4.0
# The eigensolver's DEFAULT_REFINE_TOL at the seed commit, fixed here so
# the gate does not move with the solver it checks.
RHO_REL_TOL = 1e-3
TIME_STEP = 2e-3
CLI_TIMEOUT_S = 150.0

# rho and lambda_2 (wave, heat) recorded from the seed commit with the
# solver's default grid, radius and tolerances.
REFERENCE = {
    "d1_a0.5": (1.4549798910362886, 1.334592855369287, 1.6487038601510857),
    "d1_a0.9": (8.895027711787895, 2.926238157037276, 53.176821318423976),
    "d1_flat": (0.4936346509306232, 0.7025913826191033, 0.2436751685993982),
    "d2_a0.5": (0.7154459402683451, 1.0047007549495728, 0.6398857394387667),
    "d2_a1": (0.9987933394079052, 0.9993964875903383, 0.9975881348455948),
    "d2_a1.5": (2.9549321511375184, 1.634387418257021, 76.24125798867942),
    "d3_a0.5": (0.5356237121276748, 0.8948493297628662, 0.43499045438239187),
    "d3_a1": (0.4995138030925721, 0.7067629044400761, 0.24951403948000486),
    "d3_a1.5": (0.7364190063341642, 0.647251890009873, 0.29410333887248596),
}
# lambda_2 of the fractional wave report at H = 0.3, e_gamma = 1.
FRACTIONAL_WAVE_LAMBDA2 = 0.620928906036742

# (case, d, alpha, profile); the d = 1 cases and one per dense branch
# stay in the smoke run.
RHO_CASES = (
    ("d1_a0.5", 1, 0.5, "riesz"),
    ("d1_a0.9", 1, 0.9, "riesz"),
    ("d1_flat", 1, 1.0, "flat"),
    ("d2_a0.5", 2, 0.5, "riesz"),
    ("d2_a1", 2, 1.0, "riesz"),
    ("d2_a1.5", 2, 1.5, "riesz"),
    ("d3_a0.5", 3, 0.5, "riesz"),
    ("d3_a1", 3, 1.0, "riesz"),
    ("d3_a1.5", 3, 1.5, "riesz"),
)
RHO_SMOKE_CASES = ("d1_a0.5", "d1_a0.9", "d1_flat", "d2_a1", "d3_a1.5")


@dataclass
class Context:
    root: str
    seed: int
    threads: int
    smoke: bool
    tracer: object

    @property
    def src(self):
        return os.path.join(self.root, "src")


def derive_seed(seed: int, label: str) -> int:
    """31-bit input seed for one operation, a pure function of the
    workload seed and the operation's label."""
    digest = hashlib.blake2b(f"{seed}/{label}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "little") >> 1


def child_env(ctx: Context) -> dict:
    env = dict(os.environ)
    env.pop("ANDERSON_CONFIG", None)
    env["PYTHONPATH"] = ctx.src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _record(case, seconds, cpu_s, failures, fingerprint, **extra):
    return {"case": case, "seconds": seconds, "cpu_s": cpu_s,
            "ok": not failures, "why": "; ".join(failures) or None,
            "fingerprint": fingerprint, **extra}


def _timed(ctx, span, fn):
    """Run fn inside a span; returns (result, wall s, process CPU s)."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    with ctx.tracer.span(span):
        out = fn()
    return out, time.perf_counter() - t0, time.process_time() - c0


def _rel(x, ref):
    return abs(x - ref) / abs(ref)


def _within_z(mean, err, ref):
    """|mean - ref| within Z_MAX error bars, with a rounding floor for
    zero-variance estimators whose error bar is below one ulp."""
    return abs(mean - ref) <= Z_MAX * err + 16 * sys.float_info.epsilon * abs(ref)


def draws_per_s(records):
    """MC samples or oracle paths per second of estimator time."""
    est = [r for r in records if "n_samples" in r]
    return sum(r["n_samples"] for r in est) / sum(r["seconds"] for r in est)


def mc_cost_1pct_s(records):
    """Seconds to reach 1% relative error, summed over the distinct
    estimates: seconds x (std_error / |mean| / 0.01)^2.  A bitwise repeat
    at another thread count is not a second estimate."""
    seen, cost = set(), 0.0
    for r in records:
        if "std_error" in r and r["fingerprint"] not in seen:
            seen.add(r["fingerprint"])
            cost += r["seconds"] * (r["std_error"] / abs(r["mean"]) / 0.01) ** 2
    return cost


# ----------------------------------------------------------------------
# cli_cold
# ----------------------------------------------------------------------

def cli_commands(ctx: Context):
    """(case, argv) for every cold process of one pass."""
    samples = 20_000 if ctx.smoke else 200_000
    t = str(ctx.threads)
    json_out = ["--format", "json"]
    verify = ["verify", "--seed", str(derive_seed(ctx.seed, "verify")),
              "--threads", t] + json_out
    return [
        ("lyapunov_white_wave",
         ["lyapunov", "--family", "white", "--eq", "wave"] + json_out),
        ("lyapunov_white_heat",
         ["lyapunov", "--family", "white", "--eq", "heat"] + json_out),
        ("lyapunov_frac_wave",
         ["lyapunov", "--family", "fractional", "--eq", "wave",
          "--e-gamma", "1.0"] + json_out),
        ("lyapunov_riesz_heat",
         ["lyapunov", "--family", "riesz", "--d", "1", "--alpha", "0.5",
          "--eq", "heat"] + json_out),
        ("rho_riesz_d1",
         ["rho", "--family", "riesz", "--d", "1", "--alpha", "0.5"]
         + json_out),
        ("ml", ["ml", "--a", "1.0", "--x", "1.0"] + json_out),
        ("chaos_white_heat",
         ["chaos", "--family", "white", "--eq", "heat", "--n", "4",
          "--samples", str(samples),
          "--seed", str(derive_seed(ctx.seed, "chaos_white_heat")),
          "--threads", t] + json_out),
        ("verify_1", verify),
        ("verify_2", verify),
    ]


def _check_cli(case, payload):
    """Gate failures for one parsed CLI payload."""
    fails = []
    if case == "lyapunov_white_wave":
        if abs(payload["lambda2"] - 1.0 / math.sqrt(2.0)) > 1e-12:
            fails.append(f"lambda2 {payload['lambda2']!r} != 1/sqrt(2)")
    elif case == "lyapunov_white_heat":
        if abs(payload["lambda2"] - 0.25) > 1e-12:
            fails.append(f"lambda2 {payload['lambda2']!r} != 1/4")
    elif case == "lyapunov_frac_wave":
        if _rel(payload["lambda2"], FRACTIONAL_WAVE_LAMBDA2) > 1e-9:
            fails.append(f"lambda2 {payload['lambda2']!r} off reference")
    elif case == "lyapunov_riesz_heat":
        rho, _, lam = REFERENCE["d1_a0.5"]
        if _rel(payload["rho"], rho) > RHO_REL_TOL:
            fails.append(f"rho {payload['rho']!r} off reference")
        if _rel(payload["lambda2"], lam) > RHO_REL_TOL / payload["a"]:
            fails.append(f"lambda2 {payload['lambda2']!r} off reference")
    elif case == "rho_riesz_d1":
        if _rel(payload["value"], REFERENCE["d1_a0.5"][0]) > RHO_REL_TOL:
            fails.append(f"rho {payload['value']!r} off reference")
    elif case == "ml":
        if _rel(payload["rows"][0]["value"], math.e) > 1e-12:
            fails.append(f"E_1(1) = {payload['rows'][0]['value']!r} != e")
    elif case == "chaos_white_heat":
        for row in payload["rows"]:
            if row["oracle"] is not None and not _within_z(
                    row["mean"], row["std_error"], row["oracle"]):
                fails.append(f"n={row['n']} mean {row['mean']!r} vs "
                             f"{row['oracle']!r}")
    elif case.startswith("verify"):
        if not payload["all_passed"]:
            fails.append("verify reported a failed check")
    return fails


def cli_pass(ctx: Context):
    env = child_env(ctx)
    records, outputs = [], {}
    for case, argv in cli_commands(ctx):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        with ctx.tracer.span(f"cli.{case}"):
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "andersonlyap"] + argv,
                    cwd=ctx.root, env=env, capture_output=True, text=True,
                    timeout=CLI_TIMEOUT_S)
                rc, out = proc.returncode, proc.stdout
            except subprocess.TimeoutExpired:
                rc, out = None, ""
        seconds = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        fails = []
        if rc != 0:
            fails.append(f"exit code {rc}")
        else:
            try:
                fails += _check_cli(case, json.loads(out))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                fails.append(f"unreadable output: {exc!r}")
        if case == "verify_2" and out != outputs.get("verify_1"):
            fails.append("verify output differs between two cold runs")
        outputs[case] = out
        records.append(_record(case, seconds, cpu, fails, out))
    return records


def cli_warm_up(ctx: Context):
    from andersonlyap import cli

    with redirect_stdout(io.StringIO()):
        cli.main(["ml", "--a", "1.0", "--x", "1.0", "--format", "json"])


# ----------------------------------------------------------------------
# moments_mc
# ----------------------------------------------------------------------

def moment_cases(ctx: Context):
    """(case, eq kind, kernel, n, t, threads) in pass order."""
    from andersonlyap import KernelSpec

    r1 = KernelSpec("riesz", d=1, alpha=0.5)
    r2 = KernelSpec("riesz", d=2, alpha=0.8)
    white = KernelSpec("white")
    t2 = ctx.threads
    return [
        ("r1h_n1", "heat", r1, 1, None, t2),
        ("r1h_n3", "heat", r1, 3, None, t2),
        ("r2w_n4", "wave", r2, 4, None, t2),
        ("r1w_t2_n3", "wave", r1, 3, 2.0, t2),
        ("wh_n4", "heat", white, 4, None, t2),
        ("ww_t1_n3", "wave", white, 3, 1.0, t2),
        # the same estimate as r1h_n3 at one thread: must match bitwise
        ("r1h_n3_t1", "heat", r1, 3, None, 1),
    ]


def _moment_reference(case, query):
    from andersonlyap import scaling_exponent, t1_exact, wave_heat_factor

    if case == "r1h_n1":
        return t1_exact(query.kernel)
    if case == "wh_n4":
        return 0.5 ** query.n
    if case == "ww_t1_n3":
        # fixed-time identity J_n(t) = t^(a n) E[J_n(tau)] / Gamma(a n + 1)
        n, t = query.n, query.t
        a = scaling_exponent(query.eq, 1.0)
        return (t ** (a * n) * wave_heat_factor(n, 1.0) * 0.5 ** n
                / math.gamma(a * n + 1.0))
    return None


def moments_pass(ctx: Context):
    from andersonlyap import ChaosQuery, EquationKind, jn_exp_time_mc, \
        jn_fixed_time

    samples = 20_000 if ctx.smoke else 1_000_000
    records, by_case = [], {}
    for case, eq, kernel, n, t, threads in moment_cases(ctx):
        query = ChaosQuery(EquationKind(eq), kernel, n, t)
        seed = derive_seed(ctx.seed, case.removesuffix("_t1"))
        if t is None:
            fn, span = jn_exp_time_mc, "chaos.jn_exp_time_mc"
        else:
            fn, span = jn_fixed_time, "chaos.jn_fixed_time"
        est, seconds, cpu = _timed(
            ctx, span, lambda: fn(query, samples, seed, threads=threads))
        fails = []
        if not (math.isfinite(est.mean) and est.mean > 0
                and math.isfinite(est.std_error)):
            fails.append(f"estimate {est.mean!r} +- {est.std_error!r}")
        ref = _moment_reference(case, query)
        if ref is not None and not _within_z(est.mean, est.error_bound(), ref):
            fails.append(f"mean {est.mean!r} vs closed form {ref!r}")
        if case == "r1h_n3_t1":
            other = by_case["r1h_n3"]
            if (est.mean, est.std_error) != (other.mean, other.std_error):
                fails.append("1-thread and 2-thread estimates differ")
        by_case[case] = est
        records.append(_record(
            case, seconds, cpu, fails, (est.mean, est.std_error),
            threads=threads, n_samples=est.n_samples, mean=est.mean,
            std_error=est.std_error,
            tail_frac_bound=est.params.get("tail_frac_bound")))
    return records


def moments_warm_up(ctx: Context):
    from andersonlyap import ChaosQuery, EquationKind, KernelSpec, \
        jn_exp_time_mc, jn_fixed_time

    r1 = KernelSpec("riesz", d=1, alpha=0.5)
    jn_exp_time_mc(ChaosQuery(EquationKind("heat"), r1, 1), 4096,
                   derive_seed(ctx.seed, "warm_up"), threads=ctx.threads)
    jn_fixed_time(ChaosQuery(EquationKind("wave"), KernelSpec("white"), 1, 1.0),
                  4096, derive_seed(ctx.seed, "warm_up"), threads=ctx.threads)


# ----------------------------------------------------------------------
# path_oracle
# ----------------------------------------------------------------------

def oracle_cases(ctx: Context):
    """(case, d, alpha, n, paths, threads) in pass order."""
    scale = 16 if ctx.smoke else 1
    t2 = ctx.threads
    return [
        ("d1n1_t2", 1, 0.5, 1, 4000 // scale, t2),
        ("d1n2_t1", 1, 0.5, 2, 2000 // scale, 1),
        ("d1n2_t2", 1, 0.5, 2, 2000 // scale, t2),
        ("d2n1_t2", 2, 0.8, 1, 2000 // scale, t2),
        ("d3n1_t2", 3, 1.2, 1, 2000 // scale, t2),
    ]


def oracle_pass(ctx: Context):
    from andersonlyap import KernelSpec, t1_exact, tn_bm_oracle

    records, by_case = [], {}
    for case, d, alpha, n, paths, threads in oracle_cases(ctx):
        seed = derive_seed(ctx.seed, case[:4])
        est, seconds, cpu = _timed(
            ctx, "brownian.tn_bm_oracle",
            lambda: tn_bm_oracle(d, alpha, n, paths, TIME_STEP, seed,
                                 threads=threads))
        fails = []
        if not (math.isfinite(est.mean) and est.mean > 0
                and math.isfinite(est.std_error)):
            fails.append(f"estimate {est.mean!r} +- {est.std_error!r}")
        if n == 1:
            ref = t1_exact(KernelSpec("riesz", d=d, alpha=alpha))
            if not _within_z(est.mean, est.error_bound(), ref):
                fails.append(f"mean {est.mean!r} vs t1_exact {ref!r}")
        if case == "d1n2_t2":
            other = by_case["d1n2_t1"]
            if (est.mean, est.std_error) != (other.mean, other.std_error):
                fails.append("1-thread and 2-thread estimates differ")
        by_case[case] = est
        records.append(_record(
            case, seconds, cpu, fails, (est.mean, est.std_error),
            threads=threads, n_samples=est.n_samples, mean=est.mean,
            std_error=est.std_error, args=(d, alpha, n, threads)))
    return records


def oracle_warm_up(ctx: Context):
    from andersonlyap import tn_bm_oracle

    tn_bm_oracle(1, 0.5, 1, 64, TIME_STEP, derive_seed(ctx.seed, "warm_up"),
                 threads=ctx.threads)


# ----------------------------------------------------------------------
# rho_solve
# ----------------------------------------------------------------------

def rho_pass(ctx: Context):
    from andersonlyap import EquationKind, KernelSpec, lambda2_closed_form, \
        rho_eigen

    records = []
    for case, d, alpha, profile in RHO_CASES:
        if ctx.smoke and case not in RHO_SMOKE_CASES:
            continue
        est, seconds, cpu = _timed(
            ctx, "variational.rho_eigen",
            lambda: rho_eigen(d, alpha, profile=profile))
        rho_seconds = seconds
        ref_rho, ref_wave, ref_heat = REFERENCE[case]
        fails = []
        if profile == "flat":
            if abs(est.value - math.atan(50.0) / math.pi) > 1e-9:
                fails.append(f"flat rho {est.value!r} != arctan(50)/pi")
        elif _rel(est.value, ref_rho) > RHO_REL_TOL:
            fails.append(f"rho {est.value!r} off reference {ref_rho!r}")
        kernel = KernelSpec("white") if profile == "flat" else \
            KernelSpec("riesz", d=d, alpha=alpha)
        lambdas = []
        for eq, ref in (("wave", ref_wave), ("heat", ref_heat)):
            rep, s, c = _timed(
                ctx, "asymptotics.lambda2_closed_form",
                lambda: lambda2_closed_form(EquationKind(eq), kernel,
                                            rho=est.value))
            seconds += s
            cpu += c
            lambdas.append(rep.lambda2_thm2)
            if _rel(rep.lambda2_thm2, ref) > RHO_REL_TOL / rep.a:
                fails.append(f"{eq} lambda2 {rep.lambda2_thm2!r} off "
                             f"reference {ref!r}")
        records.append(_record(
            case, seconds, cpu, fails, (est.value, *lambdas),
            rho=est.value, rho_seconds=rho_seconds,
            grid_points=est.grid_points,
            power_iterations=est.power_iterations))
    return records


def rho_warm_up(ctx: Context):
    from andersonlyap import EquationKind, KernelSpec, lambda2_closed_form, \
        rho_eigen

    est = rho_eigen(1, 0.5)
    lambda2_closed_form(EquationKind("heat"),
                        KernelSpec("riesz", d=1, alpha=0.5), rho=est.value)


PASSES = {
    "cli_cold": cli_pass,
    "moments_mc": moments_pass,
    "path_oracle": oracle_pass,
    "rho_solve": rho_pass,
}
WARM_UPS = {
    "cli_cold": cli_warm_up,
    "moments_mc": moments_warm_up,
    "path_oracle": oracle_warm_up,
    "rho_solve": rho_warm_up,
}
