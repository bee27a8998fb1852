"""Machine-checkable invariant suite behind the ``verify`` command.

Each check recomputes one of the package's exact identities or
statistical contracts from scratch with seeded inputs and reports a
pass/fail record.  Everything is deterministic for a fixed (seed,
thread count), so two runs emit byte-identical JSON -- itself one of
the checks' contracts.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .asymptotics import (
    _asymptotic_log_ml,
    _series_log_ml,
    at_growth,
    beta0_power_law,
    beta0_solve,
    lambda2_closed_form,
    mittag_leffler,
)
from .chaos import ChaosQuery, exact_moment, jn_exp_time_mc
from .mc import derive_seed
from .propagators import EquationKind, fourier_green_sq, laplace_green_sq, \
    wave_heat_link_residual
from .spectral import KernelSpec, riesz_constant
from .variational import functionals_from_rho, remark14_residual, rho_eigen

__all__ = ["run_verification", "j1_quadrature"]

_legendre_rule = functools.cache(lambda: np.polynomial.legendre.leggauss(20))


def _gauss_legendre(f, a, b, panels):
    """Composite 20-point Gauss-Legendre rule for vectorized f on [a, b]."""
    x, w = _legendre_rule()
    h = (b - a) / panels
    nodes = a + h * (np.arange(panels)[:, None] + 0.5 * (x + 1.0))
    return 0.5 * h * float((f(nodes) @ w).sum())


def _check(name, value, tolerance, detail=""):
    return {
        "name": name,
        "passed": bool(value <= tolerance),
        "value": float(value),
        "tolerance": float(tolerance),
        "detail": detail,
    }


def _white_exact():
    wave = lambda2_closed_form(EquationKind("wave"), KernelSpec("white"))
    heat = lambda2_closed_form(EquationKind("heat"), KernelSpec("white"))
    dev = max(
        abs(wave.lambda2_thm2 - 1.0 / math.sqrt(2.0)),
        abs(heat.lambda2_thm2 - 0.25),
    )
    return _check("white_noise_exact_exponents", dev, 1e-12,
                  "closed-form wave/heat exponents at the flat kernel")


def _remark_identity(rng):
    alphas = rng.uniform(0.05, 1.95, 100)
    rhos = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 100))
    worst = max(abs(remark14_residual(a, r)) for a, r in zip(alphas, rhos))
    return _check("exponent_identity_residual", worst, 1e-10,
                  "rho-route vs functional-route wave exponent, 100 draws")


def _wave_heat_link(rng):
    betas = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 40))
    rs = np.concatenate([[0.0], np.exp(rng.uniform(-3, 3, 39))])
    worst = max(
        abs(wave_heat_link_residual(b, r)) for b, r in zip(betas, rs)
    )
    return _check("wave_heat_laplace_link", worst, 1e-15,
                  "I^w_beta = (2 beta)^-1 I^h_{beta^2/4} on a random grid")


def _laplace_by_quadrature(eq, beta, r):
    """``laplace_green_sq`` by quadrature in t over [0, 50/beta]."""
    return _gauss_legendre(lambda t: np.exp(-beta * t)
                           * fourier_green_sq(eq, t, r), 0.0, 50.0 / beta, 200)


def _laplace_quadrature(rng):
    worst = 0.0
    for _ in range(12):
        beta = float(rng.uniform(0.3, 3.0))
        r = float(rng.uniform(0.0, 5.0))
        eq = EquationKind("wave" if rng.random() < 0.5 else "heat")
        ref = laplace_green_sq(eq, beta, r)
        worst = max(worst, abs(_laplace_by_quadrature(eq, beta, r) - ref) / ref)
    return _check("laplace_transform_quadrature", worst, 1e-6,
                  "time quadrature of the squared propagators, 12 points")


def _ml_values():
    dev = max(
        abs(mittag_leffler(1.0, 1.0) - math.e),
        abs(mittag_leffler(2.0, 1.0) - math.cosh(1.0)),
        abs(mittag_leffler(0.5, 0.0) - 1.0),
        abs(mittag_leffler(3.7, 0.0) - 1.0),
    )
    return _check("mittag_leffler_values", dev, 1e-14,
                  "exponential/cosh reductions and E_a(0) = 1")


def _ml_branch():
    worst = 0.0
    for a in (0.5, 1.5, 2.5, 3.5):
        for root in (25.0, 30.0, 35.0):
            x = root ** a
            s = _series_log_ml(a, x)
            y = _asymptotic_log_ml(a, x)
            worst = max(worst, abs(s - y) / abs(s))
    return _check("mittag_leffler_branch_consistency", worst, 1e-8,
                  "series vs asymptotic log-values on the handover band")


def _growth_rate():
    worst = 0.0
    for a in (0.5, 1.5, 2.5, 3.5):
        for c in (1.0, 2.0):
            dev = abs(at_growth(a, c, 50.0) - c)
            allowed = abs(math.log(a)) / 50.0 + 1e-3
            worst = max(worst, dev - allowed)
    return _check("growth_rate_deviation", max(worst, 0.0), 0.0,
                  "at_growth within |log a|/t of c at t = 50")


def j1_quadrature(t: float) -> float:
    """J_1(t) of the heat equation with Riesz d=1 alpha=1/2 noise by
    nested quadrature, independent of the chaos module's closed forms.
    Panels have fixed widths, 1/2 in u and 2 in v: a rule scaled to t
    and the cutoff would obey the t^(3/4) law exactly, not test it."""
    c = riesz_constant(1, 0.5)

    def inner(s):
        # substitute xi = v^2 to absorb the |xi|^(-1/2) endpoint;
        # the cutoff tracks the 1/s^(1/4) spread of the integrand
        v_max = (36.0 / s) ** 0.25
        return 4.0 * _gauss_legendre(lambda v: np.exp(-s * v ** 4), 0.0,
                                     v_max, math.ceil(v_max / 2.0))

    # s = u^4 absorbs the s^(-1/4) endpoint of the outer integral
    outer = np.vectorize(lambda u: 4.0 * u ** 3 * inner(u ** 4))
    u_max = t ** 0.25
    return c * _gauss_legendre(outer, 0.0, u_max, math.ceil(u_max / 0.5))


def _scaling_law():
    base = j1_quadrature(1.0)
    worst = max(abs(j1_quadrature(t) / (t ** 0.75 * base) - 1.0)
                for t in (0.5, 2.0, 4.0))
    return _check("chaos_time_scaling", worst, 1e-6,
                  "J_1(t) = t^(3/4) J_1(1) by deterministic quadrature")


def _beta0(rng):
    worst = 0.0
    for _ in range(30):
        cc = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
        p = float(rng.uniform(0.0, 4.0))
        closed = beta0_power_law(cc, p)
        root = beta0_solve(lambda b: cc * b ** (-p),
                           (closed / 8.0, closed * 8.0))
        worst = max(worst, abs(root - closed) / closed)
    return _check("fixed_point_bisection", worst, 1e-10,
                  "bisection vs closed form on random power laws")


def _functional_identities(rng):
    worst = 0.0
    for _ in range(50):
        a = float(rng.uniform(0.05, 1.95))
        r = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e2))))
        fv = functionals_from_rho(a, r)
        d1 = abs(fv.e - 2.0 ** (-a / (a - 2.0)) * fv.e_a1) / fv.e
        d2 = abs(fv.e2 - 2.0 ** (-a / (2.0 - a)) * fv.e) / fv.e2
        worst = max(worst, d1, d2)
    return _check("functional_power_laws", worst, 1e-12,
                  "half-coupling and doubled-variable conversion factors")


def _mc_reproducibility(seed, threads):
    q = ChaosQuery(EquationKind("heat"), KernelSpec("riesz", d=1, alpha=0.5), 2)
    a = jn_exp_time_mc(q, 30_000, seed, threads=threads)
    b = jn_exp_time_mc(q, 30_000, seed, threads=threads)
    dev = 0.0 if (a.mean == b.mean and a.std_error == b.std_error) else 1.0
    return _check("mc_bitwise_reproducibility", dev, 0.0,
                  "identical seeds reproduce the estimate bit for bit")


def _white_moments(seed, threads):
    worst = 0.0
    for n in (1, 2, 3):
        q = ChaosQuery(EquationKind("heat"), KernelSpec("white"), n)
        est = jn_exp_time_mc(q, 100_000, seed, threads=threads)
        ref = exact_moment(q)
        slack = 3.0 * est.std_error + 16.0 * np.finfo(float).eps * ref
        worst = max(worst, abs(est.mean - ref) - slack)
    return _check("white_noise_chaos_moments", max(worst, 0.0), 0.0,
                  "flat-kernel moments against 2^-n, three orders")


def _flat_control():
    est = rho_eigen(1, 1.0, profile="flat", R=50.0, m=2048, refine_tol=1.0)
    ref = math.atan(50.0) / math.pi
    dev = abs(est.value - ref)
    return _check("eigensolver_flat_control", dev, 1e-9,
                  "rank-one control against its truncated closed form")


def run_verification(seed: int = 0, threads: int = 1) -> dict:
    """Run the whole invariant suite; returns a serializable report."""
    rng = np.random.Generator(np.random.Philox(key=derive_seed(seed, "verify")))
    checks = [
        _white_exact(),
        _remark_identity(rng),
        _wave_heat_link(rng),
        _laplace_quadrature(rng),
        _ml_values(),
        _ml_branch(),
        _growth_rate(),
        _scaling_law(),
        _beta0(rng),
        _functional_identities(rng),
        _mc_reproducibility(seed, threads),
        _white_moments(seed, threads),
        _flat_control(),
    ]
    return {
        "seed": seed,
        "threads": threads,
        "checks": checks,
        "passed": sum(1 for c in checks if c["passed"]),
        "failed": sum(1 for c in checks if not c["passed"]),
        "all_passed": all(c["passed"] for c in checks),
    }
