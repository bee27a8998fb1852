"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  The tolerances are pinned here, not configured elsewhere; the
Monte-Carlo criteria use fixed seeds so the whole gate is reproducible
bit for bit.
"""

import json
import math
import time

import numpy as np
from scipy.integrate import quad

from andersonlyap.asymptotics import at_growth, lambda2_closed_form, \
    mittag_leffler, remark14_residual, wave_heat_factor
from andersonlyap.brownian import tn_bm_oracle
from andersonlyap.chaos import ChaosQuery, jn_exp_time_mc, log_rate_tn
from andersonlyap.cli import main
from andersonlyap.propagators import fourier_green_sq, laplace_green_sq
from andersonlyap.reporting import json_render
from andersonlyap.spectral import EquationKind, KernelSpec
from andersonlyap.variational import rho_eigen
from andersonlyap.verify import j1_quadrature, run_verification

WAVE = EquationKind("wave")
HEAT = EquationKind("heat")
WHITE = KernelSpec("white")
RIESZ = KernelSpec("riesz", d=1, alpha=0.5)
SQRT_PI = 1.77245385090551602729816748334

# Finite-order offset of the moment-rate sequence: (1/n) log T_n sits
# above log rho by roughly 0.28/n (measured over n = 2..6 for d = 1,
# alpha = 1/2), i.e. 0.070 +/- 0.003 at n = 4.  The allowance below
# covers that offset; the Monte-Carlo 3 sigma rides on top.
LOG_TREND_ALLOWANCE = 0.08


def report(num, passed, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {detail}")
    return passed


def elapsed_guard(num, t0, limit):
    dt = time.monotonic() - t0
    print(f"[criterion {num:2d}] runtime {dt:.1f}s (limit {limit:.0f}s)")
    return dt < limit


def test_criterion_1_white_noise_exact_exponents(capsys):
    t0 = time.monotonic()
    wave = lambda2_closed_form(WAVE, WHITE)
    heat = lambda2_closed_form(HEAT, WHITE)
    dev = max(
        abs(wave.lambda2_thm2 - 1.0 / math.sqrt(2.0)),
        abs(heat.lambda2_thm2 - 0.25),
    )
    ok = dev < 1e-12
    with capsys.disabled():
        ok &= elapsed_guard(1, t0, 1.0)
        assert report(
            1, ok, f"white-noise exponents 1/sqrt2 and 1/4, dev {dev:.2e}"
        )


def test_criterion_2_white_noise_chaos_moments(capsys):
    t0 = time.monotonic()
    worst_z = 0.0
    worst_rel = 0.0
    for n in (1, 2, 3, 4):
        est = jn_exp_time_mc(ChaosQuery(HEAT, WHITE, n), 1_000_000, 20260)
        ref = 0.5 ** n
        # a perfectly matched proposal leaves only rounding; allow the
        # float-noise floor on top of the statistical band
        slack = 3.0 * est.std_error + 16.0 * np.finfo(float).eps * ref
        worst_z = max(worst_z, abs(est.mean - ref) / max(slack, 1e-300))
        worst_rel = max(worst_rel, est.std_error / est.mean)
    ok = worst_z <= 1.0 and worst_rel < 0.02
    with capsys.disabled():
        ok &= elapsed_guard(2, t0, 60.0)
        assert report(
            2, ok,
            f"heat moments vs 2^-n at 1e6 samples, n <= 4; "
            f"max |dev|/band {worst_z:.3f}, max rel se {worst_rel:.2e}",
        )


def test_criterion_3_wave_heat_link(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for n in (1, 2):
        w = jn_exp_time_mc(ChaosQuery(WAVE, RIESZ, n), 1_000_000, 777)
        h = jn_exp_time_mc(ChaosQuery(HEAT, RIESZ, n), 1_000_000, 778)
        ratio = w.mean / h.mean
        sigma = ratio * math.sqrt(
            (w.error_bound() / w.mean) ** 2 + (h.error_bound() / h.mean) ** 2
        ) + 1e-12
        z = abs(ratio - wave_heat_factor(n, 0.5)) / (3.0 * sigma)
        worst = max(worst, z)
    ok = worst <= 1.0
    with capsys.disabled():
        ok &= elapsed_guard(3, t0, 120.0)
        assert report(
            3, ok,
            f"E[J_n^w]/E[J_n^h] vs 2^(n/2), n in {{1,2}}; "
            f"max |dev|/3sigma {worst:.3f}",
        )


def test_criterion_4_oracle_equivalence(capsys):
    t0 = time.monotonic()
    bm = tn_bm_oracle(1, 0.5, 1, 20_000, 2e-3, 99)
    fr = jn_exp_time_mc(ChaosQuery(HEAT, RIESZ, 1), 1_000_000, 99)
    pairs = [
        ("path vs spectral", bm.mean - fr.mean,
         math.hypot(bm.error_bound(), fr.error_bound())),
        ("path vs quadrature", bm.mean - SQRT_PI, bm.error_bound()),
        ("spectral vs quadrature", fr.mean - SQRT_PI, fr.error_bound()),
    ]
    worst = max(abs(d) / (3.0 * s) for _, d, s in pairs)
    ok = worst <= 1.0
    with capsys.disabled():
        ok &= elapsed_guard(4, t0, 120.0)
        assert report(
            4, ok,
            f"T_1 three ways (sqrt(pi) = {SQRT_PI:.5f}); "
            f"max |dev|/3sigma {worst:.3f}",
        )


def test_criterion_5_time_scaling_law(capsys):
    t0 = time.monotonic()
    base = j1_quadrature(1.0)
    worst = max(
        abs(j1_quadrature(t) - t ** 0.75 * base) / (t ** 0.75 * base)
        for t in (0.5, 2.0, 4.0)
    )
    ok = worst < 1e-6
    with capsys.disabled():
        ok &= elapsed_guard(5, t0, 1.0)
        assert report(
            5, ok, f"J_1(t) = t^(3/4) J_1(1) by quadrature, worst {worst:.2e}"
        )


def test_criterion_6_laplace_identities(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    worst_quad = 0.0
    for _ in range(12):
        beta = float(rng.uniform(0.3, 3.0))
        r = float(rng.uniform(0.05, 5.0))
        eq = WAVE if rng.random() < 0.5 else HEAT
        val = quad(
            lambda t: math.exp(-beta * t) * fourier_green_sq(eq, t, r),
            0.0,
            50.0 / beta,
            limit=800,
        )[0]
        ref = laplace_green_sq(eq, beta, r)
        worst_quad = max(worst_quad, abs(val - ref) / ref)
    ok = worst_quad < 1e-6
    with capsys.disabled():
        ok &= elapsed_guard(6, t0, 1.0)
        assert report(
            6, ok, f"transform quadrature worst rel {worst_quad:.2e}")


def test_criterion_7_variational_solver(capsys):
    t0 = time.monotonic()
    # (a) rank-one control: the slow 1/R truncation tail demands the
    # FFT-sized grid
    flat = rho_eigen(1, 1.0, profile="flat", R=6e5, m=1 << 21,
                     refine_tol=1.0)
    dev_flat = abs(flat.value - 0.5)
    # (b) refinement stability
    a = rho_eigen(1, 0.5, R=50.0, m=4096, refine_tol=1.0)
    b = rho_eigen(1, 0.5, R=100.0, m=8192, refine_tol=1.0)
    stability = abs(a.value - b.value) / b.value
    # (c) consistency with the moment-rate trend at n = 4
    rows = log_rate_tn(1, 0.5, 4, 400_000, 2024)
    n4, rate4, se4, _ = rows[-1]
    assert n4 == 4
    gap = rate4 - math.log(b.value)
    ok = (
        dev_flat < 1e-6
        and stability < 0.01
        and 0.0 < gap < 3.0 * se4 + LOG_TREND_ALLOWANCE
    )
    with capsys.disabled():
        ok &= elapsed_guard(7, t0, 300.0)
        assert report(
            7, ok,
            f"flat control dev {dev_flat:.2e}; (m,R)-stability "
            f"{stability:.2e}; trend gap {gap:.4f} "
            f"(allowance {LOG_TREND_ALLOWANCE} + 3se {3 * se4:.4f})",
        )


def test_criterion_8_exponent_identity(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(808)
    worst_resid = max(
        abs(remark14_residual(float(rng.uniform(0.02, 1.98)),
                              float(np.exp(rng.uniform(math.log(1e-3),
                                                       math.log(1e3))))))
        for _ in range(100)
    )
    worst_gap = 0.0
    for alpha in (0.3, 0.5, 0.8, 1.2, 1.7):
        d = 1 if alpha < 1.0 else 2
        for rho in (0.2, 0.7, 1.45, 3.0):
            rep = lambda2_closed_form(WAVE, KernelSpec("riesz", d=d,
                                                       alpha=alpha), rho=rho)
            worst_gap = max(worst_gap, rep.consistency_gap)
    ok = worst_resid < 1e-10 and worst_gap < 1e-10
    with capsys.disabled():
        ok &= elapsed_guard(8, t0, 1.0)
        assert report(
            8, ok,
            f"identity residual worst {worst_resid:.2e}; "
            f"route agreement worst {worst_gap:.2e}",
        )


def test_criterion_9_mittag_leffler_growth(capsys):
    t0 = time.monotonic()
    dev_values = max(
        abs(mittag_leffler(1.0, 1.0) - math.e),
        max(abs(mittag_leffler(a, 0.0) - 1.0) for a in (0.5, 1.5, 2.5, 3.5)),
    )
    rows = []
    for a in (0.5, 1.5, 2.5, 3.5):
        for c in (1.0, 2.0):
            dev = abs(at_growth(a, c, 50.0) - c)
            rows.append((a, c, dev))
    worst_a, worst_c, worst = max(rows, key=lambda r: r[2])
    ok = dev_values < 1e-14 and worst < 0.02
    with capsys.disabled():
        ok &= elapsed_guard(9, t0, 1.0)
        passed = report(
            9, ok,
            f"point values dev {dev_values:.1e}; growth worst dev {worst:.5f}"
            f" at (a={worst_a}, c={worst_c}) against gate 0.02 "
            f"(analytic deviation is |log a|/t = {abs(math.log(worst_a)) / 50.0:.5f})",
        )
        assert passed, (
            "the finite-t growth deviation of the rate estimator is "
            "|log a|/t exactly; at a = 3.5, t = 50 that is 0.02506, above "
            "the 0.02 gate, so this sub-case cannot pass as stated"
        )


def test_criterion_10_verify_determinism(capsys):
    t0 = time.monotonic()
    r1 = json_render(run_verification(seed=11, threads=2))
    r2 = json_render(run_verification(seed=11, threads=2))
    ok = (r1 == r2) and json.loads(r1)["all_passed"]
    code = main(["verify", "--seed", "11", "--format", "json",
                 "--out", "/tmp/andersonlyap_verify_a.json"])
    code |= main(["verify", "--seed", "11", "--format", "json",
                  "--out", "/tmp/andersonlyap_verify_b.json"])
    with open("/tmp/andersonlyap_verify_a.json", "rb") as fh:
        b1 = fh.read()
    with open("/tmp/andersonlyap_verify_b.json", "rb") as fh:
        b2 = fh.read()
    ok = ok and code == 0 and b1 == b2
    with capsys.disabled():
        ok &= elapsed_guard(10, t0, 120.0)
        assert report(
            10, ok,
            "two verify runs with one seed/thread count are byte-identical",
        )
