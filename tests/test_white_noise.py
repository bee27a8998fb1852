"""White noise off the classical Laplacian: the closed forms, the
eigensolver and the Monte Carlo agree at every dispersion power.

White noise is the alpha_eff = 1 case of the general closed forms: its
operator is rank one, so rho = T_1 = integral of dxi / (2 pi (1 +
|xi|^beta_l)), and its chaos factors decouple, so T_n = T_1^n.  beta_l =
2 is the control, where T_1 = 1/2.
"""

import json
import math

import pytest
from scipy.integrate import quad

from andersonlyap import mc
from andersonlyap.asymptotics import _wave_log2_factor, scaling_exponent
from andersonlyap.chaos import ChaosQuery, exact_moment
from andersonlyap.cli import EXIT_PARAMETER, main
from andersonlyap.spectral import (EquationKind, KernelSpec, _radial_tail,
                                   t1_exact)
from andersonlyap.variational import rho_eigen

WHITE = KernelSpec("white")
BETAS = [1.6, 1.8, 2.0]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def density(beta_l):
    return lambda xi: 1.0 / (2.0 * math.pi * (1.0 + xi ** beta_l))


def t1_quad(beta_l):
    """T_1 by quadrature, both half-lines folded onto xi > 0."""
    f = density(beta_l)
    return 2.0 * (quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
                  + quad(f, 1.0, math.inf, epsabs=0.0, epsrel=1e-13)[0])


@pytest.mark.parametrize("beta_l", BETAS)
def test_t1_matches_quadrature(beta_l):
    assert t1_exact(WHITE, beta_l) == pytest.approx(t1_quad(beta_l),
                                                    rel=0.0, abs=1e-10)


def test_t1_is_one_half_at_the_laplacian():
    assert t1_exact(WHITE) == 0.5


@pytest.mark.parametrize("beta_l", BETAS)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_exact_moment_is_a_power_of_t1(beta_l, n):
    t1 = t1_exact(WHITE, beta_l)
    heat = exact_moment(ChaosQuery(EquationKind("heat", beta_l), WHITE, n))
    wave = exact_moment(ChaosQuery(EquationKind("wave", beta_l), WHITE, n))
    assert heat == pytest.approx(t1 ** n, rel=1e-14)
    factor = 2.0 ** (n * _wave_log2_factor(1.0, beta_l))
    assert wave == pytest.approx(t1 ** n * factor, rel=1e-14)


@pytest.mark.parametrize("beta_l", BETAS)
@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_lyapunov_reads_rho_from_t1(capsys, beta_l, kind):
    code, out, _ = run_cli(capsys, "lyapunov", "--family", "white", "--eq",
                           kind, "--beta-l", str(beta_l), "--format", "json")
    assert code == 0
    data = json.loads(out)
    t1 = t1_exact(WHITE, beta_l)
    assert data["rho"] == t1
    eq = EquationKind(kind, beta_l)
    a = scaling_exponent(eq, 1.0)
    base = t1 * 2.0 ** _wave_log2_factor(1.0, beta_l) if eq.is_wave else t1
    assert data["lambda2"] == pytest.approx(base ** (1.0 / a), rel=1e-12)


def test_rho_truncation_bound_is_the_exact_deficit(capsys):
    beta_l, R = 1.5, 50.0
    code, out, _ = run_cli(capsys, "rho", "--family", "white", "--beta-l",
                           str(beta_l), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["grid_radius"] == R
    f = density(beta_l)
    deficit = 2.0 * quad(f, R, math.inf, epsabs=0.0, epsrel=1e-13)[0]
    params = data["params"]
    assert params["truncation_bound"] == pytest.approx(deficit, rel=0.0,
                                                       abs=1e-10)
    value, t1 = data["value"], t1_exact(WHITE, beta_l)
    assert abs(value + params["truncation_bound"] - t1) <= \
        params["richardson_gap"] * value + 1e-6


def test_monte_carlo_meets_the_closed_form(capsys):
    code, out, _ = run_cli(capsys, "chaos", "--family", "white", "--eq",
                           "heat", "--beta-l", "1.8", "--n", "2", "--samples",
                           "400000", "--seed", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    t1 = t1_exact(WHITE, 1.8)
    for row in rows:
        assert row["oracle"] == pytest.approx(t1 ** row["n"], rel=1e-14)
        assert abs(row["z"]) < 3.0, row


@pytest.mark.parametrize("n", ["0", "2"])
def test_infinite_variance_rows_are_refused(capsys, n):
    # Cauchy draws against 1/(1 + |eta|^beta_l) have E[w^2] infinite for
    # beta_l <= 3/2; the order-0 shortcut obeys the rule too
    code, out, err = run_cli(capsys, "chaos", "--family", "white", "--eq",
                             "heat", "--beta-l", "1.5", "--n", n,
                             "--samples", "1000")
    assert (code, out) == (EXIT_PARAMETER, "")
    assert "beta_l" in err
    code, out, _ = run_cli(capsys, "chaos", "--family", "white", "--eq",
                           "heat", "--beta-l", "1.6", "--n", n,
                           "--samples", "1000")
    assert code == 0 and out


def test_fixed_time_infinite_variance_row_is_refused(capsys):
    code, out, err = run_cli(capsys, "chaos", "--family", "white", "--eq",
                             "wave", "--beta-l", "1.4", "--t", "1", "--n",
                             "1", "--samples", "1000")
    assert (code, out) == (EXIT_PARAMETER, "")
    assert "beta_l" in err


def test_overflowing_closed_form_exits_2_unsampled(capsys, monkeypatch):
    # T_1(1.2) = 5/3 > 1, so T_1^2000 is past the top of the double range
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking every oracle")

    monkeypatch.setattr(mc, "run_chunked", no_draws)
    code, out, err = run_cli(capsys, "chaos", "--family", "white", "--eq",
                             "heat", "--beta-l", "1.2", "--n", "2000",
                             "--samples", "10")
    assert (code, out) == (EXIT_PARAMETER, "")
    # log T_1^n first passes log(max) = 709.78 at n = 1390
    assert "at n=1390" in err and "beyond the double range" in err
    assert "Traceback" not in err


def test_wave_moment_in_range_past_an_overflowing_t1_power():
    # at beta_l = 1.2 T_1^1500 overflows and the wave factor 2^(-1000)
    # underflows, yet their product is e^73: neither is taken alone
    eq = EquationKind("wave", 1.2)
    n = 1500
    t1 = t1_exact(WHITE, 1.2)
    log_expect = n * (math.log(t1) + _wave_log2_factor(1.0, 1.2) * math.log(2))
    assert math.log(exact_moment(ChaosQuery(eq, WHITE, n))) == \
        pytest.approx(log_expect, rel=1e-12)


@pytest.mark.parametrize("a, b, R", [(1.0, 1.6, 1e-8), (1.0, 2.0, 0.3),
                                     (0.5, 1.2, 0.999), (1.5, 2.0, 0.01)])
def test_radial_tail_inside_the_unit_radius(a, b, R):
    # below R = 1 the tail is the mass less the head's series, whose
    # terms fall by R^b / (1 + R^b) < 1/2 however small R is
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        tail = float(mp.quad(lambda y: mp.exp(a * y) / (1 + mp.exp(b * y)),
                             [mp.log(R), 0, mp.inf]))
    assert _radial_tail(a, b, R) == pytest.approx(tail, rel=1e-12)


def test_flat_control_inside_the_unit_radius():
    est = rho_eigen(1, 1.0, 1.7, R=0.5, profile="flat")
    deficit = 2.0 * quad(density(1.7), 0.5, math.inf, epsabs=0.0,
                         epsrel=1e-13)[0]
    assert est.params["truncation_bound"] == pytest.approx(deficit, rel=1e-12)
    # the midpoint rule's own error is about 2e-10 here
    assert est.value + est.params["truncation_bound"] == pytest.approx(
        t1_exact(WHITE, 1.7), rel=1e-9)
