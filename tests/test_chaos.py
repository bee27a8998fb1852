"""Chaos moments: quadrature oracles, Monte-Carlo law checks, scaling."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as spgamma
from scipy.stats import chi2

from andersonlyap.chaos import (
    R_CAP,
    ChaosQuery,
    _radial_mass,
    _radial_tail,
    _SpatialSampler,
    exact_moment,
    jn_exp_time_mc,
    jn_fixed_time,
    log_rate_tn,
    scaling_exponent,
    t1_exact,
    wave_heat_factor,
)
from andersonlyap.errors import ParameterError
from andersonlyap.propagators import EquationKind, laplace_green_sq
from andersonlyap.spectral import KernelSpec, riesz_constant
from andersonlyap.verify import _laplace_by_quadrature, j1_quadrature

WAVE = EquationKind("wave")
HEAT = EquationKind("heat")
WHITE = KernelSpec("white")
RIESZ = KernelSpec("riesz", d=1, alpha=0.5)

SQRT_PI = 1.77245385090551602729816748334
J1_AT_1 = 1.92854544617610285671426859979  # C * Gamma(1/4) * 4/3
T2_QUAD = 2.733946  # frozen 2-D quadrature value, +/- 3e-7


# ----------------------------------------------------------------------
# independent quadrature oracles (kept apart from the library's closed
# forms on purpose; J_1(t) comes from verify.j1_quadrature)
# ----------------------------------------------------------------------

def t1_oracle_quad() -> float:
    """T_1 = C * integral |xi|^(-1/2) / (1 + xi^2) dxi via xi = v^2."""
    c = riesz_constant(1, 0.5)
    val = quad(lambda v: 4.0 / (1.0 + v ** 4), 0.0, 2000.0, limit=400)[0]
    return c * val


def within(est, ref, sigmas=3.0):
    return abs(est.mean - ref) <= sigmas * est.error_bound() + 1e-13 * abs(ref)


class TestClosedForms:
    def test_t1_exact_matches_quadrature(self):
        assert t1_exact(RIESZ) == pytest.approx(SQRT_PI, rel=1e-13)
        assert t1_exact(RIESZ) == pytest.approx(t1_oracle_quad(), rel=1e-8)

    def test_t1_white(self):
        assert t1_exact(WHITE) == pytest.approx(0.5, rel=1e-14)

    def test_j1_exact_moment(self):
        j1 = exact_moment(ChaosQuery(HEAT, RIESZ, 1, t=1.0))
        assert j1 == pytest.approx(J1_AT_1, rel=1e-13)
        assert j1 == pytest.approx(j1_quadrature(1.0), rel=1e-10)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
    def test_j1_quadrature_closed_form(self, t):
        # the composite Gauss-Legendre rule behind verify's scaling check
        assert j1_quadrature(t) == pytest.approx(J1_AT_1 * t ** 0.75,
                                                 rel=1e-10)

    @pytest.mark.parametrize("eq", [WAVE, HEAT], ids=["wave", "heat"])
    @pytest.mark.parametrize("beta, r", [(0.3, 0.0), (0.3, 5.0), (3.0, 0.0),
                                         (3.0, 5.0)])
    def test_laplace_quadrature_closed_form(self, eq, beta, r):
        # verify's time quadrature of the squared propagator, at the
        # corners of the range its Laplace check draws from
        assert _laplace_by_quadrature(eq, beta, r) == pytest.approx(
            laplace_green_sq(eq, beta, r), rel=1e-12)

    def test_exact_moment_cases(self):
        assert exact_moment(ChaosQuery(WAVE, RIESZ, 0, t=2.0)) == 1.0
        assert exact_moment(ChaosQuery(HEAT, RIESZ, 1)) == t1_exact(RIESZ)
        assert exact_moment(ChaosQuery(WAVE, WHITE, 3)) == 0.5 ** 3
        assert exact_moment(ChaosQuery(WAVE, RIESZ, 2)) is None
        assert exact_moment(ChaosQuery(HEAT, RIESZ, 2, t=1.0)) is None
        # J_n(1) = 2^-n / Gamma(n/2 + 1) for the flat heat kernel
        assert exact_moment(ChaosQuery(HEAT, WHITE, 3, t=1.0)) == \
            pytest.approx(0.125 / spgamma(2.5), rel=1e-14)

    def test_exact_moment_log_space(self):
        # white wave: a = 2, so Gamma(2n + 1) overflows from n = 86 on
        direct = exact_moment(ChaosQuery(WAVE, WHITE, 85, t=10.0))
        assert direct == 10.0 ** 170 * 0.5 ** 85 / math.gamma(171.0)
        value = exact_moment(ChaosQuery(WAVE, WHITE, 90, t=10.0))
        log_ref = 180 * math.log(10.0) + 90 * math.log(0.5) - math.lgamma(181)
        assert value == pytest.approx(math.exp(log_ref), rel=1e-13)
        assert 0.0 < value < 1e-100
        with pytest.raises(ParameterError, match=r"n=6, t=1e\+30"):
            exact_moment(ChaosQuery(WAVE, WHITE, 6, t=1e30))

    def test_scaling_exponent_values(self):
        assert scaling_exponent(WAVE, 0.5) == pytest.approx(2.5)
        assert scaling_exponent(HEAT, 1.0) == pytest.approx(0.5)
        assert scaling_exponent(WAVE, 1.0) == pytest.approx(2.0)
        assert scaling_exponent(EquationKind("wave", 1.5), 0.5) == \
            pytest.approx(3.0 - 1.0 / 1.5)

    def test_wave_heat_factor(self):
        assert wave_heat_factor(1, 1.0) == 1.0
        assert wave_heat_factor(2, 0.5) == pytest.approx(2.0)


class TestRadialMass:
    """The closed form behind t1_exact and the proposal normalizers,
    against mpmath quadrature in y = log r, where the integrand
    r^a / (1 + r^b) decays exponentially at both ends."""

    @pytest.mark.parametrize("a, b, R", [
        (0.5, 2.0, 50.0), (0.9, 2.0, 800.0), (1.5, 2.0, 50.0),
        (0.3, 1.5, 60.0), (1.2, 2.0, 5.0), (1.0, 2.0, 800.0),
        (0.5, 0.6, 208.0), (1e-7, 2e-7, 50.0),
    ])
    def test_matches_mpmath(self, a, b, R):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            def f(y):
                return mp.exp(a * y) / (1 + mp.exp(b * y))
            full = float(mp.quad(f, [-mp.inf, 0, mp.inf]))
            tail = float(mp.quad(f, [mp.log(R), mp.inf]))
        assert _radial_mass(a, b) == pytest.approx(full, rel=1e-12)
        assert _radial_tail(a, b, R) == pytest.approx(tail, rel=1e-12)

    def test_radius_rule_near_alpha_two(self):
        # the tail rule's power overflows the double range here
        sampler = _SpatialSampler(KernelSpec("riesz", d=3, alpha=1.99), 1, 2.0)
        assert sampler.R == R_CAP

    def test_proposal_mass_cancels_at_two(self):
        # the normalizer, mass less tail, rounds to <= 0 this close to 2
        with pytest.raises(ParameterError, match="too close to 2"):
            _SpatialSampler(KernelSpec("riesz", d=2, alpha=2 - 1e-15), 1, 2.0)

    @pytest.mark.parametrize("d, alpha", [(3, 1.5), (3, 1.9), (2, 1.9)])
    def test_heat_order_one_one_tail_low(self, d, alpha):
        # constant weights: the mean is the truncated integral, exactly
        # one tail below t1_exact, so the bias bound is met with z = -1
        kernel = KernelSpec("riesz", d=d, alpha=alpha)
        est = jn_exp_time_mc(ChaosQuery(HEAT, kernel, 1), 20_000, 0)
        assert abs(est.z_score(t1_exact(kernel))) <= 1.0 + 1e-9


def _proposal_cdf(alpha, R, x):
    """P(r <= x) for the radial density r^(alpha-1) / (1 + r^2) on (0, R]:
    the series sum_k (-1)^k x^(alpha+2k) / (alpha+2k) on (0, 1), the
    mass less the tail beyond x above 1."""
    z = _radial_mass(alpha, 2.0) - _radial_tail(alpha, 2.0, R)
    if x > 1.0:
        return (_radial_mass(alpha, 2.0) - _radial_tail(alpha, 2.0, x)) / z
    k = np.arange(4000)
    return float(np.sum((-1.0) ** k * x ** (alpha + 2 * k) / (alpha + 2 * k))) / z


# (d, alpha, n): the order sets the truncation radius; R_CAP binds at all
# but the first
PROPOSAL_CASES = [(1, 0.5, 1), (1, 0.5, 8), (2, 0.8, 4), (3, 1.5, 1)]


class TestProposal:
    """The Riesz increments' radial law and its rejection rate."""

    @pytest.mark.parametrize("d, alpha, n", PROPOSAL_CASES)
    def test_radii_follow_the_law(self, d, alpha, n):
        sampler = _SpatialSampler(KernelSpec("riesz", d=d, alpha=alpha), n, 2.0)
        assert (sampler.R < R_CAP) == (n == 1 and alpha == 0.5)
        count = 200_000
        r = sampler._radii(np.random.Generator(np.random.Philox(2024)), count)
        assert r.shape == (count,) and r.min() >= 0.0 and r.max() <= sampler.R
        edges = [0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 1.05, 1.5, 2.0, 3.0, 5.0,
                 10.0, 30.0, 100.0]
        cdf = np.array([0.0] + [_proposal_cdf(alpha, sampler.R, x)
                                for x in edges] + [1.0])
        expected = count * np.diff(cdf)
        observed = np.diff(np.searchsorted(np.sort(r), edges, side="right"),
                           prepend=0, append=count)
        stat = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2.sf(stat, len(expected) - 1) > 1e-3

    @pytest.mark.parametrize("d, alpha, n", PROPOSAL_CASES)
    def test_accept_rate_is_the_accepted_share(self, d, alpha, n):
        sampler = _SpatialSampler(KernelSpec("riesz", d=d, alpha=alpha), n, 2.0)
        p, k = sampler.accept_rate, 200_000
        assert 0.5 < p < 1.0
        rng = np.random.Generator(np.random.Philox(2024))
        share = sampler._envelope_round(rng, k).size / k
        assert abs(share - p) <= 4.0 * math.sqrt(p * (1.0 - p) / k)

    def test_accept_rate_reported(self):
        est = jn_exp_time_mc(ChaosQuery(HEAT, RIESZ, 2), 1000, 0)
        sampler = _SpatialSampler(RIESZ, 2, 2.0, prefer_untruncated=True)
        assert est.params["accept_rate"] == sampler.accept_rate
        # white noise draws its proposal directly
        for est in (jn_exp_time_mc(ChaosQuery(HEAT, WHITE, 2), 1000, 0),
                    jn_fixed_time(ChaosQuery(WAVE, WHITE, 2, 1.0), 1000, 0),
                    jn_exp_time_mc(ChaosQuery(HEAT, RIESZ, 0), 10, 0)):
            assert est.params["accept_rate"] is None


class TestScalingLaw:
    def test_quadrature_scaling(self):
        base = j1_quadrature(1.0)
        a = scaling_exponent(HEAT, 0.5)
        assert a == pytest.approx(0.75)
        for t in (0.5, 2.0, 4.0):
            assert j1_quadrature(t) == pytest.approx(t ** a * base, rel=1e-6)

    def test_laplace_identity_order_one(self):
        # Gamma(a+1) beta^-(a+1) J_1(1) equals (1/beta) x the spectral
        # integral of the rate-beta transform, both by quadrature
        a = 0.75
        c = riesz_constant(1, 0.5)
        j1 = j1_quadrature(1.0)
        for beta in (0.5, 1.0, 2.0):
            lhs = spgamma(a + 1.0) * beta ** (-(a + 1.0)) * j1
            rhs = quad(
                lambda v: 4.0 * c / (beta + v ** 4), 0.0, 300.0, limit=400
            )[0] / beta
            assert lhs == pytest.approx(rhs, rel=1e-6)


class TestExpTimeMC:
    def test_white_heat_exact(self):
        for n in (1, 2, 3, 4):
            est = jn_exp_time_mc(ChaosQuery(HEAT, WHITE, n), 50_000, 11)
            assert est.std_error <= 1e-16
            assert est.mean == pytest.approx(0.5 ** n, abs=1e-12)

    def test_white_wave_order_one(self):
        est = jn_exp_time_mc(ChaosQuery(WAVE, WHITE, 1), 200_000, 11)
        assert within(est, 0.5)

    def test_riesz_heat_order_one(self):
        est = jn_exp_time_mc(ChaosQuery(HEAT, RIESZ, 1), 100_000, 11)
        assert est.std_error <= 1e-16  # proposal matches the integrand
        assert within(est, SQRT_PI)

    def test_riesz_heat_order_two(self):
        est = jn_exp_time_mc(ChaosQuery(HEAT, RIESZ, 2), 400_000, 11)
        assert within(est, T2_QUAD)

    @pytest.mark.parametrize("n", [1, 2])
    def test_wave_heat_ratio(self, n):
        w = jn_exp_time_mc(ChaosQuery(WAVE, RIESZ, n), 400_000, 21)
        h = jn_exp_time_mc(ChaosQuery(HEAT, RIESZ, n), 400_000, 22)
        ratio = w.mean / h.mean
        sigma = ratio * math.sqrt(
            (w.error_bound() / w.mean) ** 2 + (h.error_bound() / h.mean) ** 2
        )
        assert abs(ratio - wave_heat_factor(n, 0.5)) <= 3.0 * sigma

    def test_fractional_dispersion_ratio(self):
        # the wave/heat ratio pins the 2^(1 - 2 alpha/beta_l) prefactor
        eq_w = EquationKind("wave", 1.5)
        eq_h = EquationKind("heat", 1.5)
        w = jn_exp_time_mc(ChaosQuery(eq_w, RIESZ, 1), 300_000, 31)
        h = jn_exp_time_mc(ChaosQuery(eq_h, RIESZ, 1), 300_000, 32)
        ratio = w.mean / h.mean
        sigma = ratio * math.sqrt(
            (w.error_bound() / w.mean) ** 2 + (h.error_bound() / h.mean) ** 2
        ) + 1e-12
        expect = wave_heat_factor(1, 0.5, 1.5)
        assert expect == pytest.approx(2.0 ** (1.0 - 2.0 * 0.5 / 1.5))
        assert abs(ratio - expect) <= 3.0 * sigma

    def test_order_zero_exact(self):
        est = jn_exp_time_mc(ChaosQuery(HEAT, RIESZ, 0), 10, 1)
        assert est.mean == 1.0 and est.std_error == 0.0

    @pytest.mark.parametrize("d, alpha", [(1, 0.5), (2, 0.8), (3, 1.5)])
    def test_determinism_and_threads(self, d, alpha):
        # d >= 2 runs the direction-scaling and norm path of the sampler
        q = ChaosQuery(HEAT, KernelSpec("riesz", d=d, alpha=alpha), 2)
        a = jn_exp_time_mc(q, 150_000, 5)
        b = jn_exp_time_mc(q, 150_000, 5)
        c = jn_exp_time_mc(q, 150_000, 5, threads=3)
        assert a.mean == b.mean == c.mean
        assert a.std_error == b.std_error == c.std_error

    def test_admissibility_guard(self):
        with pytest.raises(ParameterError):
            ChaosQuery(EquationKind("heat", 0.4), RIESZ, 1)

    def test_fractional_kernel_rejected(self):
        q = ChaosQuery(HEAT, KernelSpec("fractional", H=0.3), 1)
        with pytest.raises(ParameterError):
            jn_exp_time_mc(q, 1000, 0)

    def test_low_confidence_label(self):
        est = jn_exp_time_mc(ChaosQuery(HEAT, WHITE, 7), 2000, 0)
        assert "low-confidence" in est.target

    def test_zero_variance_label(self):
        est = jn_exp_time_mc(ChaosQuery(HEAT, WHITE, 1), 2000, 0)
        assert "zero-variance" in est.target


class TestFixedTimeMC:
    def test_order_zero(self):
        est = jn_fixed_time(ChaosQuery(HEAT, RIESZ, 0, t=3.0), 10, 1)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_riesz_j1_at_one(self):
        est = jn_fixed_time(ChaosQuery(HEAT, RIESZ, 1, t=1.0), 200_000, 13)
        assert within(est, J1_AT_1)

    def test_riesz_j1_time_scaling(self):
        est = jn_fixed_time(ChaosQuery(HEAT, RIESZ, 1, t=2.0), 200_000, 13)
        assert within(est, 2.0 ** 0.75 * J1_AT_1)

    def test_white_second_order(self):
        # J_n(1) = 2^-n / Gamma(n/2 + 1) for the flat kernel
        est = jn_fixed_time(ChaosQuery(HEAT, WHITE, 2, t=1.0), 200_000, 13)
        assert within(est, 0.25 / spgamma(2.0))

    def test_riesz_wave_j1_oracle(self):
        # the wave oracle comes from T_1 through the fixed-time identity;
        # the sin^2 weights are heavy-tailed, so this runs at 1e6 samples
        q = ChaosQuery(WAVE, RIESZ, 1, t=2.0)
        est = jn_fixed_time(q, 1_000_000, 13)
        assert within(est, exact_moment(q))

    def test_needs_time(self):
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                ChaosQuery(HEAT, RIESZ, 1, t=t)


class TestLogRateTn:
    def test_white_analog_exact_rate(self):
        rows = log_rate_tn(1, 1.0, 3, 100_000, 23)
        for n, val, se in rows:
            assert abs(val - math.log(0.5)) <= 3.0 * se + 1e-12

    def test_riesz_trend_decreasing(self):
        rows = log_rate_tn(1, 0.5, 4, 150_000, 23)
        vals = [v for _, v, _ in rows]
        assert vals[0] == pytest.approx(math.log(SQRT_PI), abs=1e-3)
        assert all(a > b for a, b in zip(vals, vals[1:]))
