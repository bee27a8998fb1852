"""Chaos moments: quadrature oracles, Monte-Carlo law checks, scaling."""

import math
import sys

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
    t1_exact,
)
from andersonlyap.asymptotics import scaling_exponent, wave_heat_factor
from andersonlyap.errors import ConvergenceError, ParameterError
from andersonlyap import mc
from andersonlyap.mc import chunk_generator
from andersonlyap.propagators import laplace_green_sq
from andersonlyap.spectral import EquationKind, KernelSpec, riesz_constant
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

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("alpha", [1e-16, 1e-300])
    def test_alpha_too_close_to_zero(self, d, alpha):
        # the inner piece's share rounds to 1
        with pytest.raises(ParameterError, match=f"alpha={alpha!r}"):
            _SpatialSampler(KernelSpec("riesz", d=d, alpha=alpha), 2, 2.0)

    def test_accept_rate_reported(self):
        est = jn_exp_time_mc(ChaosQuery(HEAT, RIESZ, 2), 1000, 0)
        sampler = _SpatialSampler(RIESZ, 2, 2.0)
        assert est.params["accept_rate"] == sampler.accept_rate
        assert est.params["R"] == sampler.R
        # white noise draws its untruncated proposal directly
        for est in (jn_exp_time_mc(ChaosQuery(HEAT, WHITE, 2), 1000, 0),
                    jn_fixed_time(ChaosQuery(WAVE, WHITE, 2, 1.0), 1000, 0),
                    jn_exp_time_mc(ChaosQuery(HEAT, RIESZ, 0), 10, 0)):
            assert est.params["accept_rate"] is None
            assert est.params["R"] is None


# (eq, kernel, n, t, mean, std_error) at 70,000 samples and seed 19: one
# full and one partial chunk.  The white heat row's weights are constant,
# so it pins no std_error, only its zero-variance label.  A fixed-time row
# is the exponential-time estimate on its own sub-stream, scaled by the
# time identity; the n = 9 one is checked at 1 and 3 threads.  The ids
# name the arguments alone, so a re-record keeps them.
PINNED = [
    pytest.param("heat", RIESZ, 3, None,
                 4.0598504648885, 0.01957449396164246,
                 id="heat-riesz_d1_a0.5-n3"),
    pytest.param("wave", KernelSpec("riesz", d=2, alpha=0.8), 4, None,
                 1.6030269863215554, 0.015868910321391372,
                 id="wave-riesz_d2_a0.8-n4"),
    pytest.param("heat", KernelSpec("riesz", d=3, alpha=1.5), 2, None,
                 1.8502041072250464, 0.007587961006464743,
                 id="heat-riesz_d3_a1.5-n2"),
    pytest.param("wave", RIESZ, 3, 2.0,
                 0.14731902925488907, 0.000665347449149376,
                 id="wave-riesz_d1_a0.5-n3-t2"),
    pytest.param("wave", WHITE, 3, 1.0,
                 0.00017445974583332836, 6.448959304111863e-07,
                 id="wave-white-n3-t1"),
    pytest.param("heat", WHITE, 4, None, 0.0625, None,
                 id="heat-white-n4"),
    pytest.param("heat", RIESZ, 8, None,
                 26.29446215662793, 0.45607759142483817,
                 id="heat-riesz_d1_a0.5-n8"),
    pytest.param("heat", KernelSpec("riesz", d=2, alpha=0.8), 9, 1.0,
                 0.0016342090046269776, 0.00014211825007108265,
                 id="heat-riesz_d2_a0.8-n9-t1"),
]


@pytest.mark.parametrize("eq, kernel, n, t, mean, std_error", PINNED)
def test_pinned_draws(eq, kernel, n, t, mean, std_error):
    # any change to the draw order or to the arithmetic on the draws moves
    # these; the tolerance covers SIMD pow on other CPUs, and abs=0 keeps
    # pytest's default absolute tolerance from passing tiny values
    query = ChaosQuery(EquationKind(eq), kernel, n, t)
    fn = jn_exp_time_mc if t is None else jn_fixed_time
    for threads in (1, 3) if n == 9 else (1,):
        est = fn(query, 70_000, 19, threads=threads)
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0)
        if std_error is None:
            assert est.target.endswith("|zero-variance")
            assert est.std_error <= 1e-14 * est.mean
        else:
            assert est.std_error == pytest.approx(std_error, rel=1e-12,
                                                  abs=0)
    oracle = exact_moment(query)
    assert oracle is None or abs(est.z_score(oracle)) < 3.0


@pytest.mark.parametrize("kernel", [
    WHITE, KernelSpec("riesz", d=1, alpha=0.5),
    KernelSpec("riesz", d=2, alpha=0.8),
])
@pytest.mark.parametrize("n", [1, 3, 9])
def test_sample_is_the_plain_array_expressions(kernel, n):
    # the in-place kernels against a plain recomputation from the same
    # stream: each factor's row takes the next m draws
    m = 1000
    sampler = _SpatialSampler(kernel, n, 2.0)
    eta_norm, log_ratio = sampler.sample(chunk_generator(5, 0), m)
    rng = chunk_generator(5, 0)
    if kernel.family == "white":
        eta = np.tan((rng.random((n, m)) - 0.5) * math.pi)
        sq = eta ** 2
    else:
        r = sampler._radii(rng, n * m).reshape(n, m)
        if kernel.d == 1:
            inc = np.copysign(r, rng.random((n, m)) - 0.5)
        else:
            z = rng.standard_normal((n, kernel.d, m))
            inc = z * (r / np.linalg.norm(z, axis=1))[:, None]
        eta = np.cumsum(inc, axis=0)
        sq = r ** 2
    want_norm = np.abs(eta) if eta.ndim == 2 else np.linalg.norm(eta, axis=1)
    want_log = np.log1p(sq).sum(axis=0) + n * math.log(sampler.weight_const)
    assert eta_norm.shape == (n, m) and log_ratio.shape == (m,)
    np.testing.assert_allclose(eta_norm, want_norm, rtol=1e-14, atol=0)
    np.testing.assert_allclose(log_ratio, want_log, rtol=1e-14, atol=0)


@pytest.mark.parametrize("kernel", [
    WHITE, KernelSpec("riesz", d=1, alpha=0.5),
    KernelSpec("riesz", d=2, alpha=0.8),
])
def test_sample_owns_its_arrays(kernel):
    # a caller may keep a chunk while the same thread draws the next one
    sampler = _SpatialSampler(kernel, 3, 2.0)
    eta_norm, log_ratio = sampler.sample(chunk_generator(5, 0), 1000)
    kept = eta_norm.copy(), log_ratio.copy()
    sampler.sample(chunk_generator(6, 0), 1000)
    assert np.array_equal(eta_norm, kept[0])
    assert np.array_equal(log_ratio, kept[1])


@pytest.mark.parametrize("fn, query", [
    (jn_exp_time_mc, ChaosQuery(WAVE, KernelSpec("riesz", d=2, alpha=0.8), 2)),
    (jn_fixed_time, ChaosQuery(WAVE, WHITE, 3, t=1.0)),
])
def test_six_switching_threads_equal_one(fn, query):
    # more workers than cores and a short switch interval: chunks that
    # shared a sampler workspace would overwrite each other's draws
    ref = fn(query, 6 * 65_536 + 5, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = fn(query, 6 * 65_536 + 5, 3, threads=6)
    finally:
        sys.setswitchinterval(interval)
    assert (got.mean, got.std_error) == (ref.mean, ref.std_error)


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
    def test_rejects_fixed_time(self):
        with pytest.raises(ParameterError, match="jn_fixed_time"):
            jn_exp_time_mc(ChaosQuery(HEAT, WHITE, 2, 5.0), 1000, 0)

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
        # J_0 needs no sampler, and is refused all the same
        for n in (1, 0):
            q = ChaosQuery(HEAT, KernelSpec("fractional", H=0.3), n)
            with pytest.raises(ParameterError, match="riesz/white"):
                jn_exp_time_mc(q, 1000, 0)

    def test_low_confidence_label(self):
        est = jn_exp_time_mc(ChaosQuery(HEAT, WHITE, 7), 2000, 0)
        assert "low-confidence" in est.target

    def test_zero_variance_label(self):
        est = jn_exp_time_mc(ChaosQuery(HEAT, WHITE, 1), 2000, 0)
        assert "zero-variance" in est.target

    def test_tiny_alpha_samples_only_the_inner_piece(self):
        # 1 - p1 = 5e-13, so 1e4 samples never draw the envelope's (1, R]
        # piece: every radius underflows to 0 and every weight is
        # weight_const * (1 + 0) * laplace_green_sq(0) = 2 weight_const.
        # The closed form also counts the unsampled outer mass, so it
        # reads 7e-13 lower; the estimator is right not to see it.
        kernel = KernelSpec("riesz", d=1, alpha=1e-12)
        sampler = _SpatialSampler(kernel, 1, 2.0)
        assert 1.0 - sampler._p1 < 1e-12
        est = jn_exp_time_mc(ChaosQuery(WAVE, kernel, 1), 10_000, 0)
        assert est.mean == 2.0 * sampler.weight_const
        assert est.std_error == 0.0 and "zero-variance" in est.target


class TestRangeRules:
    def test_underflowed_spread_is_a_convergence_error(self):
        # rho^400 is about 1e65, yet these weights sit near 1e-185 and their
        # squared deviations underflow to 0: the estimate read 3.4e-185
        # +- 0 as zero-variance
        with pytest.raises(ConvergenceError,
                           match="second moment underflows the double range"):
            jn_exp_time_mc(ChaosQuery(HEAT, RIESZ, 400), 2000, 0)

    def test_underflowed_mean_is_a_convergence_error(self):
        # every weight underflows to 0, and the estimate read 0.0
        kernel = KernelSpec("riesz", d=3, alpha=1.5)
        with pytest.raises(ConvergenceError,
                           match="n150, 0, underflows the double range"):
            jn_exp_time_mc(ChaosQuery(HEAT, kernel, 150), 2000, 0)

    def test_white_heat_has_no_spread_to_lose(self):
        # every weight is 2^-500 up to rounding, a normal double
        est = jn_exp_time_mc(ChaosQuery(HEAT, WHITE, 500), 2000, 0)
        assert est.mean == pytest.approx(0.5 ** 500, rel=1e-12)
        assert est.std_error == 0.0
        assert est.target.endswith("/n500|zero-variance|low-confidence")

    def test_underflowed_closed_form_is_a_parameter_error(self):
        # 2^-1022 is the smallest normal double
        assert exact_moment(ChaosQuery(HEAT, WHITE, 1022)) == 0.5 ** 1022
        for n, t in ((1023, None), (1080, None), (1080, 1.0)):
            with pytest.raises(ParameterError,
                               match=f"at n={n}, .* underflows the double"):
                exact_moment(ChaosQuery(HEAT, WHITE, n, t))

    def test_fixed_time_moment_below_range_is_a_parameter_error(self):
        # 2^-3 t^1.5 / Gamma(2.5) is exp(-1038.53): it read 0.0
        with pytest.raises(ParameterError, match=(
                r"moment at n=3, t=1e-300 is exp\(-1038.53\), below the")):
            exact_moment(ChaosQuery(HEAT, WHITE, 3, t=1e-300))
        with pytest.raises(ParameterError, match="n=2, .* below the double"):
            jn_fixed_time(ChaosQuery(HEAT, RIESZ, 2, t=1e-300), 1000, 0)

    @pytest.mark.parametrize("eq, n, t, side", [(HEAT, 3, 1e-300, "below"),
                                                (WAVE, 4, 1e100, "beyond")])
    def test_time_factor_out_of_range_draws_nothing(self, monkeypatch, eq, n,
                                                    t, side):
        # t^(a n)/Gamma(a n + 1) is past log(max/min) = 1418.18 in size:
        # no normal moment brings the row back, closed form known or not
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a row its time factor rules out")

        monkeypatch.setattr(mc, "run_chunked", no_draws)
        q = ChaosQuery(eq, RIESZ, n, t)
        match = f"factor .* at n={n}, .* {side} the double range"
        with pytest.raises(ParameterError, match=match):
            exact_moment(q)
        with pytest.raises(ParameterError, match=match):
            jn_fixed_time(q, 1000, 0)


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
        # the wave oracle comes from T_1 through the fixed-time identity
        q = ChaosQuery(WAVE, RIESZ, 1, t=2.0)
        est = jn_fixed_time(q, 1_000_000, 13)
        assert within(est, exact_moment(q))

    @pytest.mark.parametrize("eq, kernel", [
        (WAVE, RIESZ),
        (HEAT, KernelSpec("riesz", d=2, alpha=0.8)),
        (WAVE, WHITE),
    ])
    def test_determinism_and_threads(self, eq, kernel):
        # three chunks, the last one partial, at 1 and 3 threads
        q = ChaosQuery(eq, kernel, 3, t=1.5)
        a = jn_fixed_time(q, 150_000, 5)
        b = jn_fixed_time(q, 150_000, 5, threads=3)
        assert math.isfinite(a.mean) and a.mean > 0
        assert (a.mean, a.std_error) == (b.mean, b.std_error)

    def test_needs_time(self):
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                ChaosQuery(HEAT, RIESZ, 1, t=t)
        with pytest.raises(ParameterError, match="needs t"):
            jn_fixed_time(ChaosQuery(HEAT, RIESZ, 0), 10, 1)


class TestFixedTimeCoverage:
    """Fixed-time error bars cover their oracles over named seeds, at high
    orders and at large t."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_white_heat_orders_five_to_twelve(self, seed):
        for n in range(5, 13):
            q = ChaosQuery(HEAT, WHITE, n, t=1.5)
            est = jn_fixed_time(q, 100_000, seed)
            assert abs(est.z_score(exact_moment(q))) < 3.0, n

    def test_white_wave_at_large_time(self):
        # the sin^2 mass sits at |eta| of order 1/t
        q = ChaosQuery(WAVE, WHITE, 1, t=1e8)
        est = jn_fixed_time(q, 100_000, 0)
        assert abs(est.z_score(exact_moment(q))) < 3.0

    def test_riesz_wave_order_one(self):
        q = ChaosQuery(WAVE, RIESZ, 1, t=2.0)
        est = jn_fixed_time(q, 200_000, 13)
        assert abs(est.z_score(exact_moment(q))) < 3.0


class TestLogRateTn:
    def test_white_analog_exact_rate(self):
        # (d, alpha) names a Riesz kernel only, so alpha = d is refused
        with pytest.raises(ParameterError, match="alpha must lie in"):
            log_rate_tn(1, 1.0, 3, 100_000, 23)

    def test_riesz_trend_decreasing(self):
        rows = log_rate_tn(1, 0.5, 4, 150_000, 23)
        vals = [row[1] for row in rows]
        assert vals[0] == pytest.approx(math.log(SQRT_PI), abs=1e-3)
        assert all(a > b for a, b in zip(vals, vals[1:]))
