"""Mittag-Leffler evaluation, growth rates and exponent formulas."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andersonlyap.asymptotics import (
    LOG_NORMAL_MAX,
    LOG_NORMAL_MIN,
    _asymptotic_log_ml,
    _log_beta0,
    _series_log_ml,
    at_growth,
    exp_normal,
    lambda2_closed_form,
    log_mittag_leffler,
    mittag_leffler,
)
from andersonlyap.errors import ConvergenceError, ParameterError
from andersonlyap.spectral import EquationKind, KernelSpec

WAVE = EquationKind("wave")
HEAT = EquationKind("heat")


class TestMittagLeffler:
    def test_exponential_reduction(self):
        assert abs(mittag_leffler(1.0, 1.0) - math.e) < 1e-14

    def test_cosh_reduction(self):
        assert abs(mittag_leffler(2.0, 1.0) - math.cosh(1.0)) < 1e-14
        x = 2.3
        assert mittag_leffler(2.0, x * x) == pytest.approx(math.cosh(x),
                                                           rel=1e-13)

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.0, 3.9])
    def test_at_zero(self, a):
        assert mittag_leffler(a, 0.0) == 1.0

    def test_domain(self):
        for a in (0.0, 4.0, -1.0):
            with pytest.raises(ParameterError):
                mittag_leffler(a, 1.0)
        with pytest.raises(ParameterError):
            mittag_leffler(1.0, -0.5)

    @pytest.mark.parametrize("a", [0.5, 1.5, 2.5, 3.5])
    @pytest.mark.parametrize("root", [25.0, 30.0, 35.0])
    def test_branch_consistency(self, a, root):
        log_x = math.log(root ** a)
        assert _series_log_ml(a, log_x) == pytest.approx(
            _asymptotic_log_ml(a, log_x), rel=1e-8
        )

    @pytest.mark.parametrize("a", [1e-300, 1e-4])
    def test_series_term_cap(self, a):
        # E_a(1) >= 1/a: the terms barely decay, so the capped series
        # must not return its partial sum
        with pytest.raises(ConvergenceError, match="did not converge"):
            mittag_leffler(a, 1.0)

    def test_small_order_series(self):
        # the series needs about 90/a terms: 89,745 at a = 1e-3
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = mp.nsum(lambda n: 1 / mp.gamma(n / 1000 + 1), [0, mp.inf])
        assert mittag_leffler(1e-3, 1.0) == pytest.approx(float(ref),
                                                          rel=1e-9)

    def test_no_overflow_far_out(self):
        # x^(1/a) = 1e20 exponent territory: the log form stays finite
        assert log_mittag_leffler(0.5, 1e10) == pytest.approx(1e20,
                                                              rel=1e-10)


class TestAtGrowth:
    def test_exponential_case_exact(self):
        # a = 1 collapses to log(e^{ct})/t = c
        assert at_growth(1.0, 2.0, 100.0) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.5, 2.5, 3.5])
    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_deviation_is_log_a_over_t(self, a, c):
        # the finite-t deviation is |log a|/t up to exponentially small
        # corrections
        dev = abs(at_growth(a, c, 50.0) - c)
        assert dev <= abs(math.log(a)) / 50.0 + 1e-3
        if a != 1.0:
            assert dev >= abs(math.log(a)) / 50.0 - 1e-3

    def test_converges_in_t(self):
        devs = [abs(at_growth(2.5, 1.0, t) - 1.0) for t in (50.0, 200.0,
                                                            800.0)]
        assert devs[0] > devs[1] > devs[2]

    def test_domain(self):
        with pytest.raises(ParameterError):
            at_growth(1.0, 0.0, 50.0)
        with pytest.raises(ParameterError):
            at_growth(1.0, 1.0, -1.0)


def beta0(c, p):
    return math.exp(_log_beta0(math.log(c), p))


class TestBeta0:
    def test_constant_rate(self):
        assert beta0(0.25, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_inverse_square(self):
        assert beta0(1.0, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    @given(st.floats(-3, 3), st.floats(0.0, 4.0))
    @settings(max_examples=60)
    def test_power_law_agreement(self, logc, p):
        # the closed form solves 4 c beta^(-p) = beta^2
        c = 10.0 ** logc
        beta = beta0(c, p)
        assert 4.0 * c * beta ** (-p) == pytest.approx(beta * beta,
                                                       rel=1e-13)


class TestNormalRange:
    """exp_normal: the one exit from log space of every reported value."""

    def test_edges_are_normal(self):
        top = exp_normal(LOG_NORMAL_MAX, "x")
        assert sys.float_info.max * (1.0 - 1e-12) < top < math.inf
        assert exp_normal(LOG_NORMAL_MIN, "x") >= sys.float_info.min

    @pytest.mark.parametrize("log_value, side", [
        (math.nextafter(LOG_NORMAL_MIN, -math.inf), "below"),
        (-745.2, "below"),
        (math.nextafter(LOG_NORMAL_MAX, math.inf), "beyond"),
        (math.inf, "beyond"), (math.nan, "beyond")])
    def test_outside_named(self, log_value, side):
        with pytest.raises(ParameterError,
                           match=rf"^x is exp\(.*\), {side} the double range"):
            exp_normal(log_value, "x")

    def test_top_of_the_range_reported(self):
        # log lambda_2 = 709.5 lies past the old 709 cut, inside the range
        rho = math.exp(0.75 * 709.5)
        rep = lambda2_closed_form(HEAT, KernelSpec("riesz", d=1, alpha=0.5),
                                  rho=rho)
        assert rep.lambda2_thm2 == pytest.approx(math.exp(709.5), rel=1e-13)


class TestClosedFormExponents:
    def test_white_noise_values(self):
        w = lambda2_closed_form(WAVE, KernelSpec("white"))
        h = lambda2_closed_form(HEAT, KernelSpec("white"))
        assert abs(w.lambda2_thm2 - 1.0 / math.sqrt(2.0)) < 1e-12
        assert abs(h.lambda2_thm2 - 0.25) < 1e-12
        assert w.a == 2.0 and h.a == 0.5
        assert w.gamma == pytest.approx(math.log(0.5), rel=1e-14)

    @given(st.floats(0.05, 1.9), st.floats(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_route_agreement(self, alpha, logr):
        # the three wave routes agree to algebraic rounding for every
        # admissible (alpha, rho): d chosen so alpha < d
        d = 2 if alpha < 2 else 3
        if alpha >= 1.0:
            d = 2
        else:
            d = 1
        kernel = KernelSpec("riesz", d=d, alpha=alpha)
        rep = lambda2_closed_form(WAVE, kernel, rho=10.0 ** logr)
        assert rep.consistency_gap < 1e-14

    def test_heat_route_agreement(self):
        rep = lambda2_closed_form(HEAT, KernelSpec("riesz", d=1, alpha=0.5),
                                  rho=1.4549799)
        assert rep.lambda2_thm1 == pytest.approx(rep.lambda2_thm2, rel=1e-14)

    def test_fractional_family(self):
        kernel = KernelSpec("fractional", H=1 / 3)
        rep = lambda2_closed_form(WAVE, kernel, e_gamma=1.0)
        H = 1 / 3
        direct = 2.0 ** ((3.0 * H - 2.0) / (2.0 * H + 1.0))
        assert rep.lambda2_thm2 == pytest.approx(direct, rel=1e-12)
        assert rep.consistency_gap < 1e-10
        heat_rep = lambda2_closed_form(HEAT, kernel, e_gamma=1.0)
        # heat exponent is the doubled-variable functional itself
        assert heat_rep.lambda2_thm2 == pytest.approx(
            2.0 ** (-(1.0 - H) / H), rel=1e-12
        )

    def test_fractional_dispersion_consistency(self):
        eq = EquationKind("wave", 1.5)
        rep = lambda2_closed_form(eq, KernelSpec("riesz", d=1, alpha=0.5),
                                  rho=1.2)
        assert rep.a == pytest.approx(3.0 - 1.0 / 1.5)
        assert rep.lambda2_thm2 == pytest.approx(
            math.exp(rep.gamma / rep.a), rel=1e-14
        )
        # at beta_l = 2 the prefactor exponent reduces to 1 - alpha
        rep2 = lambda2_closed_form(WAVE, KernelSpec("riesz", d=1, alpha=0.5),
                                   rho=1.2)
        assert rep2.gamma == pytest.approx(
            0.5 * math.log(2.0) + math.log(1.2), rel=1e-14
        )

    def test_missing_inputs(self):
        with pytest.raises(ParameterError):
            lambda2_closed_form(WAVE, KernelSpec("riesz", d=1, alpha=0.5))
        with pytest.raises(ParameterError):
            lambda2_closed_form(WAVE, KernelSpec("fractional", H=0.3))
        with pytest.raises(ParameterError):
            lambda2_closed_form(EquationKind("heat", 1.2),
                                KernelSpec("riesz", d=2, alpha=1.5), rho=1.0)

    def test_report_serialization(self):
        rep = lambda2_closed_form(WAVE, KernelSpec("white"))
        d = rep.to_dict()
        assert d["eq"] == "wave"
        assert d["lambda2"] == rep.lambda2_thm2
        assert d["kernel"] == {"family": "white"}
