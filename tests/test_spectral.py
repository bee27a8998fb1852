"""Spectral-measure families: constants and admissibility."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from andersonlyap.asymptotics import (
    RieszHeat,
    functionals_from_rho,
    lambda2_closed_form,
    remark14_residual,
    scaling_exponent,
)
from andersonlyap.brownian import tn_bm_oracle
from andersonlyap.chaos import ChaosQuery, t1_exact
from andersonlyap.cli import RunConfig
from andersonlyap.errors import ParameterError
from andersonlyap.spectral import (
    EquationKind,
    KernelSpec,
    c_h,
    dalang_check,
    require_admissible,
    riesz_constant,
)
from andersonlyap.variational import rho_eigen

# frozen against a 30-digit gamma oracle (mpmath)
C_1_HALF = 0.398942280401432677939946059934
C_3_1 = 0.0506605918211688857219397316049
C_2_19 = 1.60994638451834387310814721758
CH_THIRD = 0.124427391302465076108783437474
CH_026 = 0.102913317487251752978926648004


class TestRieszConstant:
    def test_d1_alpha_half_cancels_gammas(self):
        assert riesz_constant(1, 0.5) == pytest.approx((2 * math.pi) ** -0.5,
                                                       rel=1e-14)

    def test_d3_alpha_one_closed_form(self):
        assert riesz_constant(3, 1.0) == pytest.approx(1 / (2 * math.pi ** 2),
                                                       rel=1e-14)
        assert riesz_constant(3, 1.0) == pytest.approx(C_3_1, rel=1e-13)

    def test_near_upper_boundary(self):
        val = riesz_constant(2, 1.9)
        assert val == pytest.approx(C_2_19, rel=1e-13)
        assert val > 0

    # 1e-308 is subnormal: Gamma(alpha/2) overflows the double range
    @pytest.mark.parametrize("d,alpha", [(1, 0.0), (1, 1.0), (2, -0.5),
                                         (2, 2.5), (3, 3.0), (1, 1e-308)])
    def test_domain_errors(self, d, alpha):
        with pytest.raises(ParameterError):
            riesz_constant(d, alpha)

    def test_numpy_unsigned_d(self):
        # -d must not wrap around in the unsigned type
        assert riesz_constant(np.uint8(3), 1.0) == riesz_constant(3, 1.0)

    @given(st.integers(1, 6), st.floats(0.01, 0.99))
    def test_positive(self, d, frac):
        assert riesz_constant(d, frac * d) > 0


class TestCH:
    def test_frozen_values(self):
        assert c_h(1 / 3) == pytest.approx(CH_THIRD, rel=1e-13)
        assert c_h(0.26) == pytest.approx(CH_026, rel=1e-13)

    def test_upper_limit(self):
        # the formula tends to Gamma(2) sin(pi/2)/(2 pi) = 1/(2 pi)
        assert c_h(0.4999999) == pytest.approx(1 / (2 * math.pi), rel=1e-5)

    @pytest.mark.parametrize("H", [0.25, 0.5, 0.1, 0.9])
    def test_domain_errors(self, H):
        with pytest.raises(ParameterError):
            c_h(H)


class TestDalang:
    def test_classical(self):
        assert dalang_check(1.9) is True
        assert dalang_check(2.0) is False

    def test_fractional_dispersion(self):
        assert dalang_check(1.5, beta_l=1.2) is False
        assert dalang_check(1.1, beta_l=1.2) is True

    @given(st.floats(0.01, 3.0), st.floats(0.01, 3.0))
    def test_monotone_in_alpha(self, a1, a2):
        lo, hi = min(a1, a2), max(a1, a2)
        if dalang_check(hi):
            assert dalang_check(lo)

    def test_nonpositive_alpha(self):
        with pytest.raises(ParameterError):
            dalang_check(0.0)

    def test_require_admissible(self):
        require_admissible(1.1, beta_l=1.2)
        with pytest.raises(ParameterError, match="admissibility"):
            require_admissible(1.5, beta_l=1.2)
        # dalang_check's answer holds only for a dispersion power in (0, 2]
        assert dalang_check(1.5, beta_l=7.0) is True
        with pytest.raises(ParameterError, match="beta_l must lie in"):
            require_admissible(1.5, beta_l=7.0)


# (d, alpha, beta_l) outside the model, and the input that carries the fault
BAD_MODELS = [
    (1, 0.0, 2.0, "alpha"),
    (1, -0.5, 2.0, "alpha"),
    (1, math.nan, 2.0, "alpha"),
    (3, 2.5, 2.0, "dalang"),         # not below the classical beta_l = 2
    (1.5, 0.5, 2.0, "d"),            # d not an integer
    (1, 1.5, 2.0, "d"),              # alpha not below d
    (3, 1.5, 1.2, "beta_l"),         # alpha not below beta_l
    (1, 0.5, 5.0, "beta_l"),         # beta_l outside (0, 2]
    (3, 1.5, 7.0, "beta_l"),
    (1, 0.5, 0.0, "beta_l"),
    (1, 0.5, math.nan, "beta_l"),
]

_ALL = ("alpha", "d", "dalang", "beta_l")
# entry point -> (its call on (d, alpha, beta_l), the inputs it reads)
ENTRY_POINTS = {
    "riesz_constant": (lambda d, a, b: riesz_constant(d, a), ("alpha", "d")),
    "KernelSpec": (lambda d, a, b: KernelSpec("riesz", d=d, alpha=a),
                   ("alpha", "d")),
    "RunConfig.kernel": (lambda d, a, b: RunConfig(
        family="riesz", d=d, alpha=a, beta_l=b).kernel(), _ALL),
    "ChaosQuery": (lambda d, a, b: ChaosQuery(
        EquationKind("heat", b), KernelSpec("riesz", d=d, alpha=a), 1), _ALL),
    "t1_exact": (lambda d, a, b: t1_exact(
        KernelSpec("riesz", d=d, alpha=a), beta_l=b), _ALL),
    "scaling_exponent": (lambda d, a, b: scaling_exponent(
        EquationKind("wave", b), a), ("alpha", "dalang", "beta_l")),
    "lambda2_closed_form": (lambda d, a, b: lambda2_closed_form(
        EquationKind("wave", b), KernelSpec("riesz", d=d, alpha=a), rho=1.0),
        _ALL),
    "RieszHeat": (lambda d, a, b: RieszHeat(a, 1.0), ("alpha", "dalang")),
    "functionals_from_rho": (lambda d, a, b: functionals_from_rho(a, 1.0),
                             ("alpha", "dalang")),
    "remark14_residual": (lambda d, a, b: remark14_residual(a, 1.0),
                          ("alpha", "dalang")),
    "rho_eigen": (lambda d, a, b: rho_eigen(d, a, b, m=16), _ALL),
    "tn_bm_oracle": (lambda d, a, b: tn_bm_oracle(d, a, 1, 64, 2e-3, 0),
                     ("alpha", "d", "dalang")),
}


@pytest.mark.parametrize("entry, d, alpha, beta_l", [
    pytest.param(name, d, alpha, beta_l, id=f"{name}-d{d}-a{alpha}-b{beta_l}")
    for name, (_, reads) in ENTRY_POINTS.items()
    for d, alpha, beta_l, fault in BAD_MODELS if fault in reads
])
def test_every_entry_point_applies_the_model_rules(entry, d, alpha, beta_l):
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ParameterError):
        call(d, alpha, beta_l)


def _density(spec, xi):
    """The density the module docstring gives: constant * |xi|^(alpha_eff - d)."""
    return spec.constant * abs(xi) ** (spec.alpha_eff - spec.d)


class TestSpectralDensity:
    def test_white_flat(self):
        spec = KernelSpec("white")
        for xi in (0.0, 1.0, -3.7, 100.0):
            assert _density(spec, xi) == pytest.approx(
                1 / (2 * math.pi), rel=1e-15
            )

    def test_riesz_at_one(self):
        spec = KernelSpec("riesz", d=1, alpha=0.5)
        assert _density(spec, 1.0) == pytest.approx(C_1_HALF, rel=1e-13)

    def test_fractional_value(self):
        spec = KernelSpec("fractional", H=1 / 3)
        assert _density(spec, 2.0) == pytest.approx(
            0.156768689485482008415408284757, rel=1e-13
        )


class TestKernelSpec:
    def test_alpha_eff(self):
        assert KernelSpec("riesz", d=2, alpha=1.3).alpha_eff == 1.3
        assert KernelSpec("fractional", H=0.3).alpha_eff == pytest.approx(1.4)
        assert KernelSpec("white").alpha_eff == 1.0

    def test_constant(self):
        assert KernelSpec("riesz", d=1, alpha=0.5).constant == pytest.approx(
            C_1_HALF, rel=1e-13)
        assert KernelSpec("fractional", H=1 / 3).constant == pytest.approx(
            CH_THIRD, rel=1e-13)
        assert KernelSpec("white").constant == 1 / (2 * math.pi)

    def test_invalid(self):
        with pytest.raises(ParameterError):
            KernelSpec("riesz", d=1, alpha=1.5)
        with pytest.raises(ParameterError):
            KernelSpec("fractional", H=0.7)
        with pytest.raises(ParameterError):
            KernelSpec("polka")
