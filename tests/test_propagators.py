"""Propagator transforms: closed forms and quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from andersonlyap.errors import ParameterError
from andersonlyap.propagators import (
    _sinc,
    fourier_green_sq,
    laplace_green_sq,
)
from andersonlyap.spectral import EquationKind

WAVE = EquationKind("wave")
HEAT = EquationKind("heat")


class TestFourierGreenSq:
    def test_wave_sine_zero(self):
        assert fourier_green_sq(WAVE, math.pi, 1.0) < 1e-30

    def test_heat_at_time_zero(self):
        for r in (0.0, 1.0, 7.3):
            assert fourier_green_sq(HEAT, 0.0, r) == 1.0

    def test_wave_small_r_limit(self):
        assert fourier_green_sq(WAVE, 0.7, 1e-12) == pytest.approx(0.49,
                                                                   rel=1e-9)

    def test_continuity_at_zero(self):
        for t in (0.3, 0.7, 2.0):
            lim = fourier_green_sq(WAVE, t, 0.0)
            near = fourier_green_sq(WAVE, t, 1e-8)
            assert lim == pytest.approx(t * t, rel=1e-14)
            assert near == pytest.approx(lim, rel=1e-6)

    def test_fractional_dispersion_shape(self):
        eq = EquationKind("wave", 1.5)
        t, r = 0.9, 2.0
        assert fourier_green_sq(eq, t, r) == pytest.approx(
            math.sin(t * r ** 0.75) ** 2 / r ** 1.5, rel=1e-12
        )

    def test_array_broadcast(self):
        out = fourier_green_sq(HEAT, 1.0, np.array([0.0, 1.0, 2.0]))
        assert out.shape == (3,)
        assert out[0] == 1.0


class TestLaplaceGreenSq:
    def test_heat_closed_form(self):
        assert laplace_green_sq(HEAT, 1.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_wave_at_zero(self):
        assert laplace_green_sq(WAVE, 2.0, 0.0) == pytest.approx(0.25,
                                                                 rel=1e-15)

    def test_wave_quadrature_value(self):
        # integral of exp(-t) sin^2(t) dt = 2/5
        assert laplace_green_sq(WAVE, 1.0, 1.0) == pytest.approx(0.4,
                                                                 rel=1e-14)
        oracle = quad(lambda t: math.exp(-t) * math.sin(t) ** 2, 0.0, 60.0,
                      limit=400)[0]
        assert laplace_green_sq(WAVE, 1.0, 1.0) == pytest.approx(oracle,
                                                                 rel=1e-10)

    def test_beta_domain(self):
        with pytest.raises(ParameterError):
            laplace_green_sq(HEAT, 0.0, 1.0)
        with pytest.raises(ParameterError):
            laplace_green_sq(WAVE, -1.0, 1.0)

    def test_quadrature_matches_transform(self):
        # 12 seeded random (eq, beta, r): numerical Laplace transform of
        # fourier_green_sq against the closed form
        rng = np.random.default_rng(1234)
        for _ in range(12):
            beta = float(rng.uniform(0.3, 3.0))
            r = float(rng.uniform(0.05, 5.0))
            eq = WAVE if rng.random() < 0.5 else HEAT
            horizon = 50.0 / beta
            val = quad(
                lambda t: math.exp(-beta * t) * fourier_green_sq(eq, t, r),
                0.0,
                horizon,
                limit=800,
            )[0]
            assert val == pytest.approx(laplace_green_sq(eq, beta, r),
                                        rel=1e-6)


FRAC_WAVE = EquationKind("wave", 1.5)
# beta_l = 1 makes laplace_green_sq's power r ** 1.0, numpy's copy
KINDS = [WAVE, HEAT, FRAC_WAVE, EquationKind("heat", 1.5),
         EquationKind("heat", 1.0)]


class TestContract:
    """Scalars in, floats out; arrays broadcast; inputs left as they were."""

    @pytest.mark.parametrize("eq", KINDS)
    def test_scalar_gives_python_float(self, eq):
        for r in (0.0, 0.7, np.float64(2.5), np.array(1.3)):
            for out in (fourier_green_sq(eq, 0.9, r),
                        fourier_green_sq(eq, np.array(0.9), r),
                        laplace_green_sq(eq, 1.0, r)):
                assert type(out) is float

    @pytest.mark.parametrize("eq", KINDS)
    def test_broadcast_matches_scalar_calls(self, eq):
        t = np.array([[0.0], [0.4], [3.0]])
        r = np.array([0.0, 1e-9, 0.8, 17.0])
        grid = fourier_green_sq(eq, t, r)
        assert grid.shape == (3, 4)
        for i, ti in enumerate(t[:, 0]):
            for j, rj in enumerate(r):
                assert grid[i, j] == pytest.approx(
                    fourier_green_sq(eq, float(ti), float(rj)), rel=1e-15)
        assert fourier_green_sq(eq, t, 0.8).shape == (3, 1)
        assert fourier_green_sq(eq, 0.4, r).shape == (4,)
        lap = laplace_green_sq(eq, 1.5, r.reshape(2, 2))
        assert lap.shape == (2, 2)
        assert lap.ravel() == pytest.approx(
            [laplace_green_sq(eq, 1.5, float(x)) for x in r], rel=1e-15)

    @pytest.mark.parametrize("eq", KINDS)
    def test_inputs_not_mutated(self, eq):
        rng = np.random.default_rng(7)
        t, r = rng.random((50, 3)) * 2.0, rng.random((50, 3)) * 5.0
        r[0, 0] = 0.0
        t0, r0 = t.copy(), r.copy()
        fourier_green_sq(eq, t, r)
        laplace_green_sq(eq, 0.8, r)
        assert np.array_equal(t, t0) and np.array_equal(r, r0)

    def test_sinc_series_bits(self):
        # below 1e-4 the Taylor polynomial 1 - x^2/6 + x^4/120 is sinc to
        # double precision; the quotient gives its bits where it rounds to
        # 1.0 and lies within eps of it elsewhere, whatever the neighbours
        # in the array
        ones = [0.0, -0.0, 1e-300, 3e-9]
        small = ones + [-5e-5, 0.99e-4]
        x = np.array(small + [1e-4, 0.5, -2.0, 1e100])
        out = _sinc(x)
        assert out[:len(ones)].tolist() == [1.0] * len(ones)
        for xi, got in zip(small, out):
            x2 = xi * xi
            series = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
            assert abs(got - series) <= np.finfo(float).eps
        for xi, got in zip(x[len(small):], out[len(small):]):
            assert got == pytest.approx(math.sin(xi) / xi, rel=1e-15)
        assert _sinc(np.array(-5e-5)) == out[4]

    def test_wave_series_branch_value(self):
        # t r below 1e-4, where the deleted series branch used to apply:
        # one rounding in the quotient, doubled by the square, plus the
        # square's own
        mp = pytest.importorskip("mpmath")
        t, r = 0.5, 1e-5
        got = fourier_green_sq(WAVE, t, r)
        with mp.workdps(50):
            exact = (mp.sin(mp.mpf(t) * mp.mpf(r)) / mp.mpf(r)) ** 2
            assert abs(mp.mpf(got) / exact - 1) <= 1.5 * np.finfo(float).eps
        assert fourier_green_sq(WAVE, t, 0.0) == t * t

    def test_sinc_within_one_ulp(self):
        # the plain quotient against 50-digit sin(x)/x, down to the
        # smallest x: on [0, 0.1] sinc lies in (0.998, 1], so one ulp of
        # 1.0 is eps
        mp = pytest.importorskip("mpmath")
        x = np.geomspace(1e-300, 0.1, 1750)
        x = np.concatenate([[0.0, -0.0], x, -x])
        got = _sinc(x)
        with mp.workdps(50):
            for xi, value in zip(x, got):
                exact = mp.sin(xi) / xi if xi else mp.mpf(1)
                assert abs(mp.mpf(value) - exact) <= np.finfo(float).eps
        assert got[:2].tolist() == [1.0, 1.0]


class TestEquationKind:
    def test_validation(self):
        with pytest.raises(ParameterError):
            EquationKind("diffusion")
        with pytest.raises(ParameterError):
            EquationKind("wave", 2.5)
        with pytest.raises(ParameterError):
            EquationKind("wave", 0.0)
