"""Brownian-path oracle against closed forms and the Fourier sampler."""

import math

import numpy as np
import pytest

from andersonlyap.brownian import (MAX_REFINE_DEPTH, PATH_CHUNK, TAU_CLIP,
                                  tn_bm_oracle)
from andersonlyap.chaos import ChaosQuery, jn_exp_time_mc
from andersonlyap.errors import ParameterError
from andersonlyap.mc import chunk_generator
from andersonlyap.spectral import EquationKind, KernelSpec

SQRT_PI = 1.77245385090551602729816748334
# scalar rows in d = 1, (rows, d) blocks above
ROW_LAYOUTS = [(1, 0.5), (2, 0.8), (3, 1.2)]


def combined_sigma(a, b):
    return math.sqrt(a.error_bound() ** 2 + b.error_bound() ** 2)


class TestPathOracle:
    def test_t1_exact_value(self):
        est = tn_bm_oracle(1, 0.5, 1, 15_000, 2e-3, 99)
        assert abs(est.mean - SQRT_PI) <= 3.0 * est.error_bound()

    def test_t2_against_fourier(self):
        bm = tn_bm_oracle(1, 0.5, 2, 15_000, 2e-3, 99)
        fr = jn_exp_time_mc(
            ChaosQuery(EquationKind("heat"), KernelSpec("riesz", d=1,
                                                        alpha=0.5), 2),
            300_000, 99,
        )
        assert abs(bm.mean - fr.mean) <= 3.0 * combined_sigma(bm, fr)

    def test_d2_alpha_one(self):
        # T_1(d=2, alpha=1) = pi/2 in closed form
        est = tn_bm_oracle(2, 1.0, 1, 6_000, 2e-3, 99)
        assert est.std_error > 0
        assert abs(est.mean - math.pi / 2.0) <= 3.0 * est.error_bound()

    def test_d3_alpha_one(self):
        # T_1(d=3, alpha=1) = 1 in closed form
        est = tn_bm_oracle(3, 1.0, 1, 6_000, 2e-3, 99)
        assert abs(est.mean - 1.0) <= 3.0 * est.error_bound()

    @pytest.mark.parametrize("d,alpha", ROW_LAYOUTS)
    def test_deterministic(self, d, alpha):
        # a one-path chunk and a ragged last chunk, at 1 and 2 threads
        for n_paths in (1, 2 * PATH_CHUNK + 1):
            a = tn_bm_oracle(d, alpha, 1, n_paths, 2e-3, 5)
            b = tn_bm_oracle(d, alpha, 1, n_paths, 2e-3, 5, threads=2)
            assert math.isfinite(a.mean) and a.mean > 0
            assert (a.mean, a.std_error) == (b.mean, b.std_error)

    @pytest.mark.parametrize("d,alpha,n,mean,std_error", [
        (1, 0.5, 1, 1.7748304594551134, 0.08709614072582249),
        (1, 0.5, 2, 3.03338506672481, 0.3765970361902483),
        (2, 0.8, 1, 1.288468841623229, 0.05050654495357852),
        (3, 1.2, 1, 1.168574280011085, 0.03803659346720182),
    ])
    def test_pinned_draws(self, d, alpha, n, mean, std_error):
        # any change to the draw order or the refinement rule moves these
        # by about 1e-2; the tolerance covers SIMD pow on other CPUs
        est = tn_bm_oracle(d, alpha, n, 300, 2e-3, 7)
        assert est.mean == pytest.approx(mean, rel=1e-12)
        assert est.std_error == pytest.approx(std_error, rel=1e-12)

    @pytest.mark.parametrize("d,alpha", ROW_LAYOUTS)
    def test_scored_per_depth(self, d, alpha):
        n_paths, dt = 2 * PATH_CHUNK + 1, 2e-3
        a = tn_bm_oracle(d, alpha, 1, n_paths, dt, 5)
        b = tn_bm_oracle(d, alpha, 1, n_paths, dt, 5, threads=2)
        hist = a.params["scored_per_depth"]
        assert hist == b.params["scored_per_depth"]
        assert len(hist) == MAX_REFINE_DEPTH + 1 and hist[-1] > 0
        # the rows at depth k + 1 are the halves of those split at depth
        # k, so unwinding from the last depth recovers the step count
        rows = 0
        for scored in reversed(hist):
            assert rows % 2 == 0
            rows = scored + rows // 2
        # each chunk's stream draws its exponential horizons first
        tau = np.concatenate([
            chunk_generator(a.params["subseed"], i).exponential(1.0, m)
            for i, m in enumerate((PATH_CHUNK, PATH_CHUNK, 1))
        ])
        steps = np.maximum(np.ceil(np.minimum(tau, TAU_CLIP) / dt), 1).sum()
        assert rows == steps and sum(hist) >= steps

    @pytest.mark.parametrize(
        "d,alpha,n,dt",
        [
            (1, 1.5, 1, 1e-3),   # alpha >= min(d, 2)
            (2, 2.0, 1, 1e-3),
            (1, 0.5, 0, 1e-3),   # moment order
            (1, 0.5, 1, 0.5),    # step too coarse for the sqrt rule
            (1, 0.5, 1, 0.0),
            (1, 0.5, 1, 1e-300),  # step counts past the integer range
            (1, 0.5, 1, 1e-17),
        ],
    )
    def test_parameter_errors(self, d, alpha, n, dt):
        with pytest.raises(ParameterError):
            tn_bm_oracle(d, alpha, n, 100, dt, 0)
