"""Monte-Carlo plumbing: streams, stable accumulation, reproducibility."""

import math

import numpy as np
import pytest

from andersonlyap.errors import ConvergenceError
from andersonlyap.mc import MCEstimate, chunk_generator, derive_seed, \
    run_chunked


def gaussian_sampler(rng, m):
    return rng.standard_normal(m) + 3.0


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        a = derive_seed(42, "target/a")
        assert a == derive_seed(42, "target/a")
        assert a != derive_seed(42, "target/b")
        assert a != derive_seed(43, "target/a")
        assert 0 <= a < 2 ** 64


class TestRunChunked:
    def test_bitwise_reproducible(self):
        m1 = run_chunked(gaussian_sampler, 200_000, 7)
        m2 = run_chunked(gaussian_sampler, 200_000, 7)
        assert m1 == m2

    def test_thread_count_invariant(self):
        serial = run_chunked(gaussian_sampler, 200_000, 7, threads=1)
        pooled = run_chunked(gaussian_sampler, 200_000, 7, threads=4)
        assert serial == pooled

    def test_matches_plain_accumulation(self):
        # same draws, naive mean/std as the oracle
        n, subseed, chunk = 150_000, 99, 1 << 16
        parts = []
        i = 0
        while i * chunk < n:
            m = min(chunk, n - i * chunk)
            parts.append(gaussian_sampler(chunk_generator(subseed, i), m))
            i += 1
        allw = np.concatenate(parts)
        mean, se = run_chunked(gaussian_sampler, n, subseed)
        assert mean == pytest.approx(allw.mean(), rel=1e-13)
        assert se == pytest.approx(allw.std(ddof=1) / np.sqrt(n), rel=1e-10)

    def test_partial_last_chunk(self):
        mean, se = run_chunked(gaussian_sampler, (1 << 16) + 17, 5)
        assert np.isfinite(mean) and se > 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            run_chunked(gaussian_sampler, 0, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflowing_variance_raises(self, threads):
        def huge(rng, m):
            return rng.random(m) * 1e300
        with pytest.raises(ConvergenceError, match="overflows"):
            run_chunked(huge, 100_000, 3, threads=threads)


class TestMCEstimate:
    def test_z_score(self):
        est = MCEstimate(1.0, 0.1, 100, 0, "demo")
        assert est.z_score(0.7) == pytest.approx(3.0)

    def test_error_bound_includes_bias(self):
        est = MCEstimate(2.0, 0.0, 100, 0, "demo",
                         {"tail_frac_bound": 1e-3})
        assert est.error_bound() == pytest.approx(2e-3 / 0.999)
        assert est.z_score(2.0) == 0.0

    def test_error_bound_unbounded_tail(self):
        est = MCEstimate(2.0, 0.1, 100, 0, "demo", {"tail_frac_bound": 1.0})
        assert est.error_bound() == math.inf
        assert math.isnan(est.z_score(1.0))
