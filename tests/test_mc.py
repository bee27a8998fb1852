"""Monte-Carlo plumbing: streams, stable accumulation, reproducibility."""

import math
import re

import numpy as np
import pytest

from andersonlyap import mc
from andersonlyap.brownian import tn_bm_oracle
from andersonlyap.chaos import ChaosQuery, exact_moment, jn_exp_time_mc
from andersonlyap.errors import ConvergenceError, ParameterError
from andersonlyap.mc import MCEstimate, chunk_generator, derive_seed, \
    run_chunked
from andersonlyap.spectral import EquationKind, KernelSpec


def gaussian_sampler(rng, m):
    return rng.standard_normal(m) + 3.0


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        a = derive_seed(42, "target/a")
        assert a == derive_seed(42, "target/a")
        assert a != derive_seed(42, "target/b")
        assert a != derive_seed(43, "target/a")
        assert 0 <= a < 2 ** 64

    def test_valid_seeds_keep_their_bits(self):
        # the keyed hash of the 8 little-endian bytes of the seed
        assert derive_seed(42, "target/a") == 12352733235450646003
        assert derive_seed(2 ** 64 - 1, "target/a") == 8327097234911409285

    @pytest.mark.parametrize("seed", [-1, -5, 2 ** 64, 2 ** 70])
    def test_rejects_seeds_outside_the_key_range(self, seed):
        with pytest.raises(ParameterError, match=r"\[0, 2\*\*64\)"):
            derive_seed(seed, "target/a")


class TestChunkGenerator:
    @staticmethod
    def draws(subseed, chunk_index):
        return chunk_generator(subseed, chunk_index).random(8)

    def test_repeats_across_calls(self):
        assert self.draws(7, 5).tobytes() == self.draws(7, 5).tobytes()

    def test_neighbouring_keys_differ(self):
        a = self.draws(7, 3)
        for other in (self.draws(7, 4), self.draws(8, 3)):
            assert not np.any(a == other)

    def test_accepts_the_whole_key_range(self):
        # the largest sub-seed, and a chunk index past 32 bits
        top = self.draws(2 ** 64 - 1, 2 ** 32 + 1)
        assert top.tobytes() != self.draws(2 ** 64 - 1, 1).tobytes()

    def test_is_pcg64dxsm(self):
        rng = chunk_generator(1, 0)
        assert isinstance(rng.bit_generator, np.random.PCG64DXSM)


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
        n, subseed, chunk = 150_000, 99, mc.CHUNK_SIZE
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

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_fewer_than_one_thread(self, threads):
        with pytest.raises(ParameterError, match="threads"):
            run_chunked(gaussian_sampler, 100, 1, threads=threads)

    def test_thread_ceiling(self, monkeypatch):
        # the pool is recorded, never started: a ceiling that failed would
        # otherwise start thousands of threads
        pools = []

        def no_pool(max_workers):
            pools.append(max_workers)
            raise RuntimeError("no threads in this test")

        monkeypatch.setattr(mc, "ThreadPoolExecutor", no_pool)
        with pytest.raises(RuntimeError, match="no threads"):
            run_chunked(gaussian_sampler, 2 * mc.CHUNK_SIZE, 1,
                        threads=mc.MAX_THREADS)
        for threads in (mc.MAX_THREADS + 1, 100_000):
            with pytest.raises(ParameterError, match="threads must be at most"):
                run_chunked(gaussian_sampler, 10 ** 9, 1, threads=threads)
        assert pools == [mc.MAX_THREADS]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflowing_variance_raises(self, threads):
        def huge(rng, m):
            return rng.random(m) * 1e300
        with pytest.raises(ConvergenceError, match="overflows"):
            run_chunked(huge, 100_000, 3, threads=threads)


# (base label of order n, the estimate at order n from m samples or paths
# at seed 4, an order whose every weight underflows to 0)
ESTIMATORS = [
    pytest.param(
        lambda n: f"jn_exp_time/heat/b2/riesz_d3_a1.5/n{n}",
        lambda n, m: jn_exp_time_mc(ChaosQuery(
            EquationKind("heat"), KernelSpec("riesz", d=3, alpha=1.5), n),
            m, 4),
        150, id="spectral"),
    pytest.param(
        lambda n: f"tn_bm/d1_a0.5/n{n}/dt0.1",
        lambda n, m: tn_bm_oracle(1, 0.5, n, m, 0.1, 4),
        300, id="path"),
]


@pytest.mark.parametrize("label, run, underflow_n", ESTIMATORS)
def test_both_estimators_share_one_pipeline(label, run, underflow_n):
    # past N_CONFIDENT the weights' variance grows; the suffix does not
    # move the sub-stream
    for n, m, suffix in ((2, 500, ""),
                         (mc.N_CONFIDENT + 1, 500, "|low-confidence")):
        est = run(n, m)
        assert est.target == label(n) + suffix
        assert est.params["subseed"] == derive_seed(4, label(n))
    # one sample has no spread to measure
    with pytest.raises(ParameterError, match=re.escape(
            f"n_samples must be at least 2 for the standard error of "
            f"{label(2)}, got 1")):
        run(2, 1)
    message = (f"the estimate of {label(underflow_n)}, 0, underflows the "
               "double range")
    with pytest.raises(ConvergenceError, match=re.escape(message)):
        run(underflow_n, 200)



@pytest.mark.parametrize("mean, message", [
    (-0.25, "the estimate of signed, -0.25, is negative: its signed weights "
            "cancel past the moment itself"),
    (-1e-310, "the estimate of signed, -1e-310, underflows the double range"),
])
def test_negative_mean_has_its_own_message(mean, message):
    # signed weights, such as the path oracle's two-level ones, can cancel
    # below zero; a mean inside the subnormal range still reads as underflow
    def signed(rng, m):
        return np.full(m, mean)
    with pytest.raises(ConvergenceError, match=re.escape(message)):
        mc.estimate(signed, 10, 1, "signed", 2, {})

class TestMCEstimate:
    def test_z_score(self):
        est = MCEstimate(1.0, 0.1, 100, 0, "demo")
        assert est.z_score(0.7) == pytest.approx(3.0)

    def test_z_score_rounding_floor(self):
        # a zero-variance estimate two ulps from its reference reads at
        # rounding level, not as a deviation of ninety standard errors
        est = MCEstimate(1.0000000000000002, 2.2205570798801421e-18, 10_000,
                         0, "demo")
        assert est.z_score(1.0000000000000004) == pytest.approx(-1 / 16)
        assert MCEstimate(0.0, 0.0, 10, 0, "demo").z_score(0.0) == 0.0

    def test_z_score_rounding_floor_grows_with_the_log(self):
        # white heat weights are exp of a sum of n logs, exact up to the
        # rounding of exp at an argument near -n log 2, so every row reads
        # at rounding level against its exact oracle 2^-n
        for n in range(1, 1023):
            query = ChaosQuery(EquationKind("heat"), KernelSpec("white"), n)
            est = jn_exp_time_mc(query, 10, 0)
            assert abs(est.z_score(exact_moment(query))) < 1.0, n

    def test_error_bound_includes_bias(self):
        est = MCEstimate(2.0, 0.0, 100, 0, "demo",
                         {"tail_frac_bound": 1e-3})
        assert est.error_bound() == pytest.approx(2e-3 / 0.999)
        assert est.z_score(2.0) == 0.0

    def test_error_bound_unbounded_tail(self):
        est = MCEstimate(2.0, 0.1, 100, 0, "demo", {"tail_frac_bound": 1.0})
        assert est.error_bound() == math.inf
        assert math.isnan(est.z_score(1.0))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sq_norms_sum_the_coordinate_axis(d):
    # squares spread over many binades, so that any other order of the
    # additions rounds differently somewhere: the chaos sampler's
    # (n, d, m) chunks and a block of the oracle's (d, rows) positions,
    # a strided view
    rng = np.random.default_rng(d)
    for x in (rng.standard_normal((4, d, 50_000)),
              rng.standard_normal((d, 120_000))[:, 10_000:110_000]):
        x *= rng.exponential(1.0, x.shape[-1]) ** 4
        want = np.square(x).sum(axis=-2)
        assert mc._sq_norms(x).tobytes() == want.tobytes()
        out = np.empty(want.shape)
        assert mc._sq_norms(x, out=out) is out
        assert out.tobytes() == want.tobytes()
