"""Brownian-path oracle against closed forms and the Fourier sampler."""

import math

import numpy as np
import pytest

from andersonlyap import brownian
from andersonlyap.brownian import (_CAP_NODES, KUMMER_SWITCH,
                                   MAX_REFINE_DEPTH, MEAN_TABLE_CELLS,
                                   PATH_CHUNK, REFINE_EVERY, SCORE_BLOCK,
                                   TAU_CLIP,
                                   _bridge_mean, _cap_score, _kummer_neg,
                                   _mean_table,
                                   _retired_score, _zeta_paths,
                                   oracle_plan, tn_bm_oracle)
from andersonlyap.chaos import ChaosQuery, jn_exp_time_mc, t1_exact
from andersonlyap.errors import ConvergenceError, ParameterError
from andersonlyap.mc import N_CONFIDENT, chunk_generator, derive_seed
from andersonlyap.spectral import EquationKind, KernelSpec

SQRT_PI = 1.77245385090551602729816748334
# scalar rows in d = 1, (d, rows) blocks above
ROW_LAYOUTS = [(1, 0.5), (2, 0.8), (3, 1.2)]
# every row layout plus the largest alpha the oracle is checked at
MEAN_CASES = ROW_LAYOUTS + [(3, 1.5)]
# T_2 by the one-dimensional Fourier integral, checked against mpmath to
# 10 digits (ROADMAP item 18)
T2_EXACT = {(1, 0.5): 2.7339459747, (3, 1.5): 1.9499819776}


def unwind(scored_per_depth):
    """The rows split at the first depth listed plus those it retired:
    the rows at depth k + 1 are the halves of those split at depth k."""
    rows = 0
    for scored in reversed(scored_per_depth):
        assert rows % 2 == 0
        rows = scored + rows // 2
    return rows


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
        # one short chunk and a ragged last chunk of one path, at 1 and 2
        # threads; a one-path run has no error bar and is refused
        for n_paths in (2, 2 * PATH_CHUNK + 1):
            a = tn_bm_oracle(d, alpha, 1, n_paths, 2e-3, 5)
            b = tn_bm_oracle(d, alpha, 1, n_paths, 2e-3, 5, threads=2)
            assert math.isfinite(a.mean) and a.mean > 0
            assert (a.mean, a.std_error) == (b.mean, b.std_error)

    # the ids name the arguments alone, so a re-record keeps them
    @pytest.mark.parametrize("d,alpha,n,mean,std_error", [
        pytest.param(1, 0.5, 1, 1.7946033054749477, 0.08796876156554001,
                     id="d1-a0.5-n1"),
        pytest.param(1, 0.5, 2, 2.6126880013718177, 0.2611513314062786,
                     id="d1-a0.5-n2"),
        pytest.param(2, 0.8, 1, 1.32415082387865, 0.05606663205703059,
                     id="d2-a0.8-n1"),
        pytest.param(3, 1.2, 1, 1.147017341221376, 0.03917380131234012,
                     id="d3-a1.2-n1"),
        # every path refines: the third of oracle_plan's regimes
        pytest.param(3, 1.5, 2, 1.863563296808625, 0.11178447922622727,
                     id="d3-a1.5-n2"),
    ])
    def test_pinned_draws(self, d, alpha, n, mean, std_error):
        # any change to the draw order or the refinement rule moves these
        # by about 1e-3 to 1e-2; the tolerance covers SIMD pow on other CPUs
        est = tn_bm_oracle(d, alpha, n, 300, 2e-3, 7)
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0)
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0)

    def test_every_path_refined_is_the_depth_4_estimate(self, monkeypatch):
        # with REFINE_EVERY = 1 each weight is zeta_4^n / n! itself: the
        # pinned value of the estimator that refined every path
        monkeypatch.setattr(brownian, "REFINE_EVERY", 1)
        est = tn_bm_oracle(1, 0.5, 2, 300, 2e-3, 7)
        assert est.mean == pytest.approx(2.6226210184428247, rel=1e-12, abs=0)
        assert est.std_error == pytest.approx(0.2626377198295489, rel=1e-12,
                                              abs=0)

    @pytest.mark.parametrize("m", [1, PATH_CHUNK])
    @pytest.mark.parametrize("d,alpha", ROW_LAYOUTS)
    def test_bits_do_not_depend_on_the_block_size(self, monkeypatch, d,
                                                  alpha, m):
        # one block, the default, and ragged blocks of 7 rows: the
        # per-path sums stay chunk-wide, so every bit must agree, at T_1's
        # depth 0, which only bridge-scores, and at the cap depth of n >= 2,
        # every path refining or one in REFINE_EVERY
        table = _mean_table(d, alpha)
        for depth, every in ((0, 1), (MAX_REFINE_DEPTH, 1),
                             (MAX_REFINE_DEPTH, REFINE_EVERY)):
            runs = []
            for block in (1 << 40, SCORE_BLOCK, 7):
                monkeypatch.setattr(brownian, "SCORE_BLOCK", block)
                zeta_0, zeta_refined, scored = _zeta_paths(
                    chunk_generator(11, 0), m, d, alpha, 2e-3, table, depth,
                    every)
                runs.append((zeta_0 is None or zeta_0.tobytes(),
                             zeta_refined.tobytes(), scored))
            assert runs[0] == runs[1] == runs[2]
            assert len(scored) == depth + 1
            # paths 0, every, 2 every, ... refine; zeta_0 is kept only
            # where some path does not
            assert zeta_refined.size == len(range(0, m, every))
            assert (zeta_0 is None) == (every == 1)

    @pytest.mark.parametrize("d,alpha,n,time_step,every", [
        (1, 0.5, 2, 2e-3, REFINE_EVERY),
        (1, 0.25, 8, 1e-3, REFINE_EVERY),
        (1, 0.5, 1, 2e-3, 1),    # T_1 halves nothing
        (3, 1.5, 1, 0.1, 1),
        (1, 0.5, 9, 2e-3, 1),    # past SUBSAMPLE_MAX_N
        (1, 0.75, 2, 2e-3, 1),   # past SUBSAMPLE_MAX_ALPHA
        (1, 0.5, 2, 4e-3, 1),    # past SUBSAMPLE_MAX_STEP
        (2, 0.5, 2, 2e-3, 1),    # d >= 2 refines every path
        (3, 1.5, 4, 2e-3, 1),
    ])
    def test_refine_every(self, d, alpha, n, time_step, every):
        # oracle_plan: T_1 lays its paths out 16 times coarser and halves
        # nothing; n >= 2 lays them out at the step and halves to the cap
        step, depth = (16 * time_step, 0) if n == 1 else (time_step, 4)
        assert oracle_plan(d, alpha, n, time_step) == (step, depth, every)
        est = tn_bm_oracle(d, alpha, n, 2, time_step, 3)
        assert (est.params["max_refine_depth"],
                est.params["refine_every"]) == (depth, every)

    def test_ragged_chunk_weights_its_correction_by_its_share(self):
        # two paths, one of them refined: its correction is weighted by
        # 2, so that the chunk's sum has the depth-4 mean
        est = tn_bm_oracle(1, 0.5, 2, 2, 2e-3, 5)
        zeta_0, zeta_4, _ = _zeta_paths(
            chunk_generator(est.params["subseed"], 0), 2, 1, 0.5, 2e-3,
            _mean_table(1, 0.5), MAX_REFINE_DEPTH, REFINE_EVERY)
        y = zeta_0 ** 2 / 2
        y[0] += 2 * (zeta_4[0] ** 2 / 2 - y[0])
        assert est.mean == pytest.approx(y.mean(), rel=1e-12, abs=0)

    def test_low_confidence_label(self):
        # labelled past N_CONFIDENT like the Fourier rows; the label
        # suffix leaves the sub-seed, and so the draws, as they were
        for n in (N_CONFIDENT, N_CONFIDENT + 1):
            est = tn_bm_oracle(1, 0.5, n, 64, 0.1, 3)
            label = f"tn_bm/d1_a0.5/n{n}/dt0.1"
            assert est.params["subseed"] == derive_seed(3, label)
            if n > N_CONFIDENT:
                label += "|low-confidence"
            assert est.target == label

    def test_underflow_is_a_convergence_error(self):
        # zeta^300 / 300! underflows to 0 on every path: no estimate
        with pytest.raises(ConvergenceError, match="underflows"):
            tn_bm_oracle(1, 0.5, 300, 100, 2e-3, 0)

    @pytest.mark.parametrize("d,alpha", ROW_LAYOUTS)
    def test_scored_per_depth(self, monkeypatch, d, alpha):
        n_paths, dt = 2 * PATH_CHUNK + 1, 2e-3
        for n, depth in ((1, 0), (2, MAX_REFINE_DEPTH)):
            a = tn_bm_oracle(d, alpha, n, n_paths, dt, 5)
            b = tn_bm_oracle(d, alpha, n, n_paths, dt, 5, threads=2)
            assert a.params["max_refine_depth"] == depth
            # the d = 1 layout has alpha 1/2, where n = 2 subsamples
            every = REFINE_EVERY if d == 1 and n == 2 else 1
            assert a.params["refine_every"] == every
            hist = a.params["scored_per_depth"]
            assert hist == b.params["scored_per_depth"]
            assert (a.mean, a.std_error) == (b.mean, b.std_error)
            assert len(hist) == depth + 1 and hist[-1] > 0
            # each chunk's stream draws its exponential horizons first
            tau = np.concatenate([
                chunk_generator(a.params["subseed"], i).exponential(1.0, m)
                for i, m in enumerate((PATH_CHUNK, PATH_CHUNK, 1))
            ])
            tau = np.minimum(tau, TAU_CLIP)
            if depth == 0:
                # T_1 halves nothing: it bridge-scores every step of a
                # grid 2^MAX_REFINE_DEPTH times coarser than the time step
                coarse = dt * 2 ** MAX_REFINE_DEPTH
                assert hist == [np.maximum(np.ceil(tau / coarse), 1).sum()]
                continue
            steps = np.maximum(np.ceil(tau / dt), 1).sum()
            if every == 1:
                # the rows at depth k + 1 are the halves of those split at
                # depth k, so unwinding from the last depth recovers the
                # step count
                assert unwind(hist) == steps and sum(hist) >= steps
                continue
            # depth 0 scores every step, its flagged ones bridge-scored;
            # the depths below unwind to the refined paths' flagged steps,
            # fewer than every path's
            assert hist[0] == steps
            monkeypatch.setattr(brownian, "REFINE_EVERY", 1)
            full = tn_bm_oracle(d, alpha, n, n_paths, dt, 5)
            monkeypatch.undo()
            every_path = full.params["scored_per_depth"]
            assert unwind(every_path) == steps
            split = unwind(hist[1:])
            assert split % 2 == 0
            assert 0 < split // 2 < steps - every_path[0]
            assert all(e > h for e, h in zip(every_path[1:], hist[1:]))

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
            (3, 1.9, 1, 1e-3),   # alpha > 3/2, past the cap rule's grading
            (2, 1.7, 2, 1e-3),
            (3, 1.51, 3, 1e-3),
        ],
    )
    def test_parameter_errors(self, d, alpha, n, dt):
        with pytest.raises(ParameterError):
            tn_bm_oracle(d, alpha, n, 100, dt, 0)

    @pytest.mark.parametrize("d,alpha", MEAN_CASES)
    def test_t1_covers_the_closed_form(self, d, alpha):
        # five fixed seeds pooled: T_1 bridge-scores every step of its
        # coarse grid, so what is left is the cap rule's own error, which
        # read -0.14 % at d = 3, alpha = 3/2 over 1M paths
        ests = [tn_bm_oracle(d, alpha, 1, 10_000, 2e-3, seed)
                for seed in (1, 2, 3, 4, 5)]
        mean = sum(e.mean for e in ests) / len(ests)
        se = math.hypot(*(e.std_error for e in ests)) / len(ests)
        exact = t1_exact(KernelSpec("riesz", d=d, alpha=alpha))
        assert abs(mean - exact) < 3.0 * se

    @pytest.mark.parametrize("d,alpha", sorted(T2_EXACT))
    def test_t2_covers_the_closed_form(self, d, alpha):
        # five fixed seeds pooled, as for T_1: at d = 1 the two-level
        # weights keep the depth-4 estimator's mean, and at d = 3 every
        # path refines, so T_2 covers its closed form at both
        ests = [tn_bm_oracle(d, alpha, 2, 10_000, 2e-3, seed)
                for seed in (1, 2, 3, 4, 5)]
        mean = sum(e.mean for e in ests) / len(ests)
        se = math.hypot(*(e.std_error for e in ests)) / len(ests)
        assert abs(mean - T2_EXACT[d, alpha]) < 3.0 * se

    def test_t1_no_cap_bias_at_large_alpha(self):
        # at d = 3, alpha = 1.5 scoring the cap-depth rows by their
        # midpoint read T_1 3.4 % low at this seed (z = -9.7); the bridge
        # integral at the cap removes that bias
        kernel = KernelSpec("riesz", d=3, alpha=1.5)
        est = tn_bm_oracle(3, 1.5, 1, 20_000, 2e-3, 21, threads=2)
        assert abs(est.z_score(t1_exact(kernel))) < 3.0


def g0(d, alpha):
    """E|Z|^(-alpha) for Z standard normal in d dimensions."""
    return 2.0 ** (-alpha / 2) * math.gamma((d - alpha) / 2) / math.gamma(d / 2)


def gauss_mean(d, alpha, y):
    """G(y) = E|Z + y e|^(-alpha) from the table, e along the first axis."""
    c = np.zeros((d, len(y))) if d > 1 else np.zeros(len(y))
    c.reshape(-1, len(y))[0] = y
    return _bridge_mean(_mean_table(d, alpha), alpha, c, np.ones(len(y)))


def gauss_mean_direct(d, alpha, y2):
    """G from Kummer's function at |y|^2 = y2, with no table."""
    return g0(d, alpha) * _kummer_neg(alpha / 2, d / 2, 0.5 * y2)


class TestConditionalMean:
    """E|N(c, var I_d)|^(-alpha), the score of a retired interval."""

    @pytest.mark.parametrize("d,alpha", MEAN_CASES)
    def test_kummer_against_mpmath(self, d, alpha):
        mp = pytest.importorskip("mpmath")
        # both sides of the switch between the two series
        z = np.array([0.0, 1e-9, 0.3, 7.0, 31.0, 49.99, KUMMER_SWITCH,
                      np.nextafter(KUMMER_SWITCH, np.inf), 50.01, 64.0,
                      1e3, 1e7, 1e300])
        got = _kummer_neg(alpha / 2, d / 2, z)
        with mp.workdps(40):
            want = [float(mp.hyp1f1(alpha / 2, d / 2, -mp.mpf(x)))
                    for x in z]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("d,alpha", MEAN_CASES)
    def test_table_nodes_and_far_end(self, d, alpha):
        values, slopes = _mean_table(d, alpha)
        assert values.shape == slopes.shape == (MEAN_TABLE_CELLS + 1,)
        assert np.all(np.isfinite(values)) and np.all(values > 0)
        # the last node is the s -> 1 limit; s = 1 itself reads it
        assert values[-1] == 1.0 and slopes[-1] == 0.0
        s = np.arange(MEAN_TABLE_CELLS) / MEAN_TABLE_CELLS
        y2 = s / (1.0 - s)
        np.testing.assert_allclose(
            values[:-1], gauss_mean_direct(d, alpha, y2) * (1 + y2)
            ** (alpha / 2), rtol=1e-13)
        # |c|^2 = 1e300 puts s at 1.0 exactly
        got = gauss_mean(d, alpha, np.array([1e150, 1e200 ** 0.5]))
        np.testing.assert_allclose(got, [1e-150 ** alpha, 1e-100 ** alpha],
                                   rtol=1e-12)

    @pytest.mark.parametrize("d,alpha", MEAN_CASES)
    def test_interpolation_off_grid(self, d, alpha):
        # cell midpoints, where linear interpolation errs most, and
        # random points; the error is h^2 / 8 |H''| with h = 2^-13, at
        # most 2.8e-8 relative (d = 1, alpha = 1/2, s near 0.92)
        rng = np.random.default_rng(3)
        s = np.concatenate([
            (np.arange(MEAN_TABLE_CELLS) + 0.5) / MEAN_TABLE_CELLS,
            rng.uniform(0.0, 1.0, 5000),
        ])
        y2 = s / (1.0 - s)
        np.testing.assert_allclose(gauss_mean(d, alpha, np.sqrt(y2)),
                                   gauss_mean_direct(d, alpha, y2),
                                   rtol=4e-8)

    @pytest.mark.parametrize("d,alpha", MEAN_CASES)
    def test_limits(self, d, alpha):
        assert gauss_mean(d, alpha, np.zeros(1))[0] == pytest.approx(
            g0(d, alpha), rel=1e-15)
        # y^alpha G(y) -> 1, from the table and from the series
        y = np.array([1e4, 1e8, 1e100])
        np.testing.assert_allclose(y ** alpha * gauss_mean(d, alpha, y), 1.0,
                                   rtol=1e-8)
        np.testing.assert_allclose(
            y ** alpha * gauss_mean_direct(d, alpha, y * y), 1.0, rtol=1e-8)

    @pytest.mark.parametrize("d,alpha", MEAN_CASES)
    def test_gaussian_mean_by_quadrature(self, d, alpha):
        # the Kummer closed form against the radial law of |Z + y e|
        from scipy.integrate import quad
        from scipy.special import i0e

        def density(r, y):  # of |Z + y e|, with r^(d-1) included
            if d == 1:
                return (math.exp(-0.5 * (r - y) ** 2)
                        + math.exp(-0.5 * (r + y) ** 2)) / math.sqrt(2 * math.pi)
            if d == 2:
                return r * math.exp(-0.5 * (r - y) ** 2) * i0e(r * y)
            return (r / y) * (math.exp(-0.5 * (r - y) ** 2)
                              - math.exp(-0.5 * (r + y) ** 2)) / math.sqrt(
                                  2 * math.pi)

        def mean(y):
            # the r^(-alpha) end and the bulk near r = y apart
            return sum(quad(lambda r: r ** -alpha * density(r, y), lo, hi,
                            epsabs=0.0, epsrel=1e-12, limit=200)[0]
                       for lo, hi in ((0.0, 0.5), (0.5, y + 0.5),
                                      (y + 0.5, np.inf)))

        ys = np.array([0.3, 1.0, 2.5, 6.0])
        want = [mean(y) for y in ys]
        np.testing.assert_allclose(gauss_mean_direct(d, alpha, ys * ys), want,
                                   rtol=1e-9)

    @pytest.mark.parametrize("d,alpha", MEAN_CASES)
    def test_cap_score_by_quadrature(self, d, alpha):
        # the bridge integral the cap rule approximates, from the origin
        # to |b| e over L = 1: with the weight (s (1 - s))^(-alpha/2) taken
        # out, the integrand is 2^(-alpha/2) G(y), where y, the bridge
        # mean over its standard deviation, is |b| s / sqrt(2 s (1 - s))
        from scipy.integrate import quad

        def smooth(s, b):
            if b == 0.0 or s == 0.0:
                return 2.0 ** (-alpha / 2) * g0(d, alpha)
            if s == 1.0:  # G(y) ~ y^(-alpha) -> 0
                return 0.0
            y2 = b * b * s / (2.0 * (1.0 - s))
            return 2.0 ** (-alpha / 2) * gauss_mean_direct(
                d, alpha, np.array([y2]))[0]

        table = _mean_table(d, alpha)
        left = np.zeros((d, 1) if d > 1 else 1)
        for b in (0.0, 1.0, 3.0):
            want = quad(smooth, 0.0, 1.0, args=(b,), weight="alg",
                        wvar=(-alpha / 2, -alpha / 2), epsabs=0.0,
                        epsrel=1e-10, limit=200)[0]
            right = left.copy()
            right[(0,) * right.ndim] = b
            got = _cap_score(table, alpha, left, right, np.ones(1))[0]
            # the 3-node rule errs by -0.03 % to -0.76 % on these rows
            assert got == pytest.approx(want, rel=1e-2)

    @pytest.mark.parametrize("d,alpha", MEAN_CASES)
    def test_scores_are_bounded(self, d, alpha):
        # the score of a retired row peaks at c = 0, at L (L/2)^(-alpha/2)
        # G(0), and a cap row's at both ends on the origin, K times that;
        # so no score passes a constant times L^(1 - alpha/2) and every
        # moment of zeta is finite
        table = _mean_table(d, alpha)
        rng = np.random.default_rng(11)
        m = 20_000
        L = 2e-3 * 0.5 ** rng.integers(0, MAX_REFINE_DEPTH + 1, m)
        # ends within a few sqrt(L) of the origin, some exactly on it
        shape = (d, m) if d > 1 else (m,)
        scale = np.sqrt(L)
        left = rng.normal(0.0, 1.0, shape) * scale * rng.uniform(0, 4, m)
        right = left + rng.normal(0.0, 1.0, shape) * scale * np.sqrt(2.0)
        left[..., :100] = 0.0
        right[..., :100] = 0.0
        right[..., 100:200] = -left[..., 100:200]
        peak = L * (L / 2) ** (-alpha / 2) * g0(d, alpha)
        K = sum(2 * weight * (2 * var) ** (-alpha / 2)
                for _, var, weight in _CAP_NODES)
        # rounding of the products only
        retired = _retired_score(table, alpha, left, right, L)
        assert np.all(retired <= peak * (1 + 1e-14))
        np.testing.assert_allclose(retired[:100], peak[:100], rtol=1e-14)
        cap = _cap_score(table, alpha, left, right, L)
        assert np.all(cap <= K * peak * (1 + 1e-14))
        np.testing.assert_allclose(cap[:100], K * peak[:100], rtol=1e-14)
        # the graded rule integrates the endpoint singularity of
        # (s (L - s))^(-alpha/2): K is 4^(-alpha/2) B(1 - alpha/2, 1 - alpha/2)
        a = alpha / 2
        exact = 4 ** -a * math.gamma(1 - a) ** 2 / math.gamma(2 - 2 * a)
        assert K == pytest.approx(exact, rel=5e-3)
