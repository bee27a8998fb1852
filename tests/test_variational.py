"""Eigensolver controls, grid convergence and the exact functional algebra."""

import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from andersonlyap import variational
from andersonlyap.asymptotics import _log_functionals, remark14_residual
from andersonlyap.cli import main
from andersonlyap.errors import ConvergenceError, ParameterError
from andersonlyap.spectral import KernelSpec, riesz_constant
from andersonlyap.variational import (
    DEFAULT_TOL,
    _AngularProfile2D,
    _kernel_column_1d,
    _solve_1d,
    _toeplitz_matvec_factory,
    _truncation_bound_1d,
    power_iteration,
    rho_eigen,
)


def _matvec_1d(alpha, R, m, beta_l=2.0):
    h = 2.0 * R / m
    xi = -R + (np.arange(m) + 0.5) * h
    w = 1.0 / np.sqrt(1.0 + np.abs(xi) ** beta_l)
    tmv = _toeplitz_matvec_factory(
        _kernel_column_1d(KernelSpec("riesz", d=1, alpha=alpha), h, m))
    return lambda v: h * w * tmv(w * v), xi


class TestPowerIteration:
    def test_separable_two_by_two(self):
        # K = u (x) v + v (x) u on a quadrature grid; its top eigenvalue
        # is exactly <u,v> + ||u|| ||v|| in the discrete inner product
        R, m = 12.0, 801
        h = 2.0 * R / m
        x = -R + (np.arange(m) + 0.5) * h
        u = np.exp(-x * x)
        v = np.exp(-0.5 * (x - 1.0) ** 2)
        mat = h * (np.outer(u, v) + np.outer(v, u))
        uv = h * float(u @ v)
        top = uv + math.sqrt(h * float(u @ u) * h * float(v @ v))
        lam, vec, _, res = power_iteration(lambda y: mat @ y,
                                           np.ones(m), 1e-12, 2000)
        assert lam == pytest.approx(top, abs=1e-8 * top)
        assert res < 1e-10

    def test_convergence_error_carries_residual(self):
        mat = np.diag([2.0, 1.0])
        with pytest.raises(ConvergenceError) as err:
            power_iteration(lambda v: mat @ v, np.array([1.0, 1.0]),
                            1e-16, 3)
        assert err.value.residual is not None

    def test_non_finite_iterate_stops_at_once(self):
        calls = []

        def matvec(v):
            calls.append(1)
            return np.full_like(v, math.nan if len(calls) == 2 else 1.0)

        with pytest.raises(ConvergenceError, match="non-finite iterate at "
                                                   "step 2"):
            power_iteration(matvec, np.array([1.0, 2.0]), 1e-16, 5000)
        assert len(calls) == 2

    @pytest.mark.parametrize("v0", [[0.0, 0.0], [math.inf, 1.0],
                                    [1e-200, 1e-200]])
    def test_start_vector_outside_the_double_range(self, v0):
        with pytest.raises(ConvergenceError, match="start vector"):
            power_iteration(lambda v: v, np.array(v0), 1e-8, 10)


class TestFlatControl:
    def test_truncated_closed_form(self):
        # the discrete rank-one eigenvalue equals arctan(R)/pi exactly
        # up to quadrature error, which the tan-free grid keeps tiny
        est = rho_eigen(1, 1.0, profile="flat", R=50.0, m=2048,
                        refine_tol=1.0)
        assert est.value == pytest.approx(math.atan(50.0) / math.pi,
                                          abs=1e-9)

    def test_flat_profile_guards(self):
        with pytest.raises(ParameterError):
            rho_eigen(2, 1.0, profile="flat")
        with pytest.raises(ParameterError):
            rho_eigen(1, 0.5, profile="sombrero")


class TestRieszSolver:
    def test_matvec_symmetry(self):
        matvec, _ = _matvec_1d(0.5, 50.0, 512)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(512)
            y = rng.standard_normal(512)
            lhs = float(y @ matvec(x))
            rhs = float(x @ matvec(y))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_eigenvector_even(self):
        lam, vec, _, _ = _solve_1d(KernelSpec("riesz", d=1, alpha=0.5), 2.0,
                                   50.0, 1024)
        assert lam > 0
        assert np.allclose(vec, vec[::-1], atol=1e-8)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_grid_convergence_monotone(self, alpha):
        gaps = []
        for m in (512, 1024, 2048):
            kernel = KernelSpec("riesz", d=1, alpha=alpha)
            lam_c, _, _, _ = _solve_1d(kernel, 2.0, 50.0, m)
            lam_f, _, _, _ = _solve_1d(kernel, 2.0, 50.0, 2 * m)
            gaps.append(abs(lam_f - lam_c))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_refinement_stability(self):
        a = rho_eigen(1, 0.5, R=50.0, m=2048)
        b = rho_eigen(1, 0.5, R=100.0, m=4096)
        assert abs(a.value - b.value) / b.value < 0.01

    def test_metadata(self):
        est = rho_eigen(1, 0.5, m=1024, refine_tol=1.0)
        assert est.residual < 1e-8
        assert est.grid_points == 2048
        assert est.richardson_pair is not None
        assert est.params["truncation_bound"] > 0
        d = asdict(est)
        assert d["value"] == est.value

    def test_auto_refinement_engages(self):
        est = rho_eigen(1, 0.5, m=1024)
        assert est.params["grid_refinements"] >= 1
        assert est.params["richardson_gap"] <= 1e-3
        assert est.grid_points > 2048

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            rho_eigen(4, 0.5)
        with pytest.raises(ParameterError):
            rho_eigen(1, 1.5)
        with pytest.raises(ParameterError):
            rho_eigen(2, 1.0, beta_l=0.9)

    @pytest.mark.parametrize("d, R, named", [
        (1, math.nan, "R=nan"), (1, math.inf, "R=inf"),
        *[(d, 1e300, "R=1e+300") for d in (1, 2, 3)],
    ], ids=["nan", "inf", "1e300-d1", "1e300-d2", "1e300-d3"])
    def test_rejects_radius_outside_the_model(self, d, R, named):
        # R is a library argument only: the CLI solves on its own grid
        with pytest.raises(ParameterError) as err:
            rho_eigen(d, 0.5, R=R)
        assert named in str(err.value)

    def test_non_convergence(self, monkeypatch):
        # a power iteration held to 3 steps at tol 1e-15 cannot converge
        iterate = variational.power_iteration
        monkeypatch.setattr(
            variational, "power_iteration",
            lambda matvec, v0, tol, max_iters: iterate(matvec, v0, 1e-15, 3))
        with pytest.raises(ConvergenceError) as err:
            rho_eigen(1, 0.5, m=256)
        assert err.value.residual is not None

    @pytest.mark.parametrize("setting", [{"tol": 1e-12}, {"max_iters": 3}],
                             ids=["tol", "max_iters"])
    def test_tolerances_are_the_solvers_own(self, setting):
        with pytest.raises(TypeError):
            rho_eigen(1, 0.5, m=256, **setting)

    def test_unrefined_pair_is_a_convergence_error(self):
        est = rho_eigen(1, 0.5, m=256, refine_tol=1e-12)
        assert est.params["richardson_gap"] > 1e-12
        with pytest.raises(ConvergenceError, match="above refine_tol") as err:
            est.require_refined()
        assert err.value.residual == est.params["richardson_gap"]
        relaxed = rho_eigen(1, 0.5, m=256, refine_tol=1.0)
        assert relaxed.require_refined() is relaxed


class TestTruncationBound:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_bounds_quadrature(self, alpha):
        # the row integral itself, c * int u^(a-1) (1 + (R+u)^2)^(-1/2)
        R = 50.0

        def f(u):
            return u ** (alpha - 1.0) / math.sqrt(1.0 + (R + u) ** 2)

        ref = riesz_constant(1, alpha) * (
            quad(f, 0.0, 1.0)[0] + quad(f, 1.0, math.inf)[0]
        )
        bound = _truncation_bound_1d(KernelSpec("riesz", d=1, alpha=alpha),
                                     2.0, R)
        assert ref <= bound <= ref * (1.0 + 1e-3)

    def test_divergent_row_integral(self, capsys):
        # alpha >= beta_l / 2: the row integral diverges, so no finite bound
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["rho", "--family", "riesz", "--d", "1", "--alpha",
                         "0.9", "--beta-l", "1.5", "--format", "json"])
        out = capsys.readouterr()
        assert code == 0
        assert json.loads(out.out)["params"]["truncation_bound"] is None
        assert "IntegrationWarning" not in out.err
        assert not [w for w in caught
                    if issubclass(w.category, IntegrationWarning)]


class TestRadialSolver:
    @pytest.mark.parametrize("d,alpha", [(2, 0.5), (2, 1.0), (2, 1.5),
                                         (3, 0.5), (3, 1.0)])
    def test_positive_and_stable(self, d, alpha):
        est = rho_eigen(d, alpha, R=30.0, m=200, refine_tol=1.0)
        assert est.value > 0
        gap = abs(est.richardson_pair[1] - est.richardson_pair[0])
        assert gap / est.value < 0.02

    @staticmethod
    def _dense_d3(alpha, R, m):
        # the closed-form d = 3 radial matrix: angular average of
        # |xi - eta|^(alpha-3) times (r s) on the midpoint grid, diagonal
        # cells averaged exactly over the |r - s| singularity
        h = R / m
        r = (np.arange(m) + 0.5) * h
        ri, rj = r[:, None], r[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            if alpha == 1.0:
                ang = np.log((ri + rj) / np.abs(ri - rj)) / (2 * ri * rj)
                diag = (np.log(2 * r) + 1 - math.log(h / 2)) / (2 * r * r)
            else:
                ang = ((ri + rj) ** (alpha - 1)
                       - np.abs(ri - rj) ** (alpha - 1)) \
                    / (2 * ri * rj * (alpha - 1))
                cell = h ** (alpha - 1) * 2 ** (1 - alpha) / alpha
                diag = ((2 * r) ** (alpha - 1) - cell) \
                    / (2 * r * r * (alpha - 1))
        np.fill_diagonal(ang, diag)
        w = 1 / np.sqrt(1 + r * r)
        mat = h * 4 * math.pi * riesz_constant(3, alpha) * ang * ri * rj \
            * np.outer(w, w)
        return np.linalg.eigvalsh(mat)[-1]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_d3_matches_dense_radial_matrix(self, alpha):
        est = rho_eigen(3, alpha, R=20.0, m=150, refine_tol=1.0)
        assert est.grid_points == 300
        coarse, fine = est.richardson_pair
        assert coarse == pytest.approx(self._dense_d3(alpha, 20.0, 150),
                                       rel=1e-12)
        assert fine == pytest.approx(self._dense_d3(alpha, 20.0, 300),
                                     rel=1e-12)

    @pytest.mark.parametrize("alpha,value,points,refinements", [
        (0.5, 0.5356237121276748, 4800, 2),
        (1.0, 0.4995138030925721, 2400, 1),
        (1.5, 0.7364190063341642, 1200, 0),
    ])
    def test_d3_default_grid(self, alpha, value, points, refinements):
        # values of the dense radial solver this path replaced
        est = rho_eigen(3, alpha)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.grid_points == points
        assert est.params["grid_refinements"] == refinements

    @pytest.mark.parametrize("alpha", [1.0 - 1e-12, 1.0 + 1e-12])
    def test_d3_continuous_at_alpha_one(self, alpha):
        # the d = 3 column's 1/(1 - alpha) constant must not cost digits
        est = rho_eigen(3, alpha)
        assert abs(est.value - rho_eigen(3, 1.0).value) < 1e-10
        assert est.residual < DEFAULT_TOL

    def test_refinement_reuses_fine_solve(self, monkeypatch):
        # grids 600, 1200, 2400, 4800: each solved once, the fine solve
        # of one pair serving as the coarse solve of the next
        calls = []
        solve = variational._solve_1d

        def counted(*args):
            calls.append(args[3])
            return solve(*args)

        monkeypatch.setattr(variational, "_solve_1d", counted)
        est = rho_eigen(3, 0.5)
        assert calls == [600, 1200, 2400, 4800]
        assert est.value == pytest.approx(0.5356237121276748, rel=1e-12)
        assert est.richardson_pair[0] == pytest.approx(0.5344618992477286,
                                                       rel=1e-12)
        # every level counted: 43 + 32 + 30 + 28, each warm-started
        assert est.power_iterations == 133

    @pytest.mark.parametrize("alpha,value", [
        (0.5, 0.7154459175312442),
        (1.0, 0.9987933394089217),
        (1.5, 2.953910693340849),
    ])
    def test_d2_default_grid(self, alpha, value):
        # values of the spline-tabulated angular kernel this evaluator
        # replaced, whose interpolation error was about 1e-9; not so at
        # alpha = 1.5, whose diagonal cells now take the alpha < 1 rule
        est = rho_eigen(2, alpha)
        assert est.value == pytest.approx(value, rel=1e-9)
        assert est.grid_points == 1200
        assert est.params["grid_refinements"] == 0

    def test_d2_default_grid_is_converged_above_alpha_one(self):
        # the default 1200-point value must sit near the 2400-point one,
        # which a diagonal rule with an O(1) cell error does not
        est = rho_eigen(2, 1.5)
        fine = rho_eigen(2, 1.5, m=1200, refine_tol=1.0)
        assert est.value == pytest.approx(fine.value, rel=1e-4)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_unit_matrix_scales_to_any_spacing(self, alpha):
        # the direct fill at spacing h, the reference: h^(alpha-2) times
        # the leading block of the unit-grid matrix must reproduce it
        m, h = 40, 30.0 / 40
        r = (np.arange(m) + 0.5) * h
        prof = _AngularProfile2D(alpha)
        ra, rb = np.maximum.outer(r, r), np.minimum.outer(r, r)
        off = ~np.eye(m, dtype=bool)
        direct = np.zeros((m, m))
        direct[off] = prof(ra[off], rb[off])
        np.fill_diagonal(direct,
                         variational._diag_angular_avg(alpha, r, h, prof))
        unit = [np.zeros((0, 0))]
        variational._solve_radial(alpha, 2.0, 30.0, 2 * m, unit=unit)
        np.testing.assert_allclose(h ** (alpha - 2.0) * unit[0][:m, :m],
                                   direct, rtol=1e-13, atol=0.0)

    def test_refinement_grows_one_unit_matrix(self, monkeypatch):
        # grids 600 to 4800: each lower-triangle entry of the final
        # 4800-point unit matrix is evaluated once, and each diagonal
        # entry takes one call at its half-cell offset
        evaluated = []
        profile = variational._AngularProfile2D.__call__

        def counted(self, ra, rb):
            evaluated.append(ra.size)
            return profile(self, ra, rb)

        monkeypatch.setattr(variational._AngularProfile2D, "__call__",
                            counted)
        est = rho_eigen(2, 1.1).require_refined()
        assert est.grid_points == 4800
        assert est.params["grid_refinements"] == 2
        assert sum(evaluated) == 4800 * 4799 // 2 + 4800
        assert est.value == pytest.approx(1.1510364069151302, rel=1e-12)

    def test_warm_start_matches_cold_levels(self, monkeypatch):
        # each finer level starts from the coarser eigenvector; every
        # level must give what a cold solve of it gives, and over these
        # cases (not in each: d = 2 alpha = 1 takes one more) the
        # iteration total falls
        solvers = {name: getattr(variational, name)
                   for name in ("_solve_1d", "_solve_radial")}
        warm_total = cold_total = 0
        for d, alpha, profile in [(1, 0.5, "riesz"), (1, 0.9, "riesz"),
                                  (1, 1.0, "flat"), (2, 0.5, "riesz"),
                                  (2, 1.0, "riesz"), (2, 1.5, "riesz"),
                                  (3, 0.5, "riesz"), (3, 1.0, "riesz"),
                                  (3, 1.5, "riesz")]:
            name, n_args = ("_solve_radial", 4) if d == 2 else ("_solve_1d", 4)
            warm, cold = [], []

            def recorded(*args, solve=solvers[name], n_args=n_args,
                         warm=warm, cold=cold, **kwargs):
                out = solve(*args, **kwargs)
                warm.append(out[2])
                # no start vector, and d = 2 on a unit matrix of its own
                fresh = {"unit": [np.zeros((0, 0))]} if kwargs else {}
                cold.append(solve(*args[:n_args], **fresh))
                return out

            monkeypatch.setattr(variational, name, recorded)
            est = rho_eigen(d, alpha, profile=profile)
            assert len(warm) == 2 + est.params["grid_refinements"]
            assert est.power_iterations == sum(warm)
            assert est.richardson_pair == pytest.approx(
                (cold[-2][0], cold[-1][0]), rel=1e-12)
            assert est.value == est.richardson_pair[1]
            warm_total += sum(warm)
            cold_total += sum(c[2] for c in cold)
        assert warm_total < cold_total


class TestAngularProfile2D:
    """The d = 2 angular average (2rs)^p g(x), g(x) = (x+1)^p
    2F1(-p, 1/2; 1; 2/(x+1)), p = (alpha-2)/2, x = (r^2+s^2)/(2rs), and
    its x -> 1 constants, against mpmath."""

    ALPHAS = [0.5, 0.9, 1.0, 1.5]

    @staticmethod
    def _g_mp(mp, alpha, e):
        p = (mp.mpf(alpha) - 2) / 2
        return (e + 2) ** p * mp.hyp2f1(-p, mp.mpf(1) / 2, 1, 2 / (e + 2))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_table_values(self, alpha):
        mp = pytest.importorskip("mpmath")
        split = math.exp(-1.0)  # s/r where the series switch
        pairs = [(2400.5, 2399.5), (1.5, 0.5), (0.75, 0.25), (1.0, 1.0 - 1e-6),
                 (1.0, 0.99), (1.0, 0.7), (1.0, split * (1.0 + 1e-12)),
                 (1.0, split), (1.0, split * (1.0 - 1e-12)), (1.0, 0.2),
                 (2400.5, 0.5), (1e5, 1.0)]
        ra, rb = (np.array(v) for v in zip(*pairs))
        got = _AngularProfile2D(alpha)(ra, rb)
        # x - 1 = (r-s)^2/(2rs) taken exactly from the float pair
        with mp.workdps(45):
            p = (mp.mpf(alpha) - 2) / 2
            want = []
            for r, s in pairs:
                r, s = mp.mpf(r), mp.mpf(s)
                want.append(float((2 * r * s) ** p * self._g_mp(
                    mp, alpha, (r - s) ** 2 / (2 * r * s))))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    def test_singular_coefficient(self, alpha):
        # g(1+e) = c_sing e^s + O(1) with s = (alpha-1)/2 < 0: at
        # e = 10^-k the finite part is 10^-(k|s|) of the leading term
        mp = pytest.importorskip("mpmath")
        s = (alpha - 1.0) / 2.0
        k = int(20 / -s)
        with mp.workdps(k + 30):
            e = mp.mpf(10) ** -k
            limit = self._g_mp(mp, alpha, e) * e ** -mp.mpf(s)
        prof = _AngularProfile2D(alpha)
        assert prof.c_sing == pytest.approx(float(limit), rel=1e-13)

    def test_log_coefficient(self):
        # alpha = 1: g(1+e) = (sqrt(2)/pi) (c_log - log(e)/2) + O(e log e)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(80):
            e = mp.mpf(10) ** -40
            limit = mp.pi * self._g_mp(mp, 1.0, e) / mp.sqrt(2) \
                + mp.log(e) / 2
        prof = _AngularProfile2D(1.0)
        assert prof.c_log == pytest.approx(float(limit), rel=1e-14)


def functionals(alpha, rho):
    """(e_a1, e, e2) from their log-space home."""
    return [math.exp(v) for v in _log_functionals(alpha, rho)]


class TestFunctionalAlgebra:
    def test_reference_point(self):
        e_a1, e, e2 = functionals(1.0, 0.5)
        assert e_a1 == pytest.approx(0.25, rel=1e-14)
        assert e == pytest.approx(0.5, rel=1e-14)
        assert e2 == pytest.approx(0.25, rel=1e-14)

    @given(st.floats(0.05, 1.95))
    def test_unit_fixed_point(self, alpha):
        assert functionals(alpha, 1.0)[0] == pytest.approx(1.0)

    @given(st.floats(0.05, 1.95), st.floats(-3, 3))
    @settings(max_examples=60)
    def test_internal_identities(self, alpha, logr):
        e_a1, e, e2 = functionals(alpha, 10.0 ** logr)
        assert e == pytest.approx(
            2.0 ** (-alpha / (alpha - 2.0)) * e_a1, rel=1e-12
        )
        assert e2 == pytest.approx(
            2.0 ** (-alpha / (2.0 - alpha)) * e, rel=1e-12
        )


class TestRemarkIdentity:
    @pytest.mark.parametrize(
        "alpha,rho,tol",
        [(1.0, 0.5, 1e-12), (0.3, 2.7, 1e-12), (1.9, 0.01, 1e-10)],
    )
    def test_examples(self, alpha, rho, tol):
        assert abs(remark14_residual(alpha, rho)) < tol

    @given(st.floats(0.02, 1.98), st.floats(-3, 3))
    @settings(max_examples=120)
    def test_identity_grid(self, alpha, logr):
        assert abs(remark14_residual(alpha, 10.0 ** logr)) < 1e-10

    def test_domain(self):
        with pytest.raises(ParameterError):
            remark14_residual(2.0, 1.0)
        with pytest.raises(ParameterError):
            remark14_residual(1.0, 0.0)
