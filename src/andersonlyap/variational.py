"""The variational constant rho and the functional algebra around it.

rho is the top eigenvalue of the symmetric, positivity-improving
integral operator with kernel

    K(xi, eta) = C * |xi - eta|^(alpha - d)
                 / sqrt(1 + |xi|^beta_l) / sqrt(1 + |eta|^beta_l),

C the Riesz spectral constant (beta_l = 2 classically).  It is computed
by Nystrom discretization and power iteration:

* d = 1: uniform symmetric midpoint grid on [-R, R].  The translation
  part of the kernel is Toeplitz on that grid, so the matrix is never
  formed; matvecs run through FFT circulant embedding, which is what
  makes the million-point grids needed to beat the slow 1/R truncation
  tail of the flat control case affordable.
* d = 3: the maximizer is taken radial (design assumption: the kernel
  is rotation invariant and positivity improving).  Averaged over the
  relative angle, r s times the kernel is
  (|r - s|^(alpha-1) - (r + s)^(alpha-1)) / (2 (1 - alpha)), which is
  the d = 1 Toeplitz kernel restricted to odd functions on [-R, R]
  (log((r + s)/|r - s|)/2 at alpha = 1).  So d = 3 runs on the d = 1
  FFT operator with the iterate projected onto odd vectors; the
  positive half of the 2m-point grid is the m-point radial grid.
* d = 2: the same radial reduction, but the angular average is a
  hypergeometric closed form, summed in numpy at every entry of a dense
  symmetric matrix: a series in (s/r)^2 away from the diagonal, one in
  ((r-s)/(r+s))^2 near it.  The kernel is homogeneous of degree
  alpha - 2, so a solve fills the matrix once, on the unit grid
  r = i + 1/2, growing it by new rows only as the grid refines; at
  spacing h a level uses h^(alpha-2) times its leading block.

The integrable diagonal singularity |xi - eta|^(alpha - d) is replaced
on diagonal cells by its exact cell average, restoring the first-order
accuracy the point rule loses there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .errors import ConvergenceError, ParameterError
from .spectral import (KernelSpec, _radial_tail, _sphere_area,
                       require_admissible, riesz_constant)

__all__ = [
    "RhoEstimate",
    "rho_eigen",
    "power_iteration",
]

DEFAULT_RADIUS = 50.0
DEFAULT_POINTS = 4096        # d = 1 grid
DEFAULT_POINTS_RADIAL = 600  # radial grid, d = 2, 3 (d = 3 solves on 2m)
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 5000
# relative disagreement of the (m, 2m) pair that triggers an automatic
# grid refinement
DEFAULT_REFINE_TOL = 1e-3
MAX_GRID_REFINEMENTS = 2


@dataclass(frozen=True)
class RhoEstimate:
    """Top-eigenvalue result with its discretization audit trail."""

    value: float
    grid_radius: float
    grid_points: int
    power_iterations: int
    residual: float
    richardson_pair: Optional[tuple] = None
    params: dict = field(default_factory=dict)

    def require_refined(self) -> "RhoEstimate":
        """self, unless its final Richardson pair still disagrees by more
        than refine_tol: that is a convergence error."""
        gap, tol = self.params["richardson_gap"], self.params["refine_tol"]
        if not gap <= tol:
            raise ConvergenceError(
                f"rho grid refinement stopped at {self.grid_points} points "
                f"with richardson_gap {gap:.3e} above refine_tol {tol:.3e}",
                gap)
        return self


def power_iteration(matvec, v0: np.ndarray, tol: float, max_iters: int):
    """Top eigenpair of a symmetric PSD operator given through matvec.

    Stops when the residual ||Av - lam v|| drops below tol or the
    eigenvalue change falls below tol * |lam|.  Raises ConvergenceError
    (carrying the last residual) otherwise, and at once when the start
    vector or an iterate is not finite, or its norm leaves the double
    range.
    """
    norm0 = np.linalg.norm(v0)
    if not 0.0 < norm0 < math.inf:
        raise ConvergenceError("the start vector's norm is zero or not "
                               "finite", math.inf)
    v = v0 / norm0
    lam_prev = None
    residual = math.inf
    for it in range(1, max_iters + 1):
        y = matvec(v)
        norm_y = np.linalg.norm(y)
        if not norm_y < math.inf:  # an inf or NaN entry
            raise ConvergenceError(
                f"power iteration met a non-finite iterate at step {it}",
                residual)
        lam = float(v @ y)
        residual = float(np.linalg.norm(y - lam * v))
        if norm_y == 0.0:
            raise ConvergenceError("operator annihilated the iterate", residual)
        v = y / norm_y
        if residual < tol:
            return lam, v, it, residual
        # The eigenvalue settles quadratically faster than the vector;
        # accept on eigenvalue stability only once the residual has had
        # a fair chance, so a tiny spectral gap cannot stall the solve.
        if (
            it >= 100
            and lam_prev is not None
            and abs(lam - lam_prev) < tol * abs(lam)
        ):
            return lam, v, it, residual
        lam_prev = lam
    raise ConvergenceError(
        f"power iteration did not converge in {max_iters} iterations "
        f"(last residual {residual:.3e})",
        residual,
    )


# ----------------------------------------------------------------------
# d = 1: Toeplitz grid
# ----------------------------------------------------------------------

def _toeplitz_matvec_factory(col: np.ndarray):
    """FFT circulant-embedding matvec for a symmetric Toeplitz matrix."""
    m = col.size
    emb = np.concatenate([col, [0.0], col[:0:-1]])
    sym = np.fft.rfft(emb)

    def matvec(v):
        vf = np.fft.rfft(v, n=2 * m)
        return np.fft.irfft(sym * vf, n=2 * m)[:m]

    return matvec


def _cell_avg_singular(alpha: float, h: float) -> float:
    """Exact cell average of |u|^(alpha-1) over a width-h cell at 0."""
    return h ** (alpha - 1.0) * 2.0 ** (1.0 - alpha) / alpha


def _kernel_column_1d(kernel: KernelSpec, h: float, m: int) -> np.ndarray:
    """First column of the translation-invariant kernel factor on the
    uniform grid, diagonal entry replaced by its exact cell average.
    d = 3 gives the odd-reduced radial kernel (module docstring); white
    noise, alpha_eff = 1, gives the constant column 1/(2 pi)."""
    c, alpha = kernel.constant, kernel.alpha_eff
    k = np.arange(m, dtype=float)
    if kernel.d == 1:
        with np.errstate(divide="ignore"):
            col = c * (k * h) ** (alpha - 1.0)
        col[0] = c * _cell_avg_singular(alpha, h)
        return col
    # d = 3: (|u|^(alpha-1) - 1)/(1 - alpha), -log|u| at alpha = 1: the
    # -1 drops out on odd vectors and keeps the digits near alpha = 1
    log_u = np.log(np.maximum(k, 0.5) * h)  # entry 0 at u = h/2
    s = alpha - 1.0
    col = -log_u if s == 0.0 else np.expm1(s * log_u) / -s
    col[0] = (col[0] + 1.0) / alpha  # the cell average, from its value at h/2
    return c * (_sphere_area(3) / 2.0) * col


def _solve_1d(kernel, beta_l, R, m, v0=None):
    # d = 3: m is the radial count; the grid holds 2m points, h = R/m
    odd = kernel.d == 3
    n = 2 * m if odd else m
    h = 2.0 * R / n
    xi = -R + (np.arange(n) + 0.5) * h
    w = 1.0 / np.sqrt(1.0 + np.abs(xi) ** beta_l)
    col = _kernel_column_1d(kernel, h, n)
    tmv = _toeplitz_matvec_factory(col)

    def matvec(v):
        y = h * w * tmv(w * v)
        # rounding would otherwise feed the larger even eigenvector
        return 0.5 * (y - y[::-1]) if odd else y

    if v0 is None:
        v0 = (xi if odd else 1.0) / (1.0 + xi * xi)
    return power_iteration(matvec, v0, DEFAULT_TOL, DEFAULT_MAX_ITERS)


# ----------------------------------------------------------------------
# d = 2: radial reduction
# ----------------------------------------------------------------------

def _hyp2f1(a, b, c, z, z_max):
    """Gauss 2F1(a, b; c; z) for 0 <= z <= z_max < 1, by Horner over the
    terms that matter at z_max.  Needs a, b, c > 0 and a + b < c + 1:
    then once the term ratio (a+k)(b+k)/((c+k)(k+1)) is at most 1 it
    stays so, the tail is at most the last term times z_max/(1 - z_max),
    and the sum is at least 1."""
    coef = [1.0]
    while True:
        k = len(coef) - 1
        ratio = (a + k) * (b + k) / ((c + k) * (k + 1.0))
        if ratio <= 1.0 and coef[-1] * z_max ** (k + 1) <= 2.0 ** -54 * (
                1.0 - z_max):
            break
        coef.append(coef[-1] * ratio)
    out = np.full_like(z, coef[-1])
    for ck in coef[-2::-1]:
        out *= z
        out += ck
    return out


class _AngularProfile2D:
    """Angular average of |xi - eta|^(alpha-2) in the plane at
    |xi| = ra > |eta| = rb: (2 ra rb)^p g(x), where
    g(x) = (1/pi) * integral of (x - cos t)^p dt over [0, pi],
    p = (alpha-2)/2 and x = (ra^2 + rb^2)/(2 ra rb).

    At alpha = 1 it is the elliptic form 1/AGM(ra+rb, ra-rb).  Otherwise,
    for rb/ra <= e^-1, it is ra^(2p) 2F1(-p, -p; 1; (rb/ra)^2), the angle
    average of |1 - (rb/ra) e^(it)|^(2p) by the binomial series.  Nearer
    the diagonal the DLMF 15.8.4 pair in w = ((ra-rb)/(ra+rb))^2, which
    stays below tanh(1/2)^2, gives (ra+rb)^(2p) [k_reg 2F1(-p, 1/2; 1-s; w)
    + k_sing w^s 2F1(1+p, 1/2; 1+s; w)], s = (alpha-1)/2.  As e = x - 1 -> 0
    this gives g = 2^p k_reg + c_sing e^s + o(1) for alpha != 1 (the
    constant is g(1) for alpha > 1, where g(1) is finite), and
    g = (sqrt(2)/pi) (c_log - log(e)/2) + o(1) for alpha = 1.
    """

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.p = p = (alpha - 2.0) / 2.0
        self.s = s = (alpha - 1.0) / 2.0  # c - a - b of the 2F1
        if alpha == 1.0:
            self.c_log = 2.5 * math.log(2.0)
        else:
            # weights of the regular and the w^s branch of DLMF 15.8.4
            root_pi = math.sqrt(math.pi)
            self.k_reg = math.gamma(s) / (math.gamma(1.0 + p) * root_pi)
            self.k_sing = math.gamma(-s) / (math.gamma(-p) * root_pi)
            # (2+e)^p w^s -> 2^(p-s) e^s = e^s / sqrt(2)
            self.c_sing = self.k_sing / math.sqrt(2.0)

    def __call__(self, ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
        p, s = self.p, self.s
        if self.alpha == 1.0:
            # (2/pi) K(1 - w) = 1/AGM(1, sqrt(w)); the AGM is homogeneous
            a, b = ra + rb, ra - rb
            while np.any(a - b > 1e-15 * a):
                a, b = 0.5 * (a + b), np.sqrt(a * b)
            return 2.0 / (a + b)
        out = np.empty_like(ra)
        far = rb <= math.exp(-1.0) * ra
        out[far] = ra[far] ** (2.0 * p) * _hyp2f1(
            -p, -p, 1.0, (rb[far] / ra[far]) ** 2, math.exp(-2.0))
        near = ~far
        plus, minus = ra[near] + rb[near], ra[near] - rb[near]
        w = (minus / plus) ** 2
        w_max = math.tanh(0.5) ** 2
        out[near] = plus ** (2.0 * p) * (
            self.k_reg * _hyp2f1(-p, 0.5, 1.0 - s, w, w_max)
            + self.k_sing * w ** s * _hyp2f1(1.0 + p, 0.5, 1.0 + s, w, w_max))
        return out


def _diag_angular_avg(alpha, r, h, profile2d):
    """Cell average over s in [r - h/2, r + h/2] of the angular average,
    with the |r-s|^(alpha-1) (or log) singularity averaged exactly and
    smooth cofactors frozen at s = r."""
    two_rs = 2.0 * r * r
    if alpha == 1.0:
        # (sqrt(2)/pi) (c_log - log(x-1)/2) / sqrt(2rs) with
        # log(x-1) = 2 log|r-s| - log(2rs)
        const = (
            profile2d.c_log + 0.5 * np.log(two_rs) + 1.0 - math.log(h / 2.0)
        )
        return math.sqrt(2.0) / math.pi * const / np.sqrt(two_rs)
    # singular part c_sing |r-s|^(alpha-1) (2rs)^(-1/2), its cell average
    # finite for every alpha > 0; remainder evaluated at half-cell offset
    sing_avg = profile2d.c_sing * _cell_avg_singular(alpha, h) \
        / np.sqrt(two_rs)
    s_off = r + 0.5 * h
    rem = profile2d(s_off, r) - profile2d.c_sing * (0.5 * h) ** (
        alpha - 1.0) / np.sqrt(2.0 * r * s_off)
    return sing_avg + rem


def _solve_radial(alpha, beta_l, R, m, v0=None, *, unit):
    # unit: [the unit-grid angular matrix], shared and grown by one solve
    m0, h, r = len(unit[0]), R / m, np.arange(m) + 0.5
    if m > m0:
        # the old matrix becomes the leading block and is released; the new
        # rows' strict lower triangle is filled 32 rows at a time, mirrored
        profile2d = _AngularProfile2D(alpha)
        ang = np.zeros((m, m))
        ang[:m0, :m0] = unit.pop()
        unit.append(ang)
        for i0 in range(m0, m, 32):
            i1 = min(m, i0 + 32)
            ra, rb = np.broadcast_arrays(r[i0:i1, None], r[:i1])
            low = rb < ra
            blk = np.zeros(ra.shape)
            blk[low] = profile2d(ra[low], rb[low])
            ang[i0:i1, :i1] = blk
            ang[:i1, i0:i1] += blk.T
        np.fill_diagonal(ang[m0:, m0:],
                         _diag_angular_avg(alpha, r[m0:], 1.0, profile2d))
    ang, r = unit[0][:m, :m], r * h
    u = np.sqrt(h ** (alpha - 1.0) * _sphere_area(2) * riesz_constant(2, alpha)
                * r / (1.0 + r ** beta_l))
    if v0 is None:
        v0 = np.sqrt(r) / (1.0 + r * r)
    return power_iteration(lambda v: u * (ang @ (u * v)), v0, DEFAULT_TOL,
                           DEFAULT_MAX_ITERS)


# ----------------------------------------------------------------------
# public entry point
# ----------------------------------------------------------------------

def _truncation_bound_1d(kernel, beta_l, R) -> float:
    """Schur-type bound on the operator mass beyond the grid: the
    kernel row integral over |eta| > R at the worst grid point xi = R,

        c * integral of u^(alpha-1) (1 + (R+u)^beta_l)^(-1/2) du, u > 0,

    bounded through (1 + (R+u)^beta_l)^(-1/2) <= (R+u)^(-beta_l/2) by
    the Beta integral c R^(alpha-b) Gamma(alpha) Gamma(b-alpha) / Gamma(b),
    b = beta_l/2.  The integral diverges for alpha >= b: +inf there."""
    if kernel.family == "white":
        # rank one: the eigenvalue's deficit is exactly T_1's part beyond R
        return kernel.constant * _sphere_area(1) * _radial_tail(1.0, beta_l, R)
    alpha, b = kernel.alpha_eff, beta_l / 2.0
    if alpha >= b:
        return math.inf
    return (kernel.constant * R ** (alpha - b) * math.gamma(alpha)
            * math.gamma(b - alpha) / math.gamma(b))


def rho_eigen(d: int, alpha: float, beta_l: float = 2.0,
              R: float = DEFAULT_RADIUS, m: Optional[int] = None,
              *, profile: str = "riesz",
              refine_tol: float = DEFAULT_REFINE_TOL) -> RhoEstimate:
    """Top eigenvalue of the weighted Riesz operator (the constant rho).

    ``profile="flat"`` solves for the white-noise kernel instead (d = 1
    only), whose translation factor is the constant 1/(2*pi): the exact
    rank-one eigenvalue is T_1(beta_l) (``t1_exact``) less the tail
    beyond R, which the metadata's ``truncation_bound`` then is.

    The value is computed at m and 2m points (the Richardson pair); if
    the pair disagrees by more than refine_tol relatively the grid is
    doubled, at most twice.  Each finer level's power iteration starts
    from the coarser eigenvector, linearly interpolated, and
    power_iterations counts every level, each run to DEFAULT_TOL within
    DEFAULT_MAX_ITERS steps.  A pair that still disagrees is returned
    all the same (see ``require_refined``).  The returned value is the
    finer of the final pair; truncation-radius adequacy is reported
    separately through the analytic tail bound in the metadata.
    """
    if profile not in ("riesz", "flat"):
        raise ParameterError(f"unknown kernel profile {profile!r}")
    # the flat control is white noise: d = 1 and alpha_eff = 1
    kernel = (KernelSpec("white", d=d) if profile == "flat"
              else KernelSpec("riesz", d=d, alpha=alpha))
    alpha = kernel.alpha_eff
    require_admissible(alpha, beta_l)
    if d > 3:
        raise ParameterError("quadrature grids provided for d in {1,2,3}")
    if d == 2 and alpha - 2.0 == -2.0:
        # the angular profile's exponent (alpha - 2)/2 rounds to -1,
        # a pole of its Gamma(1 + p) weight
        raise ParameterError(
            f"alpha={alpha} is below the d = 2 solver's resolution"
        )
    if m is None:
        m = DEFAULT_POINTS if d == 1 else DEFAULT_POINTS_RADIAL
    if not (0.0 < R < math.inf and m >= 1):
        raise ParameterError(
            f"R must be positive and finite, m at least 1; got R={R}, m={m}"
        )
    if not R < math.sqrt(sys.float_info.max / 2.0):  # 2 R^2 stays finite
        raise ParameterError(f"grid radius R={R!r} puts the grid weights "
                             "outside the double range")

    if d == 2:
        solve = partial(_solve_radial, alpha, beta_l, R,
                        unit=[np.zeros((0, 0))])
    else:
        solve = partial(_solve_1d, kernel, beta_l, R)

    refinements = 0
    lam_c, vec, iters, _ = solve(m)
    while True:
        # warm start: the coarser eigenvector at the fine cell centres
        x = np.arange(2 * vec.size) / 2.0
        lam_f, vec, it, res_f = solve(2 * m, np.interp(x - 0.25, x[::2], vec))
        iters += it
        gap = abs(lam_f - lam_c) / abs(lam_f)
        if gap <= refine_tol or refinements >= MAX_GRID_REFINEMENTS:
            break
        # a disagreeing pair means the grid is too coarse; the radius
        # side is monitored by the analytic truncation bound instead
        m *= 2
        refinements += 1
        lam_c = lam_f

    params = {
        "d": d,
        "alpha": alpha,
        "beta_l": beta_l,
        "profile": profile,
        "refine_tol": refine_tol,
        "grid_refinements": refinements,
        "richardson_gap": gap,
        "truncation_bound": (_truncation_bound_1d(kernel, beta_l, R)
                             if d == 1 else None),
    }
    return RhoEstimate(
        value=lam_f,
        grid_radius=R,
        grid_points=2 * m,
        power_iterations=iters,
        residual=res_f,
        richardson_pair=(lam_c, lam_f),
        params=params,
    )
