"""Brownian-path oracle for the exponential-time moments.

The n-th heat chaos moment T_n equals E[zeta(tau)^n] / n! where
zeta(t) is the additive functional  integral of |B_s|^(-alpha) ds  of a
d-dimensional diffusion B and tau an independent unit-mean exponential
horizon.  The diffusion must have generator Laplacian (variance 2t per
coordinate) so that its characteristic function matches the squared
heat propagator exp(-t |xi|^2); a standard-speed motion would produce
1/(1 + |xi|^2/2) factors instead of the 1/(1 + |xi|^2) this oracle is
meant to cross-check.

The singular integrand is accumulated by a midpoint rule with
Brownian-bridge subsampling: an interval of length L is halved at its
bridged midpoint whenever either endpoint lies within
REFINE_MULT * sqrt(L) of the origin, up to MAX_REFINE_DEPTH = 8 times,
so passages near the singularity are resolved at step/256.  The
midpoint does not enter that test: an interval kept only when its own
midpoint lands far from the origin would bias zeta low.  Rows are
scalars in d = 1, and the halved intervals are gathered once per depth.
This path estimator shares zero machinery with the Fourier-side Monte
Carlo, which is the point.

Scoring a retired interval by one bridged point, whose density at the
origin is positive, makes E[zeta^n] of the discretised functional
infinite once n alpha >= d (logarithmically at equality, as at d = 1,
alpha = 1/2, n = 2); there the error bar is not a confidence interval.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .mc import MCEstimate, derive_seed, run_chunked
from .spectral import KernelSpec, require_admissible

__all__ = ["tn_bm_oracle"]

MAX_REFINE_DEPTH = 8
MAX_TIME_STEP = 0.1
# Finer steps lay out too many rows: a d = 1 chunk holds about 1.3e7 at
# this floor, and far below it the step counts overflow.
MIN_TIME_STEP = 1e-5
# Exponential horizons above this are clipped; the discarded mass is
# exp(-40) ~ 4e-18, far below any achievable standard error.
TAU_CLIP = 40.0
PATH_CHUNK = 128
# Refine any substep of length L with an endpoint within
# REFINE_MULT * sqrt(L) of the origin.  The bridged midpoint carries
# noise of std sqrt(L/2), so a unit multiple leaves a percent-level
# Jensen (convexity) bias in |x|^(-alpha) just outside the cutoff;
# three noise widths push that bias below Monte-Carlo resolution.
REFINE_MULT = 3.0


def _norms(x):
    if x.ndim == 1:
        return np.abs(x)
    return np.sqrt(np.einsum("...i,...i->...", x, x))


def _zeta_paths(rng: np.random.Generator, m: int, d: int, alpha: float,
                dt: float) -> tuple[np.ndarray, list]:
    """Simulate m independent paths to an exponential horizon; return
    each path's zeta and the number of intervals scored at each depth.

    Every step of every path is one row of a flat queue, a scalar in
    d = 1; each pass bridges all midpoints, retires the intervals not
    flagged near the origin and gathers the flagged ones once.
    """
    tau = np.minimum(rng.exponential(1.0, m), TAU_CLIP)
    n_steps = np.maximum(np.ceil(tau / dt).astype(int), 1)
    path = np.repeat(np.arange(m), n_steps)
    ends = np.cumsum(n_steps)
    first = ends - n_steps
    L = np.full(ends[-1], dt)
    L[ends - 1] = tau - (n_steps - 1) * dt
    shape, row = (L.shape, ...) if d == 1 else ((L.size, d), np.s_[:, None])
    # positions at step boundaries; variance 2 L per coordinate
    inc = rng.standard_normal(shape) * np.sqrt(2.0 * L)[row]
    right = np.cumsum(inc, axis=0)
    right -= (right[first] - inc[first])[path]
    left = right - inc

    zeta = np.zeros(m)
    scored = []
    for depth in range(MAX_REFINE_DEPTH + 1):
        # the midpoint of a bridge over length L has variance L/2 per
        # coordinate for the speed-2 diffusion
        mid = rng.standard_normal(left.shape) * np.sqrt(0.5 * L)[row]
        mid += 0.5 * (left + right)
        split = (depth < MAX_REFINE_DEPTH) & (
            np.minimum(_norms(left), _norms(right)) < REFINE_MULT * np.sqrt(L)
        )
        idx, stop = np.flatnonzero(split), np.flatnonzero(~split)
        zeta += np.bincount(
            path[stop], L[stop] * _norms(mid[stop]) ** -alpha, minlength=m)
        scored.append(stop.size)
        pts = np.concatenate([left[idx], mid[idx], right[idx]])
        left, right = pts[:2 * idx.size], pts[idx.size:]
        L = np.tile(0.5 * L[idx], 2)
        path = np.tile(path[idx], 2)
    return zeta, scored


def tn_bm_oracle(d: int, alpha: float, n: int, n_paths: int, time_step: float,
                 seed: int, *, threads: int = 1) -> MCEstimate:
    """Path estimate of T_n = E[zeta(tau)^n] / n!.

    Independent of the Fourier-side estimators in both representation
    and sampling machinery; agreement within combined error bars is the
    strongest internal consistency check this package offers.
    """
    # Riesz noise against the classical Laplacian, the diffusion's generator
    require_admissible(KernelSpec("riesz", d=d, alpha=alpha).alpha_eff)
    if n < 1:
        raise ParameterError(f"moment order n must be >= 1, got {n}")
    if not MIN_TIME_STEP <= time_step <= MAX_TIME_STEP:
        raise ParameterError(
            f"time_step must lie in [{MIN_TIME_STEP:g}, {MAX_TIME_STEP:g}]: "
            "coarser steps defeat the sqrt-scale refinement rule, finer "
            f"ones lay out too many rows, got {time_step}"
        )

    log_nfact = math.lgamma(n + 1)
    scored = []

    def draw(rng, m):
        zeta, per_depth = _zeta_paths(rng, m, d, alpha, time_step)
        scored.append(per_depth)
        return np.exp(n * np.log(np.maximum(zeta, 1e-300)) - log_nfact)

    label = f"tn_bm/d{d}_a{alpha:g}/n{n}/dt{time_step:g}"
    subseed = derive_seed(seed, label)
    mean, se = run_chunked(draw, n_paths, subseed, threads=threads,
                           chunk_size=PATH_CHUNK)
    params = {
        "d": d,
        "alpha": alpha,
        "n": n,
        "time_step": time_step,
        "max_refine_depth": MAX_REFINE_DEPTH,
        # intervals retired at each depth, summed over chunks in any order
        "scored_per_depth": np.sum(scored, axis=0).tolist(),
        "subseed": subseed,
    }
    return MCEstimate(mean, se, n_paths, seed, label, params)
