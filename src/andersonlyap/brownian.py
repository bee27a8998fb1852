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
midpoint lands far from the origin would bias zeta low.
This path estimator shares zero machinery with the Fourier-side Monte
Carlo, which is the point.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .mc import MCEstimate, derive_seed, run_chunked

__all__ = ["tn_bm_oracle"]

MAX_REFINE_DEPTH = 8
MAX_TIME_STEP = 0.1
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


def _norms(x, d):
    if d == 1:
        return np.abs(x[..., 0])
    return np.sqrt(np.einsum("...i,...i->...", x, x))


def _zeta_paths(rng: np.random.Generator, m: int, d: int, alpha: float,
                dt: float) -> np.ndarray:
    """Simulate m independent paths to an exponential horizon and return
    the accumulated singular functional zeta for each.

    Every step of every path is one row of a flat queue; each pass over
    the queue bridges all midpoints, halves the intervals flagged near
    the origin and retires the rest.
    """
    tau = np.minimum(rng.exponential(1.0, m), TAU_CLIP)
    n_steps = np.maximum(np.ceil(tau / dt).astype(int), 1)
    path = np.repeat(np.arange(m), n_steps)
    ends = np.cumsum(n_steps)
    first = ends - n_steps
    L = np.full(ends[-1], dt)
    L[ends - 1] = tau - (n_steps - 1) * dt
    # positions at step boundaries; variance 2 L per coordinate
    inc = rng.standard_normal((L.size, d)) * np.sqrt(2.0 * L)[:, None]
    right = np.cumsum(inc, axis=0)
    right -= (right[first] - inc[first])[path]
    left = right - inc

    zeta = np.zeros(m)
    for depth in range(MAX_REFINE_DEPTH + 1):
        # the midpoint of a bridge over length L has variance L/2 per
        # coordinate for the speed-2 diffusion
        mid = 0.5 * (left + right) + rng.standard_normal(left.shape) * np.sqrt(
            0.5 * L
        )[:, None]
        split = (depth < MAX_REFINE_DEPTH) & (
            np.minimum(_norms(left, d), _norms(right, d))
            < REFINE_MULT * np.sqrt(L)
        )
        stop = ~split
        zeta += np.bincount(path[stop],
                            weights=L[stop] * _norms(mid[stop], d) ** (-alpha),
                            minlength=m)
        left, mid, right = left[split], mid[split], right[split]
        left, right = np.concatenate([left, mid]), np.concatenate([mid, right])
        L = np.tile(0.5 * L[split], 2)
        path = np.tile(path[split], 2)
    return zeta


def tn_bm_oracle(d: int, alpha: float, n: int, n_paths: int, time_step: float,
                 seed: int, *, threads: int = 1) -> MCEstimate:
    """Path estimate of T_n = E[zeta(tau)^n] / n!.

    Independent of the Fourier-side estimators in both representation
    and sampling machinery; agreement within combined error bars is the
    strongest internal consistency check this package offers.
    """
    if not 0.0 < alpha < min(d, 2.0):
        raise ParameterError(
            f"need 0 < alpha < min(d, 2), got alpha={alpha}, d={d}"
        )
    if n < 1:
        raise ParameterError(f"moment order n must be >= 1, got {n}")
    if not 0.0 < time_step <= MAX_TIME_STEP:
        raise ParameterError(
            f"time_step must lie in (0, {MAX_TIME_STEP}] for the sqrt-scale "
            f"refinement rule to resolve the singularity, got {time_step}"
        )

    log_nfact = math.lgamma(n + 1)

    def draw(rng, m):
        zeta = _zeta_paths(rng, m, d, alpha, time_step)
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
        "subseed": subseed,
    }
    return MCEstimate(mean, se, n_paths, seed, label, params)
